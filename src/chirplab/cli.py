"""Command-line entry point.

Subcommands: psd, ortho, nmse, iorel, complexity, selftest.  The first four
read a flat ``key = value`` text file (--config) and write CSV to --out;
--seed overrides the master seed of psd, nmse and iorel, and --trials the
trial count of psd and nmse, the drivers that read them.  --small switches
the four and selftest to the desk-scale parameter set (N = 256, 20 trials,
oversampling 8), where an explicit --trials still sets the trial count.
complexity takes only --n and --n-od.  psd writes the analytic curve next
to --out, with ``_analytic`` added to the file name before its last suffix.

Exit codes: 0 success, 1 validation error, 2 acceptance failure in selftest.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import acceptance
from .receiver import chirp_domain_matrix, fold_cpp_taps
from .experiments import (
    ExperimentConfig,
    complexity_compare,
    config_from_dict,
    load_config,
    run_iorel_check,
    run_nmse_sweep,
    run_ortho_experiment,
    run_psd_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chirplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    small = dict(action="store_true", help="desk-scale run: N=256, trials=20, oversampling=8")
    overrides = {"seed": "override the master seed", "trials": "override the trial count"}
    # each experiment takes the overrides that its driver reads
    reads = {"psd": ("seed", "trials"), "ortho": (), "nmse": ("seed", "trials"), "iorel": ("seed",)}
    for name, keys in reads.items():
        p = sub.add_parser(name)
        p.set_defaults(seed=None, trials=None)
        p.add_argument("--config", help="flat key = value configuration file")
        for key in keys:
            p.add_argument(f"--{key}", type=int, help=overrides[key])
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--small", **small)
    p = sub.add_parser("complexity")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--n-od", type=int, default=32)
    sub.add_parser("selftest").add_argument("--small", **small)
    return parser


def _experiment_config(args) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.config is not None:
        ec = load_config(args.config, overrides)
    else:
        ec = config_from_dict(overrides)
    if args.small:
        ec = ec.shrink()
        if args.trials is not None:  # an explicit count outranks the desk-scale one
            ec = replace(ec, trials=args.trials)
    return ec


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_csv(path, header, columns) -> None:
    """Write a header line, then one row per index of the equal-length columns.

    Every value is written with 12 significant digits, so an integer below
    1e12 prints as the integer, and every line ends with CRLF: the bytes
    csv.writer wrote for the same strings.  All rows are formatted with one
    % over the row template repeated per row.
    """
    values = np.asarray(columns, dtype=float).T
    row = ",".join(["%.12g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(row * len(values) % tuple(values.ravel().tolist()))


def _write_grid_csv(path, header, grid) -> None:
    """Write a header line, then one row ``i,j,value`` per entry of the 2-D
    grid in row-major order; a complex entry is written as ``i,j,re,im``.

    Values are written with 12 significant digits and every line ends with
    CRLF: the bytes csv.writer wrote for the same strings.  Each grid row is
    formatted with one % over its template, the row index joined with one
    ``j,%.12g`` piece per column j, so no index is formatted per entry and
    no more than one grid row of text is held at a time.
    """
    grid = np.ascontiguousarray(grid)  # row.view needs contiguous rows
    cell = "%.12g,%.12g" if np.iscomplexobj(grid) else "%.12g"
    pieces = [""] + [f"{j},{cell}\r\n" for j in range(grid.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, row in enumerate(grid):
            # a complex row viewed as floats interleaves its real and imaginary parts
            fh.write(f"{i},".join(pieces) % tuple(row.view(float).tolist()))


def _analytic_path(out) -> Path:
    """The file of psd's analytic curve, next to its --out file."""
    out = Path(out)
    return out.with_name(f"{out.stem}_analytic{out.suffix}")


def _check_out(out: Path) -> None:
    """Refuse an output path that names a directory or lies in a missing one."""
    if out.is_dir():
        raise ValueError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {out}: directory {out.parent} does not exist")


def _run(args) -> int:
    if args.command == "selftest":
        failed = 0
        for result in acceptance.run_all(small=args.small):
            print(result.line())
            failed += 0 if result.passed else 1
        return 2 if failed else 0

    if args.command == "complexity":
        report = complexity_compare(args.n, args.n_od)
        for key in ("n", "n_od", "count_full", "count_bank", "count_ratio"):
            print(f"{key} = {_fmt(report[key])}")
        for size, sec in zip(report["measured_sizes"], report["measured_seconds"]):
            print(f"seconds_n{size} = {_fmt(sec)}")
        print(f"loglog_slope = {_fmt(report['loglog_slope'])}")
        return 0

    ec = _experiment_config(args)
    if args.out:  # before the run, which can take minutes
        _check_out(Path(args.out))
        if args.command == "psd":
            _check_out(_analytic_path(args.out))
    if args.command == "nmse":
        sweep = run_nmse_sweep(ec)
        if args.out:
            columns = (sweep.values, sweep.nmse_db, sweep.stderr_db)
            _write_csv(args.out, ("sweep_value", "nmse_db", "stderr_db"), columns)
        for v, m, s in zip(sweep.values, sweep.nmse_db, sweep.stderr_db):
            print(f"{_fmt(float(v))},{_fmt(m)},{_fmt(s)}")
        return 0
    if args.command == "psd":
        ana, emp, bw = run_psd_experiment(ec)
        if args.out:
            for curve, path in ((emp, args.out), (ana, _analytic_path(args.out))):
                _write_csv(path, ("freq_hz", "psd_db"), (curve.freq, curve.db()))
        print(f"occupied_bandwidth_hz = {_fmt(bw)}")
        return 0
    if args.command == "ortho":
        grid, predictions = run_ortho_experiment(ec)
        ratio = grid / ec.T
        if args.out:
            _write_grid_csv(args.out, ("n", "n_prime", "abs_I_over_T"), ratio)
        above = ratio > 0.05
        print(f"pairs_above_threshold = {int(np.count_nonzero(above) - len(ratio))}")
        if predictions is None:
            print("predictor = unavailable (non-integer fold count)")
        else:
            # the predictor decides |I| > 0, so compare it with the grid's support
            agree = np.array_equal(predictions, ratio > 1e-6)
            print(f"predictor_agrees = {agree}")
            below = int(np.count_nonzero(np.triu(predictions & ~above, 1)))
            print(f"aliased_below_threshold = {below}")
        return 0
    if args.command == "iorel":
        report, taps = run_iorel_check(ec)
        for key, value in report.items():
            print(f"{key} = {_fmt(float(value))}")
        if args.out:
            cfg = ec.chirp_config()
            h_u = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps))
            _write_grid_csv(args.out, ("row", "col", "re", "im"), h_u)
        return 0
    raise ValueError(f"unknown subcommand: {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
