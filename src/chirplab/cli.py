"""Command-line entry point.

Subcommands: psd, ortho, nmse, iorel, complexity, selftest.  The first four
read a flat ``key = value`` text file (--config) with optional --seed and
--trials overrides and write CSV to --out; --small switches them and selftest
to the desk-scale parameter set (N = 256, 20 trials, oversampling 8).
complexity takes only --n and --n-od.  psd writes the analytic curve next
to --out, with ``_analytic`` added to the file name before its last suffix.

Exit codes: 0 success, 1 validation error, 2 acceptance failure in selftest.
"""

from __future__ import annotations

import argparse
import sys
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
    for name in ("psd", "ortho", "nmse", "iorel"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--trials", type=int, help="override the trial count")
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
    return ec


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# rows formatted per write; bounds the memory of the N^2-row ortho grid
_CSV_BLOCK = 1 << 14


def _write_csv(path, header, columns) -> None:
    """Write a header line, then one row per index of the equal-length columns.

    Integer columns are written with %d and all others with 12 significant
    digits; every line ends with CRLF, as csv.writer ends it.  Rows are
    formatted and written in blocks, each with one % over the row template
    repeated per row, so no N^2 list of lines is ever built.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in columns)
    row += "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            rows = min(_CSV_BLOCK, len(columns[0]) - start)
            # the block's rows flattened: column i fills every len(columns)-th slot
            values = [None] * (rows * len(columns))
            for i, c in enumerate(columns):
                values[i :: len(columns)] = c[start : start + rows].tolist()
            fh.write(row * rows % tuple(values))


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
    if args.command == "nmse":
        sweep = run_nmse_sweep(ec)
        if args.out:
            _write_csv(
                args.out,
                ("sweep_value", "nmse_db", "stderr_db"),
                (np.asarray(sweep.values, dtype=float), sweep.nmse_db, sweep.stderr_db),
            )
        for v, m, s in zip(sweep.values, sweep.nmse_db, sweep.stderr_db):
            print(f"{_fmt(float(v))},{_fmt(m)},{_fmt(s)}")
        return 0
    if args.command == "psd":
        ana, emp, bw = run_psd_experiment(ec)
        if args.out:
            out = Path(args.out)
            analytic_out = out.with_name(f"{out.stem}_analytic{out.suffix}")
            for curve, path in ((emp, args.out), (ana, analytic_out)):
                _write_csv(path, ("freq_hz", "psd_db"), (curve.freq, curve.db()))
        print(f"occupied_bandwidth_hz = {_fmt(bw)}")
        return 0
    if args.command == "ortho":
        grid, predictions = run_ortho_experiment(ec)
        ratio = grid / ec.T
        if args.out:
            n, n_prime = np.divmod(np.arange(ratio.size), len(ratio))
            _write_csv(
                args.out, ("n", "n_prime", "abs_I_over_T"), (n, n_prime, ratio.ravel())
            )
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
            h_u = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps)).ravel()
            row, col = np.divmod(np.arange(h_u.size), cfg.N)
            _write_csv(args.out, ("row", "col", "re", "im"), (row, col, h_u.real, h_u.imag))
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
