"""Benchmark workloads: generated CLI inputs and checks of the CLI's outputs.

A workload is a tuple of CLI steps.  One repetition writes a config file per
step, seeded from the benchmark seed and the repetition index, and calls
``chirplab.cli.main`` once per step.  The checks then read the CSV files and
the captured standard output of those calls.

Checks use only bounds the acceptance gate already states (criteria 04, 07
and 09) plus exact properties: reference CSVs at 12 significant digits, row
counts, finite values, and a symmetric inner-product grid with a unit
diagonal.  Criteria 07 and 09 state their bounds for sweep means over 100 and
20 trials; a repetition runs fewer trials, so those bounds are applied to the
mean pooled over a run's repetitions once it holds that many trials.

This module uses the standard library only, so the parent process can load
it without importing numpy.
"""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass
from pathlib import Path

# The package's own default seed.  The reference CSVs were written by the
# sources of commit 47c33b9 for repetitions that run with it.
DEFAULT_SEED = 12345
REFERENCE_DIR = Path(__file__).with_name("reference")

SPEEDS = tuple(range(0, 501, 50))
SPANS = tuple(range(6, 21, 2))


@dataclass(frozen=True)
class Step:
    """One CLI call: subcommand, config keys (the seed is added) and CSV name."""

    command: str
    config: dict
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    frames: int
    sweep: tuple = ()
    trials: int = 0
    pooled_trials: int = 0
    nmse_limit_db: float | None = None
    monotone_jitter_db: float | None = None
    psd_bandwidth_hz: float | None = None
    ortho_n: int = 0
    reference: bool = True


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def make_workloads(tiny: bool = False) -> dict:
    """The three workloads, or their tiny variants for the smoke test.

    The tiny variants shrink every size and keep only the exact checks: the
    gate's bounds are stated for the full configurations.
    """
    if tiny:
        speed_cfg = dict(n=64, oversample=4, sweep="speed",
                         sweep_values="0,500", trials=1)
        span_cfg = dict(n=64, oversample=4, sweep="span",
                        sweep_values="6,8", trials=1)
        psd_cfg = dict(n=64, oversample=4, trials=10)
        ortho_n = 32
        return {
            "nmse_speed_full": Workload(
                "nmse_speed_full", (Step("nmse", speed_cfg, "nmse.csv"),),
                frames=2, sweep=(0, 500), trials=1, reference=False),
            "nmse_span_small": Workload(
                "nmse_span_small", (Step("nmse", span_cfg, "nmse.csv"),),
                frames=2, sweep=(6, 8), trials=1, reference=False),
            "figures": Workload(
                "figures",
                (Step("psd", psd_cfg, "psd.csv"),
                 Step("ortho", dict(n=ortho_n, c1_num=16, c1_den="2N"),
                      "ortho.csv")),
                frames=10, ortho_n=ortho_n, reference=False),
        }
    speed_trials = 2
    span_trials = 5
    return {
        # Paper scale: N = 1024, O = 16, q = 12, beta = 0.2, EVA, 11 speeds.
        "nmse_speed_full": Workload(
            "nmse_speed_full",
            (Step("nmse", dict(n=1024, oversample=16, q=12, beta=0.2,
                               profile="eva", sweep="speed",
                               sweep_values=_join(SPEEDS),
                               trials=speed_trials), "nmse.csv"),),
            frames=len(SPEEDS) * speed_trials,
            sweep=SPEEDS,
            trials=speed_trials,
            pooled_trials=100,       # criterion-07, full variant
            nmse_limit_db=-50.0,     # criterion-07, full variant
        ),
        # Desk scale through config keys (--small would force 20 trials).
        "nmse_span_small": Workload(
            "nmse_span_small",
            (Step("nmse", dict(n=256, oversample=8, beta=0.2, profile="eva",
                               sweep="span", sweep_values=_join(SPANS),
                               trials=span_trials), "nmse.csv"),),
            frames=len(SPANS) * span_trials,
            sweep=SPANS,
            trials=span_trials,
            pooled_trials=20,        # criterion-09, small variant
            monotone_jitter_db=1.0,  # criterion-09, small variant
        ),
        # Default-config PSD (100 frames), then the C = 16 grid at N = 128.
        "figures": Workload(
            "figures",
            (Step("psd", {}, "psd.csv"),
             Step("ortho", dict(n=128, c1_num=16, c1_den="2N"), "ortho.csv")),
            frames=100,
            psd_bandwidth_hz=5.76e6,  # criterion-04
            ortho_n=128,
        ),
    }


def rep_seed(seed: int, rep: int) -> int:
    """Config seed of repetition ``rep``; repetition 0 uses the seed itself."""
    return (seed + 7919 * rep) % (1 << 63)


def write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def step_argv(step: Step, workdir: Path) -> list:
    return [step.command, "--config", str(workdir / f"{step.command}.cfg"),
            "--out", str(workdir / step.out)]


def _read_csv(path: Path) -> list:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.reader(fh))


def _agree_12_digits(a: str, b: str) -> bool:
    """Equal to 12 significant digits, on a scale of at least 1.

    One unit in the 12th digit is allowed (plus 1% for binary rounding), so a
    value that rounds across a digit boundary still agrees.  The floor of 1
    is the natural scale of every CSV column checked here (dB values, hertz,
    and |I|/T whose diagonal is 1), so noise-level entries are not compared
    digit by digit.
    """
    if a == b:
        return True
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y), 1.0)
    return abs(x - y) <= 1.01 * 10.0 ** (math.floor(math.log10(scale)) - 11)


def compare_reference(path: Path, workload: str) -> list:
    """Problems found comparing a CSV with its stored reference."""
    ref = _read_csv(REFERENCE_DIR / workload / f"{path.name}.gz")
    got = _read_csv(path)
    if got[:1] != ref[:1] or len(got) != len(ref):
        return [f"{path.name}: header or row count differs from the reference"]
    bad = [i for i, (r, g) in enumerate(zip(ref[1:], got[1:]), 1)
           if len(r) != len(g) or not all(map(_agree_12_digits, r, g))]
    if bad:
        return [f"{path.name}: {len(bad)} rows differ from the reference "
                f"at 12 significant digits, first at line {bad[0] + 1}"]
    return []


def _sweep_rows(path: Path, wl: Workload, problems: list) -> list | None:
    rows = _read_csv(path)
    if rows[:1] != [["sweep_value", "nmse_db", "stderr_db"]]:
        problems.append(f"{path.name}: unexpected header")
        return None
    body = [[float(v) for v in row] for row in rows[1:]]
    if [r[0] for r in body] != [float(v) for v in wl.sweep]:
        problems.append(f"{path.name}: sweep points differ from the config")
        return None
    if not all(math.isfinite(m) and math.isfinite(s) and s >= 0
               for _, m, s in body):
        problems.append(f"{path.name}: non-finite NMSE or negative stderr")
        return None
    return [m for _, m, _ in body]


def _psd_in_band_deviation(ana: list, emp: list) -> float:
    """Criterion-04's statistic: worst 8-bin block gap in the -10 dB band."""
    ana_db = [float(r[1]) for r in ana[1:]]
    emp_db = [float(r[1]) for r in emp[1:]]
    top = max(ana_db)
    idx = [i for i, v in enumerate(ana_db) if v >= top - 10.0]
    worst = 0.0
    for b in range(len(idx) // 8):
        sel = idx[8 * b: 8 * (b + 1)]
        da = 10 * math.log10(sum(10 ** (ana_db[i] / 10) for i in sel) / 8)
        de = 10 * math.log10(sum(10 ** (emp_db[i] / 10) for i in sel) / 8)
        worst = max(worst, abs(da - de))
    return worst


def check_rep(wl: Workload, workdir: Path, stdout: dict, seed: int) -> tuple:
    """Check one repetition's outputs.

    Returns (problems, sweep) where sweep is the NMSE column in dB, or None.
    """
    problems: list = []
    sweep = None
    exact = wl.reference and seed == DEFAULT_SEED
    for step in wl.steps:
        path = workdir / step.out
        if step.command == "nmse":
            sweep = _sweep_rows(path, wl, problems)
            if exact:
                problems += compare_reference(path, wl.name)
        elif step.command == "psd":
            ana_path = path.with_name(f"{path.stem}_analytic{path.suffix}")
            ana, emp = _read_csv(ana_path), _read_csv(path)
            if len(ana) != len(emp) or [r[0] for r in ana] != [r[0] for r in emp]:
                problems.append("psd: analytic and empirical grids differ")
                continue
            if wl.reference:
                # the analytic PSD does not depend on the seed
                problems += compare_reference(ana_path, wl.name)
            if exact:
                problems += compare_reference(path, wl.name)
            if wl.psd_bandwidth_hz is not None:
                line = stdout["psd"].strip().splitlines()[-1]
                bw = float(line.partition("=")[2])
                if abs(bw - wl.psd_bandwidth_hz) > 0.03 * wl.psd_bandwidth_hz:
                    problems.append(f"psd: bandwidth {bw:.6g} Hz outside 3%")
                dev = _psd_in_band_deviation(ana, emp)
                if dev > 1.0:
                    problems.append(f"psd: in-band deviation {dev:.3f} dB > 1")
        elif step.command == "ortho":
            problems += _check_ortho(path, wl)
    return problems, sweep


def _check_ortho(path: Path, wl: Workload) -> list:
    rows = _read_csv(path)
    n = wl.ortho_n
    if rows[:1] != [["n", "n_prime", "abs_I_over_T"]] or len(rows) != n * n + 1:
        return ["ortho: unexpected header or row count"]
    grid = [[0.0] * n for _ in range(n)]
    for i, j, v in rows[1:]:
        grid[int(i)][int(j)] = float(v)
    if any(grid[i][i] != 1.0 for i in range(n)):
        return ["ortho: diagonal is not 1"]
    if any(grid[i][j] != grid[j][i] for i in range(n) for j in range(i)):
        return ["ortho: grid is not symmetric"]
    # the grid does not depend on the seed
    return compare_reference(path, wl.name) if wl.reference else []


def check_pooled(wl: Workload, sweeps: list) -> list:
    """Apply criterion 07 or 09 to the sweep mean pooled over repetitions.

    Every repetition runs ``wl.trials`` trials, so the pooled linear NMSE is
    the plain mean of the per-repetition means.
    """
    if not wl.pooled_trials or not sweeps:
        return []
    pooled = [
        10 * math.log10(sum(10 ** (s[i] / 10) for s in sweeps) / len(sweeps))
        for i in range(len(wl.sweep))
    ]
    if wl.nmse_limit_db is not None and max(pooled) > wl.nmse_limit_db:
        return [f"pooled NMSE {max(pooled):.2f} dB above {wl.nmse_limit_db} dB"]
    if wl.monotone_jitter_db is not None and any(
        b - a > wl.monotone_jitter_db for a, b in zip(pooled, pooled[1:])
    ):
        return ["pooled NMSE rises with the span by more than the jitter"]
    return []
