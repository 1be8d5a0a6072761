"""One benchmark process: import chirplab, warm up, then time CLI calls.

run.py starts this script; it is not meant to be run by hand.  Modes:

- ``setup`` stops after the warm-up call and reports the set-up time;
- ``measure`` then times untraced repetitions for ``--seconds``;
- ``trace`` alternates untraced and traced repetitions for ``--seconds``.

The host-speed calibration of calibrate.py runs after the warm-up and after
every repetition; each repetition reports the geometric mean of the two
slowness readings around it.

A repetition runs every CLI step of the workload in-process through
``chirplab.cli.main``, with standard output captured, and checks the outputs
afterwards; only the CLI calls are timed.  The last line of standard output
is one JSON object with the raw per-repetition figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_chirplab():
    sys.path.insert(0, str(ROOT / "src"))
    import chirplab
    import chirplab.cli

    where = Path(chirplab.__file__).resolve().parent
    if where != (ROOT / "src" / "chirplab").resolve():
        raise SystemExit(f"chirplab was imported from {where}, not from src/")
    return chirplab


def _repetition(chirplab, wl, seed: int, rep: int, workdir: Path) -> dict:
    """Run and check one repetition; only the CLI calls are timed."""
    config_seed = workloads.rep_seed(seed, rep)
    for step in wl.steps:
        workloads.write_config(workdir / f"{step.command}.cfg",
                               {**step.config, "seed": config_seed})
    gc.collect()
    stdout = {}
    problems = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for step in wl.steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = chirplab.cli.main(workloads.step_argv(step, workdir))
            stdout[step.command] = buf.getvalue()
            if code != 0:
                problems.append(f"chirplab {step.command} exited with {code}")
                break
    except Exception:  # a crashing call is a failed operation, not a crash
        problems.append(traceback.format_exc().strip().splitlines()[-1])
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    sweep = None
    if not problems:
        try:
            problems, sweep = workloads.check_rep(wl, workdir, stdout, config_seed)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems, "sweep": sweep}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    chirplab = _import_chirplab()
    import numpy
    import scipy

    wl = workloads.make_workloads(args.tiny)[args.workload]
    workdir = Path(args.workdir)
    warm = _repetition(chirplab, wl, args.seed, 0, workdir)
    setup_s = time.monotonic() - args.started
    slowness = calibrate.slowness()
    setup_slowness = slowness
    reps = []
    tracer = Tracer() if args.mode == "trace" else None
    if args.mode != "setup":
        min_reps = math.ceil(wl.pooled_trials / wl.trials) if wl.pooled_trials else 1
        if tracer is not None:
            min_reps = max(min_reps, 2)
        start = time.perf_counter()
        rep = 1
        while time.perf_counter() - start < args.seconds or len(reps) < min_reps:
            traced = tracer is not None and rep % 2 == 0
            if traced:
                tracer.reset()
                tracer.install()
            try:
                result = _repetition(chirplab, wl, args.seed, rep, workdir)
            finally:
                if traced:
                    tracer.remove()
            after = calibrate.slowness()
            result["slowness"] = math.sqrt(slowness * after)
            slowness = after
            result["traced"] = traced
            if traced:
                result["calls"] = dict(tracer.calls)
                result["self_s"] = {k: v * 1e-9 for k, v in tracer.self_ns.items()}
                result["computed"] = dict(tracer.computed)
            reps.append(result)
            rep += 1

    problems = [p for r in [warm] + reps for p in r["problems"]]
    failed = sum(1 for r in [warm] + reps if r["problems"])
    attempted = 1 + len(reps)
    if wl.pooled_trials and reps:
        # the pooled sweep of the run counts as one more checked operation
        pooled = workloads.check_pooled(
            wl, [r["sweep"] for r in reps if r["sweep"] is not None])
        attempted += 1
        failed += 1 if pooled else 0
        problems += pooled
    for r in reps:
        del r["problems"], r["sweep"]
    print(json.dumps({
        "setup_s": setup_s,
        "setup_slowness": setup_slowness,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "reps": reps,
        "traced_functions": tracer.names if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {
            "chirplab": chirplab.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "cpu_count": os.cpu_count(),
    }))


if __name__ == "__main__":
    main()
