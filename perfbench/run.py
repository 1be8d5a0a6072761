"""chirplab benchmark: time one workload through the CLI and check its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload nmse_speed_full --seed 1 \\
        --seconds 25 --trace 0

The workloads and metrics are declared in BENCHMARK.json; perfbench/README.md
gives the reason for each.  Every run starts fresh worker processes, one at a
time, with BLAS and OpenMP pinned to one thread:

- ``--trace 0`` starts SETUP_RUNS workers; each imports chirplab and makes
  one warm-up call, which gives one set-up time, and the last one then times
  repetitions.  It reports the end-to-end metrics.
- ``--trace 1`` starts one worker that alternates untraced and traced
  repetitions and reports the per-layer metrics.

Times are divided by the host slowness that calibrate.py measures next to
them, so they read as seconds at the reference host speed; the measured
medians are printed too.

Human-readable lines come first; the last line of standard output is one
JSON object.  A run manifest, and for traced runs the trace of every public
function, are written to .perfbench_out/.  The exit code is not 0, and no
result is printed, when the chirplab sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import COMPUTED

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = Path(__file__).with_name("worker.py")
# the single-threaded baseline: on a 2-core host a second BLAS thread doubled
# the CPU time of a full-scale sweep without lowering its wall time
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def _spawn(mode: str, args, workdir: Path, deadline: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), "--started", repr(started)]
    if args.tiny:
        cmd.append("--tiny")
    env = {**os.environ, **THREAD_ENV}
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _upper(values: list) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return f"no percentile above the median has 10 samples beyond it (n = {n})"
    k = n - 10
    return f"p{100 * k / n:.0f} = {sorted(values)[k - 1]:.6g} s"


def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def _end_to_end(runs: list, wl) -> tuple:
    reps = runs[-1]["reps"]
    walls = [r["wall_s"] / r["slowness"] for r in reps]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] / r["slowness"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] / r["setup_slowness"] for r in runs),
        "peak_rss_mb": runs[-1]["peak_rss_mb"],
    }
    values["frames_per_s"] = wl.frames / values["wall_s"]
    raw = statistics.median(r["wall_s"] for r in reps)
    slow = statistics.median(r["slowness"] for r in reps)
    notes = [f"times are calibrated to the reference host speed; measured median "
             f"wall {raw:.6g} s at median slowness {slow:.4g}",
             f"wall_s is the median of {len(walls)} repetitions; {_upper(walls)}",
             f"setup_s is the median of {len(runs)} fresh worker starts"]
    return values, notes


def _per_layer(runs: list) -> tuple:
    reps = runs[0]["reps"]
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {}
    for name in runs[0]["traced_functions"]:
        values[f"{name}.calls"] = statistics.median(
            r["calls"].get(name, 0) for r in traced)
        values[f"{name}.self_s"] = statistics.median(
            r["self_s"].get(name, 0.0) for r in traced)
    computed = sorted({key for key, _ in COMPUTED.values()})
    for key in computed:
        values[key] = statistics.median(r["computed"].get(key, 0) for r in traced)
    traced_wall = statistics.median(r["wall_s"] / r["slowness"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] / r["slowness"] for r in plain)
    values["trace.coverage"] = (
        sum(sum(r["self_s"].values()) for r in traced)
        / sum(r["wall_s"] for r in traced))
    values["trace.overhead_s"] = traced_wall - plain_wall
    notes = [f"{len(traced)} traced and {len(plain)} untraced repetitions; "
             "per-layer values are medians per traced repetition",
             f"median calibrated repetition: traced {traced_wall:.6g} s, "
             f"untraced {plain_wall:.6g} s",
             f"computed from call arguments, not measured: {', '.join(computed)}"]
    return values, notes


def _manifest(args, wl, runs: list) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "repetition_seed": "(seed + 7919 * repetition) mod 2**63; "
                           "the warm-up is repetition 0",
        "steps": [{"argv": [s.command, "--config", f"{s.command}.cfg",
                            "--out", s.out],
                   "config": {**s.config, "seed": args.seed}} for s in wl.steps],
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "worker_runs": len(runs),
        "repetitions": len(runs[-1]["reps"]),
        "versions": runs[-1]["versions"],
        "cpu_count": runs[-1]["cpu_count"],
        "thread_env": THREAD_ENV,
        "git_sha": _git_sha(),
        "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.make_workloads()))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "chirplab" / "__init__.py").is_file():
        print("perfbench: no chirplab sources under src/", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.make_workloads(args.tiny)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            runs = [_spawn("trace", args, workdir, deadline)]
        else:
            runs = [_spawn("setup", args, workdir, deadline)
                    for _ in range(SETUP_RUNS - 1)]
            runs.append(_spawn("measure", args, workdir, deadline))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, notes = _per_layer(runs)
        wanted = declared["per_layer"]
    else:
        values, notes = _end_to_end(runs, wl)
        wanted = declared["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = list(dict.fromkeys(p for r in runs for p in r["problems"]))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        notes.append(f"declared but not measured, reported as 0: {', '.join(missing)}")

    OUT_DIR.mkdir(exist_ok=True)
    manifest_path = OUT_DIR / f"manifest-{tag}.json"
    manifest_path.write_text(json.dumps(_manifest(args, wl, runs), indent=1) + "\n")
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"computed": sorted(k for k, _ in COMPUTED.values()), "metrics": values},
            indent=1) + "\n")
        notes.append(f"full trace: {trace_path.relative_to(ROOT)}")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for m in wanted:
        value = values.get(m["name"], 0)
        print(f"  {m['name']:<44} {value:.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} "
          f"({failed} of {attempted} checked operations)")
    for line in notes + problems:
        print(f"  {line}")
    print(f"  manifest: {manifest_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
