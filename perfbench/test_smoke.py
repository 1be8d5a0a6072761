"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with ``--tiny`` in both trace modes and checks the
result line against BENCHMARK.json, checks that a copy of the benchmark
without the chirplab sources fails without a result, and checks that the
reference comparison notices a change in the 10th significant digit.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.coverage"] >= 0.95
        assert values["cli.main.calls"] >= 1
        if workload.startswith("nmse"):
            # experiments binds effective_taps by name; the wrapper must reach it
            assert values["receiver.effective_taps.calls"] >= 1
            assert values["transforms.fft_points"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "figures", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_comparison_sees_the_10th_digit(tmp_path):
    ref = workloads.REFERENCE_DIR / "nmse_span_small" / "nmse.csv.gz"
    with gzip.open(ref, "rt") as fh:
        lines = fh.read().splitlines()
    out = tmp_path / "nmse.csv"
    out.write_text("\n".join(lines) + "\n")
    assert workloads.compare_reference(out, "nmse_span_small") == []
    value = lines[1].split(",")[1]
    lines[1] = lines[1].replace(value, f"{float(value) * (1 + 3e-10):.12g}")
    out.write_text("\n".join(lines) + "\n")
    assert workloads.compare_reference(out, "nmse_span_small")


def test_twelve_digit_agreement_allows_one_unit_in_the_last_digit():
    assert workloads._agree_12_digits("-52.0123456789", "-52.0123456790")
    assert not workloads._agree_12_digits("-52.0123456789", "-52.0123456792")
    # below the unit scale, noise-level entries agree
    assert workloads._agree_12_digits("3.1e-15", "1.2e-16")
