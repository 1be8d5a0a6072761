"""The benchmark workloads' CLI runs at the default seed pass the benchmark's
own output checks.

Each workload of ``perfbench/workloads.py`` is run once, as a benchmark
repetition at the default seed runs it: one config file per step and one
in-process ``chirplab.cli.main`` call per step, standard output captured.
``workloads.check_rep`` then compares the CSVs with the stored references at
12 significant digits and checks their exact properties, so a change that
moves a seeded output fails here, not only in a benchmark run.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from chirplab import cli

# loaded from its file, not through sys.path, so that no other perfbench
# module becomes importable; its dataclasses need it in sys.modules
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.make_workloads()))
def test_benchmark_workload_outputs_pass_its_checks_at_the_default_seed(name, tmp_path):
    wl = workloads.make_workloads()[name]
    seed = workloads.DEFAULT_SEED
    stdout = {}
    for step in wl.steps:
        workloads.write_config(tmp_path / f"{step.command}.cfg", {**step.config, "seed": seed})
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(workloads.step_argv(step, tmp_path)) == 0
        stdout[step.command] = buf.getvalue()
    problems, sweep = workloads.check_rep(wl, tmp_path, stdout, seed)
    assert problems == []
    assert (sweep is not None) == bool(wl.sweep)
