"""The public surface holds only what the library itself consumes.

Every name that ``chirplab`` exports must be read by library code other
than its own definition and ``__init__.py``: by the CLI, an experiment
driver, the acceptance gate or another layer.  A helper that only tests
call belongs in the tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chirplab

SOURCES = sorted(
    p for p in Path(chirplab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _annotations(tree):
    """Ids of every annotation node: a type hint does not consume a name."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    skip.add(id(arg.annotation))
            if node.returns is not None:
                skip.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            skip.add(id(node.annotation))
    return skip


def _consumed_names():
    """Names read anywhere in the library outside their own top-level definition."""
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = _annotations(tree)
        for top in tree.body:
            owner = getattr(top, "name", None)
            stack = [top]
            while stack:
                node = stack.pop()
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    name = None
                if name is not None and name != owner:
                    used.add(name)
                stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_name_has_a_library_consumer():
    unused = sorted(set(chirplab.__all__) - _consumed_names())
    assert unused == [], f"exported but read by no library code: {unused}"


def _scipy_loaded_by(module):
    """scipy modules the package must not load that a fresh ``import module`` loads."""
    names = ("scipy.signal", "scipy.fft", "scipy.special")
    code = f"import sys, {module}; print([n for n in {names!r} if n in sys.modules])"
    src = str(Path(chirplab.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    return result.stdout.strip()


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal is a test oracle.  scipy.special serves only the analytic
    PSD, which imports it on first use: loaded with the package it was about
    0.2 s of every fresh process.  scipy.fft stays unloaded too: numpy's FFT
    serves every transform, and importing scipy.fft would add tens of
    milliseconds to every fresh import.
    """
    assert _scipy_loaded_by("chirplab") == "[]"


def test_cli_import_leaves_scipy_unloaded():
    assert _scipy_loaded_by("chirplab.cli") == "[]"


def test_python_m_chirplab_runs_the_cli():
    """``python -m chirplab`` exits with the CLI's status: a negative seed is
    a validation error, exit code 1 with an ``error:`` line on stderr."""
    src = str(Path(chirplab.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "chirplab", "nmse", "--small", "--seed", "-3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:"), result.stderr
