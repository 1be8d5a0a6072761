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


def test_import_leaves_scipy_signal_unloaded():
    """The package needs only scipy.special; scipy.signal is a test oracle.

    scipy.fft stays unloaded too: numpy's FFT serves every transform, and
    importing scipy.fft would add tens of milliseconds to every fresh import.
    """
    code = "import sys, chirplab; print('scipy.signal' in sys.modules, 'scipy.fft' in sys.modules)"
    src = str(Path(chirplab.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.stdout.strip() == "False False"
