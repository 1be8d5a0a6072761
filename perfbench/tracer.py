"""Outside-in tracer for chirplab's layers.

The tracer wraps every public module-level function of the layer modules,
found at run time, so functions added later are traced without editing this
file.  A wrapped function replaces the original in every ``chirplab`` module
namespace that binds it; ``experiments`` and ``cli`` import receiver and
channel functions by name, and their calls must reach the wrapper too.

Each call records one span.  A span's self time is its duration minus the
durations of the wrapped spans nested inside it, so the self times of one
call tree add up to the duration of its outermost span.

A few counts are computed from call arguments rather than measured; they are
labelled as computed wherever they are reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("transforms", "waveform", "channel", "receiver", "spectral",
          "aliasing", "experiments", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n(args, kwargs):
    return _arg(args, kwargs, 0, "cfg").N


def _size(value):
    return getattr(value, "size", None) or len(value)


# traced function -> (computed count, amount per call from the arguments)
COMPUTED = {
    # complex128 N x N matrix built by the prefix fold
    "receiver.fold_cpp_taps":
        ("receiver.dense_matrix_bytes", lambda a, k: 16 * _n(a, k) ** 2),
    "spectral.prototype_spectrum":
        ("spectral.fresnel_evals", lambda a, k: _size(_arg(a, k, 1, "freqs"))),
    # chirp pairs integrated by the quadrature grid
    "aliasing.inner_product_matrix":
        ("aliasing.pair_count", lambda a, k: _n(a, k) * (_n(a, k) - 1) // 2),
    "transforms.modulate":
        ("transforms.fft_points", lambda a, k: _size(_arg(a, k, 1, "symbols"))),
    "transforms.demodulate":
        ("transforms.fft_points", lambda a, k: _size(_arg(a, k, 1, "sequence"))),
}


def discover(package: str = "chirplab") -> dict:
    """Map each public function of each layer module to '<layer>.<name>'."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{name}"
    return found


class Tracer:
    """Span recorder; ``install`` patches the package, ``remove`` restores it."""

    def __init__(self, package: str = "chirplab") -> None:
        self.package = package
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.computed: dict = {}
        self._open: list = []  # nested-span time of each open span
        self._patched: list = []
        found = discover(package)
        self.names = sorted(found.values())
        self._wrappers = {fn: self._wrap(fn, name) for fn, name in found.items()}

    def _wrap(self, fn, name):
        counted = COMPUTED.get(name)
        stack = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                key, amount = counted
                self.computed[key] = self.computed.get(key, 0) + amount(args, kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                nested = stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + span - nested
                if stack:
                    stack[-1] += span

        return traced

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.computed.clear()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
