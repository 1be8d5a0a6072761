"""Host-speed calibration: a fixed numpy/scipy kernel timed next to the work.

The speed of a shared host drifts by 20-30% within tens of seconds, and the
drift moves whole benchmark runs.  A run therefore times this kernel before
its first repetition and after every repetition.  The kernel does not use
chirplab, so it runs the same work on every commit.

``slowness()`` is the geometric mean of the kernel's three parts, each
timed against its reference time on a 2-core x86-64 host.  A repetition's
calibrated time is its measured time divided by the slowness around it: the
time it would have taken at the reference speed.  The parts cover the kinds
of work in the workloads: elementwise passes over a 2 MB array, mid-size
FFT convolutions and chirp transforms, and many small numpy calls from
Python.  One calibration takes about 45 ms.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.signal import fftconvolve

# median seconds of each part on the reference host
REFERENCE_S = {"stream": 0.0116, "convolve": 0.0150, "small_calls": 0.0108}

_rng = np.random.default_rng(0)
_phase = _rng.standard_normal(1 << 17)
_buffer = np.empty(1 << 17, dtype=np.complex128)
_signal = _rng.standard_normal(20000) + 1j * _rng.standard_normal(20000)
_taps = _rng.standard_normal(193) + 0j
_chirp = np.exp(2e-6j * np.pi * np.arange(16384.0) ** 2)
_small = _rng.standard_normal(256) + 1j * _rng.standard_normal(256)


def _stream() -> None:
    for _ in range(2):
        np.multiply(_phase, 1j, out=_buffer)
        np.exp(_buffer, out=_buffer)
        _buffer.sum()


def _convolve() -> None:
    for _ in range(6):
        fftconvolve(_signal, _taps)
        np.fft.ifft(_signal[:16384] * _chirp)


def _small_calls() -> None:
    for _ in range(600):
        np.fft.fft(_small)
        [i * 0.5 for i in range(50)]


PARTS = {"stream": _stream, "convolve": _convolve, "small_calls": _small_calls}


def part_times() -> dict:
    times = {}
    for name, part in PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


def slowness() -> float:
    """Host slowness now: 1 at the reference speed, 2 when twice as slow."""
    times = part_times()
    return math.exp(sum(math.log(times[k] / REFERENCE_S[k]) for k in PARTS)
                    / len(PARTS))
