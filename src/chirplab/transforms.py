"""Discrete affine Fourier transform (DAFT) pair and the Fresnel special case.

The inverse DAFT maps N information symbols onto a chirp-domain sequence

    x[k] = (1/sqrt(N)) * sum_n X[n] exp(j 2 pi (c2 n^2 + n k / N + c1 k^2))

and is unitary for any real chirp rates c1, c2.  The forward transform is its
conjugate transpose.  With c1 = c2 = -1/(2N) the inverse DAFT coincides with
the inverse discrete Fresnel transform up to the global phase exp(j pi / 4),
which recovers orthogonal chirp division multiplexing as a special case.

All fast paths use the chirp / inverse-FFT / chirp factorization and agree
with the dense matrices to machine precision (see tests).  The two chirp
tables of that factorization are computed once per ``ChirpConfig`` and kept
on it, read-only, so repeated transforms of one configuration cost one
pointwise product per table.  The oversampled root chirp of the waveform
layer is kept there the same way, one table per oversampling, and so are
the chirp-periodic prefix phases of ``add_cpp``.

``modulate`` and ``demodulate`` take (..., N) arrays, like every frame array
of the package: frames in the leading axes, the transform along the last.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ChirpConfig:
    """Frame parameters shared by every transform and waveform in a link.

    N    subcarrier count, positive even integer
    T    frame duration in seconds
    c1   quadratic chirp rate applied in the time index k
    c2   quadratic chirp rate applied in the symbol index n
    """

    N: int
    T: float
    c1: float
    c2: float = 0.0

    def __post_init__(self) -> None:
        if not _is_integer(self.N) or self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be a positive even integer, got {self.N!r}")
        for name in ("T", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.T > 0:
            raise ValueError(f"frame duration T must be positive, got {self.T}")

    @property
    def dt(self) -> float:
        """Base sampling interval T/N in seconds."""
        return self.T / self.N

    @property
    def chirp_span(self) -> float:
        """Aliasing index C = 2 N |c1| (number of frequency folds per frame)."""
        return 2.0 * self.N * abs(self.c1)

    @cached_property
    def _k_chirp(self) -> np.ndarray:
        """Post-chirp exp(j 2 pi c1 k^2) for k < N, read-only."""
        return _read_only(np.exp(2j * np.pi * self.c1 * np.arange(self.N) ** 2))

    @cached_property
    def _n_chirp(self) -> np.ndarray:
        """Pre-chirp exp(j 2 pi c2 n^2) for n < N, read-only."""
        return _read_only(np.exp(2j * np.pi * self.c2 * np.arange(self.N) ** 2))

    @cached_property
    def _prefix_phases(self) -> np.ndarray:
        """Chirp-periodic prefix phases exp(-j 2 pi c1 (N^2 + 2 N k)) for
        k = -(N - 1) .. -1, read-only; ``add_cpp`` takes its last entries."""
        k = np.arange(1 - self.N, 0)
        return _read_only(np.exp(-2j * np.pi * self.c1 * (self.N**2 + 2 * self.N * k)))

    @cached_property
    def _root_chirps(self) -> dict:
        """Root chirp tables by oversampling, see :meth:`_root_chirp`."""
        return {}

    def _root_chirp(self, oversampling: int) -> np.ndarray:
        """Root chirp exp(j 2 pi c1 N^2 (t/T)^2) on the N O samples of [0, T),
        read-only, computed once per oversampling."""
        table = self._root_chirps.get(oversampling)
        if table is None:
            n_samp = self.N * oversampling
            t = np.arange(n_samp) * (self.T / n_samp)
            table = _read_only(np.exp(2j * np.pi * self.c1 * self.N**2 * (t / self.T) ** 2))
            self._root_chirps[oversampling] = table
        return table


def _is_integer(value) -> bool:
    """The package's rule for an integer parameter: an ``Integral`` that is
    not a bool, so that a float is refused rather than truncated."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _read_only(table: np.ndarray) -> np.ndarray:
    """Lock a cached table: every caller of the configuration shares it."""
    table.flags.writeable = False
    return table


def idaft_matrix(cfg: ChirpConfig) -> np.ndarray:
    """Dense N x N inverse DAFT matrix; column n synthesizes subcarrier n."""
    k = np.arange(cfg.N)[:, None]
    n = np.arange(cfg.N)[None, :]
    phase = cfg.c2 * n**2 + (n * k) / cfg.N + cfg.c1 * k**2
    return np.exp(2j * np.pi * phase) / np.sqrt(cfg.N)


def modulate(cfg: ChirpConfig, symbols: np.ndarray) -> np.ndarray:
    """Map N symbols to the chirp-domain sequence via the fast factorization.

    Equivalent to ``idaft_matrix(cfg) @ symbols`` but O(N log N): pre-chirp in
    the symbol index, unitary inverse FFT, post-chirp in the sample index,
    each step in place in the one output array.  Takes an (..., N) array:
    frames in the leading axes, the transform along the last, contiguous
    axis.
    """
    symbols = np.asarray(symbols)
    if symbols.shape[-1] != cfg.N:
        raise ValueError(f"expected {cfg.N} symbols per frame, got {symbols.shape[-1]}")
    out = cfg._n_chirp * symbols
    np.fft.ifft(out, out=out)
    np.multiply(out, np.sqrt(cfg.N), out=out)
    np.multiply(cfg._k_chirp, out, out=out)
    return out


def demodulate(cfg: ChirpConfig, sequence: np.ndarray) -> np.ndarray:
    """Inverse of :func:`modulate` (forward DAFT) on an (..., N) array; unitary."""
    sequence = np.asarray(sequence)
    if sequence.shape[-1] != cfg.N:
        raise ValueError(f"expected length {cfg.N} per frame, got {sequence.shape[-1]}")
    out = cfg._k_chirp.conj() * sequence
    np.fft.fft(out, out=out)
    np.divide(out, np.sqrt(cfg.N), out=out)
    np.multiply(cfg._n_chirp.conj(), out, out=out)
    return out


def idfnt_matrix(n_points: int) -> np.ndarray:
    """Unitary inverse discrete Fresnel transform matrix for even sizes.

    Entry (k, n) is (1/sqrt(N)) exp(j pi/4) exp(-j pi (k - n)^2 / N).
    """
    if n_points % 2 != 0:
        raise ValueError(f"IDFnT requires an even size, got {n_points}")
    k = np.arange(n_points)[:, None]
    n = np.arange(n_points)[None, :]
    return (
        np.exp(1j * np.pi / 4)
        * np.exp(-1j * np.pi * (k - n) ** 2 / n_points)
        / np.sqrt(n_points)
    )


def ocdm_config(n_points: int, frame_duration: float) -> ChirpConfig:
    """Chirp parameters that embed OCDM in the DAFT family."""
    c = -1.0 / (2 * n_points)
    return ChirpConfig(N=n_points, T=frame_duration, c1=c, c2=c)
