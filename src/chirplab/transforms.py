"""Discrete affine Fourier transform (DAFT) pair and the Fresnel special case.

The inverse DAFT maps N information symbols onto a chirp-domain sequence

    x[k] = (1/sqrt(N)) * sum_n X[n] exp(j 2 pi (c2 n^2 + n k / N + c1 k^2))

and is unitary for any real chirp rates c1, c2.  The forward transform is its
conjugate transpose.  With c1 = c2 = -1/(2N) the inverse DAFT coincides with
the inverse discrete Fresnel transform up to the global phase exp(j pi / 4),
which recovers orthogonal chirp division multiplexing as a special case.

All fast paths use the chirp / inverse-FFT / chirp factorization and agree
with the dense matrices to machine precision (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be a positive even integer, got {self.N}")
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


def idaft_matrix(cfg: ChirpConfig) -> np.ndarray:
    """Dense N x N inverse DAFT matrix; column n synthesizes subcarrier n."""
    k = np.arange(cfg.N)[:, None]
    n = np.arange(cfg.N)[None, :]
    phase = cfg.c2 * n**2 + (n * k) / cfg.N + cfg.c1 * k**2
    return np.exp(2j * np.pi * phase) / np.sqrt(cfg.N)


def daft_matrix(cfg: ChirpConfig) -> np.ndarray:
    """Dense forward DAFT matrix (conjugate transpose of the inverse)."""
    return idaft_matrix(cfg).conj().T


def _k_chirp(cfg: ChirpConfig) -> np.ndarray:
    k = np.arange(cfg.N)
    return np.exp(2j * np.pi * cfg.c1 * k**2)


def _n_chirp(cfg: ChirpConfig) -> np.ndarray:
    n = np.arange(cfg.N)
    return np.exp(2j * np.pi * cfg.c2 * n**2)


def modulate(cfg: ChirpConfig, symbols: np.ndarray) -> np.ndarray:
    """Map N symbols to the chirp-domain sequence via the fast factorization.

    Equivalent to ``idaft_matrix(cfg) @ symbols`` but O(N log N): pre-chirp in
    the symbol index, unitary inverse FFT, post-chirp in the sample index.
    Accepts a length-N vector or an (N, m) batch of columns.
    """
    symbols = np.asarray(symbols)
    if symbols.shape[0] != cfg.N:
        raise ValueError(f"expected {cfg.N} symbols, got {symbols.shape[0]}")
    pre = _n_chirp(cfg)
    post = _k_chirp(cfg)
    if symbols.ndim > 1:
        pre = pre[:, None]
        post = post[:, None]
    core = np.fft.ifft(pre * symbols, axis=0) * np.sqrt(cfg.N)
    return post * core


def demodulate(cfg: ChirpConfig, sequence: np.ndarray) -> np.ndarray:
    """Inverse of :func:`modulate` (forward DAFT); unitary round trip."""
    sequence = np.asarray(sequence)
    if sequence.shape[0] != cfg.N:
        raise ValueError(f"expected length {cfg.N}, got {sequence.shape[0]}")
    pre = _k_chirp(cfg).conj()
    post = _n_chirp(cfg).conj()
    if sequence.ndim > 1:
        pre = pre[:, None]
        post = post[:, None]
    core = np.fft.fft(pre * sequence, axis=0) / np.sqrt(cfg.N)
    return post * core


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
