"""Analytic and empirical power spectral densities of chirp-domain frames.

The chirp prototype pulse has the Fresnel-type spectrum

    G(f) = int_0^T exp(j 2 pi c1 N^2 (t/T)^2) exp(-j 2 pi f t) dt,

evaluated here in closed form via Fresnel integrals.  The frame PSD is the
shifted sum sigma^2/(N T) * sum_n |G(f - n/T)|^2 over the N subcarrier
positions.  Its terms lie on lattices of step 1/T, which frequencies with a
common residue f T mod 1 share, so |G|^2 is evaluated once per lattice point
and each PSD value is a window sum (see analytic_psd).  The occupied
bandwidth is well approximated by (2 c1 N^2 + N - 1)/T.  The quadrature of
G and the direct N F evaluation of the shifted sum are test oracles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import welch
from scipy.special import fresnel

from .transforms import ChirpConfig
from .waveform import Waveform


@dataclass
class PsdCurve:
    """One-dimensional PSD sampled on a strictly increasing frequency grid."""

    freq: np.ndarray
    psd: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.freq = np.asarray(self.freq, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if np.any(np.diff(self.freq) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(self.psd < 0):
            raise ValueError("PSD values must be non-negative")

    def db(self, floor: float = 1e-300) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.psd, floor))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "psd_db"])
            for f, p in zip(self.freq, self.db()):
                writer.writerow([f"{f:.12g}", f"{p:.12g}"])


def _fresnel_segment(alpha: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int_lo^hi exp(j alpha v^2) dv for alpha > 0, vectorized in the limits."""
    scale = np.sqrt(2.0 * alpha / np.pi)

    def antideriv(u):
        s, c = fresnel(u * scale)
        return np.sqrt(np.pi / (2.0 * alpha)) * (c + 1j * s)

    return antideriv(hi) - antideriv(lo)


def prototype_spectrum(cfg: ChirpConfig, freqs: np.ndarray) -> np.ndarray:
    """Spectrum of the chirp prototype pulse on the given frequencies.

    A negative c1 conjugates the pulse, so G(f) = conj(G_{|c1|}(-f)).
    """
    freqs = np.asarray(freqs, dtype=float)
    if cfg.c1 == 0:
        w = 2.0 * np.pi * freqs
        out = np.empty(freqs.shape, dtype=np.complex128)
        small = np.abs(w) * cfg.T < 1e-12
        out[small] = cfg.T
        ws = w[~small]
        out[~small] = (np.exp(-1j * ws * cfg.T) - 1.0) / (-1j * ws)
        return out
    mirror = cfg.c1 < 0
    alpha = 2.0 * np.pi * abs(cfg.c1) * cfg.N**2 / cfg.T**2
    w = 2.0 * np.pi * (-freqs if mirror else freqs)
    t_peak = w / (2.0 * alpha)
    # complete the square: exp(j alpha t^2 - j w t) = exp(-j w^2/(4 alpha)) exp(j alpha (t - t_peak)^2)
    g = np.exp(-1j * w**2 / (4.0 * alpha)) * _fresnel_segment(
        alpha, -t_peak, cfg.T - t_peak
    )
    return np.conj(g) if mirror else g


def analytic_psd(cfg: ChirpConfig, sigma2: float, freqs: np.ndarray) -> PsdCurve:
    """Pulse-shaped-OFDM PSD of the ideal chirp frame.

    Uses the uncentered subcarrier indexing n = 0..N-1; the centered form of
    the shifted sum is identical up to the re-labeling n -> n - N/2.

    Writing f T = m + r with m the integer nearest to f T, the N shifted
    spectra of f sit on the lattice (j + r) / T at j = m - n, i.e. on the
    window [m - N + 1, m].  Frequencies whose residues r agree to rounding
    level share one lattice, so |G|^2 is evaluated once on the union of
    their windows and each PSD value is a length-N window sum over that
    flat array.  A grid commensurate with 1/T, such as the Welch grid of the PSD
    experiment, needs about F + N evaluations instead of N F; any other grid
    degenerates to at most N F, evaluated in blocks of about 2M points.
    """
    freqs = np.asarray(freqs, dtype=float)
    if not np.all(np.isfinite(freqs)):
        raise ValueError("frequencies must be finite")
    big_n = cfg.N
    u = freqs * cfg.T
    m = np.rint(u)
    r = u - m
    # residues a few ulps of f T apart differ only by the rounding of f T
    tol = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(u), initial=0.0)))
    _, lattice = np.unique(np.rint(r / tol), return_inverse=True)
    # frequencies ordered by lattice, then by window end m
    order = np.lexsort((m, lattice))
    lat, top, fs = lattice[order], m[order], freqs[order]
    # lattice points each frequency adds beyond the window before it
    fresh = np.full(len(order), big_n, dtype=np.int64)
    same = lat[1:] == lat[:-1]
    fresh[1:][same] = np.minimum(np.diff(top), big_n)[same]
    reach = np.cumsum(fresh)
    total = np.zeros(len(order))
    block = max(big_n, 1 << 21)
    start = 0
    while start < len(order):
        stop = int(np.searchsorted(reach, reach[start] - big_n + block, side="right"))
        # the first window of a block is evaluated in full
        count = fresh[start:stop].copy()
        count[0] = big_n
        ends = np.cumsum(count)
        # each point is f - n / T of the frequency that adds it, n = m - j
        n = np.repeat(ends - 1, count) - np.arange(ends[-1])
        points = np.repeat(fs[start:stop], count) - n / cfg.T
        del n
        power = np.abs(prototype_spectrum(cfg, points)) ** 2
        del points
        bounds = np.stack([ends - big_n, ends], axis=1).ravel()
        total[order[start:stop]] = np.add.reduceat(np.append(power, 0.0), bounds)[::2]
        start = stop
    psd = sigma2 / (big_n * cfg.T) * total
    return PsdCurve(freqs, psd, meta={"kind": "analytic", "sigma2": sigma2, "N": big_n})


def empirical_psd(
    frames: list[Waveform],
    nfft: int,
    window: str = "hann",
) -> PsdCurve:
    """Averaged two-sided periodogram of independently generated frames.

    The frames are concatenated into one stream before segmenting so every
    instant of a frame carries equal weight; windowing isolated frames would
    under-weight the frame edges, which is where a chirp emits its spectral
    extremes, and bias the band-edge estimate low.
    """
    if len(frames) < 10:
        raise ValueError("need at least 10 frames for a stable estimate")
    rate = frames[0].sample_rate
    for wf in frames[1:]:
        if abs(wf.sample_rate - rate) > 1e-6 * rate:
            raise ValueError("all frames must share one sample rate")
    stream = np.concatenate([wf.samples for wf in frames])
    nperseg = min(nfft, len(stream))
    f, pxx = welch(
        stream,
        fs=rate,
        window=window,
        nperseg=nperseg,
        nfft=nfft,
        noverlap=nperseg // 2,
        detrend=False,
        return_onesided=False,
        scaling="density",
    )
    psd = np.fft.fftshift(pxx)
    freq = np.fft.fftshift(f)
    return PsdCurve(freq, psd, meta={"kind": "empirical", "frames": len(frames)})


def bandwidth_estimate(cfg: ChirpConfig) -> float:
    """Closed-form occupied bandwidth (2 c1 N^2 + N - 1) / T for c1 >= 0."""
    if cfg.c1 < 0:
        raise ValueError("bandwidth estimate is stated for c1 >= 0")
    return (2.0 * cfg.c1 * cfg.N**2 + cfg.N - 1) / cfg.T


def occupied_bandwidth(curve: PsdCurve, drop_db: float = 20.0) -> float:
    """Width of the region within drop_db of the PSD peak."""
    level = curve.db()
    above = np.where(level > level.max() - drop_db)[0]
    if len(above) < 2:
        return 0.0
    return float(curve.freq[above[-1]] - curve.freq[above[0]])
