"""Analytic and empirical power spectral densities of chirp-domain frames.

The chirp prototype pulse has the Fresnel-type spectrum

    G(f) = int_0^T exp(j 2 pi c1 N^2 (t/T)^2) exp(-j 2 pi f t) dt,

evaluated here in closed form via Fresnel integrals.  The frame PSD is the
shifted sum sigma^2/(N T) * sum_n |G(f - n/T)|^2 over the N subcarrier
positions.  Its terms lie on lattices of step 1/T, which frequencies with a
common residue f T mod 1 share, so |G|^2 is evaluated once per lattice point
and each PSD value is a window sum (see analytic_psd).  The occupied
bandwidth is the width of the region within 20 dB of the peak.  The
empirical PSD is Welch's averaged periodogram in numpy, over strided
segment views transformed in groups, streamed over consecutive blocks of
frames.  The quadrature of G, the direct N F evaluation of the shifted sum,
the closed-form bandwidth (2 c1 N^2 + N - 1)/T and scipy.signal.welch are
test oracles.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .transforms import ChirpConfig, _is_integer
from .waveform import Waveform, _windows


_DB_FLOOR = 1e-300  # ``PsdCurve.db`` reads a zero PSD as -3000 dB, not -inf


@dataclass
class PsdCurve:
    """One-dimensional PSD sampled on a strictly increasing frequency grid."""

    freq: np.ndarray
    psd: np.ndarray

    def __post_init__(self) -> None:
        self.freq = np.asarray(self.freq, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if not np.all(np.isfinite(self.freq)) or np.any(np.diff(self.freq) <= 0):
            raise ValueError("frequency grid must be finite and strictly increasing")
        if not np.all(np.isfinite(self.psd) & (self.psd >= 0)):
            raise ValueError("PSD values must be finite and non-negative")

    def db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.psd, _DB_FLOOR))


def _fresnel_segment(alpha: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int_lo^hi exp(j alpha v^2) dv for alpha > 0, vectorized in the limits.

    scipy.special is imported here, not with the package: it is about 0.2 s
    of a fresh import, and only the analytic PSD needs it.
    """
    from scipy.special import fresnel

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
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2}")
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
    return PsdCurve(freqs, psd)


# the fewest frames ``empirical_psd`` averages into a stable estimate
_MIN_FRAMES = 10

# Welch segments transformed per FFT call: one group's windowed segments and
# spectra stay in the cache, instead of one array per segment of the stream
_WELCH_BLOCK = 16


class _Periodograms:
    """Running sum of the periodograms of Hann-windowed segments.

    Segments are windowed into one reused (``_WELCH_BLOCK``, nfft) buffer,
    zero-padded to nfft, and each full group is transformed there in place,
    so numpy makes no padded copy and no second output array.  The groups
    are consecutive segments of the whole stream, whichever calls of
    :meth:`add` delivered them.
    """

    def __init__(self, nfft: int, nperseg: int) -> None:
        self.nfft = nfft
        self.window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
        self.buf = np.empty((_WELCH_BLOCK, nfft), dtype=np.complex128)
        self.total = np.zeros(2 * nfft)  # interleaved real and imaginary parts
        self.filled = 0  # buffer rows holding windowed segments
        self.count = 0  # segments transformed

    def add(self, segments: np.ndarray) -> None:
        nperseg = len(self.window)
        start = 0
        while start < len(segments):
            rows = segments[start : start + _WELCH_BLOCK - self.filled]
            group = self.buf[self.filled : self.filled + len(rows)]
            np.multiply(rows, self.window, out=group[:, :nperseg])
            group[:, nperseg:] = 0.0  # zero padding, which the last transform overwrote
            self.filled += len(rows)
            start += len(rows)
            if self.filled == _WELCH_BLOCK:
                self._transform()

    def _transform(self) -> None:
        spectra = self.buf[: self.filled]
        np.fft.fft(spectra, out=spectra)
        self.total += np.einsum("ij,ij->j", spectra.view(float), spectra.view(float))
        self.count += self.filled
        self.filled = 0

    def curve(self, rate: float) -> PsdCurve:
        if self.filled:
            self._transform()
        scale = self.count * rate * np.sum(self.window**2)
        psd = self.total.reshape(self.nfft, 2).sum(axis=1) / scale
        freq = np.fft.fftfreq(self.nfft, 1.0 / rate)
        return PsdCurve(np.fft.fftshift(freq), np.fft.fftshift(psd))


def empirical_psd(frames: Waveform | Iterable[Waveform], nfft: int) -> PsdCurve:
    """Hann-windowed, averaged two-sided periodogram of independent frames.

    ``frames`` is one Waveform whose ``samples`` hold one frame per row, or
    an iterable of such Waveforms holding consecutive blocks of frames, all
    at one sample rate and frame length.  The frames are concatenated into
    one stream before segmenting so every instant of a frame carries equal
    weight; windowing isolated frames would under-weight the frame edges,
    which is where a chirp emits its spectral extremes, and bias the
    band-edge estimate low.

    Welch's method (IEEE Trans. Audio Electroacoust. 15(2), 1967): segments
    of min(nfft, stream length) samples at 50% overlap, a periodic Hann
    window, an nfft-point FFT per segment and the mean of the squared
    magnitudes, scaled to a density.  The segments are strided views of each
    block.  Between blocks only the samples from the next segment's start
    on are kept, fewer than nfft, so a segment that straddles two blocks
    reads them and the first nfft - 1 samples of the next block; the
    segments, and the groups they are transformed in, are those of the
    concatenated stream, and the PSD does not depend on how the frames are
    split into blocks.
    """
    if not _is_integer(nfft) or nfft < 2:
        # a one-sample Hann window is zero
        raise ValueError(f"nfft must be an integer >= 2, got {nfft!r}")
    blocks = [frames] if isinstance(frames, Waveform) else frames
    step = nfft - nfft // 2
    sums = _Periodograms(nfft, nfft)
    held = np.empty(0, dtype=np.complex128)  # the stream from the next segment's start
    n_frames = index = 0
    # not enumerate(): its reused result tuple would keep each block alive
    # while the next one is made
    for block in blocks:
        x = block.samples
        if x.ndim != 2 or x.shape[1] == 0:
            raise ValueError(
                f"need frames one per row; block {index} has samples of shape {x.shape}"
            )
        if index == 0:
            rate, width = block.sample_rate, x.shape[1]
        elif block.sample_rate != rate:
            raise ValueError(
                f"block {index} has sample rate {block.sample_rate}, block 0 has {rate}"
            )
        elif x.shape[1] != width:
            raise ValueError(
                f"block {index} has frames of {x.shape[1]} samples, block 0 has {width}"
            )
        n_frames += len(x)
        x = x.ravel()
        ready = len(held) + len(x)
        count = (ready - nfft) // step + 1 if ready >= nfft else 0
        # segments that start in the held samples and end in this block
        straddling = min(count, -(-len(held) // step))
        if straddling:
            head = np.concatenate([held, x[: nfft - 1]])
            sums.add(_windows(head, nfft)[: straddling * step : step])
        if count > straddling:
            sums.add(_windows(x, nfft)[straddling * step - len(held) :: step])
        cut = count * step - len(held)
        held = x[cut:].copy() if cut >= 0 else np.concatenate([held[cut:], x])
        del block, x  # free this block before the next one is made
        index += 1
    if n_frames < _MIN_FRAMES:
        raise ValueError(
            f"need at least {_MIN_FRAMES} frames, one per row, for a stable estimate; "
            f"got {n_frames} frames"
        )
    if sums.count == sums.filled == 0:
        # a stream shorter than nfft is one zero-padded segment
        sums = _Periodograms(nfft, len(held))
        sums.add(held[None, :])
    return sums.curve(rate)


def occupied_bandwidth(curve: PsdCurve) -> float:
    """Width of the region within 20 dB of the PSD peak."""
    level = curve.db()
    above = np.where(level > level.max() - 20.0)[0]
    if len(above) < 2:
        return 0.0
    return float(curve.freq[above[-1]] - curve.freq[above[0]])
