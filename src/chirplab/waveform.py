"""Continuous-time (oversampled) chirp waveforms and SRRC pulse shaping.

The ideal chirp basis functions are

    phi_n(t) = Pi_T(t) * exp(j 2 pi c1 N^2 (t/T)^2) * exp(j 2 pi n t / T)

with unit amplitude on [0, T), so that <phi_n, phi_n'> = T delta(n - n').
Implemented (band-limited) waveforms are obtained by sample-wise shaping of
the base-rate sequence with a truncated root-raised-cosine filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .transforms import ChirpConfig


@dataclass
class Waveform:
    """Uniformly sampled complex baseband signal.

    t0 is the absolute time of samples[0]; sample k sits at t0 + k/sample_rate.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.sample_rate

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def energy(self) -> float:
        """Riemann-sum signal energy."""
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)


@dataclass
class SrrcFilter:
    """Truncated root-raised-cosine interpolation filter.

    The total span is ``q`` symbol intervals: taps sit on the grid
    t = m * Ts / O for m = -q*O/2 .. q*O/2 (q*O + 1 taps), and are scaled to
    unit continuous energy: sum |tap|^2 * (Ts/O) = 1.
    """

    beta: float
    q: int
    O: int
    Ts: float
    taps: np.ndarray

    @property
    def dt(self) -> float:
        """Fine-grid tap spacing Ts/O."""
        return self.Ts / self.O

    @property
    def half_span(self) -> float:
        """Truncation point q/2 in symbol intervals, one-sided."""
        return self.q / 2.0

    @property
    def center(self) -> int:
        """Index of the t = 0 tap."""
        return self.q * self.O // 2

    def time_grid(self) -> np.ndarray:
        return (np.arange(len(self.taps)) - self.center) * self.dt


def _srrc_impulse(beta: float, t_over_ts: np.ndarray) -> np.ndarray:
    """Unit-symbol-interval SRRC impulse response with singular points filled."""
    t = np.asarray(t_over_ts, dtype=float)
    h = np.empty_like(t)
    tiny = 1e-10
    at_zero = np.abs(t) < tiny
    if beta > 0:
        at_sing = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) < tiny
    else:
        at_sing = np.zeros_like(at_zero)
    regular = ~(at_zero | at_sing)
    tr = t[regular]
    h[regular] = (
        np.sin(np.pi * tr * (1 - beta)) + 4 * beta * tr * np.cos(np.pi * tr * (1 + beta))
    ) / (np.pi * tr * (1 - (4 * beta * tr) ** 2))
    h[at_zero] = 1 - beta + 4 * beta / np.pi
    # pi / (4 beta) is inf for a tiny beta, and sin/cos of it warn; such a
    # beta puts its singular point far outside the filter span
    if np.any(at_sing):
        h[at_sing] = (beta / np.sqrt(2)) * (
            (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
            + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
        )
    return h


def design_srrc(beta: float, q: int, oversampling: int, Ts: float) -> SrrcFilter:
    """Design a truncated, energy-normalized SRRC filter.

    beta          roll-off in [0, 1]
    q             total span in symbol intervals (even, >= 2); tails beyond
                  q/2 intervals from the peak are dropped
    oversampling  taps per symbol interval (>= 2)
    Ts            symbol interval in seconds
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"roll-off must lie in [0, 1], got {beta}")
    if q < 2 or q % 2 != 0:
        raise ValueError(f"span must be an even integer >= 2, got {q}")
    if oversampling < 2:
        raise ValueError(f"oversampling must be >= 2, got {oversampling}")
    if not Ts > 0:
        raise ValueError("Ts must be positive")
    half = q * oversampling // 2
    m = np.arange(-half, half + 1)
    taps = _srrc_impulse(beta, m / oversampling).astype(np.complex128)
    energy = np.sum(np.abs(taps) ** 2) * (Ts / oversampling)
    taps /= np.sqrt(energy)
    return SrrcFilter(beta=beta, q=q, O=oversampling, Ts=Ts, taps=taps)


def root_chirp(cfg: ChirpConfig, oversampling: int) -> Waveform:
    """Prototype pulse g(t) = exp(j 2 pi c1 N^2 (t/T)^2) sampled on [0, T)."""
    n_samp = cfg.N * oversampling
    t = np.arange(n_samp) * (cfg.T / n_samp)
    samples = np.exp(2j * np.pi * cfg.c1 * cfg.N**2 * (t / cfg.T) ** 2)
    return Waveform(samples, sample_rate=n_samp / cfg.T, t0=0.0)


def ideal_basis(cfg: ChirpConfig, n: int, oversampling: int) -> Waveform:
    """Ideal chirp subcarrier phi_n sampled at rate O*N/T on [0, T).

    At oversampling 1 the samples reduce to the base-rate chirp sequence
    exp(j 2 pi c1 k^2) exp(j 2 pi n k / N).
    """
    if not 0 <= n < cfg.N:
        raise ValueError(f"subcarrier index {n} outside [0, {cfg.N})")
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    wf = root_chirp(cfg, oversampling)
    wf.samples *= np.exp(2j * np.pi * n * wf.times() / cfg.T)
    return wf


def synth_ideal(cfg: ChirpConfig, symbols: np.ndarray, oversampling: int) -> Waveform:
    """Ideal (alias-free) chirp-domain frame sum_n Xdot[n] phi_n(t).

    The per-symbol chirp phase and 1/sqrt(N) scaling are absorbed into
    Xdot[n] = exp(j 2 pi c2 n^2) X[n] / sqrt(N), so at oversampling 1 the
    samples equal ``modulate(cfg, symbols)`` exactly.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.shape != (cfg.N,):
        raise ValueError(f"expected {cfg.N} symbols, got shape {symbols.shape}")
    n = np.arange(cfg.N)
    weighted = symbols * np.exp(2j * np.pi * cfg.c2 * n**2) / np.sqrt(cfg.N)
    n_samp = cfg.N * oversampling
    # sum_n w[n] exp(j 2 pi n j / (N O)) is a zero-padded inverse DFT
    tones = np.fft.ifft(weighted, n=n_samp) * n_samp
    envelope = root_chirp(cfg, oversampling)
    return Waveform(envelope.samples * tones, envelope.sample_rate, t0=0.0)


def add_cpp(cfg: ChirpConfig, seq: np.ndarray, l_cpp: int) -> np.ndarray:
    """Prepend the chirp-periodic prefix to a base-rate frame.

    The prefix obeys x[k] = x[N + k] exp(-j 2 pi c1 (N^2 + 2 N k)) for
    k = -l_cpp .. -1, which reduces to a plain cyclic prefix when c1 = 0.
    """
    seq = np.asarray(seq, dtype=np.complex128)
    if seq.shape != (cfg.N,):
        raise ValueError(f"expected a length-{cfg.N} frame, got {seq.shape}")
    if not 1 <= l_cpp < cfg.N:
        raise ValueError(f"l_cpp must lie in [1, {cfg.N}), got {l_cpp}")
    k = np.arange(-l_cpp, 0)
    phase = np.exp(-2j * np.pi * cfg.c1 * (cfg.N**2 + 2 * cfg.N * k))
    return np.concatenate([seq[cfg.N + k] * phase, seq])


def strip_cpp(cfg: ChirpConfig, seq: np.ndarray, l_cpp: int) -> np.ndarray:
    """Drop the prefix added by :func:`add_cpp`."""
    return np.asarray(seq)[l_cpp:]


def shape(
    cfg: ChirpConfig,
    seq: np.ndarray,
    filt: SrrcFilter,
    t_first: float = 0.0,
) -> Waveform:
    """Sample-wise pulse shaping x(t) = sum_k seq[k] a(t - k T/N - t_first).

    Returns the fine-grid waveform at rate O*N/T; the output starts q/2
    symbol intervals before the first sequence sample.
    """
    seq = np.asarray(seq, dtype=np.complex128)
    if abs(filt.Ts - cfg.dt) > 1e-9 * cfg.dt:
        raise ValueError("filter symbol interval does not match cfg.T/N")
    up = np.zeros((len(seq) - 1) * filt.O + 1, dtype=np.complex128)
    up[:: filt.O] = seq
    samples = fftconvolve(up, filt.taps)
    rate = filt.O / filt.Ts
    return Waveform(samples, sample_rate=rate, t0=t_first - filt.half_span * filt.Ts)
