"""Continuous-time (oversampled) chirp waveforms and SRRC pulse shaping.

The ideal chirp basis functions are

    phi_n(t) = Pi_T(t) * exp(j 2 pi c1 N^2 (t/T)^2) * exp(j 2 pi n t / T)

with unit amplitude on [0, T), so that <phi_n, phi_n'> = T delta(n - n').
A frame sum_n Xdot[n] phi_n is the root chirp times one zero-padded inverse
DFT of length N O, taken in place on the frame's own buffer; the root chirp
is a read-only table that the ``ChirpConfig`` keeps per oversampling.
Implemented (band-limited) waveforms are obtained by sample-wise shaping of
the base-rate sequence with a truncated root-raised-cosine filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .transforms import ChirpConfig, _is_integer, _read_only


@dataclass
class Waveform:
    """Uniformly sampled complex baseband signal.

    t0 is the absolute time of samples[0]; sample k sits at t0 + k/sample_rate.
    A two-dimensional ``samples`` holds one frame per row, every row on that
    same time grid.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be finite and positive, got {self.sample_rate}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.shape[-1]) / self.sample_rate


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
class SrrcFilter:
    """Truncated root-raised-cosine interpolation filter.

    The total span is ``q`` symbol intervals: taps sit on the grid
    t = m * Ts / O for m = -q*O/2 .. q*O/2 (q*O + 1 taps), and are scaled to
    unit continuous energy: sum |tap|^2 * (Ts/O) = 1.

    The taps are copied and made read-only, and the fields cannot be
    reassigned, so the two tables built from the taps stay true: each is
    computed by its first use and kept read-only, like the chirp tables of a
    ``ChirpConfig``.  The matched filter reads ``_matched_phases``, the tap
    model ``_pulse_windows``; ``shape`` folds the taps on each call, about
    1 us of a 21 us call.  ``dataclasses.replace(filt, taps=...)`` makes a
    new filter with tables of its own.
    """

    beta: float
    q: int
    O: int
    Ts: float
    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.array(self.taps, dtype=np.complex128)
        count = self.q * self.O + 1
        if taps.shape != (count,):
            raise ValueError(f"expected q O + 1 = {count} taps, got shape {taps.shape}")
        object.__setattr__(self, "taps", _read_only(taps))

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

    def _polyphase(self, taps: np.ndarray) -> np.ndarray:
        """``taps`` zero-padded to (q + 1) O and folded into q + 1 rows of O:
        entry (j, r) is tap j O + r, and the last row holds only r = 0."""
        phases = np.zeros((self.q + 1) * self.O, dtype=np.complex128)
        phases[: len(taps)] = taps
        return phases.reshape(self.q + 1, self.O)

    @cached_property
    def _matched_phases(self) -> np.ndarray:
        """The (O, q + 1) transpose of the conjugated polyphase taps, read-only:
        ``sample_matched_filter`` multiplies the folded waveform by it."""
        return _read_only(self._polyphase(np.conj(self.taps))).T

    @cached_property
    def _pulse_windows(self) -> np.ndarray:
        """The (2 M + 1, M) windows of the M taps zero-guarded by M zeros on
        each side, read-only: row M + lag is the pulse shifted by lag, all
        zeros at |lag| = M.  ``ambiguity_values`` gathers its lags from it."""
        m = len(self.taps)
        return _windows(np.concatenate([np.zeros(m), self.taps, np.zeros(m)]), m)


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
    for name, value in (("span", q), ("oversampling", oversampling)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if q < 2 or q % 2 != 0:
        raise ValueError(f"span must be an even integer >= 2, got {q}")
    if oversampling < 2:
        raise ValueError(f"oversampling must be >= 2, got {oversampling}")
    if not (math.isfinite(Ts) and Ts > 0):
        raise ValueError(f"Ts must be finite and positive, got {Ts}")
    half = q * oversampling // 2
    m = np.arange(-half, half + 1)
    taps = _srrc_impulse(beta, m / oversampling).astype(np.complex128)
    energy = np.sum(np.abs(taps) ** 2) * (Ts / oversampling)
    taps /= np.sqrt(energy)
    return SrrcFilter(beta=beta, q=q, O=oversampling, Ts=Ts, taps=taps)


def root_chirp(cfg: ChirpConfig, oversampling: int) -> Waveform:
    """Prototype pulse g(t) = exp(j 2 pi c1 N^2 (t/T)^2) sampled on [0, T).

    The samples are a writable copy of the configuration's read-only table,
    which ``synth_ideal`` shares.
    """
    if not _is_integer(oversampling) or oversampling < 1:
        raise ValueError(f"oversampling must be an integer >= 1, got {oversampling!r}")
    samples = cfg._root_chirp(oversampling).copy()
    return Waveform(samples, sample_rate=len(samples) / cfg.T, t0=0.0)


def ideal_basis(cfg: ChirpConfig, n: int, oversampling: int) -> Waveform:
    """Ideal chirp subcarrier phi_n sampled at rate O*N/T on [0, T).

    At oversampling 1 the samples reduce to the base-rate chirp sequence
    exp(j 2 pi c1 k^2) exp(j 2 pi n k / N).
    """
    if not _is_integer(n) or not 0 <= n < cfg.N:
        raise ValueError(f"subcarrier index n must be an integer in [0, {cfg.N}), got {n!r}")
    wf = root_chirp(cfg, oversampling)
    wf.samples *= np.exp(2j * np.pi * n * wf.times() / cfg.T)
    return wf


def synth_ideal(cfg: ChirpConfig, symbols: np.ndarray, oversampling: int) -> Waveform:
    """Ideal (alias-free) chirp-domain frame sum_n Xdot[n] phi_n(t).

    The per-symbol chirp phase and 1/sqrt(N) scaling are absorbed into
    Xdot[n] = exp(j 2 pi c2 n^2) X[n] / sqrt(N), so at oversampling 1 the
    samples equal ``modulate(cfg, symbols)`` exactly.  A (frames, N) symbol
    array gives one frame per row of the samples, all built on one envelope:
    the root chirp table kept on ``cfg`` for this oversampling, computed by
    the first call.  The weighted symbols are written into a zeroed
    (frames, N O) array and transformed there, unscaled (norm="forward"), so
    numpy makes no padded copy and no second output array.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim not in (1, 2) or symbols.shape[-1] != cfg.N:
        raise ValueError(f"expected {cfg.N} symbols per frame, got shape {symbols.shape}")
    if not _is_integer(oversampling):
        raise ValueError(f"oversampling must be an integer, got {oversampling!r}")
    if oversampling < 1:
        raise ValueError(f"oversampling must be >= 1, got {oversampling}")
    # sum_n w[n] exp(j 2 pi n j / (N O)) is a zero-padded inverse DFT
    samples = np.zeros(symbols.shape[:-1] + (cfg.N * oversampling,), dtype=np.complex128)
    weighted = samples[..., : cfg.N]
    np.multiply(symbols, cfg._n_chirp, out=weighted)
    weighted /= np.sqrt(cfg.N)
    np.fft.ifft(samples, norm="forward", out=samples)
    samples *= cfg._root_chirp(oversampling)
    return Waveform(samples, samples.shape[-1] / cfg.T, t0=0.0)


def _windows(seq: np.ndarray, width: int) -> np.ndarray:
    """Row i of the result is seq[i : i + width]: a read-only strided view of a
    contiguous 1-D array, built with the ``np.ndarray`` constructor because
    ``sliding_window_view`` costs about 17 us a call against 1 us."""
    step = seq.itemsize
    view = np.ndarray((len(seq) - width + 1, width), seq.dtype, seq, strides=(step, step))
    view.flags.writeable = False
    return view


def add_cpp(cfg: ChirpConfig, seq: np.ndarray, l_cpp: int) -> np.ndarray:
    """Prepend the chirp-periodic prefix to a base-rate frame.

    The prefix obeys x[k] = x[N + k] exp(-j 2 pi c1 (N^2 + 2 N k)) for
    k = -l_cpp .. -1, which reduces to a plain cyclic prefix when c1 = 0.
    The phases are the last l_cpp entries of the configuration's read-only
    table for k = -(N - 1) .. -1, computed by the first call.
    """
    seq = np.asarray(seq, dtype=np.complex128)
    if seq.shape != (cfg.N,):
        raise ValueError(f"expected a length-{cfg.N} frame, got {seq.shape}")
    if not _is_integer(l_cpp):
        raise ValueError(f"prefix length must be an integer, got {l_cpp!r}")
    if not 1 <= l_cpp < cfg.N:
        raise ValueError(f"prefix length {l_cpp} outside [1, {cfg.N}); reduce the tap span")
    out = np.empty(l_cpp + cfg.N, dtype=np.complex128)
    np.multiply(seq[cfg.N - l_cpp :], cfg._prefix_phases[cfg.N - 1 - l_cpp :], out=out[:l_cpp])
    out[l_cpp:] = seq
    return out


def shape(
    cfg: ChirpConfig,
    seq: np.ndarray,
    filt: SrrcFilter,
    t_first: float = 0.0,
) -> Waveform:
    """Sample-wise pulse shaping x(t) = sum_k seq[k] a(t - k T/N - t_first).

    Returns the fine-grid waveform at rate O*N/T; the output starts q/2
    symbol intervals before the first sequence sample.  Computed as O
    polyphase sub-filters of q + 1 taps on the base-rate sequence (Crochiere
    and Rabiner, Multirate Digital Signal Processing, 1983): output sample
    m O + r is a (q + 1)-term sum, so no zero-stuffed sequence is filtered.
    """
    seq = np.asarray(seq, dtype=np.complex128)
    if abs(filt.Ts - cfg.dt) > 1e-9 * cfg.dt:
        raise ValueError("filter symbol interval does not match cfg.T/N")
    o, q = filt.O, filt.q
    # with phase r of sub-filter j holding tap j O + r, output m O + r =
    # sum_j seq[m - j] phases[j, r]; the window of the zero-padded sequence
    # at m holds seq[m - q .. m], hence the flipped rows
    padded = np.concatenate([np.zeros(q), seq, np.zeros(q)])
    samples = (_windows(padded, q + 1) @ filt._polyphase(filt.taps)[::-1]).ravel()
    rate = o / filt.Ts
    return Waveform(
        samples[: (len(seq) + q - 1) * o + 1],
        sample_rate=rate,
        t0=t_first - filt.half_span * filt.Ts,
    )
