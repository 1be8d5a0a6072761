"""Matched-filter reception and effective-channel models.

The receive chain is: matched filter against the shaping pulse, base-rate
sampling with a fixed symbol lead, then the forward chirp transform.  For a
delay-Doppler channel with fine-grid delays the sampled matched-filter
output obeys an exact linear tap relation

    y[k'] = sum_l h[k', l] x[k' - l],

with taps built from the pulse cross-ambiguity function.  The model only
reads the L lags of the ambiguity function that the retained window needs,
for all paths at once, and predicts a frame by applying the banded taps to
the prefix-extended frame, which costs O(N L) and never forms an N x N
matrix.  Folding the taps through the chirp-periodic prefix yields the dense
N x N effective matrix H, and conjugating by the transform pair yields the
chirp-domain matrix H_u that an equalizer would see; those matrices are
built only where a matrix is the result.  A plain cyclic-shift baseline
model (ideal pulses, delays on the symbol grid) is provided for comparison.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from .channel import DDChannel
from .transforms import ChirpConfig, daft_matrix, demodulate, idaft_matrix, modulate
from .waveform import SrrcFilter, Waveform


def matched_filter(wf: Waveform, filt: SrrcFilter) -> Waveform:
    """Correlate the waveform with the pulse: y(t) = int r(u) a*(u - t) du.

    Implemented as convolution with the conjugated, time-reversed taps and a
    Riemann weight of one fine-grid step.
    """
    if abs(wf.sample_rate * filt.dt - 1.0) > 1e-9:
        raise ValueError("waveform rate does not match the filter fine grid")
    samples = fftconvolve(wf.samples, np.conj(filt.taps[::-1])) * filt.dt
    return Waveform(samples, wf.sample_rate, t0=wf.t0 - filt.half_span * filt.Ts)


def sample_base_rate(wf: Waveform, t_start: float, count: int, Ts: float) -> np.ndarray:
    """Pick ``count`` samples at t_start + k Ts; instants must sit on the grid."""
    dt = 1.0 / wf.sample_rate
    step = Ts / dt
    first = (t_start - wf.t0) / dt
    idx_f = first + step * np.arange(count)
    idx = np.round(idx_f).astype(int)
    if np.max(np.abs(idx_f - idx)) > 1e-6:
        raise ValueError("sampling instants do not align with the waveform grid")
    if idx[0] < 0 or idx[-1] >= len(wf.samples):
        raise ValueError("sampling instants fall outside the waveform support")
    return wf.samples[idx]


def cross_ambiguity(filt: SrrcFilter, tau: float, nu: float) -> complex:
    """Pulse cross-ambiguity A(tau, nu) = int a(u + tau) a*(u) e^{j2 pi nu u} du.

    Evaluated as the Riemann sum on the filter tap grid; tau must be an
    integer number of fine-grid steps (the receiver only ever needs those).
    """
    s = tau / filt.dt
    s_int = int(round(s))
    if abs(s - s_int) > 1e-6:
        raise ValueError("tau must be a multiple of the fine-grid step Ts/O")
    return complex(_ambiguity_at_lags(filt, np.array([[s_int]]), np.array([nu]))[0, 0])


def _ambiguity_at_lags(filt: SrrcFilter, lags: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """A(lags[p, l] * dt, nus[p]) for a (P, L) array of integer fine-grid lags.

    A[p, l] = dt sum_u a[u + lag] conj(a[u]) e^{j2 pi nu_p t_u}; lags with
    |lag| >= M (the tap count) have no overlap and give exactly 0.
    """
    a = filt.taps
    m = len(a)
    b = np.conj(a) * np.exp(2j * np.pi * np.multiply.outer(nus, filt.time_grid()))
    # zero guard of m samples on both sides: a clipped lag of +-m reads zeros only
    a_pad = np.concatenate([np.zeros(m), a, np.zeros(m)])
    shifted = sliding_window_view(a_pad, m)[m + np.clip(lags, -m, m)]
    return np.einsum("plu,pu->pl", shifted, b) * filt.dt


def default_lead(filt: SrrcFilter) -> int:
    """Sampling lead of half the filter span, in symbol intervals.

    With this lead the retained window [0, L) keeps roughly q/2 symbol
    intervals of acausal ambiguity support around each path; the remainder
    (tiny pulse-tail correlations) is the deliberate model truncation.
    """
    return filt.q // 2


def required_taps(channel: DDChannel, filt: SrrcFilter) -> int:
    """Retained tap count L = ceil(delay spread / Ts) + q + 1."""
    dt = filt.dt
    s = [int(round(p.delay / dt)) for p in channel.paths]
    spread = int(np.ceil((max(s) - min(s)) / filt.O))
    return spread + filt.q + 1


def full_lead(filt: SrrcFilter) -> int:
    """Sampling lead covering the whole acausal ambiguity support."""
    return filt.q


def full_taps(channel: DDChannel, filt: SrrcFilter) -> int:
    """Tap count that, with ``full_lead``, captures every nonzero tap.

    With this window the tap relation reproduces the waveform chain to
    floating-point accuracy; used for exactness checks.
    """
    return required_taps(channel, filt) + filt.q


def effective_taps(
    channel: DDChannel,
    filt: SrrcFilter,
    n_out: int,
    lead: int,
    n_taps: int,
) -> np.ndarray:
    """Exact taps of shape -> channel -> matched filter -> base-rate sampling.

    Returns the (n_out, n_taps) array h, where h[k', l] multiplies x[k' - l]
    and sample k' is taken at t = tau1 + (k' - D) Ts with D = lead and tau1
    the fine-grid delay of the earliest path.  The expansion is
    h[k', l] = sum_p g_p exp(j 2 pi nu_p (tau1 - tau_p + (k' - D) Ts))
    A(tau1 - tau_p + (l - D) Ts, nu_p) with every delay quantized to the fine
    grid, so it reproduces the discrete simulation chain to floating-point
    accuracy when the same filter is used.  Only the L lags the window reads
    are evaluated, as one (P, L) ambiguity array, and h is the (N, P) @
    (P, L) product of the gain-weighted Doppler phases with it.
    """
    dt = filt.dt
    shifts = np.array([int(round(p.delay / dt)) for p in channel.paths])
    gains = np.array([p.gain for p in channel.paths], dtype=np.complex128)
    nus = np.array([p.doppler for p in channel.paths], dtype=float)
    s1 = shifts.min()
    tau1 = s1 * dt
    lags = (s1 - shifts)[:, None] + (np.arange(n_taps) - lead)[None, :] * filt.O
    amb = _ambiguity_at_lags(filt, lags, nus)
    t = (tau1 - shifts * dt)[None, :] + ((np.arange(n_out) - lead) * filt.Ts)[:, None]
    phase = gains * np.exp(2j * np.pi * nus * t)
    return phase @ amb


def cpp_wrap_phase(cfg: ChirpConfig, k: np.ndarray) -> np.ndarray:
    """Phase relating prefix sample x[k] (k < 0) to x[N + k]."""
    return np.exp(-2j * np.pi * cfg.c1 * (cfg.N**2 + 2 * cfg.N * k))


def _check_fold(cfg: ChirpConfig, taps: np.ndarray) -> None:
    """The taps must give one row per frame sample and fit in one frame."""
    n_out, n_taps = taps.shape
    if n_out != cfg.N:
        raise ValueError(f"taps have {n_out} output rows, expected N = {cfg.N}")
    if n_taps > cfg.N:
        raise ValueError("tap length exceeds the frame length, cannot fold")


def fold_cpp_taps(cfg: ChirpConfig, taps: np.ndarray) -> np.ndarray:
    """Fold the causal (N, L) taps through the chirp-periodic prefix into N x N H.

    Row k' of H reproduces y[k'] = sum_l h[k', l] x[k' - l] once prefix
    samples are rewritten via the chirp-periodic extension, so the prefix
    must be at least n_taps - 1 samples long for the relation to be exact.
    """
    _check_fold(cfg, taps)
    n = cfg.N
    h_mat = np.zeros((n, n), dtype=np.complex128)
    for l in range(taps.shape[1]):
        k = np.arange(n)
        col = np.mod(k - l, n)
        phase = np.where(k - l >= 0, 1.0, cpp_wrap_phase(cfg, k - l))
        h_mat[k, col] += taps[:, l] * phase
    return h_mat


def chirp_domain_matrix(cfg: ChirpConfig, h_mat: np.ndarray) -> np.ndarray:
    """Conjugate a time-domain N x N matrix into the chirp domain: A H A^H."""
    return daft_matrix(cfg) @ h_mat @ idaft_matrix(cfg)


def chirp_domain_from_taps(cfg: ChirpConfig, taps: np.ndarray) -> np.ndarray:
    """Chirp-domain matrix straight from the (N, L) taps, bypassing H.

    Uses the closed-form entry expansion

        [H_u]_{n,n'} = (1/N) e^{j2 pi c2 (n'^2 - n^2)} sum_{k',l} h[k',l]
                       e^{j2 pi c1 ((k'-l)^2 - k'^2)}
                       e^{j2 pi (n' (k'-l) - n k') / N},

    which already absorbs the prefix fold (negative k' - l is handled by the
    quadratic phase algebra).  Serves as an independent construction path.
    """
    n = cfg.N
    if taps.shape[0] != n:
        raise ValueError(f"taps have {taps.shape[0]} output rows, expected N = {n}")
    k = np.arange(n)
    s = np.zeros((n, n), dtype=np.complex128)
    nn = np.arange(n)
    d = np.mod(nn[:, None] - nn[None, :], n)
    for l in range(taps.shape[1]):
        m_l = taps[:, l] * np.exp(2j * np.pi * cfg.c1 * ((k - l) ** 2 - k**2))
        # g[d] = sum_k' m_l[k'] e^{-j 2 pi k' d / N}, indexed by d = n - n'
        g = np.fft.fft(m_l)
        s += g[d] * np.exp(-2j * np.pi * l * nn / n)[None, :]
    quad = np.exp(2j * np.pi * cfg.c2 * nn**2)
    return (np.conj(quad)[:, None] * quad[None, :]) * s / n


def predict_output(cfg: ChirpConfig, taps: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Model-predicted chirp-domain output for one frame of symbols and (N, L) taps.

    Applies the banded taps, y[k'] = sum_l h[k', l] x[k' - l], directly to
    the frame extended by its L - 1 chirp-periodic prefix samples (built
    here with ``cpp_wrap_phase``), then demodulates.  This is O(N L) and
    equals demodulate(fold_cpp_taps(cfg, taps) @ modulate(cfg, symbols)).
    """
    _check_fold(cfg, taps)
    x = modulate(cfg, symbols)
    n_taps = taps.shape[1]
    k = np.arange(1 - n_taps, 0)
    x_cpp = np.concatenate([x[cfg.N + k] * cpp_wrap_phase(cfg, k), x])
    # window row k' holds x[k' - L + 1 .. k'], so tap l pairs with column L - 1 - l
    window = sliding_window_view(x_cpp, n_taps)
    return demodulate(cfg, np.einsum("kl,kl->k", taps[:, ::-1], window))


def build_baseline(cfg: ChirpConfig, channel: DDChannel) -> np.ndarray:
    """Ideal-pulse baseline H: delays rounded to the symbol grid, no shaping.

    Each path contributes a chirp-periodic cyclic shift by l_p = round(tau_p
    N / T) symbols, a Doppler tone on the symbol grid referenced to the path
    delay, and the prefix-fold phase on wrapped entries.
    """
    n = cfg.N
    h_mat = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n)
    for p in channel.paths:
        lp = int(round(p.delay / cfg.dt))
        if lp >= n:
            raise ValueError("baseline model requires path delays below T")
        col = np.mod(k - lp, n)
        tone = np.exp(2j * np.pi * p.doppler * cfg.dt * (k - lp))
        phase = np.where(k - lp >= 0, 1.0, cpp_wrap_phase(cfg, k - lp))
        h_mat[k, col] += p.gain * tone * phase
    return h_mat


def correlator_receive(
    cfg: ChirpConfig,
    wf: Waveform,
    filt: SrrcFilter,
    t_start: float = 0.0,
) -> np.ndarray:
    """Bank-of-correlators receiver: project onto the shaped transform columns.

    Y[n] = dt * sum_i r[i] conj(s_n[i]) with s_n the pulse-shaped inverse
    transform column whose first symbol sits at t_start.  Algebraically equal
    to matched filtering, base-rate sampling at t_start and a forward
    transform, which is how it is computed; the literal correlator bank is
    the test oracle.
    """
    y_mf = matched_filter(wf, filt)
    sampled = sample_base_rate(y_mf, t_start, cfg.N, filt.Ts)
    return demodulate(cfg, sampled)
