"""Matched-filter reception and effective-channel models.

The receiver of the simulated waveform chain is the matched filter against
the shaping pulse, sampled at the base rate with a fixed symbol lead, then
the forward chirp transform (``demodulate``); it is algebraically a bank of
correlators with the shaped transform columns, which the tests keep as its
oracle.  ``sample_matched_filter`` evaluates the matched-filter output
only at those N instants, as a polyphase decimator (one product of the
waveform, folded into rows of O samples, with the conjugated taps, then a
sum of shifted diagonals), so the fine-grid correlation is never formed.
It samples one frame per call, through one filter from one start.
For a delay-Doppler channel with fine-grid delays the sampled matched-filter
output obeys an exact linear tap relation

    y[k'] = sum_l h[k', l] x[k' - l],

with taps built from the pulse cross-ambiguity function.  ``tap_window`` is
the one rule for the retained window (sampling lead and tap count).  The model
only reads the L lags of the ambiguity function that the window needs, for all
paths at once.  Each path contributes a symbol-rate Doppler tone in k' times
a pulse cross-ambiguity lag profile in l, and ``effective_taps`` returns
these two factors as they are (``PathTaps``: each point's (P, N) tones and
(P, L) profile), for a channel, a filter and a window per point, for points
that share their path delays (the points of a trial, or of a block of
trials).  ``ambiguity_values`` gives the profiles: one gather of the pulse
per filter and window, whatever the number of points, and each point's
values with its sampling lead's phase.  Each distinct channel object's tones
are built once and shared by its points.  A frame is predicted from the
factors: each point's profile times the frame's delayed copies, one matrix
product per point, then the tones, which costs O(N L) per path and point and
never forms the taps or an N x N matrix.  ``PathTaps.dense`` multiplies the
factors out to each point's banded (N, L) taps where a matrix is the result:
folding them through the chirp-periodic prefix yields the dense N x N
effective matrix H, and conjugating by the transform pair yields the
chirp-domain matrix H_u that an equalizer would see.  The literature
baseline (ideal pulses, delays on the symbol grid) is given as banded taps
of that layout, so it goes through the same fold.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import DDChannel, _doppler_tones
from .transforms import ChirpConfig, _is_integer, demodulate, modulate
from .waveform import SrrcFilter, Waveform, _windows


def sample_matched_filter(wf: Waveform, filt: SrrcFilter, t_start: float, count: int) -> np.ndarray:
    """Matched-filter output y(t) = int r(u) a*(u - t) du at t_start + k Ts, k < count.

    Samples one frame: ``wf.samples`` is 1-D, and a 2-D waveform is refused.
    Each output is the Riemann sum dt sum_u r[n_k - c + u] a*[u] of the
    window of the M = q O + 1 fine samples around the instant (c = q O), so
    only the ``count`` sampled outputs are computed; ``count`` must be a
    positive integer.  The filter's fine grid must be the waveform's.  The
    instants must sit on the fine grid and inside the support of the full
    correlation (length len(r) + M - 1); windows running past either end of
    the waveform read zeros there.  ``t_start`` must be finite.

    The sum is a polyphase decimator (Crochiere and Rabiner, Multirate
    Digital Signal Processing, 1983).  With u = j O + p, window k reads
    r[n_0 - c + (k + j) O + p], entry (k + j, p) of the span the windows
    cover folded into a contiguous (count + q, O) array R.  So the product
    P = R A^H with the (q + 1, O) tap matrix A (taps zero-padded to
    (q + 1) O; A^H is the filter's read-only ``_matched_phases`` table)
    gives output k as the diagonal sum sum_j P[k + j, j], one
    reduction over a (q + 1, count) strided view of P.  For count >= 2 numpy
    adds the view's rows in order of j, the order of a loop over the
    diagonals, which the tests keep as the oracle.
    """
    r = wf.samples
    if r.ndim != 1:
        raise ValueError(f"expected the samples of one frame, got shape {r.shape}")
    if not _is_integer(count) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    if abs(wf.sample_rate * filt.dt - 1.0) > 1e-9:
        raise ValueError("waveform rate does not match the filter fine grid")
    dt = 1.0 / wf.sample_rate
    n_in = len(r)
    o, q, m = filt.O, filt.q, len(filt.taps)
    # the first instant on the grid of the full correlation, which starts
    # half the span before the waveform; the instants between sit on the
    # grid if the first and the last do and lie (count - 1) O samples apart
    pos = (t_start - (wf.t0 - filt.half_span * filt.Ts)) / dt
    end = pos + (count - 1) * (filt.Ts / dt)
    first, last = round(pos), round(end)
    if max(abs(pos - first), abs(end - last)) > 1e-6 or last - first != (count - 1) * o:
        raise ValueError("sampling instants do not align with the waveform grid")
    if first < 0 or last >= n_in + m - 1:
        raise ValueError("sampling instants fall outside the waveform support")
    # the windows span r[start .. stop); pad only where that leaves r (the
    # last O - 1 samples of the span meet zero taps)
    start = first - (m - 1)
    stop = start + (count + q) * o
    span = r[max(start, 0) : min(stop, n_in)]
    if start < 0 or stop > n_in:
        span = np.pad(span, (max(-start, 0), max(stop - n_in, 0)))
    prod = span.reshape(count + q, o) @ filt._matched_phases
    # entry (j, k) of this view is prod[k + j, j]; built with the np.ndarray
    # constructor, as ``_windows`` is, because ``as_strided`` costs about 8 us
    s0, s1 = prod.strides
    diagonals = np.ndarray((q + 1, count), prod.dtype, prod, strides=(s0 + s1, s0))
    y = np.add.reduce(diagonals, axis=0)
    y *= filt.dt
    return y


def tap_window(channel: DDChannel, filt: SrrcFilter, exact: bool = False) -> tuple[int, int]:
    """Retained tap window (lead D, tap count L) of ``effective_taps``.

    The default window samples D = q/2 symbol intervals before the first
    path and keeps L = ceil(delay spread / Ts) + q + 1 taps.  So the window
    [0, L) keeps roughly q/2 symbol intervals of acausal ambiguity support
    around each path; the remainder (tiny pulse-tail correlations) is the
    deliberate model truncation that the NMSE measures.  ``exact=True``
    widens the window to D = q and L + q taps, which covers the whole
    ambiguity support and captures every nonzero tap, so the tap relation
    reproduces the waveform chain to floating-point accuracy; it is the
    check that the relation is exact.
    """
    s = channel.shifts(filt.dt)
    n_taps = int(np.ceil((s.max() - s.min()) / filt.O)) + filt.q + 1
    if exact:
        return filt.q, n_taps + filt.q
    return filt.q // 2, n_taps


def _check_points(channels: Sequence, filts: Sequence, windows: Sequence) -> None:
    """Refuse lists that do not give one channel, filter and window per point."""
    if not len(channels) == len(filts) == len(windows):
        counts = f"{len(channels)} channels, {len(filts)} filters and {len(windows)} windows"
        raise ValueError(f"{counts}: give one of each per point")


def _shared_shifts(channels: Sequence, filts: Sequence, windows: Sequence) -> np.ndarray:
    """The fine-grid path shifts that the points' channels share; the filters
    must share one fine grid."""
    _check_points(channels, filts, windows)
    delays = [c.delays for c in {id(c): c for c in channels}.values()]
    if any(len(x) != len(delays[0]) for x in delays) or (np.array(delays) != delays[0]).any():
        raise ValueError("channels must share their path delays")
    ts, o = filts[0].Ts, filts[0].O
    if any((f.Ts, f.O) != (ts, o) for f in filts[1:]):
        raise ValueError("filters must share one fine grid (Ts and O)")
    return channels[0].shifts(filts[0].dt)


def ambiguity_values(
    channels: Sequence[DDChannel],
    filts: Sequence[SrrcFilter],
    windows: Sequence[tuple[int, int]],
) -> list:
    """The lag profiles of ``effective_taps``: one (P, L) array per point.

    Point s is channel s seen through filter s with the (lead D, tap count L)
    window s, under the conditions of ``effective_taps``.  Entry [p, l] of
    its profile is g_p e^{-j 2 pi nu_p D Ts} A(tau1 - tau_p + (l - D) Ts, nu_p),
    with path p's gain g_p, Doppler nu_p and fine-grid delay tau_p from
    channel s and tau1 the earliest of those delays.

    A is the Riemann sum dt sum_u a[u + lag] conj(a[u]) e^{j2 pi nu_p t_u} on
    the filter tap grid, evaluated only at the (P, L) lags the window reads;
    lags with |lag| >= M (the tap count) have no overlap and give exactly 0.
    The lags depend on the delays and the window alone, so all points with
    one filter object and one window, from however many trials, share one
    (P, L, M) gather of shifted pulses from the filter's read-only table of
    zero-guarded pulse windows, built by its first use.  Each point
    multiplies it with its Doppler-weighted conjugate pulses, built on that
    filter's tap grid, as its own matrix-vector product per path: a matrix product with the
    points as columns would round each column according to how many there
    are.  The other steps act on a point's values elementwise, so they come
    out as for the point alone, whatever the points beside it.
    """
    shifts = _shared_shifts(channels, filts, windows)
    dt, ts, o = filts[0].dt, filts[0].Ts, filts[0].O
    nus = np.array([c.dopplers for c in channels])  # (S, P)
    n_paths = nus.shape[1]
    # each point's gains times dt and the phase of its sampling lead (not
    # multiplied in place: numpy's in-place complex product of a single
    # element rounds otherwise than the same element in a longer array)
    leads = np.array([lead for lead, _ in windows])[:, None]
    weights = np.array([c.gains for c in channels]) * dt * np.exp(-2j * np.pi * nus * (leads * ts))
    profiles: list = [None] * len(channels)
    groups: dict = {}
    for i, (f, window) in enumerate(zip(filts, windows)):
        groups.setdefault((id(f), *window), []).append(i)
    for (_, lead, n_taps), idx in groups.items():
        filt = filts[idx[0]]
        m = len(filt.taps)
        tones = _doppler_tones(nus[idx].ravel(), -filt.center * dt, dt, m)
        b = np.conj(filt.taps) * tones.reshape(len(idx), n_paths, m)  # (S_g, P, M)
        lags = (shifts.min() - shifts)[:, None] + (np.arange(n_taps) - lead)[None, :] * o
        # the filter's zero-guarded pulse windows: a clipped lag of +-m reads
        # zeros only.  The (P, L, M) gather is a temporary, freed at once:
        # held longer, it made every call fault in fresh pages
        shifted_b = filt._pulse_windows[m + np.clip(lags, -m, m)] @ b[..., None]
        for s, profile in zip(idx, shifted_b[..., 0] * weights[idx, :, None]):
            profiles[s] = profile
    return profiles


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
class PathTaps:
    """A trial's effective channel as its two per-path factors.

    Point s has the (P, N) symbol-rate Doppler tones ``tones[s]`` of its
    channel and the (P, L_s) ambiguity lag profile ``profiles[s]``; points
    that share a channel object share one tones array.  The taps of point s
    are h_s[k', l] = sum_p tones[s][p, k'] profiles[s][p, l]: each path is
    its tone times its lag profile.  Factors that do not pair up, point by
    point and path by path, are refused.
    """

    tones: tuple
    profiles: tuple

    def __post_init__(self) -> None:
        if [len(tones) for tones in self.tones] != [len(profile) for profile in self.profiles]:
            raise ValueError("each point needs its tones and its profile, with one path count")

    def dense(self) -> list:
        """Each point's (N, L_s) taps, its own (N, P) @ (P, L_s) product, so
        they equal the point's taps computed alone, bit for bit."""
        return [tones.T @ profile for tones, profile in zip(self.tones, self.profiles)]


def effective_taps(
    channels: Sequence[DDChannel],
    filts: Sequence[SrrcFilter],
    n_out: int,
    windows: Sequence[tuple[int, int]],
    *,
    ambiguity: Sequence[np.ndarray] | None = None,
) -> PathTaps:
    """Exact taps of shape -> channel -> matched filter -> base-rate sampling.

    Point s is channel s seen through filter s with the (lead D, tap count L)
    window s.  Returns the points' taps h as their ``PathTaps`` factors,
    where h[k', l] (k' < n_out, l < L) multiplies x[k' - l] and sample k' is
    taken at t = tau1 + (k' - D) Ts with tau1 the fine-grid delay of the
    earliest path.  The channels must share their delays (a trial's channels
    do) and the filters their fine grid; gains, Dopplers, filters and
    windows may differ.  With path p's gain g_p, delay tau_p and Doppler
    nu_p from a channel's arrays, the expansion is
    h[k', l] = sum_p g_p exp(j 2 pi nu_p (tau1 - tau_p + (k' - D) Ts))
    A(tau1 - tau_p + (l - D) Ts, nu_p), with A(tau, nu) =
    int a(u + tau) a*(u) e^{j2 pi nu u} du the pulse cross-ambiguity function
    and every delay quantized to the fine grid (``DDChannel.shifts``), so it
    reproduces the discrete simulation chain to floating-point accuracy when
    the same filter is used.

    Each path's term is a symbol-rate tone in k' times a lag profile in l,
    and the factors are returned as they are.  ``ambiguity_values`` gives
    the profiles, with the lead's phase e^{-j 2 pi nu_p D Ts} moved onto
    them; ``ambiguity`` passes those (P, L) profiles of these points when a
    block of trials already computed them.  What is left of the tone,
    exp(j 2 pi nu_p (tau1 - tau_p + k' Ts)), no longer depends on the
    window, so each distinct channel object builds its (P, N) symbol tones
    once (the channel's coarse-by-fine tone split), and its points share
    them.  ``PathTaps.dense`` multiplies the factors out where a matrix is
    the result.
    """
    shifts = _shared_shifts(channels, filts, windows)
    if ambiguity is None:
        ambiguity = ambiguity_values(channels, filts, windows)
    n_paths = len(shifts)
    shapes = [np.shape(profile) for profile in ambiguity]
    if shapes != [(n_paths, n_taps) for _, n_taps in windows]:
        raise ValueError(f"ambiguity profiles of shapes {shapes} do not fit the points")
    distinct = {id(c): c for c in channels}
    t0 = np.tile((shifts.min() - shifts) * filts[0].dt, len(distinct))
    nus = np.concatenate([c.dopplers for c in distinct.values()])
    tones = _doppler_tones(nus, t0, filts[0].Ts, n_out).reshape(len(distinct), n_paths, n_out)
    shared = dict(zip(distinct, tones))
    return PathTaps(tuple(shared[id(c)] for c in channels), tuple(ambiguity))


def cpp_wrap_phase(cfg: ChirpConfig, k: np.ndarray) -> np.ndarray:
    """Phase relating prefix sample x[k] (k < 0) to x[N + k]."""
    return np.exp(-2j * np.pi * cfg.c1 * (cfg.N**2 + 2 * cfg.N * k))


def _check_fold(cfg: ChirpConfig, n_out: int, n_taps: int) -> None:
    """The taps must give one row per frame sample and fit in one frame."""
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
    _check_fold(cfg, *taps.shape[-2:])
    n = cfg.N
    k = np.arange(n)[:, None]
    d = k - np.arange(taps.shape[1])
    h_mat = np.zeros((n, n), dtype=np.complex128)
    # for L <= N each tap (k', l) lands on its own entry (k', (k' - l) mod N)
    h_mat[k, np.mod(d, n)] += taps * np.where(d >= 0, 1.0, cpp_wrap_phase(cfg, d))
    return h_mat


def chirp_domain_matrix(cfg: ChirpConfig, h_mat: np.ndarray) -> np.ndarray:
    """Conjugate a time-domain N x N matrix into the chirp domain: A H A^H.

    With A the forward transform, demodulate(M) = M A^T row by row, so
    demodulate(H^T) = (A H)^T and A H A^H = conj(conj(A H) A^T): two batched
    fast transforms, O(N^2 log N).
    """
    return demodulate(cfg, demodulate(cfg, h_mat.T).T.conj()).conj()


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


def predict_output(cfg: ChirpConfig, taps: PathTaps, symbols: np.ndarray) -> np.ndarray:
    """Model-predicted (S, N) chirp-domain outputs of one frame of symbols
    through each point of the path-wise ``taps``.

    Point s sees y[k'] = sum_l h_s[k', l] x[k' - l] over its L_s taps, read
    from the frame extended by its chirp-periodic prefix (built here with
    ``cpp_wrap_phase``), and equals
    demodulate(fold_cpp_taps(cfg, h_s) @ modulate(cfg, symbols)).  The frame
    is modulated and laid out once, as the (W, N) array X of its delayed
    copies, X[l, k'] = x[k' - l] for the widest window W; row l does not
    depend on W.  Point s is then one product per point, P_s = profiles[s]
    (P, L_s) @ X[:L_s] (the multiply count of its (N, P) @ (P, L_s) taps,
    O(N L) per path), followed by y = sum_p tones[s][p] P_s[p].  So the
    taps are never multiplied out, and a point's output does not depend on
    the points beside it.  The (S, N) outputs are demodulated as one batch
    of rows.
    """
    for tones, profile in zip(taps.tones, taps.profiles):
        _check_fold(cfg, tones.shape[-1], profile.shape[-1])
    width = max(profile.shape[-1] for profile in taps.profiles)
    x = modulate(cfg, symbols)
    k = np.arange(1 - width, 0)
    x_cpp = np.concatenate([x[cfg.N + k] * cpp_wrap_phase(cfg, k), x])
    # window row i holds x[i - W + 1 .. i - W + N], the frame delayed by W - 1 - i
    delayed = np.ascontiguousarray(_windows(x_cpp, cfg.N)[::-1])
    y = np.empty((len(taps.profiles), cfg.N), dtype=np.complex128)
    # one product per point: with the points' profiles as rows of one
    # product, a point's bits would rest on how BLAS splits the rows
    for row, tones, profile in zip(y, taps.tones, taps.profiles):
        paths = profile @ delayed[: profile.shape[-1]]
        paths *= tones
        paths.sum(axis=0, out=row)
    return demodulate(cfg, y)


def baseline_taps(cfg: ChirpConfig, channel: DDChannel) -> np.ndarray:
    """Ideal-pulse literature taps: delays rounded to the symbol grid, no shaping.

    Path p, with gain g_p, delay tau_p and Doppler nu_p from the channel's
    arrays, adds at lag l_p = round(tau_p N / T) its gain times a Doppler tone
    on the symbol grid referenced to the path delay, one path after another:
    h[k, l_p] += g_p exp(j 2 pi nu_p (k - l_p) T / N).  The (N, max l_p + 1)
    array has the layout of a point's taps from ``PathTaps.dense``:
    ``fold_cpp_taps`` turns it into the sum of chirp-periodic cyclic shifts
    of the literature I/O relation.
    """
    lags = channel.shifts(cfg.dt)
    taps = np.zeros((cfg.N, lags.max() + 1), dtype=np.complex128)
    k = np.arange(cfg.N)
    for g, lp, nu in zip(channel.gains, lags, channel.dopplers):
        taps[:, lp] += g * np.exp(2j * np.pi * nu * cfg.dt * (k - lp))
    return taps
