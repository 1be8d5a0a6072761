"""Matched-filter reception and effective-channel models.

The receiver of the simulated waveform chain is the matched filter against
the shaping pulse, sampled at the base rate with a fixed symbol lead, then
the forward chirp transform (``demodulate``); it is algebraically a bank of
correlators with the shaped transform columns, which the tests keep as its
oracle.  ``sample_matched_filter`` evaluates the matched-filter output
only at those N instants, as a polyphase decimator (one product of the
waveform, folded into rows of O samples, with the conjugated taps, then a
sum of shifted diagonals), so the fine-grid correlation is never formed.
A batch of waveform rows, each with its own filter and start, shares one
such product: the taps are zero-padded to the widest span, which leaves each
row's outputs exactly as the row alone gives them.
For a delay-Doppler channel with fine-grid delays the sampled matched-filter
output obeys an exact linear tap relation

    y[k'] = sum_l h[k', l] x[k' - l],

with taps built from the pulse cross-ambiguity function.  ``tap_window`` is
the one rule for the retained window (sampling lead and tap count).  The model
only reads the L lags of the ambiguity function that the window needs, for all
paths at once.  ``effective_taps`` takes a channel, a filter and a window per
point, for points that share their path delays (the points of a trial), and
returns their (S, N, max L) stack of taps, with one gather of the pulse per
filter and window.  A frame is predicted by applying the banded taps to the
prefix-extended frame, which costs O(N L) per stacked channel and never forms
an N x N matrix.  Folding the taps through the chirp-periodic prefix yields
the dense N x N effective matrix H, and conjugating by the transform pair
yields the chirp-domain matrix H_u that an equalizer would see; those matrices
are built only where a matrix is the result.  The literature baseline (ideal
pulses, delays on the symbol grid) is given as banded taps of the same layout,
so it goes through the same fold and the same banded prediction.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import DDChannel, _doppler_tones
from .transforms import ChirpConfig, demodulate, modulate
from .waveform import SrrcFilter, Waveform


def sample_matched_filter(wf: Waveform, filt, t_start, count: int) -> np.ndarray:
    """Matched-filter output y(t) = int r(u) a*(u - t) du at t_start + k Ts, k < count.

    Each output is the Riemann sum dt sum_u r[n_k - c + u] a*[u] of the
    window of the M = q O + 1 fine samples around the instant (c = q O), so
    only the ``count`` sampled outputs are computed.  The instants must sit
    on the fine grid and inside the support of the full correlation (length
    len(r) + M - 1); windows running past either end of the waveform read
    zeros there.  A (rows, n) ``wf.samples`` gives the (rows, count) outputs
    of row r through ``filt[r]`` from ``t_start[r]`` (or one filter and one
    start for every row); the filters must share one fine grid and the rows'
    instants one symbol grid.

    The sum is a polyphase decimator (Crochiere and Rabiner, Multirate
    Digital Signal Processing, 1983).  With u = j O + p, window k reads
    r[n_0 - c + (k + j) O + p], entry (k + j, p) of the span the windows
    cover folded into a contiguous (count + q, O) array R.  So the product
    P = R A^H with the (q + 1, O) tap matrix A (taps zero-padded to
    (q + 1) O) gives output k as the diagonal sum sum_j P[k + j, j].  Rows
    share one product: each row's taps are zero-padded on both sides to the
    widest span q, which keeps its centre and its polyphase rows, and the
    product, formed in groups of at most O tap rows, runs over the union of
    the rows' instants, from which each row reads its own count.  The terms
    are summed in order of j, and a zero tap row adds exact zeros, so a
    row's outputs equal those of the row alone, bit for bit.
    """
    rows = wf.samples.reshape(-1, wf.samples.shape[-1])
    n_rows, n_in = rows.shape
    filts = [filt] * n_rows if isinstance(filt, SrrcFilter) else list(filt)
    if len(filts) != n_rows:
        raise ValueError(f"got {len(filts)} filters for {n_rows} rows")
    if any((f.Ts, f.O) != (filts[0].Ts, filts[0].O) for f in filts):
        raise ValueError("filters must share one fine grid (Ts and O)")
    if abs(wf.sample_rate * filts[0].dt - 1.0) > 1e-9:
        raise ValueError("waveform rate does not match the filter fine grid")
    dt = 1.0 / wf.sample_rate
    wide = max(filts, key=lambda f: f.q)
    o, q = wide.O, wide.q
    m = len(wide.taps)
    # each row's taps are zero-padded by the span they are short of the widest
    pads = [(q - f.q) * o // 2 for f in filts]
    # each row's first instant on the grid of the widest full correlation,
    # which starts half its span before the waveform; the instants between
    # sit on the grid if the first and the last do and lie (count - 1) O
    # samples apart
    origin = wf.t0 - wide.half_span * wide.Ts
    starts = (np.zeros(n_rows) + t_start).tolist()  # one start per row, or one for all
    firsts = []
    for t, f, pad in zip(starts, filts, pads):
        pos = (t - origin) / dt
        end = pos + (count - 1) * (wide.Ts / dt)
        first, last = round(pos), round(end)
        if max(abs(pos - first), abs(end - last)) > 1e-6 or last - first != (count - 1) * o:
            raise ValueError("sampling instants do not align with the waveform grid")
        if first < pad or last >= n_in + len(f.taps) - 1 + pad:
            raise ValueError("sampling instants fall outside the waveform support")
        firsts.append(first)
    if any((f - min(firsts)) % o for f in firsts):
        raise ValueError("the rows' sampling instants must share one symbol grid")
    offs = [(f - min(firsts)) // o for f in firsts]
    n_union = count + max(offs)
    # the windows span r[start .. stop); pad only where that leaves r (the
    # last O - 1 samples of the span meet zero taps)
    start = min(firsts) - (m - 1)
    stop = start + (n_union + q) * o
    span = rows[:, max(start, 0) : min(stop, n_in)]
    if start < 0 or stop > n_in:
        span = np.pad(span, ((0, 0), (max(-start, 0), max(stop - n_in, 0))))
    span = span.reshape(n_rows, n_union + q, o)
    taps = np.zeros((n_rows, q + 1, o), dtype=np.complex128)
    for row, f, pad in zip(taps.reshape(n_rows, -1), filts, pads):
        row[pad : pad + len(f.taps)] = np.conj(f.taps)
    # the product in groups of at most O tap rows, so that none is larger than
    # the span it reads.  Stacking the rows of a group's product makes each
    # diagonal one strided view: entry r (n_union + q) + k of the sums is
    # output k of row r (the last q entries of a row mix in the next row's
    # and are never read)
    sums = np.zeros(n_rows * (n_union + q), dtype=np.complex128)
    for j0 in range(0, q + 1, o):
        prod = (span @ taps[:, j0 : j0 + o].transpose(0, 2, 1)).reshape(len(sums), -1)
        for j in range(j0, j0 + prod.shape[1]):
            sums[: len(sums) - j] += prod[j:, j - j0]
        del prod
    sums = sums.reshape(n_rows, n_union + q)
    out = np.empty((n_rows, count), dtype=np.complex128)
    for row, s, off in zip(out, sums, offs):
        np.multiply(s[off : off + count], wide.dt, out=row)
    return out.reshape(wf.samples.shape[:-1] + (count,))


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


def effective_taps(
    channels: Sequence[DDChannel],
    filts: Sequence[SrrcFilter],
    n_out: int,
    windows: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Exact taps of shape -> channel -> matched filter -> base-rate sampling.

    Point s is channel s seen through filter s with the (lead D, tap count L)
    window s.  Returns the (S, n_out, max L) stack of the points' taps h, zero
    past each point's own L, where h[k', l] multiplies x[k' - l] and sample
    k' is taken at t = tau1 + (k' - D) Ts with tau1 the fine-grid delay of
    the earliest path.  The channels must share their delays (a trial's
    channels do) and the filters their fine grid; gains, Dopplers, filters
    and windows may differ.  With path p's gain g_p, delay tau_p and Doppler
    nu_p from a channel's arrays, the expansion is
    h[k', l] = sum_p g_p exp(j 2 pi nu_p (tau1 - tau_p + (k' - D) Ts))
    A(tau1 - tau_p + (l - D) Ts, nu_p), with A(tau, nu) =
    int a(u + tau) a*(u) e^{j2 pi nu u} du the pulse cross-ambiguity function
    and every delay quantized to the fine grid (``DDChannel.shifts``), so it
    reproduces the discrete simulation chain to floating-point accuracy when
    the same filter is used.

    A is the Riemann sum dt sum_u a[u + lag] conj(a[u]) e^{j2 pi nu_p t_u} on
    the filter tap grid, evaluated only at the (P, L) lags the window reads;
    lags with |lag| >= M (the tap count) have no overlap and give exactly 0.
    The lags depend on the delays and the window alone, so the points with
    one filter object and one window share one (P, L, M) gather of shifted
    pulses, which multiplies their Doppler-weighted conjugate pulses in one
    batched product.  The pulse tones are computed once, on the tap grid of
    the widest filter, and each filter reads its centred slice.  h is then
    one batched product of the (S, N, P) symbol-rate Doppler tones with the
    gain-weighted ambiguity values; both sets of tones use the channel's
    coarse-by-fine tone split.
    """
    delays = [c.delays for c in channels]
    if any(len(x) != len(delays[0]) for x in delays) or (np.array(delays) != delays[0]).any():
        raise ValueError("channels must share their path delays")
    ts, o = filts[0].Ts, filts[0].O
    if any((f.Ts, f.O) != (ts, o) for f in filts[1:]):
        raise ValueError("filters must share one fine grid (Ts and O)")
    dt = filts[0].dt
    shifts = channels[0].shifts(dt)
    s1 = shifts.min()
    nus = np.concatenate([c.dopplers for c in channels])  # (S P,), point-major
    gains = np.array([c.gains for c in channels])
    n_pts, n_paths = gains.shape
    # each path's Doppler tone on the tap grid of the widest filter, (S, P, M_max)
    wide = max(filts, key=lambda f: f.center)
    pulse_tones = _doppler_tones(nus, -wide.center * dt, dt, len(wide.taps))
    pulse_tones = pulse_tones.reshape(n_pts, n_paths, -1)
    amb = np.zeros((n_pts, n_paths, max(n for _, n in windows)), dtype=np.complex128)
    groups: dict = {}
    for i, (f, window) in enumerate(zip(filts, windows)):
        groups.setdefault((id(f), *window), []).append(i)
    for (_, lead, n_taps), idx in groups.items():
        filt = filts[idx[0]]
        a = filt.taps
        m = len(a)
        off = wide.center - filt.center
        b = (np.conj(a) * pulse_tones[idx, :, off : off + m]).transpose(1, 2, 0)  # (P, M, S_g)
        lags = (s1 - shifts)[:, None] + (np.arange(n_taps) - lead)[None, :] * o
        # zero guard of m samples on both sides: a clipped lag of +-m reads zeros only
        a_pad = np.concatenate([np.zeros(m), a, np.zeros(m)])
        # the (P, L, M) gather is a temporary, freed at once: held longer, it
        # made every call fault in fresh pages
        shifted_b = sliding_window_view(a_pad, m)[m + np.clip(lags, -m, m)] @ b
        amb[idx, :, :n_taps] = shifted_b.transpose(2, 0, 1) * (gains[idx, :, None] * dt)
    del pulse_tones, b, shifted_b  # freed before the symbol tones, to lower the peak memory
    leads = np.array([lead for lead, _ in windows])[:, None]
    t0 = s1 * dt - shifts * dt - leads * ts  # (S, P)
    tones = _doppler_tones(nus, t0, ts, n_out).reshape(n_pts, n_paths, n_out)
    return tones.transpose(0, 2, 1) @ amb


def cpp_wrap_phase(cfg: ChirpConfig, k: np.ndarray) -> np.ndarray:
    """Phase relating prefix sample x[k] (k < 0) to x[N + k]."""
    return np.exp(-2j * np.pi * cfg.c1 * (cfg.N**2 + 2 * cfg.N * k))


def _check_fold(cfg: ChirpConfig, taps: np.ndarray) -> None:
    """The taps must give one row per frame sample and fit in one frame."""
    n_out, n_taps = taps.shape[-2:]
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


def predict_output(cfg: ChirpConfig, taps: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Model-predicted chirp-domain output for one frame of symbols and (N, L) taps.

    Applies the banded taps, y[k'] = sum_l h[k', l] x[k' - l], directly to
    the frame extended by its L - 1 chirp-periodic prefix samples (built
    here with ``cpp_wrap_phase``), then demodulates.  This is O(N L) and
    equals demodulate(fold_cpp_taps(cfg, taps) @ modulate(cfg, symbols)).
    A (points, N, L) stack of taps gives the (points, N) outputs of that one
    frame, which is modulated and prefix-extended once and demodulated as
    one (points, N) batch of rows.
    """
    _check_fold(cfg, taps)
    x = modulate(cfg, symbols)
    n_taps = taps.shape[-1]
    k = np.arange(1 - n_taps, 0)
    x_cpp = np.concatenate([x[cfg.N + k] * cpp_wrap_phase(cfg, k), x])
    # window row k' holds x[k' - L + 1 .. k'], so tap l pairs with column L - 1 - l
    window = sliding_window_view(x_cpp, n_taps)
    y = np.einsum("...kl,kl->...k", taps[..., ::-1], window)
    return demodulate(cfg, y)


def baseline_taps(cfg: ChirpConfig, channel: DDChannel) -> np.ndarray:
    """Ideal-pulse literature taps: delays rounded to the symbol grid, no shaping.

    Path p, with gain g_p, delay tau_p and Doppler nu_p from the channel's
    arrays, adds at lag l_p = round(tau_p N / T) its gain times a Doppler tone
    on the symbol grid referenced to the path delay, one path after another:
    h[k, l_p] += g_p exp(j 2 pi nu_p (k - l_p) T / N).  The (N, max l_p + 1)
    array has the layout of ``effective_taps``: ``fold_cpp_taps`` turns it
    into the sum of chirp-periodic cyclic shifts of the literature I/O
    relation, and ``predict_output`` applies it banded in O(N L).
    """
    lags = channel.shifts(cfg.dt)
    taps = np.zeros((cfg.N, lags.max() + 1), dtype=np.complex128)
    k = np.arange(cfg.N)
    for g, lp, nu in zip(channel.gains, lags, channel.dopplers):
        taps[:, lp] += g * np.exp(2j * np.pi * nu * cfg.dt * (k - lp))
    return taps
