"""Unit tests for the matched-filter receiver and effective channel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from chirplab import (
    ChirpConfig,
    DDChannel,
    ambiguity_values,
    baseline_taps,
    chirp_domain_from_taps,
    chirp_domain_matrix,
    design_srrc,
    effective_taps,
    fold_cpp_taps,
    demodulate,
    modulate,
    predict_output,
    sample_matched_filter,
    shape,
    tap_window,
)
from chirplab.experiments import nmse_trial, qam4_symbols
from chirplab.receiver import cpp_wrap_phase
from chirplab.transforms import idaft_matrix
from chirplab.waveform import Waveform


def _cfg(n, t=None):
    t = t if t is not None else n * 1e-6
    return ChirpConfig(N=n, T=t, c1=1.0 / (4 * n), c2=1.0 / (3 * n))


def _filt(cfg, beta=0.2, q=12, o=16):
    return design_srrc(beta, q, o, cfg.dt)


def _time_grid(filt):
    """Time of each filter tap, t = 0 at the center tap."""
    return (np.arange(len(filt.taps)) - filt.center) * filt.dt


def _ambiguity_table(filt, nu):
    """Oracle: A(s * dt, nu) for every integer lag s = -(M-1) .. M-1 at once."""
    a = filt.taps
    b = np.conj(a) * np.exp(2j * np.pi * nu * _time_grid(filt))
    return fftconvolve(a, b[::-1]) * filt.dt


def _draw_paths(rng, count):
    """Per path, in turn: a complex Gaussian gain, then a Doppler in [-5, 5] kHz."""
    draws = [
        (complex(rng.standard_normal() + 1j * rng.standard_normal()), rng.uniform(-5e3, 5e3))
        for _ in range(count)
    ]
    return [g for g, _ in draws], [nu for _, nu in draws]


def _taps_from_tables(channel, filt, n_out, lead, n_taps):
    """Oracle taps: per path, gather the window lags from the full table."""
    dt = filt.dt
    shifts = [int(round(d / dt)) for d in channel.delays]
    s1 = min(shifts)
    tau1 = s1 * dt
    k = np.arange(n_out)
    ell = np.arange(n_taps)
    m = len(filt.taps)
    h = np.zeros((n_out, n_taps), dtype=np.complex128)
    for g, sp, nu in zip(channel.gains, shifts, channel.dopplers):
        table = _ambiguity_table(filt, nu)
        lags = (s1 - sp) + (ell - lead) * filt.O
        amb = np.zeros(n_taps, dtype=np.complex128)
        inside = np.abs(lags) < m
        amb[inside] = table[lags[inside] + m - 1]
        phase = np.exp(2j * np.pi * nu * (tau1 - sp * dt + (k - lead) * filt.Ts))
        h += g * np.outer(phase, amb)
    return h


def _matched_filter(wf, filt):
    """Oracle: the whole fine-grid matched-filter output by fast convolution,
    y(t) = int r(u) a*(u - t) du with a Riemann weight of one fine step."""
    samples = fftconvolve(wf.samples, np.conj(filt.taps[::-1])) * filt.dt
    return Waveform(samples, wf.sample_rate, t0=wf.t0 - filt.half_span * filt.Ts)


def _sample_base_rate(wf, t_start, count, ts):
    """Oracle: pick ``count`` samples at t_start + k Ts by stride indexing."""
    first = int(round((t_start - wf.t0) * wf.sample_rate))
    step = int(round(ts * wf.sample_rate))
    return wf.samples[first : first + step * count : step]


def _ambiguity_at_lags(filt, lags, nus):
    """Oracle: A(lags[p, l] * dt, nus[p]) for a (P, L) array of integer lags,
    one path's conjugate pulse and Doppler tone at a time; lags with
    |lag| >= M have no overlap and give exactly 0."""
    a = filt.taps
    m = len(a)
    b = np.conj(a) * np.exp(2j * np.pi * np.multiply.outer(nus, _time_grid(filt)))
    a_pad = np.concatenate([np.zeros(m), a, np.zeros(m)])
    shifted = sliding_window_view(a_pad, m)[m + np.clip(lags, -m, m)]
    return np.einsum("plu,pu->pl", shifted, b) * filt.dt


def _ambiguity(filt, lag, nu):
    """A(lag * dt, nu) at one integer fine-grid lag."""
    return _ambiguity_at_lags(filt, np.array([[lag]]), np.array([nu]))[0, 0]


def test_cross_ambiguity_origin_is_unit_energy():
    filt = _filt(_cfg(64))
    assert abs(_ambiguity(filt, 0, 0.0) - 1.0) < 1e-6


def test_cross_ambiguity_nyquist_lags_small():
    filt = _filt(_cfg(64))
    for m in range(1, 5):
        assert abs(_ambiguity(filt, m * filt.O, 0.0)) < 1e-2


def test_cross_ambiguity_doppler_nonzero_but_contractive():
    filt = _filt(_cfg(64))
    val = _ambiguity(filt, 0, 2000.0)
    assert 0.0 < abs(val) < 1.0


def test_cross_ambiguity_outside_support_is_zero():
    filt = _filt(_cfg(64))
    assert _ambiguity(filt, (filt.q + 1) * filt.O, 500.0) == 0.0


def test_matched_filter_gives_self_correlation_peak():
    cfg = _cfg(32)
    filt = _filt(cfg, q=4, o=8)
    seq = np.zeros(cfg.N, dtype=complex)
    seq[0] = 1.0
    wf = shape(cfg, seq, filt)
    mf = _matched_filter(wf, filt)
    peak_idx = int(round((0.0 - mf.t0) * mf.sample_rate))
    assert abs(mf.samples[peak_idx] - 1.0) < 1e-6
    assert np.max(np.abs(mf.samples)) <= abs(mf.samples[peak_idx]) + 1e-9
    assert abs(sample_matched_filter(wf, filt, 0.0, 1)[0] - mf.samples[peak_idx]) < 1e-12


def test_matched_filter_cascade_recovers_sequence():
    cfg = _cfg(64)
    filt = _filt(cfg)
    rng = np.random.default_rng(31)
    seq = rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)
    got = sample_matched_filter(shape(cfg, seq, filt), filt, 0.0, cfg.N)
    assert np.max(np.abs(got - seq)) / np.max(np.abs(seq)) < 1e-2


def test_sample_base_rate_strides_and_validation():
    filt = design_srrc(0.3, 2, 8, 1e-6)
    rate = filt.O / filt.Ts
    wf = Waveform(np.arange(64, dtype=complex), sample_rate=rate, t0=0.0)
    # the full correlation has 64 + 16 samples and starts one symbol early
    want = _sample_base_rate(_matched_filter(wf, filt), 0.0, 9, filt.Ts)
    got = sample_matched_filter(wf, filt, 0.0, 9)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="do not align"):
        sample_matched_filter(wf, filt, 0.3 / rate, 4)  # off the grid
    with pytest.raises(ValueError, match="outside the waveform support"):
        sample_matched_filter(wf, filt, 0.0, 10)  # runs past the end
    with pytest.raises(ValueError, match="outside the waveform support"):
        sample_matched_filter(wf, filt, -2 * filt.Ts, 4)  # starts before it
    with pytest.raises(ValueError, match="fine grid"):
        sample_matched_filter(Waveform(wf.samples, 2 * rate), filt, 0.0, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    half_q=st.integers(1, 4),
    o=st.integers(2, 8),
    n=st.integers(1, 40),
    first=st.integers(-8, 48),
    count=st.integers(1, 40),
    t0=st.floats(-1e-4, 1e-4),
    seed=st.integers(0, 2**32 - 1),
)
# long counts like criterion-12's, from the first instant of the support (its
# window starts q O samples before the waveform) to the last (past its end)
@example(half_q=6, o=16, n=100_000, first=0, count=10**6, t0=0.0, seed=12)
@example(half_q=3, o=8, n=80_003, first=5, count=10**6, t0=2e-5, seed=13)
def test_sampled_matched_filter_equals_full_correlation(half_q, o, n, first, count, t0, seed):
    """Instants across the whole correlation support, including windows that
    run past either end of the waveform, against fftconvolve + stride O."""
    filt = design_srrc(0.25, 2 * half_q, o, 1e-6)
    rng = np.random.default_rng(seed)
    wf = Waveform(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), o / filt.Ts, t0=t0
    )
    mf = _matched_filter(wf, filt)
    support = len(mf.samples)
    first = first % support
    count = min(count, (support - 1 - first) // o + 1)
    t_start = mf.t0 + first * filt.dt
    got = sample_matched_filter(wf, filt, t_start, count)
    want = _sample_base_rate(mf, t_start, count, filt.Ts)
    # every output is a sum of products bounded by the sum over its window of
    # |r| |a| dt, at most the largest window sum of |r| times max |a| dt
    window_sum = np.convolve(np.abs(wf.samples), np.ones(len(filt.taps))).max()
    scale = window_sum * np.max(np.abs(filt.taps)) * filt.dt
    assert len(got) == count
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    points=st.lists(
        st.tuples(st.integers(1, 6), st.floats(0.0, 1.0), st.integers(-3, 3)),
        min_size=1,
        max_size=6,
    ),
    o=st.sampled_from([2, 4, 8]),
    count=st.integers(1, 60),
    t0=st.floats(-1e-4, 1e-4),
    seed=st.integers(0, 2**32 - 1),
)
def test_matched_filter_rows_equal_per_row_calls(points, o, count, t0, seed):
    """Rows with their own span, roll-off and start (whole symbols apart)
    share one padded polyphase product, and each row's outputs equal those
    of the row alone, bit for bit."""
    ts = 1e-6
    filts = [design_srrc(beta, 2 * half_q, o, ts) for half_q, beta, _ in points]
    # each row's first instant lies inside its own correlation support
    starts = [t0 + max(k, -half_q) * ts for half_q, _, k in points]
    rng = np.random.default_rng(seed)
    n = (count + 8) * o
    rows = rng.standard_normal((len(points), n)) + 1j * rng.standard_normal((len(points), n))
    wf = Waveform(rows, o / ts, t0=t0)
    got = sample_matched_filter(wf, filts, starts, count)
    assert got.shape == (len(points), count)
    for row, filt, start, out in zip(rows, filts, starts, got):
        alone = sample_matched_filter(Waveform(row, o / ts, t0=t0), filt, start, count)
        assert np.array_equal(alone, out)


def test_matched_filter_rows_refuse_mixed_grids_and_instants():
    ts, o = 1e-6, 4
    wf = Waveform(np.ones((2, 200), dtype=complex), o / ts)
    filts = [design_srrc(0.2, 4, o, ts), design_srrc(0.3, 8, o, ts)]
    with pytest.raises(ValueError, match="one fine grid"):
        sample_matched_filter(wf, [filts[0], design_srrc(0.2, 4, 2 * o, ts / 2)], 0.0, 4)
    with pytest.raises(ValueError, match="got 1 filters for 2 rows"):
        sample_matched_filter(wf, filts[:1], 0.0, 4)
    with pytest.raises(ValueError, match="share one symbol grid"):
        sample_matched_filter(wf, filts, [0.0, ts / o], 4)
    # one filter and one start serve every row
    both = sample_matched_filter(wf, filts[0], 0.0, 4)
    assert np.array_equal(both, sample_matched_filter(wf, filts[:1] * 2, [0.0, 0.0], 4))


def test_effective_taps_single_clean_path_is_near_impulse():
    cfg = _cfg(64)
    filt = _filt(cfg)
    ch = DDChannel([1.0 + 0j], [0.0], [0.0])
    lead, n_taps = tap_window(ch, filt)
    taps = effective_taps([ch], [filt], cfg.N, [(lead, n_taps)])[0]
    assert abs(taps[0, lead] - 1.0) < 1e-2
    others = np.delete(taps[0], lead)
    assert np.max(np.abs(others)) < 1e-2


def test_effective_taps_lti_rows_identical():
    cfg = _cfg(64)
    filt = _filt(cfg)
    ch = DDChannel([0.9 + 0.1j, 0.2 - 0.4j], [0.0, 2.5 * cfg.dt], [0.0, 0.0])
    taps = effective_taps([ch], [filt], cfg.N, [tap_window(ch, filt)])[0]
    spread = np.max(np.abs(taps - taps[0][None, :]))
    assert spread < 1e-12


def test_effective_taps_matches_impulse_probe():
    """End-to-end oracle: probe the waveform chain with unit samples."""
    from chirplab.acceptance import _impulse_probe_taps

    cfg = _cfg(64)
    filt = _filt(cfg, o=8)
    rng = np.random.default_rng(32)
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(6)
    ch = DDChannel(gains, np.array([0.0, 1.3, 3.8]) * cfg.dt, [1800.0, -900.0, 2300.0])
    lead, n_taps = tap_window(ch, filt)
    taps = effective_taps([ch], [filt], cfg.N, [(lead, n_taps)])[0]
    oracle = _impulse_probe_taps(cfg, filt, ch, lead, n_taps)
    mask = np.abs(oracle) > 1e-4
    rel = np.abs(taps[mask] - oracle[mask]) / np.abs(oracle[mask])
    assert np.max(rel) < 1e-3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 64),
    tap_frac=st.floats(0.0, 1.0),
    c1=st.floats(-2.0, 2.0, allow_nan=False),
    c2=st.floats(-2.0, 2.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
@example(half_n=1, tap_frac=0.0, c1=0.1, c2=0.0, seed=0)  # N = 2, L = 1: no prefix
@example(half_n=8, tap_frac=1.0, c1=1.0 / 64, c2=1.0 / 48, seed=1)  # L = N
def test_banded_prediction_equals_dense_fold(half_n, tap_frac, c1, c2, seed):
    n = 2 * half_n
    n_taps = 1 + int(tap_frac * (n - 1))
    cfg = ChirpConfig(N=n, T=n * 1e-6, c1=c1, c2=c2)
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal((n, n_taps)) + 1j * rng.standard_normal((n, n_taps))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dense = demodulate(cfg, fold_cpp_taps(cfg, taps) @ modulate(cfg, x))
    banded = predict_output(cfg, taps, x)
    assert np.linalg.norm(banded - dense) <= 1e-12 * np.linalg.norm(dense)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 32),
    tap_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_trailing_zero_taps_change_nothing(half_n, tap_fracs, seed):
    """One call on a (S, N, max L) stack, zero past each point's own L, equals
    a call per point at that point's width: a span sweep needs one call."""
    n = 2 * half_n
    cfg = _cfg(n)
    widths = [1 + int(f * (n - 1)) for f in tap_fracs]
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(widths), n, max(widths)), dtype=complex)
    for taps, width in zip(stack, widths):
        taps[:, :width] = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = predict_output(cfg, stack, x)
    for row, taps, width in zip(got, stack, widths):
        want = predict_output(cfg, taps[:, :width], x)
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


def test_predict_output_validates_tap_shape():
    cfg = _cfg(8)
    x = np.ones(8, dtype=complex)
    with pytest.raises(ValueError, match="expected N = 8"):
        predict_output(cfg, np.zeros((7, 2), complex), x)
    with pytest.raises(ValueError, match="exceeds the frame length"):
        predict_output(cfg, np.zeros((8, 9), complex), x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_q=st.integers(1, 4),
    o=st.integers(2, 8),
    beta=st.floats(0.05, 1.0),
    delays=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
    extra_lead=st.integers(0, 3),
    extra_taps=st.integers(-3, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(half_q=1, o=4, beta=0.3, delays=[0.0, 2.6], extra_lead=3, extra_taps=6, seed=2)
def test_lag_trimmed_taps_equal_full_table_gather(
    half_q, o, beta, delays, extra_lead, extra_taps, seed
):
    """Window lags inside and outside the pulse support: with the lead beyond
    q and the window past the full support, the outer lags have |lag| >= M."""
    cfg = _cfg(16)
    filt = design_srrc(beta, 2 * half_q, o, cfg.dt)
    rng = np.random.default_rng(seed)
    gains, nus = _draw_paths(rng, len(delays))
    ch = DDChannel(gains, np.sort(delays) * cfg.dt, nus)
    lead, n_taps = tap_window(ch, filt, exact=True)
    lead, n_taps = lead + extra_lead, max(1, n_taps + extra_lead + extra_taps)
    got = effective_taps([ch], [filt], cfg.N, [(lead, n_taps)])[0]
    want = _taps_from_tables(ch, filt, cfg.N, lead, n_taps)
    # |A| <= A(0, 0) = 1 for the unit-energy pulse, so every tap is at most
    # sum |g_p|; that is the scale of the oracle's rounding error too
    scale = np.sum(np.abs(ch.gains))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_q=st.integers(1, 4),
    o=st.integers(2, 8),
    delays=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
    count=st.integers(1, 4),
    extra_lead=st.integers(0, 3),
    extra_taps=st.integers(-3, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_taps_equal_per_channel_oracle(
    half_q, o, delays, count, extra_lead, extra_taps, seed
):
    """S channels on shared delays with their own gains and Dopplers: row s of
    the stack is channel s's taps, gathered path by path from full tables."""
    cfg = _cfg(16)
    filt = design_srrc(0.25, 2 * half_q, o, cfg.dt)
    rng = np.random.default_rng(seed)
    delays = np.sort(delays) * cfg.dt
    channels = []
    for _ in range(count):
        gains, nus = _draw_paths(rng, len(delays))
        channels.append(DDChannel(gains, delays, nus))
    lead, n_taps = tap_window(channels[0], filt)
    lead, n_taps = lead + extra_lead, max(1, n_taps + extra_lead + extra_taps)
    got = effective_taps(channels, [filt] * count, cfg.N, [(lead, n_taps)] * count)
    assert got.shape == (count, cfg.N, n_taps)
    for taps, ch in zip(got, channels):
        want = _taps_from_tables(ch, filt, cfg.N, lead, n_taps)
        assert np.max(np.abs(taps - want)) <= 1e-12 * np.sum(np.abs(ch.gains))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    o=st.integers(2, 8),
    designs=st.lists(st.tuples(st.floats(0.05, 1.0), st.integers(1, 4)), min_size=1, max_size=3),
    points=st.lists(
        st.tuples(st.integers(0, 2), st.booleans(), st.integers(0, 3), st.integers(-3, 6)),
        min_size=1,
        max_size=4,
    ),
    delays=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# points 0 and 3 share a filter and a window, point 1 that filter with another
# window, and point 2 holds the widest filter
@example(o=4, designs=[(0.3, 1), (0.5, 3)],
         points=[(0, False, 0, 0), (0, True, 1, 2), (1, False, 0, 0), (0, False, 0, 0)],
         delays=[0.0, 1.3, 2.6], seed=3)
def test_mixed_filter_stack_equals_per_point_oracle(o, designs, points, delays, seed):
    """Points with their own filter (one O, several roll-offs and spans) and
    their own window: row s is point s's taps from full tables, zero past its
    own tap count."""
    cfg = _cfg(16)
    designed = [design_srrc(beta, 2 * half_q, o, cfg.dt) for beta, half_q in designs]
    rng = np.random.default_rng(seed)
    delays = np.sort(delays) * cfg.dt
    channels, filts, windows = [], [], []
    for which, exact, extra_lead, extra_taps in points:
        gains, nus = _draw_paths(rng, len(delays))
        channels.append(DDChannel(gains, delays, nus))
        filts.append(designed[which % len(designed)])
        lead, n_taps = tap_window(channels[-1], filts[-1], exact=exact)
        windows.append((lead + extra_lead, max(1, n_taps + extra_lead + extra_taps)))
    got = effective_taps(channels, filts, cfg.N, windows)
    width = max(n_taps for _, n_taps in windows)
    assert got.shape == (len(points), cfg.N, width)
    for taps, ch, filt, (lead, n_taps) in zip(got, channels, filts, windows):
        assert not np.any(taps[:, n_taps:])
        want = _taps_from_tables(ch, filt, cfg.N, lead, n_taps)
        assert np.max(np.abs(taps[:, :n_taps] - want)) <= 1e-12 * np.sum(np.abs(ch.gains))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    o=st.integers(2, 8),
    designs=st.lists(st.tuples(st.floats(0.05, 1.0), st.integers(1, 4)), min_size=1, max_size=3),
    n_channels=st.integers(1, 3),
    points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=6),
    trials=st.integers(1, 3),
    exact=st.booleans(),
    delays=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# a run of three points on one channel, then a second channel, then the first again
@example(o=4, designs=[(0.3, 1), (0.5, 3)], n_channels=2,
         points=[(0, 0), (1, 0), (0, 0), (1, 1), (0, 0)], trials=2, exact=False,
         delays=[0.0, 1.3, 2.6], seed=3)
def test_taps_from_channel_tones_equal_per_point_oracle(
    o, designs, n_channels, points, trials, exact, delays, seed
):
    """Points that share channel objects, in runs or not, with the ambiguity
    values of a block of trials taken in one ``ambiguity_values`` call: each
    trial's taps, built from one set of tones per channel object, equal each
    point's taps computed alone, under the default and the exact window."""
    cfg = _cfg(16)
    designed = [design_srrc(beta, 2 * half_q, o, cfg.dt) for beta, half_q in designs]
    rng = np.random.default_rng(seed)
    delays = np.sort(delays) * cfg.dt
    filts = [designed[d % len(designed)] for d, _ in points]
    block = []
    for _ in range(trials):
        drawn = []
        for _ in range(n_channels):
            gains, nus = _draw_paths(rng, len(delays))
            drawn.append(DDChannel(gains, delays, nus))
        block.append([drawn[c % n_channels] for _, c in points])
    windows = [tap_window(block[0][0], f, exact=exact) for f in filts]
    amb = ambiguity_values([c for channels in block for c in channels],
                           filts * trials, windows * trials)
    for channels, a in zip(block, np.split(amb, trials)):
        got = effective_taps(channels, filts, cfg.N, windows, ambiguity=a)
        assert np.array_equal(got, effective_taps(channels, filts, cfg.N, windows))
        for taps, ch, filt, (lead, n_taps) in zip(got, channels, filts, windows):
            want = effective_taps([ch], [filt], cfg.N, [(lead, n_taps)])[0]
            assert not np.any(taps[:, n_taps:])
            assert np.max(np.abs(taps[:, :n_taps] - want)) <= 1e-12 * np.sum(np.abs(ch.gains))


def test_stacked_taps_reject_filters_on_different_fine_grids():
    cfg = _cfg(16)
    ch = DDChannel([1.0, 0.5j], [0.0, 1.0 * cfg.dt], [100.0, -50.0])
    a, b = _filt(cfg, q=4, o=4), _filt(cfg, q=4, o=8)
    with pytest.raises(ValueError, match="grid"):
        effective_taps([ch, ch], [a, b], cfg.N, [tap_window(ch, a), tap_window(ch, b)])


def test_stacked_taps_reject_channels_with_different_delays():
    cfg = _cfg(16)
    filt = _filt(cfg, q=4, o=4)
    a = DDChannel([1.0, 0.5j], [0.0, 1.0 * cfg.dt], [100.0, -50.0])
    moved = DDChannel([1.0, 0.5j], [0.0, 1.5 * cfg.dt], [100.0, -50.0])
    extra = DDChannel([1.0, 0.5j, 0.2], [0.0, 1.0 * cfg.dt, 2.0 * cfg.dt], [100.0, -50.0, 0.0])
    for b in (moved, extra):
        for pair in ([a, b], [b, a]):
            with pytest.raises(ValueError, match="channels must share their path delays"):
                effective_taps(pair, [filt] * 2, cfg.N, [tap_window(b, filt)] * 2)


def test_fold_cpp_taps_structure():
    cfg = _cfg(16)
    rng = np.random.default_rng(33)
    h1 = rng.standard_normal((cfg.N, 1)) + 1j * rng.standard_normal((cfg.N, 1))
    mat = fold_cpp_taps(cfg, h1)
    assert np.max(np.abs(mat - np.diag(h1[:, 0]))) < 1e-15

    cfg0 = ChirpConfig(N=16, T=16e-6, c1=0.0, c2=0.0)
    h3 = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    mat0 = fold_cpp_taps(cfg0, h3)
    for k in range(16):
        for l in range(3):
            assert mat0[k, (k - l) % 16] == h3[k, l]


def test_fold_cpp_taps_rejects_overlong_support():
    cfg = _cfg(8)
    h = np.zeros((8, 9), dtype=complex)
    with pytest.raises(ValueError):
        fold_cpp_taps(cfg, h)


def test_chirp_domain_dual_construction_agrees():
    cfg = _cfg(32)
    rng = np.random.default_rng(34)
    taps = rng.standard_normal((32, 7)) + 1j * rng.standard_normal((32, 7))
    via_product = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps))
    via_entries = chirp_domain_from_taps(cfg, taps)
    assert np.max(np.abs(via_product - via_entries)) < 1e-12


def _chirp_domain_dense(cfg, h_mat):
    """Oracle: A H A^H with the dense forward matrix A, two O(N^3) products.

    A^H is built entry by entry as exp(j 2 pi c1 k^2) exp(j 2 pi (n k mod N) / N)
    exp(j 2 pi c2 n^2) / sqrt(N): ``idaft_matrix`` rounds the summed phase,
    whose error grows like c N^2 and would swamp the comparison.
    """
    k = np.arange(cfg.N)
    dft = np.exp(2j * np.pi * (np.outer(k, k) % cfg.N) / cfg.N)
    inv = (
        np.exp(2j * np.pi * cfg.c1 * k**2)[:, None]
        * dft
        * np.exp(2j * np.pi * cfg.c2 * k**2)[None, :]
        / np.sqrt(cfg.N)
    )
    return inv.conj().T @ h_mat @ inv


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 48),
    c1=st.floats(-1.0, 1.0),
    c2=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_chirp_domain_matrix_equals_dense_conjugation(half_n, c1, c2, seed):
    """The two batched fast transforms against the dense A H A^H, for any
    square H (not only a folded tap matrix)."""
    n = 2 * half_n
    cfg = ChirpConfig(N=n, T=n * 1e-6, c1=c1, c2=c2)
    rng = np.random.default_rng(seed)
    h_mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = _chirp_domain_dense(cfg, h_mat)
    got = chirp_domain_matrix(cfg, h_mat)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_chirp_domain_identity_channel_is_identity():
    cfg = _cfg(32)
    taps = np.ones((32, 1), dtype=complex)
    hu = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps))
    assert np.max(np.abs(hu - np.eye(32))) < 1e-10


def build_baseline(cfg, channel):
    """Oracle: the dense ideal-pulse baseline H, path by path.

    Each path contributes a chirp-periodic cyclic shift by l_p = round(tau_p
    N / T) symbols, a Doppler tone on the symbol grid referenced to the path
    delay, and the prefix-fold phase on wrapped entries.
    """
    n = cfg.N
    h_mat = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n)
    for g, tau, nu in zip(channel.gains, channel.delays, channel.dopplers):
        lp = int(round(tau / cfg.dt))
        col = np.mod(k - lp, n)
        tone = np.exp(2j * np.pi * nu * cfg.dt * (k - lp))
        phase = np.where(k - lp >= 0, 1.0, cpp_wrap_phase(cfg, k - lp))
        h_mat[k, col] += g * tone * phase
    return h_mat


def test_baseline_identity_and_cyclic_shift():
    cfg = _cfg(16)
    ident = baseline_taps(cfg, DDChannel([1.0 + 0j], [0.0], [0.0]))
    assert ident.shape == (16, 1)
    assert np.max(np.abs(fold_cpp_taps(cfg, ident) - np.eye(16))) < 1e-14

    cfg0 = ChirpConfig(N=16, T=16e-6, c1=0.0, c2=0.0)
    shifted = baseline_taps(cfg0, DDChannel([1.0 + 0j], [2 * cfg0.dt], [0.0]))
    assert shifted.shape == (16, 3)
    # y[k] = x[k - 2]: ones at (k, k - 2 mod N)
    perm = np.roll(np.eye(16), -2, axis=1)
    assert np.max(np.abs(fold_cpp_taps(cfg0, shifted) - perm)) < 1e-14


def test_baseline_matches_time_domain_convolution():
    cfg = _cfg(16)
    rng = np.random.default_rng(35)
    gains = [complex(rng.standard_normal() + 1j * rng.standard_normal()) for _ in range(3)]
    lags, nus = (0, 2, 5), (700.0, -300.0, 1100.0)
    channel = DDChannel(gains, np.array(lags) * cfg.dt, nus)
    x = rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)
    # direct loop over the CPP-consistent sequence: x[-l] = x[N-l] * phase
    y_ref = np.zeros(cfg.N, dtype=complex)
    for k in range(cfg.N):
        for g, l_p, nu in zip(gains, lags, nus):
            idx = k - l_p
            if idx >= 0:
                xv = x[idx]
            else:
                xv = x[cfg.N + idx] * np.exp(
                    -2j * np.pi * cfg.c1 * (cfg.N**2 + 2.0 * cfg.N * idx)
                )
            y_ref[k] += g * np.exp(2j * np.pi * nu * cfg.dt * idx) * xv
    assert np.max(np.abs(build_baseline(cfg, channel) @ x - y_ref)) < 1e-12
    assert np.max(np.abs(fold_cpp_taps(cfg, baseline_taps(cfg, channel)) @ x - y_ref)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 48),
    c1=st.floats(-1.0, 1.0),
    lags=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(half_n=4, c1=0.1, lags=[0.3, 0.3, 0.99], seed=3)  # two paths on one lag, L = N
def test_banded_baseline_equals_dense_oracle(half_n, c1, lags, seed):
    """The banded literature taps, folded or applied to a frame, equal the
    dense path-by-path baseline; paths may share a lag and may reach lag
    N - 1, and delays need not sit on the symbol grid."""
    n = 2 * half_n
    cfg = ChirpConfig(N=n, T=n * 1e-6, c1=c1, c2=c1 / 3.0)
    rng = np.random.default_rng(seed)
    gains, nus = _draw_paths(rng, len(lags))
    channel = DDChannel(gains, np.sort(lags) * (n - 1) * cfg.dt, nus)
    dense = build_baseline(cfg, channel)
    taps = baseline_taps(cfg, channel)
    scale = np.sum(np.abs(channel.gains))
    assert np.max(np.abs(fold_cpp_taps(cfg, taps) - dense)) <= 1e-12 * scale
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = demodulate(cfg, dense @ modulate(cfg, x))
    got = predict_output(cfg, taps, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_baseline_rejects_delay_of_a_frame():
    """A path delay of T or more needs a shift by N or more symbols, which
    cannot fold through one frame's prefix."""
    cfg = _cfg(8)
    taps = baseline_taps(cfg, DDChannel([1.0 + 0j, 0.5], [0.0, cfg.T], [0.0, 0.0]))
    assert taps.shape == (8, 9)
    with pytest.raises(ValueError, match="exceeds the frame length"):
        fold_cpp_taps(cfg, taps)
    with pytest.raises(ValueError, match="exceeds the frame length"):
        predict_output(cfg, taps, np.ones(8, dtype=complex))


def test_exact_window_io_relation_is_machine_precision():
    cfg = _cfg(64)
    filt = _filt(cfg, o=8)
    rng = np.random.default_rng(36)
    ch = DDChannel([0.8 + 0.1j, 0.3 - 0.5j], [0.0, 2.7 * cfg.dt], [1500.0, -2100.0])
    symbols = qam4_symbols(cfg.N, rng)
    nmse = nmse_trial(cfg, filt, ch, symbols, exact_window=True)
    assert nmse < 1e-20


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    half_n=st.integers(12, 32),
    o=st.sampled_from([4, 8]),
    half_q=st.integers(1, 3),
    beta=st.floats(0.05, 1.0),
    paths=st.lists(
        st.tuples(st.integers(0, 32), st.floats(-5e3, 5e3)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_window_io_relation_for_random_channels(half_n, o, half_q, beta, paths, seed):
    """Random small DD channels with fractional (fine-grid) delays and random
    Dopplers: over the full ambiguity support the tap model reproduces the
    waveform chain, matched filter and channel included, to rounding."""
    n = 2 * half_n
    cfg = _cfg(n)
    filt = design_srrc(beta, 2 * half_q, o, cfg.dt)
    rng = np.random.default_rng(seed)
    shifts, nus = zip(*sorted(paths))
    gains = [complex(rng.standard_normal(), rng.standard_normal()) for _ in paths]
    ch = DDChannel(gains, np.array(shifts) * filt.dt, nus)
    symbols = qam4_symbols(cfg.N, rng)
    assert nmse_trial(cfg, filt, ch, symbols, exact_window=True) < 1e-20


def test_default_window_io_relation_is_accurate():
    cfg = _cfg(256)
    filt = _filt(cfg)
    rng = np.random.default_rng(37)
    ch = DDChannel([0.8 + 0.1j, 0.3 - 0.5j], [0.0, 2.2 * cfg.dt], [2000.0, -1400.0])
    symbols = qam4_symbols(cfg.N, rng)
    nmse = nmse_trial(cfg, filt, ch, symbols)
    assert nmse < 10 ** (-40 / 10.0)


def test_tap_window():
    cfg = _cfg(64)
    filt = _filt(cfg)
    ch = DDChannel([1.0 + 0j, 0.5], [0.0, 3.2 * cfg.dt], [0.0, 0.0])
    assert tap_window(ch, filt) == (filt.q // 2, 4 + filt.q + 1)
    assert tap_window(ch, filt, exact=True) == (filt.q, 4 + 2 * filt.q + 1)


def _correlator_receive_direct(cfg, wf, filt, t_start=0.0):
    """Oracle: the literal correlator bank, O(N^2) in the waveform length."""
    a_mat = idaft_matrix(cfg)
    out = np.empty(cfg.N, dtype=np.complex128)
    dt = 1.0 / wf.sample_rate
    for n in range(cfg.N):
        seq = a_mat[:, n]
        up = np.zeros((cfg.N - 1) * filt.O + 1, dtype=np.complex128)
        up[:: filt.O] = seq
        s_n = fftconvolve(up, filt.taps)
        s_t0 = t_start - filt.half_span * filt.Ts
        # align the two grids
        off = int(round((s_t0 - wf.t0) / dt))
        lo = max(0, off)
        hi = min(len(wf.samples), off + len(s_n))
        seg = wf.samples[lo:hi] * np.conj(s_n[lo - off : hi - off])
        out[n] = np.sum(seg) * dt
    return out


def test_correlator_receiver_equivalence():
    cfg = _cfg(48)
    filt = _filt(cfg, o=8)
    rng = np.random.default_rng(38)
    x = qam4_symbols(cfg.N, rng)
    wf = shape(cfg, modulate(cfg, x), filt)
    fast = demodulate(cfg, sample_matched_filter(wf, filt, 0.0, cfg.N))
    direct = _correlator_receive_direct(cfg, wf, filt)
    assert np.linalg.norm(fast - direct) / np.linalg.norm(fast) < 1e-6
    # identity channel recovers the symbols within root-Nyquist tolerance
    assert np.linalg.norm(fast - x) / np.linalg.norm(x) < 1e-2
    silent = Waveform(np.zeros_like(wf.samples), wf.sample_rate, wf.t0)
    zero = demodulate(cfg, sample_matched_filter(silent, filt, 0.0, cfg.N))
    assert np.max(np.abs(zero)) == 0.0
