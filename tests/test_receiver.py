"""Unit tests for the matched-filter receiver and effective channel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from chirplab import (
    ChirpConfig,
    DDChannel,
    DDPath,
    build_baseline,
    chirp_domain_from_taps,
    chirp_domain_matrix,
    cross_ambiguity,
    default_lead,
    design_srrc,
    effective_taps,
    fold_cpp_taps,
    full_lead,
    full_taps,
    matched_filter,
    demodulate,
    modulate,
    predict_output,
    required_taps,
    sample_base_rate,
    shape,
)
from chirplab.experiments import nmse_trial, qam4_symbols
from chirplab.receiver import correlator_receive
from chirplab.transforms import idaft_matrix
from chirplab.waveform import Waveform


def _cfg(n, t=None):
    t = t if t is not None else n * 1e-6
    return ChirpConfig(N=n, T=t, c1=1.0 / (4 * n), c2=1.0 / (3 * n))


def _filt(cfg, beta=0.2, q=12, o=16):
    return design_srrc(beta, q, o, cfg.dt)


def _ambiguity_table(filt, nu):
    """Oracle: A(s * dt, nu) for every integer lag s = -(M-1) .. M-1 at once."""
    a = filt.taps
    b = np.conj(a) * np.exp(2j * np.pi * nu * filt.time_grid())
    return fftconvolve(a, b[::-1]) * filt.dt


def _taps_from_tables(channel, filt, n_out, lead, n_taps):
    """Oracle taps: per path, gather the window lags from the full table."""
    dt = filt.dt
    shifts = [int(round(p.delay / dt)) for p in channel.paths]
    s1 = min(shifts)
    tau1 = s1 * dt
    k = np.arange(n_out)
    ell = np.arange(n_taps)
    m = len(filt.taps)
    h = np.zeros((n_out, n_taps), dtype=np.complex128)
    for p, sp in zip(channel.paths, shifts):
        table = _ambiguity_table(filt, p.doppler)
        lags = (s1 - sp) + (ell - lead) * filt.O
        amb = np.zeros(n_taps, dtype=np.complex128)
        inside = np.abs(lags) < m
        amb[inside] = table[lags[inside] + m - 1]
        phase = np.exp(2j * np.pi * p.doppler * (tau1 - sp * dt + (k - lead) * filt.Ts))
        h += p.gain * np.outer(phase, amb)
    return h


def test_cross_ambiguity_origin_is_unit_energy():
    filt = _filt(_cfg(64))
    assert abs(cross_ambiguity(filt, 0.0, 0.0) - 1.0) < 1e-6


def test_cross_ambiguity_nyquist_lags_small():
    filt = _filt(_cfg(64))
    for m in range(1, 5):
        assert abs(cross_ambiguity(filt, m * filt.Ts, 0.0)) < 1e-2


def test_cross_ambiguity_doppler_nonzero_but_contractive():
    filt = _filt(_cfg(64))
    val = cross_ambiguity(filt, 0.0, 2000.0)
    assert 0.0 < abs(val) < 1.0


def test_cross_ambiguity_outside_support_is_zero():
    filt = _filt(_cfg(64))
    assert cross_ambiguity(filt, (filt.q + 1) * filt.Ts, 500.0) == 0.0


def test_matched_filter_gives_self_correlation_peak():
    cfg = _cfg(32)
    filt = _filt(cfg, q=4, o=8)
    seq = np.zeros(cfg.N, dtype=complex)
    seq[0] = 1.0
    mf = matched_filter(shape(cfg, seq, filt), filt)
    peak_idx = int(round((0.0 - mf.t0) * mf.sample_rate))
    assert abs(mf.samples[peak_idx] - 1.0) < 1e-6
    assert np.max(np.abs(mf.samples)) <= abs(mf.samples[peak_idx]) + 1e-9


def test_matched_filter_cascade_recovers_sequence():
    cfg = _cfg(64)
    filt = _filt(cfg)
    rng = np.random.default_rng(31)
    seq = rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)
    mf = matched_filter(shape(cfg, seq, filt), filt)
    got = sample_base_rate(mf, 0.0, cfg.N, cfg.dt)
    assert np.max(np.abs(got - seq)) / np.max(np.abs(seq)) < 1e-2


def test_sample_base_rate_strides_and_validation():
    rate = 8e6
    wf = Waveform(np.arange(64, dtype=complex), sample_rate=rate, t0=0.0)
    got = sample_base_rate(wf, 0.0, 8, 8.0 / rate)
    assert np.array_equal(got, np.arange(0, 64, 8, dtype=complex))
    with pytest.raises(ValueError):
        sample_base_rate(wf, 0.3 / rate, 4, 8.0 / rate)  # off the grid
    with pytest.raises(ValueError):
        sample_base_rate(wf, 0.0, 9, 8.0 / rate)  # runs past the end


def test_effective_taps_single_clean_path_is_near_impulse():
    cfg = _cfg(64)
    filt = _filt(cfg)
    ch = DDChannel([DDPath(1.0 + 0j, 0.0, 0.0)])
    lead = default_lead(filt)
    taps = effective_taps(ch, filt, cfg.N, lead, required_taps(ch, filt))
    assert abs(taps[0, lead] - 1.0) < 1e-2
    others = np.delete(taps[0], lead)
    assert np.max(np.abs(others)) < 1e-2


def test_effective_taps_lti_rows_identical():
    cfg = _cfg(64)
    filt = _filt(cfg)
    ch = DDChannel(
        [DDPath(0.9 + 0.1j, 0.0, 0.0), DDPath(0.2 - 0.4j, 2.5 * cfg.dt, 0.0)]
    )
    taps = effective_taps(
        ch, filt, cfg.N, default_lead(filt), required_taps(ch, filt)
    )
    spread = np.max(np.abs(taps - taps[0][None, :]))
    assert spread < 1e-12


def test_effective_taps_matches_impulse_probe():
    """End-to-end oracle: probe the waveform chain with unit samples."""
    from chirplab.acceptance import _impulse_probe_taps

    cfg = _cfg(64)
    filt = _filt(cfg, o=8)
    rng = np.random.default_rng(32)
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(6)
    ch = DDChannel(
        [
            DDPath(complex(gains[0]), 0.0, 1800.0),
            DDPath(complex(gains[1]), 1.3 * cfg.dt, -900.0),
            DDPath(complex(gains[2]), 3.8 * cfg.dt, 2300.0),
        ]
    )
    lead = default_lead(filt)
    n_taps = required_taps(ch, filt)
    taps = effective_taps(ch, filt, cfg.N, lead, n_taps)
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
    ch = DDChannel(
        [
            DDPath(
                complex(rng.standard_normal() + 1j * rng.standard_normal()),
                d * cfg.dt,
                float(rng.uniform(-5e3, 5e3)),
            )
            for d in sorted(delays)
        ]
    )
    lead = full_lead(filt) + extra_lead
    n_taps = max(1, full_taps(ch, filt) + extra_lead + extra_taps)
    got = effective_taps(ch, filt, cfg.N, lead, n_taps)
    want = _taps_from_tables(ch, filt, cfg.N, lead, n_taps)
    # |A| <= A(0, 0) = 1 for the unit-energy pulse, so every tap is at most
    # sum |g_p|; that is the scale of the oracle's rounding error too
    scale = sum(abs(p.gain) for p in ch.paths)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


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


def test_chirp_domain_identity_channel_is_identity():
    cfg = _cfg(32)
    taps = np.ones((32, 1), dtype=complex)
    hu = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps))
    assert np.max(np.abs(hu - np.eye(32))) < 1e-10


def test_baseline_identity_and_cyclic_shift():
    cfg = _cfg(16)
    ident = build_baseline(cfg, DDChannel([DDPath(1.0 + 0j, 0.0, 0.0)]))
    assert np.max(np.abs(ident - np.eye(16))) < 1e-14

    cfg0 = ChirpConfig(N=16, T=16e-6, c1=0.0, c2=0.0)
    shifted = build_baseline(
        cfg0, DDChannel([DDPath(1.0 + 0j, 2 * cfg0.dt, 0.0)])
    )
    # y[k] = x[k - 2]: ones at (k, k - 2 mod N)
    perm = np.roll(np.eye(16), -2, axis=1)
    assert np.max(np.abs(shifted - perm)) < 1e-14


def test_baseline_matches_time_domain_convolution():
    cfg = _cfg(16)
    rng = np.random.default_rng(35)
    paths = [
        DDPath(complex(rng.standard_normal() + 1j * rng.standard_normal()), l * cfg.dt, nu)
        for l, nu in ((0, 700.0), (2, -300.0), (5, 1100.0))
    ]
    h_mat = build_baseline(cfg, DDChannel(paths))
    x = rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)
    # direct loop over the CPP-consistent sequence: x[-l] = x[N-l] * phase
    y_ref = np.zeros(cfg.N, dtype=complex)
    for k in range(cfg.N):
        for p in paths:
            l_p = int(round(p.delay / cfg.dt))
            idx = k - l_p
            if idx >= 0:
                xv = x[idx]
            else:
                xv = x[cfg.N + idx] * np.exp(
                    -2j * np.pi * cfg.c1 * (cfg.N**2 + 2.0 * cfg.N * idx)
                )
            y_ref[k] += p.gain * np.exp(2j * np.pi * p.doppler * cfg.dt * idx) * xv
    assert np.max(np.abs(h_mat @ x - y_ref)) < 1e-12


def test_exact_window_io_relation_is_machine_precision():
    cfg = _cfg(64)
    filt = _filt(cfg, o=8)
    rng = np.random.default_rng(36)
    ch = DDChannel(
        [
            DDPath(0.8 + 0.1j, 0.0, 1500.0),
            DDPath(0.3 - 0.5j, 2.7 * cfg.dt, -2100.0),
        ]
    )
    symbols = qam4_symbols(cfg.N, rng)
    nmse = nmse_trial(cfg, filt, ch, symbols, exact_window=True)
    assert nmse < 1e-20


def test_default_window_io_relation_is_accurate():
    cfg = _cfg(256)
    filt = _filt(cfg)
    rng = np.random.default_rng(37)
    ch = DDChannel(
        [
            DDPath(0.8 + 0.1j, 0.0, 2000.0),
            DDPath(0.3 - 0.5j, 2.2 * cfg.dt, -1400.0),
        ]
    )
    symbols = qam4_symbols(cfg.N, rng)
    nmse = nmse_trial(cfg, filt, ch, symbols)
    assert nmse < 10 ** (-40 / 10.0)


def test_window_helpers_consistent():
    cfg = _cfg(64)
    filt = _filt(cfg)
    ch = DDChannel([DDPath(1.0 + 0j, 0.0, 0.0), DDPath(0.5, 3.2 * cfg.dt, 0.0)])
    assert default_lead(filt) == filt.q // 2
    assert full_lead(filt) == filt.q
    assert required_taps(ch, filt) == 4 + filt.q + 1
    assert full_taps(ch, filt) == 4 + 2 * filt.q + 1


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
    fast = correlator_receive(cfg, wf, filt)
    direct = _correlator_receive_direct(cfg, wf, filt)
    assert np.linalg.norm(fast - direct) / np.linalg.norm(fast) < 1e-6
    # identity channel recovers the symbols within root-Nyquist tolerance
    assert np.linalg.norm(fast - x) / np.linalg.norm(x) < 1e-2
    zero = correlator_receive(
        cfg, Waveform(np.zeros_like(wf.samples), wf.sample_rate, wf.t0), filt
    )
    assert np.max(np.abs(zero)) == 0.0
