"""Unit tests for waveform synthesis, prefixing and SRRC shaping."""

import warnings

import numpy as np
import pytest

from chirplab import (
    ChirpConfig,
    add_cpp,
    design_srrc,
    ideal_basis,
    modulate,
    root_chirp,
    shape,
    strip_cpp,
    synth_ideal,
)


def _cfg(n, c1, c2=0.0, t=1e-3):
    return ChirpConfig(N=n, T=t, c1=c1, c2=c2)


def test_ideal_basis_constant_when_unchirped():
    wf = ideal_basis(_cfg(16, 0.0), 0, 4)
    assert np.max(np.abs(wf.samples - wf.samples[0])) < 1e-14


def test_ideal_basis_base_rate_samples():
    n = 32
    cfg = _cfg(n, 1.0 / 128.0)
    wf = ideal_basis(cfg, 5, 1)
    k = np.arange(n)
    expected = np.exp(2j * np.pi * k**2 / 128.0) * np.exp(2j * np.pi * 5 * k / n)
    assert np.max(np.abs(wf.samples - expected)) < 1e-13


def test_ideal_basis_quadrature_orthogonality():
    cfg = _cfg(64, 1.0 / 256.0)
    a = ideal_basis(cfg, 3, 32)
    b = ideal_basis(cfg, 7, 32)
    inner = np.trapezoid(a.samples * np.conj(b.samples), a.times())
    assert abs(inner) / cfg.T < 1e-3


def test_ideal_basis_rejects_bad_index():
    with pytest.raises(ValueError):
        ideal_basis(_cfg(8, 0.0), 8, 2)


def test_root_chirp_constant_envelope():
    wf = root_chirp(_cfg(64, 1.0 / 256.0), 8)
    assert np.max(np.abs(np.abs(wf.samples) - 1.0)) < 1e-13


def test_synth_ideal_impulse_gives_scaled_root_chirp():
    n = 32
    cfg = _cfg(n, 1.0 / 128.0, 1.0 / 96.0)
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    wf = synth_ideal(cfg, x, 8)
    ref = root_chirp(cfg, 8)
    ratio = wf.samples[0] / ref.samples[0]
    assert np.max(np.abs(wf.samples - ratio * ref.samples)) < 1e-12


def test_synth_ideal_base_rate_equals_modulate():
    n = 64
    cfg = _cfg(n, 1.0 / 256.0, 1.0 / 192.0)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wf = synth_ideal(cfg, x, 1)
    assert np.max(np.abs(wf.samples - modulate(cfg, x))) < 1e-12


def test_synth_ideal_energy():
    n = 64
    cfg = _cfg(n, 1.0 / 256.0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wf = synth_ideal(cfg, x, 16)
    # orthogonal expansion with unit-amplitude basis: energy = sum |X|^2 * T/N
    expected = np.sum(np.abs(x) ** 2) * cfg.T / n
    assert abs(wf.energy() - expected) / expected < 0.01


def test_add_cpp_plain_cyclic_prefix_when_unchirped():
    n = 16
    cfg = _cfg(n, 0.0)
    rng = np.random.default_rng(9)
    seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = add_cpp(cfg, seq, 4)
    assert np.array_equal(out[:4], seq[-4:])
    assert np.array_equal(out[4:], seq)


def test_add_cpp_phase_sample():
    n = 16
    cfg = _cfg(n, 1.0 / 64.0)
    rng = np.random.default_rng(10)
    seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = add_cpp(cfg, seq, 4)
    # prefix index k = -1 holds seq[N-1] * exp(-j2 pi (N^2 - 2N)/64)
    expected = seq[15] * np.exp(-2j * np.pi * (256.0 - 32.0) / 64.0)
    assert abs(out[3] - expected) < 1e-13


def test_add_cpp_extension_identity_large():
    n = 1024
    cfg = _cfg(n, 1.0 / (4 * n))
    rng = np.random.default_rng(11)
    seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    l_cpp = 32
    out = add_cpp(cfg, seq, l_cpp)
    for i in range(l_cpp):
        k = i - l_cpp
        expected = seq[n + k] * np.exp(
            -2j * np.pi * cfg.c1 * (n**2 + 2.0 * n * k)
        )
        assert abs(out[i] - expected) < 1e-12


def test_strip_cpp_inverts_add_cpp():
    n = 32
    cfg = _cfg(n, 1.0 / 128.0)
    rng = np.random.default_rng(12)
    seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(strip_cpp(cfg, add_cpp(cfg, seq, 5), 5), seq)


def test_add_cpp_range_checked():
    cfg = _cfg(8, 0.0)
    seq = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        add_cpp(cfg, seq, 0)
    with pytest.raises(ValueError):
        add_cpp(cfg, seq, 8)


def test_design_srrc_unit_energy_and_shape():
    filt = design_srrc(0.2, 12, 16, 1e-6)
    assert len(filt.taps) == 12 * 16 + 1
    energy = np.sum(np.abs(filt.taps) ** 2) * filt.dt
    assert abs(energy - 1.0) < 1e-10
    assert np.max(np.abs(filt.taps - filt.taps[::-1])) < 1e-9


def test_design_srrc_root_nyquist_correlation():
    filt = design_srrc(0.2, 12, 16, 1e-6)
    corr = np.correlate(filt.taps, np.conj(filt.taps), mode="full") * filt.dt
    mid = len(corr) // 2
    assert abs(corr[mid] - 1.0) < 1e-6
    for m in range(1, 6):
        assert abs(corr[mid + m * filt.O]) < 1e-2


def test_design_srrc_correlation_tightens_with_span():
    worst = []
    for q in (6, 12, 20):
        filt = design_srrc(0.2, q, 16, 1e-6)
        corr = np.correlate(filt.taps, np.conj(filt.taps), mode="full") * filt.dt
        mid = len(corr) // 2
        lags = [abs(corr[mid + m * filt.O]) for m in range(1, q // 2)]
        worst.append(max(lags))
    assert worst[0] > worst[1] > worst[2]


def test_design_srrc_validation():
    with pytest.raises(ValueError):
        design_srrc(1.5, 12, 16, 1e-6)
    with pytest.raises(ValueError):
        design_srrc(0.2, 7, 16, 1e-6)
    with pytest.raises(ValueError):
        design_srrc(0.2, 12, 1, 1e-6)
    with pytest.raises(ValueError):
        design_srrc(0.2, 12, 16, 0.0)


def test_design_srrc_tiny_rolloff_is_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filt = design_srrc(5e-324, 12, 16, 1e-6)
    assert np.all(np.isfinite(filt.taps))


def test_shape_impulse_reproduces_taps():
    n = 16
    cfg = _cfg(n, 1.0 / 64.0, t=n * 1e-6)
    filt = design_srrc(0.2, 4, 8, cfg.dt)
    seq = np.zeros(n, dtype=complex)
    seq[0] = 1.0
    wf = shape(cfg, seq, filt)
    assert np.max(np.abs(wf.samples[: len(filt.taps)] - filt.taps)) < 1e-12
    assert abs(wf.t0 + filt.half_span * filt.Ts) < 1e-15


def test_shape_linearity_and_shift():
    n = 16
    cfg = _cfg(n, 0.0, t=n * 1e-6)
    filt = design_srrc(0.2, 4, 8, cfg.dt)
    a = np.zeros(n, dtype=complex)
    a[0] = 1.0
    b = np.zeros(n, dtype=complex)
    b[8] = 1.0
    combined = shape(cfg, a + 2j * b, filt).samples
    single = shape(cfg, a, filt).samples
    # the k = 8 impulse is the k = 0 response shifted by 8 base intervals
    shifted = np.zeros_like(combined)
    shifted[8 * filt.O : 8 * filt.O + len(filt.taps)] = filt.taps
    assert np.max(np.abs(combined - (single + 2j * shifted))) < 1e-12


def test_shaped_basis_gram_near_identity():
    n = 64
    cfg = _cfg(n, 1.0 / (4 * n), 1.0 / (3 * n), t=n * 1e-6)
    filt = design_srrc(0.2, 12, 8, cfg.dt)
    cols = []
    for idx in range(n):
        x = np.zeros(n, dtype=complex)
        x[idx] = 1.0
        cols.append(shape(cfg, np.sqrt(n) * modulate(cfg, x), filt).samples)
    mat = np.array(cols)
    # continuous inner products: unit-energy pulses make the diagonal ~ N
    gram = (mat @ mat.conj().T) * filt.dt
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(np.diag(gram)) - n) < 1e-2 * n
    assert np.max(np.abs(off)) < 1e-2 * n


def test_shape_rejects_mismatched_symbol_interval():
    cfg = _cfg(16, 0.0, t=16e-6)
    filt = design_srrc(0.2, 4, 8, 2e-6)
    with pytest.raises(ValueError):
        shape(cfg, np.ones(16, dtype=complex), filt)
