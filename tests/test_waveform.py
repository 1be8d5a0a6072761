"""Unit tests for waveform synthesis, prefixing and SRRC shaping."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from chirplab import (
    ChirpConfig,
    Waveform,
    add_cpp,
    design_srrc,
    ideal_basis,
    modulate,
    root_chirp,
    shape,
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


@pytest.mark.parametrize(
    "n, oversampling, message",
    [
        (1.5, 4, "subcarrier index n must be an integer in [0, 8), got 1.5"),
        (True, 4, "subcarrier index n must be an integer in [0, 8), got True"),
        (3, 1.5, "oversampling must be an integer >= 1, got 1.5"),
    ],
    ids=["index 1.5", "index True", "oversampling 1.5"],
)
def test_ideal_basis_refuses_a_parameter_that_is_not_an_integer(n, oversampling, message):
    """A subcarrier index of 1.5 gave a waveform that is not orthogonal to
    its neighbours, and an oversampling of 1.5 (refused by ``root_chirp``)
    gave 12 samples for N = 8."""
    with pytest.raises(ValueError, match=re.escape(message)):
        ideal_basis(_cfg(8, 0.0), n, oversampling)


def test_root_chirp_constant_envelope():
    wf = root_chirp(_cfg(64, 1.0 / 256.0), 8)
    assert np.max(np.abs(np.abs(wf.samples) - 1.0)) < 1e-13


def test_root_chirp_is_a_writable_copy_of_the_shared_table():
    """``root_chirp`` hands out a copy, so ``ideal_basis``, which modulates
    it in place, leaves the table that ``synth_ideal`` multiplies by intact."""
    cfg = _cfg(16, 1.0 / 64.0, 1.0 / 48.0)
    x = np.exp(2j * np.pi * np.arange(16) / 7.0)
    before = synth_ideal(cfg, x, 4).samples
    table = cfg._root_chirp(4)
    wf = root_chirp(cfg, 4)
    assert wf.samples.flags.writeable and not table.flags.writeable
    assert not np.shares_memory(wf.samples, table)
    assert np.array_equal(wf.samples, table)
    assert cfg._root_chirp(4) is table  # computed once per oversampling
    assert len(cfg._root_chirp(2)) == 32
    ideal_basis(cfg, 5, 4)
    with pytest.raises(ValueError, match="read-only"):
        table *= 2.0
    assert np.array_equal(synth_ideal(cfg, x, 4).samples, before)


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
    energy = np.sum(np.abs(wf.samples) ** 2) / wf.sample_rate
    assert abs(energy - expected) / expected < 0.01


def test_synth_ideal_frame_rows_equal_single_frames():
    n = 32
    cfg = _cfg(n, 1.0 / 128.0, 1.0 / 96.0)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    rows = synth_ideal(cfg, x, 4)
    assert rows.samples.shape == (3, n * 4)
    for frame, symbols in zip(rows.samples, x):
        assert np.array_equal(frame, synth_ideal(cfg, symbols, 4).samples)
    with pytest.raises(ValueError, match="per frame"):
        synth_ideal(cfg, x[:, 1:], 4)


@pytest.mark.parametrize("n, o, frames", [(32, 8, 1), (6, 3, 2), (10, 5, 1), (12, 1, 3), (16, 4, 2)])
def test_synth_ideal_equals_direct_basis_sum(n, o, frames):
    """The in-place padded inverse DFT is sum_n Xdot[n] phi_n, N O a power of two or not."""
    cfg = _cfg(n, 1.0 / (4.0 * n), 1.0 / (3.0 * n))
    rng = np.random.default_rng(n * o)
    x = rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))
    xdot = np.exp(2j * np.pi * cfg.c2 * np.arange(n) ** 2) * x / np.sqrt(n)
    basis = np.array([ideal_basis(cfg, k, o).samples for k in range(n)])
    direct = xdot @ basis
    got = synth_ideal(cfg, x, o).samples
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("oversampling", [0, -1])
def test_synth_ideal_rejects_oversampling_below_one(oversampling):
    with pytest.raises(ValueError, match=f"oversampling must be >= 1, got {oversampling}"):
        synth_ideal(_cfg(8, 0.0), np.ones(8), oversampling)


@pytest.mark.parametrize("oversampling", [1.5, 2.0, True])
def test_synth_ideal_refuses_an_oversampling_that_is_not_an_integer(oversampling):
    """1.5 failed inside np.zeros with a TypeError, and True was read as 1."""
    message = f"^oversampling must be an integer, got {oversampling!r}$"
    with pytest.raises(ValueError, match=message):
        synth_ideal(_cfg(8, 0.0), np.ones(8), oversampling)


@pytest.mark.parametrize(
    "n, c1", [(8, 0.0), (16, 1.0 / 64.0), (256, 1.0 / 1024.0), (1024, -1.0 / 3072.0)]
)
def test_add_cpp_prefix_equals_its_phases_computed_per_call(n, c1):
    """Each prefix length slices the configuration's one table of phases and
    gets, bit for bit, the phases computed for that length alone; the table
    is read-only."""
    cfg = _cfg(n, c1)
    rng = np.random.default_rng(n)
    seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for l_cpp in range(1, n):
        k = np.arange(-l_cpp, 0)
        phase = np.exp(-2j * np.pi * cfg.c1 * (cfg.N**2 + 2 * cfg.N * k))
        assert np.array_equal(add_cpp(cfg, seq, l_cpp), np.concatenate([seq[n + k] * phase, seq]))
    assert not cfg._prefix_phases.flags.writeable


@pytest.mark.parametrize("l_cpp", [2.0, np.float64(3.0), True, "4", None])
def test_add_cpp_refuses_a_prefix_length_that_is_not_an_integer(l_cpp):
    cfg = _cfg(16, 1.0 / 64.0)
    message = f"prefix length must be an integer, got {l_cpp!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        add_cpp(cfg, np.ones(16), l_cpp)


def test_add_cpp_takes_numpy_integers():
    cfg = _cfg(16, 1.0 / 64.0)
    seq = np.arange(16) + 1j
    assert np.array_equal(add_cpp(cfg, seq, np.int64(4)), add_cpp(cfg, seq, 4))


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 64),
    c1=st.floats(-1.0, 1.0, allow_nan=False),
    l_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_add_cpp_prefix_is_chirp_periodic(half_n, c1, l_frac, seed):
    """x[k] = x[N + k] e^{-j 2 pi c1 (N^2 + 2 N k)} on the prefix k = -L .. -1,
    and the frame follows the prefix unchanged."""
    n = 2 * half_n
    l_cpp = min(1 + int(l_frac * (n - 1)), n - 1)
    cfg = _cfg(n, c1)
    rng = np.random.default_rng(seed)
    seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = add_cpp(cfg, seq, l_cpp)
    assert out.shape == (n + l_cpp,)
    assert np.array_equal(out[l_cpp:], seq)
    k = np.arange(-l_cpp, 0)
    wrapped = seq[n + k] * np.exp(-2j * np.pi * c1 * (n**2 + 2 * n * k))
    assert np.max(np.abs(out[:l_cpp] - wrapped)) <= 1e-12 * np.max(np.abs(seq))


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


@pytest.mark.parametrize("rate", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_waveform_refuses_a_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(ValueError, match=f"^sample_rate must be finite and positive, got {rate}$"):
        Waveform(np.ones(4), rate)


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_waveform_refuses_a_start_time_that_is_not_finite(t0):
    with pytest.raises(ValueError, match=f"^t0 must be finite, got {t0}$"):
        Waveform(np.ones(4), 1e6, t0=t0)


@pytest.mark.parametrize("ts", [np.inf, np.nan, 0.0, -1e-6])
def test_design_srrc_refuses_a_symbol_interval_that_is_not_finite_and_positive(ts):
    with pytest.raises(ValueError, match=f"^Ts must be finite and positive, got {ts}$"):
        design_srrc(0.2, 6, 4, ts)


@pytest.mark.parametrize(
    "q, oversampling, message",
    [
        (6.0, 4, "span must be an integer, got 6.0"),
        (True, 4, "span must be an integer, got True"),
        (6, 4.0, "oversampling must be an integer, got 4.0"),
        (6, False, "oversampling must be an integer, got False"),
    ],
)
def test_design_srrc_refuses_a_span_or_oversampling_that_is_not_an_integer(
    q, oversampling, message
):
    with pytest.raises(ValueError, match=f"^{message}$"):
        design_srrc(0.2, q, oversampling, 1e-6)


def test_design_srrc_takes_numpy_integers():
    a = design_srrc(0.2, np.int64(6), np.int64(4), 1e-6)
    b = design_srrc(0.2, 6, 4, 1e-6)
    assert np.array_equal(a.taps, b.taps)


def test_design_srrc_tiny_rolloff_is_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filt = design_srrc(5e-324, 12, 16, 1e-6)
    assert np.all(np.isfinite(filt.taps))


def _tables_from_taps(filt):
    """The filter's two tables rebuilt from its taps: the conjugated
    polyphase transpose of the matched filter and the zero-guarded pulse
    windows of the tap model."""
    q, o, m = filt.q, filt.O, len(filt.taps)
    phases = np.zeros((q + 1) * o, dtype=complex)
    phases[:m] = filt.taps
    phases = phases.reshape(q + 1, o)
    padded = np.concatenate([np.zeros(m), filt.taps, np.zeros(m)])
    windows = np.array([padded[i : i + m] for i in range(2 * m + 1)])
    return {
        "_matched_phases": np.conj(phases).T,
        "_pulse_windows": windows,
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    beta=st.floats(0.0, 1.0),
    half_q=st.integers(1, 8),
    o=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_tables_equal_their_rebuild_from_the_taps_and_are_read_only(
    beta, half_q, o, seed
):
    """Each cached table equals, bit for bit, the table rebuilt from the taps
    and is read-only; a filter made with other taps builds its own tables;
    the taps and the fields cannot be changed."""
    filt = design_srrc(beta, 2 * half_q, o, 1e-6)
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(len(filt.taps)) + 1j * rng.standard_normal(len(filt.taps))
    other = dataclasses.replace(filt, taps=taps)
    for f in (filt, other):
        for name, want in _tables_from_taps(f).items():
            table = getattr(f, name)
            assert table.shape == want.shape
            assert np.array_equal(table, want)
            assert getattr(f, name) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
    assert np.array_equal(other.taps, taps)
    for name in _tables_from_taps(filt):
        assert not np.shares_memory(getattr(filt, name), getattr(other, name))
    with pytest.raises(ValueError, match="read-only"):
        filt.taps[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        filt.taps = taps
    with pytest.raises(dataclasses.FrozenInstanceError):
        filt.q = 2


def test_filter_copies_its_taps_and_refuses_a_tap_count_other_than_q_o_plus_one():
    filt = design_srrc(0.2, 4, 4, 1e-6)
    taps = np.array(filt.taps)
    copied = dataclasses.replace(filt, taps=taps)
    taps[0] = 5.0
    assert copied.taps[0] == filt.taps[0]
    with pytest.raises(ValueError, match=r"^expected q O \+ 1 = 17 taps, got shape \(16,\)$"):
        dataclasses.replace(filt, taps=filt.taps[:-1])


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


def _shape_upsampled(seq, filt):
    """Oracle: zero-stuff the sequence to the fine grid, then convolve."""
    up = np.zeros((len(seq) - 1) * filt.O + 1, dtype=np.complex128)
    up[:: filt.O] = seq
    return fftconvolve(up, filt.taps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_seq=st.integers(1, 80),
    half_q=st.integers(1, 10),
    o=st.integers(2, 16),
    beta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_polyphase_shape_equals_upsample_and_convolve(n_seq, half_q, o, beta, seed):
    cfg = _cfg(16, 1.0 / 64.0, t=16e-6)
    filt = design_srrc(beta, 2 * half_q, o, cfg.dt)
    rng = np.random.default_rng(seed)
    seq = rng.standard_normal(n_seq) + 1j * rng.standard_normal(n_seq)
    got = shape(cfg, seq, filt, t_first=-3 * cfg.dt)
    want = _shape_upsampled(seq, filt)
    assert got.samples.shape == want.shape
    assert abs(got.t0 - (-3 - half_q) * cfg.dt) < 1e-12 * cfg.dt
    # each sample sums at most q + 1 products |seq| |tap|
    scale = (2 * half_q + 1) * np.max(np.abs(seq)) * np.max(np.abs(filt.taps))
    assert np.max(np.abs(got.samples - want)) <= 1e-12 * scale
