"""Unit tests for the chirp transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplab import (
    ChirpConfig,
    demodulate,
    idaft_matrix,
    idfnt_matrix,
    modulate,
    ocdm_config,
)


def _cfg(n, c1, c2, t=1e-3):
    return ChirpConfig(N=n, T=t, c1=c1, c2=c2)


def daft_matrix(cfg):
    """Oracle: the dense forward DAFT matrix, conjugate transpose of the inverse."""
    return idaft_matrix(cfg).conj().T


def test_idaft_reduces_to_idft_without_chirps():
    cfg = _cfg(4, 0.0, 0.0)
    k = np.arange(4)
    idft = np.exp(2j * np.pi * np.outer(k, k) / 4) / 2.0
    assert np.max(np.abs(idaft_matrix(cfg) - idft)) < 1e-14


def test_idaft_first_column_is_root_chirp():
    cfg = _cfg(8, 1.0 / 32.0, 1.0 / 24.0)
    k = np.arange(8)
    expected = np.exp(2j * np.pi * k**2 / 32.0) / np.sqrt(8.0)
    assert np.max(np.abs(idaft_matrix(cfg)[:, 0] - expected)) < 1e-14


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_idaft_unitary(n):
    cfg = _cfg(n, 1.0 / (4 * n), 1.0 / (3 * n))
    mat = idaft_matrix(cfg)
    dev = np.max(np.abs(mat @ mat.conj().T - np.eye(n)))
    assert dev < 1e-11


def test_daft_is_conjugate_transpose():
    """The forward transform's matrix, read row by row off the identity (so
    transposed), is the conjugate transpose of the inverse DAFT matrix."""
    cfg = _cfg(16, 1.0 / 64.0, 1.0 / 48.0)
    forward = demodulate(cfg, np.eye(16, dtype=complex))
    assert np.max(np.abs(forward.T - idaft_matrix(cfg).conj().T)) < 1e-14


def test_modulate_matches_dense_matrix():
    n = 32
    cfg = _cfg(n, 1.0 / 128.0, 1.0 / 96.0)
    rng = np.random.default_rng(1)
    x = (rng.choice([-1, 1], n) + 1j * rng.choice([-1, 1], n)) / np.sqrt(2)
    assert np.max(np.abs(modulate(cfg, x) - idaft_matrix(cfg) @ x)) < 1e-12


def test_modulate_impulse_gives_root_chirp_column():
    n = 16
    cfg = _cfg(n, 1.0 / 64.0, 1.0 / 48.0)
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    k = np.arange(n)
    expected = np.exp(2j * np.pi * cfg.c1 * k**2) / np.sqrt(n)
    assert np.max(np.abs(modulate(cfg, x) - expected)) < 1e-13


def test_modulate_linearity():
    n = 64
    cfg = _cfg(n, 1.0 / (4 * n), 1.0 / (3 * n))
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs = modulate(cfg, 2.0 * x + (1 - 3j) * y)
    rhs = 2.0 * modulate(cfg, x) + (1 - 3j) * modulate(cfg, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_demodulate_round_trip():
    n = 64
    cfg = _cfg(n, 1.0 / (4 * n), 1.0 / (3 * n))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(demodulate(cfg, modulate(cfg, x)) - x)) < 1e-12


def test_demodulate_matches_dense_matrix():
    n = 32
    cfg = _cfg(n, 1.0 / 128.0, 1.0 / 96.0)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(demodulate(cfg, y) - daft_matrix(cfg) @ y)) < 1e-12


def test_length_mismatch_rejected():
    cfg = _cfg(8, 0.0, 0.0)
    with pytest.raises(ValueError):
        modulate(cfg, np.ones(7))
    with pytest.raises(ValueError):
        demodulate(cfg, np.ones(9))


@pytest.mark.parametrize("transform", [modulate, demodulate])
def test_column_batch_rejected_naming_its_width(transform):
    """Frames lie along the last axis: an (N, m) batch of columns with m != N
    is a batch of N frames of length m, and the error names m."""
    cfg = _cfg(8, 1.0 / 32.0, 1.0 / 24.0)
    with pytest.raises(ValueError, match=r"^expected.* 8 .*, got 3$"):
        transform(cfg, np.ones((8, 3), dtype=complex))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ChirpConfig(N=7, T=1e-3, c1=0.0, c2=0.0)
    with pytest.raises(ValueError):
        ChirpConfig(N=8, T=0.0, c1=0.0, c2=0.0)


@pytest.mark.parametrize("n", [4.0, np.float64(8.0), True])
def test_config_refuses_a_frame_size_that_is_not_an_integer(n):
    """N = 4.0 was accepted, and the waveform layer then failed with a TypeError."""
    with pytest.raises(ValueError, match=re.escape(f"N must be a positive even integer, got {n!r}")):
        ChirpConfig(N=n, T=1e-3, c1=0.0)


@pytest.mark.parametrize("key", ["T", "c1", "c2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_config_rejected_naming_field(key, value):
    fields = dict(N=8, T=1e-3, c1=0.0, c2=0.0)
    fields[key] = value
    with pytest.raises(ValueError, match=rf"^{key} must be finite"):
        ChirpConfig(**fields)


def test_idfnt_two_point_entries():
    mat = idfnt_matrix(2)
    k = np.arange(2)
    expected = (
        np.exp(1j * np.pi / 4)
        * np.exp(-1j * np.pi * (k[:, None] - k[None, :]) ** 2 / 2)
        / np.sqrt(2)
    )
    assert np.max(np.abs(mat - expected)) < 1e-14


def test_idfnt_unitary_and_matches_idaft_special_case():
    n = 32
    mat = idfnt_matrix(n)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(n))) < 1e-12
    cfg = _cfg(n, -1.0 / (2 * n), -1.0 / (2 * n))
    embedded = np.exp(1j * np.pi / 4) * idaft_matrix(cfg)
    assert np.max(np.abs(mat - embedded)) < 1e-12


def test_idfnt_rejects_odd():
    with pytest.raises(ValueError):
        idfnt_matrix(5)


def test_ocdm_config_modulate_matches_idfnt():
    n = 32
    cfg = ocdm_config(n, 1e-3)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs = np.exp(1j * np.pi / 4) * modulate(cfg, x)
    rhs = idfnt_matrix(n) @ x
    assert np.max(np.abs(lhs - rhs)) < 1e-11


_rate = st.floats(-4.0, 4.0, allow_nan=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(half_n=st.integers(1, 256), c1=_rate, c2=_rate)
def test_fast_transform_unitary_for_any_real_rates(half_n, c1, c2):
    """The matrices of modulate and demodulate, read off the identity, are
    unitary and mutually inverse for every real chirp rate.  The dense
    matrix is checked where its phases c N^2 stay small enough to round
    below the tolerance."""
    n = 2 * half_n
    cfg = _cfg(n, c1, c2)
    eye = np.eye(n, dtype=complex)
    fwd, inv = demodulate(cfg, eye), modulate(cfg, eye)
    assert np.max(np.abs(inv.conj().T @ inv - eye)) < 1e-12
    assert np.max(np.abs(fwd - inv.conj().T)) < 1e-12
    if max(abs(c1), abs(c2)) * n**2 <= 1e4:
        dense = idaft_matrix(cfg)
        assert np.max(np.abs(dense @ dense.conj().T - eye)) < 1e-11


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 256), c1=_rate, c2=_rate, batch=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_modulate_demodulate_round_trip(half_n, c1, c2, batch, seed):
    """Round trip both ways for a vector or an (m, N) batch; the unitary pair
    also preserves the norm."""
    n = 2 * half_n
    cfg = _cfg(n, c1, c2)
    rng = np.random.default_rng(seed)
    size = (batch, n) if batch else n
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    scale = np.linalg.norm(x)
    y = modulate(cfg, x)
    assert abs(np.linalg.norm(y) - scale) <= 1e-12 * scale
    assert np.linalg.norm(demodulate(cfg, y) - x) <= 1e-12 * scale
    assert np.linalg.norm(modulate(cfg, demodulate(cfg, x)) - x) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 256),
    c1=_rate,
    c2=_rate,
    frames=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_frames_equal_per_frame_calls(half_n, c1, c2, frames, seed):
    """An (m, N) or (a, b, N) stack transforms frame by frame: each frame of
    the result equals the 1-D call on that frame bit for bit, and the stack
    round-trips."""
    n = 2 * half_n
    cfg = _cfg(n, c1, c2)
    rng = np.random.default_rng(seed)
    size = (*frames, n)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    y = modulate(cfg, x)
    z = demodulate(cfg, x)
    assert y.shape == z.shape == x.shape
    for idx in np.ndindex(*frames):
        assert np.array_equal(y[idx], modulate(cfg, x[idx]))
        assert np.array_equal(z[idx], demodulate(cfg, x[idx]))
    scale = np.linalg.norm(x)
    assert np.linalg.norm(demodulate(cfg, y) - x) <= 1e-12 * scale


def test_chirp_tables_are_cached_read_only_and_per_config():
    cfg = _cfg(16, 1.0 / 64.0, 1.0 / 48.0)
    assert cfg._k_chirp is cfg._k_chirp and cfg._n_chirp is cfg._n_chirp
    for table in (cfg._k_chirp, cfg._n_chirp):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    k = np.arange(16)
    assert np.array_equal(cfg._k_chirp, np.exp(2j * np.pi * cfg.c1 * k**2))
    assert np.array_equal(cfg._n_chirp, np.exp(2j * np.pi * cfg.c2 * k**2))
    # a config differing only in c1 gets its own post-chirp, only in c2 its own pre-chirp
    other_c1 = _cfg(16, 1.0 / 32.0, cfg.c2)
    other_c2 = _cfg(16, cfg.c1, 1.0 / 24.0)
    assert not np.allclose(other_c1._k_chirp, cfg._k_chirp)
    assert np.array_equal(other_c1._n_chirp, cfg._n_chirp)
    assert not np.allclose(other_c2._n_chirp, cfg._n_chirp)
    assert np.array_equal(other_c2._k_chirp, cfg._k_chirp)
    x = np.ones(16, dtype=complex)
    assert not np.allclose(modulate(other_c1, x), modulate(cfg, x))
    assert not np.allclose(modulate(other_c2, x), modulate(cfg, x))
