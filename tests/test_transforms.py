"""Unit tests for the chirp transforms."""

import numpy as np
import pytest

from chirplab import (
    ChirpConfig,
    daft_matrix,
    demodulate,
    idaft_matrix,
    idfnt_matrix,
    modulate,
    ocdm_config,
)


def _cfg(n, c1, c2, t=1e-3):
    return ChirpConfig(N=n, T=t, c1=c1, c2=c2)


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
    cfg = _cfg(16, 1.0 / 64.0, 1.0 / 48.0)
    assert np.array_equal(daft_matrix(cfg), idaft_matrix(cfg).conj().T)


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


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ChirpConfig(N=7, T=1e-3, c1=0.0, c2=0.0)
    with pytest.raises(ValueError):
        ChirpConfig(N=8, T=0.0, c1=0.0, c2=0.0)


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
