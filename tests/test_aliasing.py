"""Unit tests for aliased chirps and conditional orthogonality."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from chirplab import ChirpConfig, Waveform, cli, inner_product_matrix, predict_aliased
from chirplab.aliasing import _integer_fold_grid


def _cfg(n, c, c2=0.0, t=1e-3):
    # c1 chosen so the fold count 2 N |c1| equals c
    return ChirpConfig(N=n, T=t, c1=c / (2.0 * n), c2=c2)


@lru_cache(maxsize=None)
def _gauss_legendre(order):
    return leggauss(order)


def _fold_index(cfg, n, t):
    """Fold interval index q_n(t) = floor((C/T) t + n/N)."""
    return np.floor(cfg.chirp_span * t / cfg.T + n / cfg.N)


def _aliased_phase(cfg, n, t):
    """Phase in cycles of the aliased chirp n at times t, fold index included."""
    q = _fold_index(cfg, n, t)
    return cfg.c2 * n**2 + cfg.c1 * (t / cfg.dt) ** 2 + n * t / cfg.T - q * t / cfg.dt


def _fold_edges(cfg, n):
    """Interval edges 0 = t_0 < t_1 < ... < T where the fold index of n jumps."""
    c = cfg.chirp_span
    if c <= 0:
        return np.array([0.0, cfg.T])
    # interior crossings of (C/T) t + n/N through integers
    qs = np.arange(int(np.floor(n / cfg.N)) + 1, int(np.ceil(c + n / cfg.N)))
    interior = (qs - n / cfg.N) * cfg.T / c
    interior = interior[(interior > 0) & (interior < cfg.T)]
    return np.concatenate([[0.0], interior, [cfg.T]])


def _ideal_aliased_chirp(cfg, n, oversampling):
    """The piecewise aliased chirp n sampled at rate O N / T on [0, T)."""
    n_samp = cfg.N * oversampling
    t = np.arange(n_samp) * (cfg.T / n_samp)
    return Waveform(np.exp(2j * np.pi * _aliased_phase(cfg, n, t)), n_samp / cfg.T)


def _quadrature_grid(cfg):
    """Oracle: |I_{n,n'}| by Gauss-Legendre quadrature between merged folds.

    The integrand keeps the c1 terms, so their cancellation is checked too.
    Each piece gets enough nodes for the N cycles per frame that eta can
    reach over the longest piece of the pair.
    """
    big_n = cfg.N
    bounds = [_fold_edges(cfg, n) for n in range(big_n)]
    grid = np.eye(big_n) * cfg.T
    for n in range(big_n):
        for n2 in range(n + 1, big_n):
            edges = np.unique(np.concatenate([bounds[n], bounds[n2]]))
            half = 0.5 * np.diff(edges)[:, None]
            order = 16 + int(np.ceil(4 * big_n * half.max() / cfg.T))
            nodes, weights = _gauss_legendre(order)
            t = edges[:-1, None] + half * (1.0 + nodes[None, :])
            phase = _aliased_phase(cfg, n, t) - _aliased_phase(cfg, n2, t)
            val = np.sum(half * np.exp(2j * np.pi * phase) * weights)
            grid[n, n2] = grid[n2, n] = abs(val)
    return grid


def _fold_time_grid(cfg):
    """Oracle: |I_{n,n'}| as the term-by-term sum over every fold time.

    Pair n < n' with d = n - n' has eta_- = d and eta_+ = d + N; with
    e(eta, s) = e^{j 2 pi eta s} / eta and the folds s = (k - n/N) / C,
    2 pi |I| / T = | 1/eta_end - 1/d + sum over folds of n of
    [e(eta_+, s) - e(eta_-, s)] - the same sum over the folds of n' |,
    one complex exponential per (pair, fold), in row blocks.
    """
    big_n = cfg.N
    c = cfg.chirp_span
    idx = np.arange(big_n)
    folds = np.maximum(np.ceil(c + idx / big_n) - 1, 0).astype(int)
    k = np.arange(1, folds.max() + 1)
    live = k[None, :] <= folds[:, None]
    # (N, K) fold positions, padded with 0; K = 0 (an empty array) when C = 0
    at = np.where(live, (k[None, :] - idx[:, None] / big_n) / c, 0.0)

    entries = np.zeros((big_n, big_n))
    # about 1M (pair, fold) terms per block of rows
    rows = max(1, (1 << 20) // (big_n * max(len(k), 1)))
    for r0 in range(0, big_n, rows):
        a, b = np.nonzero(idx[None, :] > idx[r0 : r0 + rows, None])
        a += r0
        eta_minus = (a - b).astype(float)[:, None]
        eta_plus = eta_minus + big_n

        def jumps(n):
            wave = (np.exp(2j * np.pi * eta_plus * at[n]) / eta_plus
                    - np.exp(2j * np.pi * eta_minus * at[n]) / eta_minus)
            return np.sum(wave * live[n], axis=1)

        eta_end = eta_minus[:, 0] + big_n * (folds[b] - folds[a])
        total = 1.0 / eta_end - 1.0 / eta_minus[:, 0] + jumps(a) - jumps(b)
        entries[a, b] = entries[b, a] = cfg.T * np.abs(total) / (2.0 * np.pi)
    np.fill_diagonal(entries, cfg.T)
    return entries


def _exp_fold_grid(cfg, c):
    """Oracle: the integer-C collapse with its piece integrals as exponentials.

    The same pieces as ``_integer_fold_grid``, but each live piece evaluates
    (e^{w hi / N} - e^{w lo / N}) / w with w = j 2 pi eta / c directly: two
    complex exponentials per entry and piece, over the whole (N, N) grid.
    """
    big_n = cfg.N
    n = np.arange(big_n)[:, None]
    n2 = np.arange(big_n)[None, :]
    breaks = (0, big_n - np.maximum(n, n2), big_n - np.minimum(n, n2), big_n)
    total = np.zeros((big_n, big_n), dtype=np.complex128)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        eta = (n - n2) - big_n * ((lo + n) // big_n - (lo + n2) // big_n)
        w = 2j * np.pi * eta / c
        rise = np.exp(w * hi / big_n) - np.exp(w * lo / big_n)
        piece = np.where(eta == 0, (hi - lo) / big_n, rise / np.where(eta == 0, 1.0, w))
        total += np.where(eta % c == 0, piece, 0.0)
    return np.abs(total)


def test_q_index_example():
    cfg = _cfg(32, 16)
    assert _fold_index(cfg, 8, cfg.T / 2.0) == 8


def test_q_index_matches_boundary_scan():
    """The quadrature oracle's fold edges sit where the phase's fold index jumps."""
    cfg = _cfg(32, 16)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(0, cfg.N))
        t = float(rng.uniform(0.0, cfg.T * (1 - 1e-12)))
        edges = _fold_edges(cfg, n)
        # q increments by one at each interior boundary, starting at floor(n/N)
        expected = int(np.floor(n / cfg.N)) + int(
            np.sum(edges[1:-1] <= t)
        )
        assert _fold_index(cfg, n, t) == expected


def test_aliased_chirp_equals_root_chirp_before_first_fold():
    cfg = _cfg(32, 8)
    wf = _ideal_aliased_chirp(cfg, 0, 16)
    t = wf.times()
    head = t < cfg.T / 8.0  # q = 0 region for n = 0
    unfolded = np.exp(
        2j * np.pi * (cfg.c1 * (t / cfg.dt) ** 2)
    )
    assert np.max(np.abs(wf.samples[head] - unfolded[head])) < 1e-12


def test_aliased_chirp_base_rate_samples_match_sequence():
    cfg = _cfg(32, 16, c2=1.0 / 96.0)
    n = 5
    wf = _ideal_aliased_chirp(cfg, n, 1)
    k = np.arange(cfg.N)
    phi = np.exp(2j * np.pi * (cfg.c1 * k**2 + n * k / cfg.N))
    expected = phi * np.exp(2j * np.pi * cfg.c2 * n**2)
    assert np.max(np.abs(wf.samples - expected)) < 1e-12


def test_aliased_chirp_frequency_stays_in_band():
    cfg = _cfg(32, 16)
    o = 64
    wf = _ideal_aliased_chirp(cfg, 7, o)
    phase = np.unwrap(np.angle(wf.samples))
    t_mid = wf.times()[:-1] + 0.5 / wf.sample_rate
    inst_freq = np.diff(phase) * wf.sample_rate / (2.0 * np.pi)
    # the phase is only piecewise continuous: drop the finite-difference
    # estimates that straddle a fold boundary
    edges = _fold_edges(cfg, 7)[1:-1]
    step = 1.0 / wf.sample_rate
    interior = np.all(np.abs(t_mid[:, None] - edges[None, :]) > step, axis=1)
    band = cfg.N / cfg.T
    # one-sided fold convention keeps the frequency inside [0, N/T)
    assert np.all(inst_freq[interior] > -0.05 * band)
    assert np.all(inst_freq[interior] < 1.05 * band)


def test_inner_product_matrix_symmetry_and_diagonal():
    cfg = _cfg(16, 16)
    grid = inner_product_matrix(cfg)
    assert np.max(np.abs(grid - grid.T)) < 1e-9 * cfg.T
    assert np.max(np.abs(np.diag(grid) - cfg.T)) < 1e-3 * cfg.T


def test_case_one_orthogonality_c_at_least_n():
    for c in (32, 48):
        cfg = _cfg(32, c)
        grid = inner_product_matrix(cfg) / cfg.T
        off = grid - np.diag(np.diag(grid))
        assert np.max(off) < 0.05
        assert np.array_equal(predict_aliased(cfg), np.eye(cfg.N, dtype=bool))


def test_case_two_band_at_separation_c():
    cfg = _cfg(32, 16)
    grid = inner_product_matrix(cfg) / cfg.T
    # the |n - n'| = 16 band carries (2/pi)|cos(pi n / 16)|
    for n in range(16):
        expected = (2.0 / np.pi) * abs(np.cos(np.pi * n / 16.0))
        assert abs(grid[n, n + 16] - expected) < 1e-3
    # everything else off the band stays below threshold
    for n in range(cfg.N):
        for n2 in range(n + 1, cfg.N):
            if n2 - n != 16:
                assert grid[n, n2] < 0.05


def test_closed_form_band_at_separation_c():
    cfg = _cfg(32, 16)
    band = np.diagonal(_integer_fold_grid(cfg, 16), 16)
    expected = (2.0 / np.pi) * np.abs(np.cos(np.pi * np.arange(16) / 16.0))
    assert np.max(np.abs(band - expected)) < 1e-12


def test_predictor_example_pair():
    pred = predict_aliased(_cfg(32, 16))
    assert pred[20, 4]
    assert not pred[20, 5]


def test_predictor_cancelling_pair_is_orthogonal():
    # eta takes -16, +16, -16 on the three pieces: divisible by C = 16,
    # yet the surviving integrals cancel exactly
    pred = predict_aliased(_cfg(32, 16))
    assert not pred[8, 24]
    assert not pred[24, 8]


@pytest.mark.parametrize("n, c", [(32, 16), (32, 8), (64, 16)])
def test_predictor_matches_quadrature_support(n, c):
    cfg = _cfg(n, c)
    grid = inner_product_matrix(cfg) / cfg.T
    assert np.array_equal(predict_aliased(cfg), grid > 1e-6)


def test_predictor_validation():
    # the sum over fold periods collapses only for an integer fold count
    assert predict_aliased(ChirpConfig(N=32, T=1e-3, c1=0.3 / 64.0, c2=0.0)) is None
    # C = 0 has no folds: the chirps are exactly orthogonal
    pred = predict_aliased(ChirpConfig(N=32, T=1e-3, c1=0.0, c2=0.2))
    assert np.array_equal(pred, np.eye(32, dtype=bool))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 32),
    c_frac=st.floats(0.0, 1.0),
    negative=st.booleans(),
    c2=st.floats(-2.0, 2.0, allow_nan=False),
)
@example(half_n=16, c_frac=0.0, negative=False, c2=0.0)  # C = 1
@example(half_n=16, c_frac=15.0 / 63, negative=True, c2=0.1)  # C = 16 divides N
@example(half_n=16, c_frac=1.0, negative=False, c2=1.0 / 96)  # C = 2N
def test_integer_fold_grid_matches_closed_form_grid(half_n, c_frac, negative, c2):
    """The integer-C collapse and the fold-time sum are two constructions."""
    n = 2 * half_n
    c = 1 + int(c_frac * (2 * n - 1))
    sign = -1.0 if negative else 1.0
    cfg = ChirpConfig(N=n, T=1e-3, c1=sign * c / (2.0 * n), c2=c2)
    grid = inner_product_matrix(cfg)
    off = ~np.eye(n, dtype=bool)
    folded = _integer_fold_grid(cfg, c)
    assert np.max(np.abs(folded - grid / cfg.T)[off]) <= 1e-12
    assert np.array_equal(predict_aliased(cfg), grid > 1e-6 * cfg.T)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(half_n=st.integers(1, 64), c=st.integers(1, 256))
@example(half_n=64, c=16)  # c divides N
@example(half_n=64, c=3)  # c does not divide N
@example(half_n=32, c=64)  # c = N
@example(half_n=32, c=100)  # N < c < 2N
@example(half_n=64, c=256)  # c = 2N
def test_root_table_fold_grid_matches_exponential_form(half_n, c):
    """Reading e^{j 2 pi k b / N} from the table of roots equals computing it."""
    n = 2 * half_n
    assume(c <= 2 * n)
    cfg = _cfg(n, c)
    got, want = _integer_fold_grid(cfg, c), _exp_fold_grid(cfg, c)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got > 1e-9, want > 1e-9)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 32),
    c1=st.floats(-0.5, 0.5, allow_nan=False),
    c2=st.floats(-2.0, 2.0, allow_nan=False),
)
@example(half_n=16, c1=0.0, c2=0.3)  # no folds
@example(half_n=16, c1=16.0 / 64, c2=0.0)  # C = 16 divides N
@example(half_n=16, c1=-5.3 / 64, c2=0.1)  # negative c1, non-integer C
@example(half_n=32, c1=16.25 / 128, c2=1.0 / 192)
def test_closed_form_grid_matches_quadrature(half_n, c1, c2):
    cfg = ChirpConfig(N=2 * half_n, T=1e-3, c1=c1, c2=c2)
    grid = inner_product_matrix(cfg)
    assert np.max(np.abs(grid - _quadrature_grid(cfg))) <= 1e-12 * cfg.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half_n=st.integers(1, 32),
    c1=st.floats(-1.0, 1.0, allow_nan=False),
    c2=st.floats(-2.0, 2.0, allow_nan=False),
)
@example(half_n=16, c1=0.0, c2=0.3)  # C = 0: no folds
@example(half_n=32, c1=-0.5 / 128, c2=0.0)  # C = 1/2: half the chirps fold once
@example(half_n=16, c1=48.0 / 64, c2=0.1)  # C = 48 >= N
@example(half_n=32, c1=(3.0 - 1e-9) / 128, c2=0.0)  # sin(pi f) near 0 for eta = 3 j
@example(half_n=32, c1=-(16.0 + 1e-9) / 128, c2=0.0)  # and for eta = 16 j
def test_geometric_grid_matches_fold_time_sum(half_n, c1, c2):
    """Each chirp's geometric fold series equals its term-by-term sum."""
    cfg = ChirpConfig(N=2 * half_n, T=1e-3, c1=c1, c2=c2)
    grid = inner_product_matrix(cfg)
    assert np.max(np.abs(grid - _fold_time_grid(cfg))) <= 1e-12 * cfg.T


def test_orthogonality_matrix_csv(tmp_path, capsys):
    # N = 8 with C = 8: one row per ordered pair, |I| / T in the last column
    path = tmp_path / "exp.cfg"
    path.write_text("n = 8\nc1_num = 8\nc1_den = 2N\n")
    out = tmp_path / "grid.csv"
    assert cli.main(["ortho", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,n_prime,abs_I_over_T"
    assert len(lines) == 1 + 64
    assert lines[1] == "0,0,1" and lines[64].startswith("7,7,")
