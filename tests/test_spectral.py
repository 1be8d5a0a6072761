"""Unit tests for the analytic and empirical PSD machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import welch

from chirplab import (
    ChirpConfig,
    PsdCurve,
    Waveform,
    analytic_psd,
    cli,
    empirical_psd,
    occupied_bandwidth,
    prototype_spectrum,
)


PAPER_CFG = ChirpConfig(N=1024, T=266.667e-6, c1=1.0 / 4096.0, c2=1.0 / 3072.0)


def _shifted_sum_psd(cfg, sigma2, freqs):
    """Oracle: sigma2 / (N T) * sum_n |G(f - n/T)|^2 at all N F points, chunked."""
    total = np.zeros(len(freqs))
    block = max(1, int(4e6 / len(freqs)))
    shifts = np.arange(cfg.N) / cfg.T
    for start in range(0, cfg.N, block):
        sub = shifts[start : start + block]
        g = prototype_spectrum(cfg, (freqs[:, None] - sub[None, :]).ravel())
        total += np.sum(np.abs(g.reshape(len(freqs), len(sub))) ** 2, axis=1)
    return sigma2 / (cfg.N * cfg.T) * total


def _bandwidth_estimate(cfg):
    """Oracle: closed-form occupied bandwidth (2 c1 N^2 + N - 1) / T, c1 >= 0."""
    if cfg.c1 < 0:
        raise ValueError("bandwidth estimate is stated for c1 >= 0")
    return (2.0 * cfg.c1 * cfg.N**2 + cfg.N - 1) / cfg.T


def _welch_grid(cfg, oversample, nfft):
    """The PSD experiment's grid: commensurate with 1/T up to rounding."""
    rate = cfg.N * oversample / cfg.T
    return np.fft.fftshift(np.fft.fftfreq(nfft, 1.0 / rate))


CHIRPED_CFGS = [
    ChirpConfig(N=256, T=266.667e-6, c1=1.0 / 1024.0, c2=1.0 / 768.0),
    ChirpConfig(N=64, T=266.667e-6, c1=-1.0 / 300.0, c2=0.1),
]


def test_prototype_spectrum_unchirped_dc():
    cfg = ChirpConfig(N=16, T=1e-3, c1=0.0, c2=0.0)
    val = prototype_spectrum(cfg, np.array([0.0]))[0]
    assert abs(val - cfg.T) < 1e-9 * cfg.T


def test_prototype_spectrum_unchirped_harmonics_vanish():
    cfg = ChirpConfig(N=16, T=1e-3, c1=0.0, c2=0.0)
    freqs = np.array([m / cfg.T for m in (1, 2, 5)])
    vals = prototype_spectrum(cfg, freqs)
    assert np.max(np.abs(vals)) < 1e-9 * cfg.T


@pytest.mark.parametrize("f", [0.0, 1.7e3, 2.3e6])
def test_prototype_spectrum_against_quadrature(f):
    cfg = PAPER_CFG
    alpha = 2.0 * np.pi * cfg.c1 * cfg.N**2 / cfg.T**2

    def integrand_re(t):
        return np.cos(alpha * t**2 - 2.0 * np.pi * f * t)

    def integrand_im(t):
        return np.sin(alpha * t**2 - 2.0 * np.pi * f * t)

    re, _ = quad(integrand_re, 0.0, cfg.T, limit=2000)
    im, _ = quad(integrand_im, 0.0, cfg.T, limit=2000)
    oracle = re + 1j * im
    val = prototype_spectrum(cfg, np.array([f]))[0]
    assert abs(val - oracle) < 1e-6 * abs(oracle)


def test_prototype_spectrum_negative_c1_is_mirror_conjugate():
    cfg_pos = ChirpConfig(N=64, T=1e-4, c1=1.0 / 256.0, c2=0.0)
    cfg_neg = ChirpConfig(N=64, T=1e-4, c1=-1.0 / 256.0, c2=0.0)
    freqs = np.linspace(-2e5, 2e5, 11)
    a = prototype_spectrum(cfg_pos, -freqs)
    b = prototype_spectrum(cfg_neg, freqs)
    assert np.max(np.abs(np.conj(a) - b)) < 1e-9 * cfg_pos.T


def test_analytic_psd_scales_linearly_in_power():
    freqs = np.linspace(-1e6, 7e6, 257)
    one = analytic_psd(PAPER_CFG, 1.0, freqs)
    two = analytic_psd(PAPER_CFG, 2.0, freqs)
    assert np.max(np.abs(two.psd - 2.0 * one.psd)) < 1e-12 * np.max(one.psd)


@pytest.mark.parametrize("cfg", CHIRPED_CFGS)
def test_analytic_psd_matches_shifted_sum_on_welch_grid(cfg):
    # unchirped, this grid falls on the exact zeros of |G|^2 outside the band
    freqs = _welch_grid(cfg, oversample=8, nfft=1024)
    u = freqs * cfg.T
    assert np.any(u != np.round(u))  # the grid carries residue jitter
    curve = analytic_psd(cfg, 1.0, freqs)
    oracle = _shifted_sum_psd(cfg, 1.0, freqs)
    assert np.max(np.abs(curve.psd - oracle) / oracle) <= 1e-12


def _counting_prototype(monkeypatch):
    """Record the points analytic_psd passes to prototype_spectrum."""
    from chirplab import spectral

    evaluated = []

    def counting(cfg, points):
        evaluated.append(len(points))
        return prototype_spectrum(cfg, points)

    monkeypatch.setattr(spectral, "prototype_spectrum", counting)
    return evaluated


def test_prototype_spectrum_negative_c1_is_one_call(monkeypatch):
    """The mirror G(f) = conj(G_{|c1|}(-f)) is evaluated in place, so a
    wrapper of the module function sees one call, and the values are those
    of the mirrored configuration bit for bit."""
    from chirplab import spectral

    cfg = CHIRPED_CFGS[1]
    freqs = np.linspace(-1e6, 1e6, 401)
    evaluated = _counting_prototype(monkeypatch)
    got = spectral.prototype_spectrum(cfg, freqs)
    assert evaluated == [401]
    mirrored = ChirpConfig(cfg.N, cfg.T, -cfg.c1, cfg.c2)
    assert np.array_equal(got, np.conj(prototype_spectrum(mirrored, -freqs)))


OTHER_GRIDS = {
    # f T steps by 0.533334: no two residues of the grid coincide
    "linspace": lambda cfg: np.linspace(-1e6, 1e6, 1001),
    # residues 1e-9 apart are far above rounding level and must not merge
    "near-lattice": lambda cfg: (4.0 + 1e-9) * np.arange(-200, 201) / cfg.T,
    # one shared lattice whose windows are 3N apart: no point in the gaps
    "sparse-lattice": lambda cfg: (3 * cfg.N * np.arange(-50, 51) + 0.25) / cfg.T,
}


@pytest.mark.parametrize("grid", sorted(OTHER_GRIDS))
@pytest.mark.parametrize("cfg", CHIRPED_CFGS + [ChirpConfig(N=64, T=266.667e-6, c1=0.0)])
def test_analytic_psd_matches_shifted_sum_on_other_grids(cfg, grid, monkeypatch):
    freqs = OTHER_GRIDS[grid](cfg)
    oracle = _shifted_sum_psd(cfg, 1.0, freqs)
    evaluated = _counting_prototype(monkeypatch)
    curve = analytic_psd(cfg, 1.0, freqs)
    assert np.max(np.abs(curve.psd - oracle) / oracle) <= 1e-12
    assert sum(evaluated) <= cfg.N * len(freqs)


def test_analytic_psd_shares_one_lattice_on_welch_grid(monkeypatch):
    cfg = CHIRPED_CFGS[0]
    freqs = _welch_grid(cfg, oversample=8, nfft=1024)
    evaluated = _counting_prototype(monkeypatch)
    analytic_psd(cfg, 1.0, freqs)
    span = np.ptp(np.round(freqs * cfg.T))
    # one window sum per frequency over a single lattice of span + N points
    assert sum(evaluated) <= span + cfg.N < cfg.N * len(freqs) / 50


def test_analytic_psd_integrates_to_symbol_power():
    # integral of the PSD over all frequency equals sigma2 (frame energy
    # sigma2 * T spread over duration T)
    freqs = np.linspace(-2e6, 8e6, 20001)
    curve = analytic_psd(PAPER_CFG, 1.0, freqs)
    total = np.trapezoid(curve.psd, freqs)
    assert abs(total - 1.0) < 0.02


def test_analytic_psd_rejects_non_finite_frequencies():
    with pytest.raises(ValueError, match="finite"):
        analytic_psd(PAPER_CFG, 1.0, np.array([0.0, np.inf]))


def test_psd_curve_validation_and_csv(tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        PsdCurve(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PsdCurve(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    curve = PsdCurve(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    monkeypatch.setattr(cli, "run_psd_experiment", lambda ec: (curve, curve, 1.0))
    out = tmp_path / "psd.csv"
    assert cli.main(["psd", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["freq_hz,psd_db", "0,0", "1,3.01029995664"]


def test_empirical_psd_white_noise_flat():
    rng = np.random.default_rng(42)
    rate = 1e6
    frames = Waveform(
        (rng.standard_normal((60, 16384)) + 1j * rng.standard_normal((60, 16384)))
        / np.sqrt(2.0),
        sample_rate=rate,
    )
    curve = empirical_psd(frames, nfft=1024)
    # unit-variance complex noise: density 1/rate
    dev_db = np.max(np.abs(curve.db() - 10.0 * np.log10(1.0 / rate)))
    assert dev_db < 0.5


def test_empirical_psd_tone_peak():
    rate = 1e6
    f0 = 125e3
    t = np.arange(4096) / rate
    frames = Waveform(np.tile(np.exp(2j * np.pi * f0 * t), (10, 1)), sample_rate=rate)
    curve = empirical_psd(frames, nfft=1024)
    assert abs(curve.freq[np.argmax(curve.psd)] - f0) < rate / 1024


def test_empirical_psd_input_validation():
    rate = 1e6
    with pytest.raises(ValueError, match="at least 10 frames"):
        empirical_psd(Waveform(np.ones((9, 256), dtype=complex), rate), nfft=128)
    # one frame per row: a flat stream is not a frame set
    with pytest.raises(ValueError, match=r"shape \(2560,\)"):
        empirical_psd(Waveform(np.ones(2560, dtype=complex), rate), nfft=128)


def test_empirical_psd_block_validation():
    rate = 1e6
    blocks = [Waveform(np.ones((4, 256), dtype=complex), rate) for _ in range(3)]
    # the 10-frame minimum counts the frames of every block
    empirical_psd(blocks, nfft=128)
    with pytest.raises(ValueError, match="at least 10 frames.*got 9 frames"):
        empirical_psd(blocks[:2] + [Waveform(np.ones((1, 256), dtype=complex), rate)], nfft=128)
    with pytest.raises(ValueError, match="got 0 frames"):
        empirical_psd([], nfft=128)
    with pytest.raises(ValueError, match=r"block 2 has sample rate 2000000.0, block 0 has 1000000.0"):
        empirical_psd(blocks[:2] + [Waveform(np.ones((4, 256), dtype=complex), 2 * rate)], nfft=128)
    with pytest.raises(ValueError, match="block 1 has frames of 255 samples, block 0 has 256"):
        empirical_psd(blocks[:1] + [Waveform(np.ones((8, 255), dtype=complex), rate)], nfft=128)
    with pytest.raises(ValueError, match=r"block 1 has samples of shape \(2560,\)"):
        empirical_psd(blocks[:1] + [Waveform(np.ones(2560, dtype=complex), rate)], nfft=128)
    with pytest.raises(ValueError, match=r"block 0 has samples of shape \(10, 0\)"):
        empirical_psd(Waveform(np.ones((10, 0), dtype=complex), rate), nfft=128)
    for nfft in (1, 0, 64.0):
        with pytest.raises(ValueError, match=f"nfft must be an integer >= 2, got {nfft!r}"):
            empirical_psd(blocks, nfft=nfft)


def _split(x, rate, sizes):
    """Consecutive blocks of x's frames, of the given frame counts (0 allowed)."""
    bounds = np.cumsum([0] + list(sizes))
    return [Waveform(x[lo:hi], rate) for lo, hi in zip(bounds[:-1], bounds[1:])]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    frames=st.integers(10, 24),
    frame_len=st.integers(1, 40),
    nfft=st.integers(2, 100),
    cuts=st.lists(st.integers(0, 24), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
# blocks of one 1-sample frame: a straddling segment spans several blocks
@example(frames=12, frame_len=1, nfft=4, cuts=list(range(12)), seed=0)
# a stream shorter than nfft over three blocks: one zero-padded segment
@example(frames=10, frame_len=3, nfft=64, cuts=[2, 2, 7], seed=2)
# 4-sample segments starting at samples 12 and 14 both straddle the cut at 15
@example(frames=10, frame_len=5, nfft=4, cuts=[3], seed=3)
# nfft 3: 3-sample segments at step 2
@example(frames=10, frame_len=5, nfft=3, cuts=[3, 6], seed=3)
# nfft 2: 2-sample segments without overlap
@example(frames=10, frame_len=3, nfft=2, cuts=[1], seed=4)
def test_any_split_into_blocks_gives_the_one_block_psd(frames, frame_len, nfft, cuts, seed):
    """Consecutive blocks, empty ones included, give the PSD of the stacked
    frames: the carried samples rebuild every segment that straddles a cut."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((frames, frame_len)) + 1j * rng.standard_normal((frames, frame_len))
    want = empirical_psd(Waveform(x, 1e6), nfft=nfft)
    bounds = sorted(min(c, frames) for c in cuts)
    sizes = np.diff([0] + bounds + [frames])
    got = empirical_psd(iter(_split(x, 1e6, sizes)), nfft=nfft)
    assert np.array_equal(got.freq, want.freq)
    assert np.max(np.abs(got.psd - want.psd)) <= 1e-12 * np.max(want.psd)


def test_short_stream_over_blocks_is_one_zero_padded_segment():
    """A total stream shorter than nfft is one segment of the whole stream,
    zero-padded, as scipy's Welch takes it."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    curve = empirical_psd(_split(x, 1e3, [5, 0, 7]), nfft=64)
    f, pxx = welch(
        x.ravel(), fs=1e3, window="hann", nperseg=60, nfft=64, noverlap=30,
        detrend=False, return_onesided=False, scaling="density",
    )
    assert np.array_equal(curve.freq, np.fft.fftshift(f))
    assert np.max(np.abs(curve.psd - np.fft.fftshift(pxx))) <= 1e-12 * np.max(pxx)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    frames=st.integers(10, 16),
    frame_len=st.integers(1, 64),
    log_nfft=st.integers(2, 7),
    rate=st.floats(1e3, 1e7),
    seed=st.integers(0, 2**32 - 1),
)
# 49 segments of 4 samples: three full blocks of 16 and one of 1
@example(frames=10, frame_len=10, log_nfft=2, rate=1e6, seed=0)
# a stream shorter than nfft: one zero-padded segment
@example(frames=10, frame_len=1, log_nfft=7, rate=1e6, seed=1)
def test_blocked_welch_equals_scipy_welch(frames, frame_len, log_nfft, rate, seed):
    """Streams from under one segment to several blocks of segments."""
    nfft = 1 << log_nfft
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((frames, frame_len)) + 1j * rng.standard_normal((frames, frame_len))
    curve = empirical_psd(Waveform(x, rate), nfft=nfft)
    nperseg = min(nfft, x.size)
    f, pxx = welch(
        x.ravel(), fs=rate, window="hann", nperseg=nperseg, nfft=nfft,
        noverlap=nperseg // 2, detrend=False, return_onesided=False,
        scaling="density",
    )
    assert np.array_equal(curve.freq, np.fft.fftshift(f))
    assert np.max(np.abs(curve.psd - np.fft.fftshift(pxx))) <= 1e-12 * np.max(pxx)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_welch_block_size_changes_nothing(block, monkeypatch):
    """One segment per FFT call, a block that leaves a remainder, and one
    block larger than the segment count all give the default's PSD."""
    from chirplab import spectral

    rng = np.random.default_rng(5)
    x = Waveform(rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40)), 1e6)
    want = spectral.empirical_psd(x, nfft=16).psd
    monkeypatch.setattr(spectral, "_WELCH_BLOCK", block)
    got = spectral.empirical_psd(x, nfft=16).psd
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_bandwidth_estimate_values():
    assert abs(_bandwidth_estimate(PAPER_CFG) - 5.756e6) < 0.01e6
    cfg0 = ChirpConfig(N=64, T=1e-4, c1=0.0, c2=0.0)
    assert abs(_bandwidth_estimate(cfg0) - 63.0 / 1e-4) < 1e-6
    with pytest.raises(ValueError):
        _bandwidth_estimate(ChirpConfig(N=64, T=1e-4, c1=-1.0 / 128.0, c2=0.0))


def test_bandwidth_estimate_cross_checks_occupied_bandwidth():
    cfg = ChirpConfig(N=512, T=133.333e-6, c1=1.0 / 2048.0, c2=0.0)
    est = _bandwidth_estimate(cfg)
    freqs = np.linspace(-0.5 * est, 1.5 * est, 8001)
    curve = analytic_psd(cfg, 1.0, freqs)
    occ = occupied_bandwidth(curve)
    assert abs(occ - est) / est < 0.05
