"""Unit tests for the analytic and empirical PSD machinery."""

import numpy as np
import pytest
from scipy.integrate import quad

from chirplab import (
    ChirpConfig,
    PsdCurve,
    Waveform,
    analytic_psd,
    bandwidth_estimate,
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


def test_psd_curve_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        PsdCurve(np.array([0.0, -1.0]), np.array([1.0, 1.0]), meta={})
    with pytest.raises(ValueError):
        PsdCurve(np.array([0.0, 1.0]), np.array([1.0, -1.0]), meta={})
    curve = PsdCurve(np.array([0.0, 1.0]), np.array([1.0, 2.0]), meta={})
    out = tmp_path / "psd.csv"
    curve.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "freq_hz,psd_db"
    assert len(lines) == 3


def test_empirical_psd_white_noise_flat():
    rng = np.random.default_rng(42)
    rate = 1e6
    frames = [
        Waveform(
            (rng.standard_normal(16384) + 1j * rng.standard_normal(16384))
            / np.sqrt(2.0),
            sample_rate=rate,
        )
        for _ in range(60)
    ]
    curve = empirical_psd(frames, nfft=1024)
    # unit-variance complex noise: density 1/rate
    dev_db = np.max(np.abs(curve.db() - 10.0 * np.log10(1.0 / rate)))
    assert dev_db < 0.5


def test_empirical_psd_tone_peak():
    rate = 1e6
    f0 = 125e3
    t = np.arange(4096) / rate
    frames = [Waveform(np.exp(2j * np.pi * f0 * t), sample_rate=rate)] * 10
    curve = empirical_psd(frames, nfft=1024)
    assert abs(curve.freq[np.argmax(curve.psd)] - f0) < rate / 1024


def test_empirical_psd_input_validation():
    rate = 1e6
    wf = Waveform(np.ones(256, dtype=complex), sample_rate=rate)
    with pytest.raises(ValueError):
        empirical_psd([wf] * 9, nfft=128)
    other = Waveform(np.ones(256, dtype=complex), sample_rate=2 * rate)
    with pytest.raises(ValueError):
        empirical_psd([wf] * 9 + [other], nfft=128)


def test_bandwidth_estimate_values():
    assert abs(bandwidth_estimate(PAPER_CFG) - 5.756e6) < 0.01e6
    cfg0 = ChirpConfig(N=64, T=1e-4, c1=0.0, c2=0.0)
    assert abs(bandwidth_estimate(cfg0) - 63.0 / 1e-4) < 1e-6
    with pytest.raises(ValueError):
        bandwidth_estimate(ChirpConfig(N=64, T=1e-4, c1=-1.0 / 128.0, c2=0.0))


def test_bandwidth_estimate_cross_checks_occupied_bandwidth():
    cfg = ChirpConfig(N=512, T=133.333e-6, c1=1.0 / 2048.0, c2=0.0)
    est = bandwidth_estimate(cfg)
    freqs = np.linspace(-0.5 * est, 1.5 * est, 8001)
    curve = analytic_psd(cfg, 1.0, freqs)
    occ = occupied_bandwidth(curve, drop_db=20.0)
    assert abs(occ - est) / est < 0.05
