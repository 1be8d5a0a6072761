"""Self-contained acceptance checks exercised by pytest and `chirplab selftest`.

Each criterion function returns a CriterionResult with a one-line detail
string that ends with the criterion's elapsed time; thresholds are
hard-coded here so the CLI and the test suite agree by construction.
``small=True`` selects the desk-scale variants (N = 256, 20 trials,
oversampling 8) where a criterion defines one, and relaxes the quantitative
sweep windows to their qualitative trends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import aliasing
from .channel import DDChannel, add_awgn, make_eva_channels
from .experiments import (
    ExperimentConfig,
    complexity_compare,
    run_nmse_sweep,
    run_psd_experiment,
    simulate_frame,
)
from .receiver import (
    baseline_taps,
    cpp_wrap_phase,
    chirp_domain_from_taps,
    chirp_domain_matrix,
    effective_taps,
    fold_cpp_taps,
    sample_matched_filter,
    tap_window,
)
from .transforms import (
    ChirpConfig,
    demodulate,
    idaft_matrix,
    idfnt_matrix,
    modulate,
    ocdm_config,
)
from .waveform import Waveform, ideal_basis


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def criterion_01_transforms(small: bool = False) -> CriterionResult:
    """Unitarity and fast-vs-dense agreement across frame sizes."""
    start = time.perf_counter()
    worst_unit = 0.0
    worst_fast = 0.0
    rng = np.random.default_rng(101)
    for n in (16, 64, 256, 1024):
        cfg = ChirpConfig(N=n, T=266.667e-6, c1=1.0 / (4 * n), c2=1.0 / (3 * n))
        a = idaft_matrix(cfg)
        worst_unit = max(worst_unit, np.max(np.abs(a @ a.conj().T - np.eye(n))))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst_fast = max(worst_fast, np.max(np.abs(modulate(cfg, x) - a @ x)))
    elapsed = time.perf_counter() - start
    ok = worst_unit < 1e-11 and worst_fast < 1e-11 and elapsed < 10.0
    return CriterionResult(
        "criterion-01-transform-correctness",
        ok,
        f"unitarity {worst_unit:.3e}, fast-vs-dense {worst_fast:.3e}, {elapsed:.1f}s",
    )


def criterion_02_ocdm(small: bool = False) -> CriterionResult:
    """Fresnel special case: c1 = c2 = -1/(2N) matches the IDFnT synthesis."""
    start = time.perf_counter()
    n = 32
    cfg = ocdm_config(n, 266.667e-6)
    fresnel = idfnt_matrix(n)
    # derived global phase between the two conventions
    scale = np.exp(1j * np.pi / 4)
    err_mat = np.max(np.abs(scale * idaft_matrix(cfg) - fresnel))
    rng = np.random.default_rng(202)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    err_mod = np.max(np.abs(scale * modulate(cfg, x) - fresnel @ x))
    ok = err_mat < 1e-11 and err_mod < 1e-11
    return CriterionResult(
        "criterion-02-ocdm-embedding",
        ok,
        f"matrix {err_mat:.3e}, modulate {err_mod:.3e}, {time.perf_counter() - start:.1f}s",
    )


def criterion_03_continuous_orthogonality(small: bool = False) -> CriterionResult:
    """Ideal chirp subcarriers are orthogonal on [0, T)."""
    start = time.perf_counter()
    n, oversampling = 128, 32
    cfg = ChirpConfig(N=n, T=266.667e-6, c1=1.0 / (4 * n), c2=1.0 / (3 * n))
    rng = np.random.default_rng(303)
    worst_off = 0.0
    worst_diag = 0.0
    dt = cfg.T / (n * oversampling)
    cache = {}

    def basis(i):
        if i not in cache:
            cache[i] = ideal_basis(cfg, i, oversampling).samples
        return cache[i]

    for _ in range(50):
        i, j = rng.choice(n, size=2, replace=False)
        ip = np.vdot(basis(int(j)), basis(int(i))) * dt
        worst_off = max(worst_off, abs(ip) / cfg.T)
    for i in rng.choice(n, size=8, replace=False):
        ip = np.vdot(basis(int(i)), basis(int(i))) * dt
        worst_diag = max(worst_diag, abs(ip - cfg.T) / cfg.T)
    ok = worst_off < 1e-3 and worst_diag < 1e-3
    return CriterionResult(
        "criterion-03-continuous-orthogonality",
        ok,
        f"max off-diagonal {worst_off:.3e}, diagonal error {worst_diag:.3e}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def criterion_04_psd(small: bool = False) -> CriterionResult:
    """Analytic vs empirical PSD and the -20 dB occupied bandwidth."""
    start = time.perf_counter()
    ec = ExperimentConfig(trials=200, seed=404)
    ana, emp, bw = run_psd_experiment(ec)
    target = 5.76e6
    bw_ok = abs(bw - target) <= 0.03 * target
    ana_db = ana.db()
    emp_db = emp.db()
    in_band = ana_db >= ana_db.max() - 10.0
    # compare band-averaged levels over blocks of 8 bins
    idx = np.where(in_band)[0]
    blocks = len(idx) // 8
    dev = 0.0
    for b in range(blocks):
        sel = idx[8 * b : 8 * (b + 1)]
        da = 10 * np.log10(np.mean(ana.psd[sel]))
        de = 10 * np.log10(np.mean(emp.psd[sel]))
        dev = max(dev, abs(da - de))
    elapsed = time.perf_counter() - start
    ok = bw_ok and dev <= 1.0 and elapsed < 120.0
    return CriterionResult(
        "criterion-04-psd",
        ok,
        f"bandwidth {bw/1e6:.4f} MHz (target 5.76 +- 3%), "
        f"in-band deviation {dev:.3f} dB, {elapsed:.1f}s",
    )


def criterion_05_aliased_figures(small: bool = False) -> CriterionResult:
    """Aliased-chirp grids for C in {48, 32, 16} and predictor agreement.

    For C >= N every off-diagonal |I| / T stays below the 0.05 threshold.
    For C = 16 the hot set is the diagonal plus those pairs on the
    |n - n'| = 16 band whose closed-form magnitude (2/pi)|cos(pi n/16)|,
    n = min(n, n'), exceeds the threshold; that magnitude is exactly zero
    for (8, 24), so that pair is cold.  In every case the exact predictor
    must agree with the thresholded grid on every pair, in both directions.
    """
    start = time.perf_counter()
    n = 32
    thresh = 0.05
    details = []
    all_ok = True
    for c in (48, 32, 16):
        cfg = ChirpConfig(N=n, T=1e-3, c1=c / (2.0 * n), c2=0.0)
        grid = aliasing.inner_product_matrix(cfg) / cfg.T
        hot = grid > thresh
        if c == 16:
            i, j = np.indices((n, n))
            band = (2.0 / np.pi) * np.abs(np.cos(np.pi * np.minimum(i, j) / 16.0))
            expected = (i == j) | ((np.abs(i - j) == 16) & (band > thresh))
            shape_ok = np.array_equal(hot, expected)
            if not shape_ok:
                rows, cols = np.nonzero(np.triu(hot != expected, 1))
                bad = list(zip(rows.tolist(), cols.tolist()))
                details.append(
                    f"C=16 set mismatch at {bad} "
                    f"(expected: diagonal plus (2/pi)|cos(pi n/16)| > {thresh} band)"
                )
        else:
            off = grid - np.diag(np.diag(grid))
            shape_ok = np.max(off) < thresh
        # both diagonals are True, so this compares every off-diagonal pair
        agree = np.array_equal(aliasing.predict_aliased(cfg), hot)
        all_ok = all_ok and shape_ok and agree
        details.append(f"C={c}: grid {'ok' if shape_ok else 'BAD'}, "
                       f"predictor {'ok' if agree else 'BAD'}")
    elapsed = time.perf_counter() - start
    all_ok = all_ok and elapsed < 60.0
    return CriterionResult(
        "criterion-05-aliased-chirp-figures",
        all_ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def _impulse_probe_taps(
    cfg: ChirpConfig, filt, channel: DDChannel, lead: int, n_taps: int
) -> np.ndarray:
    """Oracle taps: probe the waveform chain with one unit impulse per position.

    The symbols demodulate(e_j) put a unit impulse at sample j of the frame;
    ``simulate_frame`` carries it through the whole chain, and ``modulate``
    reads the sampled matched-filter output back as row j of the transposed
    folded matrix H^T.  The probe thus checks the code that the NMSE
    measures.
    """
    probes = demodulate(cfg, np.eye(cfg.N, dtype=np.complex128))
    h_t = modulate(
        cfg, np.stack([simulate_frame(cfg, filt, channel, s, lead, n_taps) for s in probes])
    )
    # unfold the folded matrix back into causal taps h[k', l] = H[k', k' - l]
    taps = np.empty((cfg.N, n_taps), dtype=np.complex128)
    k = np.arange(cfg.N)
    for l in range(n_taps):
        phase = np.where(k - l >= 0, 1.0, cpp_wrap_phase(cfg, k - l))
        taps[:, l] = h_t[np.mod(k - l, cfg.N), k] / phase
    return taps


def criterion_06_tap_formula(small: bool = False) -> CriterionResult:
    """Effective-tap expansion vs the impulse-probing waveform oracle."""
    start = time.perf_counter()
    n = 256
    ec = ExperimentConfig(n=n, seed=606)
    cfg = ec.chirp_config()
    rng = np.random.default_rng(606)
    (channel,) = make_eva_channels(ec.fc_hz, [ec.speed_kmh], rng)
    filt = ec.srrc()
    lead, n_taps = tap_window(channel, filt)
    model = effective_taps([channel], [filt], n, [(lead, n_taps)])[0]
    oracle = _impulse_probe_taps(cfg, filt, channel, lead, n_taps)
    mask = np.abs(model) > 1e-4
    rel = np.abs(model[mask] - oracle[mask]) / np.abs(model[mask])
    worst = float(rel.max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 120.0
    return CriterionResult(
        "criterion-06-effective-tap-formula",
        ok,
        f"worst relative deviation {worst:.3e} over {mask.sum()} taps, {elapsed:.1f}s",
    )


def criterion_07_speed_sweep(small: bool = False) -> CriterionResult:
    """Speed sweep NMSE at beta = 0.2, Q = 12."""
    start = time.perf_counter()
    results = []
    variants = [("small", ExperimentConfig(seed=7).shrink(), -45.0)]
    if not small:
        variants.append(("full", ExperimentConfig(seed=7), -50.0))
    ok = True
    for tag, ec, limit in variants:
        sweep = run_nmse_sweep(ec)
        worst = float(sweep.nmse_db.max())
        ok = ok and worst <= limit
        results.append(f"{tag}: worst point {worst:.2f} dB (limit {limit:.0f})")
    elapsed = time.perf_counter() - start
    budget = 180.0 if small else 1800.0
    ok = ok and elapsed < budget
    return CriterionResult(
        "criterion-07-speed-sweep-nmse",
        ok,
        "; ".join(results) + f", {elapsed:.0f}s",
    )


def _sweep_endpoints(
    name: str, sweep: str, targets: tuple[float, float], small: bool
) -> CriterionResult:
    """Seed-7 sweep: endpoints within 3 dB of the targets and a monotone trend.

    The trend is non-increasing up to 1 dB of jitter per step.  The desk-scale
    variant checks the trend only.
    """
    start = time.perf_counter()
    ec = ExperimentConfig(seed=7, sweep=sweep)
    if small:
        ec = ec.shrink()
    vals = run_nmse_sweep(ec).nmse_db
    monotone = bool(np.all(np.diff(vals) <= 1.0))
    if small:
        ok = monotone
        detail = f"qualitative trend {'ok' if monotone else 'BAD'}, " \
                 f"range [{vals.min():.1f}, {vals.max():.1f}] dB"
    else:
        lo, hi = targets
        lo_ok = abs(vals[0] - lo) <= 3.0
        hi_ok = abs(vals[-1] - hi) <= 3.0
        ok = monotone and lo_ok and hi_ok
        detail = (
            f"endpoints {vals[0]:.2f} / {vals[-1]:.2f} dB "
            f"(targets {lo:.0f} / {hi:.0f} +- 3), monotone {'ok' if monotone else 'BAD'}"
        )
    return CriterionResult(name, ok, detail + f", {time.perf_counter() - start:.1f}s")


def criterion_08_rolloff_sweep(small: bool = False) -> CriterionResult:
    """Roll-off sweep endpoints and monotone trend."""
    return _sweep_endpoints("criterion-08-rolloff-sweep", "rolloff", (-39.0, -62.0), small)


def criterion_09_span_sweep(small: bool = False) -> CriterionResult:
    """Filter span sweep endpoints and monotone trend."""
    return _sweep_endpoints("criterion-09-span-sweep", "span", (-40.0, -57.0), small)


def criterion_10_deviation_dichotomy(small: bool = False) -> CriterionResult:
    """Matched-filter model vs ideal-pulse baseline: agreement iff no Doppler.

    With on-grid delays the first-order Doppler cross-terms are weighted by
    the shaped pulse's autocorrelation at integer symbol lags, which nearly
    vanishes for a Nyquist pulse, so the Doppler-induced deviation is second
    order in 2 pi nu Ts.  A long symbol interval and a long, high roll-off
    filter keep the truncation residue well below that deviation, which is
    what makes the dichotomy visible.
    """
    start = time.perf_counter()
    n = 64
    ec = ExperimentConfig(n=n, t_us=1000.0, beta=0.5, q=40, seed=1010)
    cfg = ec.chirp_config()
    filt = ec.srrc()
    rng = np.random.default_rng(1010)
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(6.0)
    delays = np.array([0.0, 2 * cfg.dt, 5 * cfg.dt])
    dopplers_on = [2314.8, -1523.0, 842.0]

    def gap(dopplers):
        channel = DDChannel(gains, delays, dopplers)
        lead, n_taps = tap_window(channel, filt)
        taps = effective_taps([channel], [filt], n, [(lead, n_taps)])[0]
        hu_mf = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps))
        shifted = DDChannel(gains, delays + lead * cfg.dt, dopplers)
        hu_base = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, baseline_taps(cfg, shifted)))
        return float(
            np.linalg.norm(hu_mf - hu_base) / np.linalg.norm(hu_base)
        )

    gap_static = gap([0.0, 0.0, 0.0])
    gap_doppler = gap(dopplers_on)
    ok = gap_static < 1e-2 and gap_doppler > 10.0 * gap_static
    return CriterionResult(
        "criterion-10-deviation-dichotomy",
        ok,
        f"zero-Doppler gap {gap_static:.3e}, Doppler gap {gap_doppler:.3e} "
        f"(ratio {gap_doppler / gap_static:.1f}x), {time.perf_counter() - start:.1f}s",
    )


def criterion_11_dual_path(small: bool = False) -> CriterionResult:
    """Chirp-domain matrix: entry formula vs matrix-product construction."""
    start = time.perf_counter()
    n, n_taps = 128, 40
    cfg = ChirpConfig(N=n, T=266.667e-6, c1=1.0 / (4 * n), c2=1.0 / (3 * n))
    rng = np.random.default_rng(1111)
    taps = rng.standard_normal((n, n_taps)) + 1j * rng.standard_normal((n, n_taps))
    via_product = chirp_domain_matrix(cfg, fold_cpp_taps(cfg, taps))
    via_entries = chirp_domain_from_taps(cfg, taps)
    err = float(np.max(np.abs(via_product - via_entries)))
    ok = err < 1e-10
    return CriterionResult(
        "criterion-11-dual-path-consistency",
        ok,
        f"max abs diff {err:.3e}, {time.perf_counter() - start:.1f}s",
    )


def criterion_12_noise_whiteness(small: bool = False) -> CriterionResult:
    """Matched-filtered, base-rate-sampled AWGN has covariance N0 I."""
    start = time.perf_counter()
    n_samples = 100_000
    ec = ExperimentConfig(seed=1212)
    filt = ec.srrc()
    o = filt.O
    n_fine = (n_samples + 2 * filt.q) * o
    rng = np.random.default_rng(1212)
    silent = Waveform(np.zeros(n_fine), sample_rate=o / filt.Ts, t0=0.0)
    noisy = add_awgn(silent, n0=1.0, rng=rng)
    # first instant a half span in: its window is the first q O + 1 samples
    w = sample_matched_filter(noisy, filt, filt.half_span * filt.Ts, n_samples)
    r0 = float(np.mean(np.abs(w) ** 2))
    off = max(
        abs(np.mean(w[m:] * np.conj(w[:-m]))) for m in range(1, 6)
    )
    ok = abs(r0 - 1.0) < 0.03 and off < 0.03
    return CriterionResult(
        "criterion-12-noise-whiteness",
        ok,
        f"diagonal {r0:.4f} (target 1 +- 3%), worst off-diagonal {off:.4f}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def criterion_13_complexity(small: bool = False) -> CriterionResult:
    """Multiply-count ratio and measured transform scaling."""
    start = time.perf_counter()
    report = complexity_compare(1024, 32)
    ratio_ok = abs(report["count_ratio"] - 2.0) < 1e-12
    slope = report["loglog_slope"]
    slope_ok = 1.0 <= slope <= 1.25
    ok = ratio_ok and slope_ok
    return CriterionResult(
        "criterion-13-complexity",
        ok,
        f"count ratio {report['count_ratio']:.6f} (target 2.0), "
        f"wall-clock log-log slope {slope:.3f} (window [1.0, 1.25]), "
        f"{time.perf_counter() - start:.1f}s",
    )


ALL_CRITERIA = (
    criterion_01_transforms,
    criterion_02_ocdm,
    criterion_03_continuous_orthogonality,
    criterion_04_psd,
    criterion_05_aliased_figures,
    criterion_06_tap_formula,
    criterion_07_speed_sweep,
    criterion_08_rolloff_sweep,
    criterion_09_span_sweep,
    criterion_10_deviation_dichotomy,
    criterion_11_dual_path,
    criterion_12_noise_whiteness,
    criterion_13_complexity,
)


def run_all(small: bool = False) -> list[CriterionResult]:
    return [fn(small=small) for fn in ALL_CRITERIA]
