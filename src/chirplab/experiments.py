"""Experiment drivers: NMSE sweeps, PSD, orthogonality grids, complexity.

Every driver is deterministic given the configuration and master seed; the
per-trial random streams are derived as default_rng([seed, trial]).  The
sweep point is left out on purpose: every point of a sweep sees the same
channel and symbol draws (common random numbers), which smooths the curves.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (
    ChannelRealizationSpec,
    DDChannel,
    make_eva_channel,
    apply_channel,
)
from .receiver import (
    default_lead,
    effective_taps,
    full_lead,
    full_taps,
    matched_filter,
    predict_output,
    required_taps,
    sample_base_rate,
)
from .spectral import PsdCurve, analytic_psd, empirical_psd, occupied_bandwidth
from .transforms import ChirpConfig, demodulate, modulate
from .waveform import SrrcFilter, add_cpp, design_srrc, shape
from . import aliasing

SWEEP_KINDS = ("speed", "rolloff", "span")

DEFAULT_SPEEDS = tuple(float(v) for v in range(0, 501, 50))
DEFAULT_ROLLOFFS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
DEFAULT_SPANS = tuple(range(6, 21, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment parameters shared by all drivers."""

    n: int = 1024
    t_us: float = 266.667
    c1_num: float = 1.0
    c1_den: str = "4N"
    c2_num: float = 1.0
    c2_den: str = "3N"
    beta: float = 0.2
    q: int = 12
    oversample: int = 16
    profile: str = "eva"
    fc_hz: float = 5e9
    speed_kmh: float = 500.0
    trials: int = 100
    seed: int = 12345
    sweep: str = "speed"
    sweep_values: tuple | None = None

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 2, got {self.n}")
        if not (math.isfinite(self.t_us) and self.t_us > 0):
            raise ValueError(f"t_us must be finite and positive, got {self.t_us}")
        if self.oversample < 2:
            raise ValueError(f"oversample must be >= 2, got {self.oversample}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sweep not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind: {self.sweep}")
        if self.profile != "eva":
            raise ValueError(f"unknown channel profile: {self.profile}")
        if self.sweep_values is not None:
            vals = list(self.sweep_values)
            if not vals or any(b < a for a, b in zip(vals[:-1], vals[1:])):
                raise ValueError("sweep_values must be non-empty and ordered")
            if self.sweep == "span":
                for v in vals:
                    if not (float(v).is_integer() and v >= 2 and v % 2 == 0):
                        raise ValueError(
                            f"sweep_values: span sweep values must be even integers >= 2, got {v}"
                        )

    @property
    def T(self) -> float:
        return self.t_us * 1e-6

    def _rational(self, num: float, den: str) -> float:
        return num / _parse_denominator(den, self.n)

    def chirp_config(self) -> ChirpConfig:
        return ChirpConfig(
            N=self.n,
            T=self.T,
            c1=self._rational(self.c1_num, self.c1_den),
            c2=self._rational(self.c2_num, self.c2_den),
        )

    def srrc(self, beta: float | None = None, q: int | None = None) -> SrrcFilter:
        return design_srrc(
            beta if beta is not None else self.beta,
            q if q is not None else self.q,
            self.oversample,
            self.T / self.n,
        )

    def channel_spec(self, speed_kmh: float | None = None) -> ChannelRealizationSpec:
        return ChannelRealizationSpec(
            carrier_hz=self.fc_hz,
            speed_kmh=speed_kmh if speed_kmh is not None else self.speed_kmh,
        )

    def shrink(self) -> "ExperimentConfig":
        """Desk-scale variant: N -> 256, trials -> 20, O -> 8."""
        return replace(self, n=256, trials=20, oversample=8)

    def sweep_points(self) -> list:
        if self.sweep_values is not None:
            if self.sweep == "span":
                return [int(v) for v in self.sweep_values]
            return [float(v) for v in self.sweep_values]
        if self.sweep == "speed":
            return list(DEFAULT_SPEEDS)
        if self.sweep == "rolloff":
            return list(DEFAULT_ROLLOFFS)
        return list(DEFAULT_SPANS)


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _parse_denominator(text: str, n: int) -> float:
    """Denominator tokens are plain numbers or multiples of N such as '4N'."""
    s = str(text).strip()
    if s.upper().endswith("N"):
        head = s[:-1].strip()
        mult = float(head) if head else 1.0
        return mult * n
    return float(s)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat ``key = value`` configuration file."""
    values: dict = {}
    first_line: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown configuration key: {key}")
            if key in values:
                raise ValueError(
                    f"{path}:{lineno}: duplicate configuration key {key} "
                    f"(first set on line {first_line[key]})"
                )
            values[key] = val
            first_line[key] = lineno
    if overrides:
        values.update(overrides)
    return config_from_dict(values)


def config_from_dict(values: dict) -> ExperimentConfig:
    kwargs: dict = {}
    for key, val in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown configuration key: {key}")
        if key in ("n", "q", "oversample", "trials", "seed"):
            kwargs[key] = int(val)
        elif key in ("t_us", "c1_num", "c2_num", "beta", "fc_hz", "speed_kmh"):
            kwargs[key] = float(val)
        elif key in ("c1_den", "c2_den", "profile", "sweep"):
            kwargs[key] = str(val)
        elif key == "sweep_values":
            if isinstance(val, (list, tuple)):
                kwargs[key] = tuple(float(v) for v in val)
            else:
                kwargs[key] = tuple(float(v) for v in str(val).split(","))
    return ExperimentConfig(**kwargs)


@dataclass
class SweepResult:
    """Per-point NMSE statistics of one sweep."""

    sweep: str
    values: list
    nmse_db: np.ndarray
    stderr_db: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nmse_db = np.asarray(self.nmse_db, dtype=float)
        self.stderr_db = np.asarray(self.stderr_db, dtype=float)
        if not (len(self.values) == len(self.nmse_db) == len(self.stderr_db)):
            raise ValueError("one NMSE and one standard error per sweep point")
        if not np.all(np.isfinite(self.nmse_db)):
            raise ValueError("NMSE values must be finite")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_value", "nmse_db", "stderr_db"])
            for v, m, s in zip(self.values, self.nmse_db, self.stderr_db):
                writer.writerow([f"{float(v):.12g}", f"{m:.12g}", f"{s:.12g}"])


def qam4_symbols(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power 4-QAM symbol vector."""
    bits = rng.integers(0, 2, size=(2, n))
    return ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / np.sqrt(2.0)


def simulate_frame(
    cfg: ChirpConfig,
    filt: SrrcFilter,
    channel: DDChannel,
    symbols: np.ndarray,
    lead: int,
    n_taps: int,
) -> np.ndarray:
    """Full waveform chain: returns the received chirp-domain frame.

    modulate -> chirp-periodic prefix -> pulse shaping -> channel -> matched
    filter -> base-rate sampling with the given symbol lead -> forward
    transform.  The prefix length is n_taps - 1 so the folded tap relation
    is exact.
    """
    l_cpp = n_taps - 1
    if not 1 <= l_cpp < cfg.N:
        raise ValueError(
            f"prefix length {l_cpp} outside [1, {cfg.N}); reduce the tap span"
        )
    x = modulate(cfg, symbols)
    x_cpp = add_cpp(cfg, x, l_cpp)
    wf = shape(cfg, x_cpp, filt, t_first=-l_cpp * cfg.dt)
    rx = apply_channel(channel, wf)
    y = matched_filter(rx, filt)
    dt_fine = filt.dt
    tau1 = round(channel.paths[0].delay / dt_fine) * dt_fine
    sampled = sample_base_rate(y, tau1 - lead * cfg.dt, cfg.N, cfg.dt)
    return demodulate(cfg, sampled)


def nmse_trial(
    cfg: ChirpConfig,
    filt: SrrcFilter,
    channel: DDChannel,
    symbols: np.ndarray,
    exact_window: bool = False,
) -> float:
    """One-frame NMSE between the waveform simulation and the tap model.

    With the default window (lead q/2, L = spread + q + 1) the model drops
    the far acausal/causal ambiguity tails and the NMSE measures that
    truncation.  ``exact_window=True`` widens the window to cover the full
    ambiguity support, which drives the NMSE to floating-point level.
    """
    if exact_window:
        lead, n_taps = full_lead(filt), full_taps(channel, filt)
    else:
        lead, n_taps = default_lead(filt), required_taps(channel, filt)
    y_sim = simulate_frame(cfg, filt, channel, symbols, lead, n_taps)
    taps = effective_taps(channel, filt, cfg.N, lead, n_taps)
    y_pred = predict_output(cfg, taps, symbols)
    return float(
        np.sum(np.abs(y_pred - y_sim) ** 2) / np.sum(np.abs(y_sim) ** 2)
    )


def run_nmse_sweep(ec: ExperimentConfig) -> SweepResult:
    """NMSE versus speed, roll-off or filter span, averaged over trials."""
    cfg = ec.chirp_config()
    points = ec.sweep_points()
    means = np.empty(len(points))
    errs = np.empty(len(points))
    for i, value in enumerate(points):
        if ec.sweep == "speed":
            filt = ec.srrc()
            spec = ec.channel_spec(speed_kmh=value)
        elif ec.sweep == "rolloff":
            filt = ec.srrc(beta=value)
            spec = ec.channel_spec()
        else:
            filt = ec.srrc(q=int(value))
            spec = ec.channel_spec()
        samples = np.empty(ec.trials)
        for t in range(ec.trials):
            # common random numbers across sweep points: the channel draw
            # depends on the trial index only, which smooths the curves
            rng = np.random.default_rng([ec.seed, t])
            channel = make_eva_channel(spec, rng)
            symbols = qam4_symbols(cfg.N, rng)
            samples[t] = nmse_trial(cfg, filt, channel, symbols)
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(ec.trials) if ec.trials > 1 else 0.0
        means[i] = 10.0 * np.log10(mean)
        errs[i] = (10.0 / np.log(10.0)) * stderr / mean
    return SweepResult(
        sweep=ec.sweep,
        values=points,
        nmse_db=means,
        stderr_db=errs,
        meta={"trials": ec.trials, "seed": ec.seed, "n": ec.n},
    )


def run_psd_experiment(
    ec: ExperimentConfig, nfft: int = 4096
) -> tuple[PsdCurve, PsdCurve, float]:
    """Analytic and empirical frame PSDs plus the -20 dB occupied bandwidth.

    Empirical frames are ideal (alias-free) chirp syntheses of independent
    4-QAM vectors; ``trials`` sets the frame count.
    """
    from .waveform import synth_ideal

    cfg = ec.chirp_config()
    frames = []
    for t in range(max(ec.trials, 10)):
        rng = np.random.default_rng([ec.seed, t])
        frames.append(synth_ideal(cfg, qam4_symbols(cfg.N, rng), ec.oversample))
    emp = empirical_psd(frames, nfft=nfft)
    ana = analytic_psd(cfg, sigma2=1.0, freqs=emp.freq)
    bw = occupied_bandwidth(ana, drop_db=20.0)
    return ana, emp, bw


def run_ortho_experiment(ec: ExperimentConfig) -> tuple:
    """Aliased-chirp inner-product grid plus the closed-form classification.

    Returns (OrthogonalityMatrix, predictions) where predictions is the
    N x N boolean array of ``aliasing.predict_aliased`` (True = predicted
    aliased), or None when the fold count is not an integer; the grid is
    exact for any real c1 either way.
    """
    cfg = ec.chirp_config()
    return aliasing.inner_product_matrix(cfg), aliasing.predict_aliased(cfg)


def run_iorel_check(ec: ExperimentConfig) -> dict:
    """Single-realization exact-I/O diagnostic.

    Runs one seeded EVA trial and reports two NMSE figures: the standard
    retained-window model (finite truncation error) and the widened window
    covering the whole ambiguity support, which must sit at floating-point
    level because the tap relation is then exact.
    """
    cfg = ec.chirp_config()
    rng = np.random.default_rng([ec.seed, 0])
    channel = make_eva_channel(ec.channel_spec(), rng)
    symbols = qam4_symbols(cfg.N, rng)
    filt = ec.srrc()
    nmse_window = nmse_trial(cfg, filt, channel, symbols)
    nmse_exact = nmse_trial(cfg, filt, channel, symbols, exact_window=True)
    return {
        "nmse_model_db": 10.0 * np.log10(max(nmse_window, 1e-300)),
        "nmse_exact_db": 10.0 * np.log10(max(nmse_exact, 1e-300)),
        "speed_kmh": ec.speed_kmh,
        "n": ec.n,
    }


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    """Export a complex matrix as ``row, col, re, im`` records."""
    matrix = np.asarray(matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        for r in range(matrix.shape[0]):
            for c in range(matrix.shape[1]):
                v = complex(matrix[r, c])
                writer.writerow([r, c, f"{v.real:.12g}", f"{v.imag:.12g}"])


def transform_multiply_count(n: int) -> float:
    """Complex multiplies of one radix-2 FFT stage chain: (N/2) log2 N."""
    return 0.5 * n * np.log2(n)


def measure_transform_time(n: int, batch: int | None = None, reps: int = 9) -> float:
    """Best-of-``reps`` wall-clock per modulate call at size n, batched.

    Batching many frames through one call keeps interpreter overhead out of
    the measurement so the scaling of the transform itself is visible.
    """
    cfg = ChirpConfig(N=n, T=1e-4, c1=1.0 / (4 * n), c2=1.0 / (3 * n))
    if batch is None:
        batch = max(4, (1 << 22) // n)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, batch)) + 1j * rng.standard_normal((n, batch))
    modulate(cfg, x)  # warm-up
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        modulate(cfg, x)
        best = min(best, time.perf_counter() - t0)
    return best / batch


def complexity_compare(n: int, n_od: int, measure: bool = True) -> dict:
    """Transform-stage multiply counts for the monolithic chirp transform at
    size n versus a bank of n/n_od transforms of size n_od, plus a measured
    wall-clock scaling check of this package's own fast transform."""
    if n % n_od != 0:
        raise ValueError(f"{n_od} does not divide {n}")
    count_full = transform_multiply_count(n)
    m = n // n_od
    count_bank = m * transform_multiply_count(n_od)
    report = {
        "n": n,
        "n_od": n_od,
        "count_full": count_full,
        "count_bank": count_bank,
        "count_ratio": count_full / count_bank if count_bank else float("inf"),
    }
    if measure:
        # Shared machines make single timing sweeps noisy; take the median
        # slope over a few interleaved passes so one slow pass cannot tilt
        # the fit.
        sizes = [256, 1024, 4096]
        passes = []
        for _ in range(3):
            times = [measure_transform_time(s) for s in sizes]
            passes.append(times)
        slopes = [
            float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
            for times in passes
        ]
        order = int(np.argsort(slopes)[len(slopes) // 2])
        report["measured_sizes"] = sizes
        report["measured_seconds"] = passes[order]
        report["loglog_slope"] = slopes[order]
    return report
