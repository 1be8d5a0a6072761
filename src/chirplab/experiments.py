"""Experiment drivers: NMSE sweeps, PSD, orthogonality grids, complexity.

The drivers return arrays and small result records; ``chirplab.cli`` is the
only module that writes them to files.  The NMSE compares two independent
constructions of a trial's received frames: the waveform chain
(``simulate_frame``: modulate, prefix, shaping, channel, then the sampled
matched filter and ``demodulate``) and the tap model (effective_taps ->
predict_output).  Both take the trial's points alike, one filter, one
channel and one ``(lead, L)`` window of ``receiver.tap_window`` each.  Each
sweep kind varies one configuration key (``SWEEPS``); a sweep point is the
configuration with that key replaced, so each swept value obeys that key's
own rule.

Every driver is deterministic given the configuration and master seed; the
per-trial random streams are derived as default_rng([seed, trial]).  The
sweep point is left out on purpose: every point of a sweep sees the same
channel and symbol draws (common random numbers), which smooths the curves.
So the NMSE sweep runs trials in the outer loop: it draws each trial once
(one EVA draw, seen at every speed of a speed sweep), designs each distinct
filter once per sweep, and each construction does the work that points
share once per trial or once per block of trials.  Every draw has the EVA
path delays, so each filter has one tap window for the whole sweep.
``simulate_frame`` modulates once per trial and prefix-extends, shapes and
lays on the channel's tone blocks once per run of points with the same
filter object and window (all of a speed sweep, one point of a roll-off or
span sweep).  The points that share
a channel object (all of a roll-off or span sweep, one point of a speed
sweep) then pass the channel as rows of one array on their common fine
grid, in chunks under a byte budget, so that they share its Doppler tones;
the matched filter samples each row alone, through its point's filter.  The
trial's (S, N) stack is demodulated at once; each row equals its point run
alone, bit for bit.  The tap model draws the trials in blocks under another
byte budget and takes the ambiguity values of every point of a block in one
``ambiguity_values`` call, which gathers the shifted pulses once per filter
and block and gives each point its own (P, L) profile.  It then takes each
trial's path-wise taps, its points' share of those profiles, in one
``effective_taps`` call, with each distinct channel's Doppler tones built
once and shared by its points, whatever the sweep kind, and predicts every
point from them in one ``predict_output`` call: one product of the point's
ambiguity profile with the frame's delayed copies, then its tones.  The
taps are never multiplied out.  Every step of the tap
model acts on each point's values elementwise or in a product of that
point's own arrays, so neither the block size nor the points beside a
point change its prediction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import EVA_PROFILE, DDChannel, apply_channel, make_eva_channels, _on_tone_blocks
from .receiver import (
    _check_points,
    ambiguity_values,
    effective_taps,
    predict_output,
    sample_matched_filter,
    tap_window,
)
from .spectral import _MIN_FRAMES, PsdCurve, analytic_psd, empirical_psd, occupied_bandwidth
from .transforms import ChirpConfig, _is_integer, demodulate, modulate
from .waveform import SrrcFilter, Waveform, add_cpp, design_srrc, shape, synth_ideal
from . import aliasing

INTEGER_KEYS = ("n", "q", "oversample", "trials", "seed")
NUMBER_KEYS = ("t_us", "c1_num", "c2_num", "beta", "fc_hz", "speed_kmh")


def _is_number(value) -> bool:
    # the concrete types: a numbers.Real check made parsing and sweep_configs 15-35% slower
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# each sweep kind: the configuration key it varies, and that key's default points
SWEEPS = {
    "speed": ("speed_kmh", tuple(float(v) for v in range(0, 501, 50))),
    "rolloff": ("beta", (0.1, 0.15, 0.2, 0.25, 0.3, 0.35)),
    "span": ("q", tuple(range(6, 21, 2))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment parameters shared by all drivers.  Each key's type and
    range are checked here, and ``sweep_values`` is kept as a tuple."""

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
        for key in INTEGER_KEYS:
            value = getattr(self, key)
            if not _is_integer(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in NUMBER_KEYS:
            value = getattr(self, key)
            if not _is_number(value):
                raise ValueError(f"{key} must be a number, got {value!r}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 2, got {self.n}")
        if not (math.isfinite(self.t_us) and self.t_us > 0):
            raise ValueError(f"t_us must be finite and positive, got {self.t_us}")
        for c in ("c1", "c2"):
            num = getattr(self, f"{c}_num")
            if not math.isfinite(num):
                raise ValueError(f"{c}_num must be finite, got {num}")
            _parse_denominator(f"{c}_den", getattr(self, f"{c}_den"), self.n)
        if self.oversample < 2:
            raise ValueError(f"oversample must be >= 2, got {self.oversample}")
        if self.q < 2 or self.q % 2 != 0:
            raise ValueError(f"q must be an even integer >= 2, got {self.q}")
        if not (math.isfinite(self.beta) and 0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (math.isfinite(self.speed_kmh) and self.speed_kmh >= 0):
            raise ValueError(f"speed_kmh must be finite and non-negative, got {self.speed_kmh}")
        if not (math.isfinite(self.fc_hz) and self.fc_hz > 0):
            raise ValueError(f"fc_hz must be finite and positive, got {self.fc_hz}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # text first: an unhashable value cannot be looked up, nor an array compared
        if not (isinstance(self.sweep, str) and self.sweep in SWEEPS):
            raise ValueError(f"unknown sweep kind: {self.sweep}")
        if not (isinstance(self.profile, str) and self.profile == "eva"):
            raise ValueError(f"unknown channel profile: {self.profile}")
        if self.sweep_values is not None:
            vals = self.sweep_values
            if not (isinstance(vals, (list, tuple)) and all(map(_is_number, vals))):
                raise ValueError(f"sweep_values must be a list or tuple of numbers, got {vals!r}")
            object.__setattr__(self, "sweep_values", tuple(vals))
            # each point is checked by its key's rule first: NaN passes the order check
            try:
                self.sweep_configs()
            except ValueError as exc:
                raise ValueError(f"sweep_values: {exc}") from None
            if not vals or any(b < a for a, b in zip(vals[:-1], vals[1:])):
                raise ValueError(f"sweep_values must be non-empty and ordered, got {list(vals)}")

    @property
    def T(self) -> float:
        return self.t_us * 1e-6

    def chirp_config(self) -> ChirpConfig:
        return ChirpConfig(
            N=self.n,
            T=self.T,
            c1=self.c1_num / _parse_denominator("c1_den", self.c1_den, self.n),
            c2=self.c2_num / _parse_denominator("c2_den", self.c2_den, self.n),
        )

    def srrc(self) -> SrrcFilter:
        return design_srrc(self.beta, self.q, self.oversample, self.T / self.n)

    def shrink(self) -> "ExperimentConfig":
        """Desk-scale variant: N -> 256, trials -> 20, O -> 8."""
        return replace(self, n=256, trials=20, oversample=8)

    def sweep_configs(self) -> list:
        """This configuration with the swept key set to each point; for an integer
        key an integral float becomes an int, and any other value is passed on."""
        key, values = SWEEPS[self.sweep]
        if self.sweep_values is not None:
            values = self.sweep_values
        if key in INTEGER_KEYS:
            values = [int(v) if isinstance(v, float) and v.is_integer() else v for v in values]
        return [replace(self, **{key: v}, sweep_values=None) for v in values]


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _parse_denominator(key: str, text: str, n: int) -> float:
    """Denominator tokens are finite non-zero numbers or multiples of N such as
    '4N', 'N' or '-N'."""
    s = str(text).strip()
    scale = 1
    if s.upper().endswith("N"):
        s, scale = s[:-1].strip(), n
        if s in ("", "+", "-"):
            s += "1"
    try:
        den = float(s) * scale
    except ValueError:
        den = math.nan
    if not (math.isfinite(den) and den != 0):
        raise ValueError(f"{key} must be a finite non-zero number or multiple of N, got {text!r}")
    return den


def load_config(path) -> ExperimentConfig:
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
                raise ValueError(f"{path}:{lineno}: unknown configuration key: {key}")
            if key in values:
                raise ValueError(
                    f"{path}:{lineno}: duplicate configuration key {key} "
                    f"(first set on line {first_line[key]})"
                )
            values[key] = val
            first_line[key] = lineno
    return config_from_dict(values)


# how config_from_dict parses the text of each numeric key, and what it expects
_TEXT_PARSERS = {
    **dict.fromkeys(INTEGER_KEYS, (int, "an integer")),
    **dict.fromkeys(NUMBER_KEYS, (float, "a number")),
    "sweep_values": (lambda text: tuple(map(float, text.split(","))),
                     "a comma-separated list of numbers"),
}


def config_from_dict(values: dict) -> ExperimentConfig:
    """Parse each text value by its key; text that does not parse is named
    with its key.  Other values, and the text of the other keys, pass on
    unchanged to ``ExperimentConfig``, which checks every key's type."""
    kwargs: dict = {}
    for key, val in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown configuration key: {key}")
        if isinstance(val, str) and key in _TEXT_PARSERS:
            parse, kind = _TEXT_PARSERS[key]
            try:
                val = parse(val)
            except ValueError:
                raise ValueError(f"{key} must be {kind}, got {val!r}") from None
        kwargs[key] = val
    return ExperimentConfig(**kwargs)


@dataclass
class SweepResult:
    """Per-point NMSE statistics at each point's value of the swept key."""

    values: list
    nmse_db: np.ndarray
    stderr_db: np.ndarray

    def __post_init__(self) -> None:
        self.nmse_db = np.asarray(self.nmse_db, dtype=float)
        self.stderr_db = np.asarray(self.stderr_db, dtype=float)
        if not (len(self.values) == len(self.nmse_db) == len(self.stderr_db)):
            raise ValueError("one NMSE and one standard error per sweep point")
        if not np.all(np.isfinite(self.nmse_db)):
            raise ValueError("NMSE values must be finite")


# (2 b0 - 1 + j (2 b1 - 1)) / sqrt(2), indexed by b0 + 2 b1
_QAM4 = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j]) / np.sqrt(2.0)


def qam4_symbols(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-power 4-QAM symbol vector."""
    bits = rng.integers(0, 2, size=(2, n))
    return _QAM4[bits[0] + 2 * bits[1]]


def _draw_trial(ec: ExperimentConfig, speeds: list, t: int) -> tuple:
    """Trial t's draw from default_rng([seed, t]): one EVA channel per distinct
    speed, given to each point at that speed, then a frame of 4-QAM symbols."""
    rng = np.random.default_rng([ec.seed, t])
    distinct = list(dict.fromkeys(speeds))
    drawn = dict(zip(distinct, make_eva_channels(ec.fc_hz, distinct, rng)))
    return [drawn[v] for v in speeds], qam4_symbols(ec.n, rng)


def _transmit(cfg: ChirpConfig, filt: SrrcFilter, x: np.ndarray, n_taps: int) -> Waveform:
    """Prefix-extend a modulated frame by n_taps - 1 samples and shape it."""
    l_cpp = n_taps - 1
    return shape(cfg, add_cpp(cfg, x, l_cpp), filt, t_first=-l_cpp * cfg.dt)


# Bytes of fine-grid samples the waveform chain passes through the channel in
# one call.  A trial's points that share a channel object (a roll-off or span
# sweep) pass it as rows of one array, in chunks of rows under this size, and
# share its Doppler tones; the matched filter then samples each row alone.
# All 8 desk-scale rows (34-37 kB each at N = 256, O = 8) share one chunk, and
# each paper-scale row (261-268 kB at N = 1024, O = 16) goes alone.  Measured
# in process on the paper-scale roll-off and span sweeps, 1 MB chunks of
# three rows ran 1.4-1.5x slower than this size and faulted in 7,000-9,500
# fresh pages per sweep against 1-1,241 (BENCH_28.json)
_ROW_BATCH_BYTES = 1 << 19


def simulate_frame(
    cfg: ChirpConfig,
    filts: list,
    channels: list,
    symbols: np.ndarray,
    windows: list,
) -> np.ndarray:
    """The waveform chain of one trial: the (S, N) received chirp-domain
    frames of one frame of symbols at each point (filts[i], channels[i]).

    modulate -> chirp-periodic prefix -> pulse shaping -> channel -> matched
    filter sampled at the base rate -> forward transform.  Point i has the
    tap window windows[i] = (lead, L), as in ``effective_taps``: its prefix
    is L - 1 samples long, so the folded tap relation is exact, and its
    matched filter is sampled from lead symbols before the first path.  One
    point is ``simulate_frame(cfg, [filt], [channel], symbols, [window])[0]``.

    The frame is modulated once.  Consecutive points with the same filter
    object and window share one transmitted waveform (all of a speed sweep;
    one point of a roll-off or span sweep).  Consecutive points with the
    same channel object (all of a roll-off or span sweep; one point of a
    speed sweep) pass the channel as rows of one array, in chunks of at most
    ``_ROW_BATCH_BYTES`` of fine-grid samples, the one stage where they share
    work.  A waveform that goes through several channels alone (a speed
    sweep's shared transmit) is laid on ``apply_channel``'s tone blocks once.
    Each row is then sampled by ``sample_matched_filter`` through its
    own filter, and the (S, N) stack is demodulated once.  Each row equals
    its point run alone, bit for bit.
    """
    _check_points(channels, filts, windows)
    x = modulate(cfg, symbols)
    rx = np.empty((len(filts), cfg.N), dtype=np.complex128)
    rows, waves = [], []
    alone: list = []  # the last waveform received alone, and it on tone blocks

    def receive() -> None:
        channel, dt = channels[rows[0]], filts[rows[0]].dt
        if len(waves) > 1:
            grid = _on_tone_blocks(waves)
        else:
            if not alone or alone[0] is not waves[0]:
                alone[:] = waves[0], _on_tone_blocks(waves)
            grid = alone[1]
        out = apply_channel(channel, grid)
        tau1 = channel.shifts(dt)[0] * dt
        for i, samples in zip(rows, out.samples):
            frame = Waveform(samples, out.sample_rate, out.t0)
            rx[i] = sample_matched_filter(frame, filts[i], tau1 - windows[i][0] * cfg.dt, cfg.N)
        rows.clear()
        waves.clear()

    for i, (filt, channel) in enumerate(zip(filts, channels)):
        if i == 0 or filt is not filts[i - 1] or windows[i] != windows[i - 1]:
            wf = _transmit(cfg, filt, x, windows[i][1])
        if rows and (
            channel is not channels[rows[0]]
            or sum(w.samples.nbytes for w in waves) + wf.samples.nbytes > _ROW_BATCH_BYTES
        ):
            receive()
        rows.append(i)
        waves.append(wf)
    receive()
    return demodulate(cfg, rx)


def _nmse_points(
    cfg: ChirpConfig,
    filts: list,
    channels: list,
    symbols: np.ndarray,
    windows: list,
    ambiguity: list | None = None,
) -> tuple:
    """One-frame NMSE between the waveform chain and the tap model at each
    point (filts[i], channels[i]) with the tap window windows[i], and the
    trial's taps.

    The waveform chain is ``simulate_frame``.  The tap model takes the
    trial's path-wise taps in one ``effective_taps`` call, from the points'
    ``ambiguity`` profiles when a block of trials computed them, and
    predicts every point from them in one ``predict_output`` call.  Neither
    reads anything the other computed.  The default window drops the far
    ambiguity tails and the NMSE measures that truncation; the exact window
    of ``tap_window`` drives it to floating-point level.
    """
    y_sim = simulate_frame(cfg, filts, channels, symbols, windows)
    taps = effective_taps(channels, filts, cfg.N, windows, ambiguity=ambiguity)
    y_pred = predict_output(cfg, taps, symbols)
    nmse = np.sum(np.abs(y_pred - y_sim) ** 2, axis=1) / np.sum(np.abs(y_sim) ** 2, axis=1)
    return nmse, taps


def _checked_window(channel: DDChannel, filt: SrrcFilter, n: int, exact: bool = False) -> tuple:
    """``tap_window``, refused unless its prefix of L - 1 samples is shorter
    than the frame of n samples; the drivers check before any trial runs."""
    lead, n_taps = tap_window(channel, filt, exact)
    if n_taps > n:
        raise ValueError(
            f"q = {filt.q} needs a window of {n_taps} taps, more than n = {n} allows; "
            f"reduce q or raise n"
        )
    return lead, n_taps


# Bytes of the Doppler-weighted conjugate pulses that the tap model builds for
# one block of trials, reckoned as 16 S P M a trial (S points, P paths, the
# widest filter's M taps); the pulse tones they are made from take about as
# much again.  A block holds as many trials as fit, and at least one: all 5
# trials of the desk span sweep (N = 256, O = 8, q up to 20) share one block,
# the paper-scale speed sweep (N = 1024, O = 16) goes three trials a block.
# Measured in process, the desk span sweep took 0.76x the time of one trial
# a block, while one block for all 100 trials of the paper speed sweep raised
# its tracemalloc peak from 6.7 to 76 MB
_AMBIGUITY_BLOCK_BYTES = 1 << 20


def run_nmse_sweep(ec: ExperimentConfig) -> SweepResult:
    """NMSE versus speed, roll-off or filter span, averaged over trials.

    Trials are the outer loop: trial t draws its channel and symbols once
    from default_rng([seed, t]) and every point reuses them (see the module
    docstring), so the per-point statistics equal those of drawing afresh at
    every point.  Every draw has the delays of the EVA profile, so each
    filter's tap window is the same in every trial; it is taken once, and a
    window that does not fit the frame is refused before any trial runs.  The
    trials are drawn in blocks under ``_AMBIGUITY_BLOCK_BYTES``; one
    ``ambiguity_values`` call covers every point of a block, and each trial
    then passes its points' profiles to ``_nmse_points``.
    """
    cfg = ec.chirp_config()
    points = ec.sweep_configs()
    # one filter object per distinct design: the chain and the tap model key
    # their shared work on it
    designs = {(p.beta, p.q): p for p in points}
    designed = {d: p.srrc() for d, p in designs.items()}
    filts = [designed[p.beta, p.q] for p in points]
    speeds = [p.speed_kmh for p in points]
    # every draw has the EVA delays, which alone set a filter's window
    (eva,) = make_eva_channels(ec.fc_hz, [0.0], np.random.default_rng(0))
    window = {d: _checked_window(eva, f, ec.n) for d, f in designed.items()}
    windows = [window[p.beta, p.q] for p in points]
    samples = np.empty((len(points), ec.trials))
    per_trial = 16 * len(points) * len(EVA_PROFILE) * max(len(f.taps) for f in filts)
    block = max(1, _AMBIGUITY_BLOCK_BYTES // per_trial)
    for first in range(0, ec.trials, block):
        draws = [_draw_trial(ec, speeds, t) for t in range(first, min(first + block, ec.trials))]
        amb = ambiguity_values(
            [c for channels, _ in draws for c in channels], filts * len(draws), windows * len(draws)
        )
        for i, (channels, symbols) in enumerate(draws):
            a = amb[i * len(points) : (i + 1) * len(points)]
            samples[:, first + i] = _nmse_points(cfg, filts, channels, symbols, windows, a)[0]
    mean = samples.mean(axis=1)
    if ec.trials > 1:
        stderr = samples.std(axis=1, ddof=1) / np.sqrt(ec.trials)
    else:
        stderr = np.zeros(len(points))
    key = SWEEPS[ec.sweep][0]
    return SweepResult(
        values=[getattr(p, key) for p in points],
        nmse_db=10.0 * np.log10(mean),
        stderr_db=(10.0 / np.log(10.0)) * stderr / mean,
    )


# Fine-grid bytes of the frames the psd experiment synthesises at once: 16
# frames at N O = 16,384.  Once glibc has freed one such block it serves that
# size from its heap, and returns free heap to the system only above twice
# that size; the run's live buffers stay below it, so a process keeps their
# pages from one run to the next.  With 2 MB blocks a repeated run faulted in
# about 1,000 fresh pages each time, with 4 MB blocks none.
_PSD_BLOCK_BYTES = 1 << 22


def run_psd_experiment(ec: ExperimentConfig) -> tuple[PsdCurve, PsdCurve, float]:
    """Analytic and empirical frame PSDs plus the -20 dB occupied bandwidth.

    Empirical frames are ideal (alias-free) chirp syntheses of independent
    4-QAM vectors; ``trials`` sets the frame count, and a count below 10 is
    refused before any frame is drawn.  The Welch estimate uses 4096-point
    segments.  Frame t draws its symbols from ``default_rng([seed, t])``.
    The frames are drawn, synthesised and passed to Welch in blocks of at
    most ``_PSD_BLOCK_BYTES``, so the memory does not grow with the frame
    count.
    """
    if ec.trials < _MIN_FRAMES:
        raise ValueError(f"psd needs trials >= {_MIN_FRAMES} (its frame count), got {ec.trials}")
    cfg = ec.chirp_config()
    per_block = max(1, _PSD_BLOCK_BYTES // (16 * cfg.N * ec.oversample))

    def blocks():
        for lo in range(0, ec.trials, per_block):
            symbols = np.array(
                [
                    qam4_symbols(cfg.N, np.random.default_rng([ec.seed, t]))
                    for t in range(lo, min(lo + per_block, ec.trials))
                ]
            )
            yield synth_ideal(cfg, symbols, ec.oversample)

    emp = empirical_psd(blocks(), nfft=4096)
    ana = analytic_psd(cfg, sigma2=1.0, freqs=emp.freq)
    bw = occupied_bandwidth(ana)
    return ana, emp, bw


def run_ortho_experiment(ec: ExperimentConfig) -> tuple:
    """Aliased-chirp inner-product grid plus the closed-form classification.

    Returns (grid, predictions): grid is the (N, N) array of |I| from
    ``aliasing.inner_product_matrix``, exact for any real c1, and
    predictions the (N, N) boolean array of ``aliasing.predict_aliased``
    (True = predicted aliased), or None when the fold count is not an
    integer.
    """
    cfg = ec.chirp_config()
    return aliasing.inner_product_matrix(cfg), aliasing.predict_aliased(cfg)


def run_iorel_check(ec: ExperimentConfig) -> tuple[dict, np.ndarray]:
    """Single-realization exact-I/O diagnostic.

    Runs one seeded EVA trial and reports two NMSE figures: the standard
    retained-window model (finite truncation error) and the widened window
    covering the whole ambiguity support, which must sit at floating-point
    level because the tap relation is then exact.  Both windows are checked
    against the frame before either is scored.  Returns the report and the
    dense (N, L) default-window taps that were scored, so callers describe
    that same realization.
    """
    cfg = ec.chirp_config()
    (channel,), symbols = _draw_trial(ec, [ec.speed_kmh], 0)
    filt = ec.srrc()
    windows = [_checked_window(channel, filt, ec.n, exact) for exact in (False, True)]
    (nmse_window, nmse_exact), taps = _nmse_points(cfg, [filt] * 2, [channel] * 2, symbols, windows)
    return {
        "nmse_model_db": 10.0 * np.log10(max(nmse_window, 1e-300)),
        "nmse_exact_db": 10.0 * np.log10(max(nmse_exact, 1e-300)),
        "speed_kmh": ec.speed_kmh,
        "n": ec.n,
    }, taps.dense()[0]


def transform_multiply_count(n: int) -> float:
    """Complex multiplies of one radix-2 FFT stage chain: (N/2) log2 N."""
    return 0.5 * n * np.log2(n)


def measure_transform_time(n: int) -> float:
    """Best-of-9 wall-clock per modulate call at size n, batched.

    Batching max(4, 2^22 / n) frames through one call keeps interpreter
    overhead out of the measurement so the scaling of the transform itself
    is visible.  The (batch, n) frames lie along the contiguous last axis,
    so the time is that of the transform rather than of strided copies.
    """
    cfg = ChirpConfig(N=n, T=1e-4, c1=1.0 / (4 * n), c2=1.0 / (3 * n))
    batch = max(4, (1 << 22) // n)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
    modulate(cfg, x)  # warm-up
    best = np.inf
    for _ in range(9):
        t0 = time.perf_counter()
        modulate(cfg, x)
        best = min(best, time.perf_counter() - t0)
    return best / batch


def complexity_compare(n: int, n_od: int) -> dict:
    """Transform-stage multiply counts for the monolithic chirp transform at
    size n versus a bank of n/n_od transforms of size n_od, plus a measured
    wall-clock scaling check of this package's own fast transform."""
    if n_od < 2:
        raise ValueError(f"n_od must be >= 2, got {n_od}")
    if n < n_od:
        raise ValueError(f"n must be >= n_od = {n_od}, got {n}")
    # the radix-2 count holds for powers of two only, and these divide each other
    for key, size in (("n_od", n_od), ("n", n)):
        if size & (size - 1):
            raise ValueError(f"{key} must be a power of two, got {size}")
    count_full = transform_multiply_count(n)
    m = n // n_od
    count_bank = m * transform_multiply_count(n_od)
    report = {
        "n": n,
        "n_od": n_od,
        "count_full": count_full,
        "count_bank": count_bank,
        "count_ratio": count_full / count_bank,
    }
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
