"""Doubly dispersive (delay-Doppler) multipath channels.

A channel is a finite sum of paths, each with a complex gain, a delay in
seconds and a Doppler shift in hertz.  Statistical realizations follow the
Extended Vehicular A power-delay profile with per-path Jakes Doppler draws.
"""

from __future__ import annotations

import cmath
import csv
from dataclasses import dataclass, field

import numpy as np

from .waveform import Waveform

SPEED_OF_LIGHT = 299_792_458.0

# Extended Vehicular A power-delay profile: (delay in ns, relative power in dB)
EVA_PROFILE = (
    (0.0, 0.0),
    (30.0, -1.5),
    (150.0, -1.4),
    (310.0, -3.6),
    (370.0, -0.6),
    (710.0, -9.1),
    (1090.0, -7.0),
    (1730.0, -12.0),
    (2510.0, -16.9),
)


@dataclass(frozen=True)
class DDPath:
    """Single propagation path: complex gain, delay (s), Doppler shift (Hz)."""

    gain: complex
    delay: float
    doppler: float

    def __post_init__(self) -> None:
        for name in ("gain", "delay", "doppler"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"path {name} must be finite, got {getattr(self, name)}")
        if self.delay < 0:
            raise ValueError(f"path delay must be non-negative, got {self.delay}")


@dataclass
class DDChannel:
    """Multipath delay-Doppler channel with paths sorted by delay."""

    paths: list[DDPath] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("channel needs at least one path")
        delays = [p.delay for p in self.paths]
        if any(b < a for a, b in zip(delays[:-1], delays[1:])):
            raise ValueError("paths must be ordered by non-decreasing delay")

    @property
    def max_delay(self) -> float:
        return self.paths[-1].delay

    @property
    def max_doppler(self) -> float:
        return max(abs(p.doppler) for p in self.paths)

    def total_power(self) -> float:
        return float(sum(abs(p.gain) ** 2 for p in self.paths))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gain_re", "gain_im", "delay_s", "doppler_hz"])
            for p in self.paths:
                writer.writerow(
                    [
                        f"{p.gain.real:.12g}",
                        f"{p.gain.imag:.12g}",
                        f"{p.delay:.12g}",
                        f"{p.doppler:.12g}",
                    ]
                )

    @classmethod
    def load_csv(cls, path) -> "DDChannel":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, skipinitialspace=True)
            paths = [
                DDPath(
                    gain=float(row["gain_re"]) + 1j * float(row["gain_im"]),
                    delay=float(row["delay_s"]),
                    doppler=float(row["doppler_hz"]),
                )
                for row in reader
            ]
        return cls(paths)


@dataclass(frozen=True)
class ChannelRealizationSpec:
    """Parameters of one statistical channel draw.

    carrier_hz    carrier frequency used for the Doppler scale and the
                  per-path phase rotation exp(-j 2 pi fc tau_p)
    speed_kmh     terminal speed; Jakes Doppler spread nu_max = v fc / c0
    """

    carrier_hz: float
    speed_kmh: float

    @property
    def max_doppler_hz(self) -> float:
        return (self.speed_kmh / 3.6) * self.carrier_hz / SPEED_OF_LIGHT


def make_eva_channel(spec: ChannelRealizationSpec, rng: np.random.Generator) -> DDChannel:
    """Draw one EVA channel realization.

    Gains are independent complex Gaussians with the EVA tap powers scaled
    to unit total power, the Doppler of each path is nu_max * cos(theta_p)
    with theta_p uniform on [-pi, pi), and each gain is rotated by the
    carrier phase of its delay.
    """
    delays = np.array([d * 1e-9 for d, _ in EVA_PROFILE])
    powers = 10.0 ** (np.array([p for _, p in EVA_PROFILE]) / 10.0)
    powers = powers / powers.sum()
    n_paths = len(delays)
    gains = np.sqrt(powers / 2.0) * (
        rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
    )
    gains = gains * np.exp(-2j * np.pi * spec.carrier_hz * delays)
    theta = rng.uniform(-np.pi, np.pi, size=n_paths)
    dopplers = spec.max_doppler_hz * np.cos(theta)
    return DDChannel(
        [DDPath(complex(g), float(d), float(nu)) for g, d, nu in zip(gains, delays, dopplers)]
    )


def apply_channel(channel: DDChannel, wf: Waveform) -> Waveform:
    """Pass a waveform through the channel on its own sampling grid.

    Each path multiplies the input by its Doppler tone (evaluated on the
    absolute input time axis), shifts by the delay rounded to an integer
    number of input samples, and scales by the gain.  The output grid starts
    at the input t0 and extends to cover the largest quantized delay.
    """
    dt = 1.0 / wf.sample_rate
    shifts = [int(round(p.delay / dt)) for p in channel.paths]
    n_out = len(wf.samples) + max(shifts)
    out = np.zeros(n_out, dtype=np.complex128)
    t_in = wf.times()
    for p, s in zip(channel.paths, shifts):
        out[s : s + len(wf.samples)] += (
            p.gain * wf.samples * np.exp(2j * np.pi * p.doppler * t_in)
        )
    return Waveform(out, wf.sample_rate, t0=wf.t0)


def add_awgn(wf: Waveform, n0: float, rng: np.random.Generator) -> Waveform:
    """Add circular white Gaussian noise with two-sided density n0.

    The per-sample complex variance is n0 * sample_rate so that the noise
    power referred to the continuous-time bandwidth is n0 per hertz.
    """
    if n0 < 0:
        raise ValueError("noise density must be non-negative")
    var = n0 * wf.sample_rate
    noise = np.sqrt(var / 2.0) * (
        rng.standard_normal(len(wf.samples)) + 1j * rng.standard_normal(len(wf.samples))
    )
    return Waveform(wf.samples + noise, wf.sample_rate, t0=wf.t0)
