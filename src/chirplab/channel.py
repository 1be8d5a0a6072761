"""Doubly dispersive (delay-Doppler) multipath channels.

A channel is a finite sum of P paths, held as three read-only length-P
arrays of complex gains, delays (s) and Doppler shifts (Hz).  Realizations
follow the Extended Vehicular A power-delay profile with per-path Jakes
Doppler draws.  A waveform passes through the channel path by path on its
own sampling grid; each path's Doppler tone on that grid is the outer
product of a coarse and a fine tone (``_tone_factors``), which the
receiver's tap model also uses for its per-symbol Doppler phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: compare by identity
class DDChannel:
    """Path p has gains[p], delays[p] (s) and dopplers[p] (Hz), in non-decreasing delay.

    The arrays are copied and made read-only, so a valid channel stays valid.
    """

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("gain", complex), ("delay", float), ("doppler", float)):
            values = np.array(getattr(self, name + "s"), dtype=dtype)
            if values.ndim != 1:
                raise ValueError(f"path {name}s must be a 1-D array, got shape {values.shape}")
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValueError(f"path {name} must be finite, got {bad[0]}")
            values.flags.writeable = False
            object.__setattr__(self, name + "s", values)
        sizes = (len(self.gains), len(self.delays), len(self.dopplers))
        if len(set(sizes)) > 1:
            raise ValueError("got %d gains, %d delays and %d dopplers, need one per path" % sizes)
        if not sizes[0]:
            raise ValueError("channel needs at least one path")
        if self.delays.min() < 0:
            raise ValueError(f"path delay must be non-negative, got {self.delays.min()}")
        if (np.diff(self.delays) < 0).any():
            raise ValueError("paths must be ordered by non-decreasing delay")

    def shifts(self, dt: float) -> np.ndarray:
        """The delays rounded to whole samples of dt (halves to even), as the
        waveform chain and the tap model both shift the paths."""
        return np.rint(self.delays / dt).astype(int)


def make_eva_channels(
    carrier_hz: float, speeds_kmh: list[float], rng: np.random.Generator
) -> list[DDChannel]:
    """Draw one EVA channel realization and return it at each speed.

    Gains are independent complex Gaussians with the EVA tap powers scaled
    to unit total power, the Doppler of each path is nu_max * cos(theta_p)
    with theta_p uniform on [-pi, pi) and the Jakes spread nu_max = v fc / c0
    of each speed v, and each gain is rotated by the carrier phase
    exp(-j 2 pi fc tau_p) of its delay.  The gains and angles are drawn once,
    so the channels differ only in nu_max.
    """
    delays = np.array([d * 1e-9 for d, _ in EVA_PROFILE])
    powers = 10.0 ** (np.array([p for _, p in EVA_PROFILE]) / 10.0)
    powers = powers / powers.sum()
    n_paths = len(delays)
    gains = np.sqrt(powers / 2.0) * (
        rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
    )
    gains = gains * np.exp(-2j * np.pi * carrier_hz * delays)
    cos_theta = np.cos(rng.uniform(-np.pi, np.pi, size=n_paths))
    return [
        DDChannel(gains, delays, nu_max * cos_theta)
        for nu_max in ((v / 3.6) * carrier_hz / SPEED_OF_LIGHT for v in speeds_kmh)
    ]


def _tone_factors(nus, t0, step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine factors of the tones exp(j 2 pi nu_p (t0_p + i step)), i < count.

    ``t0`` is one start time for all tones or one per tone.  Writing
    i = a B + b with B = ceil(sqrt(count)) makes tone p at i the product
    coarse[p, a] * fine[p, b] of a (P, ceil(count / B)) coarse and a (P, B)
    fine array, so a tone costs about 2 sqrt(count) complex exponentials
    instead of count.
    """
    nus = np.asarray(nus, dtype=float)[:, None]
    block = math.isqrt(max(count - 1, 0)) + 1
    starts = np.reshape(t0, (-1, 1)) + np.arange(-(-count // block)) * (block * step)
    coarse = np.exp(2j * np.pi * nus * starts)
    fine = np.exp(2j * np.pi * nus * (np.arange(block) * step))
    return coarse, fine


def _doppler_tones(nus, t0, step: float, count: int) -> np.ndarray:
    """The tones of ``_tone_factors`` as a (P, count) array: their outer products."""
    coarse, fine = _tone_factors(nus, t0, step, count)
    tones = coarse[:, :, None] * fine[:, None, :]
    return tones.reshape(len(coarse), -1)[:, :count]


def apply_channel(channel: DDChannel, wf: Waveform) -> Waveform:
    """Pass a waveform through the channel on its own sampling grid.

    Path p multiplies the input by its Doppler tone of dopplers[p]
    (evaluated on the absolute input time axis), shifts by delays[p]
    rounded to whole input samples (``DDChannel.shifts``) and scales by
    gains[p].  The output grid starts at the input t0 and extends to cover
    the largest quantized delay.

    The paths are applied one at a time.  With the input viewed as a
    (blocks, B) array, path p's tone is the coarse-by-fine factor pair of
    ``_tone_factors``; the gain is folded into the coarse factor, so the
    input is multiplied by the fine and the coarse factor into one buffer,
    reused by every path, which is then added into the output at the shift.
    """
    dt = 1.0 / wf.sample_rate
    shifts = channel.shifts(dt)
    n_in = len(wf.samples)
    out = np.zeros(n_in + shifts.max(), dtype=np.complex128)
    coarse, fine = _tone_factors(channel.dopplers, wf.t0, dt, n_in)
    coarse *= channel.gains[:, None]
    blocks = np.zeros(coarse.shape[1] * fine.shape[1], dtype=np.complex128)
    blocks[:n_in] = wf.samples
    blocks = blocks.reshape(coarse.shape[1], fine.shape[1])
    buf = np.empty_like(blocks)
    for s, c, f in zip(shifts, coarse, fine):
        np.multiply(blocks, f, out=buf)
        buf *= c[:, None]
        out[s : s + n_in] += buf.reshape(-1)[:n_in]
    return Waveform(out, wf.sample_rate, t0=wf.t0)


def add_awgn(wf: Waveform, n0: float, rng: np.random.Generator) -> Waveform:
    """Add circular white Gaussian noise with two-sided density n0.

    The per-sample complex variance is n0 * sample_rate so that the noise
    power referred to the continuous-time bandwidth is n0 per hertz.
    """
    if not (math.isfinite(n0) and n0 >= 0):
        raise ValueError(f"noise density must be finite and non-negative, got {n0}")
    var = n0 * wf.sample_rate
    noise = np.sqrt(var / 2.0) * (
        rng.standard_normal(len(wf.samples)) + 1j * rng.standard_normal(len(wf.samples))
    )
    return Waveform(wf.samples + noise, wf.sample_rate, t0=wf.t0)
