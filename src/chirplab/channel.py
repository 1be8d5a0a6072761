"""Doubly dispersive (delay-Doppler) multipath channels.

A channel is a finite sum of P paths, held as three read-only length-P
arrays of complex gains, delays (s) and Doppler shifts (Hz).  Realizations
follow the Extended Vehicular A power-delay profile with per-path Jakes
Doppler draws.  A waveform passes through the channel path by path on its
own sampling grid, one frame or a (rows, n) batch of frames on one grid at a
time.  Each path's Doppler tone on that grid is the outer product of a
coarse and a fine tone over fixed blocks of the absolute grid index, so a
row's output does not depend on the rows batched with it; every array of the
pass is plain 2-D, one frame per row.  The receiver's tap model builds its
per-symbol Doppler phases with ``_doppler_tones``.

``apply_channel``'s tone products run under a ufunc buffer of
``_UFUNC_BUFFER`` elements (``_row_buffer``), scoped so that the caller's
buffer size and error state stand outside it.  Their broadcast rows are
shorter than numpy's default buffer of 8192 elements, under which those
outer products ran about 2x slower, with the same bits.  ``_doppler_tones``
runs under the caller's buffer: at the tap model's tone sizes, entering the
scope cost more than it saved.  No reduction may be placed in that scope:
its pairwise blocks could follow the buffer size.
"""

from __future__ import annotations

import contextlib
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
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and positive, got {dt}")
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
    if not (math.isfinite(carrier_hz) and carrier_hz > 0):
        raise ValueError(f"carrier_hz must be finite and positive, got {carrier_hz}")
    for v in speeds_kmh:
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"speeds_kmh must be finite and non-negative, got {v}")
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


# Elements of numpy's ufunc buffer in ``_row_buffer``.  The (133, 128) outer
# product of a paper-scale path tone took 34 us under numpy's default of 8192
# elements, 15 us under 128 or 256 and 25 us under 512 (numpy 2.4)
_UFUNC_BUFFER = 256


@contextlib.contextmanager
def _row_buffer():
    """Run the block under a ufunc buffer of ``_UFUNC_BUFFER`` elements.

    ``np.errstate`` restores the caller's buffer size and error state on
    exit, also when the block raises, and keeps the caller's error state
    inside.  Only elementwise products belong in the block, no ``sum``,
    ``einsum``, ``reduceat`` or matrix product.
    """
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER)
        yield


def _doppler_tones(nus, t0, step: float, count: int) -> np.ndarray:
    """The tones exp(j 2 pi nu_p (t0_p + i step)), i < count, as a (P, count) array.

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
    tones = coarse[:, :, None] * fine[:, None, :]
    return tones.reshape(len(coarse), -1)[:, :count]


# Samples per block of apply_channel's coarse-by-fine Doppler tones.  Block a
# holds the sampling-grid indices a B .. a B + B - 1 counted from t = 0, so a
# sample's tone does not depend on where its waveform starts
_TONE_BLOCK = 128


def _on_tone_blocks(waves: list) -> Waveform:
    """Waveforms of one sample rate as the zero-filled rows of one (rows, n)
    waveform on whole blocks of ``apply_channel``'s tones.

    Each start time is rounded to the sampling grid, and the result starts
    at a multiple of ``_TONE_BLOCK`` samples from t = 0 and holds a multiple
    of ``_TONE_BLOCK`` samples, which ``apply_channel`` reads without an
    aligned copy.
    """
    rate = waves[0].sample_rate
    dt = 1.0 / rate
    firsts = [round(w.t0 / dt) for w in waves]
    lo = min(firsts) // _TONE_BLOCK * _TONE_BLOCK
    hi = max(f + w.samples.shape[-1] for f, w in zip(firsts, waves))
    grid = np.zeros((len(waves), -(-(hi - lo) // _TONE_BLOCK) * _TONE_BLOCK), dtype=np.complex128)
    for row, f, w in zip(grid, firsts, waves):
        row[f - lo : f - lo + w.samples.shape[-1]] = w.samples
    return Waveform(grid, rate, t0=lo * dt)


def apply_channel(channel: DDChannel, wf: Waveform) -> Waveform:
    """Pass a waveform through the channel on its own sampling grid.

    Path p multiplies the input by its Doppler tone of dopplers[p]
    (evaluated on the absolute input time axis), shifts by delays[p]
    rounded to whole input samples (``DDChannel.shifts``) and scales by
    gains[p].  The output grid starts at the input t0 and extends to cover
    the largest quantized delay.  A (rows, n) ``wf.samples`` passes every
    row through the channel with one set of tones and gives (rows, n_out).

    The paths are applied one at a time.  Sample i sits at grid index
    g = round(t0 / dt) + i, and writing g = a B + b with the fixed block
    B = ``_TONE_BLOCK`` makes its tone the product of a coarse tone at a B dt
    and a fine tone at b dt (times one phase for the offset of t0 from the
    grid, exactly 1 when t0 is a whole number of samples).  So a sample's
    tone depends on its grid index alone, never on the rows beside it or on
    where they start.  The input sits in a zeroed (rows, width) array of
    whole blocks at its grid index (``_on_tone_blocks`` lays rows out that
    way, so they need no copy).  Path p builds its tone once for all rows,
    as the outer product of the coarse factor, with the gain folded in, and
    the fine factor; multiplies every row by it into one (rows, width)
    buffer; and adds that into the output, width plus the largest shift
    wide, at its shift.  The first path's product is written straight into
    the output, not added to zeros, so only the columns outside it are
    zeroed.  That equals zero-filling and adding every path, except that a
    zero may keep its sign.
    """
    dt = 1.0 / wf.sample_rate
    shifts = channel.shifts(dt)
    n_in = wf.samples.shape[-1]
    rows = wf.samples.reshape(-1, n_in)
    first = round(wf.t0 / dt)
    lead = first % _TONE_BLOCK
    n_blocks = -(-(lead + n_in) // _TONE_BLOCK)
    starts = (wf.t0 - first * dt) + (first - lead + _TONE_BLOCK * np.arange(n_blocks)) * dt
    nus = channel.dopplers[:, None]
    coarse = np.exp(2j * np.pi * nus * starts)
    coarse *= channel.gains[:, None]
    fine = np.exp(2j * np.pi * nus * (np.arange(_TONE_BLOCK) * dt))
    width = n_blocks * _TONE_BLOCK
    if lead or n_in % _TONE_BLOCK:
        grid = np.zeros((len(rows), width), dtype=np.complex128)
        grid[:, lead : lead + n_in] = rows
    else:  # already on whole blocks, as ``_on_tone_blocks`` lays rows out
        grid = rows
    prods = np.empty((len(rows), width), dtype=np.complex128)
    # one row builds each tone where its product goes: a tone buffer of its
    # own made the paper-scale speed sweep 4-6% slower; several rows share one
    tone = prods if len(rows) == 1 else np.empty((1, width), dtype=np.complex128)
    # the paths are in delay order, so the last shift is the largest
    out = np.empty((len(rows), width + shifts[-1]), dtype=np.complex128)
    out[:, : shifts[0]] = 0.0
    out[:, shifts[0] + width :] = 0.0
    with _row_buffer():
        for p, (s, c, f) in enumerate(zip(shifts, coarse, fine)):
            np.multiply(c[:, None], f, out=tone.reshape(n_blocks, _TONE_BLOCK))
            if p:
                np.multiply(tone, grid, out=prods)
                out[:, s : s + width] += prods
            else:
                np.multiply(tone, grid, out=out[:, s : s + width])
    out = out[:, lead : lead + n_in + shifts[-1]]
    return Waveform(out.reshape(wf.samples.shape[:-1] + (-1,)), wf.sample_rate, t0=wf.t0)


def add_awgn(wf: Waveform, n0: float, rng: np.random.Generator) -> Waveform:
    """Add circular white Gaussian noise with two-sided density n0.

    The per-sample complex variance is n0 * sample_rate so that the noise
    power referred to the continuous-time bandwidth is n0 per hertz.  Every
    sample of a (rows, n) waveform gets its own draw, taken in row-major
    order, so a 1-D waveform of n samples draws the stream that n samples
    always drew.
    """
    if not (math.isfinite(n0) and n0 >= 0):
        raise ValueError(f"noise density must be finite and non-negative, got {n0}")
    var = n0 * wf.sample_rate
    shape = wf.samples.shape
    noise = np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Waveform(wf.samples + noise, wf.sample_rate, t0=wf.t0)
