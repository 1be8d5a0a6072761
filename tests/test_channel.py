"""Unit tests for delay-Doppler channels and AWGN."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chirplab import (
    DDChannel,
    Waveform,
    add_awgn,
    apply_channel,
    channel,
    make_eva_channels,
)
from chirplab.channel import SPEED_OF_LIGHT, _TONE_BLOCK, _doppler_tones, _on_tone_blocks


def _eva(rng, speed=500.0):
    """One EVA draw at 5 GHz and the given speed."""
    return make_eva_channels(5e9, [speed], rng)[0]


def test_eva_zero_speed_is_lti():
    ch = _eva(np.random.default_rng(1), 0.0)
    assert np.all(ch.dopplers == 0.0)


def test_eva_doppler_bound_and_path_count():
    nu_max = (500.0 / 3.6) * 5e9 / SPEED_OF_LIGHT
    # ~2315 Hz with the exact speed of light (2314.8 with c = 3e8 m/s)
    assert abs(nu_max - 2314.8) < 2.0
    ch = _eva(np.random.default_rng(2), 500.0)
    assert len(ch.gains) == len(ch.delays) == len(ch.dopplers) == 9
    assert np.all(np.abs(ch.dopplers) <= nu_max + 1e-9)
    # the bound is attained up to the drawn angles: some path sits near it
    assert np.max(np.abs(ch.dopplers)) > 0.5 * nu_max
    assert ch.delays[0] == 0.0
    assert abs(ch.delays[-1] - 2510e-9) < 1e-12


def test_eva_reproducible_and_normalized():
    a = _eva(np.random.default_rng(3))
    b = _eva(np.random.default_rng(3))
    assert np.array_equal(a.gains, b.gains) and np.array_equal(a.dopplers, b.dopplers)
    # power normalization holds in expectation; check the ensemble mean
    powers = []
    for s in range(200):
        ch = _eva(np.random.default_rng(s))
        powers.append(np.sum(np.abs(ch.gains) ** 2))
    assert abs(np.mean(powers) - 1.0) < 0.1


@pytest.mark.parametrize(
    "carrier_hz, speeds, message",
    [
        (np.nan, [0.0], "carrier_hz must be finite and positive, got nan"),
        (np.inf, [0.0], "carrier_hz must be finite and positive, got inf"),
        (0.0, [0.0], "carrier_hz must be finite and positive, got 0.0"),
        (-5e9, [0.0], "carrier_hz must be finite and positive, got -5000000000.0"),
        (5e9, [0.0, np.inf], "speeds_kmh must be finite and non-negative, got inf"),
        (5e9, [np.nan], "speeds_kmh must be finite and non-negative, got nan"),
        (5e9, [-1.0, 0.0], "speeds_kmh must be finite and non-negative, got -1.0"),
    ],
)
def test_make_eva_channels_refuses_a_bad_carrier_or_speed_before_drawing(
    carrier_hz, speeds, message
):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_eva_channels(carrier_hz, speeds, rng)
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state


def test_channel_validation():
    with pytest.raises(ValueError, match="path delay must be non-negative, got -1e-09"):
        DDChannel([1.0 + 0j], [-1e-9], [0.0])
    with pytest.raises(ValueError, match="paths must be ordered by non-decreasing delay"):
        DDChannel([1.0, 1.0], [2e-6, 1e-6], [0.0, 0.0])


@pytest.mark.parametrize(
    "gain, delay, doppler, key",
    [(complex(np.nan, 0.0), 0.0, 0.0, "gain"), (complex(1.0, np.inf), 0.0, 0.0, "gain"),
     (1.0, np.nan, 0.0, "delay"), (1.0, np.inf, 0.0, "delay"),
     (1.0, 0.0, np.nan, "doppler"), (1.0, 0.0, -np.inf, "doppler")],
)
def test_path_rejects_non_finite_values(gain, delay, doppler, key):
    with pytest.raises(ValueError, match=f"path {key} must be finite"):
        DDChannel([gain], [delay], [doppler])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    delays=st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=9).map(sorted),
    dt=st.floats(1e-10, 1e-5),
    ties=st.lists(st.integers(0, 10**6), min_size=1, max_size=9).map(sorted),
    exponent=st.integers(-40, -10),
)
def test_shifts_round_delays_to_whole_samples(delays, dt, ties, exponent):
    """shifts(dt) is int(round(tau_p / dt)) path by path; on exact half-sample
    ties (a power-of-two dt makes (k + 1/2) dt / dt exact) it rounds to even."""
    ch = DDChannel(np.ones(len(delays)), delays, np.zeros(len(delays)))
    assert ch.shifts(dt).tolist() == [int(round(d / dt)) for d in delays]
    step = 2.0**exponent
    halves = [(k + 0.5) * step for k in ties]
    tied = DDChannel(np.ones(len(ties)), halves, np.zeros(len(ties)))
    assert tied.shifts(step).tolist() == [int(round(d / step)) for d in halves]
    assert tied.shifts(step).tolist() == [k + k % 2 for k in ties]


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -1e-8])
def test_shifts_refuse_a_step_that_is_not_finite_and_positive(dt):
    ch = DDChannel([1.0 + 0j], [1e-6], [0.0])
    with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt}$"):
        ch.shifts(dt)


@pytest.mark.parametrize(
    "fault", ["gain", "delay", "doppler", "negative", "unordered", "ragged", "2-D", "empty"]
)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    n_paths=st.integers(1, 9),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_validates_once_and_stays_valid(fault, n_paths, value, where, seed):
    """A valid channel holds read-only copies of its arrays; each kind of
    invalid input is rejected with its message."""
    assume(fault != "unordered" or n_paths > 1)
    rng = np.random.default_rng(seed)
    arrays = {
        "gains": rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths),
        "delays": np.sort(rng.uniform(0.0, 5e-6, n_paths)),
        "dopplers": rng.uniform(-5e3, 5e3, n_paths),
    }
    ch = DDChannel(**arrays)
    for name, values in arrays.items():
        held = getattr(ch, name)
        assert np.array_equal(held, values) and held is not values
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.delays = arrays["delays"][::-1]
    p = where % n_paths
    name = ("gains", "delays", "dopplers")[where % 3]
    if fault in ("gain", "delay", "doppler"):
        arrays[fault + "s"][p] = value
        message = f"path {fault} must be finite, got {arrays[fault + 's'][p]}"
    elif fault == "negative":
        arrays["delays"][p] = -1e-9
        message = "path delay must be non-negative, got -1e-09"
    elif fault == "unordered":
        arrays["delays"] = arrays["delays"][::-1]
        message = "paths must be ordered by non-decreasing delay"
    elif fault == "ragged":
        arrays[name] = np.append(arrays[name], arrays[name][:1 + where % 2])
        message = "got {} gains, {} delays and {} dopplers, need one per path".format(
            *map(len, arrays.values())
        )
    elif fault == "2-D":
        arrays[name] = arrays[name].reshape(1, -1)
        message = f"path {name} must be a 1-D array"
    else:
        arrays = dict.fromkeys(arrays, [])
        message = "channel needs at least one path"
    with pytest.raises(ValueError, match=re.escape(message)):
        DDChannel(**arrays)


def _random_wf(n=512, rate=1e6, seed=21):
    rng = np.random.default_rng(seed)
    return Waveform(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), sample_rate=rate
    )


def test_apply_channel_identity_path():
    wf = _random_wf()
    out = apply_channel(DDChannel([1.0 + 0j], [0.0], [0.0]), wf)
    assert np.max(np.abs(out.samples - wf.samples)) < 1e-14


def test_apply_channel_pure_doppler():
    wf = _random_wf()
    nu = 1234.5
    out = apply_channel(DDChannel([1.0 + 0j], [0.0], [nu]), wf)
    tone = np.exp(2j * np.pi * nu * wf.times())
    assert np.max(np.abs(out.samples - wf.samples * tone)) < 1e-12


def test_apply_channel_matches_reference_loop():
    wf = _random_wf()
    dt = 1.0 / wf.sample_rate
    paths = [(0.7 - 0.2j, 0.0, 800.0), (0.3 + 0.4j, 5 * dt, -1500.0)]
    out = apply_channel(DDChannel(*zip(*paths)), wf)
    ref = np.zeros(len(wf.samples) + 5, dtype=complex)
    t_out = wf.t0 + np.arange(len(ref)) * dt
    for gain, delay, doppler in paths:
        shift = int(round(delay / dt))
        for i, x in enumerate(wf.samples):
            j = i + shift
            t = t_out[j]
            ref[j] += gain * x * np.exp(2j * np.pi * doppler * (t - delay))
    assert np.max(np.abs(out.samples - ref)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    t0=st.floats(-1e-3, 1e-3).filter(lambda v: v != 0.0),
    rate=st.floats(1e5, 1e8),
    paths=st.lists(
        st.tuples(st.floats(0.0, 40.0), st.floats(-5e3, 5e3)), min_size=1, max_size=9
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_channel_equals_per_sample_loop(n, t0, rate, paths, seed):
    """Random delays (in samples, rounded by the channel) and Dopplers on a
    grid that does not start at t = 0."""
    rng = np.random.default_rng(seed)
    wf = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), rate, t0=t0)
    delays, nus = zip(*sorted(paths))
    gains = [complex(rng.standard_normal(), rng.standard_normal()) for _ in paths]
    ch = DDChannel(gains, np.array(delays) / rate, nus)
    out = apply_channel(ch, wf)
    shifts = [int(round(d * rate)) for d in ch.delays]
    ref = np.zeros(n + max(shifts), dtype=complex)
    for g, s, nu in zip(gains, shifts, nus):
        for i, x in enumerate(wf.samples):
            ref[i + s] += g * x * np.exp(2j * np.pi * nu * (t0 + i / rate))
    assert out.t0 == t0 and out.samples.shape == ref.shape
    scale = sum(map(abs, gains)) * np.max(np.abs(wf.samples))
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * scale


def _zero_fill_and_add(ch, wf):
    """Reference for ``apply_channel``: each path's tone built as there, from
    coarse tones at whole blocks of the absolute grid index (gain folded in)
    times fine tones within a block, and every path's product with the rows
    added at its shift into a zero-filled output."""
    dt = 1.0 / wf.sample_rate
    rows = wf.samples.reshape(-1, wf.samples.shape[-1])
    n = rows.shape[1]
    first = round(wf.t0 / dt)
    lead = first % _TONE_BLOCK
    n_blocks = -(-(lead + n) // _TONE_BLOCK)
    starts = (wf.t0 - first * dt) + (first - lead + _TONE_BLOCK * np.arange(n_blocks)) * dt
    fine_times = np.arange(_TONE_BLOCK) * dt
    grid = np.zeros((len(rows), n_blocks * _TONE_BLOCK), dtype=complex)
    grid[:, lead : lead + n] = rows
    shifts = ch.shifts(dt)
    out = np.zeros((len(rows), grid.shape[1] + shifts[-1]), dtype=complex)
    for g, s, nu in zip(ch.gains, shifts, ch.dopplers):
        coarse = np.exp(2j * np.pi * nu * starts) * g
        tone = (coarse[:, None] * np.exp(2j * np.pi * nu * fine_times)).reshape(1, -1)
        out[:, s : s + grid.shape[1]] += tone * grid
    return out[:, lead : lead + n + shifts[-1]].reshape(wf.samples.shape[:-1] + (-1,))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 4),
    n=st.integers(1, 600),
    first=st.integers(-1000, 1000),
    off_grid=st.sampled_from([0.0, 0.3]),
    late=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_channel_equals_zero_filling_and_adding_every_path(
    rows, n, first, off_grid, late, seed
):
    """Writing the first path into the output, instead of adding it to
    zeros, gives the reference's values (np.array_equal, under which a zero
    of either sign is zero): one row or several, t0 on or off the sampling
    grid, and a channel whose earliest delay is ``late`` samples, whose first
    ``late`` output samples come out zero."""
    rng = np.random.default_rng(seed)
    rate = 1e7
    eva = _eva(rng)
    ch = DDChannel(eva.gains, eva.delays + late / rate, eva.dopplers)
    samples = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    wf = Waveform(samples[0] if rows == 1 else samples, rate, t0=(first + off_grid) / rate)
    got = apply_channel(ch, wf).samples
    assert got.shape == wf.samples.shape[:-1] + (n + ch.shifts(1 / rate).max(),)
    assert np.array_equal(got, _zero_fill_and_add(ch, wf))
    assert not got[..., :late].any()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nus=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=9),
    t0=st.floats(-1e-3, 1e-3),
    per_tone=st.booleans(),
    step=st.floats(1e-9, 1e-6),
    count=st.integers(1, 2000),
)
def test_doppler_tones_equal_direct_exp(nus, t0, per_tone, step, count):
    """The coarse-by-fine split against one exp per sample.  Phases stay
    below 2 pi 1e4 * 4e-3 = 250 rad, whose rounding is about 3e-14."""
    nus = np.array(nus)
    starts = t0 + 1e-4 * np.arange(len(nus)) if per_tone else t0
    got = _doppler_tones(nus, starts, step, count)
    times = np.reshape(starts, (-1, 1)) + np.arange(count) * step
    want = np.exp(2j * np.pi * nus[:, None] * times)
    assert got.shape == (len(nus), count)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 5),
    n=st.integers(1, 600),
    first=st.integers(-1000, 1000),
    off_grid=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_channel_rows_equal_per_row_calls(rows, n, first, off_grid, seed):
    """A (rows, n) batch gives each row exactly what the row gives alone,
    whether or not t0 sits on the sampling grid."""
    rng = np.random.default_rng(seed)
    rate = 1e7
    ch = _eva(rng)
    samples = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    t0 = (first + off_grid) / rate
    out = apply_channel(ch, Waveform(samples, rate, t0=t0))
    assert out.t0 == t0 and out.samples.shape == (rows, n + ch.shifts(1 / rate).max())
    for row, got in zip(samples, out.samples):
        assert np.array_equal(apply_channel(ch, Waveform(row, rate, t0=t0)).samples, got)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    spans=st.lists(st.tuples(st.integers(-500, 500), st.integers(1, 400)), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_tone_block_grid_keeps_each_waveform_and_its_channel_output(spans, seed):
    """Waveforms placed as rows on whole tone blocks, however many there
    are: each row holds its
    waveform at its own start time and zeros elsewhere, and the channel gives
    each row what the waveform gives alone, on the grid's longer time axis.
    The start times are whole multiples of the channel's dt = 1 / rate, as
    the grid's is, so that no off-grid phase separates the two."""
    rng = np.random.default_rng(seed)
    rate = 1e7
    ch = _eva(rng)
    waves = [
        Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), rate, t0=first * (1 / rate))
        for first, n in spans
    ]
    grid = _on_tone_blocks(waves)
    lo = round(grid.t0 * rate)
    assert lo % _TONE_BLOCK == 0 and grid.samples.shape[1] % _TONE_BLOCK == 0
    out = apply_channel(ch, grid).samples
    for (first, n), wf, row, got in zip(spans, waves, grid.samples, out):
        at = first - lo
        assert np.array_equal(row[at : at + n], wf.samples)
        assert not row[:at].any() and not row[at + n :].any()
        alone = apply_channel(ch, wf).samples
        assert np.array_equal(got[at : at + len(alone)], alone)
        assert not got[:at].any() and not got[at + len(alone) :].any()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 4),
    n=st.integers(1, 700),
    first=st.integers(-1000, 1000),
    off_grid=st.sampled_from([0.0, 0.3]),
    nus=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=9),
    t0=st.floats(-1e-3, 1e-3),
    count=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_tone_products_do_not_depend_on_the_ufunc_buffer(
    rows, n, first, off_grid, nus, t0, count, seed
):
    """The tone builders give the same bits under any ufunc buffer: one row
    or several, t0 on or off the sampling grid and starts anywhere in a tone
    block; Doppler tones from one start or one start per tone.
    ``apply_channel`` sets its own buffer, and ``_doppler_tones`` runs under
    the caller's."""
    rng = np.random.default_rng(seed)
    rate = 1e7
    ch = _eva(rng)
    samples = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    wf = Waveform(samples[0] if rows == 1 else samples, rate, t0=(first + off_grid) / rate)
    nus = np.array(nus)
    starts = t0 + 1e-4 * rng.standard_normal(len(nus))
    results = []
    for size in (16, 256, 8192):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_UFUNC_BUFFER", size)
            result = apply_channel(ch, wf).samples
        with np.errstate():
            np.setbufsize(size)
            results.append(
                (
                    result,
                    _doppler_tones(nus, t0, 1e-7, count),
                    _doppler_tones(nus, starts, 1e-7, count),
                )
            )
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert np.array_equal(a, b)


def test_tone_products_leave_the_callers_buffer_and_error_state():
    """The small buffer is scoped to apply_channel's tone products: the
    caller's buffer size and error state hold after each call, also when it
    raises, and the caller's error state holds inside.  The tap model's
    tones leave them as they are."""
    rate = 1e6
    # two paths with tone 1 add two 1e308 samples: an overflow inside the scope
    ch = DDChannel([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    wf = Waveform(np.full(300, 1e308, dtype=complex), rate, t0=0.3 / rate)
    with np.errstate(over="ignore", invalid="warn"):
        np.setbufsize(4096)
        state = np.geterr()
        with channel._row_buffer():
            inside = (np.getbufsize(), np.geterr())
        assert inside == (channel._UFUNC_BUFFER, state)
        assert np.isinf(apply_channel(ch, wf).samples.real).all()
        _doppler_tones(np.array([100.0, -50.0]), 0.0, 1e-6, 300)
        assert (np.getbufsize(), np.geterr()) == (4096, state)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                apply_channel(ch, wf)
            assert np.geterr() == dict.fromkeys(state, "raise") and np.getbufsize() == 4096
        assert (np.getbufsize(), np.geterr()) == (4096, state)


def test_apply_channel_linearity():
    a = _random_wf(seed=22)
    b = _random_wf(seed=23)
    ch = DDChannel([0.6 + 0.1j, 0.2 - 0.7j], [0.0, 7e-6], [321.0, -999.0])
    combined = apply_channel(
        ch, Waveform(2.0 * a.samples + 1j * b.samples, a.sample_rate, a.t0)
    )
    separate = (
        2.0 * apply_channel(ch, a).samples + 1j * apply_channel(ch, b).samples
    )
    assert np.max(np.abs(combined.samples - separate)) < 1e-12


def test_apply_channel_energy_bound_lti():
    wf = _random_wf(seed=24)
    gains = [0.8 + 0.1j, 0.3 - 0.2j, 0.1 + 0.4j]
    dt = 1.0 / wf.sample_rate
    ch = DDChannel(gains, 3 * dt * np.arange(3), np.zeros(3))
    out = apply_channel(ch, wf)
    bound = sum(abs(g) for g in gains) ** 2 * np.sum(np.abs(wf.samples) ** 2)
    assert np.sum(np.abs(out.samples) ** 2) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("n0", [np.nan, np.inf, -np.inf, -1e-9])
def test_add_awgn_refuses_a_density_that_is_not_finite_and_non_negative(n0):
    wf = _random_wf(seed=26)
    with pytest.raises(ValueError, match=f"^noise density must be finite and non-negative, got {n0}$"):
        add_awgn(wf, n0, np.random.default_rng(0))


def test_add_awgn_properties():
    wf = _random_wf(seed=25)
    same = add_awgn(wf, 0.0, np.random.default_rng(0))
    assert np.array_equal(same.samples, wf.samples)
    n0 = 1e-7
    big = Waveform(np.zeros(10**6, dtype=complex), sample_rate=1e6)
    noisy = add_awgn(big, n0, np.random.default_rng(5))
    var = np.mean(np.abs(noisy.samples) ** 2)
    assert abs(var - n0 * big.sample_rate) < 0.01 * n0 * big.sample_rate
    a = add_awgn(wf, n0, np.random.default_rng(6))
    b = add_awgn(wf, n0, np.random.default_rng(6))
    assert np.array_equal(a.samples, b.samples)


def test_add_awgn_draws_one_value_per_sample_of_any_shape():
    """A 1-D waveform of n samples draws n real parts, then n imaginary parts;
    a (rows, n) waveform draws one value per sample in row-major order, so
    it equals the 1-D waveform of rows n samples laid out as rows, and no
    two samples share a value."""
    n0, rate, n = 1e-7, 1e6, 50
    rng = np.random.default_rng(7)
    want = np.sqrt(n0 * rate / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    line = add_awgn(Waveform(np.zeros(n, dtype=complex), rate), n0, np.random.default_rng(7))
    assert np.array_equal(line.samples, want)
    for rows in (1, 3):
        zeros = Waveform(np.zeros((rows, n), dtype=complex), rate, t0=1e-6)
        noisy = add_awgn(zeros, n0, np.random.default_rng(7))
        assert noisy.samples.shape == (rows, n) and noisy.t0 == zeros.t0
        flat = add_awgn(Waveform(np.zeros(rows * n, dtype=complex), rate), n0,
                        np.random.default_rng(7))
        assert np.array_equal(noisy.samples.ravel(), flat.samples)
        assert len(np.unique(noisy.samples)) == rows * n
