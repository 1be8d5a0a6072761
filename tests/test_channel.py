"""Unit tests for delay-Doppler channels and AWGN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplab import (
    DDChannel,
    DDPath,
    Waveform,
    add_awgn,
    apply_channel,
    make_eva_channels,
)
from chirplab.channel import SPEED_OF_LIGHT, _doppler_tones


def _eva(rng, speed=500.0):
    """One EVA draw at 5 GHz and the given speed."""
    return make_eva_channels(5e9, [speed], rng)[0]


def test_eva_zero_speed_is_lti():
    ch = _eva(np.random.default_rng(1), 0.0)
    assert all(p.doppler == 0.0 for p in ch.paths)


def test_eva_doppler_bound_and_path_count():
    nu_max = (500.0 / 3.6) * 5e9 / SPEED_OF_LIGHT
    # ~2315 Hz with the exact speed of light (2314.8 with c = 3e8 m/s)
    assert abs(nu_max - 2314.8) < 2.0
    ch = _eva(np.random.default_rng(2), 500.0)
    assert len(ch.paths) == 9
    assert all(abs(p.doppler) <= nu_max + 1e-9 for p in ch.paths)
    # the bound is attained up to the drawn angles: some path sits near it
    assert max(abs(p.doppler) for p in ch.paths) > 0.5 * nu_max
    assert ch.paths[0].delay == 0.0
    assert abs(ch.paths[-1].delay - 2510e-9) < 1e-12


def test_eva_reproducible_and_normalized():
    a = _eva(np.random.default_rng(3))
    b = _eva(np.random.default_rng(3))
    for pa, pb in zip(a.paths, b.paths):
        assert pa.gain == pb.gain and pa.doppler == pb.doppler
    # power normalization holds in expectation; check the ensemble mean
    powers = []
    for s in range(200):
        ch = _eva(np.random.default_rng(s))
        powers.append(sum(abs(p.gain) ** 2 for p in ch.paths))
    assert abs(np.mean(powers) - 1.0) < 0.1


def test_channel_validation():
    with pytest.raises(ValueError):
        DDPath(1.0 + 0j, -1e-9, 0.0)
    with pytest.raises(ValueError):
        DDChannel([DDPath(1.0, 2e-6, 0.0), DDPath(1.0, 1e-6, 0.0)])


@pytest.mark.parametrize(
    "gain, delay, doppler, key",
    [(complex(np.nan, 0.0), 0.0, 0.0, "gain"), (complex(1.0, np.inf), 0.0, 0.0, "gain"),
     (1.0, np.nan, 0.0, "delay"), (1.0, np.inf, 0.0, "delay"),
     (1.0, 0.0, np.nan, "doppler"), (1.0, 0.0, -np.inf, "doppler")],
)
def test_path_rejects_non_finite_values(gain, delay, doppler, key):
    with pytest.raises(ValueError, match=f"path {key} must be finite"):
        DDPath(gain, delay, doppler)


def _random_wf(n=512, rate=1e6, seed=21):
    rng = np.random.default_rng(seed)
    return Waveform(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), sample_rate=rate
    )


def test_apply_channel_identity_path():
    wf = _random_wf()
    out = apply_channel(DDChannel([DDPath(1.0 + 0j, 0.0, 0.0)]), wf)
    assert np.max(np.abs(out.samples - wf.samples)) < 1e-14


def test_apply_channel_pure_doppler():
    wf = _random_wf()
    nu = 1234.5
    out = apply_channel(DDChannel([DDPath(1.0 + 0j, 0.0, nu)]), wf)
    tone = np.exp(2j * np.pi * nu * wf.times())
    assert np.max(np.abs(out.samples - wf.samples * tone)) < 1e-12


def test_apply_channel_matches_reference_loop():
    wf = _random_wf()
    dt = 1.0 / wf.sample_rate
    paths = [
        DDPath(0.7 - 0.2j, 0.0, 800.0),
        DDPath(0.3 + 0.4j, 5 * dt, -1500.0),
    ]
    out = apply_channel(DDChannel(paths), wf)
    ref = np.zeros(len(wf.samples) + 5, dtype=complex)
    t_out = wf.t0 + np.arange(len(ref)) * dt
    for p in paths:
        shift = int(round(p.delay / dt))
        for i, x in enumerate(wf.samples):
            j = i + shift
            t = t_out[j]
            ref[j] += p.gain * x * np.exp(2j * np.pi * p.doppler * (t - p.delay))
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
    ch = DDChannel(
        [
            DDPath(complex(rng.standard_normal(), rng.standard_normal()), d / rate, nu)
            for d, nu in sorted(paths)
        ]
    )
    out = apply_channel(ch, wf)
    shifts = [int(round(p.delay * rate)) for p in ch.paths]
    ref = np.zeros(n + max(shifts), dtype=complex)
    for p, s in zip(ch.paths, shifts):
        for i, x in enumerate(wf.samples):
            ref[i + s] += p.gain * x * np.exp(2j * np.pi * p.doppler * (t0 + i / rate))
    assert out.t0 == t0 and out.samples.shape == ref.shape
    scale = sum(abs(p.gain) for p in ch.paths) * np.max(np.abs(wf.samples))
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * scale


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


def test_apply_channel_linearity():
    a = _random_wf(seed=22)
    b = _random_wf(seed=23)
    ch = DDChannel(
        [DDPath(0.6 + 0.1j, 0.0, 321.0), DDPath(0.2 - 0.7j, 7e-6, -999.0)]
    )
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
    ch = DDChannel(
        [DDPath(g, i * 3 * dt, 0.0) for i, g in enumerate(gains)]
    )
    out = apply_channel(ch, wf)
    bound = sum(abs(g) for g in gains) ** 2 * np.sum(np.abs(wf.samples) ** 2)
    assert np.sum(np.abs(out.samples) ** 2) <= bound * (1.0 + 1e-12)


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
