"""Unit tests for delay-Doppler channels and AWGN."""

import numpy as np
import pytest

from chirplab import (
    ChannelRealizationSpec,
    DDChannel,
    DDPath,
    Waveform,
    add_awgn,
    apply_channel,
    make_eva_channel,
)


def _spec(speed=500.0):
    return ChannelRealizationSpec(carrier_hz=5e9, speed_kmh=speed)


def test_eva_zero_speed_is_lti():
    ch = make_eva_channel(_spec(0.0), np.random.default_rng(1))
    assert all(p.doppler == 0.0 for p in ch.paths)


def test_eva_doppler_bound_and_path_count():
    spec = _spec(500.0)
    # ~2315 Hz with the exact speed of light (2314.8 with c = 3e8 m/s)
    assert abs(spec.max_doppler_hz - 2314.8) < 2.0
    ch = make_eva_channel(spec, np.random.default_rng(2))
    assert len(ch.paths) == 9
    assert all(abs(p.doppler) <= spec.max_doppler_hz + 1e-9 for p in ch.paths)
    assert ch.paths[0].delay == 0.0
    assert abs(ch.max_delay - 2510e-9) < 1e-12


def test_eva_reproducible_and_normalized():
    a = make_eva_channel(_spec(), np.random.default_rng(3))
    b = make_eva_channel(_spec(), np.random.default_rng(3))
    for pa, pb in zip(a.paths, b.paths):
        assert pa.gain == pb.gain and pa.doppler == pb.doppler
    # power normalization holds in expectation; check the ensemble mean
    powers = []
    for s in range(200):
        ch = make_eva_channel(_spec(), np.random.default_rng(s))
        powers.append(ch.total_power())
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


def test_channel_csv_round_trip(tmp_path):
    ch = DDChannel(
        [DDPath(0.5 - 0.25j, 0.0, 100.0), DDPath(0.1 + 0.9j, 3e-7, -55.5)]
    )
    out = tmp_path / "channel.csv"
    ch.save_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gain_re,gain_im,delay_s,doppler_hz"
    loaded = DDChannel.load_csv(out)
    for a, b in zip(ch.paths, loaded.paths):
        assert abs(a.gain - b.gain) < 1e-12
        assert abs(a.delay - b.delay) < 1e-18
        assert abs(a.doppler - b.doppler) < 1e-9


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
    bound = sum(abs(g) for g in gains) ** 2 * wf.energy()
    assert out.energy() <= bound * (1.0 + 1e-12)


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
