"""Unit tests for configuration parsing, experiment drivers and the CLI."""

import csv
import re
import tracemalloc
from dataclasses import replace
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplab import ExperimentConfig, complexity_compare, inner_product_matrix, load_config
from chirplab import acceptance, cli, experiments
from chirplab.channel import make_eva_channels
from chirplab.receiver import ambiguity_values, effective_taps, tap_window
from chirplab.transforms import modulate
from chirplab.waveform import synth_ideal
from chirplab.experiments import (
    CONFIG_KEYS,
    SweepResult,
    config_from_dict,
    nmse_trial,
    qam4_symbols,
    run_iorel_check,
    run_nmse_sweep,
    simulate_frame,
    transform_multiply_count,
)


SMALL_NMSE = dict(n=64, trials=3, oversample=8, sweep_values=(0.0, 100.0))


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_config_defaults_and_rationals():
    ec = ExperimentConfig()
    cfg = ec.chirp_config()
    assert cfg.N == 1024
    assert abs(cfg.c1 - 1.0 / 4096.0) < 1e-18
    assert abs(cfg.c2 - 1.0 / 3072.0) < 1e-18
    assert abs(cfg.T - 266.667e-6) < 1e-12


def test_config_shrink():
    small = ExperimentConfig().shrink()
    assert small.n == 256 and small.trials == 20 and small.oversample == 8


def test_config_unknown_key_named():
    with pytest.raises(ValueError, match="bogus_key"):
        config_from_dict({"bogus_key": "1"})


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sweep="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(profile="etu")
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_values=(3.0, 1.0))


@pytest.mark.parametrize(
    "key, value",
    [("n", 63), ("n", 0), ("t_us", float("nan")), ("t_us", float("inf")),
     ("t_us", 0.0), ("t_us", -1.0), ("oversample", 1),
     ("c1_den", "0"), ("c2_den", "0N"), ("c1_den", "abc"), ("c1_num", "inf"),
     ("n", "3.5"), ("seed", "1e3"), ("sweep_values", "0,,5"),
     ("n", 64.5), ("trials", 2.9), ("seed", 1.7), ("q", float("nan")),
     ("oversample", 8.25), ("n", True), ("trials", True), ("seed", False),
     ("trials", 0)],
)
def test_config_rejects_bad_value_naming_key(key, value):
    """Raw text is converted by key first, and a value that does not convert
    is named with its key; typed values reach the configuration's own checks."""
    with pytest.raises(ValueError, match=rf"^{key} .*{value}"):
        config_from_dict({key: value})
    if not isinstance(value, str):
        with pytest.raises(ValueError, match=rf"^{key} .*{value}"):
            ExperimentConfig(**{key: value})


def test_config_rejects_unordered_sweep_values_naming_them():
    for values in ((3.0, 1.0), ()):
        with pytest.raises(ValueError, match=re.escape(
            f"sweep_values must be non-empty and ordered, got {list(values)}"
        )):
            ExperimentConfig(sweep_values=values)


def test_cli_zero_denominator_is_a_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, "c1_den = 0\n")
    assert cli.main(["psd", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: c1_den must be a finite non-zero number or multiple of N, got '0'\n"


def test_config_rejects_negative_seed(capsys):
    with pytest.raises(ValueError, match=r"^seed .*-3"):
        ExperimentConfig(seed=-3)
    assert cli.main(["nmse", "--small", "--seed", "-3"]) == 1
    assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err


def test_config_rejects_odd_or_short_span(tmp_path, capsys):
    for q in (7, 0, -2):
        with pytest.raises(ValueError, match=rf"^q .*{q}"):
            ExperimentConfig(q=q)
    path = _write_config(tmp_path, "q = 7\n")
    assert cli.main(["psd", "--config", path]) == 1
    assert "q must be an even integer >= 2, got 7" in capsys.readouterr().err


def test_config_rejects_non_finite_or_out_of_range_beta(tmp_path, capsys):
    for beta in (float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(ValueError, match=rf"^beta .*{beta}"):
            ExperimentConfig(beta=beta)
    path = _write_config(tmp_path, "beta = nan\n")
    assert cli.main(["psd", "--config", path]) == 1
    assert "beta must lie in [0, 1], got nan" in capsys.readouterr().err


def test_load_config_duplicate_key_names_key_and_lines(tmp_path):
    path = _write_config(tmp_path, "n = 64\n# comment\nq = 8\nn = 128\n")
    expected = r":4: duplicate configuration key n \(first set on line 1\)"
    with pytest.raises(ValueError, match=expected):
        load_config(path)


def test_cli_invalid_config_exits_one_naming_key(tmp_path, capsys):
    for text, key in [("n = 8\nn = 8\n", "n"), ("n = 31\n", "n"),
                      ("t_us = inf\n", "t_us"), ("oversample = 1\n", "oversample")]:
        path = _write_config(tmp_path, text)
        assert cli.main(["nmse", "--config", path]) == 1
        assert key in capsys.readouterr().err


def test_star_import_binds_no_module():
    namespace = {}
    exec("from chirplab import *", namespace)
    namespace.pop("__builtins__")
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
    assert "analytic_psd" in namespace and "ExperimentConfig" in namespace


def test_load_config_file(tmp_path):
    path = _write_config(
        tmp_path,
        """
        # comment line
        n = 256
        t_us = 266.667
        c1_den = 4N
        beta = 0.25
        q = 10
        trials = 7
        seed = 99
        sweep = rolloff
        """,
    )
    ec = load_config(path)
    assert ec.n == 256 and ec.q == 10 and ec.trials == 7 and ec.seed == 99
    assert ec.sweep == "rolloff" and abs(ec.beta - 0.25) < 1e-15
    overridden = load_config(path, {"seed": 1, "trials": 2})
    assert overridden.seed == 1 and overridden.trials == 2


def test_load_config_unknown_key(tmp_path):
    path = _write_config(tmp_path, "n = 64\nshoe_size = 42\n")
    with pytest.raises(ValueError, match="shoe_size"):
        load_config(path)


def test_sweep_result_csv_format(tmp_path, monkeypatch, capsys):
    sweep = SweepResult(
        values=[0.0, 250.0],
        nmse_db=np.array([-51.234567890123, -50.5]),
        stderr_db=np.array([0.25, 0.5]),
    )
    monkeypatch.setattr(cli, "run_nmse_sweep", lambda ec: sweep)
    out = tmp_path / "sweep.csv"
    assert cli.main(["nmse", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sweep_value,nmse_db,stderr_db"
    assert lines[1].split(",")[1] == "-51.2345678901"  # 12 significant digits


def test_matrix_csv_format(tmp_path):
    out = tmp_path / "mat.csv"
    m = np.array([1.0 + 2.0j])
    cli._write_csv(out, ("row", "col", "re", "im"), ([0], [0], m.real, m.imag))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert lines[1] == "0,0,1,2"


# The csv.writer loops that wrote each CSV before cli._write_csv: the oracle
# for byte identity.
def _csv_writer_sweep(path, values, nmse_db, stderr_db):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_value", "nmse_db", "stderr_db"])
        for v, m, s in zip(values, nmse_db, stderr_db):
            writer.writerow([f"{float(v):.12g}", f"{m:.12g}", f"{s:.12g}"])


def _csv_writer_psd(path, freq, psd_db):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "psd_db"])
        for f, p in zip(freq, psd_db):
            writer.writerow([f"{f:.12g}", f"{p:.12g}"])


def _csv_writer_grid(path, entries, t):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "n_prime", "abs_I_over_T"])
        for n in range(len(entries)):
            for n2 in range(len(entries)):
                writer.writerow([n, n2, f"{entries[n, n2] / t:.12g}"])


def _csv_writer_matrix(path, matrix):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        for r in range(matrix.shape[0]):
            for c in range(matrix.shape[1]):
                v = complex(matrix[r, c])
                writer.writerow([r, c, f"{v.real:.12g}", f"{v.imag:.12g}"])


# negative zero, values that round at the 12th digit, huge and tiny magnitudes,
# and the non-finite values
_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -51.234567890123, 0.1234567890125,
                     999999999999.5, 1e-300, -1e200, 5e-324,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(-1e200, 1e200),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS), min_size=1, max_size=40),
    span=st.booleans(),
    side=st.integers(1, 6),
    t=st.sampled_from([1e-3, 266.667e-6, 1.0]),
)
def test_write_csv_matches_csv_writer(tmp_path_factory, rows, span, side, t):
    """cli._write_csv writes each CSV byte for byte as csv.writer did."""
    tmp = tmp_path_factory.mktemp("csv")
    a, b, c = (np.array(col) for col in zip(*rows))
    # sweep: a span sweep has int points; the writer sees them as floats
    values = [int(v) for v in range(2, 2 + 2 * len(a), 2)] if span else list(a)
    _csv_writer_sweep(tmp / "want", values, b, c)
    cli._write_csv(tmp / "got", ("sweep_value", "nmse_db", "stderr_db"),
                   (np.asarray(values, dtype=float), b, c))
    assert (tmp / "got").read_bytes() == (tmp / "want").read_bytes()
    # PSD curve: frequencies and dB levels
    _csv_writer_psd(tmp / "want", a, b)
    cli._write_csv(tmp / "got", ("freq_hz", "psd_db"), (a, b))
    assert (tmp / "got").read_bytes() == (tmp / "want").read_bytes()
    # square grids: the ortho |I| (divided by T) and a complex matrix
    flat = np.resize(np.concatenate([a, b, c]), side * side)
    grid = np.abs(flat).reshape(side, side)
    ratio = grid / t
    n, n_prime = np.divmod(np.arange(ratio.size), side)
    _csv_writer_grid(tmp / "want", grid, t)
    cli._write_csv(tmp / "got", ("n", "n_prime", "abs_I_over_T"), (n, n_prime, ratio.ravel()))
    assert (tmp / "got").read_bytes() == (tmp / "want").read_bytes()
    # set the parts directly: 1j * inf would put a nan in the real part
    matrix = np.empty(side * side, dtype=complex)
    matrix.real, matrix.imag = flat, np.resize(c, side * side)
    matrix = matrix.reshape(side, side)
    _csv_writer_matrix(tmp / "want", matrix)
    h = matrix.ravel()
    cli._write_csv(tmp / "got", ("row", "col", "re", "im"), (n, n_prime, h.real, h.imag))
    assert (tmp / "got").read_bytes() == (tmp / "want").read_bytes()


def test_qam4_symbols_equal_the_arithmetic_map():
    """The table lookup is bit for bit the arithmetic 4-QAM map of the same bits."""
    for seed in range(20):
        n = 1 + 37 * seed
        bits = np.random.default_rng([seed, 5]).integers(0, 2, size=(2, n))
        want = ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / np.sqrt(2.0)
        got = qam4_symbols(n, np.random.default_rng([seed, 5]))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_write_csv_streams_blocks_identically(tmp_path, monkeypatch):
    """A grid larger than one block is written as if in one piece."""
    cfg = ExperimentConfig(n=16, c1_num=16.0, c1_den="2N").chirp_config()
    grid = inner_product_matrix(cfg)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    n, n_prime = np.divmod(np.arange(grid.size), 16)
    cli._write_csv(tmp_path / "got", ("n", "n_prime", "abs_I_over_T"),
                   (n, n_prime, (grid / cfg.T).ravel()))
    _csv_writer_grid(tmp_path / "want", grid, cfg.T)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_run_nmse_sweep_deterministic():
    ec = ExperimentConfig(seed=5, **SMALL_NMSE)
    a = run_nmse_sweep(ec)
    b = run_nmse_sweep(ec)
    assert np.array_equal(a.nmse_db, b.nmse_db)
    assert np.array_equal(a.stderr_db, b.stderr_db)
    c = run_nmse_sweep(ExperimentConfig(seed=6, **SMALL_NMSE))
    assert not np.array_equal(a.nmse_db, c.nmse_db)


def _nmse_sweep_per_point(ec):
    """Oracle: the sweep as a per-point loop that designs the point's filter,
    redraws every trial's channel at the point's speed and symbols from
    default_rng([seed, trial]), and calls ``nmse_trial``.  It names each
    kind's key itself rather than reading ``SWEEPS``."""
    cfg = ec.chirp_config()
    means, errs = [], []
    for value in ec.sweep_values:
        if ec.sweep == "speed":
            filt, speed = ec.srrc(), value
        elif ec.sweep == "rolloff":
            filt, speed = replace(ec, beta=value).srrc(), ec.speed_kmh
        else:
            filt, speed = replace(ec, q=int(value)).srrc(), ec.speed_kmh
        samples = np.empty(ec.trials)
        for t in range(ec.trials):
            rng = np.random.default_rng([ec.seed, t])
            (channel,) = make_eva_channels(ec.fc_hz, [speed], rng)
            samples[t] = nmse_trial(cfg, filt, channel, qam4_symbols(cfg.N, rng))
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(ec.trials) if ec.trials > 1 else 0.0
        means.append(10.0 * np.log10(mean))
        errs.append((10.0 / np.log(10.0)) * stderr / mean)
    return np.array(means), np.array(errs)


_SWEEP_POINTS = {
    "speed": st.floats(0.0, 600.0),
    "rolloff": st.floats(0.0, 1.0),
    "span": st.integers(1, 4).map(lambda h: 2.0 * h),
}


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(sorted(_SWEEP_POINTS)).flatmap(
        lambda kind: st.tuples(
            st.just(kind), st.lists(_SWEEP_POINTS[kind], min_size=1, max_size=4)
        )
    ),
    half_n=st.sampled_from([16, 32]),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_nmse_sweep_equals_per_point_oracle(case, half_n, trials, seed):
    """Trials outer, one draw and one transmit shared by the points, equals
    drawing and simulating afresh at every point.  Repeated values make
    neighbouring points share a filter; a roll-off sweep changes the filter
    but not the tap count."""
    kind, values = case
    ec = ExperimentConfig(n=2 * half_n, oversample=4, trials=trials, seed=seed,
                          sweep=kind, sweep_values=tuple(sorted(values)))
    got = run_nmse_sweep(ec)
    means, errs = _nmse_sweep_per_point(ec)
    for a, b in ((got.nmse_db, means), (got.stderr_db, errs)):
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))
        assert [f"{v:.12g}" for v in a] == [f"{v:.12g}" for v in b]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    points=st.lists(st.tuples(st.integers(1, 5), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    half_n=st.sampled_from([16, 32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_points_sharing_a_channel_are_received_as_rows_equal_to_each_alone(points, half_n, seed):
    """Points with mixed spans and roll-offs that share one channel object
    pass the channel and the matched filter as rows of one array; each row
    equals its point received alone, bit for bit."""
    ec = ExperimentConfig(n=2 * half_n, oversample=4, seed=seed)
    cfg = ec.chirp_config()
    rng = np.random.default_rng([seed, 0])
    (channel,) = make_eva_channels(ec.fc_hz, [ec.speed_kmh], rng)
    x = modulate(cfg, qam4_symbols(cfg.N, rng))
    filts = [replace(ec, q=2 * half_q, beta=beta).srrc() for half_q, beta in points]
    windows = [tap_window(channel, f) for f in filts]
    waves = [experiments._transmit(cfg, f, x, n_taps) for f, (_, n_taps) in zip(filts, windows)]
    leads = [lead for lead, _ in windows]
    rows = experiments._receive(cfg, filts, channel, waves, leads)
    assert rows.shape == (len(points), cfg.N)
    for row, filt, wf, lead in zip(rows, filts, waves, leads):
        assert np.array_equal(row, experiments._receive(cfg, [filt], channel, [wf], [lead])[0])


def test_points_sharing_a_filter_with_two_windows_each_equal_their_point_alone():
    """One filter object with the default and the exact window: each point
    is transmitted with its own prefix, so its received frame equals the
    point simulated alone, bit for bit, and its NMSE equals ``nmse_trial``.
    A transmit shared on the filter object alone gave the exact window
    1.04e-4 here instead of 2.33e-31."""
    ec = ExperimentConfig(n=64, oversample=4, seed=3)
    cfg = ec.chirp_config()
    rng = np.random.default_rng([3, 0])
    (channel,) = make_eva_channels(ec.fc_hz, [ec.speed_kmh], rng)
    symbols = qam4_symbols(cfg.N, rng)
    filt = ec.srrc()
    windows = [tap_window(channel, filt), tap_window(channel, filt, exact=True)]
    assert windows == [(6, 14), (12, 26)]
    stack = simulate_frame(cfg, [filt, filt], [channel, channel], symbols, windows)
    nmse, _ = experiments._nmse_points(cfg, [filt, filt], [channel, channel], symbols, windows)
    for row, window, got, exact in zip(stack, windows, nmse, (False, True)):
        assert np.array_equal(row, simulate_frame(cfg, [filt], [channel], symbols, [window])[0])
        assert got == nmse_trial(cfg, filt, channel, symbols, exact_window=exact)
    assert nmse[1] < 1e-25


@pytest.mark.parametrize("sweep", ["span", "rolloff", "speed"])
def test_row_batch_size_does_not_change_the_sweep(sweep, monkeypatch):
    ec = ExperimentConfig(n=64, oversample=4, trials=2, seed=3, sweep=sweep)
    results = []
    for budget in (1, 1 << 30):  # one row per call, then whole runs of rows
        monkeypatch.setattr(experiments, "_ROW_BATCH_BYTES", budget)
        results.append(run_nmse_sweep(ec))
    assert np.array_equal(results[0].nmse_db, results[1].nmse_db)
    assert np.array_equal(results[0].stderr_db, results[1].stderr_db)


@pytest.mark.parametrize("sweep", ["span", "rolloff", "speed"])
def test_ambiguity_block_size_does_not_change_the_sweep(sweep, monkeypatch):
    """One trial per ``ambiguity_values`` call, then all trials in one call."""
    ec = ExperimentConfig(n=64, oversample=4, trials=3, seed=5, sweep=sweep)
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return ambiguity_values(*args)

    monkeypatch.setattr(experiments, "ambiguity_values", counted)
    results = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(experiments, "_AMBIGUITY_BLOCK_BYTES", budget)
        results.append(run_nmse_sweep(ec))
    points = len(ec.sweep_configs())
    assert calls == [points] * 3 + [3 * points]
    one, whole = results
    for a, b in ((one.nmse_db, whole.nmse_db), (one.stderr_db, whole.stderr_db)):
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))
        assert [f"{v:.12g}" for v in a] == [f"{v:.12g}" for v in b]


def test_psd_frames_are_synthesised_in_blocks_of_the_byte_budget(monkeypatch):
    """16 frames a block at N O = 16,384, and the same PSD whatever the
    block: one frame a block, or every frame in one block."""
    sizes = []

    def counted(cfg, symbols, oversampling):
        sizes.append(len(symbols))
        return synth_ideal(cfg, symbols, oversampling)

    monkeypatch.setattr(experiments, "synth_ideal", counted)
    experiments.run_psd_experiment(ExperimentConfig(trials=36, seed=4))
    assert sizes == [16, 16, 4]
    small = ExperimentConfig(n=64, oversample=4, trials=12, seed=4)
    results = []
    for budget in (1, 1 << 40):
        sizes.clear()
        monkeypatch.setattr(experiments, "_PSD_BLOCK_BYTES", budget)
        results.append(experiments.run_psd_experiment(small))
        assert sizes == ([1] * 12 if budget == 1 else [12])
    (ana1, emp1, bw1), (ana2, emp2, bw2) = results
    assert np.array_equal(emp1.psd, emp2.psd) and np.array_equal(ana1.psd, ana2.psd)
    assert bw1 == bw2


def test_psd_memory_does_not_grow_with_the_frame_count():
    """Desk scale, N O = 2048: 128 frames fill one block, and 4x the frames
    stay within 1.25x of its traced peak (the whole stack would be 4x)."""
    peaks = []
    for frames in (128, 512):
        ec = ExperimentConfig(n=256, oversample=8, trials=frames, seed=2)
        experiments.run_psd_experiment(ec)
        tracemalloc.start()
        try:
            experiments.run_psd_experiment(ec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_run_iorel_check_reports_small_errors():
    ec = ExperimentConfig(n=64, trials=1, oversample=8, seed=11)
    report, taps = run_iorel_check(ec)
    # the taps are the default window of the one nine-path channel it drew
    (channel,) = make_eva_channels(ec.fc_hz, [ec.speed_kmh], np.random.default_rng([11, 0]))
    assert len(channel.gains) == 9
    filt = ec.srrc()
    want = effective_taps([channel], [filt], 64, [tap_window(channel, filt)])[0]
    assert np.array_equal(taps, want)
    assert report["nmse_model_db"] < -40.0
    assert report["nmse_exact_db"] < -200.0


def test_transform_multiply_count_and_ratio(monkeypatch):
    assert transform_multiply_count(1024) == 512 * 10
    # an exact N log N cost: the fitted slope is that of n log n over the sizes
    monkeypatch.setattr(experiments, "measure_transform_time", lambda n: 1e-9 * n * np.log(n))
    report = complexity_compare(1024, 32)
    assert report["count_ratio"] == 2.0
    sizes = np.array(report["measured_sizes"])
    want = np.polyfit(np.log(sizes), np.log(sizes * np.log(sizes)), 1)[0]
    assert abs(report["loglog_slope"] - want) < 1e-12
    assert report["measured_seconds"] == [1e-9 * n * np.log(n) for n in sizes]
    report = complexity_compare(1024, 1024)
    assert report["count_ratio"] == 1.0
    with pytest.raises(ValueError):
        complexity_compare(1024, 33)
    # sizes it cannot count are refused, naming the argument and the value
    for n, n_od, want in [(1024, 0, "^n_od .*0"), (1024, -32, "^n_od .*-32"),
                          (0, 32, "^n .*0"), (1024, 1, "^n_od .*1")]:
        with pytest.raises(ValueError, match=want):
            complexity_compare(n, n_od)


def test_cli_complexity_rejects_a_bank_size_below_two(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "measure_transform_time",
                        lambda n: pytest.fail("measured before the sizes were checked"))
    assert cli.main(["complexity", "--n-od", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: n_od must be >= 2, got 0"]


def test_complexity_refuses_sizes_that_are_not_powers_of_two(monkeypatch, capsys):
    """A radix-2 count of 96 would be fractional (316.08): refused before timing."""
    monkeypatch.setattr(experiments, "measure_transform_time",
                        lambda n: pytest.fail("measured before the sizes were checked"))
    for n, n_od, want in [(96, 32, "^n must be a power of two, got 96$"),
                          (1024, 24, "^n_od must be a power of two, got 24$")]:
        with pytest.raises(ValueError, match=want):
            complexity_compare(n, n_od)
    assert cli.main(["complexity", "--n", "96"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: n must be a power of two, got 96"]


def test_cli_rejects_options_a_subcommand_does_not_take(capsys):
    assert cli.main(["selftest", "--out", "x"]) == 1
    assert "unrecognized arguments: --out x" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_one(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_cli_missing_config_names_path(capsys):
    rc = cli.main(["nmse", "--config", "/nonexistent/path.cfg"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "/nonexistent/path.cfg" in captured.err


def test_cli_unknown_config_key_names_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 64\nwarp_factor = 9\n")
    rc = cli.main(["nmse", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "warp_factor" in captured.err


def test_cli_nmse_writes_csv_and_is_deterministic(tmp_path, capsys):
    cfg_text = (
        "n = 64\ntrials = 2\noversample = 8\nseed = 3\n"
        "sweep = speed\nsweep_values = 0, 200\n"
    )
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["nmse", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["nmse", "--config", str(path), "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().splitlines()[0] == "sweep_value,nmse_db,stderr_db"


@pytest.mark.parametrize(
    "config, argv, trials",
    [
        ("", ["--small"], 20),
        ("", ["--small", "--trials", "3"], 3),
        ("", ["--trials", "3", "--small"], 3),
        ("trials = 5\n", ["--small"], 20),
        ("trials = 5\n", ["--small", "--trials", "3"], 3),
        ("trials = 5\n", ["--trials", "3"], 3),
    ],
    ids=["small", "small-trials", "trials-small", "file-small", "file-small-trials", "file-trials"],
)
def test_cli_small_keeps_an_explicit_trial_count(tmp_path, monkeypatch, config, argv, trials):
    """--small shrinks to 20 trials, a config file's count included, but an
    explicit --trials is applied after it."""
    seen = []

    def sweep(ec):
        seen.append(ec)
        return SweepResult(values=[0.0], nmse_db=[-40.0], stderr_db=[0.0])

    monkeypatch.setattr(cli, "run_nmse_sweep", sweep)
    assert cli.main(["nmse", "--config", _write_config(tmp_path, config), *argv]) == 0
    (ec,) = seen
    assert ec.trials == trials
    assert (ec.n, ec.oversample) == ((256, 8) if "--small" in argv else (1024, 16))


def test_cli_nmse_rejects_a_tap_span_longer_than_the_frame(tmp_path, capsys):
    path = _write_config(tmp_path, "n = 16\nq = 16\noversample = 4\ntrials = 1\n")
    assert cli.main(["nmse", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "q = 16 needs a window of 18 taps, more than n = 16 allows" in err, err


@pytest.mark.parametrize("command, config, message", [
    ("nmse", "q = 20\n", "q = 20 needs a window of 22 taps, more than n = 16 allows"),
    ("nmse", "sweep = span\nsweep_values = 6, 8, 16\n",
     "q = 16 needs a window of 18 taps, more than n = 16 allows"),
    # the default window (14 taps) fits; the exact one (L + q taps) does not
    ("iorel", "q = 12\n", "q = 12 needs a window of 26 taps, more than n = 16 allows"),
])
def test_a_tap_window_longer_than_the_frame_is_refused_before_any_trial(
    command, config, message, tmp_path, capsys, monkeypatch
):
    trials = []
    monkeypatch.setattr(experiments, "_nmse_points", lambda *args: trials.append(args))
    path = _write_config(tmp_path, f"n = 16\noversample = 4\ntrials = 2\n{config}")
    assert cli.main([command, "--config", path]) == 1
    assert message in capsys.readouterr().err
    assert not trials


def test_cli_psd_writes_both_curves(tmp_path, capsys):
    cfg_text = "n = 64\ntrials = 10\noversample = 8\nseed = 4\n"
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "psd.csv"
    assert cli.main(["psd", "--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "occupied_bandwidth_hz" in captured.out
    assert out.read_text().splitlines()[0] == "freq_hz,psd_db"
    analytic = tmp_path / "psd_analytic.csv"
    assert analytic.read_text().splitlines()[0] == "freq_hz,psd_db"


@pytest.mark.parametrize(
    "out, analytic",
    [("run.1/psd", "run.1/psd_analytic"),
     ("out/psd.csv", "out/psd_analytic.csv"),
     ("a.b.csv", "a.b_analytic.csv")],
)
def test_cli_psd_names_the_analytic_curve_after_the_file_name(tmp_path, out, analytic):
    """Only the file name gains _analytic, before its last suffix; directories keep theirs."""
    path = tmp_path / "exp.cfg"
    path.write_text("n = 64\ntrials = 10\noversample = 8\nseed = 4\n")
    (tmp_path / out).parent.mkdir(exist_ok=True)
    assert cli.main(["psd", "--config", str(path), "--out", str(tmp_path / out)]) == 0
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p != path)
    assert written == sorted([tmp_path / out, tmp_path / analytic])


def test_cli_ortho_reports_prediction(tmp_path, capsys):
    # N = 32 with integer fold count C = 16: c1 = 16 / (2 N)
    cfg_text = "n = 32\nc1_num = 16\nc1_den = 2N\nc2_num = 0\nc2_den = 3N\n"
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "grid.csv"
    assert cli.main(["ortho", "--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "pairs_above_threshold" in captured.out
    assert out.read_text().splitlines()[0] == "n,n_prime,abs_I_over_T"


def test_cli_ortho_predictor_agrees_at_c16(tmp_path, capsys):
    # N = 32, C = 16 with the default c2 = 1 / (3 N)
    path = tmp_path / "exp.cfg"
    path.write_text("n = 32\nc1_num = 16\nc1_den = 2N\n")
    assert cli.main(["ortho", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "predictor_agrees = True" in lines
    assert "aliased_below_threshold = 0" in lines


def test_cli_ortho_without_folds(tmp_path, capsys):
    # c1 = 0 gives C = 0: no folds, so the chirps are exactly orthogonal
    path = tmp_path / "exp.cfg"
    path.write_text("n = 32\nc1_num = 0\n")
    assert cli.main(["ortho", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pairs_above_threshold = 0",
        "predictor_agrees = True",
        "aliased_below_threshold = 0",
    ]


def test_cli_ortho_compares_predictor_with_grid_support(monkeypatch, capsys):
    """A pair with 0 < |I| <= 0.05 T is aliased: it agrees with the exact
    predictor and is counted once as aliased below the threshold."""
    t = ExperimentConfig().T
    grid = np.eye(4) * t
    grid[0, 2] = grid[2, 0] = 0.01 * t
    predictions = grid > 0
    monkeypatch.setattr(cli, "run_ortho_experiment", lambda ec: (grid, predictions))
    assert cli.main(["ortho"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "pairs_above_threshold = 0",
        "predictor_agrees = True",
        "aliased_below_threshold = 1",
    ]


def test_span_sweep_rejects_non_integer_and_odd_values(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"sweep_values.*6\.5"):
        config_from_dict({"sweep": "span", "sweep_values": "6, 6.5, 8"})
    for bad in (7.25, 7, 0):
        with pytest.raises(ValueError, match=f"sweep_values.*{bad}"):
            ExperimentConfig(sweep="span", sweep_values=(bad, 8))
    points = ExperimentConfig(sweep="span", sweep_values=(6.0, 8.0)).sweep_configs()
    assert [p.q for p in points] == [6, 8]
    path = tmp_path / "span.cfg"
    path.write_text("n = 64\nsweep = span\nsweep_values = 6, 6.5\n")
    assert cli.main(["nmse", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sweep_values" in err and "6.5" in err


def test_rolloff_sweep_rejects_values_outside_unit_interval(tmp_path, capsys):
    for bad in (1.5, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^sweep_values: beta .*{bad}"):
            ExperimentConfig(sweep="rolloff", sweep_values=(0.1, bad))
    path = _write_config(tmp_path, "n = 64\nsweep = rolloff\nsweep_values = 0.2, 1.5\n")
    assert cli.main(["nmse", "--config", path]) == 1
    assert "sweep_values: beta must lie in [0, 1], got 1.5" in capsys.readouterr().err


def test_speed_sweep_rejects_non_finite_values(tmp_path, capsys):
    """NaN compares false, so it used to pass the order check."""
    for bad in (float("nan"), float("inf"), -float("inf"), -5.0):
        with pytest.raises(ValueError, match=f"^sweep_values: speed_kmh .*{bad}"):
            ExperimentConfig(sweep="speed", sweep_values=(0.0, bad))
    path = _write_config(tmp_path, "n = 64\nsweep = speed\nsweep_values = 0, nan\n")
    assert cli.main(["nmse", "--config", path]) == 1
    assert "sweep_values: speed_kmh must be finite and non-negative, got nan" in (
        capsys.readouterr().err
    )


# legal and illegal points of each kind; a span point is an int or a
# non-integral float, as an integral float is the one value a sweep converts
_ANY_POINT = {
    "speed": st.floats(-10.0, 600.0) | st.sampled_from([float("nan"), float("inf")]),
    "rolloff": st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf")]),
    "span": st.integers(1, 12).map(lambda h: 2 * h) | st.integers(-4, 24)
    | st.floats(-4.0, 24.0).filter(lambda v: not v.is_integer()),
}


def _accepted(make):
    try:
        return make()
    except ValueError:
        return None


@pytest.mark.parametrize("kind, key", [("speed", "speed_kmh"), ("rolloff", "beta"), ("span", "q")])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_point_is_the_config_with_the_swept_key_replaced(kind, key, data):
    """A sweep is accepted iff its values are non-empty and ordered and the
    default configuration with the swept key set to each value is accepted;
    its points are then those configurations."""
    values = data.draw(st.lists(_ANY_POINT[kind], max_size=4).flatmap(
        lambda vs: st.sampled_from([tuple(vs), tuple(sorted(vs))])
    ))
    base = ExperimentConfig(sweep=kind)
    want = [_accepted(lambda v=v: replace(base, **{key: v})) for v in values]
    ordered = bool(values) and all(a <= b for a, b in zip(values[:-1], values[1:]))
    got = _accepted(lambda: ExperimentConfig(sweep=kind, sweep_values=values))
    assert (got is not None) == (ordered and None not in want)
    if got is not None:
        assert got.sweep_configs() == want


def test_config_rejects_non_finite_or_negative_speed(tmp_path, capsys):
    for speed in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=rf"^speed_kmh .*{speed}"):
            ExperimentConfig(speed_kmh=speed)
    path = _write_config(tmp_path, "speed_kmh = -1\n")
    assert cli.main(["iorel", "--config", path]) == 1
    assert "speed_kmh must be finite and non-negative, got -1.0" in capsys.readouterr().err


def test_config_rejects_non_finite_or_non_positive_carrier(tmp_path, capsys):
    for fc in (float("nan"), -float("inf"), 0.0, -5e9):
        with pytest.raises(ValueError, match=rf"^fc_hz .*{fc}"):
            ExperimentConfig(fc_hz=fc)
    path = _write_config(tmp_path, "fc_hz = inf\n")
    assert cli.main(["nmse", "--config", path]) == 1
    assert "fc_hz must be finite and positive, got inf" in capsys.readouterr().err


def test_cli_iorel_out_writes_the_reported_channel(tmp_path, monkeypatch, capsys):
    """iorel --out builds its matrix from the one channel the check drew."""
    drawn = []
    draw = experiments.make_eva_channels

    def counting(carrier_hz, speeds_kmh, rng):
        drawn.append(draw(carrier_hz, speeds_kmh, rng))
        return drawn[-1]

    for module in (experiments, cli):
        if hasattr(module, "make_eva_channels"):
            monkeypatch.setattr(module, "make_eva_channels", counting)
    out = tmp_path / "hu.csv"
    assert cli.main(["iorel", "--small", "--out", str(out)]) == 0
    assert len(drawn) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 256 * 256
    assert lines[1].startswith("0,0,") and lines[-1].startswith("255,255,")
    assert "n = 256" in capsys.readouterr().out


def _sweep_values(kind):
    """None or an ordered tuple of legal points of one sweep kind."""
    value = {
        "speed": st.floats(0.0, 1000.0),
        "rolloff": st.floats(0.0, 1.0),
        "span": st.integers(1, 20).map(lambda v: 2.0 * v),
    }[kind]
    return st.one_of(st.none(), st.lists(value, min_size=1, max_size=6).map(sorted).map(tuple))


def _config_values():
    """Random valid ExperimentConfig field values."""
    return st.sampled_from(["speed", "rolloff", "span"]).flatmap(_config_values_of_kind)


def _config_values_of_kind(kind):
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    positive = st.floats(1e-3, 1e4, allow_nan=False)
    den = st.one_of(st.sampled_from(["4N", "3N", "2N", "N", "0.5N"]),
                    positive.map(repr))
    return st.fixed_dictionaries(
        {
            "n": st.integers(1, 2048).map(lambda h: 2 * h),
            "t_us": positive,
            "c1_num": finite,
            "c1_den": den,
            "c2_num": finite,
            "c2_den": den,
            "beta": st.floats(0.0, 1.0),
            "q": st.integers(1, 20).map(lambda h: 2 * h),
            "oversample": st.integers(2, 64),
            "fc_hz": positive,
            "speed_kmh": st.floats(0.0, 1000.0),
            "trials": st.integers(1, 1000),
            "seed": st.integers(0, 2**63 - 1),
            "sweep": st.just(kind),
            "sweep_values": _sweep_values(kind),
        }
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=_config_values())
def test_load_config_round_trip(tmp_path_factory, values):
    """Writing a valid config as key = value lines and loading it is lossless."""
    ec = ExperimentConfig(**values)
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(ec, key)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}\n")
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text("".join(lines))
    assert load_config(path) == ec


def test_cli_complexity(capsys, monkeypatch, measured_complexity):
    monkeypatch.setattr(cli, "complexity_compare", measured_complexity)
    assert cli.main(["complexity", "--n", "1024", "--n-od", "32"]) == 0
    captured = capsys.readouterr()
    assert "count_ratio = 2" in captured.out
    assert "loglog_slope" in captured.out


@pytest.mark.parametrize("name", [c.__name__ for c in acceptance.ALL_CRITERIA])
def test_criterion_detail_ends_with_its_elapsed_time(name, monkeypatch, measured_complexity):
    """Every criterion's line ends with its elapsed time, which its result
    holds; the sweeps are stubbed, since only the line is read here."""
    monkeypatch.setattr(acceptance, "complexity_compare", measured_complexity)
    monkeypatch.setattr(acceptance, "run_nmse_sweep",
                        lambda ec: SweepResult([0.0, 1.0], [-60.0, -61.0], [0.1, 0.1]))
    result = getattr(acceptance, name)()
    status = "PASS" if result.passed else "FAIL"
    assert result.line() == f"{status} {result.name}: {result.detail}, {result.elapsed:.1f}s"
    assert re.fullmatch(r"criterion-\d\d-[a-z-]+", result.name)
    assert 0.0 <= result.elapsed < 60.0


@pytest.mark.parametrize("criterion, small, elapsed, passed", [
    ("criterion_01_transforms", False, 9.9, True),
    ("criterion_01_transforms", False, 10.0, False),
    ("criterion_07_speed_sweep", True, 179.9, True),
    ("criterion_07_speed_sweep", True, 180.0, False),
    ("criterion_07_speed_sweep", False, 1799.9, True),
    ("criterion_07_speed_sweep", False, 1800.0, False),
    ("criterion_11_dual_path", False, 1e6, True),  # no time budget
])
def test_criterion_fails_when_it_runs_over_its_time_budget(
    criterion, small, elapsed, passed, monkeypatch
):
    clock = iter([0.0, elapsed])
    monkeypatch.setattr(acceptance, "time", ModuleType("clock"))
    acceptance.time.perf_counter = lambda: next(clock)
    monkeypatch.setattr(acceptance, "run_nmse_sweep",
                        lambda ec: SweepResult([0.0], [-60.0], [0.1]))
    result = getattr(acceptance, criterion)(small=small)
    assert (result.passed, result.elapsed) == (passed, elapsed)


def test_cli_selftest_exit_codes(monkeypatch, capsys):
    ok = acceptance.CriterionResult("criterion-x", True, "fine", 0.3)
    bad = acceptance.CriterionResult("criterion-y", False, "broken", 3.0)
    monkeypatch.setattr(acceptance, "run_all", lambda small=False: [ok])
    assert cli.main(["selftest"]) == 0
    monkeypatch.setattr(acceptance, "run_all", lambda small=False: [ok, bad])
    assert cli.main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert "PASS criterion-x: fine, 0.3s" in captured.out
    assert "FAIL criterion-y: broken, 3.0s" in captured.out
