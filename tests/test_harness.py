"""Unit tests for configuration parsing, experiment drivers and the CLI."""

from types import ModuleType

import numpy as np
import pytest

from chirplab import ExperimentConfig, complexity_compare, load_config
from chirplab import acceptance, cli
from chirplab.experiments import (
    SweepResult,
    config_from_dict,
    matrix_to_csv,
    run_iorel_check,
    run_nmse_sweep,
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
     ("t_us", 0.0), ("t_us", -1.0), ("oversample", 1)],
)
def test_config_rejects_bad_value_naming_key(key, value):
    with pytest.raises(ValueError, match=rf"^{key} .*{value}"):
        ExperimentConfig(**{key: value})


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


def test_sweep_result_csv_format(tmp_path):
    sweep = SweepResult(
        sweep="speed",
        values=[0.0, 250.0],
        nmse_db=np.array([-51.234567890123, -50.5]),
        stderr_db=np.array([0.25, 0.5]),
    )
    out = tmp_path / "sweep.csv"
    sweep.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sweep_value,nmse_db,stderr_db"
    assert lines[1].split(",")[1] == "-51.2345678901"  # 12 significant digits


def test_matrix_csv_format(tmp_path):
    out = tmp_path / "mat.csv"
    matrix_to_csv(np.array([[1.0 + 2.0j]]), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert lines[1] == "0,0,1,2"


def test_run_nmse_sweep_deterministic():
    ec = ExperimentConfig(seed=5, **SMALL_NMSE)
    a = run_nmse_sweep(ec)
    b = run_nmse_sweep(ec)
    assert np.array_equal(a.nmse_db, b.nmse_db)
    assert np.array_equal(a.stderr_db, b.stderr_db)
    c = run_nmse_sweep(ExperimentConfig(seed=6, **SMALL_NMSE))
    assert not np.array_equal(a.nmse_db, c.nmse_db)


def test_run_iorel_check_reports_small_errors():
    ec = ExperimentConfig(n=64, trials=1, oversample=8, seed=11)
    report = run_iorel_check(ec)
    assert report["nmse_model_db"] < -40.0
    assert report["nmse_exact_db"] < -200.0


def test_transform_multiply_count_and_ratio():
    assert transform_multiply_count(1024) == 512 * 10
    report = complexity_compare(1024, 32, measure=False)
    assert report["count_ratio"] == 2.0
    report = complexity_compare(1024, 1024, measure=False)
    assert report["count_ratio"] == 1.0
    with pytest.raises(ValueError):
        complexity_compare(1024, 33, measure=False)


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
    from chirplab.aliasing import OrthogonalityMatrix

    cfg = ExperimentConfig(n=4).chirp_config()
    entries = np.eye(4) * cfg.T
    entries[0, 2] = entries[2, 0] = 0.01 * cfg.T
    predictions = entries > 0
    grid = OrthogonalityMatrix(entries=entries, cfg=cfg, method="stub")
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
    assert ExperimentConfig(sweep="span", sweep_values=(6.0, 8.0)).sweep_points() == [6, 8]
    path = tmp_path / "span.cfg"
    path.write_text("n = 64\nsweep = span\nsweep_values = 6, 6.5\n")
    assert cli.main(["nmse", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sweep_values" in err and "6.5" in err


def test_cli_complexity(capsys):
    assert cli.main(["complexity", "--n", "1024", "--n-od", "32"]) == 0
    captured = capsys.readouterr()
    assert "count_ratio = 2" in captured.out
    assert "loglog_slope" in captured.out


def test_cli_selftest_exit_codes(monkeypatch, capsys):
    ok = acceptance.CriterionResult("criterion-x", True, "fine")
    bad = acceptance.CriterionResult("criterion-y", False, "broken")
    monkeypatch.setattr(acceptance, "run_all", lambda small=False: [ok])
    assert cli.main(["selftest"]) == 0
    monkeypatch.setattr(acceptance, "run_all", lambda small=False: [ok, bad])
    assert cli.main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert "PASS criterion-x" in captured.out
    assert "FAIL criterion-y" in captured.out
