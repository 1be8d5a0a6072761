"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Criterion 5 derives its C = 16 hot set from the closed form: the aliased band
|n - n'| = 16 carries inner products of magnitude (2/pi)|cos(pi n/16)| T,
which is exactly zero for the pair (8, 24), so that pair is cold under the
0.05 T threshold and the exact predictor must call it orthogonal.
"""

from chirplab import acceptance


def _run(criterion, capsys):
    result = criterion()
    # print outside pytest's capture so the line is visible once per
    # criterion in any run, pass or fail
    with capsys.disabled():
        print()
        print(result.line())
    assert result.passed, result.detail


def test_criterion_01_transform_correctness(capsys):
    _run(acceptance.criterion_01_transforms, capsys)


def test_criterion_02_ocdm_embedding(capsys):
    _run(acceptance.criterion_02_ocdm, capsys)


def test_criterion_03_continuous_orthogonality(capsys):
    _run(acceptance.criterion_03_continuous_orthogonality, capsys)


def test_criterion_04_psd(capsys):
    _run(acceptance.criterion_04_psd, capsys)


def test_criterion_05_aliased_chirp_figures(capsys):
    _run(acceptance.criterion_05_aliased_figures, capsys)


def test_criterion_06_effective_tap_formula(capsys):
    _run(acceptance.criterion_06_tap_formula, capsys)


def test_criterion_07_speed_sweep_nmse(capsys):
    _run(acceptance.criterion_07_speed_sweep, capsys)


def test_criterion_08_rolloff_sweep(capsys):
    _run(acceptance.criterion_08_rolloff_sweep, capsys)


def test_criterion_09_span_sweep(capsys):
    _run(acceptance.criterion_09_span_sweep, capsys)


def test_criterion_10_deviation_dichotomy(capsys):
    _run(acceptance.criterion_10_deviation_dichotomy, capsys)


def test_criterion_11_dual_path_consistency(capsys):
    _run(acceptance.criterion_11_dual_path, capsys)


def test_criterion_12_noise_whiteness(capsys):
    _run(acceptance.criterion_12_noise_whiteness, capsys)


def test_criterion_13_complexity(capsys, monkeypatch, measured_complexity):
    monkeypatch.setattr(acceptance, "complexity_compare", measured_complexity)
    _run(acceptance.criterion_13_complexity, capsys)
