"""Tests for the command line interface.

Most commands run in-process through ``main`` for speed; the determinism
check shells out so that artifact bytes come from a fresh interpreter.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from lpalg import nuclearity
from lpalg.cli import main
from lpalg.crossed import CcElement
from lpalg.groups import ZWindow
from lpalg.opspace import CbEstimate
from lpalg.serialize import canonical_json, cc_element_to_obj, matrix_to_obj


def _write(path, obj):
    path.write_text(canonical_json(obj))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return _write(tmp_path / "m.json", matrix_to_obj(m))


@pytest.fixture
def element_file(tmp_path):
    f = CcElement.delta(ZWindow(1), 1, np.eye(1, dtype=complex))
    return _write(tmp_path / "f.json", cc_element_to_obj(f))


def test_pnorm_json_output(matrix_file, capsys):
    assert main(["pnorm", "--matrix", matrix_file, "--p", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "pnorm"
    assert payload["p"] == 3.0
    assert payload["value"] > 0
    assert payload["converged"] is True


def test_pnorm_csv_row(matrix_file, capsys):
    assert main(["pnorm", "--matrix", matrix_file, "--p", "inf", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "value,converged,restarts"
    value, converged, restarts = out[1].split(",")
    assert float(value) > 0
    assert converged == "True"
    assert restarts == "0"  # exact formula, no iteration


def test_pnorm_missing_file_is_input_error(tmp_path, capsys):
    code = main(["pnorm", "--matrix", str(tmp_path / "absent.json"), "--p", "2"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_pnorm_malformed_matrix_is_input_error(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json",
                 {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
    assert main(["pnorm", "--matrix", bad, "--p", "2"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cbnorm_reports_levels(tmp_path, capsys):
    # symmetrization of a 2x2 matrix: coefficient matrix of a -> (a + a^T)/2
    sym = np.zeros((4, 4))
    sym[0, 0] = sym[3, 3] = 1.0
    sym[1, 1] = sym[1, 2] = sym[2, 1] = sym[2, 2] = 0.5
    path = _write(tmp_path / "map.json", matrix_to_obj(sym))
    assert main(["cbnorm", "--map", path, "--p", "2", "--n-max", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best"] == pytest.approx(1.5, abs=1e-9)
    assert [n for n, _ in payload["levels"]] == [1, 2]


def test_folner_csv(capsys):
    code = main(["folner", "--group", "z", "--shifts", "1,-1,2", "--delta", "0.1",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "shift,ratio"
    ratios = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert ratios[1] == pytest.approx(2 / 41, abs=1e-15)
    assert ratios[2] == pytest.approx(4 / 41, abs=1e-15)


def test_folner_bad_group_is_input_error(capsys):
    assert main(["folner", "--group", "dihedral:5", "--shifts", "1", "--delta", "0.1"]) == 2


def test_crossed_reports_norm_and_checks(element_file, capsys):
    assert main(["crossed", "--elements", element_file, "--p", "1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced_norm"] == pytest.approx(1.0, abs=1e-9)
    assert payload["expectation_compress_dev"] <= 1e-12
    assert payload["expectation_coeff_dev"] <= 1e-12


def test_crossed_group_mismatch_is_input_error(element_file, capsys):
    assert main(["crossed", "--elements", element_file, "--group", "cyclic:4"]) == 2


def test_witness_passes_on_window_element(element_file, capsys):
    code = main(["witness", "--elements", element_file, "--epsilon", "0.3",
                 "--p", "1.5", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,reduced_norm,roundtrip_error,bound"
    fields = lines[1].split(",")
    assert fields[0] == "f0"
    assert float(fields[2]) == pytest.approx(1 / 21, abs=1e-12)


def test_witness_k_max_sets_the_levels_and_a_sampled_certificate_exits_1(
    element_file, capsys, monkeypatch
):
    argv = ["witness", "--elements", element_file, "--epsilon", "0.3", "--k-max", "3"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["levels"] for c in report["certificates"]] == [[[1, 1.0], [2, 1.0], [3, 1.0]]] * 2
    sampled = CbEstimate(levels=[(1, 1.0)])  # a lower bound proves nothing
    monkeypatch.setattr(nuclearity, "monomial_cb", lambda *args, **kwargs: sampled)
    assert main(argv) == 1
    assert "certificate failure" in capsys.readouterr().err


def test_witness_refuses_k_max_below_one(element_file, capsys):
    for k_max in ("0", "-2"):
        argv = ["witness", "--elements", element_file, "--epsilon", "0.3", "--k-max", k_max]
        assert main(argv) == 2
        assert "at least one level" in capsys.readouterr().err


def test_witness_has_no_trials_option(element_file, capsys):
    with pytest.raises(SystemExit):
        main(["witness", "--elements", element_file, "--epsilon", "0.3", "--trials", "4"])


def test_pnorm_overflow_is_input_error(tmp_path, capsys):
    path = _write(tmp_path / "huge.json", matrix_to_obj(np.full((2, 2), 1e308)))
    for p in ("1", "1.5"):
        assert main(["pnorm", "--matrix", path, "--p", p]) == 2
        assert "exceeds the float range" in capsys.readouterr().err


def test_rotation_report(capsys):
    assert main(["rotation", "--n", "8", "--k", "3", "--p", "1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == {"n": 8, "k": 3, "theta_model": 0.375}
    assert payload["commutation_dev"] <= 1e-12
    assert payload["passed"] is True


def test_rotation_non_coprime_is_input_error(capsys):
    assert main(["rotation", "--n", "8", "--k", "2", "--p", "2"]) == 2


def test_suite_subset(capsys):
    assert main(["suite", "--criteria", "5,7", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "criterion  5 [PASS]" in out
    assert "criterion  7 [PASS]" in out
    assert "suite: PASS" in out


def test_suite_artifacts_are_deterministic(tmp_path):
    """The same seed must produce byte-identical artifacts across runs."""
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "lpalg", "suite", "--criteria", "4,7,10",
             "--seed", "7", "--out", str(out_dir)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(((out_dir / "suite.json").read_bytes(),
                        (out_dir / "suite.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_single_command_stdout_is_deterministic(matrix_file):
    runs = [
        subprocess.run([sys.executable, "-m", "lpalg", "pnorm", "--matrix", matrix_file,
                        "--p", "1.5", "--seed", "3"],
                       capture_output=True, text=True, timeout=120).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
