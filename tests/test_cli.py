"""Tests for the command line interface.

Most commands run in-process through ``main`` for speed; the determinism
check shells out so that artifact bytes come from a fresh interpreter.
"""

import argparse
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from lpalg import cli, lpnorm, nuclearity
from lpalg.cli import main
from lpalg.crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    compress_identity_check,
    cyclic_coordinate_rotation,
    trivial_action,
)
from lpalg.groups import ZWindow, cyclic_group
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
    assert out[0] == "value,converged,restarts,upper"
    value, converged, restarts, upper = out[1].split(",")
    assert 0 < float(value) <= float(upper)
    assert converged == "True"
    assert restarts == "0"  # exact formula, no iteration


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_pnorm_reports_both_ends_of_the_bracket(matrix_file, p, capsys):
    assert main(["pnorm", "--matrix", matrix_file, "--p", p]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["value"] <= payload["upper"]
    assert main(["pnorm", "--matrix", matrix_file, "--p", p, "--format", "csv"]) == 0
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
    assert (float(row["value"]), float(row["upper"])) == (payload["value"], payload["upper"])


def test_pnorm_missing_file_is_input_error(tmp_path, capsys):
    code = main(["pnorm", "--matrix", str(tmp_path / "absent.json"), "--p", "2"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_pnorm_refuses_an_exponent_that_is_no_number(matrix_file, capsys):
    # --p is parsed once, by the parser, for every command that takes it
    with pytest.raises(SystemExit) as exc:
        main(["pnorm", "--matrix", matrix_file, "--p", "banana"])
    assert exc.value.code == 2
    assert "argument --p: exponent must be a number or inf, got 'banana'" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value", [("--n-max", "0"), ("--trials", "-3")])
def test_cbnorm_refuses_no_level_and_negative_trials(tmp_path, capsys, flag, value):
    # --n-max 0 used to exit 0 with "best": 0.0 and no levels
    path = _write(tmp_path / "map.json", matrix_to_obj(np.eye(4)))
    assert main(["cbnorm", "--map", path, "--p", "2", flag, value]) == 2
    name, least = flag[2:].replace("-", "_"), 1 if flag == "--n-max" else 0
    assert f"input error: {name} must be an integer >= {least}, got {value}\n" in capsys.readouterr().err


def test_folner_csv(capsys):
    code = main(["folner", "--group", "z", "--shifts", "1,-1,2", "--delta", "0.1",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "shift,ratio"
    ratios = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert ratios[1] == pytest.approx(2 / 41, abs=1e-15)
    assert ratios[2] == pytest.approx(4 / 41, abs=1e-15)


def test_folner_bad_group_is_input_error(tmp_path, capsys):
    assert main(["folner", "--group", "dihedral:5", "--shifts", "1", "--delta", "0.1"]) == 2
    table = _write(tmp_path / "table.json", {"type": "table", "mult": [[0, 1.7], [1, 0.2]]})
    assert main(["folner", "--group", table, "--shifts", "1", "--delta", "0.1"]) == 2
    assert "a multiplication table entry must be an integer, got 1.7" in capsys.readouterr().err


def test_folner_shift_outside_the_group_is_input_error(capsys):
    assert main(["folner", "--group", "cyclic:6", "--shifts", "7", "--delta", "0.1"]) == 2
    assert "shift 7 is not an element" in capsys.readouterr().err


def test_witness_nan_epsilon_is_input_error(element_file, capsys):
    assert main(["witness", "--elements", element_file, "--epsilon", "nan"]) == 2
    assert "epsilon must be positive" in capsys.readouterr().err


def test_crossed_reports_norm_and_checks(element_file, capsys):
    assert main(["crossed", "--elements", element_file, "--p", "1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced_norm"] == pytest.approx(1.0, abs=1e-9)
    assert payload["expectation_compress_dev"] <= 1e-12
    assert "expectation_coeff_dev" not in payload  # it held the same float


def test_crossed_assembles_the_form_once(element_file, capsys, monkeypatch):
    calls = []
    integrated = CovariantRep.integrated
    monkeypatch.setattr(CovariantRep, "integrated", lambda rep, f: calls.append(f) or integrated(rep, f))
    assert main(["crossed", "--elements", element_file, "--p", "1.5"]) == 0
    assert len(calls) == 1


def test_crossed_brackets_the_norm_and_its_help_names_the_csv_header(tmp_path, capsys, monkeypatch):
    # norm_upper is the witness's: each coefficient's pnorm_upper, summed
    # and rounded outward, so it is never below the reduced norm
    rng = np.random.default_rng(5)
    coeffs = {s: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for s in (-1, 0, 2)}
    path = _write(tmp_path / "g.json", cc_element_to_obj(CcElement(ZWindow(2), coeffs)))
    assert main(["crossed", "--elements", path, "--p", "1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced_norm"] <= payload["norm_upper"]
    assert payload["norm_upper"] == nuclearity.sum_upper(lpnorm.pnorm_upper(a, 1.5) for a in coeffs.values())
    assert main(["crossed", "--elements", path, "--p", "1.5", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert header.split(",")[-1] == "norm_upper"
    assert float(fields["norm_upper"]) == payload["norm_upper"]
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help text to the terminal width
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.search(r"reduced norm and expectation checks\s+\(CSV:\s+([\w,]+)\)", capsys.readouterr().out)
    assert listed.group(1) == header


@pytest.mark.parametrize("action", [None, "rotation:6:1"])
def test_crossed_reports_the_compress_identity_deviation_in_both_fields(tmp_path, capsys, action):
    # the JSON field and the CSV column are the identity block's deviation
    # from f(e), bit for bit the max_abs_diff of compress_identity_check on
    # the same rep
    rng = np.random.default_rng(13)
    carrier, d = (ZWindow(3), 2) if action is None else (cyclic_group(6), 6)
    f = CcElement(carrier, {s: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for s in (0, 1, 3)})
    path = _write(tmp_path / "f.json", cc_element_to_obj(f))
    args = ["crossed", "--elements", path, "--p", "1.5"] + ([] if action is None else ["--action", action])
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    act = trivial_action(carrier, d) if action is None else cyclic_coordinate_rotation(6, 1)
    rep = CovariantRep(ConcreteAlgebra(d), act, 1.5, window_radius=5)
    expected = repr(compress_identity_check(rep, f)["max_abs_diff"])
    assert repr(payload["expectation_compress_dev"]) == expected
    assert main(args + ["--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["expectation_compress_dev"] == expected


@pytest.mark.parametrize("argv", [["crossed"], ["witness", "--epsilon", "0.3"]])
def test_crossed_and_witness_refuse_group(element_file, capsys, argv):
    # the element file names its group, so no option repeats it
    for group in ("z:1", "cyclic:4"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--elements", element_file, "--group", group])
        assert exc.value.code == 2
        assert "--group" in capsys.readouterr().err


def test_crossed_refuses_an_action_of_another_group(tmp_path, capsys):
    # a rotation of Z/4 once read delta_7 over Z as delta_3 over Z/4, with exit 0
    path = _write(tmp_path / "f.json", cc_element_to_obj(CcElement.delta(ZWindow(1), 7, base_dim=4)))
    assert main(["crossed", "--elements", path, "--action", "rotation:4:1"]) == 2
    err = capsys.readouterr().err
    assert "ZWindow(radius=1)" in err and "CyclicGroup(order=4)" in err


def test_crossed_refuses_a_non_integer_group_element(tmp_path, capsys):
    obj = cc_element_to_obj(CcElement.delta(ZWindow(1), 1, np.eye(1, dtype=complex)))
    obj["coeffs"][0]["s"] = 1.7  # once truncated to s = 1, with exit 0
    path = _write(tmp_path / "f.json", obj)
    assert main(["crossed", "--elements", path]) == 2
    assert "s must be an integer, got 1.7" in capsys.readouterr().err


_DELTA_1 = {"group": {"type": "z_window", "radius": 1},
            "coeffs": [{"s": 1, "matrix": {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}}]}


@pytest.mark.parametrize("change, message", [
    # used to print "input error: 'matrix'"
    ({"coeffs": [{"s": 1}]},
     "malformed coefficient 0: missing 'matrix', expected an object with the keys ('s', 'matrix')"),
    # used to print "input error: string indices must be integers, not 'str'"
    ({"coeffs": {"s": 1}}, "malformed element object: 'coeffs' must be a list, got a dict"),
    ({"coeffs": [_DELTA_1["coeffs"][0], {"matrix": _DELTA_1["coeffs"][0]["matrix"]}]},
     "malformed coefficient 1: missing 's', expected an object with the keys ('s', 'matrix')"),
], ids=["no matrix", "coeffs an object", "no s"])
def test_crossed_names_what_an_element_file_lacks(tmp_path, capsys, change, message):
    path = _write(tmp_path / "f.json", {**_DELTA_1, **change})
    assert main(["crossed", "--elements", path]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("action, message", [
    # used to print "input error: not enough values to unpack (expected 3, got 2)"
    ("rotation:3", "--action 'rotation:3' must read rotation:N:K with integers N and K"),
    ("rotation:3:x", "--action 'rotation:3:x' must read rotation:N:K with integers N and K"),
    # used to print "input error: 'dim'" and "input error: 'matrices'"
    ({"type": "trivial"}, "malformed trivial action: missing 'dim', expected an object with the keys ('dim',)"),
    ({"type": "implementers"},
     "malformed implementers action: missing 'matrices', expected an object with the keys ('matrices',)"),
    ({"type": "z_generator"},
     "malformed z_generator action: missing 'matrix', expected an object with the keys ('matrix',)"),
    ({"type": "rotation", "n": 3},
     "malformed rotation action: missing 'k', expected an object with the keys ('n', 'k')"),
], ids=["rotation without k", "rotation k not an integer", "trivial", "implementers", "z_generator", "rotation file"])
def test_crossed_names_what_an_action_lacks(tmp_path, capsys, action, message):
    element = _write(tmp_path / "f.json", _DELTA_1)
    if isinstance(action, dict):
        action = _write(tmp_path / "action.json", action)
    assert main(["crossed", "--elements", element, "--action", action]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_witness_passes_on_window_element(element_file, capsys):
    # the CSV row carries the JSON element's fields, the upper bound that
    # sizes F among them, with the bits of the JSON report
    argv = ["witness", "--elements", element_file, "--epsilon", "0.3", "--p", "1.5"]
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,reduced_norm,norm_upper,roundtrip_error,bound"
    fields = lines[1].split(",")
    assert fields[0] == "f0"
    assert float(fields[1]) <= float(fields[2])
    assert float(fields[3]) == pytest.approx(1 / 21, abs=1e-12)
    assert main(argv) == 0
    (elem,) = json.loads(capsys.readouterr().out)["elements"]
    assert [float(v) for v in fields[1:]] == [elem[k] for k in lines[0].split(",")[1:]]


def test_witness_help_names_the_csv_header(element_file, capsys, monkeypatch):
    assert main(["witness", "--elements", element_file, "--epsilon", "0.3", "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help text to the terminal width
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.search(r"end-to-end nuclearity witness\s+\(CSV:\s+([\w,]+)\)", capsys.readouterr().out)
    assert listed.group(1) == header


def test_witness_lists_levels_one_and_two_and_a_sampled_certificate_exits_1(
    element_file, capsys, monkeypatch
):
    # the certificates hold at every level, so no option sets their levels
    argv = ["witness", "--elements", element_file, "--epsilon", "0.3"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["levels"] for c in report["certificates"]] == [[[1, 1.0], [2, 1.0]]] * 2
    with pytest.raises(SystemExit):
        main(argv + ["--k-max", "3"])
    capsys.readouterr()
    sampled = CbEstimate(levels=[(1, 1.0)])  # a lower bound proves nothing
    monkeypatch.setattr(nuclearity, "averaging_cb", lambda *args: sampled)
    assert main(argv) == 1
    assert "certificate failure" in capsys.readouterr().err


def test_witness_has_no_trials_option(element_file, capsys):
    with pytest.raises(SystemExit):
        main(["witness", "--elements", element_file, "--epsilon", "0.3", "--trials", "4"])


def test_witness_over_budget_reports_the_loss_and_exits_1(element_file, capsys, monkeypatch):
    monkeypatch.setattr(nuclearity, "_roundtrip", lambda *args: {"error": 0.31, "bound": 0.31})
    assert main(["witness", "--elements", element_file, "--epsilon", "0.3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["elements"][0]["roundtrip_error"] == 0.31


def test_witness_and_rotation_take_no_seed(element_file, capsys):
    # nor does folner, which draws nothing either
    for argv in (["witness", "--elements", element_file, "--epsilon", "0.3"],
                 ["rotation", "--n", "8", "--k", "3"],
                 ["folner", "--group", "z", "--shifts", "1", "--delta", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "0"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["folner", "--group", "z", "--shifts", "1", "--delta", "0.1"],
                                  ["suite", "--criteria", "5"]])
def test_folner_and_suite_take_no_exponent(capsys, argv):
    # neither reads one: folner counts members, and each suite criterion fixes its own p
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "3"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


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


def test_suite_csv_on_stdout(capsys):
    assert main(["suite", "--criteria", "5,7", "--seed", "0", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("criterion,label,passed")
    rows = [line.split(",") for line in lines[start + 1:]]
    assert [(row[0], row[-1]) for row in rows] == [("5", "True"), ("7", "True")]


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


def test_every_option_a_subcommand_accepts_is_read(matrix_file, element_file, tmp_path, capsys):
    """One invocation per subcommand gives every option it accepts; its
    handler must read each one, so no option can decide nothing."""
    sym = _write(tmp_path / "map.json", matrix_to_obj(np.eye(4)))
    out = ["--out", str(tmp_path / "out"), "--format", "csv"]
    invocations = [
        ["pnorm", "--matrix", matrix_file, "--restarts", "2", "--p", "3", "--seed", "1"],
        ["cbnorm", "--map", sym, "--n-max", "1", "--trials", "1", "--p", "3", "--seed", "1"],
        ["folner", "--group", "z", "--shifts", "1", "--delta", "0.5"],
        ["crossed", "--elements", element_file, "--action", "trivial", "--restarts", "2", "--p", "3",
         "--seed", "1"],
        ["witness", "--elements", element_file, "--action", "trivial", "--epsilon", "0.3", "--p", "3"],
        ["rotation", "--n", "6", "--k", "1", "--epsilon", "0.3", "--p", "3"],
        ["suite", "--criteria", "5", "--seed", "1"],
    ]
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    subcommands = sub.choices
    assert sorted(argv[0] for argv in invocations) == sorted(subcommands)
    for argv in invocations:
        options = [a for a in subcommands[argv[0]]._actions if not isinstance(a, argparse._HelpAction)]
        assert all(set(a.option_strings) & set(argv + out) for a in options), argv[0]
        args = cli._build_parser().parse_args(argv + out, namespace=Recording())
        reads.clear()
        args.handler(args)
        assert {a.dest for a in options} - reads == set(), argv[0]
    capsys.readouterr()
