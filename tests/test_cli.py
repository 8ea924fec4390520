"""Command line contract: output shape, determinism, and exit codes.

Exit code map under test: 0 success, 1 malformed input, 2 infeasible data /
failed verification / construction errors, 3 leading-positivity failure.
Every command prints exactly one line of canonical JSON, byte-identical
across repeated runs on the same input.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import momext.cli
import momext.pipeline
from momext import ExtensionParameter, MomentSequence, solve_truncated
from momext.cli import main
from momext.jsonio import measure_to_json

PROBLEM_101 = {"version": 1, "N": 1, "moments": [1.0, 0.0, 1.0]}
# one atom at 0: the trailing section is singular and the defect is zero
PROBLEM_DEFECT_0 = {"N": 1, "moments": [1.0, 0.0, 0.0]}
LEADING_FAILS = {"N": 1, "moments": [-1.0, 0.0, 1.0]}
TRAILING_FAILS = {"N": 1, "moments": [1.0, 0.0, -1.0]}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    return code, json.loads(out)


# -------------------------------------------------------------------- check

def test_check_reports_solvable(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    code, data = _run(capsys, "check", path)
    assert code == 0
    assert data["solvable"] is True
    assert data["min_eig_leading"] == pytest.approx(1.0)


def test_check_exit_codes_distinguish_the_failing_section(tmp_path, capsys):
    lead = _write(tmp_path, "lead.json", LEADING_FAILS)
    trail = _write(tmp_path, "trail.json", TRAILING_FAILS)
    code, data = _run(capsys, "check", lead)
    assert code == 3 and not data["leading_positive"]
    code, data = _run(capsys, "check", trail)
    assert code == 2 and data["leading_positive"] and not data["trailing_psd"]


def test_malformed_inputs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["check", missing]) == 1
    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json", encoding="utf-8")
    assert main(["check", str(not_json)]) == 1
    wrong_shape = _write(tmp_path, "shape.json",
                         {"N": 2, "moments": [[[1.0]]]})
    assert main(["check", wrong_shape]) == 1
    even_count = _write(tmp_path, "even.json", {"N": 1, "moments": [1.0, 0.0]})
    assert main(["check", even_count]) == 2      # parses, but unusable data
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 1
    capsys.readouterr()


# -------------------------------------------------------------------- solve

def test_solve_default_output(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    code, data = _run(capsys, "solve", path)
    assert code == 0
    assert data["kind"] == "atomic"
    assert data["defect"] == 1
    # the default -X is a parameter, not an angle of the unimodular family
    assert data["parameter_theta"] is None
    atoms = data["measure"]["atoms"]
    assert [a["t"] for a in atoms] == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert [a["W"][0][0][0] for a in atoms] == pytest.approx([0.5, 0.5],
                                                             abs=1e-12)
    assert data["verification"]["passed"] is True


def test_solve_is_byte_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "p.json",
                  {"N": 2, "moments": [[[2.0, 0.0], [0.0, 1.0]],
                                       [[0.0, 0.5], [0.5, 0.0]],
                                       [[2.0, 0.0], [0.0, 1.0]]]})
    assert main(["solve", path]) == 0
    first = capsys.readouterr().out
    assert main(["solve", path]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_solve_with_explicit_theta(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    code, data = _run(capsys, "solve", path, "--theta", "1.5707963267948966")
    assert code == 0
    # theta = pi/2 gives the extension [[0, 1], [1, -2]] whose eigenvalues
    # are -1 -+ sqrt(2).
    atoms = [a["t"] for a in data["measure"]["atoms"]]
    assert atoms == pytest.approx([-1.0 - np.sqrt(2.0), -1.0 + np.sqrt(2.0)],
                                  abs=1e-10)


@pytest.mark.parametrize("embedded", [False, True])
def test_solve_with_a_theta_prepares_once(tmp_path, capsys, monkeypatch,
                                          embedded):
    # The defect that sizes a theta parameter comes from the workspace the
    # solve then uses; count prepare wherever the CLI could reach it.
    calls = []
    real_prepare = momext.pipeline.prepare

    def counting_prepare(*args, **kwargs):
        calls.append(1)
        return real_prepare(*args, **kwargs)

    monkeypatch.setattr(momext.pipeline, "prepare", counting_prepare)
    monkeypatch.setattr(momext.cli, "prepare", counting_prepare)
    payload = {"N": 1, "moments": [1.0, 0.0, 1.0, 0.0, 2.0]}
    argv = ["--theta=3.14159"]
    if embedded:
        payload["parameter"] = {"constant_unimodular_theta": 3.14159}
        argv = []
    path = _write(tmp_path, "p.json", payload)
    code, data = _run(capsys, "solve", path, *argv)
    assert code == 0 and data["verification"]["passed"]
    assert len(calls) == 1


def test_solve_exit_codes_distinguish_the_failing_section(tmp_path, capsys):
    assert main(["solve", _write(tmp_path, "lead.json", LEADING_FAILS)]) == 3
    assert main(["solve", _write(tmp_path, "trail.json", TRAILING_FAILS)]) == 2
    assert capsys.readouterr().out == ""


def test_theta_flag_and_embedded_theta_agree_at_defect_zero(tmp_path, capsys):
    # --theta is the spec {"constant_unimodular_theta": theta}, so both are
    # sized by the defect of the data, here zero.
    flag = _write(tmp_path, "flag.json", PROBLEM_DEFECT_0)
    embedded = _write(tmp_path, "embedded.json", {
        **PROBLEM_DEFECT_0, "parameter": {"constant_unimodular_theta": 0.5}})
    assert main(["solve", flag, "--theta", "0.5"]) == 0
    from_flag = capsys.readouterr().out
    assert main(["solve", embedded]) == 0
    assert capsys.readouterr().out == from_flag
    assert json.loads(from_flag)["defect"] == 0


def test_solve_forbidden_theta_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    assert main(["solve", path, "--theta", str(np.pi)]) == 2
    capsys.readouterr()


def test_solve_with_parameter_file(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    param = _write(tmp_path, "f.json",
                   {"kind": "contraction", "matrix": [[0.0]]})
    code, data = _run(capsys, "solve", path, "--parameter", param)
    assert code == 0
    assert data["kind"] == "transform"
    assert data["measure"] is None
    assert data["verification"]["passed"] is True
    assert data["verification"]["max_deviation"] <= 1e-10
    # T(i) = 0.75 i for the zero contraction.
    sample = data["transform_samples"][0]
    assert sample["lambda"] == [0.0, 1.0]
    assert sample["T"][0][0] == pytest.approx([0.0, 0.75], abs=1e-10)


def test_complex_matrix_moments_match_the_library(tmp_path, capsys):
    # N = 2 moments with complex entries, written as [re, im] pairs, and a
    # complex isometric parameter file give the library's measure exactly.
    w1 = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    w2 = np.array([[1.0, -0.25 + 0.25j], [-0.25 - 0.25j, 2.0]])
    mats = [(-1.0) ** n * w1 + w2 for n in range(3)]
    v = np.diag([1j, -1.0])

    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    path = _write(tmp_path, "p.json",
                  {"N": 2, "moments": [pairs(m) for m in mats]})
    param = _write(tmp_path, "v.json",
                   {"kind": "isometric", "matrix": pairs(v)})
    code, data = _run(capsys, "solve", path, "--parameter", param)
    assert code == 0 and data["defect"] == 2
    expected = solve_truncated(MomentSequence.from_arrays(mats),
                               ExtensionParameter.isometric(v))
    assert data["measure"] == measure_to_json(expected.measure)
    assert data["verification"]["passed"] is True


def test_solve_parameter_embedded_in_problem_file(tmp_path, capsys):
    payload = dict(PROBLEM_101)
    payload["parameter"] = {"constant_unimodular_theta": 0.0}
    path = _write(tmp_path, "p.json", payload)
    code, data = _run(capsys, "solve", path)
    assert code == 0
    assert data["admissibility"]["margin"] == pytest.approx(np.sqrt(2.0))


def test_solve_dump_flags(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    code, data = _run(capsys, "solve", path, "--dump-gram", "--dump-operator")
    assert code == 0
    coords = data["gram_coords"]
    assert coords[0][0] == pytest.approx([1.0, 0.0], abs=1e-12)
    op = data["operator"]
    assert np.asarray(op["forbidden_matrix"]).shape == (1, 1, 2)
    assert op["forbidden_matrix"][0][0] == pytest.approx([-1.0, 0.0],
                                                         abs=1e-12)


def test_solve_grid_and_csv(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    param = _write(tmp_path, "f.json",
                   {"kind": "contraction", "matrix": [[0.0]]})
    csv_path = tmp_path / "cells.csv"
    code, data = _run(capsys, "solve", path, "--parameter", param,
                      "--grid=-2:2:0.5", "--csv", str(csv_path))
    assert code == 0
    per = data["perron"]
    assert len(per["edges"]) == 9
    assert per["method"] == "residue"
    total = sum(w[0][0][0] for w in per["increments"])
    exact = (2.0 / np.pi) * (2.0 / 5.0 + np.arctan(2.0))
    assert total == pytest.approx(exact, abs=5e-3)
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,W[0][0].re,W[0][0].im"
    assert len(lines) == 9


@pytest.mark.parametrize("parameter", [
    {"kind": "contraction", "matrix": [[0.5, 0.0], [0.0, 0.5]]},
    {"kind": "isometric", "matrix": [[1.0, 0.0], [0.0, 1.0]]}])
def test_solve_grid_factors_nothing_twice(tmp_path, capsys, monkeypatch,
                                          parameter):
    # --grid bins the measure of an isometric solve and reuses the
    # transform of a contraction solve: no SVD, eigh or inverse beyond
    # those of the plain solve.
    calls = []
    for name in ("svd", "eigh", "inv"):
        def counting(*args, _real=getattr(np.linalg, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    path = _write(tmp_path, "p.json", {
        "N": 2, "moments": [np.eye(2).tolist(), np.zeros((2, 2)).tolist(),
                            np.eye(2).tolist()]})
    param = _write(tmp_path, "v.json", parameter)
    counts = []
    for extra in ([], ["--grid=-3:3:0.5"]):
        calls.clear()
        code, data = _run(capsys, "solve", path, "--parameter", param,
                          *extra)
        assert code == 0 and data["verification"]["passed"]
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert "perron" in data


def test_solve_csv_of_an_atomic_measure(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    csv_path = tmp_path / "atoms.csv"
    code, data = _run(capsys, "solve", path, "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,W[0][0].re,W[0][0].im"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert rows == [[a["t"], *a["W"][0][0]] for a in data["measure"]["atoms"]]


@pytest.mark.parametrize("grid", ["1:0:0.5", "-1:1:0", "a:1:0.5", "-1:1"])
def test_solve_malformed_grid_exits_one(tmp_path, capsys, grid):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    assert main(["solve", path, f"--grid={grid}"]) == 1
    assert capsys.readouterr().out == ""


def test_solve_tolerance_override_can_forbid_everything(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    # Margins on the unimodular family are at most sqrt(2) here, so an
    # absurd admissibility floor rejects every candidate angle, from the
    # command line and from the problem file alike.
    assert main(["solve", path, "--tol", "adm_abs=10"]) == 2
    capsys.readouterr()
    assert main(["solve", path, "--tol", "no_such_name=1"]) == 1
    capsys.readouterr()
    assert main(["solve", path, "--tol", "adm_abs"]) == 1
    capsys.readouterr()
    strict = _write(tmp_path, "strict.json",
                    {**PROBLEM_101, "tolerances": {"adm_abs": 10}})
    assert main(["solve", strict]) == 2
    capsys.readouterr()
    # the Hermitian check and the resolvent solves have no tolerance, so
    # these names are unknown wherever they come from
    for name in ("herm_rel", "solve_rel"):
        assert main(["solve", path, "--tol", f"{name}=1"]) == 1
        in_file = _write(tmp_path, f"{name}.json",
                         {**PROBLEM_101, "tolerances": {name: 1}})
        assert main(["solve", in_file]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name,value", [("pos_rel", "nan"),
                                        ("adm_abs", "-1"),
                                        ("psd_rel", "inf")])
def test_tolerance_values_must_be_finite_and_non_negative(tmp_path, capsys,
                                                           name, value):
    # A NaN threshold compares false against everything, so it would flip
    # verdicts (pos_rel=nan reads as "not positive definite", exit 3), and a
    # negative one switches its check off (adm_abs=-1 admits every angle);
    # both are malformed input.
    path = _write(tmp_path, "p.json", PROBLEM_101)
    assert main(["solve", path, "--tol", f"{name}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and repr(float(value)) in captured.err
    in_file = tmp_path / "in_file.json"
    in_file.write_text(json.dumps({**PROBLEM_101,
                                   "tolerances": {name: float(value)}}),
                       encoding="utf-8")
    assert main(["solve", str(in_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and repr(float(value)) in captured.err


# -------------------------------------------------------------------- sweep

def test_sweep_output(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    code, data = _run(capsys, "sweep", path, "--theta-grid", "8")
    assert code == 0
    assert data["defect"] == 1
    assert data["forbidden_thetas"] == pytest.approx([np.pi])
    admissible = [e for e in data["entries"] if e["admissibility"]["admissible"]]
    assert len(admissible) == 7
    row = data["distance_matrix"][4]      # theta = pi row: all null
    assert all(v is None for i, v in enumerate(row) if i != 4)


def test_sweep_at_defect_zero_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_DEFECT_0)
    assert main(["sweep", path]) == 2
    assert capsys.readouterr().out == ""


# -------------------------------------------------------- scalar-even/verify

def test_scalar_even_accepts_inline_json(capsys):
    code, data = _run(capsys, "scalar-even", "[1.0, 0.0, 1.0, 0.0]")
    assert code == 0
    assert data["verdict"] == "solvable-nondegenerate"
    assert data["augmented_moment"] == 2.0


def test_scalar_even_accepts_a_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{\"moments\": [1.0, 1.0, 1.0, 1.0]}", encoding="utf-8")
    code, data = _run(capsys, "scalar-even", str(path))
    assert code == 0
    assert data["verdict"] == "unique-degenerate"
    assert data["atoms"] == [{"t": 1.0, "w": 1.0}]


def test_scalar_even_infeasible_exits_two(capsys):
    code, data = _run(capsys, "scalar-even", "[0.0, 1.0, 0.0, 0.0]")
    assert code == 2
    assert data["verdict"] == "infeasible"


def test_verify_round_trip(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    good = _write(tmp_path, "good.json", {
        "atoms": [{"t": -1.0, "W": [[0.5]]}, {"t": 1.0, "W": [[0.5]]}]})
    bad = _write(tmp_path, "bad.json", {"atoms": [{"t": 0.0, "W": [[1.0]]}]})
    code, data = _run(capsys, "verify", path, good)
    assert code == 0 and data["passed"] is True
    code, data = _run(capsys, "verify", path, bad)
    assert code == 2 and data["passed"] is False


def test_verify_dimension_mismatch_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    wrong = _write(tmp_path, "wrong.json", {
        "atoms": [{"t": 0.0, "W": [[1.0, 0.0], [0.0, 1.0]]}]})
    assert main(["verify", path, wrong]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,flag,value", [
    ("verify", "--rel-tol", "nan"), ("verify", "--rel-tol", "inf"),
    ("verify", "--rel-tol", "-1"), ("sweep", "--theta-grid", "0"),
    ("sweep", "--theta-grid", "-3"), ("solve", "--theta", "nan"),
    ("solve", "--theta", "-inf"), ("solve", "--grid", "0:inf:0.5")])
def test_out_of_range_flag_values_exit_one(tmp_path, capsys, command, flag,
                                           value):
    # Numbers a flag cannot take are malformed input, refused where the
    # flag is read with one error line.  Let through, a NaN --rel-tol
    # breaks the JSON writer, a negative one fails a correct measure, an
    # empty angle grid has nothing to sweep, a NaN angle breaks the SVD of
    # the parameter screen and an infinite grid bound cannot be cut into
    # cells.
    argv = [command, _write(tmp_path, "p.json", PROBLEM_101)]
    if command == "verify":
        argv.append(_write(tmp_path, "m.json", {
            "atoms": [{"t": -1.0, "W": [[0.5]]}, {"t": 1.0, "W": [[0.5]]}]}))
    try:
        code = main(argv + [f"{flag}={value}"])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0] and value in errors[0]


# ----------------------------------------------------------- console script

def test_console_script_is_installed(tmp_path):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    proc = subprocess.run([sys.executable, "-m", "momext.cli", "check", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solvable"] is True


def test_the_package_runs_without_scipy():
    script = """
import sys
from momext import (ExtensionParameter, MomentSequence, StieltjesTransform,
                    perron_inversion, solve_scalar_even, solve_truncated)
import momext.cli
seq = MomentSequence.scalar([1.0, 0.0, 1.0])
assert solve_truncated(seq).verification.passed
contraction = ExtensionParameter.contraction([[0.5]])
result = solve_truncated(seq, contraction)
ws = result.workspace
perron_inversion(StieltjesTransform(ws.shift, ws.pair, contraction),
                 -2.0, 2.0, 0.5)
solve_scalar_even([1.0, 0.0, 1.0, 0.0])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
