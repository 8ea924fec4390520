"""Command line contract: output shape, determinism, and exit codes.

Exit code map under test: 0 success, 1 malformed input, 2 infeasible data /
failed verification / construction errors, 3 leading-positivity failure.
Every command prints exactly one line of canonical JSON, byte-identical
across repeated runs on the same input.
"""

from __future__ import annotations

import json
import os
import pathlib
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


NAN_MOMENTS = '{"N": 1, "moments": [1, NaN, 1]}'


@pytest.mark.parametrize("command,files,where", [
    ("check", {"p.json": NAN_MOMENTS}, "moments[1]"),
    ("solve", {"p.json": NAN_MOMENTS}, "moments[1]"),
    ("verify", {"p.json": json.dumps(PROBLEM_101),
                "m.json": '{"atoms": [{"t": NaN, "W": [[1]]}]}'},
     'atoms[0]["t"]'),
    ("solve --parameter", {"p.json": json.dumps(PROBLEM_101),
                           "v.json": '{"kind": "isometric", '
                                     '"matrix": [[NaN]]}'},
     "matrix[0][0]"),
    ("scalar-even", {}, "[1]")])
def test_non_finite_numbers_in_input_exit_one(tmp_path, capsys, command,
                                              files, where):
    # Python's JSON parser accepts NaN and Infinity.  Let through, they
    # broke the JSON writer (check), read as a failed PSD test (solve,
    # exit 2), broke the atom sort (verify), read as an inadmissible
    # parameter (solve --parameter, exit 2) and broke the Hankel
    # factorization (scalar-even); they are malformed input, named by
    # where they sit.
    paths = []
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    if command == "solve --parameter":
        argv = ["solve", paths[0], "--parameter", paths[1]]
    elif command == "scalar-even":
        argv = ["scalar-even", "[1, NaN, 1, 0]"]
    else:
        argv = [command] + paths
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and where in errors[0] and "nan" in errors[0]


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999",
                                     "1" + "0" * 400])
def test_numbers_that_overflow_a_float_exit_one(tmp_path, capsys, literal):
    path = tmp_path / "p.json"
    path.write_text(f'{{"N": 1, "moments": [1, 0, {literal}]}}',
                    encoding="utf-8")
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "moments[2]" in captured.err


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
    # the default -X is a parameter, not an angle of the unimodular
    # family, and the output names no angle
    assert "parameter_theta" not in data
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


def test_perron_abs_is_an_unknown_tolerance(tmp_path, capsys):
    # Perron inversion checks its residues against S_0 at a fixed relative
    # tolerance; the absolute perron_abs it replaced is no longer a name.
    in_file = _write(tmp_path, "p.json",
                     {**PROBLEM_101, "tolerances": {"perron_abs": 1e-3}})
    assert main(["solve", in_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown tolerance" in captured.err and "perron_abs" in captured.err
    path = _write(tmp_path, "plain.json", PROBLEM_101)
    assert main(["solve", path, "--tol", "perron_abs=1e-3"]) == 1
    assert "perron_abs" in capsys.readouterr().err


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
    ("solve", "--theta", "-inf"), ("solve", "--grid", "0:inf:0.5"),
    ("solve", "--grid", "0:1:1e-300"), ("solve", "--grid", "0:1:1e-12")])
def test_out_of_range_flag_values_exit_one(tmp_path, capsys, command, flag,
                                           value):
    # Numbers a flag cannot take are malformed input, refused where the
    # flag is read with one error line.  Let through, a NaN --rel-tol
    # breaks the JSON writer, a negative one fails a correct measure, an
    # empty angle grid has nothing to sweep, a NaN angle breaks the SVD of
    # the parameter screen and an infinite grid bound cannot be cut into
    # cells.  A grid of more than measures.MAX_CELLS cells is refused
    # before its edges are allocated: 1e-300 is more cells than numpy can
    # index, and 1e-12 about 7 TiB of them.
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


# The files of the console-script exit-code table in CI.
CI_FILES = {
    "problem.json": PROBLEM_101,
    "lead.json": LEADING_FAILS,
    "trail.json": TRAILING_FAILS,
    "measure.json": {"atoms": [{"t": -1, "W": [[0.5]]},
                               {"t": 1, "W": [[0.5]]}]},
    "heavy.json": {"atoms": [{"t": -1, "W": [[0.75]]},
                             {"t": 1, "W": [[0.75]]}]},
}


def _spawn(cwd, argv, unbuffered=False, **kw):
    """python -m momext.cli in a child, with the momext under test on its
    path and stdout block-buffered, as under a pipe (or unbuffered)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(pathlib.Path(momext.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "momext.cli", *argv],
                          cwd=cwd, env=env, **kw)


@pytest.mark.parametrize("code, argv", [
    (0, ["check", "problem.json"]),
    (2, ["check", "trail.json"]),
    (3, ["check", "lead.json"]),
    (0, ["solve", "problem.json"]),
    (0, ["solve", "problem.json", "--theta", "1.0"]),
    (0, ["solve", "problem.json", "--grid=-2:2:0.5", "--csv", "cells.csv"]),
    (0, ["sweep", "problem.json", "--theta-grid", "8"]),
    (0, ["scalar-even", "[1, 1, 1, 1]"]),
    (2, ["scalar-even", "[1, 1, 1, 2]"]),
    (0, ["verify", "problem.json", "measure.json"]),
    (2, ["verify", "problem.json", "heavy.json"]),
    (1, ["check", "malformed.json"]),
])
def test_the_program_exits_as_main_returns(tmp_path, capsys, monkeypatch,
                                           code, argv):
    # The program ends by os._exit once its output is flushed: its exit
    # code, stdout, stderr and CSV file are those of an in-process main()
    # call, which returns.
    for name, payload in CI_FILES.items():
        _write(tmp_path, name, payload)
    (tmp_path / "malformed.json").write_text("{not json", encoding="utf-8")
    child = _spawn(tmp_path, argv, capture_output=True, text=True)
    csv_path = tmp_path / "cells.csv"
    child_csv = csv_path.read_text() if "--csv" in argv else None
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert child.returncode == code
    assert child.stdout == captured.out and child.stderr == captured.err
    if child_csv is not None:
        assert child_csv == csv_path.read_text()
        assert child_csv.count("\n") == 9          # a header and 8 cells


def test_a_closed_stdout_pipe_keeps_the_ordinary_exit(tmp_path):
    # The buffered line meets a pipe that nobody reads: the flush fails,
    # and the interpreter's own exit reports it with code 120, as it did
    # before the program ended by os._exit.  Exit 0 would lose the output
    # without a word.
    _write(tmp_path, "problem.json", PROBLEM_101)
    read, write = os.pipe()
    os.close(read)
    try:
        child = _spawn(tmp_path, ["check", "problem.json"], stdout=write,
                       stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert child.returncode == 120
    assert child.stderr.startswith("Exception ignored")
    assert child.stderr.splitlines()[-1].startswith("BrokenPipeError")



@pytest.mark.parametrize("stdout", ["closed", "full", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["check", "problem.json"],
    ["sweep", "problem.json", "--theta-grid", "400"],
    ["--help"],
])
def test_output_that_cannot_be_written_exits_120(tmp_path, stdout, argv):
    # A closed stdout exited 0 with nothing written (print drops the line
    # without a word) and one that refuses the line exited 1, the
    # malformed-input code, with a traceback.  Both now take one error
    # line and the code a pipe nobody reads gets, whether the line fails
    # in the write (the sweep's is larger than the buffer, and an
    # unbuffered stdout takes every write at once) or at the flush.
    # argparse's --help text exited 0 either way (it drops a write that
    # fails, and falls back to stderr when stdout is closed).
    _write(tmp_path, "problem.json", PROBLEM_101)
    if stdout == "closed":
        child = _spawn(tmp_path, argv, stderr=subprocess.PIPE, text=True,
                       preexec_fn=lambda: os.close(1))
    else:
        with open("/dev/full", "w") as full:
            child = _spawn(tmp_path, argv, unbuffered=stdout == "unbuffered",
                           stdout=full, stderr=subprocess.PIPE, text=True)
    assert child.returncode == 120
    assert child.stderr.startswith("error: cannot write output: ")
    assert child.stderr.count("\n") == 1


def test_an_unwritable_csv_exits_one(tmp_path):
    # An open that fails was a FileNotFoundError traceback; it is now
    # malformed input, as a problem file that cannot be read is.
    _write(tmp_path, "problem.json", PROBLEM_101)
    child = _spawn(tmp_path, ["solve", "problem.json", "--csv",
                              str(tmp_path / "missing" / "x.csv")],
                   capture_output=True, text=True)
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith("error: cannot write ")
    assert child.stderr.count("\n") == 1


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
