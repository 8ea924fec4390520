"""Command line contract: output shape, determinism, and exit codes.

This file is the one specification of what each command prints and how it
exits.  Exit code map under test: 0 success, 1 malformed input, 2
infeasible data / failed verification / construction errors, 3
leading-positivity failure, 120 output that cannot be written.  Every
command prints exactly one line of canonical JSON, byte-identical across
repeated runs on the same input, and check refuses the data that solve
refuses before a parameter is chosen, with the same code and line.  Most
cases run in-process through main(); the launcher tests run the program
as `python -m momext.cli` and, when it is on PATH, as the installed
`momext` script.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import momext.cli
import momext.pipeline
from momext import (ExtensionParameter, MomentProblemError, MomentSequence,
                    prepare, solve_truncated)
from momext.cli import main
from momext.jsonio import matrix_to_json, measure_to_json, parse_measure
from momext.measures import ATOMIC_REL_TOL, verify_moments

from sampling import random_deficient_instance, random_feasible_instance
from test_gram import NEAR_THRESHOLD
from test_scalar import LARGE_LAST_ODD, WITNESS_MISSES

PROBLEM_101 = {"version": 1, "N": 1, "moments": [1.0, 0.0, 1.0]}
# one atom at 0: the trailing section is singular and the defect is zero
PROBLEM_DEFECT_0 = {"N": 1, "moments": [1.0, 0.0, 0.0]}
LEADING_FAILS = {"N": 1, "moments": [-1.0, 0.0, 1.0]}
TRAILING_FAILS = {"N": 1, "moments": [1.0, 0.0, -1.0]}
# H_1 = diag(1, 1e-9) is positive definite, but on the scale of H_2 the
# rank cutoff leaves fewer coordinates than domain vectors
DEPENDENT_DOMAIN = {"N": 1, "moments": [1, 0, 1e-9, 0, 1e14]}
DEPENDENT_DOMAIN_ERROR = ("domain needs 2 independent vectors but the "
                          "space has dimension 1")


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


def test_check_refuses_dependent_domain_vectors(tmp_path, capsys):
    # Both Hankel conditions hold, so the data is solvable, but solve
    # refuses it (outside the covered regime): check ends as solve does.
    path = _write(tmp_path, "p.json", DEPENDENT_DOMAIN)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["solvable"] is True
    assert data["refusal"] == {"error": "DependentDomain",
                               "message": DEPENDENT_DOMAIN_ERROR}
    assert captured.err.splitlines() == [f"error: {DEPENDENT_DOMAIN_ERROR}"]


def _agreement_corpus(rng):
    """(name, N, moments) draws: the near-threshold files of the command
    cases (both sides of each screen), then random draws with
    N, d <= 3 that prepare accepts or refuses by each rule: full-defect
    and rank-drop measures, a single atom (H_{d-1} singular for d >= 2),
    S_2d raised by 10^e I (the rank of H_d read on a larger scale, as in
    [1, 0, 1e-9, 0, 1e14]) and S_2d pushed below its floor, half of them
    under x -> 10^k x with |k| <= 3."""
    for values, _ in NEAR_THRESHOLD:
        yield str(values), 1, [np.array([[v]]) for v in values]
    for i in range(192):
        n, d = (int(v) for v in rng.integers(1, 4, size=2))
        draw = (random_feasible_instance, random_deficient_instance)
        seq, truth = draw[i // 4 % 2](rng, n, d)
        mats = list(seq.moments)
        top = np.linalg.eigvalsh(mats[-1])[-1]
        if i % 4 == 1:
            loc, weight = truth.locations[0], truth.weights[0]
            mats = [loc ** k * weight for k in range(2 * d + 1)]
        elif i % 4 == 2:
            mats[-1] = mats[-1] + 10.0 ** rng.integers(8, 17) * top * np.eye(n)
        elif i % 4 == 3:
            mats[-1] = mats[-1] - (top + 1.0) * np.eye(n)
        k = int(rng.integers(-3, 4)) if i % 8 >= 4 else 0
        yield f"draw {i}, 10^{k} x", n, [10.0 ** (k * j) * m
                                        for j, m in enumerate(mats)]


def test_check_exits_as_solve_refuses(tmp_path, capsys):
    # Whenever prepare refuses the data, check exits with solve's code and
    # writes solve's error line, after its report names the refusal;
    # whenever prepare accepts it, check exits 0 with no refusal.
    refusals = set()
    for name, n, mats in _agreement_corpus(np.random.default_rng(20261020)):
        path = _write(tmp_path, "p.json", {
            "N": n, "moments": [matrix_to_json(m) for m in mats]})
        try:
            prepare(MomentSequence.from_arrays(mats))
            refused = None
        except MomentProblemError as exc:
            refused = exc
        code = main(["check", path])
        check = capsys.readouterr()
        report = json.loads(check.out)["refusal"]
        if refused is None:
            assert (code, check.err, report) == (0, "", None), name
            continue
        refusals.add((type(refused).__name__, getattr(refused, "section",
                                                      None)))
        assert report == {"error": type(refused).__name__,
                          "message": str(refused)}, name
        assert (code, check.err) == (main(["solve", path]),
                                     capsys.readouterr().err), name
    assert refusals == {("NotPSD", "leading"), ("NotPSD", "trailing"),
                        ("DependentDomain", None)}


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
    # solve then uses.  The CLI reads momext.pipeline.prepare when it calls
    # it, so patching that one name counts every prepare it makes.
    calls = []
    real_prepare = momext.pipeline.prepare

    def counting_prepare(*args, **kwargs):
        calls.append(1)
        return real_prepare(*args, **kwargs)

    monkeypatch.setattr(momext.pipeline, "prepare", counting_prepare)
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


def test_solve_refuses_dependent_domain_vectors(tmp_path, capsys):
    path = _write(tmp_path, "p.json", DEPENDENT_DOMAIN)
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {DEPENDENT_DOMAIN_ERROR}"]


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
    assert data["augmented_moment"] == 1.0
    assert [(a["t"], a["w"]) for a in data["atoms"]] == [
        pytest.approx((-1.0, 0.5)), pytest.approx((1.0, 0.5))]


def test_scalar_even_accepts_a_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{\"moments\": [1.0, 1.0, 1.0, 1.0]}", encoding="utf-8")
    code, data = _run(capsys, "scalar-even", str(path))
    assert code == 0
    assert data["verdict"] == "unique-degenerate"
    assert data["atoms"] == [{"t": 1.0, "w": 1.0}]


def test_scalar_even_infeasible_exits_two(capsys):
    # the verdict is printed, then refused as every command refuses: one
    # error line, and the code of the exit table
    assert main(["scalar-even", "[0.0, 1.0, 0.0, 0.0]"]) == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["verdict"] == "infeasible"
    assert captured.err == f"error: infeasible: {data['certificate']}\n"


def test_verify_round_trip(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    good = _write(tmp_path, "good.json", {
        "atoms": [{"t": -1.0, "W": [[0.5]]}, {"t": 1.0, "W": [[0.5]]}]})
    bad = _write(tmp_path, "bad.json", {"atoms": [{"t": 0.0, "W": [[1.0]]}]})
    code, data = _run(capsys, "verify", path, good)
    assert code == 0 and data["passed"] is True
    assert main(["verify", path, bad]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert captured.err == "error: the measure fails its verification\n"


def test_verify_defaults_to_the_library_tolerance(tmp_path, capsys):
    # weights 0.5000001 miss (1, 0, 1) by 2e-7: beyond ATOMIC_REL_TOL, so
    # the command fails the measure as verify_moments does
    path = _write(tmp_path, "p.json", PROBLEM_101)
    near = _write(tmp_path, "near.json", {
        "atoms": [{"t": -1.0, "W": [[0.5000001]]},
                  {"t": 1.0, "W": [[0.5000001]]}]})
    code, data = _run(capsys, "verify", path, near)
    assert code == 2 and data["passed"] is False
    assert data["rel_tol"] == ATOMIC_REL_TOL
    library = verify_moments(parse_measure(pathlib.Path(near).read_text(), 1),
                             MomentSequence.scalar([1, 0, 1]))
    assert library.passed is False
    code, data = _run(capsys, "verify", path, near, "--rel-tol", "1e-6")
    assert code == 0 and data["passed"] is True


def test_verify_dimension_mismatch_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "p.json", PROBLEM_101)
    wrong = _write(tmp_path, "wrong.json", {
        "atoms": [{"t": 0.0, "W": [[1.0, 0.0], [0.0, 1.0]]}]})
    assert main(["verify", path, wrong]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("scale, exit_code", [(1.0, 2), (0.0, 0)])
def test_verify_sizes_the_zero_measure_by_the_problem(tmp_path, capsys,
                                                      scale, exit_code):
    # a file with no atoms has no weight to read N off: it is the zero
    # measure of the problem's N, which misses (I, 0, I) and fits zeros
    eye = [[scale, 0.0], [0.0, scale]]
    path = _write(tmp_path, "p.json", {
        "N": 2, "moments": [eye, [[0.0, 0.0], [0.0, 0.0]], eye]})
    empty = _write(tmp_path, "empty.json", {"atoms": []})
    code, data = _run(capsys, "verify", path, empty)
    assert code == exit_code
    assert data["deviations"] == [scale, 0.0, scale]
    assert data["passed"] is (scale == 0.0)


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


# ------------------------------------------------------------ command cases

def _fresh_min_eigs(name):
    """check prints the smallest eigenvalue of each section as a fresh
    numpy.linalg.eigvalsh of it gives it, whichever of the screens or
    eigvalsh decided."""
    moments = CASE_FILES[name]["moments"]
    d = (len(moments) - 1) // 2
    h = np.array([[moments[r + t] for t in range(d + 1)]
                  for r in range(d + 1)], dtype=complex)

    def expect(data):
        assert data["min_eig_trailing"] == float(np.linalg.eigvalsh(h)[0])
        assert data["min_eig_leading"] == float(
            np.linalg.eigvalsh(h[:d, :d])[0])
    return expect


def _residue_cells(data):
    # a unit singular value puts poles on the real axis; the cell masses
    # still come from the exact route
    assert data["perron"]["method"] == "residue"


def _affine_atoms(data):
    # the image of (1, 0, 1) under x -> 2x + 1: atoms -1 and 3
    atoms = [a["t"] for a in data["measure"]["atoms"]]
    assert len(atoms) == 2
    assert abs(atoms[0] + 1) <= 1e-12 and abs(atoms[1] - 3) <= 1e-12


def _dump_shapes(data):
    # the shift's action and the coordinate basis of its domain are m x dN
    def shape(m):
        return len(m), len(m[0])
    assert shape(data["operator"]["action"]) == (2, 1)
    assert shape(data["operator"]["domain_basis"]) == (2, 1)
    assert shape(data["gram_coords"]) == (2, 2)


def _sweep_of_101(data):
    # pi is the one forbidden angle, and the distance matrix is symmetric
    # and null only in its row and column
    assert data["forbidden_thetas"] == [math.pi]
    dist = data["distance_matrix"]
    for i, row in enumerate(dist):
        for j, value in enumerate(row):
            assert value == dist[j][i], (i, j)
            assert (value is None) == (4 in (i, j)), (i, j, value)


def _block_sweep(data):
    # defect 2 with a forbidden angle: an angle has a verification exactly
    # when it has a measure
    entries = data["entries"]
    assert len(entries) == 32
    for i, e in enumerate(entries):
        assert (e["verification"] is None) == (e["measure"] is None), i
    assert any(e["measure"] is None for e in entries)


def _seven_atom_distances(data):
    # unit atoms at -3..3, whose pairs meet many clusters of two close
    # atoms: every printed distance is the definition recomputed in plain
    # Python from the printed atoms (17 digits round-trip), and every angle
    # with a measure passes its verification (its moment sums take running
    # products of negative atoms)
    tol = momext.pipeline.SWEEP_SITE_TOL
    measures = [None if e["measure"] is None
                else [(a["t"], complex(*a["W"][0][0]))
                      for a in e["measure"]["atoms"]]
                for e in data["entries"]]

    def window(measure, s):
        return sum((w for t, w in measure if abs(t - s) <= tol), 0j)

    def distance(a, b):
        sites = []
        for t in sorted([t for t, _ in a] + [t for t, _ in b]):
            if not sites or t - sites[-1] > tol:
                sites.append(t)
        return max(abs(window(a, s) - window(b, s)) for s in sites)

    for i, e in enumerate(data["entries"]):
        assert e["measure"] is None or e["verification"]["passed"] is True, i
    dist = data["distance_matrix"]
    merged = 0
    for i, a in enumerate(measures):
        for j, b in enumerate(measures):
            if a is None or b is None or i == j:
                continue
            assert dist[i][j] == distance(a, b), (i, j)
            pooled = sorted(t for t, _ in a + b)
            merged += any(r - l <= tol for l, r in zip(pooled, pooled[1:]))
    assert merged > 0


def _default_of_block4(data):
    # the default -X, with X read off the rotation of the defect bases, is
    # an isometry at the largest distance 2 from X, and the solution
    # verifies
    assert data["verification"]["passed"] is True
    report = data["admissibility"]
    assert abs(report["forbidden_gap"] - 2) <= 1e-12
    assert abs(report["parameter_norm"] - 1) <= 1e-12


def _unique_extension(data):
    assert data["defect"] == 0 and data["verification"]["passed"] is True


def _six_atom_witness(data):
    # the canonical solution through s_11: a witness one order up raised
    # DependentDomain ("domain needs 6 independent vectors but the space
    # has dimension 3") and exited 2
    assert data["verdict"] == "solvable-nondegenerate"
    assert len(data["atoms"]) == 6 and data["rank_index"] == 5


def _huge_atoms(data):
    # moments near the float64 limit are symmetrized without overflow:
    # atoms -1 and 1 of weight 5e307 each, from solve and scalar-even
    atoms = data["measure"]["atoms"] if "measure" in data else data["atoms"]
    assert [a["t"] for a in atoms] == [-1, 1]
    assert [a["w"] if "w" in a else a["W"][0][0][0]
            for a in atoms] == [5e307, 5e307]


def _missed_witness(data):
    # H_5 is positive definite, so the sequence is not infeasible and the
    # exit is 0; the certificate names the witness's miss
    assert data["verdict"] == "solvable-nondegenerate"
    assert "misses the data by 8.856e-01" in data["certificate"]


#: the near-threshold files of test_gram.NEAR_THRESHOLD, named for the side
#: of each screen of the block Cholesky frame they sit on, and the code
#: check and solve both exit with: H_1 positive definite just above pos_rel
#: and just below it, a Schur complement below -psd_rel whose H_2 is
#: accepted and one whose H_2 is refused (both decided by eigvalsh), defect
#: 0, and 2 x 2 sections with a complement just above -psd_rel, one below
#: it, and one atom whose complement is roundoff
NEAR_CODES = {"lead_above": 0, "lead_below": 3, "trail_above": 0,
              "trail_below": 2, "defect_zero": 0, "small_above": 0,
              "small_below": 2, "small_atom": 0}

#: the files the command cases read, written into each test's directory
CASE_FILES = {
    "problem.json": PROBLEM_101,
    "lead.json": LEADING_FAILS,
    "trail.json": TRAILING_FAILS,
    "measure.json": {"atoms": [{"t": -1, "W": [[0.5]]},
                               {"t": 1, "W": [[0.5]]}]},
    "heavy.json": {"atoms": [{"t": -1, "W": [[0.75]]},
                             {"t": 1, "W": [[0.75]]}]},
    "unit.json": {"kind": "contraction", "matrix": [[1]]},
    "unitary.json": {"kind": "unitary", "matrix": [[1]]},
    "empty.json": {"kind": "isometric", "matrix": []},
    # a moment far from Hermitian at the scale 1e-12 of its sequence, and
    # one ahead of a moment of 1e12
    "tiny_skew.json": {"N": 2, "moments": [
        [[1e-12, 0], [0, 1e-12]], [[0, 5e-13], [1e-13, 0]],
        [[1e-12, 0], [0, 1e-12]]]},
    "growing_skew.json": {"N": 2, "moments": [
        [[1, 0.5], [0.1, 1]], [[0, 0], [0, 0]], [[1e4, 0], [0, 1e4]],
        [[0, 0], [0, 0]], [[1e8, 0], [0, 1e8]], [[0, 0], [0, 0]],
        [[1e12, 0], [0, 1e12]]]},
    "triple.json": {"N": 2, "moments": [
        [[1, 0], [0, 1]], [[0, [1, 2, 3]], [0, 0]], [[1, 0], [0, 1]]]},
    "affine.json": {"version": 1, "N": 1, "moments": [1, 1, 5]},
    # (I, 0, diag(1, 2)): defect 2, and pi forbidden
    "block.json": {"N": 2, "moments": [[[1, 0], [0, 1]], [[0, 0], [0, 0]],
                                       [[1, 0], [0, 2]]]},
    # S_0 = I, S_1 = A, S_2 = A^2 + I on 4 x 4 weights
    "block4.json": {"N": 4, "moments": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
        [[2, 0, 1, 0], [0, 3, 0, 1], [1, 0, 3, 0], [0, 1, 0, 2]]]},
    "seven.json": {"N": 1, "moments": [sum(t ** n for t in range(-3, 4))
                                       for n in range(13)]},
    # atoms +-3.16e7 with weights 5e-13: a moment sequence whose solve
    # misses it by its whole scale
    "tiny_mass.json": {"N": 1, "moments": [1e-12, 0, 1e3]},
    "huge.json": {"N": 1, "moments": [1e308, 0, 1e308]},
    **{f"{name}.json": {"N": 1, "moments": values} for name, (values, _)
       in zip(NEAR_CODES, NEAR_THRESHOLD)},
}

#: (code, argv, expect): each command line's exit code and what its output
#: holds beyond the rules every case keeps: the text of its error line, or
#: a check of the JSON it prints
CASES = [
    (0, ["scalar-even", "[0, 0, 0, 0]"], None),
    (0, ["scalar-even", json.dumps(LARGE_LAST_ODD)], _six_atom_witness),
    (0, ["scalar-even", json.dumps(WITNESS_MISSES)], _missed_witness),
    (2, ["scalar-even", "[1e-12, 0, 1e3, 0]"],
     "total mass s_0 = 1e-12 is at most pos_rel * max|s_n| = 1e-07"),
    (0, ["scalar-even", "[1e308, 0, 1e308, 0]"], _huge_atoms),
    (0, ["solve", "huge.json"], _huge_atoms),
    # a failed verification exits 2 after its line, as verify does
    (2, ["solve", "tiny_mass.json"], "the solution fails its verification"),
    (0, ["solve", "problem.json", "--parameter", "unit.json",
         "--grid=-2:2:0.5"], _residue_cells),
    (1, ["check", "tiny_skew.json"], "moment S_1 is not Hermitian"),
    (1, ["check", "growing_skew.json"], "moment S_0 is not Hermitian"),
    (1, ["check", "triple.json"], "moments[1][0][1]: entries must be"),
    (1, ["solve", "problem.json", "--grid=0:0.5:1"],
     "grid holds no complete cell"),
    (1, ["solve", "problem.json", "--parameter", "unitary.json"],
     "unknown parameter kind 'unitary'"),
    (0, ["solve", "defect_zero.json", "--parameter", "empty.json"],
     _unique_extension),
    *[(code, [command, f"{name}.json"],
       _fresh_min_eigs(f"{name}.json") if command == "check" else None)
      for name, code in NEAR_CODES.items() for command in ("check", "solve")],
    # -X is unitary by construction: its report is not measured, so
    # norm_abs = 0 refuses no default solve (a measured norm or isometry
    # defect of 1 ulp refused the 4 x 4 one)
    (0, ["solve", "problem.json", "--tol", "norm_abs=0"], None),
    (0, ["solve", "block4.json", "--tol", "norm_abs=0"], None),
    (0, ["solve", "affine.json"], _affine_atoms),
    (0, ["solve", "problem.json", "--dump-operator", "--dump-gram"],
     _dump_shapes),
    (0, ["sweep", "problem.json", "--theta-grid", "8"], _sweep_of_101),
    (0, ["sweep", "block.json", "--theta-grid", "32"], _block_sweep),
    (0, ["sweep", "seven.json", "--theta-grid", "32"], _seven_atom_distances),
    (0, ["solve", "block4.json"], _default_of_block4),
]


@pytest.mark.parametrize("code, argv, expect", CASES,
                         ids=[" ".join(argv) for _, argv, _ in CASES])
def test_each_command_line_exits_and_prints_as_specified(
        tmp_path, capsys, monkeypatch, code, argv, expect):
    # Every case runs twice and prints the same bytes both times: one line
    # of JSON or none, and an error line exactly when it refuses.
    for name, payload in CASE_FILES.items():
        _write(tmp_path, name, payload)
    monkeypatch.chdir(tmp_path)
    first, second = ((main(argv), *capsys.readouterr()) for _ in range(2))
    assert first == second
    got, out, err = first
    assert got == code
    assert out == "" or (out.count("\n") == 1 and out.endswith("\n"))
    errors = err.splitlines()
    assert len(errors) == (0 if code == 0 else 1)
    assert all(line.startswith("error: ") for line in errors)
    if isinstance(expect, str):
        assert expect in err
    elif expect is not None:
        expect(json.loads(out))


# ---------------------------------------------------------------- launchers

#: the ways to start the program: the module, and the console script when
#: one is on PATH (pip install puts it there)
LAUNCHERS = [[sys.executable, "-m", "momext.cli"]]
if shutil.which("momext"):
    LAUNCHERS.append([shutil.which("momext")])


def _spawn(cwd, argv, unbuffered=False, launcher=LAUNCHERS[0], **kw):
    """The program (or another command line) in a child, with the momext
    under test on its path and stdout block-buffered, as under a pipe (or
    unbuffered)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(pathlib.Path(momext.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([*launcher, *argv], cwd=cwd, env=env, **kw)


def _loaded_modules(cwd, script, stderr=""):
    """The momext modules a fresh interpreter holds after running script,
    which must write exactly stderr (nothing, unless a command refuses)."""
    script += ("\nimport json, sys\nprint(json.dumps(sorted("
               "m for m in sys.modules if m.startswith('momext'))))")
    child = _spawn(cwd, [], launcher=[sys.executable, "-c", script],
                   capture_output=True, text=True)
    assert child.stderr == stderr
    return json.loads(child.stdout.splitlines()[-1])


#: the commands below that refuse their data, and the line they write
REFUSED = {("check", "trail.json"): (
    "error: the trailing section (order 1) is not positive semidefinite: "
    "min eigenvalue -1.000000e+00\n"),
    ("verify", "problem.json", "heavy.json"): (
    "error: the measure fails its verification\n")}

CHECK_MODULES = ["momext", "momext.cli", "momext.errors", "momext.hankel",
                 "momext.jsonio", "momext.linalg", "momext.tolerances"]

#: verify checks a measure file against the moments and runs none of the
#: construction
VERIFY_ABSENT = {"momext.extensions", "momext.pipeline", "momext.scalar",
                 "momext.shift"}


@pytest.mark.parametrize("argv, absent", [
    (["check", "problem.json"], None),
    (["check", "trail.json"], None),
    (["verify", "problem.json", "measure.json"], VERIFY_ABSENT),
    (["solve", "problem.json"], {"momext.scalar"}),
    (["solve", "problem.json", "--theta", "1.0", "--grid=-2:2:0.5"],
     {"momext.scalar"}),
    (["sweep", "problem.json", "--theta-grid", "4"], {"momext.scalar"}),
    (["scalar-even", "[1, 0, 1, 0]"], {"momext.pipeline"}),
    (["verify", "problem.json", "heavy.json"], VERIFY_ABSENT),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    # check answers solvability from the Hankel sections alone; the other
    # commands load the construction, but not a command they do not run.
    # Each runs to its end: no error line but the one REFUSED names.
    for name, payload in CASE_FILES.items():
        _write(tmp_path, name, payload)
    loaded = _loaded_modules(
        tmp_path, f"import momext.cli\nmomext.cli.main({argv!r})",
        REFUSED.get(tuple(argv), ""))
    if absent is None:
        assert loaded == CHECK_MODULES
    else:
        assert set(CHECK_MODULES) <= set(loaded)
        assert not absent & set(loaded)


def test_degenerate_scalar_even_loads_no_polynomial_package(tmp_path):
    # np.poly gives the kernel polynomial, so numpy.polynomial (2.1 ms to
    # import without a bytecode cache) stays unloaded unless numpy loaded
    # it itself, as numpy 1.x does on import
    script = ("import sys, numpy, momext.cli\n"
              "bare = 'numpy.polynomial' in sys.modules\n"
              "momext.cli.main(['scalar-even', '[1, 1, 1, 1]'])\n"
              "print(bare or 'numpy.polynomial' not in sys.modules)")
    child = _spawn(tmp_path, [], launcher=[sys.executable, "-c", script],
                   capture_output=True, text=True)
    assert child.stderr == ""
    assert child.stdout.splitlines()[-1] == "True"


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
    # The program ends by os._exit once its output is flushed: through
    # each launcher, its exit code, stdout, stderr and CSV file are those
    # of an in-process main() call, which returns.
    for name, payload in CASE_FILES.items():
        _write(tmp_path, name, payload)
    (tmp_path / "malformed.json").write_text("{not json", encoding="utf-8")
    csv_path = tmp_path / "cells.csv"
    children = []
    for launcher in LAUNCHERS:
        child = _spawn(tmp_path, argv, launcher=launcher, capture_output=True,
                       text=True)
        children.append((launcher, child, csv_path.read_text()
                         if "--csv" in argv else None))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    for launcher, child, child_csv in children:
        assert (child.returncode, child.stdout, child.stderr) == (
            code, captured.out, captured.err), launcher
        if child_csv is not None:
            assert child_csv == csv_path.read_text()
            assert child_csv.count("\n") == 9      # a header and 8 cells


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
    # fails, and falls back to stderr when stdout is closed).  Each
    # launcher exits so.
    _write(tmp_path, "problem.json", PROBLEM_101)
    for launcher in LAUNCHERS:
        if stdout == "closed":
            child = _spawn(tmp_path, argv, launcher=launcher,
                           stderr=subprocess.PIPE, text=True,
                           preexec_fn=lambda: os.close(1))
        else:
            with open("/dev/full", "w") as full:
                child = _spawn(tmp_path, argv, launcher=launcher,
                               unbuffered=stdout == "unbuffered", stdout=full,
                               stderr=subprocess.PIPE, text=True)
        assert child.returncode == 120, launcher
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


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _loaded_modules(tmp_path, "import momext") == ["momext"]


def test_every_export_is_the_object_of_its_home_module():
    names = set(momext.__all__) - {"__version__"}
    assert names == set(momext._HOME)
    for name in names:
        home = importlib.import_module(f"momext.{momext._HOME[name]}")
        assert getattr(momext, name) is getattr(home, name), name


def test_every_module_is_exported_or_run_by_a_command(tmp_path):
    # The package ships what its programs run: each module is the home of
    # an export or is loaded by some command; test helpers live in tests.
    for name, payload in CASE_FILES.items():
        _write(tmp_path, name, payload)
    commands = (["check", "problem.json"],
                ["solve", "problem.json", "--theta", "1.0", "--grid=-2:2:1"],
                ["sweep", "problem.json", "--theta-grid", "4"],
                ["scalar-even", "[1, 1, 1, 1]"],
                ["verify", "problem.json", "measure.json"])
    loaded = _loaded_modules(tmp_path, "import momext.cli\n" + "".join(
        f"momext.cli.main({argv!r})\n" for argv in commands))
    package = pathlib.Path(momext.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert {m for m in modules if m not in momext._EXPORTS
            and f"momext.{m}" not in loaded} == set()


def test_the_lazy_package_surface():
    namespace = {}
    exec("from momext import *", namespace)
    assert set(momext.__all__) <= set(namespace)
    assert set(momext.__all__) <= set(dir(momext))
    with pytest.raises(AttributeError, match="'momext'"):
        momext.no_such_name


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
