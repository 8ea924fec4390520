"""File formats and canonical JSON serialization.

Problem files:

    {
      "version": 1,                     optional, must be 1 when present
      "N": 2,
      "moments": [S_0, S_1, ..., S_2d],
      "parameter": {...},               optional, see below
      "tolerances": {"adm_abs": 1e-8}   optional overrides
    }

Each moment is an N x N nested list whose entries are either plain numbers
or [re, im] pairs; for N = 1 a bare number is also accepted in place of the
1 x 1 list.  Parameters are either

    {"constant_unimodular_theta": 0.0}

or

    {"kind": "isometric" | "contraction", "matrix": [[...]]}.

Measure files hold {"atoms": [{"t": float, "W": [[...]]}]}.

Every input file is read by loads, which refuses numbers that are not
finite in float64 (NaN, Infinity, -Infinity and overflowing literals).

Serialization is canonical: floats at 17 significant digits (round-trip
exact), complex entries as [re, im] pairs, no whitespace, insertion-ordered
keys.  Identical inputs therefore serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ProblemFileError
from .hankel import ConditionReport, MomentSequence
from .linalg import read_only
from .tolerances import Tolerances

if TYPE_CHECKING:    # the parsers import their types when they run
    from .extensions import AdmissibilityReport, ExtensionParameter
    from .measures import (AtomicMatrixMeasure, ContourRecovery,
                           PerronResult, VerificationReport)
    from .scalar import ScalarEvenResult


# ---------------------------------------------------------------- canonical

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0              # normalize -0.0
    return format(float(x), ".17g")


def _canonical(obj, out: list) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _canonical(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _canonical(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    out: list = []
    _canonical(obj, out)
    return "".join(out)


def complex_to_pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def real_vector_to_json(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).reshape(-1)]


def opt_float(x):
    """float(x), or None for None and non-finite values."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


# ------------------------------------------------------------------ parsing

def loads(text: str, what: str = "not valid JSON"):
    """json.loads for input files.  A number that is not finite in float64
    is malformed input: NaN, Infinity and -Infinity, which Python's parser
    accepts, and literals that overflow.  The first is named by where it
    sits.  Text that is not JSON raises "what: the decoder's message".
    Both raise ProblemFileError."""
    found = []

    def real(literal: str) -> float:
        x = float(literal)
        if not math.isfinite(x):
            found.append(x)
        return x

    def integer(literal: str):
        return int(literal) if math.isfinite(real(literal)) else math.inf

    try:
        data = json.loads(text, parse_constant=real, parse_float=real,
                          parse_int=integer)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{what}: {exc}") from exc
    where = _non_finite(data, "") if found else None
    if where is not None:
        raise ProblemFileError(f"{where[0] or 'the file'} is {where[1]!r}, "
                               f"not a finite number")
    return data


def _non_finite(obj, path: str):
    """The path and value of the first non-finite float in parsed JSON, in
    document order; None when there is none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f'{path}["{k}"]' if path else k, v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for where, value in items:
        hit = _non_finite(value, where)
        if hit is not None:
            return hit
    return None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ProblemFileError(message)


def _entry_to_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(float(entry), 0.0)
    if (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in entry)):
        return complex(float(entry[0]), float(entry[1]))
    raise ProblemFileError(f"{where}: entries must be numbers or [re, im] "
                           f"pairs, got {entry!r}")


def _moment_to_matrix(m, dim: int, where: str) -> np.ndarray:
    if dim == 1 and isinstance(m, (int, float)) and not isinstance(m, bool):
        return np.array([[complex(float(m), 0.0)]])
    _expect(isinstance(m, list) and len(m) == dim,
            f"{where}: expected an {dim} x {dim} matrix")
    rows = []
    for i, row in enumerate(m):
        _expect(isinstance(row, list) and len(row) == dim,
                f"{where}, row {i}: expected {dim} entries")
        rows.append([_entry_to_complex(e, f"{where}[{i}][{j}]")
                     for j, e in enumerate(row)])
    return np.array(rows, dtype=complex)


def parse_parameter(spec, defect: int = 1) -> ExtensionParameter:
    """A parameter object; a constant_unimodular_theta spec is sized by
    defect."""
    from .extensions import ExtensionParameter
    _expect(isinstance(spec, dict), "parameter must be an object")
    if "constant_unimodular_theta" in spec:
        extra = set(spec) - {"constant_unimodular_theta"}
        _expect(not extra, f"unexpected parameter keys: {sorted(extra)}")
        theta = spec["constant_unimodular_theta"]
        _expect(isinstance(theta, (int, float)) and not isinstance(theta, bool),
                "constant_unimodular_theta must be a number")
        return ExtensionParameter.unimodular(float(theta), defect=defect)
    _expect(set(spec) == {"kind", "matrix"},
            'parameter needs keys {"kind", "matrix"} or '
            '{"constant_unimodular_theta"}')
    mat = spec["matrix"]
    _expect(isinstance(mat, list), "matrix must be a list")
    q = len(mat)
    matrix = (_moment_to_matrix(mat, q, "parameter matrix") if q
              else np.zeros((0, 0), dtype=complex))
    try:
        return ExtensionParameter(kind=spec["kind"], matrix=read_only(matrix))
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def parse_problem(text: str):
    """text -> (MomentSequence, parameter spec dict | None, Tolerances).

    The parameter spec is validated but returned raw, because a
    constant_unimodular_theta spec can only be sized once the defect of the
    problem is known; resolve it with parse_parameter(spec, defect=q).
    Raises ProblemFileError for anything malformed, naming the failing field.
    """
    data = loads(text)
    _expect(isinstance(data, dict), "problem file must be a JSON object")
    allowed = {"version", "N", "moments", "parameter", "tolerances"}
    extra = set(data) - allowed
    _expect(not extra, f"unexpected keys: {sorted(extra)}")
    if "version" in data:
        _expect(data["version"] == 1,
                f"unsupported version {data['version']!r}, expected 1")
    _expect("N" in data and "moments" in data,
            'problem file needs "N" and "moments"')
    dim = data["N"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
            f'"N" must be a positive integer, got {dim!r}')
    moments = data["moments"]
    _expect(isinstance(moments, list) and len(moments) >= 1,
            '"moments" must be a nonempty list')
    mats = [_moment_to_matrix(m, dim, f"moments[{n}]")
            for n, m in enumerate(moments)]
    try:
        seq = MomentSequence.from_arrays(mats)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc

    parameter_spec = None
    if "parameter" in data and data["parameter"] is not None:
        parameter_spec = data["parameter"]
        parse_parameter(parameter_spec)          # validate the shape early

    overrides = data.get("tolerances") or {}
    _expect(isinstance(overrides, dict), '"tolerances" must be an object')
    for k, v in overrides.items():
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                f"tolerance {k!r} must be a number")
    try:
        tol = Tolerances().override(overrides)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return seq, parameter_spec, tol


def parse_scalar_sequence(text: str) -> np.ndarray:
    """A bare JSON list of numbers, or {"moments": [...]}."""
    data = loads(text)
    if isinstance(data, dict):
        _expect("moments" in data, 'scalar problem needs a "moments" list')
        data = data["moments"]
    _expect(isinstance(data, list) and len(data) >= 1,
            "scalar moments must form a nonempty list")
    for i, v in enumerate(data):
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                f"moments[{i}] must be a real number, got {v!r}")
    return np.array([float(v) for v in data])


def measure_to_json(measure: AtomicMatrixMeasure) -> dict:
    return {"atoms": [{"t": float(measure.locations[j]),
                       "W": matrix_to_json(measure.weights[j])}
                      for j in range(measure.n_atoms)]}


def parse_measure(text: str, block_dim: int) -> AtomicMatrixMeasure:
    """The measure in a measure file; block_dim sizes the weights of a file
    with no atoms, the zero measure."""
    from .measures import AtomicMatrixMeasure
    data = loads(text)
    _expect(isinstance(data, dict) and "atoms" in data,
            'measure file needs an "atoms" list')
    atoms = data["atoms"]
    _expect(isinstance(atoms, list), '"atoms" must be a list')
    locs, weights = [], []
    dim = None
    for i, atom in enumerate(atoms):
        _expect(isinstance(atom, dict) and "t" in atom and "W" in atom,
                f'atoms[{i}] needs "t" and "W"')
        t = atom["t"]
        _expect(isinstance(t, (int, float)) and not isinstance(t, bool),
                f'atoms[{i}]["t"] must be a number')
        w = atom["W"]
        _expect(isinstance(w, list) and len(w) >= 1,
                f'atoms[{i}]["W"] must be a matrix')
        if dim is None:
            dim = len(w)
        locs.append(float(t))
        weights.append(_moment_to_matrix(w, dim, f'atoms[{i}]["W"]'))
    if dim is None:
        dim = block_dim
    try:
        return AtomicMatrixMeasure.from_atoms(
            np.array(locs), np.array(weights).reshape(-1, dim, dim),
            block_dim=dim)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


# -------------------------------------------------------------- serializers

def condition_to_json(report: ConditionReport) -> dict:
    return {
        "N": report.block_dim,
        "d": report.order,
        "leading_positive": report.leading_positive,
        "trailing_psd": report.trailing_psd,
        "solvable": report.solvable,
        "min_eig_leading": float(report.min_eig_leading),
        "min_eig_trailing": float(report.min_eig_trailing),
    }


def admissibility_to_json(report: AdmissibilityReport) -> dict:
    return {
        "admissible": report.admissible,
        "margin": opt_float(report.margin),
        "parameter_norm": opt_float(report.parameter_norm),
        "forbidden_gap": opt_float(report.forbidden_gap),
        "coincides_with_forbidden": report.coincides_with_forbidden,
        "borderline": report.borderline,
    }


def verification_to_json(report: VerificationReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "deviations": [float(x) for x in report.deviations],
        "max_deviation": float(report.max_deviation),
        "scale": float(report.scale),
        "rel_tol": float(report.rel_tol),
        "passed": report.passed,
    }


def recovery_to_json(rec: ContourRecovery | None) -> dict | None:
    if rec is None:
        return None
    return {"moments": [matrix_to_json(m) for m in rec.moments]}


def perron_to_json(res: PerronResult) -> dict:
    return {
        "edges": real_vector_to_json(res.edges),
        "increments": [matrix_to_json(w) for w in res.increments],
        "method": res.method,
    }


def scalar_result_to_json(res: ScalarEvenResult) -> dict:
    return {
        "verdict": res.verdict,
        "rank_index": res.rank_index,
        "certificate": res.certificate,
        "null_coeffs": (None if res.null_coeffs is None
                        else real_vector_to_json(res.null_coeffs)),
        "atoms": (None if res.roots is None else
                  [{"t": float(t), "w": float(w)}
                   for t, w in zip(res.roots, res.atom_weights)]),
        "max_deviation": opt_float(res.max_deviation),
        "augmented_moment": opt_float(res.augmented_moment),
    }
