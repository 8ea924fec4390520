"""Command line interface.

Subcommands:

    momext check PROBLEM.json
        Evaluate the two solvability conditions and report them.

    momext solve PROBLEM.json [options]
        Run the full construction for one extension parameter.

    momext sweep PROBLEM.json [--theta-grid K]
        Walk the unimodular parameter family and compare the measures.

    momext scalar-even MOMENTS
        Classify an even-length real sequence (file path or inline JSON).

    momext verify PROBLEM.json MEASURE.json [--rel-tol X]
        Check a measure file against the prescribed moments.

Every subcommand prints exactly one line of canonical JSON on stdout, so
identical inputs give byte-identical output.  Exit codes: 0 success (problem
solvable, verification passed, sequence not infeasible); 1 malformed input,
a flag value out of range included; 2 infeasible data, failed verification,
or a construction error; 3 the strict positivity condition on the leading
section failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .errors import (DimensionMismatch, MomentProblemError, NotPSD,
                     ProblemFileError)
from .hankel import check_truncated_conditions
from .jsonio import (admissibility_to_json, complex_to_pair, condition_to_json,
                     dumps_canonical, matrix_to_json, measure_to_json,
                     opt_float, parse_measure, parse_parameter, parse_problem,
                     parse_scalar_sequence, perron_to_json, recovery_to_json,
                     scalar_result_to_json, verification_to_json)
from .measures import bin_measure, perron_inversion, verify_moments
from .pipeline import _solve, prepare, theta_sweep
from .scalar import VERDICT_INFEASIBLE, solve_scalar_even
from .tolerances import Tolerances

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_POSITIVE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here 2 means infeasible data,
    so usage problems are remapped onto the malformed-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------------ helpers

def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc


def _apply_tol_flags(tol: Tolerances, pairs) -> Tolerances:
    overrides = {}
    for item in pairs or []:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ProblemFileError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ProblemFileError(
                f"--tol {name}: {value!r} is not a number") from None
    try:
        return tol.override(overrides)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None


def _number(convert, low=None):
    """An argparse type: the text read by convert (float or int), which must
    be finite and, when low is given, at least low."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text!r}")
        return value
    return parse


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ProblemFileError('--grid expects "START:STOP:WIDTH"')
    try:
        start, stop, width = (float(p) for p in parts)
    except ValueError:
        raise ProblemFileError(f"--grid: {text!r} has a non-numeric part") from None
    if not all(map(math.isfinite, (start, stop, width))):
        raise ProblemFileError(f"--grid: {text!r} has a non-finite part")
    if not (stop > start and width > 0.0):
        raise ProblemFileError("--grid needs STOP > START and WIDTH > 0")
    return start, stop, width


def _prepare_with_parameter(args, seq, file_spec, tol):
    """The prepared workspace and the parameter to solve with (None for the
    default scan).

    --parameter FILE wins over --theta, which wins over the spec embedded in
    the problem file; --theta T is the spec {"constant_unimodular_theta": T}.
    Unimodular-theta specs are sized by the defect of the workspace; other
    specs are parsed before the data is prepared, so a malformed parameter
    is reported first.
    """
    spec = file_spec
    if args.parameter is not None:
        try:
            spec = json.loads(_load_text(args.parameter))
        except json.JSONDecodeError as exc:
            raise ProblemFileError(
                f"parameter file is not valid JSON: {exc}") from exc
    elif args.theta is not None:
        spec = {"constant_unimodular_theta": args.theta}
    if isinstance(spec, dict) and "constant_unimodular_theta" in spec:
        ws = prepare(seq, tol)
        return ws, parse_parameter(spec, defect=ws.defect)
    parameter = None if spec is None else parse_parameter(spec)
    return prepare(seq, tol), parameter


def _write_weight_csv(path: str, xs, mats, block_dim: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x"]
        for i in range(block_dim):
            for j in range(block_dim):
                header += [f"W[{i}][{j}].re", f"W[{i}][{j}].im"]
        writer.writerow(header)
        for x, mat in zip(xs, mats):
            row = [format(float(x), ".17g")]
            for i in range(block_dim):
                for j in range(block_dim):
                    z = complex(mat[i, j])
                    row += [format(z.real, ".17g"), format(z.imag, ".17g")]
            writer.writerow(row)


def _emit(obj) -> None:
    print(dumps_canonical(obj))


# --------------------------------------------------------------- subcommands

def _cmd_check(args) -> int:
    seq, _, tol = parse_problem(_load_text(args.problem))
    tol = _apply_tol_flags(tol, args.tol)
    report = check_truncated_conditions(seq, tol)
    _emit(condition_to_json(report))
    if not report.leading_positive:
        return EXIT_NOT_POSITIVE
    if not report.trailing_psd:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _solve_result_json(result) -> dict:
    out = {
        "kind": result.kind,
        "condition": condition_to_json(result.condition),
        "defect": result.defect,
        "gram_rank": result.gram_rank,
        "gram_eigenvalues": [float(x) for x in result.gram_eigenvalues],
        "parameter_theta": opt_float(result.parameter_theta),
        "admissibility": admissibility_to_json(result.admissibility),
        "measure": (None if result.measure is None
                    else measure_to_json(result.measure)),
        "verification": verification_to_json(result.verification),
        "recovery": recovery_to_json(result.recovery),
        "transform_samples": None,
    }
    if result.transform_samples is not None:
        out["transform_samples"] = [
            {"lambda": complex_to_pair(lam), "T": matrix_to_json(tv)}
            for lam, tv in result.transform_samples]
    if result.extension is not None:
        out["herm_residual"] = float(result.extension.herm_residual)
    return out


def _cmd_solve(args) -> int:
    seq, file_spec, tol = parse_problem(_load_text(args.problem))
    tol = _apply_tol_flags(tol, args.tol)
    grid = _parse_grid(args.grid) if args.grid else None
    ws, parameter = _prepare_with_parameter(args, seq, file_spec, tol)
    result = _solve(ws, parameter, tol)
    out = _solve_result_json(result)
    if args.dump_gram:
        out["gram_coords"] = matrix_to_json(ws.space.coords)
    if args.dump_operator:
        out["operator"] = {
            "action": matrix_to_json(ws.shift.action),
            "domain_basis": matrix_to_json(ws.shift.dom_basis),
            "defect_basis_plus": matrix_to_json(ws.pair.basis_plus),
            "defect_basis_minus": matrix_to_json(ws.pair.basis_minus),
            "forbidden_matrix": matrix_to_json(ws.forbidden.matrix),
        }
    perron = None
    if grid is not None:
        perron = (bin_measure(result.measure, *grid, tol)
                  if result.measure is not None
                  else perron_inversion(result.transform, *grid))
        out["perron"] = perron_to_json(perron)
    if args.csv:
        if perron is not None:
            _write_weight_csv(args.csv, perron.edges[:-1], perron.increments,
                              seq.dim)
        elif result.measure is not None:
            _write_weight_csv(args.csv, result.measure.locations,
                              result.measure.weights, seq.dim)
        else:
            raise ProblemFileError(
                "--csv needs either an atomic measure or a --grid section")
    _emit(out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    seq, _, tol = parse_problem(_load_text(args.problem))
    tol = _apply_tol_flags(tol, args.tol)
    try:
        res = theta_sweep(seq, n_thetas=args.theta_grid, tol=tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    entries = []
    for entry in res.entries:
        entries.append({
            "theta": float(entry.theta),
            "admissibility": admissibility_to_json(entry.admissibility),
            "measure": (None if entry.measure is None
                        else measure_to_json(entry.measure)),
            "verification": verification_to_json(entry.verification),
        })
    distance = [[opt_float(v) for v in row] for row in res.distance_matrix]
    _emit({
        "defect": res.workspace.defect,
        "thetas": [float(t) for t in res.thetas],
        "forbidden_thetas": [float(t) for t in res.forbidden_thetas],
        "entries": entries,
        "distance_matrix": distance,
    })
    return EXIT_OK


def _cmd_scalar_even(args) -> int:
    text = args.moments
    if not text.lstrip().startswith(("[", "{")):
        text = _load_text(text)
    values = parse_scalar_sequence(text)
    tol = _apply_tol_flags(Tolerances(), args.tol)
    result = solve_scalar_even(values, tol)
    _emit(scalar_result_to_json(result))
    return EXIT_INFEASIBLE if result.verdict == VERDICT_INFEASIBLE else EXIT_OK


def _cmd_verify(args) -> int:
    seq, _, tol = parse_problem(_load_text(args.problem))
    tol = _apply_tol_flags(tol, args.tol)
    measure = parse_measure(_load_text(args.measure))
    if measure.block_dim != seq.dim:
        raise DimensionMismatch(
            f"measure weights are {measure.block_dim} x {measure.block_dim} "
            f"but the moments are {seq.dim} x {seq.dim}")
    report = verify_moments(measure, seq, rel_tol=args.rel_tol)
    _emit(verification_to_json(report))
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


# --------------------------------------------------------------------- main

def _add_tol_flag(sub) -> None:
    sub.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="override one tolerance (repeatable)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momext",
                     description="Truncated matrix moment problems on the "
                                 "real line: solvability, solutions, and "
                                 "their parametrization.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p = subs.add_parser("check", help="evaluate the solvability conditions")
    p.add_argument("problem", help="problem JSON file")
    _add_tol_flag(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("solve", help="construct a solution measure")
    p.add_argument("problem", help="problem JSON file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--parameter", metavar="FILE",
                       help="extension parameter JSON file")
    group.add_argument("--theta", type=_number(float), metavar="THETA",
                       help="use the unimodular parameter e^{i THETA} I")
    p.add_argument("--grid", metavar="START:STOP:WIDTH",
                   help="also recover cell masses on this half-open grid")
    p.add_argument("--csv", metavar="PATH",
                   help="write atoms (or --grid cells) as CSV")
    p.add_argument("--dump-gram", action="store_true",
                   help="include the representing-vector coordinates")
    p.add_argument("--dump-operator", action="store_true",
                   help="include shift action, defect bases, and the "
                        "forbidden-parameter matrix")
    _add_tol_flag(p)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("sweep", help="walk the unimodular parameter family")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--theta-grid", type=_number(int, 1), default=8,
                   metavar="K",
                   help="number of equispaced angles (default 8)")
    _add_tol_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("scalar-even",
                        help="classify an even-length scalar sequence")
    p.add_argument("moments",
                   help="JSON file path, or an inline JSON list of numbers")
    _add_tol_flag(p)
    p.set_defaults(func=_cmd_scalar_even)

    p = subs.add_parser("verify", help="check a measure against the moments")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--rel-tol", type=_number(float, 0.0), default=1e-6,
                   help="relative tolerance on moment deviations "
                        "(default 1e-6)")
    _add_tol_flag(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except NotPSD as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_NOT_POSITIVE if exc.section == "leading"
                else EXIT_INFEASIBLE)
    except MomentProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
