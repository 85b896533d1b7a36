"""Command-line front end: matrix file I/O and per-result subcommands.

Matrix file format (JSON, row-major, complex entries as [re, im] pairs)::

    {"rows": 2, "cols": 2,
     "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}

Suite report schema (also emitted by ``rhoperp check``)::

    {"seed": int, "trials": int, "all_pass": bool,
     "properties": [{"name": str, "trials": int, "failures": int,
                     "worst_margin": float | null, "seconds": float}, ...]}

Each report lists the fields of its result dataclass in declaration
order (``daugavet`` leaves out the cube identity's witnesses): a state as
``{"type": "state", "density": matrix}``, a complex unit as
``{"type": "unimodular", "value": [re, im]}``, a vector as [re, im] pairs.

Exit codes: 0 success (for ``ortho``: the relation holds; for ``check``:
all properties pass; for ``daugavet``: identities within tolerance; for
``rho --oracle``: both difference quotients within ``tol ||x|| ||y||`` of
the closed forms), 1 negative result, 2 usage or value error, 3 shape
mismatch.  Every exit prints one JSON document on stdout, a failure
``{"error": str}``, except a matrix file that cannot be read or parsed
and a malformed command line: those print ``error: ...`` on stderr (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .daugavet import (module_daugavet_check, operator_daugavet_witness,
                       rho_cube_identity)
from .errors import RhoperpError, ShapeMismatch, ZeroOperator
from .hmodule import module_norm
from .matcore import as_complex_matrix
from .normderiv import rho_fd, rho_pair
from .ortho import (DEFAULT_TOL, Relation, is_bj, is_bj_real, is_bj_strong,
                    is_ip_orthogonal, is_norm_parallel, is_rho_orthogonal)
from .stateface import StateWitness
from .verify import property_names, property_suite


class MatrixParseError(ValueError):
    """Input file is not a valid matrix document."""


def _pairs(a) -> list:
    """[re, im] pairs of the entries of ``a``, row-major."""
    return [[float(v.real), float(v.imag)] for v in np.ravel(a)]


def matrix_payload(a) -> dict:
    """JSON-ready dict for a matrix, row-major [re, im] entries."""
    m = as_complex_matrix(a)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _pairs(m)}


def matrix_from_payload(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise MatrixParseError("matrix document must be a JSON object")
    try:
        rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    except (KeyError, TypeError) as exc:
        raise MatrixParseError(f"missing matrix field: {exc}") from exc
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise MatrixParseError("rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise MatrixParseError(f"expected {rows * cols} entries")
    try:
        flat = [complex(float(re), float(im)) for re, im in entries]
    except (TypeError, ValueError) as exc:
        raise MatrixParseError(f"entries must be [re, im] pairs: {exc}") from exc
    return np.array(flat, dtype=np.complex128).reshape(rows, cols)


def load_matrix(path) -> np.ndarray:
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_payload(doc)


def save_matrix(a, path) -> None:
    with open(path, "w") as fp:
        json.dump(matrix_payload(a), fp)
        fp.write("\n")


def _encode(value):
    """JSON value of one report field."""
    if isinstance(value, StateWitness):
        return {"type": "state", "density": matrix_payload(value.density)}
    if isinstance(value, complex):
        return {"type": "unimodular", "value": _pairs(value)[0]}
    if isinstance(value, np.ndarray):
        return _pairs(value)
    if isinstance(value, dict):
        return {k: float(v) if isinstance(v, (int, float, np.floating)) else v
                for k, v in value.items()}
    return value


def _payload(report, **rename) -> dict:
    """The fields of a report dataclass in declaration order, each under its
    own name, or under ``rename[name]``, or left out where that is None."""
    doc = {}
    for f in fields(report):
        key = rename.get(f.name, f.name)
        if key is not None:
            doc[key] = _encode(getattr(report, f.name))
    return doc


def _emit(report: dict, json_out) -> None:
    text = json.dumps(report, indent=2)
    if json_out:
        with open(json_out, "w") as fp:
            fp.write(text + "\n")
    print(text)


def _cmd_rho(args) -> int:
    x, y = load_matrix(args.x), load_matrix(args.y)
    report = _payload(rho_pair(x, y))
    ok = True
    if args.oracle:
        fd_plus = rho_fd(x, y, "+")
        fd_minus = rho_fd(x, y, "-")
        diff = max(abs(fd_plus - report["rho_plus"]), abs(fd_minus - report["rho_minus"]))
        ok = diff <= args.tol * module_norm(x) * module_norm(y)
        report["oracle"] = {
            "rho_plus_fd": fd_plus,
            "rho_minus_fd": fd_minus,
            "max_abs_difference": diff,
            "tolerance": args.tol,
        }
    _emit(report, args.json_out)
    return 0 if ok else 1


_RELATIONS = {
    Relation.IP.value: is_ip_orthogonal,
    Relation.BJ.value: is_bj,
    Relation.BJ_REAL.value: is_bj_real,
    Relation.BJ_STRONG.value: is_bj_strong,
    Relation.RHO.value: is_rho_orthogonal,
    Relation.PARALLEL.value: is_norm_parallel,
}


def _cmd_ortho(args) -> int:
    rep = _RELATIONS[args.relation](load_matrix(args.x), load_matrix(args.y), tol=args.tol)
    _emit(_payload(rep), args.json_out)
    return 0 if rep.holds else 1


def _cmd_daugavet(args) -> int:
    x = load_matrix(args.x)
    mod = module_daugavet_check(x, args.alpha, args.beta, tol=args.tol)
    cube = rho_cube_identity(x, tol=args.tol)
    report = {"module": _payload(mod),
              "cube_identity": _payload(cube, max_witness=None, min_witness=None)}
    ok = mod.within_tol and cube.within_tol
    try:
        op = operator_daugavet_witness(x, tol=args.tol)
        report["operator"] = _payload(op, norm_t="norm", norm_cube="cube_norm",
                                      finite_dimension_note="note")
        ok = ok and op.within_tol
    except ZeroOperator:
        report["operator"] = None
    _emit(report, args.json_out)
    return 0 if ok else 1


def _cmd_check(args) -> int:
    names = None
    if args.suite != "full":
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
    report = property_suite(seed=args.seed, trials=args.trials, names=names)
    _emit(report.to_payload(), args.json_out)
    return 0 if report.all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhoperp",
        description="Norm derivatives and orthogonality relations for matrix modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rho = sub.add_parser("rho", help="one-sided norm derivatives with witnesses")
    p_rho.add_argument("--x", required=True, help="matrix file for the base point")
    p_rho.add_argument("--y", required=True, help="matrix file for the direction")
    p_rho.add_argument("--oracle", action="store_true",
                       help="cross-check against the finite-difference quotient")
    p_rho.add_argument("--tol", type=float, default=1e-5,
                       help="with --oracle, exit 1 when a quotient differs from its "
                            "closed form by more than tol ||x|| ||y||")
    p_rho.add_argument("--json-out", help="also write the report to this file")
    p_rho.set_defaults(func=_cmd_rho)

    p_ortho = sub.add_parser("ortho", help="decide an orthogonality relation")
    p_ortho.add_argument("--relation", required=True, choices=sorted(_RELATIONS))
    p_ortho.add_argument("--x", required=True)
    p_ortho.add_argument("--y", required=True)
    p_ortho.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ortho.add_argument("--json-out")
    p_ortho.set_defaults(func=_cmd_ortho)

    p_dg = sub.add_parser("daugavet", help="norm identities for x<x,x> and T+TT*T")
    p_dg.add_argument("--x", required=True)
    p_dg.add_argument("--alpha", type=float, default=1.0)
    p_dg.add_argument("--beta", type=float, default=1.0)
    p_dg.add_argument("--tol", type=float, default=1e-9, help="relative tolerance of every check")
    p_dg.add_argument("--json-out")
    p_dg.set_defaults(func=_cmd_daugavet)

    p_check = sub.add_parser("check", help="run the seeded property suite")
    p_check.add_argument("--suite", default="full",
                         help="comma-separated property names (default: full suite); "
                              f"known: {', '.join(property_names())}")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--json-out")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShapeMismatch as exc:
        print(json.dumps({"error": f"shape mismatch: {exc}"}))
        return 3
    except (RhoperpError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
