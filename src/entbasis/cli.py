"""Command-line front end.

Subcommands:

  gen          construct a shift-and-multiply basis and write it as JSON
  verify       check a basis file for unitarity and orthonormality of its
               operators, i.e. orthonormality and maximal entanglement of
               the associated vectors
  factorize    decide local / local-flip / neither for a unitary file
  check        run property suites: bell-all, universality, clifford,
               det-criterion

Exit codes: 0 all checks passed (for factorize: ran to completion), 1 a
property check failed, 2 malformed input or usage error. Identical
command lines with identical seeds produce byte-identical report files.
"""

import argparse
import sys

import numpy as np

from .bell import (
    bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    theta2,
    universality_search,
)
from .clifford import build_clifford_generators, clifford_check
from .entangled import fourier_basis, shift_multiply_basis, verify_unitary_basis
from .factorize import factor_local
from .fileio import (
    _json_int,
    basis_from_obj,
    dump_basis,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    report_to_obj,
    save_json,
)
from .hadamard import cyclic_latin_square, sylvester_hadamard
from .reports import INPUT_TOL, TOL

__all__ = ["main"]


def _load_latin(path, dim):
    obj = load_json(path)
    if isinstance(obj, dict):
        if "table" not in obj:
            raise ValueError("Latin square object needs a \"table\" field")
        obj = obj["table"]
    if not (isinstance(obj, list) and all(isinstance(row, list) for row in obj)):
        raise ValueError("Latin square must be a 2D integer array")
    table = np.array([[_json_int(x, "Latin square entry") for x in row] for row in obj])
    if table.shape != (dim, dim):
        raise ValueError("Latin square has shape %s, expected %d x %d"
                         % (table.shape, dim, dim))
    return table


def cmd_gen(args):
    d = args.dim
    if d < 1:
        raise ValueError("dimension must be positive")
    if args.construction == "fourier":
        basis = fourier_basis(d, args.tol)
    elif args.construction == "sylvester":
        h = sylvester_hadamard(d)
        basis = shift_multiply_basis([h] * d, cyclic_latin_square(d), args.tol)
    else:
        if not args.hadamard:
            raise ValueError("custom construction needs --hadamard")
        mats = [matrix_from_obj(load_json(p)) for p in args.hadamard]
        if len(mats) == 1:
            mats = mats * d
        if len(mats) != d:
            raise ValueError("need 1 or %d Hadamard files, got %d" % (d, len(mats)))
        table = _load_latin(args.latin, d) if args.latin else cyclic_latin_square(d)
        basis = shift_multiply_basis(mats, table, args.tol)
    if args.out:
        with open(args.out, "w") as fh:
            dump_basis(basis, fh)
    else:
        dump_basis(basis, sys.stdout)
    return 0


def cmd_verify(args):
    basis = basis_from_obj(load_json(args.basis))
    report = verify_unitary_basis(basis, args.tol)
    print(report.summary())
    if not report:
        print("offending pair: %s" % (tuple(report.witnesses[0]["pair"]),))
        return 1
    return 0


def cmd_factorize(args):
    u = matrix_from_obj(load_json(args.matrix))
    try:
        result = factor_local(u, args.tol)
    except ValueError as exc:
        # non-unitary or misshaped input is a usage problem, not a verdict
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("kind: %s" % result.kind)
    print("residual: %.6e" % result.residual)
    obj = {"kind": result.kind, "residual": result.residual}
    if result.factors is not None:
        u1, u2 = result.factors
        obj["u1"] = matrix_to_obj(u1)
        obj["u2"] = matrix_to_obj(u2)
    if args.report:
        save_json(obj, args.report)
    return 0


def _load_entangled(path, tol):
    basis = basis_from_obj(load_json(path))
    report = verify_unitary_basis(basis, tol)
    if not report:
        raise ValueError(
            "input does not verify as a basis: offending pair %s"
            % (tuple(report.witnesses[0]["pair"]),)
        )
    return basis


def cmd_check_bell_all(args):
    basis = _load_entangled(args.basis, INPUT_TOL) if args.basis else bell_basis()
    reports = [
        check_bell_condition(basis, cond, trials=args.trials, seed=args.seed, tol=args.tol)
        for cond in (2, 4, 5, 6)
    ]
    for rep in reports:
        print(rep.summary())
    if args.report:
        save_json([report_to_obj(r) for r in reports], args.report)
    return 0 if all(r.passed for r in reports) else 1


def cmd_check_universality(args):
    if args.dim == 2:
        rep = check_universality(theta2(1.0), trials=args.trials, seed=args.seed, tol=args.tol)
    else:
        rep = universality_search(
            dim=args.dim,
            candidates=args.candidates,
            trials=args.trials,
            seed=args.seed,
        )
    print(rep.summary())
    print("verdict: %s" % rep.verdict)
    if args.report:
        save_json(report_to_obj(rep), args.report)
    return 0 if rep.passed else 1


def cmd_check_clifford(args):
    if args.count % 2 == 0:
        raise ValueError("generator count must be odd")
    gens = build_clifford_generators(args.count)
    rep = clifford_check(gens, tol=args.tol)
    print(rep.summary())
    print("count %d acting on dimension %d (expected %s)"
          % (rep.details["count"], rep.details["dimension"],
             rep.details.get("expected_dimension")))
    if args.report:
        save_json(report_to_obj(rep), args.report)
    return 0 if rep.passed else 1


def cmd_check_det_criterion(args):
    rep = check_det_criterion_agreement(trials=args.trials, seed=args.seed, tol=args.tol)
    print(rep.summary())
    print("verdict: %s" % rep.verdict)
    if args.report:
        save_json(report_to_obj(rep), args.report)
    return 0 if rep.passed else 1


def _add_check_flags(p, sampled=True):
    p.add_argument("--tol", type=float, default=TOL, help="pass tolerance (default %g)" % TOL)
    if sampled:
        p.add_argument("--trials", type=int, default=1000, help="sampling trials (default 1000)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--report", metavar="FILE", help="write a JSON report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entbasis",
        description="Construct and verify orthonormal bases of maximally "
                    "entangled vectors, factor unitaries into local parts, "
                    "and run the d=2 structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a shift-and-multiply basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--construction", choices=("fourier", "sylvester", "custom"),
                   default="fourier")
    p.add_argument("--hadamard", nargs="+", metavar="FILE",
                   help="matrix file(s): one reused for all columns, or dim files")
    p.add_argument("--latin", metavar="FILE",
                   help="JSON Latin square (2D integer array, or {\"table\": ...})")
    p.add_argument("--tol", type=float, default=TOL)
    p.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="verify a basis file")
    p.add_argument("basis", metavar="BASISFILE")
    p.add_argument("--tol", type=float, default=TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factorize", help="factor a unitary into local parts")
    p.add_argument("matrix", metavar="MATRIXFILE")
    p.add_argument("--tol", type=float, default=INPUT_TOL,
                   help="unitarity tolerance (default %g)" % INPUT_TOL)
    p.add_argument("--report", metavar="FILE", help="write a JSON report")
    p.set_defaults(func=cmd_factorize)

    check = sub.add_parser("check", help="run property check suites")
    csub = check.add_subparsers(dest="suite", required=True)

    p = csub.add_parser("bell-all", help="reality/anticommutation conditions 2,4,5,6")
    p.add_argument("--basis", metavar="FILE", help="basis file (default: Bell basis)")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_bell_all)

    p = csub.add_parser("universality", help="phase-covariance of antilinear operators")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--candidates", type=int, default=50,
                   help="candidate operators searched at dim >= 3 (default 50)")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_universality)

    p = csub.add_parser("clifford", help="anticommutation relations of built generators")
    p.add_argument("--count", type=int, default=5, help="odd generator count (default 5)")
    _add_check_flags(p, sampled=False)
    p.set_defaults(func=cmd_check_clifford)

    p = csub.add_parser("det-criterion",
                        help="determinant classification vs direct factorization")
    _add_check_flags(p)
    p.set_defaults(func=cmd_check_det_criterion)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
