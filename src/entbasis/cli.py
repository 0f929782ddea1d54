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
property check failed, 2 malformed input, usage error or memory exhausted.
Identical command lines with identical seeds produce byte-identical report files.

Where the C library is glibc, main pins malloc's trim and mmap thresholds at 32 MiB
each, once per process. 32 MiB is glibc's own ceiling for its dynamic mmap threshold on
64-bit. Either threshold set alone fixes the other at 128 KiB, under gen --dim 24's 5.3 MB
stack, which is then mapped, unmapped and faulted in again on every warm call: 279 minor
faults a call with only the trim threshold set and 575 with only the mmap one, against
0.3 with both (one process, 20 warm calls). A 64 MiB trim threshold let the basis-io
bench's peak RSS creep 4 % in 25 s.
A library caller gets the same once main has run in its process.
Importing entbasis starts numpy's BLAS on one thread unless numpy or a thread count came first.
"""

import argparse
import ctypes
import dataclasses
import functools
import os
import sys

import numpy as np

from .bell import (
    _pair_reports,
    bell_basis,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    theta2,
    universality_search,
)
from .clifford import build_clifford_generators, clifford_check
from .entangled import _require_basis, shift_multiply_basis, verify_unitary_basis
from .factorize import factor_local
from .fileio import (
    _json_int,
    basis_bytes,
    dump_basis,
    load_basis,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    report_to_obj,
    save_json,
)
from .hadamard import cyclic_latin_square, fourier_hadamard, sylvester_hadamard
from .reports import INPUT_TOL, TOL, require_positive, require_tolerance

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
    require_positive(d, "dim")
    if d > MAX_GEN_DIM:
        raise ValueError("dim must be at most %d, got %d" % (MAX_GEN_DIM, d))
    if args.construction != "custom" and (args.latin or args.hadamard):
        raise ValueError("--latin and --hadamard need --construction custom")
    if args.construction == "fourier":
        mats = [fourier_hadamard(d)]
    elif args.construction == "sylvester":
        mats = [sylvester_hadamard(d)]
    elif args.hadamard:
        mats = [matrix_from_obj(load_json(p)) for p in args.hadamard]
    else:
        raise ValueError("custom construction needs --hadamard")
    if len(mats) == 1:
        mats = mats * d
    if len(mats) != d:
        raise ValueError("need 1 or %d Hadamard files, got %d" % (d, len(mats)))
    table = _load_latin(args.latin, d) if args.latin else cyclic_latin_square(d)
    basis = shift_multiply_basis(mats, table, args.tol)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(basis_bytes(basis))
    else:
        dump_basis(basis, sys.stdout)
    return 0


def cmd_verify(args):
    report = verify_unitary_basis(load_basis(args.basis), args.tol)
    return report, ["offending pair: %s" % (tuple(w["pair"]),) for w in report.witnesses[:1]]


def cmd_factorize(args):
    # non-unitary or misshaped input raises ValueError: a usage problem, not a verdict
    result = factor_local(matrix_from_obj(load_json(args.matrix)), args.tol)
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


def cmd_check_bell_all(args):
    # the one verify_unitary_basis of the command: a basis that fails it is refused
    basis = _require_basis(load_basis(args.basis) if args.basis else bell_basis(), INPUT_TOL)
    two = check_bell_condition(basis, 2, tol=args.tol)
    four, six = _pair_reports(basis, args.tol, True)  # condition 5's report is 6's, renamed
    return [two, four, dataclasses.replace(six, name="bell-condition-5"), six], []


def cmd_check_universality(args):
    require_positive(args.candidates, "candidates")  # at d=2 too, where none is drawn
    if args.dim == 2:
        rep = check_universality(theta2(1.0), tol=args.tol)
    else:
        rep = universality_search(
            dim=args.dim, candidates=args.candidates, seed=args.seed, threshold=args.tol
        )
    return rep, ["verdict: %s" % rep.verdict]


# N generators have order 2^((N-1)/2). The check works on their monomial parts,
# O(d) a pair, so memory binds now, not time: on a 2-core VM, count 17 (order 256)
# ran in 0.05 s at 55 MB peak RSS and count 19 in 0.2 s at 142 MB (0.7 s and 5.5 s
# with dense products); each further step of 2 costs about 4.5x the memory
MAX_CLIFFORD_COUNT = 17

# gen holds the whole basis, a (d^2, d, d) complex stack of 16 d^4 bytes. Under 2 GiB of
# address space (one BLAS thread, 2-core VM) gen --dim 104 --out ran in 9.6 s at 1.89 GB
# peak RSS and wrote a 5.9 GB file; at 105 the 1.81 GiB stack left no room for the
# (d, d, d) temporaries that fill it, and from 106 on the stack itself is refused
MAX_GEN_DIM = 104


def cmd_check_clifford(args):
    if args.count > MAX_CLIFFORD_COUNT:
        raise ValueError("generator count must be at most %d, got %d"
                         % (MAX_CLIFFORD_COUNT, args.count))
    rep = clifford_check(build_clifford_generators(args.count), tol=args.tol)
    return rep, ["count %d acting on dimension %d (expected %s)"
                 % (rep.details["count"], rep.details["dimension"],
                    rep.details.get("expected_dimension"))]


def cmd_check_det_criterion(args):
    rep = check_det_criterion_agreement(tol=args.tol)
    return rep, ["verdict: %s" % rep.verdict]


def _add_check_flags(p, sampled=True, note="", seed_note=None):
    p.add_argument("--tol", type=float, default=TOL, help="pass tolerance (default %g)" % TOL)
    if sampled:
        p.add_argument("--trials", type=int, default=1000,
                       help="sampling trials (default 1000%s)" % note)
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default 0%s)" % (note if seed_note is None else seed_note))
    p.add_argument("--report", metavar="FILE", help="write a JSON report")


# one parser per process: each parse_args makes a fresh Namespace, so no state
# passes from one main() call to the next
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="entbasis",
        description="Construct and verify orthonormal bases of maximally "
                    "entangled vectors, factor unitaries into local parts, "
                    "and run the d=2 structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a shift-and-multiply basis")
    p.add_argument("--dim", type=int, required=True, help="at most %d" % MAX_GEN_DIM)
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
    p.add_argument("--report", metavar="FILE", help="write a JSON report")
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
    _add_check_flags(p, note="; accepted and ignored: every condition is decided exactly")
    p.set_defaults(func=cmd_check_bell_all)

    p = csub.add_parser("universality", help="phase-covariance of antilinear operators")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--candidates", type=int, default=50,
                   help="candidate operators searched at dim >= 3 (default 50)")
    _add_check_flags(p, note="; accepted and ignored: u(d)'s generators decide the check",
                     seed_note="; draws the candidates at dim >= 3")
    p.set_defaults(func=cmd_check_universality)

    p = csub.add_parser("clifford", help="anticommutation relations of built generators")
    p.add_argument("--count", type=int, default=5,
                   help="odd generator count, at most %d (default 5)" % MAX_CLIFFORD_COUNT)
    _add_check_flags(p, sampled=False)
    p.set_defaults(func=cmd_check_clifford)

    p = csub.add_parser("det-criterion",
                        help="determinant classification vs direct factorization")
    _add_check_flags(p, note="; accepted and ignored: so(4)'s generators and one unitary per "
                             "coset decide the check")
    p.set_defaults(func=cmd_check_det_criterion)

    return parser


@functools.cache
def _pin_malloc():
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None):
    _pin_malloc()
    args = build_parser().parse_args(argv)
    try:
        # every subcommand takes --tol
        require_tolerance(args.tol)
        result = args.func(args)
        if isinstance(result, int):  # gen and factorize print and write their own output
            return result
        # a check's report (bell-all's a list, as in its file) and the lines after the summaries
        found, lines = result
        one = not isinstance(found, list)
        reports = [found] if one else found
        print("\n".join([r.summary() for r in reports] + lines))
        if args.report:
            objs = [report_to_obj(r) for r in reports]
            save_json(objs[0] if one else objs, args.report)
        return 0 if all(r.passed for r in reports) else 1
    except (ValueError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
