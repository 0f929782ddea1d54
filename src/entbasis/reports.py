"""Common result record for the package's checkers and verifiers.

Every verifier and checker in the package returns a CheckReport. Its verdict
distinguishes "no violation found" from "violation witnessed" (a concrete
counterexample is recorded). One witness rule holds for every check: a
violation not below tol, NaN included, is a witness, a small dictionary that
names the input by index pair (pair_witnesses), generator, candidate or
representative, so it can be regenerated deterministically. The pass rule
of every check but the counterexample search is tolerance_report: the worst
violation is below tol, which a NaN is not, and no witness is listed.

The tolerances every module shares are named here once, and so are the rules
that refuse an input where it enters, with one wording each:
require_positive, require_square and require_tolerance.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckReport", "MAX_WITNESSES", "CHUNK_ENTRIES", "TOL", "INPUT_TOL", "RANK_TOL", "LEAD_TOL",
    "tolerance_report", "require_positive", "require_square", "require_tolerance", "chunk_size",
    "pair_witnesses",
]

# keep reports small and diffable; the seed makes the full set recoverable
MAX_WITNESSES = 8

# default pass bound of every check and verifier
TOL = 1e-10
# how far an input may sit from the unitary or basis it claims to be before
# it is refused (factorization, Bell canonicalization, loaded basis files)
INPUT_TOL = 1e-8
# ratio s1/s0 below which an operator-Schmidt spectrum counts as rank one;
# double precision leaves <= 1e-13 noise, genuine entanglers sit far above
RANK_TOL = 1e-8
# entries below this modulus are skipped when a phase convention looks for
# the first nonzero entry of a matrix
LEAD_TOL = 1e-12

# complex entries in a chunk's largest per-item array (clifford._monomial_norms' pair chunks),
# so memory is flat in d
CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a property check.

    max_violation is the largest observed deviation and threshold the pass
    bound it was compared against. A tolerance_report passes when
    max_violation < threshold and it lists no witness; the counterexample
    search passes when every candidate is violated, and the verdict string
    says which happened. trials is 0 for deterministic checks.
    """

    name: str
    trials: int
    max_violation: float
    threshold: float
    passed: bool
    verdict: str
    witnesses: tuple = field(default_factory=tuple)
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed

    def summary(self):
        return "%-34s %-9s max violation %.3e (threshold %.1e, trials %s)" % (
            self.name,
            "pass" if self.passed else "FAIL",
            self.max_violation,
            self.threshold,
            self.trials if self.trials else "-",
        )


def tolerance_report(name, worst, tol, trials=0, witnesses=(), details=None):
    """CheckReport that passes only if worst < tol (so not NaN) and it lists no witness."""
    require_tolerance(tol)
    passed = bool(worst < tol) and not witnesses
    return CheckReport(
        name=name,
        trials=trials,
        max_violation=float(worst),
        threshold=tol,
        passed=passed,
        verdict="no violation found" if passed else "violation witnessed",
        witnesses=tuple(witnesses),
        details=details or {},
    )


def pair_witnesses(v, rows, cols, tol, **kind):
    """The first MAX_WITNESSES entries v[k] not below tol, as witnesses of (rows[k], cols[k])."""
    return [{**kind, "pair": [int(rows[k]), int(cols[k])], "violation": float(v[k])}
            for k in np.flatnonzero(~(v < tol))[:MAX_WITNESSES]]


def require_positive(count, what="trials"):
    """A size below 1: no basis, matrix, table or candidate to build."""
    if count < 1:
        raise ValueError("%s must be at least 1, got %r" % (what, count))


def require_square(x, what):
    """x, if it is one square matrix (an array: the caller converts it)."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("%s must be square" % what)
    return x


def require_tolerance(tol):
    """A tolerance that is NaN, not positive or infinite makes every check mean nothing."""
    if not 0.0 < tol < float("inf"):
        raise ValueError("tolerance must be finite and positive, got %r" % (tol,))


def chunk_size(per_item):
    """Items per chunk for a loop whose largest per-item array has per_item entries."""
    return max(1, CHUNK_ENTRIES // per_item)
