"""Common result record for statistical and deterministic checkers.

Every verifier and checker in the package returns a CheckReport. A
CheckReport never claims a proof: its verdict distinguishes "no violation
found" (the sampled search came up empty) from "violation witnessed" (a
concrete counterexample is recorded). One witness rule holds for every
check: a violation not below tol, NaN included, is a witness, a small
dictionary that names the input by trial index and seed, or by index pair
(pair_witnesses), so it can be regenerated deterministically. The pass rule
of every check but the counterexample search is tolerance_report: the worst
violation is below tol, which a NaN is not, and no witness is listed.

Sampled checks run through one engine, sample_violations: it draws the
trials in chunks of stacked arrays, seeds chunk c from the spawn key (c,)
of the check's seed (chunk_rng), and keeps the first MAX_WITNESSES
violating trials in order. The tolerances every module shares are named
here once, and so are the rules that refuse an input where it enters, with
one wording each: require_positive, require_square and require_tolerance.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckReport", "MAX_WITNESSES", "CHUNK_ENTRIES", "TOL", "INPUT_TOL", "RANK_TOL", "LEAD_TOL",
    "tolerance_report", "require_positive", "require_square", "require_tolerance", "chunk_size",
    "chunk_rng", "pair_witnesses", "sample_violations",
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

# complex entries a chunk may hold in its largest per-trial array, so memory stays flat at any
# d: a check's arrays peak at 1.0 MiB (tracemalloc at d = 2, 3, 8; 0.27 MiB at 1 << 11)
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
    """A size below 1: no basis, matrix or table to build, or a check with nothing to sample."""
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


def chunk_size(per_trial):
    """Trials per chunk for a check whose largest per-trial array has per_trial entries."""
    return max(1, CHUNK_ENTRIES // per_trial)


def chunk_rng(seed, chunk):
    """Generator of one chunk: spawn key (chunk,) of an integer seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def sample_violations(trials, seed, tol, draw, measure, per_trial):
    """The sampled-check engine: per-trial violations and the first witnesses.

    Trials run in chunks of chunk_size(per_trial). For each chunk,
    draw(rng, idx) gets the chunk's Generator and its global trial indices
    and returns a batch of inputs; measure(batch) returns the per-trial
    violations as one array, or a pair (violations, fields) whose fields
    add named entries to each witness. fields(rows) gets the chunk
    positions of that chunk's witnesses only and returns a dict with one
    entry per row, so a chunk with no witness builds no field, and one that
    costs more than the violation itself (an SVD residual, say) is computed
    for at most MAX_WITNESSES trials of the whole run. Every trial whose
    violation is not below tol, NaN included, is a witness {"trial": index,
    "seed": seed, "violation": v, **fields}, up to MAX_WITNESSES, in trial
    order; measure runs with overflow and invalid warnings off, as an inf or
    NaN is a verdict. A bad trial count, tol or seed (an integer: a
    Generator's run could not be replayed) is refused before the first draw.
    Returns the violations of all trials and the witnesses for the report.
    """
    require_positive(trials)
    require_tolerance(tol)
    seed = operator.index(seed)
    step = chunk_size(per_trial)
    violations = np.empty(trials)
    witnesses = []
    for chunk, start in enumerate(range(0, trials, step)):
        idx = np.arange(start, min(start + step, trials))
        batch = draw(chunk_rng(seed, chunk), idx)
        with np.errstate(over="ignore", invalid="ignore"):
            out = measure(batch)
        violations[idx], fields = out if isinstance(out, tuple) else (out, None)
        rows = np.flatnonzero(~(violations[idx] < tol))[: MAX_WITNESSES - len(witnesses)]
        picked = fields(rows) if fields and len(rows) else {}
        for j, k in enumerate(rows):
            witnesses.append(
                {"trial": int(idx[k]), "seed": seed, "violation": float(violations[idx[k]]),
                 **{name: np.asarray(f)[j].tolist() for name, f in picked.items()}}
            )
    return violations, witnesses
