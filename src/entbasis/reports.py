"""Common result record for statistical and deterministic checkers.

Every verifier and checker in the package returns a CheckReport. A
CheckReport never claims a proof: its verdict distinguishes "no violation
found" (the sampled search came up empty) from "violation witnessed" (a
concrete counterexample is recorded). Witnesses are small dictionaries that
identify the violating input by trial index and seed, or by index pair, so
every witness can be regenerated deterministically.

Sampled checks run through one engine, sample_violations: it draws the
trials in chunks of stacked arrays, seeds chunk c from the spawn key (c,)
of the check's seed (chunk_rng), and keeps the first MAX_WITNESSES
violating trials in order. The tolerances every module shares are named
here once.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckReport", "MAX_WITNESSES", "CHUNK_ENTRIES", "TOL", "INPUT_TOL", "RANK_TOL", "LEAD_TOL",
    "tolerance_report", "require_positive", "seed_tag", "chunk_size", "chunk_rng",
    "sample_violations",
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

# complex entries a chunk of trials may hold in its largest per-trial array;
# keeps a sampled check's memory flat at any dimension
CHUNK_ENTRIES = 1 << 11


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a property check.

    max_violation is the largest observed deviation, threshold the pass
    bound it was compared against, and passed the comparison outcome (the
    direction depends on the check: most pass when the violation stays
    below threshold, counterexample searches pass when every candidate is
    violated; the verdict string states which happened). trials is 0 for
    deterministic checks.
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
    """CheckReport for a check that passes when its worst violation is below tol."""
    passed = bool(worst < tol)
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


def require_positive(count, what="trials"):
    """A sampled check with nothing to sample would pass without doing any work."""
    if count < 1:
        raise ValueError("%s must be at least 1, got %r" % (what, count))


def seed_tag(seed):
    """{"seed": seed} for an integer seed; a Generator can be neither written nor replayed."""
    if isinstance(seed, (int, np.integer)):
        return {"seed": int(seed)}
    return {}


def chunk_size(per_trial):
    """Trials per chunk for a check whose largest per-trial array has per_trial entries."""
    return max(1, CHUNK_ENTRIES // per_trial)


def chunk_rng(seed, chunk):
    """Generator of one chunk: spawn key (chunk,) of an integer seed.

    A Generator seed is drawn from chunk after chunk instead; such a run
    cannot be replayed from its report, and its witnesses carry no seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def sample_violations(trials, seed, tol, draw, measure, per_trial, unit="trial"):
    """The sampled-check engine: per-trial violations and the first witnesses.

    Trials run in chunks of chunk_size(per_trial). For each chunk,
    draw(rng, idx) gets the chunk's Generator and its global trial indices
    and returns a batch of inputs; measure(batch) returns the per-trial
    violations as one array, or a pair (violations, fields) whose dict of
    per-trial arrays adds named entries to each witness. Every trial with
    violation >= tol is a witness {unit: index, "seed": seed, "violation":
    v, **fields}, up to MAX_WITNESSES, in trial order. Returns the
    violations of all trials and the witnesses; the caller reduces them to
    its report.
    """
    require_positive(trials, unit + "s")
    step = chunk_size(per_trial)
    violations = np.empty(trials)
    witnesses = []
    for chunk, start in enumerate(range(0, trials, step)):
        idx = np.arange(start, min(start + step, trials))
        out = measure(draw(chunk_rng(seed, chunk), idx))
        v, fields = out if isinstance(out, tuple) else (out, {})
        violations[idx] = v
        fields = {name: np.asarray(f) for name, f in fields.items()}
        for k in np.flatnonzero(violations[idx] >= tol)[: MAX_WITNESSES - len(witnesses)]:
            witnesses.append(
                {unit: int(idx[k]), **seed_tag(seed), "violation": float(violations[idx[k]]),
                 **{name: f[k].tolist() for name, f in fields.items()}}
            )
    return violations, witnesses
