"""Common result record for statistical and deterministic checkers.

Every verifier and checker in the package returns a CheckReport. A
CheckReport never claims a proof: its verdict distinguishes "no violation
found" (the sampled search came up empty) from "violation witnessed" (a
concrete counterexample is recorded). Witnesses are small dictionaries that
identify the violating input by trial index and seed, or by index pair, so
every witness can be regenerated deterministically.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckReport", "MAX_WITNESSES", "tolerance_report", "require_positive", "seed_tag"]

# keep reports small and diffable; the seed makes the full set recoverable
MAX_WITNESSES = 8


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
