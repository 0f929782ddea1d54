"""Families of hermitian unitaries satisfying the Clifford relations.

The relations R_a R_b + R_b R_a = 2 delta_ab I force, for an odd number N
of generators acting irreducibly, the representation dimension 2^((N-1)/2).
build_clifford_generators realizes that dimension constructively by a
doubling ladder; clifford_check verifies the relations for any candidate
family.
"""

import numpy as np

from .linalg import SIGMA1, SIGMA2, SIGMA3
from .reports import MAX_WITNESSES, TOL, tolerance_report

__all__ = ["build_clifford_generators", "clifford_check"]


def build_clifford_generators(n):
    """N pairwise anticommuting hermitian unitaries on dimension 2^((N-1)/2).

    N must be odd. The recursion doubles the space per step: from
    generators R'_a on the smaller space it forms sigma3 tensor I,
    sigma1 tensor I, and sigma2 tensor R'_a.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("generator count must be odd and positive, got %s" % (n,))
    gens = [np.ones((1, 1), dtype=complex)]
    while len(gens) < n:
        dim = gens[0].shape[0]
        eye = np.eye(dim)
        nxt = [np.kron(SIGMA3, eye), np.kron(SIGMA1, eye)]
        nxt.extend(np.kron(SIGMA2, r) for r in gens)
        gens = nxt
    return gens


def clifford_check(mats, tol=TOL):
    """Verify hermiticity and R_a R_b + R_b R_a = 2 delta_ab I.

    For an odd-sized family the report also records whether the acting
    dimension equals 2^((N-1)/2), the value forced by irreducibility.
    """
    mats = [np.asarray(r, dtype=complex) for r in mats]
    if not mats:
        raise ValueError("empty generator list")
    d = mats[0].shape[0]
    for r in mats:
        if r.ndim != 2 or r.shape != (d, d):
            raise ValueError("generators must be square matrices of equal dimension")
    n = len(mats)
    eye = np.eye(d)
    worst = 0.0
    witnesses = []

    def note(violation, kind, a, b):
        nonlocal worst
        if violation > worst:
            worst = violation
        if violation >= tol and len(witnesses) < MAX_WITNESSES:
            witnesses.append({"kind": kind, "pair": [a, b], "violation": violation})

    for a, r in enumerate(mats):
        note(float(np.linalg.norm(r - r.conj().T)), "hermiticity", a, a)
    for a in range(n):
        for b in range(a, n):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            target = 2.0 * eye if a == b else 0.0
            note(float(np.linalg.norm(anti - target)), "anticommutator", a, b)

    details = {"count": n, "dimension": d}
    if n % 2 == 1:
        expected = 2 ** ((n - 1) // 2)
        details["expected_dimension"] = expected
        details["dimension_matches"] = bool(d == expected)
    return tolerance_report(
        "clifford-relations", worst, tol, witnesses=witnesses, details=details
    )
