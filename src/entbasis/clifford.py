"""Families of hermitian unitaries satisfying the Clifford relations.

The relations R_a R_b + R_b R_a = 2 delta_ab I force, for an odd number N
of generators acting irreducibly, the representation dimension 2^((N-1)/2).
build_clifford_generators realizes that dimension constructively by a
doubling ladder; clifford_check verifies the relations for any candidate
family.
Bell condition 6, X_a^dag X_b + X_b^dag X_a = 2 delta_ab I, is the same
relation with left factors X^dag: both checks run _anticommutators.
"""

import numpy as np

from .linalg import SIGMA1, SIGMA2, SIGMA3
from .reports import MAX_WITNESSES, TOL, pair_witnesses, tolerance_report

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


def _anticommutators(left, right, tol, **kind):
    """||L_a R_b + L_b R_a - 2 delta_ab I||_F over pairs a <= b, row-major, and the witnesses.

    One product pair at a time, on the callers' own matrices: stacking the
    pairs was no faster and copies the family. Overflow gives inf or NaN, a fail.
    """
    rows, cols = np.triu_indices(len(left))
    eye2 = 2.0 * np.eye(len(left[0]))
    v = np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (a, b) in enumerate(zip(rows.tolist(), cols.tolist())):
            anti = left[a] @ right[b] + left[b] @ right[a]
            v[k] = np.linalg.norm(anti - eye2 if a == b else anti)
    return v, pair_witnesses(v, rows, cols, tol, **kind)


def clifford_check(mats, tol=TOL):
    """Verify hermiticity and R_a R_b + R_b R_a = 2 delta_ab I.

    Hermiticity witnesses come before anticommutator ones. For an odd-sized
    family the report also records whether the acting dimension equals
    2^((N-1)/2), the value forced by irreducibility.
    """
    mats = [np.asarray(r, dtype=complex) for r in mats]
    if not mats:
        raise ValueError("empty generator list")
    d = mats[0].shape[0]
    for r in mats:
        if r.ndim != 2 or r.shape != (d, d):
            raise ValueError("generators must be square matrices of equal dimension")
    n = len(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.array([np.linalg.norm(r - r.conj().T) for r in mats])
    anti, witnesses = _anticommutators(mats, mats, tol, kind="anticommutator")
    witnesses = pair_witnesses(herm, range(n), range(n), tol, kind="hermiticity") + witnesses

    details = {"count": n, "dimension": d}
    if n % 2 == 1:
        expected = 2 ** ((n - 1) // 2)
        details["expected_dimension"] = expected
        details["dimension_matches"] = bool(d == expected)
    return tolerance_report("clifford-relations", np.max(np.concatenate((herm, anti))), tol,
                            witnesses=witnesses[:MAX_WITNESSES], details=details)
