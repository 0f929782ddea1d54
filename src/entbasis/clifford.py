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

from .linalg import SIGMA1, SIGMA2, SIGMA3, _monomial_parts
from .reports import MAX_WITNESSES, TOL, chunk_size, pair_witnesses, tolerance_report

__all__ = ["build_clifford_generators", "clifford_check"]


def build_clifford_generators(n):
    """N pairwise anticommuting hermitian unitaries on dimension 2^((N-1)/2), one (N, d, d) stack.

    N must be odd. The recursion doubles the space per step: from generators R'_a on the
    smaller space it forms sigma3 tensor I, sigma1 tensor I, and sigma2 tensor R'_a, whose
    blocks [[0, -iR'], [iR', 0]] it writes into the next stack. clifford_check takes the stack
    as it is, with no copy.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("generator count must be odd and positive, got %s" % (n,))
    gens = np.ones((1, 1, 1), dtype=complex)
    while len(gens) < n:
        dim = gens.shape[-1]
        nxt = np.zeros((len(gens) + 2, 2 * dim, 2 * dim), dtype=complex)
        nxt[0], nxt[1] = np.kron(SIGMA3, np.eye(dim)), np.kron(SIGMA1, np.eye(dim))
        nxt[2:, :dim, dim:] = SIGMA2[0, 1] * gens
        nxt[2:, dim:, :dim] = SIGMA2[1, 0] * gens
        gens = nxt
    return gens


def _anticommutators(left, right, tol, parts=None, **kind):
    """||L_a R_b + L_b R_a - 2 delta_ab I||_F over pairs a <= b, row-major, and the witnesses.

    left and right are (n, d, d) stacks, parts their _monomial_parts if known: _monomial_norms
    when both have parts, else _dense_norms, its reference. Overflow gives inf or NaN, a fail.
    """
    rows, cols = np.nonzero(np.tri(len(left), dtype=bool).T)  # np.triu_indices, 3x faster
    parts = parts or (_monomial_parts(left), _monomial_parts(right))
    with np.errstate(over="ignore", invalid="ignore"):
        if None in parts:
            v = _dense_norms(left, right, rows, cols)
        else:
            v = _monomial_norms(*parts, rows, cols)
    return v, pair_witnesses(v, rows, cols, tol, **kind)


def _dense_norms(left, right, rows, cols):
    """The norms from dense products, a pair at a time: stacking the pairs was no faster."""
    eye2 = 2.0 * np.eye(left.shape[-1])
    v = np.empty(len(rows))
    for k, (a, b) in enumerate(zip(rows.tolist(), cols.tolist())):
        anti = left[a] @ right[b] + left[b] @ right[a]
        v[k] = np.linalg.norm(anti - eye2 if a == b else anti)
    return v


def _monomial_norms(left, right, rows, cols):
    """The norms from the _monomial_parts (rl, vl) and (rr, vr) of the stacks, in O(d) a pair.

    L_a R_b e_k = vr[b, k] vl[a, rr[b, k]] e_{rl[a, rr[b, k]]}, L_b R_a likewise, and for
    a = b both land on one row. Terms on one row, the -2 on row k too, are added before
    squaring: |x|^2 + |y|^2 + 2 Re(x conj(y)) read 0 or 2e-8 where U^dag U - I is 4e-16.
    """
    (rl, vl), (rr, vr) = left, right
    k = np.arange(rl.shape[-1])
    step = chunk_size(3 * len(k))
    v = np.empty(len(rows))
    for s in range(0, len(rows), step):
        a, b = rows[s:s + step], cols[s:s + step]
        via_a, via_b = rr[a], rr[b]
        r1, x1 = rl[a[:, None], via_b], vr[b] * vl[a[:, None], via_b]
        r2, x2 = rl[b[:, None], via_a], vr[a] * vl[b[:, None], via_a]
        minus_2 = np.where(a == b, -2.0, 0.0)[:, None]  # -2 delta_ab, on row k of each column
        on_k = (r1 == k) * minus_2
        # the entries on rows r1, r2 (if apart) and k (if apart) of each column, as float pairs
        entries = np.concatenate((np.where(r1 == r2, x1 + x2, x1) + on_k, np.where(r1 == r2, 0, x2),
                                  minus_2 - on_k), axis=-1).view(float)
        v[s:s + step] = np.sqrt(np.einsum("ij,ij->i", entries, entries))
    return v


def _monomial_hermiticity(rows, values):
    """||R - R^dag||_F from the _monomial_parts R e_k = v_k e_{r_k}, in O(d): R - R^dag holds
    v_k - conj(v_{r_k}) at (r_k, k) if r_{r_k} = k, else v_k there and -conj(v_k) at (k, r_k)."""
    mirror = values[np.arange(len(rows))[:, None], rows]  # v_{r_k}
    back = np.take_along_axis(rows, rows, axis=-1) == np.arange(rows.shape[-1])
    entries = np.concatenate((np.where(back, values - mirror.conj(), values),
                              np.where(back, 0, values)), axis=-1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", entries, entries))


def clifford_check(mats, tol=TOL):
    """Verify hermiticity and R_a R_b + R_b R_a = 2 delta_ab I.

    Hermiticity witnesses come before anticommutator ones. For an odd-sized
    family the report also records whether the acting dimension equals
    2^((N-1)/2), the value forced by irreducibility.
    """
    mats = np.asarray(mats, dtype=complex)  # a stack is not copied; unequal shapes raise
    if not len(mats):
        raise ValueError("empty generator list")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("generators must be square matrices of equal dimension")
    n, d = mats.shape[:2]
    parts = _monomial_parts(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        herm = (np.array([np.linalg.norm(r - r.conj().T) for r in mats]) if parts is None
                else _monomial_hermiticity(*parts))
    anti, witnesses = _anticommutators(mats, mats, tol, (parts, parts), kind="anticommutator")
    witnesses = pair_witnesses(herm, range(n), range(n), tol, kind="hermiticity") + witnesses

    details = {"count": n, "dimension": d}
    if n % 2 == 1:
        expected = 2 ** ((n - 1) // 2)
        details["expected_dimension"] = expected
        details["dimension_matches"] = bool(d == expected)
    return tolerance_report("clifford-relations", np.max(np.concatenate((herm, anti))), tol,
                            witnesses=witnesses[:MAX_WITNESSES], details=details)
