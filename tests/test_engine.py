"""The exact checks against their sampled forms, and those against the public per-matrix functions.

Bell conditions 2 to 6, phase covariance and det-criterion agreement are decided exactly. Their
sampled forms stay here as the oracles the exact reports are held against: Bell conditions 2 to
5 over Haar SU(d) pairs, Haar O(d^2), Haar V and unit real combinations
(sampled_bell_condition), covariance over Haar U (sampled_covariance), maximal entanglement kept
under U over Haar V (sampled_preserves), the sampled counterpart of factor_local's verdict, and
det_criterion against factor_local over Haar O(4) in both cosets (sampled_det_agreement). They
draw through one loop, sample: chunk c of the trials comes from its own Generator chunk_rng(seed,
c), so a witness replays from its chunk. The tests below record each run, draw each chunk's
inputs again, and recompute every trial one matrix at a time with the public functions
(factor_local, det_criterion, vector_from_operator, tensor) and a dense unitarity residual.
Per-trial violations must agree within 1e-12 and the witnesses must name the same trials.
"""

import math
import operator
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from entbasis import (
    AntilinearOp,
    CheckReport,
    EntangledBasis,
    PAULIS,
    SIGMA3,
    StateVector,
    basis_matrix,
    bell_basis,
    bell_matrix,
    check_bell_condition,
    check_det_criterion_agreement,
    check_universality,
    det_criterion,
    factor_local,
    flip_operator,
    fourier_basis,
    haar_special_unitary,
    haar_unitary,
    operator_from_vector,
    random_orthogonal,
    tensor,
    theta2,
    universality_search,
    vector_from_operator,
)
from entbasis import bell, factorize, linalg, reports
from entbasis.cli import main
from entbasis.fileio import load_json
from entbasis.reports import (
    MAX_WITNESSES, TOL, chunk_size, require_positive, require_tolerance, tolerance_report)
from test_bell import random_phase_basis

FOURIER3 = fourier_basis(3)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
D3_CANDIDATE = np.array([[1, 2j, 0], [0, 1, -1], [1j, 0, 2]]) / 3.5
ORACLE_SEED = 5


def chunk_rng(seed, chunk):
    """Generator of one chunk: spawn key (chunk,) of an integer seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def sample(trials, seed, tol, draw, measure, per_trial):
    """The sampled forms' loop: (every trial's violation, the first MAX_WITNESSES witnesses).

    Trials run in chunks of chunk_size(per_trial), chunk c drawn by draw(chunk_rng(seed, c), idx)
    with idx its trial indices. measure returns a chunk's violations, or (violations, fields)
    with fields a dict of arrays, one row per trial. Every trial whose violation is not below
    tol, NaN included, is a witness {"trial", "seed", "violation", **fields}, in trial order.
    """
    require_positive(trials)
    require_tolerance(tol)
    seed = operator.index(seed)
    step = chunk_size(per_trial)
    chunks = []
    for c, start in enumerate(range(0, trials, step)):
        idx = np.arange(start, min(start + step, trials))
        with np.errstate(over="ignore", invalid="ignore"):
            out = measure(draw(chunk_rng(seed, c), idx))
        chunks.append(out if isinstance(out, tuple) else (out, {}))
    v = np.concatenate([x for x, _ in chunks])
    fields = {name: np.concatenate([f[name] for _, f in chunks]) for name in chunks[0][1]}
    return v, [{"trial": int(t), "seed": seed, "violation": float(v[t]),
                **{name: f[t].tolist() for name, f in fields.items()}}
               for t in np.flatnonzero(~(v < tol))[:MAX_WITNESSES]]


_LOOP = sample  # the loop itself, which a Recorder calls while it stands in for sample


class Recorder:
    """Stands in for sample and keeps each run's draw, batches and per-trial violations."""

    def __init__(self):
        self.runs = []

    def __call__(self, trials, seed, tol, draw, measure, per_trial):
        batches = []

        def recorded(batch):
            batches.append(batch)
            return measure(batch)

        v, witnesses = _LOOP(trials, seed, tol, draw, recorded, per_trial)
        self.runs.append({"trials": trials, "seed": seed, "tol": tol, "draw": draw,
                          "measure": measure, "per_trial": per_trial, "batches": batches,
                          "violations": v})
        return v, witnesses


@pytest.fixture
def recorder(monkeypatch):
    rec = Recorder()
    monkeypatch.setattr(sys.modules[__name__], "sample", rec)
    return rec


def redraw(run):
    """(global trial indices, inputs) of each chunk, drawn again from its generator."""
    step = chunk_size(run["per_trial"])
    for c, start in enumerate(range(0, run["trials"], step)):
        idx = np.arange(start, min(start + step, run["trials"]))
        yield idx, run["draw"](chunk_rng(run["seed"], c), idx)


def unitarity(x):
    return np.linalg.norm(x.conj().T @ x - np.eye(x.shape[0]))


def _max_entry(m):
    """Largest entry of each matrix in a (n, r, r) stack, and the field of its index pair."""
    flat = m.reshape(len(m), -1)
    r, k = m.shape[-1], flat.argmax(axis=1)
    return flat[np.arange(len(m)), k], {"pair": np.stack(np.divmod(k, r), axis=1)}


def svd_kinds(u):
    """factor_local's kind of each U in a stack, from the full spectra of R(U) and R(U F)."""
    d = round(u.shape[-1] ** 0.5)
    plain, flip = (factorize._is_rank_one(np.linalg.svd(factorize._reshuffle(x, d), compute_uv=False))
                   for x in (u, u @ flip_operator(d)))
    return np.where(plain, "local", np.where(flip, "local_flip", "neither"))


def sampled_bell_condition(basis, condition, trials, seed, tol=TOL):
    """Condition 2 over Haar SU(d) pairs (U1, U2), 3 over Haar O(d^2), 4 over Haar V, or 5 over
    unit real combinations, as check_bell_condition sampled them before it decided them exactly.
    The reference the exact reports are held against. Condition 3's violation is the fraction of
    trials whose B O B^dag does not factor (svd_kinds), and each of those trials is a witness;
    condition 4's is the largest |Im(c_j conj(c_k))| of the coefficients c of (V tensor I) Omega,
    its witness field the pair; the others report their largest violation too."""
    d = basis.dim
    n = d * d
    b = basis_matrix(basis)
    if condition == 2:
        def draw(rng, idx):
            return (haar_special_unitary(d, rng, count=len(idx)),
                    haar_special_unitary(d, rng, count=len(idx)))

        def measure(pair):
            u = np.einsum("tij,tkl->tikjl", *pair).reshape(-1, n, n)  # tensor(v1, v2) per trial
            return _max_entry(np.abs(bell._sandwich(b.conj().T, u, b).imag))
    elif condition == 3:
        def draw(rng, idx):
            return random_orthogonal(n, rng, count=len(idx))

        def measure(o):
            return (svd_kinds(bell._sandwich(b, o, b.conj().T)) == "neither").astype(float)
    elif condition == 4:
        def draw(rng, idx):
            return haar_unitary(d, rng, count=len(idx))

        def measure(v):
            c = (v.reshape(-1, n) / np.sqrt(d)) @ b.conj()  # amplitudes vec(V)/sqrt(d)
            return _max_entry(np.abs((c[:, :, None] * c.conj()[:, None, :]).imag))
    else:
        def draw(rng, idx):
            return rng.standard_normal((len(idx), n))

        def measure(a):
            a = a / np.linalg.norm(a, axis=1, keepdims=True)
            return linalg.unitarity_residual(np.tensordot(a, basis.ops, axes=1))

    if condition == 3:
        v, witnesses = sample(trials, seed, 1.0, draw, measure, n * n)
        worst = v.mean()
    else:
        v, witnesses = sample(trials, seed, tol, draw, measure, n if condition == 5 else n * n)
        worst = np.max(v)
    return tolerance_report("sampled-condition-%d" % condition, worst, tol, trials=trials,
                            witnesses=witnesses)


def sampled_covariance(a, trials, seed, tol, phase, per_candidate=None):
    """||U A U^T - omega A||_F over Haar U, the sampled form of check_universality that its
    generator residuals are held against: omega is det(U), or for phase "best" the phase of
    tr(A^dag U A U^T). a is one matrix, or a stack of candidates of which trial t tries
    a[t // per_candidate]. Returns each candidate's largest violation and the witnesses."""
    a = a.reshape(-1, *a.shape[-2:])
    d = a.shape[-1]

    def draw(rng, idx):
        return haar_unitary(d, rng, count=len(idx)), idx // (per_candidate or trials)

    def measure(batch):
        u, cand = batch
        a_t = a[cand]
        conjugated = u @ a_t @ u.swapaxes(-1, -2)
        if phase == "det":
            omega = np.linalg.det(u)
        else:
            z = (a_t.conj() * conjugated).sum(axis=(1, 2))  # tr(A^dag U A U^T)
            omega = np.divide(z, np.abs(z), out=np.ones_like(z), where=z != 0)
        return np.linalg.norm(conjugated - omega[:, None, None] * a_t, axis=(1, 2))

    v, witnesses = sample(trials, seed, tol, draw, measure, d * d)
    return v.reshape(len(a), -1).max(axis=1), witnesses


def sampled_universality(theta, trials, seed, tol=TOL, phase="det"):
    """check_universality's sampled form: the largest violation over trials Haar U."""
    a = np.asarray(theta.matrix, dtype=complex)
    (worst,), witnesses = sampled_covariance(a, trials, seed, tol, phase)
    return tolerance_report("sampled-universality", worst, tol, trials=trials,
                            witnesses=witnesses)


def sampled_search(dim, candidates, trials, seed, threshold=0.1):
    """universality_search's sampled form: universality_search's candidates, each tried on
    trials Haar U under the best phase in one run; a candidate's violation is the worst
    of its trials, and the report passes when the weakest candidate's is above threshold."""
    seed = operator.index(seed)
    a = search_candidates(candidates, seed, dim)
    worst, witnesses = sampled_covariance(a, candidates * trials, seed, threshold, "best", trials)
    weakest = worst.min()
    passed = bool(weakest > threshold)
    return CheckReport("sampled-search", candidates * trials, float(weakest), threshold, passed,
                       "violation witnessed" if passed else "no violation found",
                       tuple({"candidate": w["trial"] // trials, **w} for w in witnesses)
                       if passed else ())


def hermitian_generators(d):
    """E_jj for each j, then E_jk + E_kj and i(E_kj - E_jk) for each j < k, row-major."""
    out = []
    for j in range(d):
        out.append(np.zeros((d, d), dtype=complex))
        out[-1][j, j] = 1.0
    for j in range(d):
        for k in range(j + 1, d):
            real, imaginary = np.zeros((2, d, d), dtype=complex)
            real[j, k] = real[k, j] = 1.0
            imaginary[j, k], imaginary[k, j] = -1j, 1j
            out += [real, imaginary]
    return out


def dense_covariance_residuals(a, phase):
    """||R(H)||_F for each generator H, R(H) = H A + A H^T - tr(H) A, built one image at a time,
    with A's component taken out for phase "best" (none for A = 0)."""
    a2 = np.vdot(a, a).real
    out = []
    for h in hermitian_generators(len(a)):
        r = h @ a + a @ h.T - np.trace(h) * a
        if phase == "best" and a2 > 0:
            r = r - np.vdot(a, r) / a2 * a
        out.append(np.linalg.norm(r))
    return np.array(out)


def sampled_preserves(u, trials, seed, tol=TOL):
    """Whether U keeps maximally entangled vectors so, sampled: the unitarity residual of the
    operator of U phi over phi = (V tensor I) Omega, Haar V. The sampled counterpart of
    factor_local's verdict: local and local-flip unitaries never give a violation."""
    u = np.asarray(u, dtype=complex)
    d = round(len(u) ** 0.5)

    def draw(rng, idx):
        return haar_unitary(d, rng, count=len(idx))

    def measure(v):
        # phi = vec(V)/sqrt(d); the operator of U phi is sqrt(d) unvec(U phi) = unvec(U vec(V))
        images = v.reshape(len(v), d * d) @ u.T
        return linalg.unitarity_residual(images.reshape(len(v), d, d))

    v, witnesses = sample(trials, seed, tol, draw, measure, d * d)
    return tolerance_report("sampled-preserves", np.max(v), tol, trials=trials,
                            witnesses=witnesses)


def sampled_det_agreement(trials, seed, tol=TOL):
    """check_det_criterion_agreement's sampled form, as it ran before it was decided exactly:
    B O B^dag over Haar O(4), column 0 of O signed so that even trials lie in SO(4) and odd ones
    in its other coset. A trial is a mismatch (violation 1) unless det_criterion and factor_local
    both say "local" (even) or "local_flip" (odd); the violation is the mismatch fraction, and
    each mismatch is a witness with both verdicts."""
    b = bell_matrix()

    def draw(rng, idx):
        o = random_orthogonal(4, rng, count=len(idx))
        o[:, :, 0] *= (np.sign(np.linalg.det(o)) * np.where(idx % 2 == 0, 1.0, -1.0))[:, None]
        return o, idx % 2 == 0

    def measure(batch):
        o, positive = batch
        u = bell._sandwich(b, o, b.conj().T)
        det_verdict = np.array([det_criterion(x, tol) for x in u])
        factor_verdict = np.array([factor_local(x).kind for x in u])
        expected = np.where(positive, "local", "local_flip")
        mismatch = (det_verdict != expected) | (factor_verdict != expected)
        return mismatch.astype(float), {"det_verdict": det_verdict, "factor_verdict": factor_verdict}

    v, witnesses = sample(trials, seed, 1.0, draw, measure, 16)
    return tolerance_report("sampled-det-criterion", v.mean(), tol, trials=trials,
                            witnesses=witnesses)


# ---- one-trial oracles: (idx, batch) -> per-trial violations ---------------

def cond2(basis):
    b = basis_matrix(basis)

    def oracle(idx, batch):
        return [np.abs((b.conj().T @ tensor(v1, v2) @ b).imag).max() for v1, v2 in zip(*batch)]
    return oracle


def cond3(basis):
    b = basis_matrix(basis)

    def oracle(idx, o):
        return [float(factor_local(b @ x @ b.conj().T).kind == "neither") for x in o]
    return oracle


def cond4(basis):
    b = basis_matrix(basis)

    def oracle(idx, v):
        out = []
        for x in v:
            c = b.conj().T @ vector_from_operator(x).amplitudes
            out.append(np.abs(np.outer(c, c.conj()).imag).max())
        return out
    return oracle


def cond5(basis):
    def oracle(idx, a):
        return [unitarity(np.tensordot(row / np.linalg.norm(row), basis.ops, axes=1)) for row in a]
    return oracle


def covariance(candidates, phase):
    def oracle(idx, batch):
        out = []
        for u, c in zip(*batch):
            a = candidates[c]
            conjugated = u @ a @ u.T
            if phase == "det":
                omega = np.linalg.det(u)
            else:
                z = np.trace(a.conj().T @ conjugated)
                omega = z / abs(z) if abs(z) > 0 else 1.0
            out.append(np.linalg.norm(conjugated - omega * a))
        return out
    return oracle


def search_candidates(count, seed, dim=3):
    """universality_search's candidates, drawn again from the root of the seed's spawn tree."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return a / np.linalg.norm(a, axis=(1, 2), keepdims=True)


def det_agreement(tol):
    b = bell_matrix()

    def oracle(idx, batch):
        o, want_positive = batch
        assert np.array_equal(want_positive, idx % 2 == 0)
        out = []
        for x, positive in zip(o, want_positive):
            assert (np.linalg.det(x) > 0) == positive
            u = b @ x @ b.conj().T
            expected = "local" if positive else "local_flip"
            agree = det_criterion(u, tol) == expected == factor_local(u).kind
            out.append(0.0 if agree else 1.0)
        return out
    return oracle


def preserves(u):
    def oracle(idx, vs):
        out = []
        for v in vs:
            d = v.shape[0]
            image = StateVector(d, d, u @ vector_from_operator(v).amplitudes)
            out.append(unitarity(operator_from_vector(image)))
        return out
    return oracle


LOCAL3 = tensor(haar_unitary(3, 1), haar_unitary(3, 2))

# id -> (run(trials, seed) -> report, oracle)
CASES = {
    "cond2-bell": (lambda n, s: sampled_bell_condition(bell_basis(), 2, n, s), cond2(bell_basis())),
    "cond2-fourier3": (lambda n, s: sampled_bell_condition(FOURIER3, 2, n, s), cond2(FOURIER3)),
    "cond3-bell": (lambda n, s: sampled_bell_condition(bell_basis(), 3, n, s), cond3(bell_basis())),
    "cond3-fourier3": (lambda n, s: sampled_bell_condition(FOURIER3, 3, n, s), cond3(FOURIER3)),
    "cond4-bell": (lambda n, s: sampled_bell_condition(bell_basis(), 4, n, s), cond4(bell_basis())),
    "cond4-fourier3": (lambda n, s: sampled_bell_condition(FOURIER3, 4, n, s), cond4(FOURIER3)),
    "cond5-bell": (lambda n, s: sampled_bell_condition(bell_basis(), 5, n, s), cond5(bell_basis())),
    "cond5-fourier3": (lambda n, s: sampled_bell_condition(FOURIER3, 5, n, s), cond5(FOURIER3)),
    "universality-d2": (lambda n, s: sampled_universality(theta2(), n, s),
                        covariance([theta2().matrix], "det")),
    "universality-d2-sigma3": (lambda n, s: sampled_universality(AntilinearOp(SIGMA3), n, s),
                               covariance([SIGMA3], "det")),
    "universality-d3-best": (
        lambda n, s: sampled_universality(AntilinearOp(D3_CANDIDATE), n, s, phase="best"),
        covariance([D3_CANDIDATE], "best")),
    # 7 candidates: the two-chunk run's 917 = 7 x 131 trials, so candidate 6 straddles the
    # chunk boundary at 910; the oracle's candidates are those of the oracle test's seed
    "universality-search": (
        lambda n, s: sampled_search(3, 7, -(-n // 7), s),
        covariance(search_candidates(7, ORACLE_SEED), "best")),
    "det-criterion": (lambda n, s: sampled_det_agreement(n, s), det_agreement(1e-10)),
    "preserves-cnot": (lambda n, s: sampled_preserves(CNOT, n, s), preserves(CNOT)),
    "preserves-local3": (lambda n, s: sampled_preserves(LOCAL3, n, s), preserves(LOCAL3)),
    "preserves-flip3": (lambda n, s: sampled_preserves(flip_operator(3), n, s),
                        preserves(flip_operator(3))),
}


def _per_trial(case):
    """Entries per trial the sampled form declares to sample, from a one-trial run."""
    recorder = Recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "sample", recorder)
        CASES[case][0](1, 0)
    return recorder.runs[0]["per_trial"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_one_trial_oracle(case, recorder):
    run_check, oracle = CASES[case]
    trials = chunk_size(_per_trial(case)) + 7  # two chunks, the second one short
    report = run_check(trials, ORACLE_SEED)
    (run,) = recorder.runs
    assert run["trials"] == trials == report.trials
    expected = np.concatenate([oracle(idx, batch) for idx, batch in redraw(run)])
    assert np.abs(run["violations"] - expected).max() <= 1e-12
    first = np.flatnonzero(expected >= run["tol"])[:MAX_WITNESSES].tolist()
    assert [w["trial"] for w in report.witnesses] == first
    for w in report.witnesses:
        assert w["seed"] == ORACLE_SEED
        assert abs(w["violation"] - expected[w["trial"]]) <= 1e-12


FOURIER4 = fourier_basis(4)
FRAME_CASES = {
    "cond2-bell": lambda: sampled_bell_condition(bell_basis(), 2, 1100, 8),
    "cond2-fourier3": lambda: sampled_bell_condition(FOURIER3, 2, 250, 8),
    "cond2-fourier4": lambda: sampled_bell_condition(FOURIER4, 2, 70, 8),
    "cond3-bell": lambda: sampled_bell_condition(bell_basis(), 3, 1100, 8),
    "cond3-fourier3": lambda: sampled_bell_condition(FOURIER3, 3, 250, 8),
    "cond3-fourier4": lambda: sampled_bell_condition(FOURIER4, 3, 70, 8),
    "det-criterion": lambda: sampled_det_agreement(1100, 8),
}


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_frame_products_match_stacked_matmul(case, recorder, monkeypatch):
    # the same seeds through left @ x @ right, not _sandwich's two GEMMs
    fast = FRAME_CASES[case]()
    monkeypatch.setattr(bell, "_sandwich", lambda left, x, right: left @ x @ right)
    slow = FRAME_CASES[case]()
    (fast_run, slow_run) = recorder.runs
    assert fast_run["trials"] > chunk_size(fast_run["per_trial"])  # two chunks at least
    assert fast.passed == slow.passed
    assert [w["trial"] for w in fast.witnesses] == [w["trial"] for w in slow.witnesses]
    assert np.all(np.abs(fast_run["violations"] - slow_run["violations"])
                  <= 1e-12 * np.abs(slow_run["violations"]))
    for w_fast, w_slow in zip(fast.witnesses, slow.witnesses):
        assert abs(w_fast["violation"] - w_slow["violation"]) <= 1e-12 * abs(w_slow["violation"])


def traced_peak(run):
    """The tracemalloc peak of run(), in bytes, after one warm call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("basis, trials", [(FOURIER3, 1000), (bell_basis(), 2000)],
                         ids=["fourier3", "bell"])
def test_condition_3_peak_memory_is_a_few_chunks(basis, trials):
    # 0.46 and 0.47 MiB measured for the sampled form, whose O and U hold n^2 entries a trial
    assert traced_peak(lambda: sampled_bell_condition(basis, 3, trials, 0)) < 1.25 * 2 ** 20


# ---- condition 3's sampled form: the stacked SVD kinds against factor_local, draw by draw ------

def product_basis(d):
    """The basis of the operators sqrt(d) E_ij, whose matrix B is the identity."""
    return EntangledBasis(d, np.sqrt(d) * np.eye(d * d).reshape(d * d, d, d))


ROW_BASES = {"fourier3": lambda: FOURIER3, "fourier4": lambda: FOURIER4,
             "fourier5": lambda: fourier_basis(5), "product3": lambda: product_basis(3),
             "random-phase3": lambda: random_phase_basis(3, 9)}


@pytest.mark.parametrize("seed", [0, 7, 8])
@pytest.mark.parametrize("trials", [150, 411, 1000])
@pytest.mark.parametrize("name", sorted(ROW_BASES))
def test_condition_3_row_certificate_matches_the_dense_kinds(name, trials, seed, recorder):
    # the sampled form's kinds come from svd_kinds on each chunk's stack; factor_local decides
    # each O of the chunk, drawn again from its own Generator, on its own
    basis = ROW_BASES[name]()
    b = basis_matrix(basis)
    report = sampled_bell_condition(basis, 3, trials, seed)
    (run,) = recorder.runs
    expected = []
    for (idx, o), o_seen in zip(redraw(run), run["batches"], strict=True):
        assert np.array_equal(o_seen, o)
        expected += [factor_local(b @ x @ b.conj().T).kind == "neither" for x in o]
    expected = np.array(expected, dtype=float)
    assert np.array_equal(run["violations"], expected)
    assert report.max_violation == expected.mean() and not report.passed
    first = np.flatnonzero(expected)[:MAX_WITNESSES]
    assert [w["trial"] for w in report.witnesses] == first.tolist()


@pytest.mark.parametrize("d, trials", [(3, 1000), (10, 8)])
def test_condition_3_witnesses_replay_from_their_chunk(d, trials):
    # at d = 10 a chunk is one trial, so each witness replays from a Generator of its own
    basis = fourier_basis(d)
    b, n = basis_matrix(basis), d * d
    report = sampled_bell_condition(basis, 3, trials, seed=7)
    step = chunk_size(n * n)
    assert len(report.witnesses) == MAX_WITNESSES
    for w in report.witnesses:
        chunk, k = divmod(w["trial"], step)
        o = random_orthogonal(n, chunk_rng(7, chunk), count=min(step, trials - chunk * step))[k]
        assert w["violation"] == 1.0 and factor_local(b @ o @ b.conj().T).kind == "neither"


def test_bell_basis_checks_pass_across_chunks():
    # the d=2 verdicts and bands hold over several chunks
    for cond in (2, 4, 5):
        report = check_bell_condition(bell_basis(), cond, trials=700, seed=3)
        assert report.passed and report.max_violation < 1e-12 and report.witnesses == ()
    assert check_bell_condition(bell_basis(), 3, trials=700, seed=3).max_violation == 0.0
    assert check_det_criterion_agreement(trials=700, seed=3).max_violation == 0.0


def test_condition_2_witness_pair_names_the_largest_entry(recorder):
    report = sampled_bell_condition(FOURIER3, 2, trials=40, seed=1)
    (run,) = recorder.runs
    b = basis_matrix(FOURIER3)
    inputs = {int(t): (v1, v2) for idx, (a, c) in redraw(run) for t, v1, v2 in zip(idx, a, c)}
    for w in report.witnesses:
        m = np.abs((b.conj().T @ tensor(*inputs[w["trial"]]) @ b).imag)
        assert abs(m[tuple(w["pair"])] - m.max()) <= 1e-12


# ---- conditions 2 and 5, decided exactly, against dense products pair by pair -----------

def spanning_elements(d):
    """The list E of condition 2: the quaternion units at d=2, else I and e^(2 pi i/d) I."""
    if d == 2:
        return [np.eye(2)] + [1j * s for s in PAULIS]
    return [np.exp(2j * np.pi * j / d) * np.eye(d) for j in range(min(d, 2))]


def dense_condition_2(basis):
    """(j, k) -> largest |Im| entry of B^dag (E_j tensor E_k) B, one dense product at a time."""
    b = basis_matrix(basis)
    e = spanning_elements(basis.dim)
    return {(j, k): np.abs((b.conj().T @ tensor(e[j], e[k]) @ b).imag).max()
            for j in range(len(e)) for k in range(len(e))}


def dense_condition_5(basis):
    """(a, b), a <= b -> ||X_a^dag X_b + X_b^dag X_a - 2 delta_ab I||_F, one pair at a time."""
    x, eye = basis.ops, np.eye(basis.dim)
    return {(a, b): np.linalg.norm(x[a].conj().T @ x[b] + x[b].conj().T @ x[a] - 2 * (a == b) * eye)
            for a in range(len(x)) for b in range(a, len(x))}


def turned_bell_basis(seed):
    """The Bell basis turned by Haar local unitaries: the vectors (v tensor w) Phi_a."""
    rng = np.random.default_rng(seed)
    v, w = haar_unitary(2, rng), haar_unitary(2, rng)
    return EntangledBasis(2, v @ bell_basis().ops @ w.T)


EXACT_BASES = {
    "bell": bell_basis, "turned-bell": lambda: turned_bell_basis(3), "d1": lambda: fourier_basis(1),
    "fourier2": lambda: fourier_basis(2), "fourier3": lambda: FOURIER3,
    "fourier4": lambda: FOURIER4, "overflowing": lambda: _overflowing_fourier2(),
}


@pytest.mark.parametrize("name", sorted(EXACT_BASES))
@pytest.mark.parametrize("condition", [2, 5])
def test_exact_conditions_match_dense_products(condition, name):
    basis = EXACT_BASES[name]()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (dense_condition_2 if condition == 2 else dense_condition_5)(basis)
        report = check_bell_condition(basis, condition, trials=7, seed=3)
    assert report.trials == 0  # nothing is drawn
    values = np.array(list(expected.values()))
    witnessed = [list(p) for p, v in expected.items() if not v < TOL][:MAX_WITNESSES]
    assert [w["pair"] for w in report.witnesses] == witnessed
    assert report.passed == (not witnessed)
    finite = np.isfinite(values)
    if finite.all():
        assert abs(report.max_violation - values.max()) <= 1e-12
    else:
        assert not math.isfinite(report.max_violation)
    for w in report.witnesses:
        v = expected[tuple(w["pair"])]
        if math.isfinite(v):
            assert abs(w["violation"] - v) <= 1e-12 * max(1.0, v)
        else:  # an overflow: inf or NaN on either side
            assert not math.isfinite(w["violation"])


# ---- conditions 3 and 4, decided exactly, against a dense partial-trace projection ----------

def dense_pair_residuals(basis):
    """(j, k), j < k -> distance of m_jk = b_j b_k^dag - b_k b_j^dag from span{Y tensor I,
    I tensor Z}, projected densely: P m = Tr_2(m)/d tensor I + I tensor Tr_1(m)/d - tr(m) I/d^2."""
    b, d = basis_matrix(basis), basis.dim
    eye, out = np.eye(d), {}
    for j in range(d * d):
        for k in range(j + 1, d * d):
            m = np.outer(b[:, j], b[:, k].conj()) - np.outer(b[:, k], b[:, j].conj())
            t = m.reshape(d, d, d, d)
            p = (np.kron(np.einsum("ikjk->ij", t) / d, eye) + np.kron(eye, np.einsum("kikj->ij", t) / d)
                 - np.trace(m) / d ** 2 * np.eye(d * d))
            out[j, k] = np.linalg.norm(m - p)
    return out


def phased_bell_basis():
    """The Bell basis with X_2 times e^(0.7i): the three pairs with X_2 fail, the rest pass."""
    ops = bell_basis().ops.copy()
    ops[2] *= np.exp(0.7j)
    return EntangledBasis(2, ops)


PAIR_BASES = {
    "bell": bell_basis, "turned-bell": lambda: turned_bell_basis(3), "phased-bell": phased_bell_basis,
    "fourier2": lambda: fourier_basis(2), "fourier3": lambda: FOURIER3, "fourier4": lambda: FOURIER4,
    "random-phase3": lambda: random_phase_basis(3, 9),
}


@pytest.mark.parametrize("name", sorted(PAIR_BASES))
@pytest.mark.parametrize("condition", [3, 4])
def test_pair_residuals_match_the_dense_projection(condition, name, monkeypatch):
    basis = PAIR_BASES[name]()
    d = basis.dim
    expected = dense_pair_residuals(basis)
    seen, real = [], bell.pair_witnesses
    monkeypatch.setattr(bell, "pair_witnesses", lambda v, *a: seen.append(v) or real(v, *a))
    report = check_bell_condition(basis, condition, trials=7, seed=3)
    assert report.trials == 0  # nothing is drawn
    (r,) = seen
    assert np.abs(r - list(expected.values())).max() <= 8 * d * np.finfo(float).eps
    witnessed = [list(p) for p, v in expected.items() if not v < TOL][:MAX_WITNESSES]
    assert [w["pair"] for w in report.witnesses] == witnessed
    assert report.passed == (not witnessed) == (name in ("bell", "turned-bell"))
    assert report.max_violation == r.max()
    if name == "phased-bell":
        assert witnessed == [[0, 2], [1, 2], [2, 3]]
    # the sampled form gives the same verdict, and a sampled |Im(c_j conj(c_k))| is at most r / 2
    sampled = sampled_bell_condition(basis, condition, 300, 0)
    assert sampled.passed == report.passed
    if condition == 4:
        assert sampled.max_violation <= report.max_violation / 2 + 1e-14


# ---- phase covariance, decided on u(d)'s generators, against dense images ----------------

def _random_operator(d, seed, kind=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return {None: a, "antisymmetric": a - a.T, "symmetric": a + a.T}[kind]


COVARIANCE_OPERATORS = {
    "theta2": lambda: theta2().matrix, "theta2-phased": lambda: theta2(np.exp(0.3j)).matrix,
    "sigma3": lambda: SIGMA3, "d3-candidate": lambda: D3_CANDIDATE,
    "theta-n2": lambda: bell.theta_n(2).matrix, "theta-n3": lambda: bell.theta_n(3).matrix,
    "zero3": lambda: np.zeros((3, 3), dtype=complex), "d1": lambda: np.array([[np.exp(0.7j)]]),
    **{"random%d" % d: (lambda d=d: _random_operator(d, d)) for d in (2, 3, 4, 5)},
    "antisymmetric3": lambda: _random_operator(3, 6, "antisymmetric"),
    "symmetric4": lambda: _random_operator(4, 7, "symmetric"),
}


@pytest.mark.parametrize("phase", ["det", "best"])
@pytest.mark.parametrize("name", sorted(COVARIANCE_OPERATORS))
def test_covariance_residuals_match_the_dense_images(name, phase, monkeypatch):
    a = np.asarray(COVARIANCE_OPERATORS[name](), dtype=complex)
    d = len(a)
    expected = dense_covariance_residuals(a, phase)
    seen, real = [], bell._covariance_residuals
    monkeypatch.setattr(bell, "_covariance_residuals", lambda *x: seen.append(real(*x)) or seen[-1])
    report = check_universality(AntilinearOp(a), trials=7, seed=3, phase=phase)
    assert report.trials == 0  # nothing is drawn
    (v,) = seen
    assert v.shape == (d * d,)
    assert np.abs(v - expected).max() <= 8 * d * np.finfo(float).eps * max(1.0, np.linalg.norm(a))
    assert report.max_violation == v.max()
    witnessed = np.flatnonzero(expected >= TOL)[:MAX_WITNESSES].tolist()
    assert [w["generator"] for w in report.witnesses] == witnessed
    assert report.passed == (not witnessed)
    # the spin flip's line at d=2, 0 everywhere, and any 1 x 1 operator up to phase
    covariant = {"theta2", "theta2-phased", "zero3"} | ({"d1"} if phase == "best" else set())
    assert report.passed == (name in covariant)


def test_search_residuals_are_each_candidates_own():
    # the stacked residuals of the search's candidates are those of each candidate alone
    report = universality_search(dim=3, candidates=9, seed=2)
    a = search_candidates(9, 2)
    worst = [bell._covariance_residuals(x, "best").max() for x in a]
    assert report.trials == 0
    assert report.max_violation == min(worst)
    assert report.details == {"dim": 3, "candidates": 9, "seed": 2,
                              "weakest_candidate": int(np.argmin(worst))}
    assert [w["violation"] for w in report.witnesses] == worst[:MAX_WITNESSES]


def test_chunk_size_is_derived_from_entries_per_trial():
    assert chunk_size(1) == reports.CHUNK_ENTRIES
    assert chunk_size(reports.CHUNK_ENTRIES + 1) == 1
    assert chunk_size(24 ** 4) == 1


@pytest.mark.parametrize("trials", ["3", "1000"])  # accepted and ignored
def test_search_witnesses_replay_from_their_report(trials, tmp_path, capsys):
    # each witness names a candidate drawn from the recorded seed and its worst generator
    path = tmp_path / "u3.json"
    argv = ["check", "universality", "--dim", "3", "--trials", trials, "--seed", "4"]
    assert main(argv + ["--report", str(path)]) == 0
    obj = load_json(path)
    assert obj["trials"] == 0 and len(obj["witnesses"]) == MAX_WITNESSES
    candidates = search_candidates(obj["details"]["candidates"], obj["details"]["seed"])
    for c, w in enumerate(obj["witnesses"]):
        residuals = dense_covariance_residuals(candidates[w["candidate"]], "best")
        assert w["candidate"] == c and w["generator"] == int(np.argmax(residuals))
        assert abs(w["violation"] - residuals.max()) <= 1e-12


class TestStackedSamplers:
    @pytest.mark.parametrize("sampler", [haar_unitary, haar_special_unitary])
    def test_unitary_stack(self, sampler):
        us = sampler(3, seed=2, count=5)
        assert us.shape == (5, 3, 3)
        for u in us:
            assert unitarity(u) < 1e-12
        if sampler is haar_special_unitary:
            assert np.allclose(np.linalg.det(us), 1.0, atol=1e-12)

    def test_orthogonal_stack(self):
        for n in (3, 4, 5):
            os_ = random_orthogonal(n, seed=1, count=40)
            assert os_.shape == (40, n, n) and os_.dtype == float
            dets = np.linalg.det(os_)
            assert (dets < 0).any() and (dets > 0).any()
            assert np.allclose(np.abs(dets), 1.0, atol=1e-12)

    @pytest.mark.parametrize("sampler, dims", [
        (haar_unitary, (1, 2, 3, 4)), (haar_special_unitary, (1, 2, 3, 4)),
        (random_orthogonal, (1, 2, 3, 4)),
    ], ids=["haar_unitary", "haar_special_unitary", "random_orthogonal"])
    def test_stack_of_one_is_the_single_draw(self, sampler, dims):
        for d in dims:
            for seed in range(3):
                assert np.array_equal(sampler(d, seed, count=1)[0], sampler(d, seed))


class TestSharedRules:
    def test_neither_reuses_its_two_spectra(self, monkeypatch):
        calls = []
        real = factorize.operator_schmidt

        def counted(u):
            calls.append(1)
            return real(u)

        monkeypatch.setattr(factorize, "operator_schmidt", counted)
        result = factor_local(CNOT)
        assert result.kind == "neither"
        assert len(calls) == 2
        plain = real(CNOT)[0]
        flipped = real(CNOT @ flip_operator(2))[0]
        assert result.residual == min(np.linalg.norm(plain[1:]), np.linalg.norm(flipped[1:]))

    def test_bell_matrix_built_once_and_read_only(self):
        b = bell_matrix()
        assert b is bell_matrix()
        with pytest.raises(ValueError):
            b[0, 0] = 0.0

    def test_stacked_kinds_match_factor_local(self):
        # svd_kinds, the kinds of condition 3's sampled form, on one operator of each kind
        rng = np.random.default_rng(6)
        b = bell_matrix()
        us = np.stack([
            tensor(haar_unitary(2, rng), haar_unitary(2, rng)),
            tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ flip_operator(2),
            CNOT,
            b @ random_orthogonal(4, rng) @ b.conj().T,
        ])
        kinds = svd_kinds(us)
        assert kinds.tolist() == [factor_local(u).kind for u in us]
        assert set(kinds) == {"local", "local_flip", "neither"}


def _overflowing_fourier2():
    ops = fourier_basis(2).ops.copy()
    ops[1] *= 1e300
    return EntangledBasis(2, ops)


@pytest.mark.parametrize("check, first", [
    # conditions 2 and 5 draw nothing: their first witness is a pair, NaN and inf (as in
    # condition 6's relations)
    pytest.param(lambda: check_bell_condition(_overflowing_fourier2(), 2, trials=5),
                 {"pair": [0, 0]}, id="cond2"),
    pytest.param(lambda: check_bell_condition(_overflowing_fourier2(), 5, trials=5),
                 {"pair": [0, 1]}, id="cond5"),
    # the generator residuals of an overflowing operator: its first generator is a witness
    pytest.param(lambda: check_universality(theta2(1e300), trials=5), {"generator": 0},
                 id="universality"),
    pytest.param(lambda: sampled_preserves(np.full((4, 4), np.nan), 5, 0),
                 {"trial": 0}, id="preserves-nan"),
])
def test_inf_or_nan_trial_is_a_witness_without_warnings(check, first):
    # a rule of v >= tol would drop the NaN trials, and overflow must not leak a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check()
    assert not report.passed
    assert {key: report.witnesses[0][key] for key in first} == first
    assert not math.isfinite(report.witnesses[0]["violation"])
    assert not math.isfinite(report.max_violation)


def test_every_bell_condition_reports_an_overflowing_basis():
    # conditions 3 and 4 gate the basis: NaN witnesses at every pair, not a refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = [check_bell_condition(_overflowing_fourier2(), c, trials=5) for c in (2, 3, 4, 5, 6)]
    assert [r.passed for r in found] == [False] * 5
    assert all(r.witnesses for r in found)
    for r in found[1:3]:
        assert [w["pair"] for w in r.witnesses] == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert all(math.isnan(w["violation"]) for w in r.witnesses)
    # called directly, factor_local's unitarity gate still refuses such an operator
    with pytest.raises(ValueError, match="not unitary"):
        factor_local(np.full((4, 4), np.nan, dtype=complex))
