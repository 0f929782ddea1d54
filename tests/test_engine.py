"""The sampled-check engine against the public per-matrix functions.

Each sampled check hands its draw and measure steps to
reports.sample_violations. The tests below record every engine run, draw
each chunk's inputs again from the chunk's own generator, and recompute
every trial one matrix at a time with the public functions (factor_local,
det_criterion, vector_from_operator, tensor) and a dense unitarity
residual. Per-trial violations must agree within 1e-12 and the witnesses
must name the same trials.

Bell conditions 2 and 5 are decided exactly and draw nothing. Their sampled
forms, Haar SU(d) pairs and unit real combinations, stay here as engine
clients (sampled_bell_condition) and as the oracle the exact reports are
held against.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from entbasis import (
    AntilinearOp,
    EntangledBasis,
    PAULIS,
    SIGMA3,
    StateVector,
    basis_matrix,
    bell_basis,
    bell_matrix,
    check_bell_condition,
    check_det_criterion_agreement,
    check_preserves_max_entangled,
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
from entbasis.fileio import load_json, report_to_obj
from entbasis.reports import MAX_WITNESSES, TOL, chunk_rng, chunk_size, tolerance_report

FOURIER3 = fourier_basis(3)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
D3_CANDIDATE = np.array([[1, 2j, 0], [0, 1, -1], [1j, 0, 2]]) / 3.5
ORACLE_SEED = 5


class Recorder:
    """Stands in for the engine and keeps each run's draw and per-trial violations."""

    def __init__(self):
        self.runs = []

    def __call__(self, trials, seed, tol, draw, measure, per_trial):
        chunks = []

        def recorded(batch):
            out = measure(batch)
            chunks.append(np.asarray(out[0] if isinstance(out, tuple) else out))
            return out

        result = reports.sample_violations(trials, seed, tol, draw, recorded, per_trial)
        self.runs.append({"trials": trials, "seed": seed, "tol": tol, "draw": draw,
                          "measure": measure, "per_trial": per_trial,
                          "violations": np.concatenate(chunks)})
        return result


@pytest.fixture
def engine(monkeypatch):
    recorder = Recorder()
    monkeypatch.setattr(bell, "sample_violations", recorder)
    monkeypatch.setattr(factorize, "sample_violations", recorder)
    return recorder


def redraw(run):
    """(global trial indices, inputs) of each chunk, drawn again from its generator."""
    step = chunk_size(run["per_trial"])
    for c, start in enumerate(range(0, run["trials"], step)):
        idx = np.arange(start, min(start + step, run["trials"]))
        yield idx, run["draw"](chunk_rng(run["seed"], c), idx)


def unitarity(x):
    return np.linalg.norm(x.conj().T @ x - np.eye(x.shape[0]))


def sampled_bell_condition(basis, condition, trials, seed, tol=TOL):
    """Condition 2 over Haar SU(d) pairs (U1, U2), or 5 over unit real combinations, as
    check_bell_condition sampled them before it decided them exactly: the same draws, measures
    and chunks, run through the engine. The reference the exact reports are held against."""
    d = basis.dim
    n = d * d
    b = basis_matrix(basis)
    if condition == 2:
        def draw(rng, idx):
            return (haar_special_unitary(d, rng, count=len(idx)),
                    haar_special_unitary(d, rng, count=len(idx)))

        def measure(pair):
            u = np.einsum("tij,tkl->tikjl", *pair).reshape(-1, n, n)  # tensor(v1, v2) per trial
            return bell._max_entry(np.abs(bell._sandwich(b.conj().T, u, b).imag))
    else:
        def draw(rng, idx):
            return rng.standard_normal((len(idx), n))

        def measure(a):
            a = a / np.linalg.norm(a, axis=1, keepdims=True)
            return linalg.unitarity_residual(np.tensordot(a, basis.ops, axes=1))

    violations, witnesses = bell.sample_violations(
        trials, seed, tol, draw, measure, n * n if condition == 2 else n)
    return tolerance_report("sampled-condition-%d" % condition, violations.max(), tol,
                            trials=trials, witnesses=witnesses)


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
    "cond3-bell": (lambda n, s: check_bell_condition(bell_basis(), 3, n, s), cond3(bell_basis())),
    "cond3-fourier3": (lambda n, s: check_bell_condition(FOURIER3, 3, n, s), cond3(FOURIER3)),
    "cond4-bell": (lambda n, s: check_bell_condition(bell_basis(), 4, n, s), cond4(bell_basis())),
    "cond4-fourier3": (lambda n, s: check_bell_condition(FOURIER3, 4, n, s), cond4(FOURIER3)),
    "cond5-bell": (lambda n, s: sampled_bell_condition(bell_basis(), 5, n, s), cond5(bell_basis())),
    "cond5-fourier3": (lambda n, s: sampled_bell_condition(FOURIER3, 5, n, s), cond5(FOURIER3)),
    "universality-d2": (lambda n, s: check_universality(theta2(), n, s),
                        covariance([theta2().matrix], "det")),
    "universality-d2-sigma3": (lambda n, s: check_universality(AntilinearOp(SIGMA3), n, s),
                               covariance([SIGMA3], "det")),
    "universality-d3-best": (
        lambda n, s: check_universality(AntilinearOp(D3_CANDIDATE), n, s, phase="best"),
        covariance([D3_CANDIDATE], "best")),
    # 7 candidates: the two-chunk run's 917 = 7 x 131 trials, so candidate 6 straddles the
    # chunk boundary at 910; the oracle's candidates are those of the oracle test's seed
    "universality-search": (
        lambda n, s: universality_search(dim=3, candidates=7, trials=-(-n // 7), seed=s),
        covariance(search_candidates(7, ORACLE_SEED), "best")),
    "det-criterion": (lambda n, s: check_det_criterion_agreement(n, s), det_agreement(1e-10)),
    "preserves-cnot": (lambda n, s: check_preserves_max_entangled(CNOT, n, s), preserves(CNOT)),
    "preserves-local3": (lambda n, s: check_preserves_max_entangled(LOCAL3, n, s),
                         preserves(LOCAL3)),
    "preserves-flip3": (lambda n, s: check_preserves_max_entangled(flip_operator(3), n, s),
                        preserves(flip_operator(3))),
}


def _per_trial(case):
    """Entries per trial the check declares to the engine, from a one-trial run."""
    recorder = Recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bell, "sample_violations", recorder)
        mp.setattr(factorize, "sample_violations", recorder)
        CASES[case][0](1, 0)
    return recorder.runs[0]["per_trial"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_one_trial_oracle(case, engine):
    run_check, oracle = CASES[case]
    trials = chunk_size(_per_trial(case)) + 7  # two chunks, the second one short
    report = run_check(trials, ORACLE_SEED)
    (run,) = engine.runs
    assert run["trials"] == trials == report.trials
    expected = np.concatenate([oracle(idx, batch) for idx, batch in redraw(run)])
    assert np.abs(run["violations"] - expected).max() <= 1e-12
    first = np.flatnonzero(expected >= run["tol"])[:MAX_WITNESSES].tolist()
    assert [w["trial"] for w in report.witnesses] == first
    for w in report.witnesses:
        assert w["seed"] == ORACLE_SEED
        assert abs(w["violation"] - expected[w["trial"]]) <= 1e-12


def stacked_covariance(a, trials, seed, tol, phase):
    """_covariance_violations with U A U^T as one stacked matmul: the flat U A GEMM's reference."""
    d = a.shape[0]

    def measure(u):
        conjugated = u @ a @ u.swapaxes(-1, -2)
        if phase == "det":
            omega = np.linalg.det(u)
        else:
            z = (a.conj() * conjugated).sum(axis=(1, 2))
            omega = np.divide(z, np.abs(z), out=np.ones_like(z), where=z != 0)
        return np.linalg.norm(conjugated - omega[:, None, None] * a, axis=(1, 2))

    def draw(rng, idx):
        return haar_unitary(d, rng, count=len(idx))

    return bell.sample_violations(trials, seed, tol, draw, measure, d * d)


FOURIER4 = fourier_basis(4)
FRAME_CASES = {
    "cond2-bell": lambda: sampled_bell_condition(bell_basis(), 2, 1100, 8),
    "cond2-fourier3": lambda: sampled_bell_condition(FOURIER3, 2, 250, 8),
    "cond2-fourier4": lambda: sampled_bell_condition(FOURIER4, 2, 70, 8),
    "cond3-bell": lambda: check_bell_condition(bell_basis(), 3, 1100, 8),
    "cond3-fourier3": lambda: check_bell_condition(FOURIER3, 3, 250, 8),
    "cond3-fourier4": lambda: check_bell_condition(FOURIER4, 3, 70, 8),
    "det-criterion": lambda: check_det_criterion_agreement(1100, 8),
    "universality-det": lambda: check_universality(theta2(), 2500, 8),
    "universality-best": lambda: check_universality(AntilinearOp(D3_CANDIDATE), 1000, 8,
                                                    phase="best"),
}


# the spin flip is covariant at d=2: its violations are rounding error, compared within 8 d eps
ROUNDING_ONLY = {"universality-det": 2}


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_frame_products_match_stacked_matmul(case, engine, monkeypatch):
    # the same seeds through left @ x @ right, and U A U^T and det(U) one BLAS or LAPACK
    # call per trial
    fast = FRAME_CASES[case]()
    monkeypatch.setattr(bell, "_sandwich", lambda left, x, right: left @ x @ right)
    monkeypatch.setattr(bell, "_covariance_violations", stacked_covariance)
    slow = FRAME_CASES[case]()
    (fast_run, slow_run) = engine.runs
    assert fast_run["trials"] > chunk_size(fast_run["per_trial"])  # two chunks at least
    assert fast.passed == slow.passed
    assert [w["trial"] for w in fast.witnesses] == [w["trial"] for w in slow.witnesses]
    if case in ROUNDING_ONLY:
        bound = 8 * ROUNDING_ONLY[case] * np.finfo(float).eps
        assert np.all(np.abs(fast_run["violations"] - slow_run["violations"]) <= bound)
        return
    assert np.all(np.abs(fast_run["violations"] - slow_run["violations"])
                  <= 1e-12 * np.abs(slow_run["violations"]))
    for w_fast, w_slow in zip(fast.witnesses, slow.witnesses):
        assert abs(w_fast["violation"] - w_slow["violation"]) <= 1e-12 * abs(w_slow["violation"])


D3_SAMPLED = {
    "cond2-fourier3": lambda: sampled_bell_condition(FOURIER3, 2, 300, 9),
    "cond4-fourier3": lambda: check_bell_condition(FOURIER3, 4, 300, 9),
    "search-d3": lambda: universality_search(dim=3, candidates=6, trials=100, seed=9),
}


@pytest.mark.parametrize("case", sorted(D3_SAMPLED))
def test_d3_reports_match_the_qr_samplers(case, engine, monkeypatch):
    # the same seeds with every Haar draw by QR and every determinant by LAPACK
    fast = D3_SAMPLED[case]()
    monkeypatch.setattr(linalg, "_haar", linalg._qr_haar)
    monkeypatch.setattr(linalg, "_det", np.linalg.det)
    slow = D3_SAMPLED[case]()
    fast_run, slow_run = engine.runs
    assert fast.passed == slow.passed
    assert [w["trial"] for w in fast.witnesses] == [w["trial"] for w in slow.witnesses]
    assert np.all(np.abs(fast_run["violations"] - slow_run["violations"])
                  <= 1e-12 * np.abs(slow_run["violations"]))
    for w_fast, w_slow in zip(fast.witnesses, slow.witnesses):
        assert abs(w_fast["violation"] - w_slow["violation"]) <= 1e-12 * abs(w_slow["violation"])


def each_chunk_alone(run):
    """Every trial's violation, each chunk drawn alone from its own generator and measured."""
    out = []
    for idx, batch in redraw(run):
        with np.errstate(over="ignore", invalid="ignore"):
            v = run["measure"](batch)
        out.append(v[0] if isinstance(v, tuple) else v)
    return np.concatenate(out)


# id -> (run(trials, seed) -> report, trials): every CASES entry over five chunks, the last
# one short; Fourier d=3 at 150 trials ends in a chunk of 49 and Fourier d=4 has chunks of 32,
# under _STACK, which are drawn alone
BATCH_CASES = {
    **{case: (run_check, None) for case, (run_check, _) in CASES.items()},
    "cond2-fourier3-150": (lambda n, s: sampled_bell_condition(FOURIER3, 2, n, s), 150),
    "cond3-fourier3-150": (lambda n, s: check_bell_condition(FOURIER3, 3, n, s), 150),
    "cond2-fourier4-300": (lambda n, s: sampled_bell_condition(FOURIER4, 2, n, s), 300),
    "cond3-fourier4-300": (lambda n, s: check_bell_condition(FOURIER4, 3, n, s), 300),
    "cond4-fourier4-300": (lambda n, s: check_bell_condition(FOURIER4, 4, n, s), 300),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_draws_match_each_chunk_drawn_alone(case, engine):
    run_check, trials = BATCH_CASES[case]
    report = run_check(trials or 4 * chunk_size(_per_trial(case)) + 7, ORACLE_SEED)
    (run,) = engine.runs
    expected = each_chunk_alone(run)
    assert np.array_equal(run["violations"], expected)
    first = np.flatnonzero(~(expected < run["tol"]))[:MAX_WITNESSES]
    assert [w["trial"] for w in report.witnesses] == first.tolist()
    assert [w["violation"] for w in report.witnesses] == expected[first].tolist()


def test_a_draw_takes_whole_chunks_of_stack_size_within_one_chunks_bytes():
    sizes = []

    def draw(rng, idx):
        sizes.append(len(idx))
        return rng.standard_normal((len(idx), 9))

    def draws(trials, per_trial):
        sizes.clear()
        v, witnesses = reports.sample_violations(trials, 0, 2.0, draw, lambda x: x[:, 0], per_trial)
        # one trial in 44 is a witness: the first ones in trial order, across chunks and draws
        assert [w["trial"] for w in witnesses] == np.flatnonzero(v >= 2.0)[:MAX_WITNESSES].tolist()
        return sizes[:]

    # chunks of 101: chunk 0 is drawn alone, and its 101 x 72 bytes let 18 chunks share a draw
    assert draws(1000, 81) == [101, 899]
    # a last chunk under _STACK trials is drawn alone
    assert draws(4 * 101 + 7, 81) == [101, 303, 7]
    assert draws(150, 81) == [101, 49]
    # chunks of 512: 36 KiB each, 3 to a draw
    assert draws(3000, 16) == [512, 1536, 952]
    # chunks of 32 are under _STACK: one draw each
    assert draws(100, 256) == [32, 32, 32, 4]


@pytest.mark.parametrize("basis, trials", [(FOURIER3, 1000), (bell_basis(), 2000)],
                         ids=["fourier3", "bell"])
def test_condition_3_peak_memory_is_a_few_chunks(basis, trials):
    # 0.81 and 1.08 MiB measured; with every chunk in one draw, Fourier d=3 read 2.63 MiB
    check_bell_condition(basis, 3, trials)
    tracemalloc.start()
    try:
        check_bell_condition(basis, 3, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2 ** 20


def test_bell_basis_checks_pass_across_chunks():
    # the d=2 verdicts and bands hold over several chunks
    for cond in (2, 4, 5):
        report = check_bell_condition(bell_basis(), cond, trials=700, seed=3)
        assert report.passed and report.max_violation < 1e-12 and report.witnesses == ()
    assert check_bell_condition(bell_basis(), 3, trials=700, seed=3).max_violation == 0.0
    assert check_det_criterion_agreement(trials=700, seed=3).max_violation == 0.0


def test_condition_2_witness_pair_names_the_largest_entry(engine):
    report = sampled_bell_condition(FOURIER3, 2, trials=40, seed=1)
    (run,) = engine.runs
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
def test_exact_conditions_match_dense_products(condition, name, engine):
    basis = EXACT_BASES[name]()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (dense_condition_2 if condition == 2 else dense_condition_5)(basis)
        report = check_bell_condition(basis, condition, trials=7, seed=3)
    assert engine.runs == [] and report.trials == 0  # nothing is drawn
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


@pytest.mark.parametrize("case", ["cond2-fourier3", "cond3-fourier3", "cond4-fourier3",
                                  "universality-d2-sigma3", "preserves-cnot"])
def test_chunk_boundaries(case):
    run_check = CASES[case][0]
    chunk = chunk_size(_per_trial(case))
    previous = None
    for trials in (1, chunk - 1, chunk, chunk + 1):
        if trials < 1:
            continue
        report = run_check(trials, 11)
        assert report.trials == trials
        found = [w["trial"] for w in report.witnesses]
        assert 0 < len(found) <= MAX_WITNESSES
        assert all(0 <= t < trials for t in found)
        assert found == sorted(set(found))
        if previous is not None:
            # chunk c draws from its own generator, so more trials only append
            assert found[: len(previous)] == previous
        previous = found


def test_chunk_size_is_derived_from_entries_per_trial():
    assert chunk_size(1) == reports.CHUNK_ENTRIES
    assert chunk_size(reports.CHUNK_ENTRIES + 1) == 1
    assert chunk_size(24 ** 4) == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_seed_is_an_integer(case, engine):
    # a Generator seed would run one stream through every chunk, which no report could replay
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(TypeError):
        CASES[case][0](60, rng)
    assert rng.bit_generator.state == state and engine.runs == []
    report = CASES[case][0](60, np.int64(4))
    assert all(type(w["seed"]) is int and w["seed"] == 4 for w in report.witnesses)
    json.dumps(report_to_obj(report))


def test_default_search_is_one_engine_run(engine, monkeypatch):
    # 50 x 100 flat trials in ceil(5000 / chunk_size(9)) Haar stacks, not one stack per candidate
    counts = []

    def counted(d, seed, count):
        counts.append(count)
        return haar_unitary(d, seed, count)

    monkeypatch.setattr(bell, "haar_unitary", counted)
    report = universality_search(dim=3)
    (run,) = engine.runs
    assert run["trials"] == report.trials == 5000
    assert len(counts) == -(-5000 // chunk_size(9)) == 6 and sum(counts) == 5000
    # a candidate's violation is the worst of its own 100 trials
    per_candidate = [run["violations"][100 * c:100 * (c + 1)].max() for c in range(50)]
    assert report.max_violation == min(per_candidate)
    assert report.details["weakest_candidate"] == int(np.argmin(per_candidate))


@pytest.mark.parametrize("trials", ["3", "1000"])  # 8 witnesses over 3 candidates, or 1
def test_search_witnesses_replay_from_their_report(trials, tmp_path, capsys):
    path = tmp_path / "u3.json"
    argv = ["check", "universality", "--dim", "3", "--trials", trials, "--seed", "4"]
    assert main(argv + ["--report", str(path)]) == 0
    obj = load_json(path)
    candidates = obj["details"]["candidates"]
    assert len(obj["witnesses"]) == MAX_WITNESSES
    step = chunk_size(9)
    for w in obj["witnesses"]:
        assert w["candidate"] == w["trial"] // int(trials)
        a = search_candidates(candidates, w["seed"])[w["candidate"]]
        chunk, k = divmod(w["trial"], step)
        count = min(step, obj["trials"] - chunk * step)
        u = haar_unitary(3, chunk_rng(w["seed"], chunk), count=count)[k]
        (violation,) = covariance([a], "best")(None, ([u], [0]))
        assert abs(violation - w["violation"]) <= 1e-12


class TestLazyFields:
    @staticmethod
    def uniform(rng, idx):
        return rng.random(len(idx))

    def test_callable_gets_only_the_witness_rows(self):
        seen = []

        def lazy(x):
            def fields(rows):
                seen.append(rows)
                return {"value": x[rows], "pair": np.stack([rows, rows], axis=1)}
            return x, fields

        # chunks of chunk_size(64) trials and about 30 violations, of which 8 become witnesses
        v_lazy, w_lazy = reports.sample_violations(1000, 3, 0.97, self.uniform, lazy, 64)
        assert all(len(rows) > 0 for rows in seen)
        assert sum(len(rows) for rows in seen) == len(w_lazy) == MAX_WITNESSES
        assert (v_lazy >= 0.97).sum() > MAX_WITNESSES
        for w in w_lazy:
            assert w["value"] == w["violation"]
            assert w["pair"] == [w["trial"] % chunk_size(64)] * 2

    def test_condition_3_residuals_only_for_witnesses(self, monkeypatch):
        lazy = check_bell_condition(FOURIER3, 3, trials=300, seed=2)

        def eager_engine(trials, seed, tol, draw, measure, per_trial):
            def eager(batch):
                v, fields = measure(batch)
                every = fields(np.arange(len(v)))
                return v, lambda rows: {name: f[rows] for name, f in every.items()}
            return reports.sample_violations(trials, seed, tol, draw, eager, per_trial)

        with monkeypatch.context() as mp:
            mp.setattr(bell, "sample_violations", eager_engine)
            assert report_to_obj(check_bell_condition(FOURIER3, 3, 300, 2)) == report_to_obj(lazy)
        sizes = []
        real = bell._neither_residual

        def counted(u):
            sizes.append(len(u))
            return real(u)

        monkeypatch.setattr(bell, "_neither_residual", counted)
        assert report_to_obj(check_bell_condition(FOURIER3, 3, 300, 2)) == report_to_obj(lazy)
        assert sum(sizes) == len(lazy.witnesses) == MAX_WITNESSES
        for w in lazy.witnesses:
            assert w["residual"] > 0.1


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
        os_ = linalg._so4(np.random.default_rng(2), 20)
        assert os_.shape == (20, 4, 4) and os_.dtype == float
        assert np.allclose(np.linalg.det(os_), 1.0, atol=1e-12)
        for n in (3, 4, 5):
            os_ = random_orthogonal(n, seed=1, count=40)
            assert os_.shape == (40, n, n) and os_.dtype == float
            dets = np.linalg.det(os_)
            assert (dets < 0).any() and (dets > 0).any()
            assert np.allclose(np.abs(dets), 1.0, atol=1e-12)

    @pytest.mark.parametrize("sampler, dims", [
        (haar_unitary, (1, 2, 3, 4)), (haar_special_unitary, (1, 2, 3, 4)),
        (random_orthogonal, (1, 2, 3, 4)),
        (lambda d, seed, count=None: linalg._so4(np.random.default_rng(seed), count), (4,)),
    ], ids=["haar_unitary", "haar_special_unitary", "random_orthogonal", "special_orthogonal"])
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
        rng = np.random.default_rng(6)
        b = bell_matrix()
        us = np.stack([
            tensor(haar_unitary(2, rng), haar_unitary(2, rng)),
            tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ flip_operator(2),
            CNOT,
            b @ random_orthogonal(4, rng) @ b.conj().T,
        ])
        kinds, residual = factorize._local_kinds(us), factorize._neither_residual(us)
        for u, kind, res in zip(us, kinds, residual):
            single = factor_local(u)
            assert kind == single.kind
            if kind == "neither":
                assert abs(res - single.residual) <= 1e-12


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
    pytest.param(lambda: check_universality(theta2(1e300), trials=5), {"trial": 0},
                 id="universality"),
    pytest.param(lambda: check_preserves_max_entangled(np.full((4, 4), np.nan), trials=5),
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
    # condition 3 gates the basis, not its trials: NaN witnesses, not a refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = [check_bell_condition(_overflowing_fourier2(), c, trials=5) for c in (2, 3, 4, 5, 6)]
    assert [r.passed for r in found] == [False] * 5
    assert all(r.witnesses for r in found)
    first = found[1].witnesses[0]
    assert first["trial"] == 0 and math.isnan(first["violation"]) and math.isnan(first["residual"])
    # called directly, factor_local's unitarity gate still refuses such an operator
    with pytest.raises(ValueError, match="not unitary"):
        factor_local(np.full((4, 4), np.nan, dtype=complex))


def test_engine_and_pair_witnesses_share_one_rule():
    tol = 1e-3
    v = np.array([np.nan, tol, tol / 2, np.inf, -np.inf, 0.5])
    _, witnesses = reports.sample_violations(
        len(v), 0, tol, lambda rng, idx: idx, lambda idx: v[idx], 1
    )
    pairs = reports.pair_witnesses(v, range(len(v)), range(len(v)), tol)
    assert [w["trial"] for w in witnesses] == [p["pair"][0] for p in pairs] == [0, 1, 3, 5]
