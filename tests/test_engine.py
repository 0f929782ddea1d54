"""The sampled-check engine against the public per-matrix functions.

Each sampled check hands its draw and measure steps to
reports.sample_violations. The tests below record every engine run, draw
each chunk's inputs again from the chunk's own generator, and recompute
every trial one matrix at a time with the public functions (factor_local,
det_criterion, vector_from_operator, tensor) and a dense unitarity
residual. Per-trial violations must agree within 1e-12 and the witnesses
must name the same trials.
"""

import json

import numpy as np
import pytest

from entbasis import (
    AntilinearOp,
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
from entbasis import bell, factorize, reports
from entbasis.fileio import report_to_obj
from entbasis.reports import MAX_WITNESSES, chunk_rng, chunk_size

FOURIER3 = fourier_basis(3)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
D3_CANDIDATE = np.array([[1, 2j, 0], [0, 1, -1], [1j, 0, 2]]) / 3.5


class Recorder:
    """Stands in for the engine and keeps each run's draw and per-trial violations."""

    def __init__(self):
        self.runs = []

    def __call__(self, trials, seed, tol, draw, measure, per_trial, unit="trial"):
        chunks = []

        def recorded(batch):
            out = measure(batch)
            chunks.append(np.asarray(out[0] if isinstance(out, tuple) else out))
            return out

        result = reports.sample_violations(trials, seed, tol, draw, recorded, per_trial, unit)
        self.runs.append({"trials": trials, "seed": seed, "tol": tol, "draw": draw,
                          "per_trial": per_trial, "violations": np.concatenate(chunks)})
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


def covariance(a, phase):
    def oracle(idx, us):
        out = []
        for u in us:
            conjugated = u @ a @ u.T
            if phase == "det":
                omega = np.linalg.det(u)
            else:
                z = np.trace(a.conj().T @ conjugated)
                omega = z / abs(z) if abs(z) > 0 else 1.0
            out.append(np.linalg.norm(conjugated - omega * a))
        return out
    return oracle


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
    "cond2-bell": (lambda n, s: check_bell_condition(bell_basis(), 2, n, s), cond2(bell_basis())),
    "cond2-fourier3": (lambda n, s: check_bell_condition(FOURIER3, 2, n, s), cond2(FOURIER3)),
    "cond3-bell": (lambda n, s: check_bell_condition(bell_basis(), 3, n, s), cond3(bell_basis())),
    "cond3-fourier3": (lambda n, s: check_bell_condition(FOURIER3, 3, n, s), cond3(FOURIER3)),
    "cond4-bell": (lambda n, s: check_bell_condition(bell_basis(), 4, n, s), cond4(bell_basis())),
    "cond4-fourier3": (lambda n, s: check_bell_condition(FOURIER3, 4, n, s), cond4(FOURIER3)),
    "cond5-bell": (lambda n, s: check_bell_condition(bell_basis(), 5, n, s), cond5(bell_basis())),
    "cond5-fourier3": (lambda n, s: check_bell_condition(FOURIER3, 5, n, s), cond5(FOURIER3)),
    "universality-d2": (lambda n, s: check_universality(theta2(), n, s),
                        covariance(theta2().matrix, "det")),
    "universality-d2-sigma3": (lambda n, s: check_universality(AntilinearOp(SIGMA3), n, s),
                               covariance(SIGMA3, "det")),
    "universality-d3-best": (
        lambda n, s: check_universality(AntilinearOp(D3_CANDIDATE), n, s, phase="best"),
        covariance(D3_CANDIDATE.astype(complex), "best")),
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
    report = run_check(trials, 5)
    (run,) = engine.runs
    assert run["trials"] == trials == report.trials
    expected = np.concatenate([oracle(idx, batch) for idx, batch in redraw(run)])
    assert np.abs(run["violations"] - expected).max() <= 1e-12
    first = np.flatnonzero(expected >= run["tol"])[:MAX_WITNESSES].tolist()
    assert [w["trial"] for w in report.witnesses] == first
    for w in report.witnesses:
        assert w["seed"] == 5
        assert abs(w["violation"] - expected[w["trial"]]) <= 1e-12


def test_universality_search_matches_check_universality_per_candidate(engine):
    # each candidate's trials come from its chunk's stream, right after the candidates
    report = universality_search(dim=3, candidates=5, trials=30, seed=2)
    outer = engine.runs[-1]
    assert outer["trials"] == 5
    expected = []
    for idx, (cands, rng) in redraw(outer):
        for a in cands:
            sub = check_universality(AntilinearOp(a), 30, rng, tol=0.1, phase="best")
            expected.append(sub.max_violation)
    assert np.abs(outer["violations"] - expected).max() <= 1e-12
    assert report.max_violation == min(expected)
    assert report.details["weakest_candidate"] == int(np.argmin(expected))
    assert [w["candidate"] for w in report.witnesses] == list(range(5))


def test_bell_basis_checks_pass_across_chunks():
    # the d=2 verdicts and bands hold over several chunks
    for cond in (2, 4, 5):
        report = check_bell_condition(bell_basis(), cond, trials=700, seed=3)
        assert report.passed and report.max_violation < 1e-12 and report.witnesses == ()
    assert check_bell_condition(bell_basis(), 3, trials=700, seed=3).max_violation == 0.0
    assert check_det_criterion_agreement(trials=700, seed=3).max_violation == 0.0


def test_condition_2_witness_pair_names_the_largest_entry(engine):
    report = check_bell_condition(FOURIER3, 2, trials=40, seed=1)
    (run,) = engine.runs
    b = basis_matrix(FOURIER3)
    inputs = {int(t): (v1, v2) for idx, (a, c) in redraw(run) for t, v1, v2 in zip(idx, a, c)}
    for w in report.witnesses:
        m = np.abs((b.conj().T @ tensor(*inputs[w["trial"]]) @ b).imag)
        assert abs(m[tuple(w["pair"])] - m.max()) <= 1e-12


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


def test_generator_seed_runs_one_stream():
    rng = np.random.default_rng(4)
    report = check_bell_condition(FOURIER3, 4, trials=60, seed=rng)
    assert not report.passed
    assert all("seed" not in w for w in report.witnesses)
    json.dumps(report_to_obj(report))


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
        os_ = random_orthogonal(4, seed=2, special=True, count=20)
        assert os_.shape == (20, 4, 4) and os_.dtype == float
        assert np.allclose(np.linalg.det(os_), 1.0, atol=1e-12)
        dets = np.linalg.det(random_orthogonal(3, seed=1, count=40))
        assert (dets < 0).any() and (dets > 0).any()

    @pytest.mark.parametrize("sampler", [haar_unitary, haar_special_unitary, random_orthogonal])
    def test_stack_of_one_is_the_single_draw(self, sampler):
        for d in (1, 2, 4):
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
        kinds, residual = factorize._local_kinds(us)
        for u, kind, res in zip(us, kinds, residual):
            single = factor_local(u)
            assert kind == single.kind
            if kind == "neither":
                assert abs(res - single.residual) <= 1e-12

    def test_stacked_kinds_refuse_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            factorize._local_kinds(np.stack([np.eye(4), 2 * np.eye(4)]).astype(complex))
