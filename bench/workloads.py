"""The benchmark's workloads, the inputs they make from the seed, and the gate.

A workload is a fixed list of steps. Each step is one `entbasis.cli.main`
call or one library call, and names the end-to-end metric its time feeds.
The gate checks each step's exit code, its reports' `passed` fields and the
size band of their violations, and compares written bases with a reference
built here from the shift-and-multiply formula. It never compares witness
values or file bytes, so a change of random stream or file format passes it
as long as the verdicts and violation sizes hold. Every band holds for any
seed: Bell-basis violations are rounding error (~1e-15), d=3 violations are
O(1).

Imported only after `entbasis` is, so that its numpy import is counted in
the set-up time.
"""

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

import entbasis
from entbasis import bell, cli, fileio

MAX_WITNESSES = 8
BELL_BAND = 1e-12        # Bell-basis violations stay at or below this
D3_BAND = 0.1            # d >= 3 violations stay above this
RESIDUAL_BAND = 1e-10    # verify and factorization residuals stay below this
BASIS_BAND = 1e-12       # a written basis equals its reference within this

# steps whose reports' trials count towards trials_per_s
SAMPLED = ("bell_all_s", "det_criterion_s", "universality_s", "cond3_s")


@dataclass(frozen=True)
class Expect:
    """What a correct run of one step returns."""

    exit: int | None = 0              # CLI exit code; None for a library call
    passed: bool | None = None        # every report's passed field
    at_most: float | None = None      # every report's max violation is <= this
    above: float | None = None        # every report's max violation is > this
    kind: str | None = None           # factorize verdict
    basis: str | None = None          # reference the written basis must equal


@dataclass(frozen=True)
class Step:
    metric: str                       # end-to-end metric the step's time feeds
    expect: Expect
    argv: tuple = ()                  # CLI arguments; empty for a library call
    call: object = None               # library call: ctx -> CheckReport
    report: str | None = None         # report file written by the step
    out: str | None = None            # basis file written by the step


@dataclass
class Outcome:
    seconds: float
    code: int | None = None
    result: object = None             # library call return value
    error: str | None = None          # exception raised by the call
    reports: list = field(default_factory=list)


@dataclass
class Context:
    workdir: str
    seed: int
    references: dict = field(default_factory=dict)
    d3_basis: object = None

    def path(self, name):
        return os.path.join(self.workdir, name)


# Sizes: full runs and the tiny --quick runs of the self-test.
SIZES = {
    False: {"d2_trials": 2000, "d3_trials": 1000, "candidates": 50, "search_trials": 100,
            "clifford": 13, "fourier_dim": 24, "sylvester_dim": 16},
    True: {"d2_trials": 20, "d3_trials": 10, "candidates": 3, "search_trials": 10,
           "clifford": 5, "fourier_dim": 5, "sylvester_dim": 4},
}


def _check(suite, trials, seed, report, *extra):
    return ("check", suite, *extra, "--trials", str(trials), "--seed", str(seed),
            "--tol", "1e-10", "--report", report)


def _cond3(basis_of, trials):
    def call(ctx):
        return bell.check_bell_condition(basis_of(ctx), 3, trials=trials, seed=ctx.seed)
    return call


def bell_d2(seed, size):
    n = size["d2_trials"]
    ok = Expect(passed=True, at_most=BELL_BAND)
    return [
        Step("bell_all_s", ok, _check("bell-all", n, seed, "bell_all.json"), report="bell_all.json"),
        Step("det_criterion_s", replace(ok, at_most=0.0),
             _check("det-criterion", n, seed, "det.json"), report="det.json"),
        Step("universality_s", ok, _check("universality", n, seed, "univ.json", "--dim", "2"),
             report="univ.json"),
        Step("cond3_s", replace(ok, exit=None), call=_cond3(lambda ctx: bell.bell_basis(), n)),
    ]


def search_d3(seed, size):
    n = size["d3_trials"]
    violated = Expect(exit=1, passed=False, above=D3_BAND)
    steps = [
        Step("gen_s", Expect(basis="fourier3"), ("gen", "--dim", "3", "--out", "b3.json"),
             out="b3.json"),
        Step("bell_all_s", violated,
             _check("bell-all", n, seed, "bell_all.json", "--basis", "b3.json"),
             report="bell_all.json"),
        Step("cond3_s", replace(violated, exit=None), call=_cond3(lambda ctx: ctx.d3_basis, n)),
        Step("universality_s", Expect(passed=True, above=D3_BAND),
             _check("universality", size["search_trials"], seed, "univ.json",
                    "--dim", "3", "--candidates", str(size["candidates"])),
             report="univ.json"),
        Step("clifford_s", Expect(passed=True, at_most=BELL_BAND),
             ("check", "clifford", "--count", str(size["clifford"]), "--report", "clifford.json"),
             report="clifford.json"),
    ]
    for name, kind in (("product", "local"), ("flip", "local_flip"), ("cnot", "neither")):
        report = "factor_%s.json" % name
        steps.append(Step("factorize_s", Expect(kind=kind),
                          ("factorize", name + ".json", "--report", report), report=report))
    return steps


def basis_io(seed, size):
    f, s = size["fourier_dim"], size["sylvester_dim"]
    fname, sname = "f%d.json" % f, "s%d.json" % s
    return [
        Step("gen_s", Expect(basis="fourier%d" % f), ("gen", "--dim", str(f), "--out", fname),
             out=fname),
        Step("verify_s", Expect(), ("verify", fname, "--tol", "1e-10")),
        Step("gen_s", Expect(basis="sylvester%d" % s),
             ("gen", "--dim", str(s), "--construction", "sylvester", "--out", sname), out=sname),
        Step("verify_s", Expect(), ("verify", sname, "--tol", "1e-10")),
    ]


WORKLOADS = {"bell-d2": bell_d2, "search-d3": search_d3, "basis-io": basis_io}


def steps_for(workload, seed, quick):
    return WORKLOADS[workload](seed, SIZES[quick])


# ---- inputs ---------------------------------------------------------------

def fourier_hadamard_ref(d):
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d)


def sylvester_hadamard_ref(d):
    h = np.ones((1, 1))
    while h.shape[0] < d:
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    return h.astype(complex)


def shift_multiply_ref(h):
    """Operators U_{i*d+j} e_k = h[i, k] e_{(k+j) mod d}, stacked (d^2, d, d)."""
    d = h.shape[0]
    k = np.arange(d)
    ops = np.zeros((d, d, d, d), dtype=complex)
    for j in range(d):
        ops[:, j, (k + j) % d, k] = h
    return ops.reshape(d * d, d, d)


def _haar(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _swap(d):
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def make_inputs(workload, seed, quick, workdir):
    """Writes the workload's input files and builds the gate's references."""
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(workdir, seed)
    size = SIZES[quick]
    if workload == "search-d3":
        ctx.references["fourier3"] = shift_multiply_ref(fourier_hadamard_ref(3))
        ctx.d3_basis = entbasis.EntangledBasis.from_unitary_basis(entbasis.fourier_basis(3))
        rng = np.random.default_rng(seed)
        product = np.kron(_haar(3, rng), _haar(3, rng))
        cnot = np.eye(4)[[0, 1, 3, 2]]
        for name, m in (("product", product), ("flip", product @ _swap(3)), ("cnot", cnot)):
            fileio.save_json(fileio.matrix_to_obj(m), ctx.path(name + ".json"))
    elif workload == "basis-io":
        f, s = size["fourier_dim"], size["sylvester_dim"]
        ctx.references["fourier%d" % f] = shift_multiply_ref(fourier_hadamard_ref(f))
        ctx.references["sylvester%d" % s] = shift_multiply_ref(sylvester_hadamard_ref(s))
    return ctx


# ---- running and gating one step -------------------------------------------

def clear_outputs(step, ctx):
    """Removes what the step wrote last time, so a stale file cannot pass."""
    for name in (step.report, step.out):
        if name and os.path.exists(ctx.path(name)):
            os.remove(ctx.path(name))


def _report_fields(r):
    if isinstance(r, dict):
        return {"passed": r.get("passed"), "max_violation": r.get("maxViolation"),
                "trials": r.get("trials", 0), "witnesses": len(r.get("witnesses", ()))}
    return {"passed": r.passed, "max_violation": r.max_violation,
            "trials": r.trials, "witnesses": len(r.witnesses)}


def collect(step, outcome, ctx):
    """Reads the step's reports, from its report file or its return value."""
    if step.call is not None:
        if outcome.result is not None:
            outcome.reports = [_report_fields(outcome.result)]
        return
    if step.report and os.path.exists(ctx.path(step.report)):
        with open(ctx.path(step.report)) as fh:
            obj = json.load(fh)
        if step.expect.kind is not None:
            outcome.reports = [obj]
        else:
            outcome.reports = [_report_fields(r) for r in (obj if isinstance(obj, list) else [obj])]


def _basis_error(path, reference):
    try:
        basis = fileio.basis_from_obj(fileio.load_json(path))
    except ValueError as exc:  # json.JSONDecodeError is a ValueError too
        return "basis file does not load: %s" % exc
    ops = np.asarray(basis.ops)
    if ops.shape != reference.shape:
        return "basis shape %s, expected %s" % (ops.shape, reference.shape)
    err = float(np.abs(ops - reference).max())
    if not err <= BASIS_BAND:
        return "basis differs from its reference by %.3e" % err
    return None


def label(step):
    return " ".join(step.argv) or step.metric


def gate(step, outcome, ctx):
    """Failure messages for one step; empty when it is correct."""
    e = step.expect
    if outcome.error:
        return ["raised " + outcome.error]
    fails = []
    if e.exit is not None and outcome.code != e.exit:
        fails.append("exit %s, expected %s" % (outcome.code, e.exit))
    if (step.report or step.call) and not outcome.reports:
        fails.append("no report")
    for r in outcome.reports:
        if e.kind is not None:
            if r.get("kind") != e.kind:
                fails.append("verdict %s, expected %s" % (r.get("kind"), e.kind))
            elif e.kind != "neither" and not r.get("residual", 1.0) < RESIDUAL_BAND:
                fails.append("residual %s" % r.get("residual"))
            continue
        v = r["max_violation"]
        if e.passed is not None and r["passed"] is not e.passed:
            fails.append("passed=%s, expected %s" % (r["passed"], e.passed))
        if e.at_most is not None and not (v is not None and v <= e.at_most):
            fails.append("violation %s above %g" % (v, e.at_most))
        if e.above is not None and not (v is not None and v > e.above):
            fails.append("violation %s not above %g" % (v, e.above))
        if r["witnesses"] > MAX_WITNESSES:
            fails.append("%d witnesses" % r["witnesses"])
    if e.basis is not None:
        error = _basis_error(ctx.path(step.out), ctx.references[e.basis]) \
            if os.path.exists(ctx.path(step.out)) else "no basis file"
        if error:
            fails.append(error)
    return fails


def run_step(step, ctx, clock):
    """Runs one step in-process; only the call itself is timed."""
    import contextlib
    import io

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = clock()
        try:
            if step.call is not None:
                result = step.call(ctx)
                return Outcome(clock() - start, result=result)
            code = cli.main(list(step.argv))
            return Outcome(clock() - start, code=code)
        except Exception as exc:  # a crash is a gate failure, not the end of the run
            return Outcome(clock() - start, error="%s: %s" % (type(exc).__name__, exc))


def run_pass(steps, ctx, clock, reference=None):
    """Runs the steps in order; returns their outcomes and the reference times.

    `reference`, a callable taking the clock and returning seconds, runs
    before each step and after the last, so that the two times around a step
    gauge the host's speed while it ran; without one the list is empty.
    """
    outcomes, refs = [], []
    for step in steps:
        if reference:
            refs.append(reference(clock))
        clear_outputs(step, ctx)
        outcomes.append(run_step(step, ctx, clock))
    if reference:
        refs.append(reference(clock))
    return outcomes, refs


def pass_metrics(steps, outcomes, ctx):
    """Per-pass values: total and per-command times, sampled trials, file bytes."""
    out = {"pass_s": sum(o.seconds for o in outcomes)}
    for step, o in zip(steps, outcomes):
        out[step.metric] = out.get(step.metric, 0.0) + o.seconds
    sampled = [(s, o) for s, o in zip(steps, outcomes) if s.metric in SAMPLED]
    if sampled:
        trials = sum(r.get("trials", 0) for _, o in sampled for r in o.reports)
        out["trials_per_s"] = trials / sum(o.seconds for _, o in sampled)
    written = [ctx.path(s.out) for s in steps if s.out]
    if written:
        out["file_mb"] = sum(os.path.getsize(p) for p in written if os.path.exists(p)) / 1e6
    return out
