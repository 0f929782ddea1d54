"""Self-test of the benchmark: each workload at a tiny size, and the gate.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(workload, trace, kind):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture
def d3_outcomes():
    """The search-d3 `gen` and `check bell-all` steps, run once at the tiny size."""
    workdir = ROOT / ".bench_work" / ("selftest-%d" % os.getpid())
    ctx = wl.make_inputs("search-d3", 7, True, str(workdir))
    steps = wl.steps_for("search-d3", 7, True)[:2]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        outcomes = []
        for step in steps:
            outcome = wl.run_step(step, ctx, lambda: 0.0)
            wl.collect(step, outcome, ctx)
            outcomes.append(outcome)
        yield ctx, steps, outcomes
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


def test_gate_passes_the_real_expectations(d3_outcomes):
    ctx, steps, outcomes = d3_outcomes
    for step, outcome in zip(steps, outcomes):
        assert wl.gate(step, outcome, ctx) == []


def test_gate_flags_d3_basis_expected_to_pass(d3_outcomes):
    ctx, steps, outcomes = d3_outcomes
    planted = replace(steps[1], expect=wl.Expect(passed=True, at_most=wl.BELL_BAND))
    fails = wl.gate(planted, outcomes[1], ctx)
    assert any("exit 1, expected 0" in f for f in fails)
    assert any("passed=False, expected True" in f for f in fails)
    assert any("above 1e-12" in f for f in fails)


def test_gate_flags_basis_unequal_to_reference(d3_outcomes):
    ctx, steps, outcomes = d3_outcomes
    ctx.references["conjugated"] = ctx.references["fourier3"].conj()
    planted = replace(steps[0], expect=wl.Expect(basis="conjugated"))
    assert any("differs from its reference" in f for f in wl.gate(planted, outcomes[0], ctx))


def test_gate_flags_a_crashing_command(d3_outcomes):
    ctx = d3_outcomes[0]
    step = wl.Step("cond3_s", wl.Expect(exit=None), call=lambda ctx: 1 / 0)
    outcome = wl.run_step(step, ctx, lambda: 0.0)
    assert wl.gate(step, outcome, ctx) == ["raised ZeroDivisionError: division by zero"]
