"""entbasis benchmark: whole CLI commands timed end to end, layers traced from outside.

Usage, from the repository root:

    python3 bench/run.py --workload bell-d2 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run is one fresh process and one client in a closed loop: it repeats the
workload's command list (`bench/workloads.py`) for `--seconds`, gating every
result, and prints human-readable lines, a `detail` line with every metric
and the environment, and, last, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of `bench/tracer.py` with `--trace 1`. `--workload all`
runs each workload in its own process and prints one table. See
`bench/README.md` for what each workload and metric is for.

The package is imported from `src/` of the tree this file sits in, never
from an installed copy; without it the run stops with exit code 2.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("bell-d2", "search-d3", "basis-io")

SETUP_RUNS = 3        # set-ups measured per run: this process and SETUP_RUNS - 1 probes
MIN_PASSES = 3        # untraced passes per run, also when one pass outlasts --seconds
PROBE_TIMEOUT = 150

# end-to-end metrics with their units; BOUNDED are the ones BENCHMARK.json
# bounds, because they apply to every workload
E2E_UNITS = {
    "setup_s": "s", "pass_rel": "ratio", "pass_s": "s", "ref_s": "s",
    "peak_rss_mb": "MB", "trials_per_s": "1/s",
    "gen_s": "s", "verify_s": "s", "bell_all_s": "s", "det_criterion_s": "s",
    "universality_s": "s", "cond3_s": "s", "file_mb": "MB", "failed_frac": "ratio",
}
BOUNDED = ("setup_s", "pass_rel", "peak_rss_mb")


def env_info():
    """Interpreter, numpy, BLAS, cores, commit and thread variables as found."""
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_"))},
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(workload, seed, quick, workdir):
    """Import the package, make the inputs, and make one untimed warm call per step.

    Returns the set-up time (the import plus the warm calls; making the
    inputs is the harness's work and is not counted), the context, the steps
    and the warm outcomes.
    """
    clock = time.perf_counter
    start = clock()
    import entbasis.cli  # noqa: F401  (the set-up being measured)
    imported = clock() - start
    import workloads as wl

    ctx = wl.make_inputs(workload, seed, quick, workdir)
    steps = wl.steps_for(workload, seed, quick)
    os.chdir(workdir)
    start = clock()
    warm, _ = wl.run_pass(steps, ctx, clock)
    return imported + clock() - start, ctx, steps, warm


def probe_setup(args):
    """Set-up time of one more fresh process running the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip()[-500:])
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, workdir):
    """One run: set-ups, warm calls, then timed passes until --seconds is spent."""
    clock = time.perf_counter
    setups = [probe_setup(args) for _ in range(SETUP_RUNS - 1)]
    own_setup, ctx, steps, warm = setup(args.workload, args.seed, args.quick, workdir)
    setups.append(own_setup)

    import workloads as wl
    from reference import Reference
    from tracer import Tracer

    failures = []     # one message per command that failed the gate
    attempted = 0

    def check(outcomes):
        nonlocal attempted
        for step, o in zip(steps, outcomes):
            wl.collect(step, o, ctx)
            fails = wl.gate(step, o, ctx)
            if fails:
                failures.append("%s: %s" % (wl.label(step), "; ".join(fails)))
            attempted += 1

    check(warm)
    reference = Reference()
    reference.run(clock)
    tracer = Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    need = 2 if tracer else MIN_PASSES
    start = clock()
    while clock() - start < args.seconds or len(plain) < need \
            or (tracer and len(traced) < need):
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.reset()
            missing = tracer.install()
            if missing and len(traced) == 0:
                print("tracer: not found, reported as 0: %s" % ", ".join(missing), file=sys.stderr)
        try:
            outcomes, refs = wl.run_pass(steps, ctx, clock, reference.run)
        finally:
            if use_trace:
                tracer.uninstall()
        check(outcomes)
        values = wl.pass_metrics(steps, outcomes, ctx)
        values["ref_s"] = statistics.mean(refs)
        # each step's time in units of the reference work timed on either side of it
        values["rel_steps"] = [o.seconds / ((a + b) / 2)
                               for o, a, b in zip(outcomes, refs, refs[1:])]
        (traced if use_trace else plain).append(values)
        if use_trace:
            layers.append(tracer.snapshot())

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {"setup_s": (statistics.median(setups), len(setups)), "peak_rss_mb": (rss_mb, 1)}
    for name in sorted({k for p in plain for k in p} - {"rel_steps"}):
        values = [p[name] for p in plain if name in p]
        e2e[name] = (statistics.median(values), len(values))
    e2e["pass_rel"] = (relative_cost(plain), len(plain))
    e2e["failed_frac"] = (len(failures) / attempted, attempted)
    per_layer = {}
    if tracer:
        for name in layers[0]:
            per_layer[name] = statistics.median([snap[name] for snap in layers])
        overhead = relative_cost(traced) / relative_cost(plain) - 1
        per_layer["trace.overhead_s"] = overhead * statistics.median([p["pass_s"] for p in plain])
        per_layer["trace.overhead_frac"] = overhead
    return e2e, per_layer, attempted, failures


def relative_cost(passes):
    """A pass's cost in reference units: each step's median ratio, summed over the steps."""
    return sum(statistics.median(p["rel_steps"][i] for p in passes)
               for i in range(len(passes[0]["rel_steps"])))


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "svd_per_factor")):
        return "ratio"
    if name.startswith("fileio.bytes"):
        return "bytes"
    return "count"


def report(args, e2e, per_layer, attempted, failures):
    """Prints the human lines, the detail line and, last, the result line."""
    print("workload %s, seed %d, %g s per run, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, unit in E2E_UNITS.items():
        if name in e2e:
            value, n = e2e[name]
            print("  %-16s %12.6g %-6s (n=%d)" % (name, value, unit, n))
        else:
            print("  %-16s %12s %-6s" % (name, "n/a", unit))
    for name, value in per_layer.items():
        print("  %-36s %14.6g %s" % (name, value, layer_unit(name)))
    for msg in failures[:20]:
        print("gate: " + msg, file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "env": env_info(),
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k, "s"), "n": n}
                    for k, (v, n) in e2e.items()},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": E2E_UNITS[k]} for k in BOUNDED}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def run_all(args):
    """Runs every workload in its own process and prints one table."""
    rows = {}
    correct = True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        cmd += ["--quick"] if args.quick else []
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("%s failed: %s" % (workload, done.stderr.strip()[-500:]), file=sys.stderr)
            return 1
        detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
        correct = correct and json.loads(lines[-1])["correct"]
        rows[workload] = detail["metrics"]
    print("environment: " + json.dumps(detail["env"], sort_keys=True))
    print("%-16s %-6s" % ("metric", "unit") + "".join("%22s" % w for w in WORKLOAD_NAMES))
    for name, unit in E2E_UNITS.items():
        cells = []
        for w in WORKLOAD_NAMES:
            m = rows[w].get(name)
            cells.append("%22s" % ("n/a" if m is None else "%.6g (n=%d)" % (m["value"], m["n"])))
        print("%-16s %-6s" % (name, unit) + "".join(cells))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny trial counts and dimensions, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "entbasis" / "__init__.py").is_file():
        print("error: no entbasis package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.workload == "all":
        return run_all(args)
    workdir = WORK / ("%s-%d" % (args.workload, os.getpid()))
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, args.quick, workdir)[0]}))
            return 0
        e2e, per_layer, attempted, failures = measure(args, workdir)
        report(args, e2e, per_layer, attempted, failures)
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
