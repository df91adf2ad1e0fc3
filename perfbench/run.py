"""mg1lab benchmark.

    python3 perfbench/run.py --workload target-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It drives the library in `src/` through
its public API and its CLI, from one process with one caller in a closed
loop, and starts at most one child process at a time.

A run repeats a fixed, seeded pass of operations for about `--seconds`
(always at least one pass), checks every output outside the timed region
and prints two lines: a report with every metric, its unit, its sample
count, the machine and the failures, then the result object.  With
`--trace 0` the result carries the end-to-end metrics.  With `--trace 1`
the run alternates untraced and traced passes, then runs the layer sweep
(see layers.py), writes the spans to perfbench/out/ and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import SpeedSampler
from tracing import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 4

#: printed in the report but not gated: they do not apply to every workload,
#: can be 0, or (the times in seconds) move with the host's speed
REPORT_ONLY_UNITS = {"ref_ms": "ms", "batch_s": "s", "op_ms.p50": "ms", "cpu_s": "s",
                     "wall_s": "s", "jobs_per_s": "1/s", "ci2_cpu_s": "s", "ci2_cpu_ref": "ref",
                     "fail_rate": "ratio"}

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
workloads.make_inputs(workload, seed)
print(time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _child_setup_s(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, ROOT, workload, str(seed)],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _cpu() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def run_pass(ops, tr, sampler: SpeedSampler) -> dict:
    """One pass over `ops`.  Each op's time excludes the calibration loops
    its timer ticks ran; refs[k] is the loop time sampled from just before
    op k to just after it."""
    lat, cpu, marks, results = [], [], [], []
    w0 = time.perf_counter()
    for op in ops:
        marks.append(sampler.boundary())
        sampler.paused = op.child
        b, c, t = sampler.busy, _cpu(), time.perf_counter()
        try:
            res, err = op.run(tr), None
        except Exception as exc:  # recorded as a failed operation
            res, err = None, f"{type(exc).__name__}: {exc}"
        ticks = sampler.busy - b
        sampler.paused = False
        lat.append(time.perf_counter() - t - ticks)
        cpu.append(_cpu() - c - ticks)
        results.append((res, err))
    marks.append(sampler.boundary())
    refs = [sampler.ref_seconds(a, b) for a, b in zip(marks, marks[1:])]
    return {"wall": time.perf_counter() - w0, "lat": lat, "cpu": cpu, "refs": refs,
            "results": results, "traced": tr.enabled}


def run_budget(ops, tracers, seconds: float) -> list[dict]:
    """Cycle through `tracers` one pass each, at least one full cycle, and
    start another pass only while it is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            tr = tracers[len(passes) % len(tracers)]
            passes.append(run_pass(ops, tr, sampler))
            elapsed = time.perf_counter() - start
            if len(passes) >= len(tracers) and elapsed + statistics.median(
                    p["wall"] for p in passes) > seconds:
                return passes


def check_passes(ops, passes, fingerprint) -> tuple[int, int, bool, list[str]]:
    """Return (attempted, failed, correct, messages).  Identical outputs are
    checked once; an op whose output differs between passes is wrong."""
    attempted = failed = 0
    correct = True
    messages: list[str] = []
    for i, op in enumerate(ops):
        prints = set()
        verdicts: dict = {}
        for p in passes:
            res, err = p["results"][i]
            attempted += 1
            fp = err if err is not None else fingerprint(res)
            prints.add(fp)
            if fp not in verdicts:
                verdicts[fp] = ("failed", err) if err is not None else op.check(res)
            verdict = verdicts[fp]
            if verdict is not None:
                failed += 1
                correct &= verdict[0] != "wrong"
                messages.append(f"{op.kind}: {verdict[0]}: {verdict[1]}")
        if len(prints) > 1:
            correct = False
            messages.append(f"{op.kind}: wrong: output differs between passes")
    return attempted, failed, correct, messages


def e2e_metrics(ops, passes, setups, attempted, failed) -> dict:
    """End-to-end and report-only metrics as (value, samples behind it).

    Every pass runs the same operations on the same inputs.  Each execution
    of an operation is timed in seconds and in `ref` units (see
    hostspeed.py).  An operation's value in refs is the median over its
    executions in the run (an op object may occur more than once in a
    pass), and the batch's is the sum of these over one pass.  The same
    figures in seconds, each operation at its best execution, are printed
    as report-only.
    """
    ratio_lat: dict[int, list[float]] = collections.defaultdict(list)
    ratio_cpu: dict[int, list[float]] = collections.defaultdict(list)
    best_lat: dict[int, float] = {}
    best_cpu: dict[int, float] = {}
    for p in passes:
        for op, lat, cpu, ref in zip(ops, p["lat"], p["cpu"], p["refs"]):
            ratio_lat[id(op)].append(lat / ref)
            ratio_cpu[id(op)].append(cpu / ref)
            best_lat[id(op)] = min(lat, best_lat.get(id(op), math.inf))
            best_cpu[id(op)] = min(cpu, best_cpu.get(id(op), math.inf))
    op_ref = {i: statistics.median(v) for i, v in ratio_lat.items()}
    cpu_ref = {i: statistics.median(v) for i, v in ratio_cpu.items()}
    refs = [r for p in passes for r in p["refs"]]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    m = {
        "setup_s": (statistics.median(setups), len(setups)),
        "batch_ref": (sum(op_ref[id(op)] for op in ops), len(passes)),
        "op_ref.p50": (statistics.median(op_ref.values()), len(op_ref)),
        "cpu_ref": (sum(cpu_ref[id(op)] for op in ops), len(passes)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
        "ref_ms": (statistics.median(refs) * 1e3, len(refs)),
        "batch_s": (sum(best_lat[id(op)] for op in ops), len(passes)),
        "op_ms.p50": (statistics.median(best_lat.values()) * 1e3, len(best_lat)),
        "cpu_s": (sum(best_cpu[id(op)] for op in ops), len(passes)),
        "wall_s": (min(p["wall"] for p in passes), len(passes)),
        "fail_rate": (failed / attempted, attempted),
    }
    jobs = sum(op.jobs(r) for op, (r, e) in zip(ops, passes[0]["results"]) if e is None)
    if jobs:
        m["jobs_per_s"] = (jobs / m["batch_s"][0], len(passes))
    # cost of a stated accuracy: geometric mean over (call, class) of
    # (CI half-width / mean)^2 x the call's CPU time, in seconds (best
    # execution) and in refs
    logs: list[tuple[float, float]] = []
    for i, op in enumerate(ops):
        if op.kind != "run_sim" or any(p["results"][i][1] is not None for p in passes):
            continue
        est = passes[0]["results"][i][0]
        logs += [(2.0 * math.log(h / mu), math.log(best_cpu[id(op)]), math.log(cpu_ref[id(op)]))
                 for mu, h in zip(est.mean, est.ci_halfwidth_95) if mu > 0 and h > 0]
    if logs:
        m["ci2_cpu_s"] = (math.exp(statistics.fmean(a + b for a, b, _ in logs)), len(logs))
        m["ci2_cpu_ref"] = (math.exp(statistics.fmean(a + c for a, _, c in logs)), len(logs))
    return m


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sim-long, target-search, pricing, cli-analytic or cli-malformed")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mg1lab", "__init__.py")):
        print(f"error: no mg1lab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # set-up: import mg1lab and generate the inputs, here and in fresh processes
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports mg1lab

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    setups = [time.perf_counter() - t0]
    if not args.trace:
        setups += [_child_setup_s(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    ctx = {"root": ROOT, "env": _child_env(), "work": work}
    try:
        ops = workloads.build_ops(args.workload, inputs, ctx)
        if args.trace:
            tracer = Tracer()
            passes = run_budget(ops, [NullTracer(), tracer], args.seconds)
        else:
            passes = run_budget(ops, [NullTracer()], args.seconds)
        attempted, failed, correct, messages = check_passes(ops, passes, workloads.fingerprint)

        if args.trace:
            import layers

            plain = statistics.median(p["wall"] for p in passes if not p["traced"])
            traced = statistics.median(p["wall"] for p in passes if p["traced"])
            import_ms = layers.run_sweep(tracer, args.seed, ctx)
            n_traced = sum(p["traced"] for p in passes)
            values = layers.per_layer_metrics(tracer, n_traced, import_ms, ROOT,
                                              (100.0 * (traced - plain) / plain, len(passes)))
            declared = spec["per_layer"]
            spans_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(spans_file)
        else:
            spans_file = None
            values = e2e_metrics(ops, passes, setups, attempted, failed)
            declared = spec["end_to_end"]
        units = {**REPORT_ONLY_UNITS, **{m["name"]: m["unit"] for m in declared}}
        if not {m["name"] for m in declared} <= set(values):
            raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: "
                               f"{sorted({m['name'] for m in declared} - set(values))}")
        report = {name: {"value": v, "unit": units[name], "n": n} for name, (v, n) in values.items()}
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "passes": len(passes), "ops_per_pass": len(ops),
        "metrics": report, "spans_file": spans_file,
        "output_digest": hashlib.sha256("\n".join(
            workloads.fingerprint(r) for r, _ in passes[0]["results"]).encode()).hexdigest(),
        "failures": sorted(set(messages))[:20],
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
