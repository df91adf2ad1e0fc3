"""Self-test of the benchmark (takes about six minutes on 2 CPUs).

    python3 perfbench/selftest.py

Checks that
- the same seed gives the same inputs and another seed other inputs;
- every end-to-end metric of BENCHMARK.json appears, with its unit, on
  every workload (`--trace 0`), and every per-layer metric on every
  workload (`--trace 1`);
- the report-only metrics appear exactly on the workloads they apply to;
- a second seed gives the same set of metrics;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

#: report-only metrics and the workloads they apply to
REPORT_ONLY = {
    **{m: set(workloads.WORKLOADS)
       for m in ("ref_ms", "batch_s", "op_ms.p50", "cpu_s", "wall_s", "fail_rate")},
    "jobs_per_s": {"sim-long", "target-search"},
    "ci2_cpu_s": {"sim-long"},
    "ci2_cpu_ref": {"sim-long"},
}

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_inputs() -> None:
    for w in workloads.WORKLOADS:
        a, b, c = (repr(workloads.make_inputs(w, s)) for s in (1, 1, 2))
        expect(a == b, f"{w}: same seed, same inputs")
        expect(a != c, f"{w}: another seed, other inputs")


def check_metrics(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names: dict = {}
    for w in workloads.WORKLOADS:
        for trace, want in ((0, e2e), (1, per_layer)):
            proc = bench(w, 1, trace)
            expect(proc.returncode == 0, f"{w} --trace {trace}: exit 0 ({proc.stderr[-300:]!r})")
            if proc.returncode:
                continue
            report, result = parse(proc)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} --trace {trace}: result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{w} --trace {trace}: every metric with its unit")
            names[(w, trace)] = set(report["metrics"])
            if trace == 0:
                for m, where in REPORT_ONLY.items():
                    expect((m in report["metrics"]) == (w in where),
                           f"{w}: report-only {m} present iff it applies")
                expect(all(k in report["machine"] for k in ("nproc", "cpu", "python", "numpy", "scipy")),
                       f"{w}: report records the machine")
            expect(all("unit" in v and "n" in v for v in report["metrics"].values()),
                   f"{w} --trace {trace}: report gives unit and sample count")
    for trace in (0, 1):
        proc = bench("pricing", 2, trace)
        if proc.returncode == 0:
            expect(set(parse(proc)[0]["metrics"]) == names.get(("pricing", trace)),
                   f"pricing --trace {trace}: seed 2 gives the same metrics as seed 1")
        else:
            expect(False, f"pricing seed 2 --trace {trace}: exit 0")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("sim-long", 1, 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_inputs()
    check_bare_directory()
    check_metrics(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
