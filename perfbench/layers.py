"""Per-layer metrics of the traced run.

The traced run records spans around the workload's calls, then runs the
layer sweep below: a fixed, seeded set of calls into every module's
public functions, so that every per-layer metric has spans to come from on
every workload.  A metric comes from the workload's spans when the
workload traced any of its name, and from the sweep's otherwise; the
sweep skips the calls whose spans the workload already has.  Counts are
per pass (the sweep counts as one pass).
"""

from __future__ import annotations

import glob
import os
import statistics
import subprocess
import sys

import numpy as np

from mg1lab import (
    DDP,
    EDD,
    GFCFS,
    HOLPJ,
    PP,
    RP,
    CustomerClassSpec,
    ServiceDistribution,
    SimConfig,
    Strict,
    SystemModel,
    WaitVector,
    beta_from_p1,
    conservation_residual,
    ddp2_waits,
    ddp_waits,
    edd2_waits_from_integral,
    expected_clearing_time,
    gfcfs_wait,
    integral_from_beta,
    p1_from_alpha,
    pp2_waits_approx,
    rp2_waits,
    rp_waits,
    run_sim,
    segment_point,
    tables,
)

import workloads

SIM_DISCS = ("gfcfs", "strict", "ddp", "edd", "rp", "holpj-jump", "holpj-order", "pp")
SOLVERS = ("cloud_revenue_opt.c0", "cloud_revenue_opt.cpos", "joint_pricing_T1",
           "hpc_utility_opt", "hpc_revenue_constrained")
CLI_CMDS = ("analyze", "simulate", "map", "region", "tables", "optimize")
MICRO = {
    "mappings": ("beta_from_p1", "integral_from_beta", "p1_from_alpha"),
    "analytic": ("rp2_waits", "ddp2_waits", "rp_waits.n5", "ddp_waits.n5",
                 "pp2_waits_approx", "edd2_waits_from_integral"),
    "core": ("model_build", "conservation_residual", "segment_point"),
}
#: jobs in one sweep run_sim per discipline (1 replication, no warm-up)
SWEEP_JOBS = 20_000
MICRO_CALLS = 200
MICRO_BATCHES = 5
MIN_CALL_REPEATS = 30
IMPORT_REPEATS = 3


# ---------------------------------------------------------------------------
# the sweep

def _models(rng):
    rho = float(rng.uniform(0.58, 0.62))
    share = float(rng.uniform(0.45, 0.55))
    exp1 = ServiceDistribution.exponential(1.0)
    m2 = SystemModel([CustomerClassSpec(rho * share, exp1), CustomerClassSpec(rho * (1 - share), exp1)])
    m5 = SystemModel([CustomerClassSpec(rho / 5, exp1)] * 5)
    return m2, m5, exp1


def _sim_sweep(tr, rng, m2, m5):
    discs2 = {
        "gfcfs": GFCFS(), "strict": Strict((0, 1)), "ddp": DDP((1.0, 2.0)), "edd": EDD((0.0, 2.0)),
        "rp": RP((0.3, 0.7)), "holpj-jump": HOLPJ((1.0, 3.0), "jump"),
        "holpj-order": HOLPJ((1.0, 3.0), "order"), "pp": PP((0.4, 1.0)),
    }
    d5 = (1.0, 2.0, 3.0, 4.0, 5.0)
    discs5 = {
        "gfcfs": GFCFS(), "strict": Strict((0, 1, 2, 3, 4)), "ddp": DDP(d5), "edd": EDD((0.0, 1.0, 2.0, 3.0, 4.0)),
        "rp": RP(d5), "holpj-jump": HOLPJ(d5, "jump"), "holpj-order": HOLPJ(d5, "order"),
    }
    traced = {(x["attrs"]["disc"], x["attrs"]["n"]) for x in tr.named("sim.run_sim", "workload")}
    for n, m, discs in ((2, m2, discs2), (5, m5, discs5)):
        for label, disc in discs.items():
            if (label, n) in traced:
                continue
            cfg = SimConfig(seed=int(rng.integers(1, 2**31)), measured_jobs=SWEEP_JOBS,
                            warmup_jobs=0, replications=1)
            with tr.span("sim.run_sim", disc=label, n=n, jobs=SWEEP_JOBS):
                run_sim(m, disc, cfg)
    cfg = SimConfig(seed=int(rng.integers(1, 2**31)), measured_jobs=1000, warmup_jobs=0, replications=1)
    for _ in range(MIN_CALL_REPEATS):
        with tr.span("sim.min_call"):
            run_sim(m2, GFCFS(), cfg)

    # one simulated target per scheme, through the same oracle as target-search
    if tr.named("mappings.achieve_target", "workload"):
        return
    for scheme in ("edd", "pp"):
        alpha = next(a for sch, a, _ in workloads.TARGET_BANDS if sch == scheme)
        workloads.target_op(m2, dict(scheme=scheme, alpha=alpha,
                                     seed=int(rng.integers(1, 2**31)))).run(tr)


def _micro_sweep(tr, rng, m2, m5, exp1):
    k = MICRO_CALLS
    rho = m2.rho
    xs = rng.uniform(0.05, 0.95, k)
    lams = rng.uniform(0.2, 0.3, (k, 2))
    wv = WaitVector((gfcfs_wait(m2),) * 2)
    b5 = [tuple(rng.uniform(0.5, 5.0, 5)) for _ in range(k)]
    top = expected_clearing_time(m2, 1)
    calls = {
        "mappings.beta_from_p1": lambda: [beta_from_p1(rho, x) for x in xs],
        "mappings.integral_from_beta": lambda: [integral_from_beta(m2, 4.0 * x) for x in xs],
        "mappings.p1_from_alpha": lambda: [p1_from_alpha(m2, x) for x in xs],
        "analytic.rp2_waits": lambda: [rp2_waits(m2, x) for x in xs],
        "analytic.ddp2_waits": lambda: [ddp2_waits(m2, 4.0 * x) for x in xs],
        "analytic.rp_waits.n5": lambda: [rp_waits(m5, b) for b in b5],
        "analytic.ddp_waits.n5": lambda: [ddp_waits(m5, b) for b in b5],
        "analytic.pp2_waits_approx": lambda: [pp2_waits_approx(m2, x) for x in xs],
        "analytic.edd2_waits_from_integral": lambda: [
            edd2_waits_from_integral(m2, x * top, "nonneg") for x in xs],
        "core.model_build": lambda: [
            SystemModel((CustomerClassSpec(a, exp1), CustomerClassSpec(b, exp1))) for a, b in lams],
        "core.conservation_residual": lambda: [conservation_residual(m2, wv) for _ in xs],
        "core.segment_point": lambda: [segment_point(m2, x) for x in xs],
    }
    for name, fn in calls.items():
        for _ in range(MICRO_BATCHES):
            with tr.span(name, count=k):
                fn()


def _control_sweep(tr, rng):
    # one problem per solver, drawn as the pricing workload draws them
    seen = set()
    for pr in workloads.make_inputs("pricing", int(rng.integers(1, 2**31))):
        if (pr["solver"] in seen or pr["solver"].endswith(".blind")
                or tr.named("control." + pr["solver"], "workload")):
            continue
        seen.add(pr["solver"])
        workloads.solve(tr, pr["solver"], pr["cfg"])


def _tables_sweep(tr):
    for t in ("table1", "table2"):
        for _ in range(5):
            with tr.span(f"tables.check.{t}"):
                problems = tables.check_table(t)
            if problems:
                raise RuntimeError(f"{t} check failed: {problems[:1]}")


def _cli_sweep(tr, rng, ctx):
    inp = workloads.make_inputs("cli-analytic", int(rng.integers(1, 2**31)))
    cmds = {}
    for op in workloads.build_ops("cli-analytic", inp, ctx):
        cmds.setdefault(op.kind, op)
    for c in CLI_CMDS:
        if tr.named("cli." + c, "workload"):
            continue
        if c == "simulate":
            model = os.path.join(ctx["work"], "model_doc.json")
            workloads.cli(tr, ctx, ["simulate", "--config", model, "--discipline", "rp", "--p1", "0.3",
                                    "--jobs", "1000", "--warmup", "0", "--replications", "2"],
                          "cli.simulate")
        else:
            cmds["cli." + c].run(tr)


def _import_times(ctx) -> tuple[float, float]:
    """(mg1lab, scipy) import time in ms from `python -X importtime`."""
    totals, scipy_self = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mg1lab"],
                              cwd=ctx["root"], env=ctx["env"], capture_output=True, text=True,
                              timeout=120, check=True)
        mg1 = scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cum_us = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name == "mg1lab":
                mg1 = cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += self_us
        totals.append(mg1 / 1e3)
        scipy_self.append(scipy_us / 1e3)
    return statistics.median(totals), statistics.median(scipy_self)


def src_lines(root: str) -> int:
    n = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            n += sum(1 for _ in fh)
    return n


def run_sweep(tr, seed: int, ctx) -> tuple[float, float]:
    tr.phase = "sweep"
    rng = np.random.default_rng([seed, 99])
    m2, m5, exp1 = _models(rng)
    _sim_sweep(tr, rng, m2, m5)
    _micro_sweep(tr, rng, m2, m5, exp1)
    _control_sweep(tr, rng)
    _tables_sweep(tr)
    _cli_sweep(tr, rng, ctx)
    return _import_times(ctx)


# ---------------------------------------------------------------------------
# metrics from spans

def _dur(s) -> float:
    return s["end"] - s["start"]


def _median_ms(spans) -> tuple[float, int]:
    return statistics.median(_dur(s) for s in spans) * 1e3, len(spans)


def per_layer_metrics(tr, passes: int, import_ms: tuple[float, float], root: str,
                      overhead_pct: tuple[float, int]) -> dict[str, tuple[float, int]]:
    """Every per-layer metric as (value, number of samples behind it).

    `passes` is the number of traced workload passes; counts are per pass.
    """
    def scoped(name, keep=lambda s: True):
        """(spans, passes): the workload's spans of `name`, else the sweep's."""
        spans = [s for s in tr.named(name, "workload") if keep(s)]
        if spans:
            return spans, passes
        return [s for s in tr.named(name, "sweep") if keep(s)], 1

    out: dict[str, tuple[float, int]] = {}
    for n, discs in ((2, SIM_DISCS), (5, SIM_DISCS[:-1])):
        for d in discs:
            mine, _ = scoped("sim.run_sim", lambda s: s["attrs"]["disc"] == d and s["attrs"]["n"] == n)
            jobs = sum(s["attrs"]["jobs"] for s in mine)
            out[f"sim.kjobs_per_s.{d}.n{n}"] = (jobs / sum(_dur(s) for s in mine) / 1e3, len(mine))
    sims, k = scoped("sim.run_sim")
    out["sim.run_sim.calls"] = (len(sims) / k, len(sims))
    out["sim.run_sim.busy_s"] = (sum(_dur(s) for s in sims) / k, len(sims))
    out["sim.min_call_ms"] = _median_ms(tr.named("sim.min_call"))

    targets, _ = scoped("mappings.achieve_target")
    oracle = [[c for c in tr.children(t) if c["name"] == "sim.run_sim"] for t in targets]
    k = len(targets)
    out["mappings.achieve_target.self_ms"] = (statistics.median(tr.self_time(t) for t in targets) * 1e3, k)
    out["mappings.oracle_calls_per_target"] = (statistics.fmean(len(o) for o in oracle), k)
    out["mappings.sim_jobs_per_target"] = (
        statistics.fmean(sum(c["attrs"]["jobs"] for c in o) for o in oracle), k)
    out["mappings.hit_ratio"] = (sum(bool(t["attrs"].get("hit")) for t in targets) / k, k)

    for layer, fns in MICRO.items():
        for fn in fns:
            spans = tr.named(f"{layer}.{fn}")
            out[f"{layer}.{fn}.us"] = (
                statistics.median(_dur(s) / s["attrs"]["count"] for s in spans) * 1e6, len(spans))

    solves, solve_passes = [], 1
    for s in SOLVERS:
        spans, k = scoped(f"control.{s}")
        solves += spans
        solve_passes = max(solve_passes, k)
        out[f"control.{s}.ms"] = _median_ms(spans)
    out["control.solves"] = (len(solves) / solve_passes, len(solves))
    out["control.infeasible"] = (
        sum(bool(s["attrs"].get("infeasible")) for s in solves) / solve_passes, len(solves))

    for t in ("table1", "table2"):
        out[f"tables.check.{t}.ms"] = _median_ms(tr.named(f"tables.check.{t}"))
    for c in CLI_CMDS:
        out[f"cli.{c}.ms"] = _median_ms(scoped(f"cli.{c}")[0])
    out["cli.import_ms"] = (import_ms[0], IMPORT_REPEATS)
    out["cli.import_ms.scipy"] = (import_ms[1], IMPORT_REPEATS)
    out["repo.src_lines"] = (src_lines(root), 1)
    out["trace.overhead_pct"] = overhead_pct
    return out
