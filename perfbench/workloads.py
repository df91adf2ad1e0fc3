"""The workloads: seeded inputs, the operations they run and the
checks on each operation's output.

`make_inputs(workload, seed)` is pure input generation (it writes no file
and starts no process); `build_ops(workload, inputs, ctx)` turns the
inputs into a list of `Op`.  Every operation takes the tracer, so the same
op runs with tracing off (timed run) and on (traced run).

Every check returns None when the output is right, ("failed", msg) when
the operation failed (it raised, a CLI call crashed, a target was missed)
and ("wrong", msg) when it produced a demonstrably wrong value.  Both count
in `failed`; only "wrong" makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from mg1lab import (
    DDP,
    EDD,
    GFCFS,
    HOLPJ,
    PP,
    RP,
    CloudConfig,
    CustomerClassSpec,
    HpcConfig,
    JointPricingConfig,
    NetworkUtilityConfig,
    SegmentTarget,
    ServiceDistribution,
    SimConfig,
    SimEstimate,
    Strict,
    SystemModel,
    achieve_target,
    approx_utility_gfcfs,
    beta_from_p1,
    cloud_revenue_opt,
    cmu_rule_2class,
    ddp2_waits,
    ddp_waits,
    edd2_waits_from_integral,
    edd_config_from_ubar,
    estimate_busy_integral,
    expected_clearing_time,
    gfcfs_wait,
    hpc_revenue_constrained,
    hpc_utility_opt,
    joint_pricing_T1,
    minmax_fair_point,
    network_optimal_utility,
    pp2_waits_approx,
    pp_param_for_utility_approx,
    rp2_waits,
    rp_param_for_utility,
    rp_waits,
    run_sim,
    segment_point,
    strict_priority_waits_2class,
    wait_bounds,
)
from mg1lab.errors import InfeasibleError

WORKLOADS = ("sim-long", "target-search", "pricing", "cli-analytic", "cli-malformed")

#: sim-long: 5 replications of 16k measured + 4k warm-up jobs, 1e5 jobs a call
SIM_LONG_CFG = dict(measured_jobs=16_000, warmup_jobs=4_000, replications=5)
#: target-search oracle: short runs, few replications
ORACLE_CFG = dict(measured_jobs=8_000, warmup_jobs=2_000, replications=4)
#: target-search targets as (scheme, alpha, count): alpha bands where the
#: bisection in achieve_target mostly stops at its 2nd probe, or at its 3rd
#: or 4th (measured with the oracle above at rho 0.6).  Fixed counts per
#: band keep the oracle calls per pass steady across seeds; the 2-probe
#: bands hold the median operation.
TARGET_BANDS = (("edd", 0.30, 8), ("edd", 0.75, 8), ("pp", 0.20, 4), ("pp", 0.80, 4),
                ("edd", 0.10, 2), ("edd", 0.90, 2), ("pp", 0.95, 2))
TARGET_JITTER = 0.01
N_BUSY_INTEGRALS = 4
#: an estimate further than this many CI half-widths from the exact value fails
CI_MULTIPLE = 5.0
CLI_TIMESTAMP = "2000-01-01T00:00:00+00:00"

EXP1 = ServiceDistribution.exponential(1.0)
DET1 = ServiceDistribution.deterministic(1.0)


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[tuple[str, str]]]
    #: simulated service starts (warm-up included) behind the op's result
    jobs: Callable[[Any], int] = lambda _result: 0
    #: the work runs in a child process
    child: bool = False


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _sim_seed(rng) -> int:
    return int(rng.integers(1, 2**31))


def _model(lams, dist) -> SystemModel:
    return SystemModel([CustomerClassSpec(float(x), dist) for x in lams])


def _jobs(cfg: SimConfig) -> int:
    return cfg.replications * (cfg.measured_jobs + cfg.effective_warmup)


# ---------------------------------------------------------------------------
# input generation

def _sim_long_inputs(rng) -> list[dict]:
    rho = _u(rng, 0.78, 0.82)
    share = _u(rng, 0.45, 0.55)
    calls = []
    for dist_name, dist in (("exp", EXP1), ("h2", ServiceDistribution.hyperexp2(1.0, _u(rng, 3.5, 4.5)))):
        m = _model((rho * share, rho * (1.0 - share)), dist)
        b2 = _u(rng, 1.5, 2.5)
        p1 = _u(rng, 0.25, 0.35)
        d2 = _u(rng, 2.5, 3.5)
        discs = [
            ("gfcfs", GFCFS(), (gfcfs_wait(m),) * 2),
            ("strict", Strict((0, 1)), tuple(strict_priority_waits_2class(m, 0))),
            ("ddp", DDP((1.0, b2)), tuple(ddp_waits(m, (1.0, b2)))),
            ("edd", EDD((0.0, _u(rng, 1.5, 2.5))), None),
            ("rp", RP((p1, 1.0 - p1)), tuple(rp2_waits(m, p1))),
            ("holpj-jump", HOLPJ((1.0, d2), "jump"), None),
            ("holpj-order", HOLPJ((1.0, d2), "order"), None),
            ("pp", PP((_u(rng, 0.35, 0.45), 1.0)), None),
        ]
        for label, disc, exact in discs:
            calls.append(dict(label=label, n=2, dist=dist_name, model=m, disc=disc,
                              exact=exact, seed=_sim_seed(rng)))
    loads = rng.uniform(0.9, 1.1, 5)
    m5 = _model(rho * loads / loads.sum(), EXP1)
    b = tuple(float(x) for x in np.sort(rng.uniform(0.5, 5.0, 5)))
    p = tuple(float(x) for x in rng.uniform(0.5, 2.0, 5))
    deadlines = tuple(float(x) for x in np.cumsum(rng.uniform(0.8, 1.2, 5)))
    discs5 = [
        ("gfcfs", GFCFS(), (gfcfs_wait(m5),) * 5),
        ("strict", Strict(tuple(int(x) for x in rng.permutation(5))), None),
        ("ddp", DDP(b), tuple(ddp_waits(m5, b))),
        ("edd", EDD(tuple(float(x) for x in rng.uniform(0.0, 4.0, 5))), None),
        ("rp", RP(p), tuple(rp_waits(m5, p))),
        ("holpj-jump", HOLPJ(deadlines, "jump"), None),
        ("holpj-order", HOLPJ(deadlines, "order"), None),
    ]
    for label, disc, exact in discs5:
        calls.append(dict(label=label, n=5, dist="exp", model=m5, disc=disc,
                          exact=exact, seed=_sim_seed(rng)))
    return calls


def _target_search_inputs(rng) -> dict:
    rho = _u(rng, 0.58, 0.62)
    share = _u(rng, 0.45, 0.55)
    m = _model((rho * share, rho * (1.0 - share)), EXP1)
    targets = [dict(scheme=scheme, alpha=alpha + _u(rng, -TARGET_JITTER, TARGET_JITTER),
                    seed=_sim_seed(rng))
               for scheme, alpha, count in TARGET_BANDS for _ in range(count)]
    targets = [targets[i] for i in rng.permutation(len(targets))]
    scale = m.w0 / (1.0 - m.rho)
    integrals = [
        dict(ubar=float(rng.choice((-1.0, 1.0))) * _u(rng, 0.5, 2.0) * scale, seed=_sim_seed(rng))
        for _ in range(N_BUSY_INTEGRALS)
    ]
    return dict(model=m, targets=targets, integrals=integrals)


def _pricing_inputs(rng) -> list[dict]:
    def j(x, eps=0.01):
        return x * _u(rng, 1.0 - eps, 1.0 + eps)

    def hpc(constrained):
        cfg = HpcConfig(lambda_P=_u(rng, 0.2, 0.35), lambda_R=_u(rng, 0.25, 0.4),
                        service=EXP1, a=_u(rng, 8.0, 12.0), b=_u(rng, 0.5, 1.5),
                        w1=1.0, w2=_u(rng, 0.5, 2.0))
        if constrained:
            m = cfg.model()
            lo, hi = rp2_waits(m, 0.0)[1], rp2_waits(m, 1.0)[1]
            cfg = HpcConfig(**{**cfg.__dict__, "S_R": lo + _u(rng, 0.2, 0.8) * (hi - lo)})
        return cfg

    # 2 cloud problems, 4 joint, 2 delay-blind joint, 10 + 4 computing
    # service problems; hpc_utility_opt holds the median operation
    problems = [
        ("cloud_revenue_opt.c0", CloudConfig(mu=1.0, scv=1.0, a=(j(1.0), j(1.0)),
                                             b=(j(2.0), j(2.0)), c=(0.0, 0.0))),
        ("cloud_revenue_opt.cpos", CloudConfig(mu=1.0, scv=1.0, a=(j(0.8), j(0.8)),
                                               b=(j(1.5), j(1.5)), c=(0.2, 0.2), T=(5.0, 5.0))),
    ]
    problems += [("joint_pricing_T1", JointPricingConfig(j(0.3, 0.05), 1.0, 1.0, j(0.7, 0.05),
                                                         j(2.0, 0.05), 1.0, j(1.0, 0.05)))
                 for _ in range(4)]
    problems += [("joint_pricing_T1.blind", JointPricingConfig(j(0.3, 0.05), 1.0, 1.0, math.inf,
                                                               _u(rng, 0.6, 2.0), 1.0, 0.0))
                 for _ in range(2)]
    problems += [("hpc_utility_opt", hpc(False)) for _ in range(10)]
    problems += [("hpc_revenue_constrained", hpc(True)) for _ in range(4)]
    order = rng.permutation(len(problems))
    return [dict(solver=problems[i][0], cfg=problems[i][1]) for i in order]


def _cli_inputs(rng) -> dict:
    kinds = (EXP1, DET1, ServiceDistribution.erlang(1.0, 3),
             ServiceDistribution.hyperexp2(1.0, 2.0))
    dist = kinds[int(rng.integers(len(kinds)))]
    mean = _u(rng, 0.8, 1.2)
    dist = ServiceDistribution(dist.kind, mean, dist.scv)
    rho = _u(rng, 0.5, 0.8)
    share = _u(rng, 0.3, 0.7)
    m = _model((rho * share / mean, rho * (1.0 - share) / mean), dist)
    r1, r2 = m.rho_per_class

    p1, beta, omega = _u(rng, 0.1, 0.9), _u(rng, 0.2, 5.0), _u(rng, 0.2, 0.8)
    sign = ("neg", "nonneg")[int(rng.integers(2))]
    favoured = 1 if sign == "nonneg" else 0
    integral = _u(rng, 0.1, 0.9) * expected_clearing_time(m, favoured)
    first = int(rng.integers(2))
    c1, c2 = _u(rng, 0.5, 3.0), _u(rng, 0.5, 3.0)
    net = (_u(rng, 0.29, 0.31), _u(rng, 0.19, 0.21), _u(rng, 3.2, 3.4), _u(rng, 0.065, 0.075))
    net_model = _model(net[:2], DET1)
    net_cfg = NetworkUtilityConfig(net_model, net[2], net[3], 60.0, 60.0, 300.0, 120.0)
    table = ("table1", "table2")[int(rng.integers(2))]

    analyze = [
        (["--discipline", "gfcfs"], (gfcfs_wait(m),) * 2, True),
        (["--discipline", "strict", "--order", f"{first},{1 - first}"],
         tuple(strict_priority_waits_2class(m, first)), True),
        (["--discipline", "ddp", "--beta", repr(beta)], tuple(ddp2_waits(m, beta)), True),
        (["--discipline", "rp", "--p1", repr(p1)], tuple(rp2_waits(m, p1)), True),
        (["--discipline", "pp", "--omega1", repr(omega)], tuple(pp2_waits_approx(m, omega)), False),
        (["--discipline", "edd", "--integral", repr(integral), "--sign", sign],
         tuple(edd2_waits_from_integral(m, integral, sign)), True),
    ]
    (lo1, hi1), (lo2, hi2) = wait_bounds(m)
    fair = minmax_fair_point(m)
    return dict(
        model_doc={"model": m.to_json()},
        cmu_doc={"model": m.to_json(), "c1": c1, "c2": c2},
        net_doc={"model": net_model.to_json(), "d": net[2], "b": net[3],
                 "v1": 60.0, "v2": 60.0, "v3": 300.0, "v4": 120.0},
        analyze=analyze,
        map=(f"rp:{p1!r}", beta_from_p1(m.rho, p1)),
        region=(lo1, hi1, lo2, hi2),
        table=table,
        fairness=fair[2],
        cmu=cmu_rule_2class(m, c1, c2).objective,
        network=(network_optimal_utility(net_cfg).objective, approx_utility_gfcfs(net_cfg),
                 rp_param_for_utility(net_cfg).params["p1"],
                 pp_param_for_utility_approx(net_cfg).params["omega1"]),
        rhos=(r1, r2),
    )


def make_inputs(workload: str, seed: int):
    rng = _rng(workload, seed)
    return {
        "sim-long": _sim_long_inputs,
        "target-search": _target_search_inputs,
        "pricing": _pricing_inputs,
        "cli-analytic": _cli_inputs,
        "cli-malformed": _cli_inputs,
    }[workload](rng)


# ---------------------------------------------------------------------------
# operations

def _sim_long_ops(calls, ctx) -> list[Op]:
    ops = []
    for call in calls:
        cfg = SimConfig(seed=call["seed"], **SIM_LONG_CFG)

        def run(tr, call=call, cfg=cfg):
            with tr.span("sim.run_sim", disc=call["label"], n=call["n"], jobs=_jobs(cfg)):
                return run_sim(call["model"], call["disc"], cfg)

        def check(est, call=call):
            if call["exact"] is None:
                return None
            for c, (got, want, ci) in enumerate(zip(est.mean, call["exact"], est.ci_halfwidth_95)):
                if not abs(got - want) <= CI_MULTIPLE * ci + 1e-9:
                    return ("failed", f"{call['label']} n={call['n']} {call['dist']} class {c + 1}: "
                                      f"{got:.6g} vs exact {want:.6g}, CI {ci:.3g}")
            return None

        ops.append(Op("run_sim", run, check, jobs=lambda _r, n=_jobs(cfg): n))
    return ops


_LABELS = {GFCFS: "gfcfs", Strict: "strict", DDP: "ddp", EDD: "edd", RP: "rp", PP: "pp"}


def disc_label(disc) -> str:
    if isinstance(disc, HOLPJ):
        return "holpj-" + disc.dispatch
    return _LABELS[type(disc)]


def oracle(tr, m, cfg, make_disc):
    def probe(param):
        disc = make_disc(param)
        with tr.span("sim.run_sim", disc=disc_label(disc), n=2, jobs=_jobs(cfg)):
            est = run_sim(m, disc, cfg)
        return est.mean[0], est.ci_halfwidth_95[0]
    return probe


def target_op(m: SystemModel, t: dict) -> Op:
    """achieve_target for one target, with short run_sim calls as its oracle."""
    cfg = SimConfig(seed=t["seed"], **ORACLE_CFG)
    make_disc = (lambda u: edd_config_from_ubar(m, u)) if t["scheme"] == "edd" else (
        lambda w: PP((w, 1.0)))
    w1_star = segment_point(m, t["alpha"])[0]

    def run(tr):
        with tr.span("mappings.achieve_target", scheme=t["scheme"]) as attrs:
            got = achieve_target(m, SegmentTarget(alpha=t["alpha"]), t["scheme"],
                                 sim_oracle=oracle(tr, m, cfg, make_disc))
            d = got.diagnostics
            attrs["hit"] = abs(d["achieved_w1"] - w1_star) <= d["ci"]
        return got

    def check(got):
        d = got.diagnostics
        if abs(d["achieved_w1"] - w1_star) > d["ci"]:
            return ("failed", f"{t['scheme']} alpha={t['alpha']:.4f}: achieved "
                              f"{d['achieved_w1']:.6g} vs {w1_star:.6g} beyond CI {d['ci']:.3g}")
        return None

    return Op("achieve_target", run, check,
              jobs=lambda got, n=_jobs(cfg): n * got.diagnostics["oracle_calls"])


def _target_search_ops(inputs, ctx) -> list[Op]:
    m = inputs["model"]
    target_ops = [target_op(m, t) for t in inputs["targets"]]
    integral_ops = []
    for b in inputs["integrals"]:
        cfg = SimConfig(seed=b["seed"], **ORACLE_CFG)

        def run(tr, b=b, cfg=cfg):
            # estimate_busy_integral is one run_sim call, traced as one
            label = disc_label(edd_config_from_ubar(m, b["ubar"]))
            with tr.span("sim.run_sim", disc=label, n=2, jobs=_jobs(cfg)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return estimate_busy_integral(m, b["ubar"], cfg)

        def check(res, b=b):
            value, ci = res
            upper = expected_clearing_time(m, 1 if b["ubar"] >= 0 else 0)
            if not (0.0 <= value <= upper + CI_MULTIPLE * ci):
                return ("failed", f"busy integral {value:.6g} outside [0, {upper:.6g}] (CI {ci:.3g})")
            return None

        integral_ops.append(Op("estimate_busy_integral", run, check, jobs=lambda _r, n=_jobs(cfg): n))
    # one busy-integral estimate after every seventh target
    step = len(target_ops) // len(integral_ops)
    ops = []
    for k, op in enumerate(target_ops):
        ops.append(op)
        if (k + 1) % step == 0:
            ops.append(integral_ops[(k + 1) // step - 1])
    return ops


def _rp2_grid(l1, l2, s, s2, p):
    """Two-class RP waits on an array of p (independent of the library)."""
    r1, r2 = l1 * s, l2 * s
    rho = r1 + r2
    w0 = 0.5 * (l1 + l2) * s2
    p2 = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        den = (1.0 - r1 - p2 * r2) * (1.0 - r2 - p * r1) - p * p2 * r1 * r2
        w1 = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p) * w0 / den, np.inf)
        w2 = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p2) * w0 / den, np.inf)
    return w1, w2


def _joint_grid_max(cfg: JointPricingConfig, n=400) -> float:
    s = 1.0 / cfg.mu
    s2 = cfg.sigma2 + s * s
    ls = np.linspace(0.0, cfg.mu - cfg.lambda_p, n).reshape(-1, 1)
    p = np.linspace(0.0, 1.0, n).reshape(1, -1)
    w_pri, w_sec = _rp2_grid(cfg.lambda_p, ls, s, s2, p)
    with np.errstate(invalid="ignore"):
        obj = (cfg.a * ls - ls**2 - cfg.c * ls * np.where(ls > 0, w_sec, 0.0)) / cfg.b
    obj = np.where(np.isfinite(obj) & (w_pri <= cfg.S_p + 1e-12), obj, -np.inf)
    return float(obj.max())


def _cloud_grid_max(cfg: CloudConfig, p1: float, n=200, iters=400) -> float:
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    t1 = np.linspace(0.0, cfg.a[0] / cfg.b[0], n).reshape(-1, 1)
    t2 = np.linspace(0.0, cfg.a[1] / cfg.b[1], n).reshape(1, -1)
    base1 = np.broadcast_to(cfg.a[0] - cfg.b[0] * t1, (n, n))
    base2 = np.broadcast_to(cfg.a[1] - cfg.b[1] * t2, (n, n))
    cap1, cap2 = np.clip(base1, 0.0, None), np.clip(base2, 0.0, None)

    def step(L1, L2):
        w1, w2 = _rp2_grid(L1, L2, s, s2, p1)
        n1 = base1 if cfg.c[0] == 0.0 else np.where(np.isfinite(w1), base1 - cfg.c[0] * w1, 0.0)
        n2 = base2 if cfg.c[1] == 0.0 else np.where(np.isfinite(w2), base2 - cfg.c[1] * w2, 0.0)
        return np.clip(n1, 0.0, cap1), np.clip(n2, 0.0, cap2)

    L1, L2 = np.minimum(cap1, 0.45 * cfg.mu), np.minimum(cap2, 0.45 * cfg.mu)
    for _ in range(iters):
        n1, n2 = step(L1, L2)
        L1, L2 = 0.5 * (L1 + n1), 0.5 * (L2 + n2)
    n1, n2 = step(L1, L2)
    ok = np.maximum(np.abs(n1 - L1), np.abs(n2 - L2)) < 1e-6
    w1, w2 = _rp2_grid(L1, L2, s, s2, p1)
    ok &= ~((L1 > 0) & (w1 > cfg.T[0] + 1e-9)) & ~((L2 > 0) & (w2 > cfg.T[1] + 1e-9))
    return float(np.where(ok, t1 * L1 + t2 * L2, -np.inf).max())


def _hpc_grid(cfg: HpcConfig, n=20_001):
    s, s2 = cfg.service.mean, cfg.service.second_moment
    p = np.linspace(0.0, 1.0, n)
    w_p, w_r = _rp2_grid(cfg.lambda_P, cfg.lambda_R, s, s2, p)
    return p, w_p, w_r


def _pricing_check(solver: str, cfg, sol) -> Optional[tuple[str, str]]:
    obj = sol.objective
    tol = 1e-6 * max(1.0, abs(obj))
    if solver == "cloud_revenue_opt.c0":
        want = sum(a * a / (4.0 * b) for a, b in zip(cfg.a, cfg.b))
        ok = abs(obj - want) <= 1e-8 * max(1.0, want)
    elif solver == "cloud_revenue_opt.cpos":
        want = _cloud_grid_max(cfg, sol.params["p1"])
        ok = obj >= want - tol
    elif solver == "joint_pricing_T1.blind":
        ls = min(max(cfg.a / 2.0, 0.0), cfg.mu - cfg.lambda_p)
        want = (cfg.a * ls - ls * ls) / cfg.b
        ok = abs(obj - want) <= 1e-9 * max(1.0, abs(want))
    elif solver == "joint_pricing_T1":
        want = _joint_grid_max(cfg)
        ok = obj >= want - tol
    elif solver == "hpc_utility_opt":
        _, w_p, w_r = _hpc_grid(cfg)
        want = float(np.max(cfg.w1 * (cfg.a - cfg.b * w_p) * cfg.lambda_P - cfg.w2 * w_r))
        ok = obj >= want - tol
    else:  # hpc_revenue_constrained
        _, w_p, w_r = _hpc_grid(cfg)
        feasible = w_r <= cfg.S_R + 1e-12
        want = float(np.max(np.where(feasible, (cfg.a - cfg.b * w_p) * cfg.lambda_P, -np.inf)))
        ok = obj >= want - tol and sol.diagnostics["W_R"] <= cfg.S_R + 1e-9
    if not ok:
        return ("wrong", f"{solver}: objective {obj!r} vs certificate {want!r}")
    return None


_SOLVERS = {
    "cloud_revenue_opt.c0": cloud_revenue_opt,
    "cloud_revenue_opt.cpos": cloud_revenue_opt,
    "joint_pricing_T1": joint_pricing_T1,
    "joint_pricing_T1.blind": joint_pricing_T1,
    "hpc_utility_opt": hpc_utility_opt,
    "hpc_revenue_constrained": hpc_revenue_constrained,
}


def solve(tr, solver: str, cfg):
    """One control solve at default arguments, under a control.<solver> span."""
    fn = _SOLVERS[solver]
    with tr.span("control." + solver.replace(".blind", "")) as attrs:
        try:
            return fn(cfg)
        except InfeasibleError:
            attrs["infeasible"] = True
            raise


def _pricing_ops(problems, ctx) -> list[Op]:
    ops = [Op(pr["solver"],
              lambda tr, pr=pr: solve(tr, pr["solver"], pr["cfg"]),
              lambda sol, pr=pr: _pricing_check(pr["solver"], pr["cfg"], sol))
           for pr in problems]
    cloud = [op for op in ops if op.kind.startswith("cloud")]
    short = [op for op in ops if not op.kind.startswith("cloud")]
    # The millisecond solves run five times a pass, around the two cloud
    # solves, so each is timed several times across the pass.
    return [*short, cloud[0], *short, *short, cloud[1], *short, *short]


def cli(tr, ctx, argv: list[str], span: str) -> subprocess.CompletedProcess:
    """One fresh `python -m mg1lab.cli` process run from the checkout's src."""
    with tr.span(span, argv=" ".join(argv)):
        return subprocess.run(
            [sys.executable, "-m", "mg1lab.cli", *argv],
            cwd=ctx["root"], env=ctx["env"], capture_output=True, text=True, timeout=120,
        )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _cli_check(proc, expect) -> Optional[tuple[str, str]]:
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return ("failed", f"exit {proc.returncode}: {tail[0]}")
    try:
        return expect(json.loads(proc.stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ("wrong", f"unreadable output: {exc!r}")


def _write_docs(inp, ctx) -> dict[str, str]:
    files = {}
    for name in ("model_doc", "cmu_doc", "net_doc"):
        files[name] = os.path.join(ctx["work"], name + ".json")
        with open(files[name], "w") as fh:
            json.dump(inp[name], fh)
    return files


def _cli_ops(inp, ctx) -> list[Op]:
    files = _write_docs(inp, ctx)
    common = ["--timestamp", CLI_TIMESTAMP]
    model = ["--config", files["model_doc"]]

    def op(cmd, argv, expect, span=None):
        span = span or "cli." + cmd
        return Op(span, lambda tr: cli(tr, ctx, [cmd, *argv, *common], span),
                  lambda proc: _cli_check(proc, expect), child=True)

    def waits_expect(want, exact):
        def expect(doc):
            if not all(_close(g, w) for g, w in zip(doc["waits"], want)) or len(doc["waits"]) != 2:
                return ("wrong", f"waits {doc['waits']} vs {list(want)}")
            if exact and abs(doc["conservation_residual"]) > 1e-10:
                return ("wrong", f"conservation residual {doc['conservation_residual']:.3g}")
            return None
        return expect

    def value_expect(get, want):
        def expect(doc):
            got = get(doc)
            if not all(_close(g, w) for g, w in zip(got, want)):
                return ("wrong", f"{got} vs {want}")
            return None
        return expect

    ops = [op("analyze", [*model, *argv], waits_expect(want, exact))
           for argv, want, exact in inp["analyze"]]
    src, beta = inp["map"]
    ops.append(op("map", [*model, "--from", src, "--to", "ddp"],
                  value_expect(lambda d: [d["to"]["value"]], [beta])))
    ops.append(op("region", [*model, "--points", "11"],
                  value_expect(lambda d: d["w1_bounds"] + d["w2_bounds"], inp["region"])))
    ops.append(op("tables", [inp["table"], "--check"],
                  value_expect(lambda d: [len(d["rows"])], [9 if inp["table"] == "table1" else 5])))
    ops.append(op("optimize", ["fairness", *model],
                  value_expect(lambda d: [d["solution"]["wait"]], [inp["fairness"]])))
    ops.append(op("optimize", ["cmu", "--config", files["cmu_doc"]],
                  value_expect(lambda d: [d["solution"]["objective"]], [inp["cmu"]])))
    ops.append(op("optimize", ["network", "--config", files["net_doc"]],
                  value_expect(lambda d: [d["solution"][k] for k in
                                          ("utility_opt", "utility_gfcfs", "p_rp", "omega_pp")],
                               inp["network"])))
    return ops


def _malformed_ops(inp, ctx) -> list[Op]:
    """CLI calls that should exit with a documented code (2 or 4) and no
    traceback; in the code this benchmark was written against they exit 1
    with one, so this workload reports its failures and is not gated."""
    model = ["--config", _write_docs(inp, ctx)["model_doc"]]
    malformed = [
        ["--discipline", "ddp"],
        ["--discipline", "rp"],
        ["--discipline", "pp"],
        ["--discipline", "edd"],
        ["--discipline", "rp", "--p", "1,x"],
    ]
    ops = []
    for argv in malformed:
        def run(tr, argv=argv):
            return cli(tr, ctx, ["analyze", *model, *argv, "--timestamp", CLI_TIMESTAMP],
                       "cli.malformed")

        def check(proc, argv=argv):
            if proc.returncode in (2, 4) and "Traceback" not in proc.stderr:
                return None
            return ("failed", f"analyze {' '.join(argv)}: exit {proc.returncode}"
                              f"{' with a traceback' if 'Traceback' in proc.stderr else ''}")
        ops.append(Op("cli.malformed", run, check, child=True))
    return ops


def build_ops(workload: str, inputs, ctx) -> list[Op]:
    return {
        "sim-long": _sim_long_ops,
        "target-search": _target_search_ops,
        "pricing": _pricing_ops,
        "cli-analytic": _cli_ops,
        "cli-malformed": _malformed_ops,
    }[workload](inputs, ctx)


def fingerprint(result) -> str:
    """Exact text form of an operation's output, for determinism checks."""
    if isinstance(result, SimEstimate):
        return repr((result.mean, result.ci_halfwidth_95, result.sample_count))
    if isinstance(result, subprocess.CompletedProcess):
        return repr((result.returncode, result.stdout))
    if hasattr(result, "to_json"):
        return result.to_json()
    return repr(result)

