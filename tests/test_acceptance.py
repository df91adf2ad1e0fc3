"""Acceptance gate: ten end-to-end criteria with stated tolerances.

Each test prints one PASS line on success; expected values are either
embedded benchmark cells, independently derived closed forms, or dense
certification grids computed inside the test."""

import math
import time

import numpy as np
import pytest

from mg1lab import (
    DDP,
    EDD,
    GFCFS,
    HOLPJ,
    PP,
    RP,
    CloudConfig,
    CustomerClassSpec,
    JointPricingConfig,
    SegmentTarget,
    ServiceDistribution,
    SimConfig,
    Strict,
    SystemModel,
    WaitVector,
    achieve_target,
    beta_from_integral,
    beta_from_p1,
    cloud_revenue_opt,
    cmu_rule_2class,
    conservation_residual,
    ddp_waits,
    ddp2_waits,
    edd_config_from_ubar,
    gfcfs_wait,
    integral_from_beta,
    joint_pricing_T1,
    minmax_fair_point,
    p1_from_beta,
    rp2_waits,
    run_sim,
    segment_point,
    service_start_sequence,
    strict_priority_waits_2class,
)
from mg1lab.tables import (
    TABLE1_EXPECTED,
    TABLE1_TOL,
    TABLE2_EXPECTED,
    TABLE2_TOL,
    compute_table1,
    compute_table2,
)

from holpj_reference import queue_jump_selector

EXP1 = ServiceDistribution.exponential(1.0)
DET1 = ServiceDistribution.deterministic(1.0)


def model2(l1, l2, dist):
    return SystemModel((CustomerClassSpec(l1, dist), CustomerClassSpec(l2, dist)))


def random_stable_models(n, seed, rho_max=0.9):
    rng = np.random.default_rng(seed)
    makers = (
        lambda m: ServiceDistribution.deterministic(m),
        lambda m: ServiceDistribution.exponential(m),
        lambda m: ServiceDistribution.erlang(m, int(rng.integers(2, 6))),
        lambda m: ServiceDistribution.hyperexp2(m, rng.uniform(1.2, 4.0)),
    )
    out = []
    for _ in range(n):
        d1 = makers[rng.integers(4)](rng.uniform(0.3, 1.5))
        d2 = makers[rng.integers(4)](rng.uniform(0.3, 1.5))
        r1 = rng.uniform(0.03, rho_max - 0.03)
        r2 = rng.uniform(0.02, rho_max - r1)
        out.append(SystemModel((
            CustomerClassSpec(r1 / d1.mean, d1),
            CustomerClassSpec(r2 / d2.mean, d2),
        )))
    return out


def _report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_01_table1_reproduction():
    t0 = time.time()
    for i, (got, want) in enumerate(zip(compute_table1(), TABLE1_EXPECTED)):
        for g, w in zip(got, want):
            assert abs(g - w) <= TABLE1_TOL, f"row {i + 1}: {got} vs {want}"
    assert time.time() - t0 < 1.0
    _report(1, "table 1, 9 rows x 5 cells, 5e-4")


def test_02_table2_reproduction():
    t0 = time.time()
    for i, (got, want) in enumerate(zip(compute_table2(), TABLE2_EXPECTED)):
        for g, w, tol in zip(got, want, TABLE2_TOL):
            assert abs(g - w) <= tol, f"row {i + 1}: {got} vs {want}"
    assert time.time() - t0 < 1.0
    _report(2, "table 2, 5 rows, 5e-3 / 5e-2 / 5e-2")


def test_03_conservation_suite():
    t0 = time.time()
    betas = np.logspace(-2, 2, 9)
    ps = np.linspace(0.05, 0.95, 9)
    for m in random_stable_models(200, seed=11):
        vectors = [
            strict_priority_waits_2class(m, 0),
            strict_priority_waits_2class(m, 1),
            WaitVector((gfcfs_wait(m), gfcfs_wait(m))),
        ]
        vectors += [ddp2_waits(m, b) for b in betas]
        vectors += [rp2_waits(m, p) for p in ps]
        for w in vectors:
            assert abs(conservation_residual(m, w)) < 1e-10
    assert time.time() - t0 < 5.0
    _report(3, "200 models x 21 analytic vectors, residual < 1e-10")


def test_04_equivalence_suite():
    for m in random_stable_models(50, seed=13):
        rho = m.rho
        for p1 in np.linspace(0.0, 1.0, 100):
            wa = ddp2_waits(m, beta_from_p1(rho, p1))
            wb = rp2_waits(m, p1)
            assert abs(wa[0] - wb[0]) < 1e-10
            assert abs(wa[1] - wb[1]) < 1e-10
            assert abs(p1_from_beta(rho, beta_from_p1(rho, p1)) - p1) < 1e-12
        for beta in (0.0, 0.2, 0.7, 1.0, 1.8, 9.0):
            iv, branch = integral_from_beta(m, beta)
            back = beta_from_integral(m, iv, branch)
            assert abs(back - beta) < 1e-12 * max(1.0, beta)
    _report(4, "parameter equivalences 1e-10, round trips 1e-12")


def test_05_simulation_vs_analytic():
    t0 = time.time()
    m_exp = model2(0.25, 0.25, EXP1)
    m_det = model2(0.25, 0.25, DET1)
    disciplines = [
        ("gfcfs", GFCFS(), lambda m: (gfcfs_wait(m), gfcfs_wait(m))),
        ("strict12", Strict((0, 1)), lambda m: tuple(strict_priority_waits_2class(m, 0))),
        ("strict21", Strict((1, 0)), lambda m: tuple(strict_priority_waits_2class(m, 1))),
        ("rp.25", RP((0.25, 0.75)), lambda m: tuple(rp2_waits(m, 0.25))),
        ("rp.50", RP((0.5, 0.5)), lambda m: tuple(rp2_waits(m, 0.5))),
        ("rp.75", RP((0.75, 0.25)), lambda m: tuple(rp2_waits(m, 0.75))),
        ("ddp.5", DDP((1.0, 0.5)), lambda m: tuple(ddp2_waits(m, 0.5))),
        ("ddp2", DDP((1.0, 2.0)), lambda m: tuple(ddp2_waits(m, 2.0))),
    ]
    cfg = SimConfig(seed=20260826, measured_jobs=100_000, replications=10)
    total = 0
    covered = 0
    for name, disc, oracle in disciplines:
        hits = 0
        for m in (m_exp, m_det):
            est = run_sim(m, disc, cfg)
            want = oracle(m)
            for c in range(2):
                total += 1
                if abs(est.mean[c] - want[c]) <= est.ci_halfwidth_95[c]:
                    hits += 1
        covered += hits
        assert hits >= 2, f"{name}: only {hits}/4 cells covered"
    elapsed = time.time() - t0
    assert covered >= math.ceil(0.8 * total), f"coverage {covered}/{total}"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s"
    _report(5, f"CI coverage {covered}/{total} cells in {elapsed:.0f}s")


def test_06_mechanism_equivalence():
    m = model2(0.25, 0.25, EXP1)
    with queue_jump_selector():
        a = service_start_sequence(m, HOLPJ((1.0, 3.0), "order"), 10_000, 404)
    b = service_start_sequence(m, HOLPJ((1.0, 3.0), "order"), 10_000, 404)
    assert a == b
    for om, order in ((1.0, (0, 1)), (0.0, (1, 0))):
        x = service_start_sequence(m, PP((om, 1.0)), 10_000, 404)
        y = service_start_sequence(m, Strict(order), 10_000, 404)
        assert x == y
    _report(6, "HOL-PJ queue-jump reference == ordering rule; PP endpoints == strict, 1e4 jobs")


def test_07_completeness_sweep():
    m = model2(0.25, 0.25, EXP1)
    cfg = SimConfig(seed=909, measured_jobs=60_000, replications=8)
    lo1 = strict_priority_waits_2class(m, 0)[0]
    hi1 = strict_priority_waits_2class(m, 1)[0]

    ubars = [-math.inf, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, math.inf]
    means, cis = [], []
    for u in ubars:
        est = run_sim(m, edd_config_from_ubar(m, u), cfg)
        means.append(est.mean[0])
        cis.append(est.ci_halfwidth_95[0])
    # spans the segment: the infinite endpoints cover the strict waits
    assert abs(means[0] - lo1) <= 3 * cis[0] + 0.01
    assert abs(means[-1] - hi1) <= 3 * cis[-1] + 0.01
    # monotone within CIs
    for a, b, ca, cb in zip(means, means[1:], cis, cis[1:]):
        assert b >= a - (ca + cb)

    def oracle(ubar):
        est = run_sim(m, edd_config_from_ubar(m, ubar), cfg)
        return est.mean[0], est.ci_halfwidth_95[0]

    calls_used = []
    for alpha in (0.15, 0.3, 0.5, 0.7, 0.85):
        got = achieve_target(m, SegmentTarget(alpha=alpha), "edd", sim_oracle=oracle)
        w1_star = segment_point(m, alpha)[0]
        assert abs(got.diagnostics["achieved_w1"] - w1_star) <= got.diagnostics["ci"]
        assert got.diagnostics["oracle_calls"] <= 20
        calls_used.append(got.diagnostics["oracle_calls"])
    _report(7, f"sweep monotone and spanning; targets hit in {calls_used} oracle calls")


def test_08_cost_ratio_rule():
    rng = np.random.default_rng(21)
    ps = np.linspace(0.0, 1.0, 1000)
    for m in random_stable_models(100, seed=22):
        c1, c2 = rng.uniform(0.1, 5.0, 2)
        sol = cmu_rule_2class(m, c1, c2)
        grid = [c1 * rp2_waits(m, p)[0] + c2 * rp2_waits(m, p)[1] for p in ps]
        assert sol.objective <= min(grid) + 1e-10
    # engineered tie: equal cost-to-load ratios flatten the objective
    m = model2(0.3, 0.2, EXP1)
    r1, r2 = m.rho_per_class
    sol = cmu_rule_2class(m, 1.0, r2 / r1)
    assert sol.case == "tie"
    grid = [1.0 * rp2_waits(m, p)[0] + (r2 / r1) * rp2_waits(m, p)[1] for p in ps]
    assert max(grid) - min(grid) < 1e-10
    _report(8, "100 random cost pairs dominate 1e3-point grids; tie flat")


def test_09_minmax_fairness():
    alphas = np.linspace(0.0, 1.0, 1000)
    for m in random_stable_models(50, seed=23):
        a1, a2, w = minmax_fair_point(m)
        assert abs(w - gfcfs_wait(m)) < 1e-10
        point = segment_point(m, a1)
        assert abs(point[0] - point[1]) < 1e-10
        maxes = [max(segment_point(m, a)) for a in alphas]
        best_idx = int(np.argmin(maxes))
        assert abs(alphas[best_idx] - a1) <= alphas[1] - alphas[0] + 1e-12
        assert min(maxes) >= w - 1e-10
    _report(9, "50 models: equalized at W0/(1-rho), grid argmin at alpha1")


def _pricing_grid_max(cfg: JointPricingConfig, n=500):
    s = 1.0 / cfg.mu
    s2 = cfg.sigma2 + s * s
    ls = np.linspace(0.0, cfg.mu - cfg.lambda_p, n).reshape(-1, 1)
    p = np.linspace(0.0, 1.0, n).reshape(1, -1)
    r1 = cfg.lambda_p * s
    r2 = ls * s
    rho = r1 + r2
    w0 = 0.5 * (cfg.lambda_p + ls) * s2
    p2 = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        den = (1.0 - r1 - p2 * r2) * (1.0 - r2 - p * r1) - p * p2 * r1 * r2
        w_pri = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p) * w0 / den, np.inf)
        w_sec = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p2) * w0 / den, np.inf)
    obj = (cfg.a * ls - ls**2 - cfg.c * ls * np.where(ls > 0, w_sec, 0.0)) / cfg.b
    obj = np.where(np.isfinite(obj), obj, -np.inf)
    obj = np.where(w_pri <= cfg.S_p + 1e-12, obj, -np.inf)
    return float(obj.max())


def _cloud_grid_max(cfg: CloudConfig, p1, n=500, iters=400):
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    t1 = np.linspace(0.0, cfg.a[0] / cfg.b[0], n).reshape(-1, 1)
    t2 = np.linspace(0.0, cfg.a[1] / cfg.b[1], n).reshape(1, -1)
    base1 = np.broadcast_to(cfg.a[0] - cfg.b[0] * t1, (n, n))
    base2 = np.broadcast_to(cfg.a[1] - cfg.b[1] * t2, (n, n))
    cap1 = np.clip(base1, 0.0, None)
    cap2 = np.clip(base2, 0.0, None)
    L1 = np.minimum(cap1, 0.45 * cfg.mu)
    L2 = np.minimum(cap2, 0.45 * cfg.mu)

    def waits(L1, L2):
        r1, r2 = L1 * s, L2 * s
        rho = r1 + r2
        w0 = 0.5 * (L1 + L2) * s2
        p2 = 1.0 - p1
        with np.errstate(divide="ignore", invalid="ignore"):
            den = (1.0 - r1 - p2 * r2) * (1.0 - r2 - p1 * r1) - p1 * p2 * r1 * r2
            w1 = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p1) * w0 / den, np.inf)
            w2 = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p2) * w0 / den, np.inf)
        return w1, w2

    def step(L1, L2):
        w1, w2 = waits(L1, L2)
        if cfg.c[0] == 0.0:
            n1 = base1
        else:
            n1 = np.where(np.isfinite(w1), base1 - cfg.c[0] * w1, 0.0)
        if cfg.c[1] == 0.0:
            n2 = base2
        else:
            n2 = np.where(np.isfinite(w2), base2 - cfg.c[1] * w2, 0.0)
        return np.clip(n1, 0.0, cap1), np.clip(n2, 0.0, cap2)

    def unchanged(new, old):
        # bit for bit: a NaN matches the same NaN, and -0.0 does not match 0.0
        return np.array_equal(new.view(np.uint64), old.view(np.uint64))

    for _ in range(iters):
        n1, n2 = step(L1, L2)
        m1 = 0.5 * (L1 + n1)
        m2 = 0.5 * (L2 + n2)
        # the update is a pure function of (L1, L2): once it leaves both
        # unchanged bit for bit, the remaining steps could only repeat it
        if unchanged(m1, L1) and unchanged(m2, L2):
            break
        L1, L2 = m1, m2
    n1, n2 = step(L1, L2)
    converged = np.maximum(np.abs(n1 - L1), np.abs(n2 - L2)) < 1e-6
    w1, w2 = waits(L1, L2)
    rev = t1 * L1 + t2 * L2
    ok = converged
    ok &= ~((L1 > 0) & (w1 > cfg.T[0] + 1e-9))
    ok &= ~((L2 > 0) & (w2 > cfg.T[1] + 1e-9))
    return float(np.where(ok, rev, -np.inf).max())


def test_10_pricing_solvers():
    # joint pricing: dense-grid dominance on the standard instance
    cfg = JointPricingConfig(0.3, 1.0, 1.0, 0.7, 2.0, 1.0, 1.0)
    sol = joint_pricing_T1(cfg)
    assert sol.objective >= _pricing_grid_max(cfg) - 1e-6

    # joint pricing, delay-blind closed forms
    blind = joint_pricing_T1(JointPricingConfig(0.3, 1.0, 1.0, math.inf, 2.0, 1.0, 0.0))
    assert abs(blind.params["lambda_s"] - 0.7) < 1e-9
    vertex = joint_pricing_T1(JointPricingConfig(0.3, 1.0, 1.0, math.inf, 0.8, 1.0, 0.0))
    assert abs(vertex.params["lambda_s"] - 0.4) < 1e-9
    assert abs(vertex.objective - 0.16) < 1e-9

    # cloud pricing: delay-insensitive closed form and grid dominance
    c0 = CloudConfig(mu=1.0, scv=1.0, a=(1.0, 1.0), b=(2.0, 2.0), c=(0.0, 0.0))
    sol0 = cloud_revenue_opt(c0)
    assert abs(sol0.params["theta1"] - 0.25) < 1e-9
    assert abs(sol0.params["theta2"] - 0.25) < 1e-9
    assert abs(sol0.objective - 0.25) < 1e-9
    assert sol0.objective >= _cloud_grid_max(c0, sol0.params["p1"]) - 1e-6

    cpos = CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2), T=(5.0, 5.0))
    solp = cloud_revenue_opt(cpos)
    assert solp.objective >= _cloud_grid_max(cpos, solp.params["p1"]) - 1e-6
    _report(10, "both pricing solvers dominate 500x500 grids; c=0 vertices exact to 1e-9")
