import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mg1lab import (
    CloudConfig,
    CustomerClassSpec,
    HpcConfig,
    JointPricingConfig,
    NetworkUtilityConfig,
    ServiceDistribution,
    SystemModel,
    approx_utility_gfcfs,
    cloud_revenue_opt,
    cmu_rule_2class,
    gfcfs_wait,
    hpc_revenue_constrained,
    hpc_utility_opt,
    joint_pricing_T1,
    minmax_fair_point,
    network_K,
    network_optimal_utility,
    pp_param_for_utility_approx,
    pp2_waits_approx,
    rp_param_for_utility,
    rp2_kernel,
    rp2_waits,
    segment_point,
    tail_prob_approx,
)
from mg1lab.analytic import rp2_min_weight
from mg1lab.control import _cloud_certify, _cloud_score, _golden_max
from mg1lab.errors import InfeasibleError, InvalidParameterError

DET1 = ServiceDistribution.deterministic(1.0)
EXP1 = ServiceDistribution.exponential(1.0)


def det_model(l1, l2):
    return SystemModel((CustomerClassSpec(l1, DET1), CustomerClassSpec(l2, DET1)))


def net_cfg(l1, l2, d, b, v=(1.0, 1.0, 1.0, 1.0)):
    return NetworkUtilityConfig(det_model(l1, l2), d, b, *v)


class TestNetworkK:
    def test_symmetric_benchmark(self):
        assert network_K(0.5, 4.912, 0.01) == pytest.approx(0.5, abs=5e-4)

    def test_high_load_benchmark(self):
        assert network_K(0.99, 4.912, 0.3) == pytest.approx(3.2438, abs=5e-4)

    def test_b_above_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            network_K(0.5, 4.912, 0.6)

    def test_tail_consistency(self):
        # at x = d - 1 the tail equals the miss probability when the mean is K
        assert tail_prob_approx(0.5, 0.5, 3.912) == pytest.approx(0.01, rel=1e-3)

    def test_tail_bounds(self):
        assert tail_prob_approx(0.7, 1.0, 0.0) == pytest.approx(0.7)
        assert tail_prob_approx(0.7, 1.0, 1e9) == pytest.approx(0.0)


class TestSchedulingParams:
    def test_rp_param_symmetric(self):
        sol = rp_param_for_utility(net_cfg(0.25, 0.25, 4.912, 0.01))
        assert sol.params["p1"] == pytest.approx(0.5, abs=5e-4)

    def test_rp_param_skewed(self):
        sol = rp_param_for_utility(net_cfg(0.47, 0.15, 4.912, 0.01))
        assert sol.params["p1"] == pytest.approx(0.9954, abs=5e-4)

    def test_rp_dynamic_param_pins_w1_to_K(self):
        cfg = net_cfg(0.3, 0.2, 3.3, 0.0706)
        sol = rp_param_for_utility(cfg)
        assert sol.case == "dynamic"
        assert rp2_waits(cfg.model, sol.params["p1"])[0] == pytest.approx(
            sol.diagnostics["K"], abs=1e-9
        )

    def test_rp_static_case(self):
        # a huge deadline makes K exceed the achievable range: best effort
        sol = rp_param_for_utility(net_cfg(0.25, 0.25, 60.0, 0.01))
        assert sol.case == "deadline-slack"
        assert sol.params["p1"] == 0.0

    def test_pp_param_symmetric(self):
        sol = pp_param_for_utility_approx(net_cfg(0.25, 0.25, 4.912, 0.01))
        assert sol.diagnostics["S"] == pytest.approx(0.1, abs=1e-4)
        assert sol.params["omega1"] == pytest.approx(0.675, abs=5e-4)

    def test_pp_dynamic_param_pins_approx_w1_to_K(self):
        cfg = net_cfg(0.3, 0.2, 3.3, 0.0706)
        sol = pp_param_for_utility_approx(cfg)
        assert pp2_waits_approx(cfg.model, sol.params["omega1"])[0] == pytest.approx(
            sol.diagnostics["K"], abs=1e-9
        )


class TestNetworkUtility:
    V = (60.0, 60.0, 300.0, 120.0)

    def test_optimal_utility_benchmark(self):
        cfg = net_cfg(0.1179, 0.26, 4.911, 0.01, self.V)
        assert network_optimal_utility(cfg).objective == pytest.approx(209.16, abs=5e-2)

    def test_gfcfs_utility_benchmark(self):
        cfg = net_cfg(0.1179, 0.26, 4.911, 0.01, self.V)
        assert approx_utility_gfcfs(cfg) == pytest.approx(203.55, abs=5e-2)

    def test_delay_insensitive_dynamic_case(self):
        cfg = net_cfg(0.3, 0.2, 3.3, 0.0706, (7.0, 3.0, 11.0, 0.0))
        sol = network_optimal_utility(cfg)
        assert sol.case == "dynamic"
        assert sol.objective == pytest.approx(7.0 + 11.0)

    def test_optimal_dominates_gfcfs(self):
        for l1, l2, d, b in ((0.1179, 0.26, 4.911, 0.01), (0.27, 0.5284, 4.9, 0.1)):
            cfg = net_cfg(l1, l2, d, b, self.V)
            assert network_optimal_utility(cfg).objective >= approx_utility_gfcfs(cfg) - 1e-9

    def test_nonunit_service_rejected(self):
        m = SystemModel((CustomerClassSpec(0.25, EXP1), CustomerClassSpec(0.25, EXP1)))
        with pytest.raises(InvalidParameterError):
            NetworkUtilityConfig(m, 4.912, 0.01, 1, 1, 1, 1)


class TestCostRatioRule:
    def test_class2_priority_when_its_index_is_larger(self):
        m = SystemModel((CustomerClassSpec(0.3, EXP1), CustomerClassSpec(0.3, EXP1)))
        assert cmu_rule_2class(m, 1.0, 2.0).params["p1"] == 0.0

    def test_class1_priority_mirrored(self):
        m = SystemModel((CustomerClassSpec(0.3, EXP1), CustomerClassSpec(0.3, EXP1)))
        assert cmu_rule_2class(m, 2.0, 1.0).params["p1"] == 1.0

    def test_tie_flagged_and_flat(self):
        m = SystemModel((CustomerClassSpec(0.3, EXP1), CustomerClassSpec(0.3, EXP1)))
        sol = cmu_rule_2class(m, 1.5, 1.5)
        assert sol.case == "tie"
        objs = [1.5 * sum(rp2_waits(m, p)) for p in np.linspace(0, 1, 50)]
        assert max(objs) - min(objs) < 1e-10

    def test_endpoint_dominates_grid(self):
        m = SystemModel((CustomerClassSpec(0.35, EXP1), CustomerClassSpec(0.2, DET1)))
        sol = cmu_rule_2class(m, 0.7, 2.3)
        grid = [
            0.7 * rp2_waits(m, p)[0] + 2.3 * rp2_waits(m, p)[1]
            for p in np.linspace(0.0, 1.0, 1000)
        ]
        assert sol.objective <= min(grid) + 1e-10


class TestMinmax:
    def test_symmetric_half(self):
        a1, a2, w = minmax_fair_point(det_model(0.25, 0.25))
        assert a1 == pytest.approx(0.5)
        assert a2 == pytest.approx(0.5)

    def test_equalized_at_conserved_wait(self):
        m = det_model(0.47, 0.15)
        a1, _, w = minmax_fair_point(m)
        assert a1 == pytest.approx(0.53 / 1.38, abs=1e-12)
        point = segment_point(m, a1)
        assert point[0] == pytest.approx(point[1], abs=1e-10)
        assert point[0] == pytest.approx(gfcfs_wait(m), abs=1e-10)


@st.composite
def hpc_configs(draw):
    """Computing-service problems whose prime price stays nonnegative at
    full priority: light to heavy loads, several service kinds."""
    service = draw(st.sampled_from([EXP1, DET1, ServiceDistribution.erlang(1.0, 3)]))
    lam_p = draw(st.floats(0.01, 0.6))
    lam_r = draw(st.floats(0.01, 0.95 - lam_p))
    b = draw(st.floats(0.05, 3.0))
    w_p1 = 0.5 * (lam_p + lam_r) * service.second_moment / (1.0 - lam_p)
    a = b * w_p1 + draw(st.floats(0.01, 20.0))
    return HpcConfig(lam_p, lam_r, service, a, b, draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))


class TestHpc:
    CFG = dict(lambda_P=0.25, lambda_R=0.25, service=EXP1, a=10.0, b=2.0)

    def test_revenue_only_gives_prime_priority(self):
        sol = hpc_utility_opt(HpcConfig(**self.CFG, w1=1.0, w2=0.0))
        assert sol.params["p1"] == pytest.approx(1.0, abs=1e-6)

    def test_service_only_gives_regular_priority(self):
        sol = hpc_utility_opt(HpcConfig(**self.CFG, w1=0.0, w2=1.0))
        assert sol.params["p1"] == pytest.approx(0.0, abs=1e-6)

    def test_optimum_matches_dense_grid(self):
        cfg = HpcConfig(**self.CFG, w1=1.0, w2=1.0)
        sol = hpc_utility_opt(cfg)
        m = cfg.model()

        def util(p):
            w = rp2_waits(m, p)
            return 1.0 * (10.0 - 2.0 * w[0]) * 0.25 - 1.0 * w[1]

        grid = np.linspace(0.0, 1.0, 10_000)
        best = grid[int(np.argmax([util(p) for p in grid]))]
        assert abs(sol.params["p1"] - best) < 1e-4
        assert sol.objective >= max(util(p) for p in grid) - 1e-9

    def test_constrained_at_fcfs_service_level(self):
        m_wait = gfcfs_wait(HpcConfig(**self.CFG, w1=1.0, w2=1.0).model())
        sol = hpc_revenue_constrained(HpcConfig(**self.CFG, w1=1.0, w2=1.0, S_R=m_wait))
        assert sol.params["p1"] == pytest.approx(0.5, abs=1e-9)
        assert sol.active_constraints == ("S_R",)

    def test_slack_constraint_gives_full_priority(self):
        sol = hpc_revenue_constrained(HpcConfig(**self.CFG, w1=1.0, w2=1.0, S_R=100.0))
        assert sol.params["p1"] == 1.0
        assert sol.active_constraints == ()

    def test_infeasible_sla(self):
        with pytest.raises(InfeasibleError):
            hpc_revenue_constrained(HpcConfig(**self.CFG, w1=1.0, w2=1.0, S_R=0.01))

    def test_sla_within_tolerance_below_strict_wait(self):
        # S_R a hair below the regular class's strict-priority wait passes
        # the 1e-12 feasibility check and gets that strict priority
        m = HpcConfig(**self.CFG, w1=1.0, w2=1.0).model()
        w_min = rp2_waits(m, 0.0)[1]
        sol = hpc_revenue_constrained(HpcConfig(**self.CFG, w1=1.0, w2=1.0, S_R=w_min - 5e-13))
        assert sol.params["p1"] == 0.0
        assert sol.active_constraints == ("S_R",)

    def test_utility_reports_evaluations(self):
        sol = hpc_utility_opt(HpcConfig(**self.CFG, w1=1.0, w2=1.0))
        assert sol.diagnostics["evaluations"] == 0

    def test_utility_optimum_is_a_segment_end(self):
        # a numeric search on this config stops 2.6e-12 short of p1 = 1; the
        # utility is linear on the segment, so the optimum is the end itself
        cfg = HpcConfig(lambda_P=0.159, lambda_R=0.066, service=EXP1, a=7.9, b=0.4,
                        w1=1.17, w2=0.03)
        sol = hpc_utility_opt(cfg)
        assert sol.params["p1"] in (0.0, 1.0)
        assert sol.case != "interior"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(hpc_configs())
    def test_utility_dominates_weight_grid(self, cfg):
        sol = hpc_utility_opt(cfg)
        m = cfg.model()
        w_p, w_r = rp2_kernel(*m.rho_per_class, m.w0, np.linspace(0.0, 1.0, 1001))
        best = float(np.max(cfg.w1 * (cfg.a - cfg.b * w_p) * cfg.lambda_P - cfg.w2 * w_r))
        assert sol.params["p1"] in (0.0, 1.0)
        assert sol.objective >= best - 1e-12 * max(1.0, abs(best))


class TestCloud:
    def test_delay_insensitive_closed_form(self):
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(1.0, 1.0), b=(2.0, 2.0), c=(0.0, 0.0))
        sol = cloud_revenue_opt(cfg)
        assert sol.params["theta1"] == pytest.approx(0.25, abs=1e-9)
        assert sol.params["theta2"] == pytest.approx(0.25, abs=1e-9)
        assert sol.objective == pytest.approx(0.25, abs=1e-9)

    def test_symmetric_classes_equal_demands(self):
        # with equal costs and sensitivities the revenue surface is flat in
        # the priority weight (conservation fixes the total wait cost at a
        # given load split), so prices may differ but demands must not, and
        # the value must match a priority-free benchmark
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2))
        sol = cloud_revenue_opt(cfg)
        l1, l2 = sol.diagnostics["lambda1"], sol.diagnostics["lambda2"]
        assert l1 == pytest.approx(l2, abs=1e-3)

        def symmetric_revenue(theta):
            lam = 0.0
            for _ in range(500):
                rho = 2.0 * lam
                w = rho / (1.0 - rho) if rho < 1.0 else math.inf
                nxt = min(max(0.8 - 1.5 * theta - 0.2 * w, 0.0), 0.8 - 1.5 * theta)
                lam = 0.5 * (lam + nxt)
            return 2.0 * theta * lam

        best = max(symmetric_revenue(t) for t in np.linspace(0.0, 0.8 / 1.5, 2001))
        assert sol.objective >= best - 1e-4
        assert sol.diagnostics["certification_margin"] <= 1e-6

    def test_objective_reproducible(self):
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2))
        sol = cloud_revenue_opt(cfg)
        l1, l2 = sol.diagnostics["lambda1"], sol.diagnostics["lambda2"]
        again = sol.params["theta1"] * l1 + sol.params["theta2"] * l2
        assert again == pytest.approx(sol.objective, abs=1e-9)


class TestSolverHelpers:
    def test_golden_max_counts_its_calls(self):
        seen = []

        def f(x):
            seen.append(x)
            return -(x - 0.3) ** 2

        x, fx, calls = _golden_max(f, 0.0, 1.0, 1e-9)
        assert calls == len(seen)
        assert x == pytest.approx(0.3, abs=1e-9) and fx == -((x - 0.3) ** 2)

    def test_golden_max_ends_below_float_resolution(self):
        # a zero tolerance stops at a few ulps instead of looping forever
        x, _, calls = _golden_max(lambda x: -abs(x - 0.7), 0.0, 1.0, 0.0)
        assert x == pytest.approx(0.7, abs=1e-15) and calls < 200

    def test_cloud_p_grid_is_removed(self):
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(1.0, 1.0), b=(2.0, 2.0), c=(0.0, 0.0))
        # the weight grid and the rate-search bracket are no longer settings
        for removed in ({"p_grid": 41}, {"theta_tol": 1e-7}):
            with pytest.raises(TypeError):
                cloud_revenue_opt(cfg, **removed)
        # a delay-blind problem takes its vertex unsearched, so the count is
        # read on one that is searched
        sol = cloud_revenue_opt(CLOUD_CASES[1])
        assert sol.diagnostics["evaluations"] > 0

    def test_joint_reports_evaluations(self):
        sol = joint_pricing_T1(JointPricingConfig(0.3, 1.0, 1.0, 0.7, 2.0, 1.0, 1.0))
        assert sol.diagnostics["evaluations"] > 0
        blind = joint_pricing_T1(JointPricingConfig(0.3, 1.0, 1.0, math.inf, 2.0, 1.0, 0.0))
        assert blind.diagnostics["evaluations"] == 0


def _induced_rates(cfg, theta1, theta2, p1, iters=2000):
    """Arrival rates that prices (theta1, theta2) induce at RP weight p1,
    by the damped demand fixed point started from zero demand."""
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    base = (cfg.a[0] - cfg.b[0] * theta1, cfg.a[1] - cfg.b[1] * theta2)
    lam = [0.0, 0.0]
    for _ in range(iters):
        r1, r2 = lam[0] * s, lam[1] * s
        if r1 + r2 < 1.0:
            w0 = 0.5 * (lam[0] + lam[1]) * s2
            p2 = 1.0 - p1
            den = (1.0 - r1 - p2 * r2) * (1.0 - r2 - p1 * r1) - p1 * p2 * r1 * r2
            w = ((1.0 - (r1 + r2) * p1) * w0 / den, (1.0 - (r1 + r2) * p2) * w0 / den)
        else:
            w = (math.inf, math.inf)
        for i in range(2):
            if cfg.c[i] == 0.0:
                nxt = base[i]
            else:
                nxt = base[i] - cfg.c[i] * w[i] if math.isfinite(w[i]) else 0.0
            lam[i] = 0.5 * (lam[i] + min(max(nxt, 0.0), max(base[i], 0.0)))
    return lam


def _revenue_at_weights(cfg, l1, l2, p):
    """Revenue at fixed rates (l1, l2) and each weight of the array p (-inf
    where a price or SLA check fails), with prices by inverse demand and
    the checks written out, and the waits (W1, W2) at p."""
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    waits = rp2_kernel(l1 * s, l2 * s, 0.5 * (l1 + l2) * s2, p)
    total, ok = np.zeros(len(p)), np.ones(len(p), dtype=bool)
    for lam, w, a, b, c, T in zip((l1, l2), waits, cfg.a, cfg.b, cfg.c, cfg.T):
        if lam > 0.0:
            with np.errstate(invalid="ignore"):
                theta = (a - lam - (c * w if c else 0.0)) / b
            ok &= (theta >= 0.0) & (w <= T + 1e-12)
            total = total + np.where(ok, theta, 0.0) * lam
    return np.where(ok, total, -np.inf), waits


def _best_weight_on_grid(cfg, l1, l2, n=1001):
    """Largest revenue over n evenly spaced weights at fixed rates (l1, l2)."""
    return float(np.max(_revenue_at_weights(cfg, l1, l2, np.linspace(0.0, 1.0, n))[0]))


@st.composite
def cloud_configs(draw):
    """Cloud pricing problems: wait-blind and delay-sensitive classes,
    finite and infinite SLA caps, light to overloaded demand."""
    mu = draw(st.floats(0.5, 2.0))
    c = [draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))) for _ in range(2)]
    T = [draw(st.one_of(st.just(math.inf), st.floats(0.3, 6.0).map(lambda x: x / mu)))
         for _ in range(2)]
    return CloudConfig(mu=mu, scv=draw(st.floats(0.0, 3.0)),
                       a=(mu * draw(st.floats(0.3, 1.5)), mu * draw(st.floats(0.3, 1.5))),
                       b=(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))),
                       c=tuple(c), T=tuple(T))


CLOUD_CASES = [
    CloudConfig(mu=1.0, scv=1.0, a=(1.0, 1.0), b=(2.0, 2.0), c=(0.0, 0.0)),
    CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2), T=(5.0, 5.0)),
    CloudConfig(mu=1.0, scv=1.0, a=(1.0, 0.6), b=(2.0, 1.0), c=(0.5, 0.1), T=(0.4, 8.0)),
    CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.0, 0.3)),
]


def _assert_weight_optimal(cfg):
    sol = cloud_revenue_opt(cfg)
    l1, l2 = sol.diagnostics["lambda1"], sol.diagnostics["lambda2"]
    best = _best_weight_on_grid(cfg, l1, l2)
    assert sol.objective >= best - 1e-12 * max(1.0, abs(best))
    assert 0.0 <= sol.params["p1"] <= 1.0


class TestCloudEquilibrium:
    @pytest.mark.parametrize("cfg", CLOUD_CASES, ids=["c0", "symmetric-T5", "asymmetric-binding-T1", "mixed"])
    def test_weight_optimal_at_returned_rates(self, cfg):
        # the weight is an end of its feasible interval; no weight on a fine
        # grid earns more at the returned rates
        _assert_weight_optimal(cfg)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(cloud_configs())
    def test_weight_optimal_on_random_configs(self, cfg):
        _assert_weight_optimal(cfg)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cloud_configs().map(lambda cfg: dataclasses.replace(cfg, c=(0.0, 0.0), T=(math.inf,) * 2)))
    def test_delay_blind_price_resolution(self, cfg):
        # the revenue sum((a_i*l_i - l_i^2)/b_i) ignores the waits, so the
        # solver takes its vertex l_i = a_i/2 unsearched, at the exact prices
        sol = cloud_revenue_opt(cfg)
        for a, b, theta in zip(cfg.a, cfg.b, (sol.params["theta1"], sol.params["theta2"])):
            assert theta == a / (2.0 * b)
        assert sol.diagnostics["evaluations"] == 0 and sol.params["p1"] == 0.0
        want = sum(a * a / (4.0 * b) for a, b in zip(cfg.a, cfg.b))
        assert sol.objective == pytest.approx(want, rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cloud_configs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_score_is_the_revenue_at_the_best_weight(self, cfg, u1, u2):
        # the score reads the best end's waits off the segment; solving for
        # that weight (rp2_min_weight) and pricing there must earn the same,
        # and no weight on a grid earns more
        l1, l2 = u1 * cfg.a[0], u2 * cfg.a[1]
        bound, revenue = _cloud_score(cfg)
        score = revenue(l1, l2)
        assert score >= _best_weight_on_grid(cfg, l1, l2) - 1e-12
        s = 1.0 / cfg.mu
        s2 = (1.0 + cfg.scv) * s * s
        k, cap_k, _ = bound(l1, l2)
        q = rp2_min_weight(l1 * s, l2 * s, 0.5 * (l1 + l2) * s2, cap_k, k)
        if q is None:  # no weight keeps class k's cap
            assert score == -math.inf
            return
        r, waits = _revenue_at_weights(cfg, l1, l2, np.array([q if k == 0 else 1.0 - q]))
        want = float(r[0])
        if math.isfinite(want) and math.isfinite(score):
            assert score == pytest.approx(want, rel=0, abs=1e-12 * max(1.0, abs(want)))
        elif math.isfinite(want) != math.isfinite(score):
            # the other class's wait differs by rounding, so only a check
            # of that class right at one of its caps may come out otherwise
            o, lam = 1 - k, (l1, l2)[1 - k]
            w = float(waits[o][0])
            assert lam > 0.0 and (abs(w - cfg.T[o]) <= 1e-9
                                  or abs(cfg.a[o] - lam - cfg.c[o] * w) <= 1e-9)

    @pytest.mark.parametrize(
        "cfg, binding",
        [
            (CloudConfig(mu=1.0, scv=1.0, a=(1.0, 1.0), b=(2.0, 2.0), c=(0.0, 0.0)), ()),
            (CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2),
                         T=(5.0, 5.0)), ()),
            (CloudConfig(mu=1.0, scv=1.0, a=(1.0, 0.6), b=(2.0, 1.0), c=(0.5, 0.1),
                         T=(0.4, 8.0)), ("T1",)),
            (CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.0, 0.3)), ()),
        ],
        ids=["c0", "symmetric-T5", "asymmetric-binding-T1", "mixed"],
    )
    def test_prices_induce_returned_rates(self, cfg, binding):
        sol = cloud_revenue_opt(cfg)
        t1, t2, p1 = sol.params["theta1"], sol.params["theta2"], sol.params["p1"]
        assert 0.0 <= t1 <= cfg.a[0] / cfg.b[0] and 0.0 <= t2 <= cfg.a[1] / cfg.b[1]
        l1, l2 = _induced_rates(cfg, t1, t2, p1)
        assert l1 == pytest.approx(sol.diagnostics["lambda1"], abs=1e-8)
        assert l2 == pytest.approx(sol.diagnostics["lambda2"], abs=1e-8)
        assert sol.active_constraints == binding
        assert sol.diagnostics["certification_margin"] <= 1e-6
        assert sol.diagnostics["certification_unconverged"] >= 0

    @pytest.mark.parametrize("p1", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_certification_converges_where_a_fixed_point_exists(self, p1):
        for cfg in (
            CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2), T=(5.0, 5.0)),
            CloudConfig(mu=1.0, scv=1.0, a=(1.0, 0.6), b=(2.0, 1.0), c=(0.5, 0.1), T=(0.4, 8.0)),
        ):
            assert _cloud_certify(cfg, p1, 0.0)[1] == 0

    def test_certification_counts_points_without_fixed_point(self):
        # with class 2 served first its wait stays bounded as the load nears
        # 1, then turns infinite at load 1, where its demand drops to 0; at
        # prices low enough for class 1's wait-blind demand to push the load
        # there no rates are a fixed point, and the count must say so
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.0, 0.3))
        assert _cloud_certify(cfg, 0.0, 0.0)[1] > 0

    def test_certification_runs_no_step_where_no_point_can_win(self):
        # every grid point's revenue at the demand caps is below 1, so none
        # is iterated, and the points without a fixed point are not counted
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.0, 0.3))
        assert _cloud_certify(cfg, 0.0, 1.0) == (0.0, 0, 0)

    @pytest.mark.parametrize("cfg", CLOUD_CASES, ids=["c0", "symmetric-T5", "asymmetric-binding-T1", "mixed"])
    def test_certification_skips_only_points_that_cannot_win(self, cfg):
        # a point skipped because its revenue at the caps is within r would
        # have added nothing, so the margin above r is the margin above 0
        # less r
        for p1 in (0.0, 0.3, 1.0):
            m0 = _cloud_certify(cfg, p1, 0.0)[0]
            for r in (0.0, 0.1 * m0, 0.5 * m0, 0.99 * m0, m0, 2.0 * m0, 0.05, 0.2):
                assert _cloud_certify(cfg, p1, r)[0] == pytest.approx(max(0.0, m0 - r), abs=1e-10)

    def test_certification_reports_its_steps(self):
        # wait-blind demand starts at its fixed point, and every c = 0 grid
        # point is within the optimum sum(a^2/4b), so at most one step runs
        c0 = cloud_revenue_opt(CLOUD_CASES[0])
        assert c0.diagnostics["certification_iterations"] <= 2
        sym = cloud_revenue_opt(CLOUD_CASES[1])
        assert 0 < sym.diagnostics["certification_iterations"] < 1000


def _joint_grid_max(cfg, n=400):
    """Largest revenue on an n x n grid of (secondary rate, weight) that
    keeps W_p <= S_p, with the two-class RP waits written out."""
    s = 1.0 / cfg.mu
    s2 = cfg.sigma2 + s * s
    ls = np.linspace(0.0, cfg.mu - cfg.lambda_p, n).reshape(-1, 1)
    p = np.linspace(0.0, 1.0, n).reshape(1, -1)
    r1, r2 = cfg.lambda_p * s, ls * s
    rho = r1 + r2
    w0 = 0.5 * (cfg.lambda_p + ls) * s2
    with np.errstate(divide="ignore", invalid="ignore"):
        den = (1.0 - r1 - (1.0 - p) * r2) * (1.0 - r2 - p * r1) - p * (1.0 - p) * r1 * r2
        w_pri = np.where(rho < 1.0 - 1e-9, (1.0 - rho * p) * w0 / den, np.inf)
        w_sec = np.where(rho < 1.0 - 1e-9, (1.0 - rho * (1.0 - p)) * w0 / den, np.inf)
        delay = cfg.c * ls * np.where(ls > 0, w_sec, 0.0) if cfg.c else 0.0
        obj = (cfg.a * ls - ls**2 - delay) / cfg.b
    return float(np.max(np.where(np.isfinite(obj) & (w_pri <= cfg.S_p + 1e-12), obj, -np.inf)))


def _joint_exact_reduced(cfg, ls):
    """The joint revenue at rate ls and the best weight meeting the SLA, in
    exact rational arithmetic from the float inputs (needs mu = 1)."""
    lam_p, ls, s2 = Fraction(cfg.lambda_p), Fraction(ls), Fraction(cfg.sigma2 + 1.0)
    w0 = (lam_p + ls) * s2 / 2
    ls_ws = ls * w0 / (1 - ls)
    if math.isfinite(cfg.S_p):
        w_top = w0 / ((1 - lam_p - ls) * (1 - ls))  # W_p at p = 0
        ls_ws += lam_p * max(w_top - Fraction(cfg.S_p), 0)
    return (Fraction(cfg.a) * ls - ls * ls - Fraction(cfg.c) * ls_ws) / Fraction(cfg.b)


def _joint_exact_max(cfg):
    """Exact maximum of :func:`_joint_exact_reduced` over the float rates
    keeping W_p at p = 1 within S_p: golden section with exact
    comparisons, down to a few ulps."""
    lam_p, s2 = Fraction(cfg.lambda_p), Fraction(cfg.sigma2 + 1.0)
    lo, hi = 0.0, float(2 * Fraction(cfg.S_p) * (1 - lam_p) / s2 - lam_p)
    while (lam_p + Fraction(hi)) * s2 / 2 / (1 - lam_p) > Fraction(cfg.S_p):
        hi = math.nextafter(hi, 0.0)
    def f(x):
        return _joint_exact_reduced(cfg, x)

    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 4.0 * math.ulp(hi):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
    return max(f1, f2, f(0.0), f(hi))


def _assert_ranked_reduced_objective(cfg):
    """The reported objective is the reduced objective at the returned rate
    to 1e-12 relative, or of the gross revenue a*l/b where that is larger:
    it bounds every term the objective is a difference of, and the
    objective can be 1e-4 of it where the SLA is within rounding of the
    primary's zero-rate wait.  Below 1e-300 the terms underflow.  Needs
    mu = 1."""
    sol = joint_pricing_T1(cfg)
    ls = sol.params["lambda_s"]
    exact = _joint_exact_reduced(cfg, ls)
    scale = max(abs(exact), Fraction(cfg.a) * Fraction(ls) / Fraction(cfg.b))
    assert abs(Fraction(sol.objective) - exact) <= scale / 10**12 + Fraction(1e-300)


@st.composite
def joint_configs(draw, mu=st.floats(0.5, 2.0)):
    """Feasible joint-pricing problems: finite and infinite S_p, c = 0 and
    c > 0, loads from light to heavy."""
    mu = draw(mu)
    lam_p = mu * draw(st.floats(0.05, 0.9))
    sigma2 = draw(st.floats(0.0, 3.0)) / (mu * mu)
    s = 1.0 / mu
    w_p0 = 0.5 * lam_p * (sigma2 + s * s) / (1.0 - lam_p * s)
    S_p = draw(st.one_of(st.just(math.inf), st.floats(0.0, 5.0).map(lambda x: w_p0 * (1.0 + x))))
    c = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    return JointPricingConfig(lam_p, mu, sigma2, S_p, mu * draw(st.floats(0.0, 3.0)),
                              draw(st.floats(0.3, 3.0)), c)


class TestJointPricing:
    def test_no_demand_no_revenue(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, math.inf, 0.0, 1.0, 1.0)
        sol = joint_pricing_T1(cfg)
        assert sol.params["lambda_s"] == pytest.approx(0.0, abs=1e-9)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("cfg", [
        JointPricingConfig(0.3, 1.0, 1.0, 0.7, 0.0, 1.0, 1.0),  # a = 0: theta was -0.3
        # S_p within rounding below the zero-rate primary wait: theta was
        # -0.059375 and the objective -7.09e-17, from the SLA's excess at l = 0
        JointPricingConfig(0.71875, 1.0, 0.0, 1.2777777777777777, 0.3, 1.0, 1.0),
    ])
    def test_zero_rate_is_priced_in_range_and_earns_nothing(self, cfg):
        sol = joint_pricing_T1(cfg)
        assert sol.params["lambda_s"] == 0.0
        assert 0.0 <= sol.params["theta"] <= cfg.a / cfg.b
        assert sol.objective == 0.0

    def test_delay_blind_caps_at_stability(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, math.inf, 2.0, 1.0, 0.0)
        sol = joint_pricing_T1(cfg)
        assert sol.params["lambda_s"] == pytest.approx(0.7, abs=1e-9)
        assert "stability" in sol.active_constraints

    def test_delay_blind_interior_vertex(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, math.inf, 0.8, 1.0, 0.0)
        sol = joint_pricing_T1(cfg)
        assert sol.params["lambda_s"] == pytest.approx(0.4, abs=1e-9)
        assert sol.objective == pytest.approx(0.16, abs=1e-9)

    def test_infeasible_sla(self):
        with pytest.raises(InfeasibleError):
            joint_pricing_T1(JointPricingConfig(0.3, 1.0, 1.0, 0.1, 2.0, 1.0, 1.0))

    def test_theta_recovers_demand(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, 0.7, 2.0, 1.0, 1.0)
        sol = joint_pricing_T1(cfg)
        # demand identity: lambda_s = a - b*theta - c*S_s
        implied = cfg.a - cfg.b * sol.params["theta"] - cfg.c * sol.params["S_s"]
        assert implied == pytest.approx(sol.params["lambda_s"], abs=1e-9)

    def test_c0_optimum_at_sla_rate_cap_with_full_priority(self):
        # W_p at p = 1 is W0/(1 - rho_p) = (0.3 + l)/0.7, so the SLA admits
        # l <= 0.4, below the stability cap 0.7 and the vertex a/2 = 1
        cfg = JointPricingConfig(0.3, 1.0, 1.0, 1.0, 2.0, 1.0, 0.0)
        sol = joint_pricing_T1(cfg)
        assert sol.params["lambda_s"] == pytest.approx(0.4, abs=1e-12)
        assert sol.params["p1"] == 1.0
        assert sol.objective == pytest.approx(0.64, abs=1e-12)
        assert sol.diagnostics["W_p"] <= cfg.S_p
        assert sol.active_constraints == ("S_p",)

    @pytest.mark.parametrize(
        "args",
        [
            (0.3, 1.0, 1.0, 0.7, 2.0, 1.0, 1.0),
            (0.5, 1.0, 0.5, 3.0, 1.5, 0.8, 0.4),
            (0.2, 2.0, 0.1, math.inf, 3.0, 1.0, 2.0),
            (0.4, 1.0, 1.0, 1.2, 1.0, 1.0, 0.0),
        ],
        ids=["interior-weight", "sla-meets-p0-end", "no-sla", "c0-rate-cap"],
    )
    def test_weight_optimal_on_segment(self, args):
        # at the returned rate no weight on a fine grid does better while
        # keeping the primary service level
        cfg = JointPricingConfig(*args)
        sol = joint_pricing_T1(cfg)
        ls = sol.params["lambda_s"]
        s = 1.0 / cfg.mu
        s2 = cfg.sigma2 + s * s
        p = np.linspace(0.0, 1.0, 1001)
        w_pri, w_sec = rp2_kernel(cfg.lambda_p * s, ls * s, 0.5 * (cfg.lambda_p + ls) * s2, p)
        obj = (cfg.a * ls - ls * ls - cfg.c * ls * w_sec) / cfg.b
        best = float(np.max(np.where(w_pri <= cfg.S_p, obj, -np.inf)))
        assert sol.objective >= best - 1e-12 * max(1.0, abs(best))
        assert sol.diagnostics["W_p"] <= cfg.S_p

    def test_sla_just_above_zero_rate_wait(self):
        # S_p is 1.1e-7 relative above the primary's wait at zero secondary
        # rate, so the optimal rate is about 2e-8 and the revenue about 1e-9.
        # An SLA excess W_p(0) - S_p formed as a difference of two O(1) waits
        # carries rounding of about 1e-16, enough to misrank rates on this
        # scale by 2e-7 of the revenue; the returned rate must earn the exact
        # optimum to 1e-12
        cfg = JointPricingConfig(0.62, 1.0, 1.1, 1.7131580829238255, 1.7, 2.6, 2.4)
        sol = joint_pricing_T1(cfg)
        best = _joint_exact_max(cfg)
        assert _joint_exact_reduced(cfg, sol.params["lambda_s"]) >= best * (1 - Fraction(1, 10**12))

    def test_objective_is_the_ranked_reduced_value(self):
        # from a seeded search: S_p is within 3e-5 relative of the primary's
        # wait at zero secondary rate, and the revenue at the weight
        # rp2_min_weight rounds to was 3.8e-2 relative off the reduced
        # objective the search ranked
        cfg = JointPricingConfig(0.45120841369930453, 1.0, 0.8461901140266331, 0.7589552514393643,
                                 1.4999660316728964, 2.432074258222404, 1.4942762839338115)
        _assert_ranked_reduced_objective(cfg)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(joint_configs(mu=st.just(1.0)))
    def test_objective_matches_exact_reduced(self, cfg):
        _assert_ranked_reduced_objective(cfg)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(joint_configs())
    def test_dominates_grid_and_keeps_sla(self, cfg):
        sol = joint_pricing_T1(cfg)
        assert sol.objective >= _joint_grid_max(cfg) - 1e-6
        assert sol.diagnostics["W_p"] <= cfg.S_p + 1e-12
        # demand identity: lambda_s = a - b*theta - c*S_s (c = 0 ignores
        # S_s); a zero rate only needs no demand at a price in [0, a/b]
        delay = cfg.c * sol.params["S_s"] if cfg.c else 0.0
        implied = cfg.a - cfg.b * sol.params["theta"] - delay
        if sol.params["lambda_s"] == 0.0:
            assert implied <= 1e-9
            assert 0.0 <= sol.params["theta"] <= cfg.a / cfg.b
        else:
            assert implied == pytest.approx(sol.params["lambda_s"], abs=1e-9)
