import math

import numpy as np
import pytest

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
    rp2_waits,
    segment_point,
    tail_prob_approx,
)
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


class TestCloud:
    def test_delay_insensitive_closed_form(self):
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(1.0, 1.0), b=(2.0, 2.0), c=(0.0, 0.0))
        sol = cloud_revenue_opt(cfg, p_grid=5, theta_tol=1e-12)
        assert sol.params["theta1"] == pytest.approx(0.25, abs=1e-9)
        assert sol.params["theta2"] == pytest.approx(0.25, abs=1e-9)
        assert sol.objective == pytest.approx(0.25, abs=1e-9)

    def test_symmetric_classes_equal_demands(self):
        # with equal costs and sensitivities the revenue surface is flat in
        # the priority weight (conservation fixes the total wait cost at a
        # given load split), so prices may differ but demands must not, and
        # the value must match a priority-free benchmark
        cfg = CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2))
        sol = cloud_revenue_opt(cfg, p_grid=11, theta_tol=1e-6)
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
        sol = cloud_revenue_opt(cfg, p_grid=5, theta_tol=1e-6)
        l1, l2 = sol.diagnostics["lambda1"], sol.diagnostics["lambda2"]
        again = sol.params["theta1"] * l1 + sol.params["theta2"] * l2
        assert again == pytest.approx(sol.objective, abs=1e-9)


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


class TestCloudEquilibrium:
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


class TestJointPricing:
    def test_no_demand_no_revenue(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, math.inf, 0.0, 1.0, 1.0)
        sol = joint_pricing_T1(cfg, grid=50)
        assert sol.params["lambda_s"] == pytest.approx(0.0, abs=1e-9)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_delay_blind_caps_at_stability(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, math.inf, 2.0, 1.0, 0.0)
        sol = joint_pricing_T1(cfg, grid=50)
        assert sol.params["lambda_s"] == pytest.approx(0.7, abs=1e-9)
        assert "stability" in sol.active_constraints

    def test_delay_blind_interior_vertex(self):
        cfg = JointPricingConfig(0.3, 1.0, 1.0, math.inf, 0.8, 1.0, 0.0)
        sol = joint_pricing_T1(cfg, grid=50)
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
