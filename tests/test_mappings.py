import math

import numpy as np
import pytest

from mg1lab import (
    CustomerClassSpec,
    ServiceDistribution,
    SystemModel,
    SegmentTarget,
    achieve_target,
    alpha_from_p1,
    beta_from_integral,
    beta_from_p1,
    ddp2_waits,
    integral_from_beta,
    p1_from_alpha,
    p1_from_beta,
    rp2_waits,
    segment_point,
    wait_bounds,
)
from mg1lab.errors import BisectionError, InvalidParameterError, OracleRequiredError

EXP1 = ServiceDistribution.exponential(1.0)


def model2(l1=0.3, l2=0.2, dist=EXP1):
    return SystemModel((CustomerClassSpec(l1, dist), CustomerClassSpec(l2, dist)))


class TestBetaP1:
    def test_fixed_points(self):
        assert beta_from_p1(0.5, 0.5) == pytest.approx(1.0)
        assert p1_from_beta(0.5, 1.0) == pytest.approx(0.5)
        assert beta_from_p1(0.5, 1.0) == 0.0
        assert beta_from_p1(0.5, 0.0) == math.inf
        assert p1_from_beta(0.5, math.inf) == 0.0

    def test_round_trip(self):
        for rho in (0.2, 0.5, 0.9):
            for p1 in np.linspace(0.01, 0.99, 50):
                assert p1_from_beta(rho, beta_from_p1(rho, p1)) == pytest.approx(p1, abs=1e-12)

    def test_wait_equivalence(self):
        m = model2()
        for p1 in np.linspace(0.0, 1.0, 101):
            wa = rp2_waits(m, p1)
            wb = ddp2_waits(m, beta_from_p1(m.rho, p1))
            assert abs(wa[0] - wb[0]) < 1e-10
            assert abs(wa[1] - wb[1]) < 1e-10


class TestBetaIntegral:
    def test_round_trip_both_branches(self):
        m = model2()
        for beta in (0.0, 0.25, 0.9, 1.0, 1.4, 7.0):
            iv, branch = integral_from_beta(m, beta)
            assert beta_from_integral(m, iv, branch) == pytest.approx(beta, rel=1e-12, abs=1e-12)

    def test_zero_integral_is_beta_one(self):
        m = model2()
        assert beta_from_integral(m, 0.0, "ubar_neg") == pytest.approx(1.0)
        assert beta_from_integral(m, 0.0, "ubar_nonneg") == pytest.approx(1.0)

    def test_unknown_branch(self):
        with pytest.raises(InvalidParameterError):
            beta_from_integral(model2(), 0.1, "sideways")


class TestAlphaMap:
    def test_alpha_endpoints(self):
        m = model2()
        assert p1_from_alpha(m, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert p1_from_alpha(m, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_point_reached(self):
        for m in (model2(), model2(0.15, 0.45), model2(0.4, 0.1)):
            for alpha in np.linspace(0.0, 1.0, 21):
                w = rp2_waits(m, p1_from_alpha(m, alpha))
                tgt = segment_point(m, alpha)
                assert w[0] == pytest.approx(tgt[0], abs=1e-10)
                assert w[1] == pytest.approx(tgt[1], abs=1e-10)

    def test_alpha_round_trip(self):
        m = model2()
        for alpha in np.linspace(0.0, 1.0, 21):
            assert alpha_from_p1(m, p1_from_alpha(m, alpha)) == pytest.approx(alpha, abs=1e-10)

    def test_empty_second_class(self):
        # with no class-2 traffic the class-1 wait is the same at every
        # weight, so any p1 in [0, 1] reaches the one-point segment
        m = model2(0.3, 0.0)
        for alpha in (0.0, 0.5, 1.0):
            p1 = p1_from_alpha(m, alpha)
            assert 0.0 <= p1 <= 1.0
            assert rp2_waits(m, p1)[0] == pytest.approx(segment_point(m, alpha)[0], rel=1e-12)

    def test_image_is_full_interval(self):
        # the map alpha(p1) is continuous and spans [0, 1] on a fine grid
        m = model2()
        alphas = [alpha_from_p1(m, p) for p in np.linspace(0.0, 1.0, 1001)]
        assert min(alphas) == pytest.approx(0.0, abs=1e-12)
        assert max(alphas) == pytest.approx(1.0, abs=1e-12)
        assert max(abs(b - a) for a, b in zip(alphas, alphas[1:])) < 5e-3


class TestSegmentTarget:
    def test_exactly_one_field(self):
        with pytest.raises(InvalidParameterError):
            SegmentTarget()
        with pytest.raises(InvalidParameterError):
            SegmentTarget(alpha=0.5, target_w1=0.5)

    def test_target_outside_region_rejected(self):
        m = model2()
        (lo1, hi1), _ = wait_bounds(m)
        with pytest.raises(InvalidParameterError):
            achieve_target(m, SegmentTarget(target_w1=hi1 * 2), "rp")


class TestAchieveTarget:
    def test_analytic_schemes_exact(self):
        m = model2()
        tgt = SegmentTarget(alpha=0.3)
        w1_star = segment_point(m, 0.3)[0]
        rp = achieve_target(m, tgt, "rp")
        assert rp2_waits(m, rp.value)[0] == pytest.approx(w1_star, abs=1e-10)
        ddp = achieve_target(m, tgt, "ddp")
        assert ddp2_waits(m, ddp.value)[0] == pytest.approx(w1_star, abs=1e-10)

    def test_endpoint_targets_give_strict_parameters(self):
        m = model2()
        p = achieve_target(m, SegmentTarget(alpha=1.0), "edd")
        assert p.value == -math.inf
        p = achieve_target(m, SegmentTarget(alpha=0.0), "pp")
        assert p.value == 0.0

    def test_oracle_required_for_simulated_schemes(self):
        with pytest.raises(OracleRequiredError):
            achieve_target(model2(), SegmentTarget(alpha=0.4), "edd")

    def test_bisection_with_analytic_stub_oracle(self):
        # stand-in oracle: exact DDP waits keyed by a monotone transform of
        # the urgency difference, with a tiny fake CI
        m = model2()
        scale = m.w0 / (1.0 - m.rho)

        def oracle(ubar):
            t = 0.5 + math.atan(ubar / scale) / math.pi
            beta = beta_from_p1(m.rho, 1.0 - t)
            return ddp2_waits(m, beta)[0], 1e-4

        tgt = SegmentTarget(alpha=0.37)
        got = achieve_target(m, tgt, "edd", sim_oracle=oracle)
        assert got.diagnostics["oracle_calls"] <= 20
        assert abs(got.diagnostics["achieved_w1"] - segment_point(m, 0.37)[0]) < 5e-3

    def test_budget_exhaustion_raises(self):
        m = model2()

        def bad_oracle(ubar):
            return 0.0, 0.0  # never covers, never moves

        with pytest.raises(BisectionError):
            achieve_target(
                m, SegmentTarget(alpha=0.4), "pp", sim_oracle=bad_oracle, max_oracle_calls=5
            )

    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameterError):
            achieve_target(model2(), SegmentTarget(alpha=0.5), "lifo")
