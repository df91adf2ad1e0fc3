import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gfcfs_wait,
    integral_from_beta,
    p1_from_alpha,
    p1_from_beta,
    rp2_waits,
    segment_point,
    wait_bounds,
)
from mg1lab.errors import InvalidParameterError, OracleRequiredError

EXP1 = ServiceDistribution.exponential(1.0)


def model2(l1=0.3, l2=0.2, dist=EXP1):
    return SystemModel((CustomerClassSpec(l1, dist), CustomerClassSpec(l2, dist)))


#: oracle calls within which achieve_target's search always stops
WORST_CASE_CALLS = 18


def _t_of_param(m, scheme, param):
    # inverse of achieve_target's map from its search variable t to the
    # scheme parameter (an urgency difference, or omega1 for PP)
    if scheme == "pp":
        return 1.0 - param
    return 0.5 + math.atan(param * (1.0 - m.rho) / m.w0) / math.pi


def ddp_keyed_oracle(m, scheme, ci, offset=0.0, warp=1.0):
    """Stand-in oracle: exact DDP class-1 waits keyed by the search variable
    t (warped as t**warp), shifted by `offset`, with a fixed CI.  Unwarped,
    it passes through the strict waits at t = 0, 1 and GFCFS at t = 1/2."""
    def oracle(param):
        t = _t_of_param(m, scheme, param) ** warp
        return ddp2_waits(m, beta_from_p1(m.rho, 1.0 - t))[0] + offset, ci
    return oracle


def bisection_calls(m, scheme, oracle, w1_star):
    """Oracle calls of plain bisection on t (probe the midpoint, halve the
    bracket, stop on cover or a bracket below 1e-3)."""
    scale = m.w0 / (1.0 - m.rho)
    t_lo, t_hi, calls = 0.0, 1.0, 0
    while True:
        t = 0.5 * (t_lo + t_hi)
        calls += 1
        mean, ci = oracle(1.0 - t if scheme == "pp" else scale * math.tan(math.pi * (t - 0.5)))
        if abs(mean - w1_star) <= ci:
            return calls
        if mean < w1_star:
            t_lo = t
        else:
            t_hi = t
        if t_hi - t_lo < 1e-3:
            return calls


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
        assert beta_from_integral(m, 0.0, "neg") == pytest.approx(1.0)
        assert beta_from_integral(m, 0.0, "nonneg") == pytest.approx(1.0)

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

    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameterError):
            achieve_target(model2(), SegmentTarget(alpha=0.5), "lifo")

    def test_crossing_across_the_gfcfs_anchor(self):
        # the exact curve meets the target just below GFCFS (t < 1/2), but
        # the oracle, shifted by -2 CI, covers it only beyond t = 1/2: the
        # GFCFS anchor must not narrow the bracket
        m = model2()
        (lo1, hi1), _ = wait_bounds(m)
        ci = 0.01 * (hi1 - lo1)
        w1_star = gfcfs_wait(m) - 0.5 * ci
        oracle = ddp_keyed_oracle(m, "edd", ci, offset=-2.0 * ci)
        got = achieve_target(m, SegmentTarget(target_w1=w1_star), "edd", sim_oracle=oracle)
        d = got.diagnostics
        assert d["covered"] and abs(d["achieved_w1"] - w1_star) <= ci
        assert got.value > 0.0  # an urgency difference above 0 is t > 1/2

    def test_uncovered_bracket_closure_is_reported(self):
        # an oracle that jumps over the target by 3 CI never covers it: the
        # search ends when its bracket closes, and says so
        m = model2()
        (lo1, hi1), _ = wait_bounds(m)
        ci = 0.01 * (hi1 - lo1)
        w1_star = segment_point(m, 0.4)[0]
        exact = ddp_keyed_oracle(m, "pp", ci)

        def oracle(omega):
            mean, _ = exact(omega)
            return mean + math.copysign(3.0 * ci, mean - w1_star), ci

        got = achieve_target(m, SegmentTarget(alpha=0.4), "pp", sim_oracle=oracle)
        d = got.diagnostics
        assert d["case"] == "bisection" and d["covered"] is False
        assert d["bracket"] < 1e-3 and d["oracle_calls"] <= WORST_CASE_CALLS
        assert abs(d["achieved_w1"] - w1_star) > ci
        # the returned omega1 sits at the crossing of the exact curve
        assert rp2_waits(m, got.value)[0] == pytest.approx(w1_star, rel=1e-2)

    @pytest.mark.parametrize("scheme", ["edd", "pp"])
    @pytest.mark.parametrize("alpha, mean", [(0.9, 0.0), (0.97, 0.0), (0.1, 1e9), (0.03, 1e9)])
    def test_worst_case_call_count(self, scheme, alpha, mean):
        # an oracle pinned beyond one end puts every false-position probe on
        # the safeguard, 10% inside the bracket: each is followed by a
        # bisection step, and the bracket closes at the worst-case count (one
        # fewer where rounding makes a kept half read as more than half)
        got = achieve_target(model2(), SegmentTarget(alpha=alpha), scheme,
                             sim_oracle=lambda _param: (mean, 0.0))
        d = got.diagnostics
        assert d["covered"] is False and d["bracket"] < 1e-3
        assert 17 <= d["oracle_calls"] <= WORST_CASE_CALLS

    def test_first_probe_interpolates_exact_anchors(self):
        # strict waits at t = 0 and 1 and, for EDD, GFCFS at t = 1/2
        m = model2()
        (lo1, hi1), _ = wait_bounds(m)
        g = gfcfs_wait(m)
        for scheme, w1_star, t_first in (("edd", 0.5 * (g + hi1), 0.75),
                                         ("edd", 0.6 * lo1 + 0.4 * g, 0.2),
                                         ("pp", 0.7 * lo1 + 0.3 * hi1, 0.3)):
            params = []

            def oracle(param):
                params.append(param)
                return w1_star, 1.0  # covers at once

            achieve_target(m, SegmentTarget(target_w1=w1_star), scheme, sim_oracle=oracle)
            assert len(params) == 1
            assert _t_of_param(m, scheme, params[0]) == pytest.approx(t_first, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        rho=st.floats(0.1, 0.9),
        share=st.floats(0.1, 0.9),
        alpha=st.floats(0.1, 0.9),
        scheme=st.sampled_from(("edd", "holpj", "pp")),
        ci_rel=st.floats(0.005, 0.04),
        offset_ci=st.floats(-2.0, 2.0),
        warp=st.floats(0.5, 2.0),
    )
    def test_search_hits_monotone_stubs(self, rho, share, alpha, scheme, ci_rel, offset_ci, warp):
        # monotone oracles offset by up to 2 CI and warped away from the
        # anchors: the covering window is wider than the bracket tolerance,
        # so the search hits within its worst-case call count
        m = model2(rho * share, rho * (1.0 - share))
        (lo1, hi1), _ = wait_bounds(m)
        ci = ci_rel * (hi1 - lo1)
        w1_star = segment_point(m, alpha)[0]
        oracle = ddp_keyed_oracle(m, scheme, ci, offset=offset_ci * ci, warp=warp)
        d = achieve_target(m, SegmentTarget(alpha=alpha), scheme, sim_oracle=oracle).diagnostics
        assert d["covered"] and abs(d["achieved_w1"] - w1_star) <= ci
        assert d["oracle_calls"] <= WORST_CASE_CALLS

    def test_fewer_calls_than_bisection_on_exact_curves(self):
        # noise-free stubs: never more calls than plain bisection's bracket
        # closure (10), and far fewer in total than bisection needs
        ours = theirs = 0
        for rho in (0.2, 0.5, 0.8):
            for share in (0.2, 0.5, 0.8):
                m = model2(rho * share, rho * (1.0 - share))
                (lo1, hi1), _ = wait_bounds(m)
                for scheme in ("edd", "pp"):
                    for alpha in np.linspace(0.05, 0.95, 19):
                        oracle = ddp_keyed_oracle(m, scheme, 0.01 * (hi1 - lo1))
                        w1_star = segment_point(m, alpha)[0]
                        d = achieve_target(m, SegmentTarget(alpha=alpha), scheme,
                                           sim_oracle=oracle).diagnostics
                        assert d["covered"] and d["oracle_calls"] <= 10
                        ours += d["oracle_calls"]
                        theirs += bisection_calls(m, scheme, oracle, w1_star)
        assert ours <= 0.6 * theirs
