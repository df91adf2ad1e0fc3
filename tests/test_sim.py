import math

import numpy as np
import pytest

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
    busy_period_boundaries,
    edd_config_from_ubar,
    estimate_busy_integral,
    gfcfs_wait,
    run_sim,
    rp2_waits,
    service_start_sequence,
    strict_priority_waits_2class,
)
from mg1lab.errors import InvalidParameterError, WrongClassCountError
from mg1lab.sim import validate_discipline

EXP1 = ServiceDistribution.exponential(1.0)
DET1 = ServiceDistribution.deterministic(1.0)


def model2(l1=0.25, l2=0.25, dist=EXP1):
    return SystemModel((CustomerClassSpec(l1, dist), CustomerClassSpec(l2, dist)))


SMALL = SimConfig(seed=31, measured_jobs=30_000, warmup_jobs=5_000, replications=5)


class TestValidation:
    def test_bad_strict_order(self):
        with pytest.raises(InvalidParameterError):
            validate_discipline(model2(), Strict((0, 0)))

    def test_bad_holpj_deadlines(self):
        with pytest.raises(InvalidParameterError):
            validate_discipline(model2(), HOLPJ((2.0, 1.0)))
        with pytest.raises(InvalidParameterError):
            validate_discipline(model2(), HOLPJ((1.0, 2.0), dispatch="sideways"))

    def test_pp_requires_two_classes(self):
        m = SystemModel(tuple(CustomerClassSpec(0.1, EXP1) for _ in range(3)))
        with pytest.raises(WrongClassCountError):
            validate_discipline(m, PP((0.5, 0.5, 1.0)))

    def test_pp_last_probability_fixed_to_one(self):
        with pytest.raises(InvalidParameterError):
            validate_discipline(model2(), PP((0.5, 0.9)))

    def test_rp_needs_positive_weights(self):
        with pytest.raises(InvalidParameterError):
            validate_discipline(model2(), RP((0.5, 0.0)))

    def test_simconfig_bounds(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, measured_jobs=10)
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, replications=0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, warmup_jobs=-1)
        assert SimConfig(seed=1, warmup_jobs=0).effective_warmup == 0


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        m = model2()
        a = run_sim(m, RP((0.5, 0.5)), SMALL)
        b = run_sim(m, RP((0.5, 0.5)), SMALL)
        assert a.mean == b.mean
        assert a.ci_halfwidth_95 == b.ci_halfwidth_95

    def test_different_seed_differs(self):
        m = model2()
        a = run_sim(m, GFCFS(), SMALL)
        b = run_sim(m, GFCFS(), SimConfig(seed=32, measured_jobs=30_000,
                                          warmup_jobs=5_000, replications=5))
        assert a.mean != b.mean


class TestAgainstAnalytic:
    def test_gfcfs_matches_conserved_wait(self):
        m = model2()
        est = run_sim(m, GFCFS(), SMALL)
        for c in range(2):
            assert abs(est.mean[c] - gfcfs_wait(m)) < 3 * est.ci_halfwidth_95[c] + 0.02

    def test_strict_matches_cobham(self):
        m = model2(dist=DET1)
        est = run_sim(m, Strict((0, 1)), SMALL)
        want = strict_priority_waits_2class(m, 0)
        for c in range(2):
            assert abs(est.mean[c] - want[c]) < 3 * est.ci_halfwidth_95[c] + 0.02

    def test_rp_matches_closed_form(self):
        m = model2()
        est = run_sim(m, RP((0.25, 0.75)), SMALL)
        want = rp2_waits(m, 0.25)
        for c in range(2):
            assert abs(est.mean[c] - want[c]) < 3 * est.ci_halfwidth_95[c] + 0.03

    def test_conservation_within_noise(self):
        m = model2(0.3, 0.2)
        for disc in (GFCFS(), DDP((1.0, 2.0)), EDD((0.5, 0.0)), HOLPJ((1.0, 2.5))):
            est = run_sim(m, disc, SMALL)
            assert abs(est.residual) < 0.05


class TestMechanisms:
    def test_holpj_jump_equals_ordering(self):
        m = model2()
        a = service_start_sequence(m, HOLPJ((1.0, 3.0), "jump"), 5_000, 17)
        b = service_start_sequence(m, HOLPJ((1.0, 3.0), "order"), 5_000, 17)
        assert a == b

    def test_pp_endpoints_equal_strict(self):
        m = model2()
        assert service_start_sequence(m, PP((1.0, 1.0)), 5_000, 17) == service_start_sequence(
            m, Strict((0, 1)), 5_000, 17
        )
        assert service_start_sequence(m, PP((0.0, 1.0)), 5_000, 17) == service_start_sequence(
            m, Strict((1, 0)), 5_000, 17
        )

    def test_ddp_equal_rates_equals_gfcfs(self):
        m = model2()
        assert service_start_sequence(m, DDP((1.0, 1.0)), 5_000, 17) == service_start_sequence(
            m, GFCFS(), 5_000, 17
        )

    def test_busy_periods_shared_across_disciplines(self):
        # common random numbers: the workload trajectory is discipline-free
        m = model2(0.3, 0.2)
        ref = busy_period_boundaries(m, GFCFS(), 4_000, 23)
        for disc in (Strict((1, 0)), DDP((1.0, 3.0)), RP((0.7, 0.3)), PP((0.4, 1.0))):
            other = busy_period_boundaries(m, disc, 4_000, 23)
            n = min(len(ref), len(other))
            # completion times accumulate in discipline-dependent order, so
            # allow float summation drift
            for (s0, e0), (s1, e1) in zip(ref[:n], other[:n]):
                assert math.isclose(s0, s1, rel_tol=0.0, abs_tol=1e-8)
                assert math.isclose(e0, e1, rel_tol=0.0, abs_tol=1e-8)

    def test_pp_monotone_in_omega(self):
        m = model2(dist=DET1)
        means = []
        cis = []
        for om in (0.0, 0.25, 0.5, 0.75, 1.0):
            est = run_sim(m, PP((om, 1.0)), SMALL)
            means.append(est.mean[0])
            cis.append(est.ci_halfwidth_95[0])
        for a, b, ca, cb in zip(means, means[1:], cis, cis[1:]):
            assert b <= a + ca + cb
        # extremes separated beyond their CIs
        assert means[-1] + cis[-1] < means[0] - cis[0]


class TestBusyIntegral:
    def test_zero_ubar_gives_zero_integral(self):
        m = model2()
        iv, ci = estimate_busy_integral(m, 0.0, SMALL)
        assert iv <= 3.0 * ci + 0.06

    def test_strict_limit_approaches_clearing_time(self):
        from mg1lab import expected_clearing_time

        m = model2()
        iv, ci = estimate_busy_integral(m, -math.inf, SMALL)
        assert abs(iv - expected_clearing_time(m, 0)) < 3 * ci + 0.05

    def test_edd_config_endpoints(self):
        m = model2()
        assert edd_config_from_ubar(m, math.inf) == Strict((1, 0))
        assert edd_config_from_ubar(m, -math.inf) == Strict((0, 1))
        assert edd_config_from_ubar(m, 1.5) == EDD((1.5, 0.0))
