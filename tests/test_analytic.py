import math

import numpy as np
import pytest

from mg1lab import (
    CustomerClassSpec,
    ServiceDistribution,
    SystemModel,
    conservation_residual,
    ddp_waits,
    ddp2_waits,
    edd2_waits_from_integral,
    expected_clearing_time,
    gfcfs_wait,
    pp2_waits_approx,
    rp_waits,
    rp2_kernel,
    rp2_waits,
    strict_priority_waits_2class,
)
from mg1lab.errors import IntegralOutOfRangeError, InvalidParameterError

EXP1 = ServiceDistribution.exponential(1.0)
DET1 = ServiceDistribution.deterministic(1.0)


def model2(l1=0.25, l2=0.25, dist=EXP1):
    return SystemModel((CustomerClassSpec(l1, dist), CustomerClassSpec(l2, dist)))


def random_models(n, seed=0):
    rng = np.random.default_rng(seed)
    dists = (
        lambda m: ServiceDistribution.deterministic(m),
        lambda m: ServiceDistribution.exponential(m),
        lambda m: ServiceDistribution.erlang(m, 3),
        lambda m: ServiceDistribution.hyperexp2(m, 2.0),
    )
    out = []
    for _ in range(n):
        d1 = dists[rng.integers(4)](rng.uniform(0.3, 1.4))
        d2 = dists[rng.integers(4)](rng.uniform(0.3, 1.4))
        r1 = rng.uniform(0.05, 0.6)
        r2 = rng.uniform(0.05, 0.9 - r1)
        out.append(
            SystemModel(
                (CustomerClassSpec(r1 / d1.mean, d1), CustomerClassSpec(r2 / d2.mean, d2))
            )
        )
    return out


class TestDDP:
    def test_equal_rates_give_gfcfs(self):
        m = model2(0.3, 0.2)
        w = ddp_waits(m, (2.0, 2.0))
        assert w[0] == pytest.approx(gfcfs_wait(m), abs=1e-12)
        assert w[1] == pytest.approx(gfcfs_wait(m), abs=1e-12)

    def test_beta_one_is_gfcfs(self):
        m = model2(0.3, 0.2)
        w = ddp2_waits(m, 1.0)
        assert w[0] == pytest.approx(gfcfs_wait(m), abs=1e-12)

    def test_beta_zero_and_inf_hit_strict_endpoints(self):
        m = model2(0.3, 0.2)
        assert tuple(ddp2_waits(m, 0.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 0)), abs=1e-12
        )
        assert tuple(ddp2_waits(m, math.inf)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 1)), abs=1e-12
        )

    def test_two_class_recursion_matches_closed_form(self):
        for m in random_models(10, seed=5):
            for beta in (0.2, 0.8, 1.0, 1.7, 6.0):
                wa = ddp_waits(m, (1.0, beta))
                wb = ddp2_waits(m, beta)
                assert wa[0] == pytest.approx(wb[0], abs=1e-10)
                assert wa[1] == pytest.approx(wb[1], abs=1e-10)

    def test_monotone_and_continuous_in_beta(self):
        m = model2(0.3, 0.2)
        betas = np.logspace(-3, 3, 1000)
        w1 = [ddp2_waits(m, b)[0] for b in betas]
        w2 = [ddp2_waits(m, b)[1] for b in betas]
        assert all(b >= a - 1e-12 for a, b in zip(w1, w1[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(w2, w2[1:]))
        # continuity at the branch point beta = 1
        assert ddp2_waits(m, 1.0 - 1e-12)[0] == pytest.approx(ddp2_waits(m, 1.0)[0], abs=1e-9)

    def test_n_class_conservation(self):
        dist = ServiceDistribution.exponential(0.8)
        m = SystemModel(tuple(CustomerClassSpec(0.2, dist) for _ in range(4)))
        w = ddp_waits(m, (1.0, 2.0, 3.0, 4.0))
        assert abs(conservation_residual(m, w)) < 1e-10

    def test_all_zero_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            ddp_waits(model2(), (0.0, 0.0))


class TestRP:
    def test_n_class_agrees_with_closed_form(self):
        for m in random_models(10, seed=6):
            for p1 in np.linspace(0.001, 0.999, 100):
                wa = rp_waits(m, (p1, 1.0 - p1))
                wb = rp2_waits(m, p1)
                assert abs(wa[0] - wb[0]) < 1e-12 * max(1.0, wb[0])
                assert abs(wa[1] - wb[1]) < 1e-12 * max(1.0, wb[1])

    def test_half_is_gfcfs(self):
        m = model2(0.3, 0.2)
        w = rp2_waits(m, 0.5)
        assert w[0] == pytest.approx(gfcfs_wait(m), abs=1e-12)

    def test_endpoints_exact(self):
        m = model2(0.3, 0.2)
        assert tuple(rp2_waits(m, 1.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 0)), abs=1e-12
        )
        assert tuple(rp2_waits(m, 0.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 1)), abs=1e-12
        )

    def test_n_class_conservation(self):
        dist = ServiceDistribution.erlang(1.0, 2)
        m = SystemModel(tuple(CustomerClassSpec(0.15, dist) for _ in range(5)))
        w = rp_waits(m, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert abs(conservation_residual(m, w)) < 1e-10


class TestRP2Kernel:
    def test_array_call_bit_identical_to_scalar_waits(self):
        grid = np.linspace(0.0, 1.0, 1001)
        for m in random_models(5, seed=11):
            r1, r2 = m.rho_per_class
            w1, w2 = rp2_kernel(r1, r2, m.w0, grid)
            ref = [rp2_waits(m, p) for p in grid]
            assert w1.tolist() == [w[0] for w in ref]
            assert w2.tolist() == [w[1] for w in ref]

    def test_unstable_load_gives_inf(self):
        for r1, r2 in ((0.6, 0.4), (0.7, 0.5), (0.5, 0.5 - 1e-10)):
            assert rp2_kernel(r1, r2, 0.5, 0.3) == (math.inf, math.inf)
        w1, w2 = rp2_kernel(np.array([0.2, 0.6, 0.9]), np.array([0.3, 0.4, 0.9]), 0.5, 0.3)
        assert np.isfinite(w1[0]) and np.isfinite(w2[0])
        assert np.isinf(w1[1:]).all() and np.isinf(w2[1:]).all()


class TestPP:
    def test_symmetric_det_benchmark_value(self):
        # omega1 = 0.675 puts the approximate class-1 wait at exactly 0.5
        m = model2(dist=DET1)
        w = pp2_waits_approx(m, 0.675)
        assert w[0] == pytest.approx(0.5, abs=1e-9)

    def test_monotone_nonincreasing_in_omega(self):
        # interior only: at the endpoints the exact strict vectors replace the
        # approximation, which for non-exponential service has a small jump
        m = model2(0.3, 0.2, DET1)
        omegas = np.linspace(0.0, 1.0, 500)[1:-1]
        w1 = [pp2_waits_approx(m, o)[0] for o in omegas]
        assert all(b <= a + 1e-12 for a, b in zip(w1, w1[1:]))

    def test_endpoints_are_strict_vectors(self):
        m = model2(0.3, 0.2, DET1)
        assert tuple(pp2_waits_approx(m, 1.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 0)), abs=1e-12
        )
        assert tuple(pp2_waits_approx(m, 0.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 1)), abs=1e-12
        )


class TestEDD:
    def test_zero_integral_is_gfcfs(self):
        m = model2(0.3, 0.2)
        for sign in ("nonneg", "neg"):
            w = edd2_waits_from_integral(m, 0.0, sign)
            assert w[0] == pytest.approx(gfcfs_wait(m), abs=1e-12)

    def test_full_integral_hits_strict_endpoint(self):
        m = model2(0.3, 0.2)
        w = edd2_waits_from_integral(m, expected_clearing_time(m, 0), "neg")
        assert tuple(w) == pytest.approx(tuple(strict_priority_waits_2class(m, 0)), abs=1e-10)
        w = edd2_waits_from_integral(m, expected_clearing_time(m, 1), "nonneg")
        assert tuple(w) == pytest.approx(tuple(strict_priority_waits_2class(m, 1)), abs=1e-10)

    def test_out_of_range_integral_rejected(self):
        m = model2(0.3, 0.2)
        with pytest.raises(IntegralOutOfRangeError):
            edd2_waits_from_integral(m, expected_clearing_time(m, 0) * 1.5, "neg")

    def test_conservation_on_both_branches(self):
        for m in random_models(10, seed=7):
            for sign, k in (("neg", 0), ("nonneg", 1)):
                upper = expected_clearing_time(m, k)
                for frac in (0.1, 0.5, 0.9):
                    w = edd2_waits_from_integral(m, frac * upper, sign)
                    assert abs(conservation_residual(m, w)) < 1e-10
