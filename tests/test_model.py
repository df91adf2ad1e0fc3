import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mg1lab import (
    CustomerClassSpec,
    ServiceDistribution,
    SystemModel,
    WaitVector,
    conservation_residual,
    gfcfs_wait,
    segment_point,
    strict_priority_waits_2class,
    wait_bounds,
)
from mg1lab.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnstableSystemError,
    WrongClassCountError,
)


def model2(l1=0.25, l2=0.25, dist=None):
    dist = dist or ServiceDistribution.exponential(1.0)
    return SystemModel((CustomerClassSpec(l1, dist), CustomerClassSpec(l2, dist)))


class TestServiceDistribution:
    def test_deterministic_has_zero_scv(self):
        d = ServiceDistribution.deterministic(2.0)
        assert d.scv == 0.0
        assert d.second_moment == 4.0

    def test_exponential_second_moment(self):
        d = ServiceDistribution.exponential(0.5)
        assert d.second_moment == pytest.approx(2 * 0.25)

    def test_erlang_scv(self):
        d = ServiceDistribution.erlang(1.0, 4)
        assert d.scv == pytest.approx(0.25)

    def test_hyperexp_requires_scv_above_one(self):
        with pytest.raises(InvalidParameterError):
            ServiceDistribution.hyperexp2(1.0, 0.5)

    def test_kind_consistency_enforced(self):
        with pytest.raises(InvalidParameterError):
            ServiceDistribution("deterministic", 1.0, 0.3)

    def test_json_round_trip(self):
        d = ServiceDistribution.hyperexp2(1.3, 2.5)
        assert ServiceDistribution.from_json(d.to_json()) == d


class TestSystemModel:
    def test_loads_and_w0(self):
        m = model2()
        assert m.rho == pytest.approx(0.5)
        # two exponential classes at rate 0.25, mean 1: W0 = sum(lam * E[S^2]/2)
        assert m.w0 == pytest.approx(0.5)

    def test_derived_loads_are_read_only_and_not_fields(self):
        # rho_per_class, rho and w0 are computed once at construction; the
        # dataclass still compares, hashes, prints and replaces by classes
        m = model2(0.2, 0.3, ServiceDistribution.deterministic(1.0))
        assert m.rho_per_class == (0.2, 0.3) and m.rho == 0.2 + 0.3 and m.w0 == 0.5 * 0.2 + 0.5 * 0.3
        assert [f.name for f in dataclasses.fields(m)] == ["classes"]
        twin = model2(0.2, 0.3, ServiceDistribution.deterministic(1.0))
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
        assert "rho" not in repr(m)
        faster = dataclasses.replace(m, classes=model2(0.2, 0.4).classes)
        assert faster.rho_per_class == (0.2, 0.4) and faster.w0 == 0.2 + 0.4 and faster != m
        for name in ("rho_per_class", "rho", "w0"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, 0.0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            model2(0.6, 0.5)

    def test_boundary_load_rejected(self):
        with pytest.raises(UnstableSystemError):
            model2(0.5, 0.5)

    def test_json_round_trip_exact(self):
        m = model2(0.2, 0.3, ServiceDistribution.deterministic(1.0))
        again = SystemModel.from_json_str(m.to_json_str())
        assert again == m
        assert json.loads(m.to_json_str())["classes"][0]["lambda"] == 0.2

    def test_require_two_classes(self):
        dist = ServiceDistribution.exponential(1.0)
        m = SystemModel(tuple(CustomerClassSpec(0.1, dist) for _ in range(3)))
        with pytest.raises(WrongClassCountError):
            m.require_two_classes()


class TestConservation:
    def test_gfcfs_satisfies_conservation(self):
        m = model2()
        w = gfcfs_wait(m)
        assert conservation_residual(m, WaitVector((w, w))) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conservation_residual(model2(), WaitVector((1.0,)))


class TestStrictPriorityEndpoints:
    def test_symmetric_det_endpoints(self):
        m = model2(dist=ServiceDistribution.deterministic(1.0))
        w = strict_priority_waits_2class(m, 0)
        # W0 = 0.25, favoured 0.25/0.75, other 0.25/(0.75*0.5)
        assert w[0] == pytest.approx(1 / 3)
        assert w[1] == pytest.approx(2 / 3)

    def test_endpoints_satisfy_conservation(self):
        m = model2(0.3, 0.15)
        for first in (0, 1):
            w = strict_priority_waits_2class(m, first)
            assert abs(conservation_residual(m, w)) < 1e-12

    def test_wait_bounds_ordering(self):
        m = model2(0.3, 0.15)
        (lo1, hi1), (lo2, hi2) = wait_bounds(m)
        assert lo1 < hi1 and lo2 < hi2


class TestSegment:
    def test_segment_endpoints_are_strict_vectors(self):
        m = model2(0.3, 0.2)
        assert tuple(segment_point(m, 1.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 0))
        )
        assert tuple(segment_point(m, 0.0)) == pytest.approx(
            tuple(strict_priority_waits_2class(m, 1))
        )

    def test_segment_interior_conserves(self):
        m = model2(0.3, 0.2)
        for alpha in (0.1, 0.5, 0.9):
            assert abs(conservation_residual(m, segment_point(m, alpha))) < 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            segment_point(model2(), 1.5)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lams=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 0.95)),
        mean=st.floats(0.1, 2.0),
        scv=st.sampled_from((0.0, 0.5, 1.0, 4.0)),
        alpha=st.floats(0.0, 1.0),
    )
    def test_point_is_convex_combination_of_endpoints(self, lams, mean, scv, alpha):
        assume(0.0 < sum(lams) * mean < 0.98)
        kind = {0.0: "deterministic", 0.5: "erlang-k", 1.0: "exponential"}.get(
            scv, "balanced-hyperexponential-2")
        dist = ServiceDistribution(kind, mean, scv)
        m = SystemModel([CustomerClassSpec(lam, dist) for lam in lams])
        end_12, end_21 = strict_priority_waits_2class(m, 0), strict_priority_waits_2class(m, 1)
        want = tuple(alpha * a + (1.0 - alpha) * b for a, b in zip(end_12.w, end_21.w))
        assert segment_point(m, alpha).w == want
