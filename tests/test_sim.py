import hashlib
import math
import statistics
import struct
import tracemalloc

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
    WaitVector,
    busy_period_boundaries,
    conservation_residual,
    edd_config_from_ubar,
    estimate_busy_integral,
    gfcfs_wait,
    run_sim,
    rp2_waits,
    service_start_sequence,
    strict_priority_waits_2class,
)
from mg1lab.errors import InvalidParameterError, WrongClassCountError
from mg1lab.sim import _t975, validate_discipline

from holpj_reference import queue_jump_selector

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

    @pytest.mark.parametrize("disc", [
        DDP((1.0, math.nan)),
        DDP((math.inf, 1.0)),
        EDD((math.nan, 0.0)),
        EDD((0.0, math.inf)),
        HOLPJ((math.nan, 2.0)),
        HOLPJ((1.0, math.nan)),
        HOLPJ((1.0, math.inf)),
    ])
    def test_non_finite_parameters_rejected(self, disc):
        # NaN passes `x < 0` and `D[i] >= D[i + 1]`; it must not pass validation
        with pytest.raises(InvalidParameterError):
            run_sim(model2(), disc, SimConfig(seed=1, measured_jobs=1000, replications=2))

    def test_no_arrivals_rejected(self):
        with pytest.raises(InvalidParameterError):
            service_start_sequence(model2(0.0, 0.0), GFCFS(), 1000, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(measured_jobs=1000.5),
        dict(replications=2.0),
        dict(warmup_jobs=10.5),
        dict(measured_jobs="2000"),
    ])
    def test_simconfig_counts_must_be_integers(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, **kwargs)

    def test_simconfig_accepts_numpy_integers(self):
        cfg = SimConfig(seed=np.uint32(1), measured_jobs=np.int64(1000), warmup_jobs=np.int32(0),
                        replications=np.int64(2))
        assert run_sim(model2(), GFCFS(), cfg).sample_count == (
            run_sim(model2(), GFCFS(), SimConfig(seed=1, measured_jobs=1000, warmup_jobs=0,
                                                 replications=2)).sample_count)

    @pytest.mark.parametrize("run", [service_start_sequence, busy_period_boundaries])
    @pytest.mark.parametrize("n_jobs", [10.0, -5, 2.5, None])
    def test_bad_job_count_rejected(self, run, n_jobs):
        with pytest.raises(InvalidParameterError):
            run(model2(), GFCFS(), n_jobs, 1)

    @pytest.mark.parametrize("run", [service_start_sequence, busy_period_boundaries])
    def test_numpy_job_count_accepted(self, run):
        assert run(model2(), GFCFS(), np.int64(200), np.int64(1)) == run(model2(), GFCFS(), 200, 1)

    @pytest.mark.parametrize("seed", [1.5, "3", -1, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=seed)
        for run in (service_start_sequence, busy_period_boundaries):
            with pytest.raises(InvalidParameterError):
                run(model2(), GFCFS(), 200, seed)

    def test_negative_warmup_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, warmup_jobs=-1)
        assert SimConfig(seed=1, warmup_jobs=0).effective_warmup == 0


class TestEmptyClass:
    # class 2 has no arrivals: nothing estimates its wait
    M = model2(0.3, 0.0)

    @pytest.mark.parametrize("replications", [1, 3])
    def test_reports_nan(self, replications):
        cfg = SimConfig(seed=3, measured_jobs=2_000, warmup_jobs=500, replications=replications)
        est = run_sim(self.M, GFCFS(), cfg)
        assert est.sample_count[1] == 0
        assert math.isnan(est.mean[1]) and math.isnan(est.ci_halfwidth_95[1])
        assert math.isfinite(est.mean[0])
        # one replication estimates no spread
        assert math.isfinite(est.ci_halfwidth_95[0]) == (replications > 1)
        assert all(type(x) is float for x in est.mean + est.ci_halfwidth_95)
        # the class without load adds nothing to the conservation residual
        want = conservation_residual(self.M, WaitVector((est.mean[0], 0.0)))
        assert math.isfinite(est.residual) and est.residual == want


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
        with queue_jump_selector():
            a = service_start_sequence(m, HOLPJ((1.0, 3.0), "order"), 5_000, 17)
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


class TestTQuantile:
    def test_matches_scipy(self):
        stdtrit = pytest.importorskip("scipy.special").stdtrit
        for df in [*range(1, 301), 1000, 10_000]:
            want = float(stdtrit(df, 0.975))
            assert abs(_t975(df) - want) <= 1e-12 * want, df

    def test_closed_forms(self):
        # df = 1 is Cauchy, tan(0.475 pi); at df = 2, t / sqrt(2 + t^2) = 0.95
        assert _t975(1) == pytest.approx(math.tan(19 * math.pi / 40), rel=1e-14, abs=0)
        assert _t975(2) == pytest.approx(math.sqrt(722 / 39), rel=1e-14, abs=0)

    def test_decreases_to_normal_quantile(self):
        z = statistics.NormalDist().inv_cdf(0.975)
        q = [_t975(df) for df in (*range(1, 101), 1000, 10_000)]
        assert all(a > b for a, b in zip(q, q[1:]))
        assert 0 < q[-1] - z < 1e-3


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


# ---------------------------------------------------------------------------
# golden traces: sha256 of the 5k-job service-start sequence and of a small
# replicated estimate, per discipline.  A fixed seed gives bit-identical
# traces and means, so a rewrite of the event loop must not move these
# digests; the estimate's CI half-widths also carry the t-quantile
# (`sim._t975`), so a change in its last bits moves them too.  They pin
# numpy's PCG64 streams, so a numpy release that changes a sampler would
# change them too.

H2 = ServiceDistribution.hyperexp2(1.0, 4.0)
N2_DISCS = {
    "gfcfs": GFCFS(),
    "strict01": Strict((0, 1)),
    "strict10": Strict((1, 0)),
    "ddp": DDP((1.0, 2.5)),
    "edd": EDD((0.7, 0.0)),
    "rp": RP((0.3, 0.7)),
    "holpj-jump": HOLPJ((1.0, 3.0), "jump"),
    "holpj-order": HOLPJ((1.0, 3.0), "order"),
    "pp": PP((0.4, 1.0)),
}
N5_DISCS = {
    "gfcfs": GFCFS(),
    "strict": Strict((2, 0, 4, 1, 3)),
    "ddp": DDP((1.0, 0.5, 2.0, 3.0, 0.25)),
    "edd": EDD((0.0, 1.5, 0.3, 2.0, 0.8)),
    "rp": RP((0.1, 0.3, 0.2, 0.25, 0.15)),
    "holpj-jump": HOLPJ((0.5, 1.0, 2.0, 3.5, 5.0), "jump"),
    "holpj-order": HOLPJ((0.5, 1.0, 2.0, 3.5, 5.0), "order"),
}
GOLDEN_MODELS = {
    "n2-exp": model2(0.4, 0.4),
    "n2-h2": model2(0.4, 0.4, H2),
    "n5": SystemModel((
        CustomerClassSpec(0.15, EXP1),
        CustomerClassSpec(0.2, DET1),
        CustomerClassSpec(0.1, ServiceDistribution.erlang(1.0, 3)),
        CustomerClassSpec(0.15, H2),
        CustomerClassSpec(0.2, EXP1),
    )),
}
GOLDEN_CFG = SimConfig(seed=4242, measured_jobs=4_000, warmup_jobs=1_000, replications=3)


GOLDEN_CASES = {
    f"{name}/{dname}": (m, disc)
    for name, m in GOLDEN_MODELS.items()
    for dname, disc in (N5_DISCS if m.n_classes == 5 else N2_DISCS).items()
}


def _golden_digest(m, disc):
    values = [float(x) for rec in service_start_sequence(m, disc, 5_000, 99) for x in rec]
    est = run_sim(m, disc, GOLDEN_CFG)
    values += [float(x) for x in est.mean + est.ci_halfwidth_95]
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


GOLDEN = {
    "n2-exp/gfcfs": "673fdff72ffc184266e903b93b64b3e36ec7fe0802d586789b89a3b043b1f185",
    "n2-exp/strict01": "3f2b2cb5a6300de458108daf016c4350a824577d33f3d39167598b4bce7e09fb",
    "n2-exp/strict10": "83732d101b2adba05008bdc7b8bd6b56678f25807fbd2a693eedd96bd76061c8",
    "n2-exp/ddp": "30c2a9dbd3dc960abe492057fcf7cebdfc40f278a3af557925983ecd04a11ba2",
    "n2-exp/edd": "638c6d4f8a50b4200589a052bd1c89d5dd9d7ed00438efcdc10ddeea39ffe4c3",
    "n2-exp/rp": "202b0f245e6ae02b641c1d0f4b4b135b240ef3b6a175a6aa9060004cb26a58ac",
    "n2-exp/holpj-jump": "5f18dd43699c5e33fdd3b22a6ec27ea91a458e47c69400b38190db9f94489f1e",
    "n2-exp/holpj-order": "5f18dd43699c5e33fdd3b22a6ec27ea91a458e47c69400b38190db9f94489f1e",
    "n2-exp/pp": "1942e83de087b61181f3dedacc7cda51665d16264f991dcf06feb03156b10434",
    "n2-h2/gfcfs": "be3855fbb390d4c28d5ac4f1876e27ed6ea3d86d61e126dd3988240e965e276e",
    "n2-h2/strict01": "d7c49aac52a477bae2a592b54c875102b1a67ef35e10f4a221b38af0f93958d1",
    "n2-h2/strict10": "d8a1be921caed865f71072cbfa576d47d5191416644d7baf40b36104fc1b9fa3",
    "n2-h2/ddp": "c9851dd4d5ceacc829fb5dba403a4550334fd03898c7441618c1c79085af8413",
    "n2-h2/edd": "17d5ee9cd639622c36948d2a5ab5940ce3f9e30f690369ff301579054007249e",
    "n2-h2/rp": "ce605c1aa361d5aeba9ea9a4e9a9b162ce7a20563796f075b70e6ccc6fabf217",
    "n2-h2/holpj-jump": "b8f1cbd2237fe3a3c2409411f67283465d6f0122c15d076a06c0587c3583e830",
    "n2-h2/holpj-order": "b8f1cbd2237fe3a3c2409411f67283465d6f0122c15d076a06c0587c3583e830",
    "n2-h2/pp": "1e6cb3269b03e2c5fefab8b3f5feab9984179ddc8fad38d5f369f92d7fd1230b",
    "n5/gfcfs": "be209a3eeb5fd948232398bfdd86603b95ad135e71beaaccf716392ca7ac828f",
    "n5/strict": "e5a989c7e9acb2b060f377ffc3002601ad76e1967d18f58ddc66a6bd91730cd8",
    "n5/ddp": "222df95acdc96c307057a0964e4867266fbf70924d6df30fab8c9680f98342f2",
    "n5/edd": "debb9003124b433ebd6745fb91460a7d54840dd8ce0f3ee74069a78d9741d85c",
    "n5/rp": "2c5c14e18425759c29c3671d0413f45e49ee24557ed2252461b0a65a5b294280",
    "n5/holpj-jump": "6e30a7c71c3b18efc9587914a4583ec684318b10b40824a598102d40d98e6bc2",
    "n5/holpj-order": "6e30a7c71c3b18efc9587914a4583ec684318b10b40824a598102d40d98e6bc2",
}


@pytest.mark.parametrize("key", list(GOLDEN_CASES))
def test_golden_digest(key):
    assert _golden_digest(*GOLDEN_CASES[key]) == GOLDEN[key]


# ---------------------------------------------------------------------------
# golden pins past the first 4096-draw chunk: the golden traces above stay
# inside each class's first chunk of draws, so these cover the chunk refill
# and the merge of the class arrival streams.  Recorded before the
# index-range rewrite of the event loop; the n3-idle pins hash a replicated
# estimate's CI, so, like GOLDEN, they were re-recorded with the t-quantile.

def _digest(values):
    values = [float(x) for x in values]
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _flat(records):
    return [x for rec in records for x in rec]


N3_IDLE = SystemModel((
    CustomerClassSpec(0.3, EXP1),
    CustomerClassSpec(0.0, EXP1),
    CustomerClassSpec(0.45, H2),
))
N3_IDLE_CFG = SimConfig(seed=77, measured_jobs=10_000, warmup_jobs=0, replications=3)
N3_IDLE_DISCS = {
    "gfcfs": GFCFS(),
    "ddp": DDP((1.0, 2.0, 0.5)),
    "rp": RP((0.2, 0.5, 0.3)),
    "holpj-jump": HOLPJ((0.5, 1.5, 2.0), "jump"),
}


def _n3_idle_digest(disc):
    values = _flat(service_start_sequence(N3_IDLE, disc, 30_000, 5))
    values += _flat(busy_period_boundaries(N3_IDLE, disc, 30_000, 5))
    est = run_sim(N3_IDLE, disc, N3_IDLE_CFG)
    # class 2 has no arrivals, so no estimate: NaN, hashed as the 0.0 that
    # the pins were recorded with, when a class without jobs reported 0.0
    assert est.sample_count[1] == 0 and math.isnan(est.mean[1]) and math.isnan(est.ci_halfwidth_95[1])
    estimate = [0.0 if math.isnan(x) else x for x in est.mean + est.ci_halfwidth_95]
    return _digest(values + estimate + list(est.sample_count))


PIN_CASES = {
    "n2-h2-30k/rp": lambda: _digest(_flat(service_start_sequence(
        GOLDEN_MODELS["n2-h2"], N2_DISCS["rp"], 30_000, 2024))),
    "n2-h2-30k/edd": lambda: _digest(_flat(service_start_sequence(
        GOLDEN_MODELS["n2-h2"], N2_DISCS["edd"], 30_000, 2024))),
    "n2-h2-30k/busy": lambda: _digest(_flat(busy_period_boundaries(
        GOLDEN_MODELS["n2-h2"], GFCFS(), 30_000, 2024))),
    **{f"n3-idle/{k}": (lambda d=d: _n3_idle_digest(d)) for k, d in N3_IDLE_DISCS.items()},
}

# heavy-load RP pins: the low-weight class's queue reaches past its drawn
# chunk, so RP's own queue count refills it.  Recorded before the event loop
# gave up the global arrival merge.
RP_DEEP_CASES = {
    "rp-deep/n2-exp": (model2(0.485, 0.485), RP((0.05, 0.95))),
    "rp-deep/n2-h2": (model2(0.6, 0.37, H2), RP((0.02, 0.98))),
    "rp-deep/n5-exp": (
        SystemModel(tuple(CustomerClassSpec(x, EXP1) for x in (0.2, 0.2, 0.2, 0.2, 0.17))),
        RP((0.01, 0.2, 0.3, 0.5, 1.0)),
    ),
}
PIN_CASES.update({
    k: (lambda m=m, d=d: _digest(_flat(service_start_sequence(m, d, 60_000, 7))))
    for k, (m, d) in RP_DEEP_CASES.items()
})

PINS = {
    "n2-h2-30k/rp": "8bd7481f47939d52615cf4eb9dfc60edf24892878b7a55aa1f3f2e7e36003386",
    "n2-h2-30k/edd": "874c67ae469d0fff095c9a4ab43f06ca3bb7958afe618b6d7653a9e53c64d678",
    "n2-h2-30k/busy": "ff88c01ea9fed9a1ade9c738939e65df1646a563a9b494136dbbef0b33726342",
    "n3-idle/gfcfs": "bcddeb3ba1d15cc07ecbfeb1170e505f8661caad6a2820b5f3c468454442e7fa",
    "n3-idle/ddp": "45c72850ecaa2911b2b4f28e2a70bdf39cef66e52c8e2dac10ca29c21e65effb",
    "n3-idle/rp": "a5a28e7168a573d71d058d3a806604dcadd791ca56e47e605a38decbd9d91f0c",
    "n3-idle/holpj-jump": "9d0c57edcecd608e2698e8d5d1c3afe93fb3f2b91365dfb785ffd176c90c14eb",
    "rp-deep/n2-exp": "4ed8576e30f041bc64d9a6ab5eed6e93ceac7fa9ed7e91ce99de3706d92b13b3",
    "rp-deep/n2-h2": "b8f957f824b4374f04b46b25891d51e6b5941418235f9a3b8caf166d67caf227",
    "rp-deep/n5-exp": "3721e1fa9dede957a76ec3760fe9a00725c16e774578ec670a77527e1bd8a312",
}


@pytest.mark.parametrize("key", list(PIN_CASES))
def test_golden_pin(key):
    assert PIN_CASES[key]() == PINS[key]


def test_memory_does_not_grow_with_run_length():
    # RP at rho = 0.97 with a low-weight class: its queue often reaches past
    # the drawn chunk, so the refills that RP's count makes must drop the
    # served prefix too, or the lists grow with the run
    m, disc = RP_DEEP_CASES["rp-deep/n2-exp"]
    # the first call in a process makes one-time allocations; keep them out of both peaks
    run_sim(m, disc, SimConfig(seed=1, measured_jobs=1000, warmup_jobs=0, replications=1))

    def peak(jobs):
        cfg = SimConfig(seed=3, measured_jobs=jobs, warmup_jobs=0, replications=1)
        tracemalloc.start()
        try:
            run_sim(m, disc, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, big = peak(25_000), peak(100_000)
    assert big < 1.2 * small, (small, big)
