import hashlib
import math
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
from mg1lab.sim import validate_discipline

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
# replicated estimate, per discipline.  The event loop may be rewritten, but
# these digests (recorded before the selector rewrite) must not move: a fixed
# seed gives bit-identical results.  They pin numpy's PCG64 streams, so a
# numpy release that changes a sampler would change them too.

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
    "n2-exp/gfcfs": "ac9b7352075b5290520f14e7ef17ee9cb8e2bc79f74d23573745bca043d60f78",
    "n2-exp/strict01": "f887e865582f349659ec0a30f2bfdad0a4b05d39ef171a47afb7545a88928e68",
    "n2-exp/strict10": "3fb172a69dfc39963790ebcbfbb1a126eae3b3e3a9a2290802eed9dbc6b52161",
    "n2-exp/ddp": "c28c8e311fe3cf6f769fc5a8c6250c9b60cf915aa0432a32b52b2af0f63ae5f6",
    "n2-exp/edd": "e0ace2b144120528e383b2e11422559089a48a01fdacf2b7dadfca4d43c2cec5",
    "n2-exp/rp": "94e2b3ee9abf9662cca7148321423352c3c71156cceff0dbe6a1d1635210556e",
    "n2-exp/holpj-jump": "5c2f43b7a458146e5084a8bb4faec78748017a2e9f89923ebc33035c182996c9",
    "n2-exp/holpj-order": "5c2f43b7a458146e5084a8bb4faec78748017a2e9f89923ebc33035c182996c9",
    "n2-exp/pp": "f0fdf109ece00d9e646073e3fc655aed55af5ae0bb4df6161c944335be89daef",
    "n2-h2/gfcfs": "06abba8de7437d617c231a4a0c63ca0b15cc83b7b78a87575b03ba75ce549a01",
    "n2-h2/strict01": "9d3df6df5ecc3c8e2ccf781fd46ab6551878fe864bc718552a78349c79f7dcb5",
    "n2-h2/strict10": "4cfea20dde04ca7200652cddad6eef9f343c9beb7f4620b1d38e343073296908",
    "n2-h2/ddp": "762b8071b8c9a3b45c5bb563ed4b2bff1ef6398773ffd8ae4c886b29d41d18dc",
    "n2-h2/edd": "e5e3ea47c625b36af6a519bae4c180d608ac4e0f75c5c0310d0473844efb3815",
    "n2-h2/rp": "68134695962ab428c75c9363a20fd6aaf06cf42fe8dbea4f45cbd643f48b51c0",
    "n2-h2/holpj-jump": "f225368ff3d5743329640e8ca9ab54b0b28ad0d5049d5674f517234650c0af90",
    "n2-h2/holpj-order": "f225368ff3d5743329640e8ca9ab54b0b28ad0d5049d5674f517234650c0af90",
    "n2-h2/pp": "59294e0ff58294124ba83c9ee2c7dd9bf70d4f62dcab13129ec34c68b81c0bab",
    "n5/gfcfs": "a0dddb10ea53590406aa3ae5a2989cc91b14019b95a1e46850a911a407b9d3ee",
    "n5/strict": "d5870cd5c8942e122f0a74ea6b592121c9a260eb8349da0c0d2cd596560f5db0",
    "n5/ddp": "58c69b4dc9a23b4e18728d0e48bd83281e9d8feb9ed938d81a992f6f9c5763e3",
    "n5/edd": "b528dd87fdc48ce5f4e6b05731d336468cac0cc35fe0c306babb0590fa7a1dbb",
    "n5/rp": "d3c0b51be8f6697b888484672e88e001d65db9deff27161bda044c0128dcc17c",
    "n5/holpj-jump": "7a149434b136e17e6d363b146347a609472751de1e4a5c94560b6d58edde2699",
    "n5/holpj-order": "7a149434b136e17e6d363b146347a609472751de1e4a5c94560b6d58edde2699",
}


@pytest.mark.parametrize("key", list(GOLDEN_CASES))
def test_golden_digest(key):
    assert _golden_digest(*GOLDEN_CASES[key]) == GOLDEN[key]


# ---------------------------------------------------------------------------
# golden pins past the first 4096-draw chunk: the golden traces above stay
# inside each class's first chunk of draws, so these cover the chunk refill
# and the merge of the class arrival streams.  Recorded, like GOLDEN, before
# the index-range rewrite of the event loop.

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
    "n3-idle/gfcfs": "7535266c78ce4f7e99e429f857b2958f102e3a2e7a7f839f7960f946c6cdcda5",
    "n3-idle/ddp": "9228d7cd46fd4d0dc8a08142fe46bb6cce92c28c0b51e602c6023a2c9ac94d85",
    "n3-idle/rp": "09c9ed0eb3a1a2781cefb745778173a5b5cdddb0dbfb91702d2d9dbe3dbd139c",
    "n3-idle/holpj-jump": "d505e438d536dea52c1802e245847f89968f0480230169864fef59c8cce97202",
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
