"""Property tests of the paper's equivalences on random stable models.

Each example draws a model with 2-5 classes (mixed service kinds, some
classes possibly without arrivals).  The simulator properties add a seed
and run a few thousand jobs; the analytic ones check the conservation law
for the N-class waits and the round trips of the beta, p1, busy-period
integral and segment-weight maps.  Hypothesis runs derandomized and
without an example database, so every run tries the same examples.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

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
    alpha_from_p1,
    beta_from_integral,
    beta_from_p1,
    busy_period_boundaries,
    conservation_residual,
    ddp_waits,
    integral_from_beta,
    p1_from_alpha,
    p1_from_beta,
    rp_waits,
    run_sim,
    service_start_sequence,
)

from holpj_reference import list_loop, queue_jump_selector

JOBS = 3_000
REFILL_JOBS = 8_200  # one of two classes then starts over 4096 jobs: a chunk refill
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)
ANALYTIC = settings(PROPERTY, max_examples=300)  # no simulation: cheap examples

seeds = st.integers(0, 2**32 - 1)


@st.composite
def services(draw):
    mean = draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["exponential", "deterministic", "erlang", "hyperexp2"]))
    if kind == "exponential":
        return ServiceDistribution.exponential(mean)
    if kind == "deterministic":
        return ServiceDistribution.deterministic(mean)
    if kind == "erlang":
        return ServiceDistribution.erlang(mean, draw(st.integers(2, 4)))
    return ServiceDistribution.hyperexp2(mean, draw(st.floats(1.5, 8.0)))


@st.composite
def models(draw, sizes=st.integers(2, 5), empty=True):
    """Stable models of `sizes` classes at load 0.2-0.9; with `empty`, some
    classes may have no arrivals."""
    n = draw(sizes)
    rho = draw(st.floats(0.2, 0.9))
    share = st.one_of(st.just(0.0), st.floats(0.05, 1.0)) if empty else st.floats(0.05, 1.0)
    weights = draw(st.lists(share, min_size=n, max_size=n).filter(lambda w: sum(w) > 0))
    dists = [draw(services()) for _ in range(n)]
    total = sum(weights)
    return SystemModel(tuple(
        CustomerClassSpec(rho * w / total / d.mean, d) for w, d in zip(weights, dists)
    ))


@st.composite
def deadlines(draw, n):
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    D, acc = [], 0.0
    for g in gaps:
        acc += g
        D.append(acc)
    return tuple(D)


@st.composite
def disciplines(draw, n):
    rates = st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n).filter(any)
    out = [
        GFCFS(),
        Strict(tuple(draw(st.permutations(range(n))))),
        DDP(tuple(draw(rates))),
        EDD(tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))),
        RP(tuple(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))),
        HOLPJ(draw(deadlines(n)), "jump"),
        HOLPJ(draw(deadlines(n)), "order"),
    ]
    if n == 2:
        out.append(PP((draw(st.floats(0.0, 1.0)), 1.0)))
    return out


@PROPERTY
@given(st.data(), models(), seeds)
def test_holpj_jump_equals_order(data, m, seed):
    D = data.draw(deadlines(m.n_classes))
    with queue_jump_selector():
        jump = service_start_sequence(m, HOLPJ(D, "order"), JOBS, seed)
    assert jump == service_start_sequence(m, HOLPJ(D, "order"), JOBS, seed)


def _bits(values):
    values = [float(x) for x in values]
    return struct.pack(f"<{len(values)}d", *values)


@PROPERTY
@given(st.data(), st.one_of(models(st.just(2), empty=False), models(st.just(2))), seeds)
def test_two_class_loop_equals_list_loop(data, m, seed):
    # the list loop with the N-class rules is the reference for the
    # two-class loop and its tie-breakers; RP runs only the list loop, and
    # PP has no N-class rule (test_sim.py pins it and its strict endpoints)
    cfg = SimConfig(seed=seed, measured_jobs=1_000, warmup_jobs=500, replications=2)

    def outputs(disc):
        est = run_sim(m, disc, cfg)
        return (service_start_sequence(m, disc, REFILL_JOBS, seed),
                busy_period_boundaries(m, disc, JOBS, seed),
                _bits(est.mean + est.ci_halfwidth_95 + est.sample_count + (est.residual,)))

    for disc in data.draw(disciplines(2)):
        if isinstance(disc, (RP, PP)):
            continue
        with list_loop():
            reference = outputs(disc)
        assert outputs(disc) == reference


@PROPERTY
@given(models(), seeds, st.floats(0.0, 5.0))
def test_edd_equal_urgencies_equals_gfcfs(m, seed, u):
    edd = service_start_sequence(m, EDD((u,) * m.n_classes), JOBS, seed)
    assert edd == service_start_sequence(m, GFCFS(), JOBS, seed)


@PROPERTY
@given(st.data(), models(), seeds)
def test_busy_periods_shared_across_disciplines(data, m, seed):
    # common random numbers make the workload discipline-free; a busy period
    # starts at an arrival, but its end sums the services in service order
    ref = busy_period_boundaries(m, GFCFS(), JOBS, seed)
    for disc in data.draw(disciplines(m.n_classes)):
        other = busy_period_boundaries(m, disc, JOBS, seed)
        assert len(other) == len(ref)
        for (s0, e0), (s1, e1) in zip(ref, other):
            assert s0 == s1
            assert math.isclose(e0, e1, rel_tol=1e-12, abs_tol=1e-9)


@PROPERTY
@given(st.data(), models(), seeds)
def test_run_sim_repeats_bit_identical(data, m, seed):
    disc = data.draw(st.sampled_from(data.draw(disciplines(m.n_classes))))
    cfg = SimConfig(seed=seed, measured_jobs=1_000, warmup_jobs=500, replications=2)
    a, b = run_sim(m, disc, cfg), run_sim(m, disc, cfg)
    # bytes, not ==: a class without arrivals reports NaN
    assert _bits(a.mean + a.ci_halfwidth_95 + a.sample_count) == _bits(
        b.mean + b.ci_halfwidth_95 + b.sample_count)


@ANALYTIC
@given(models(), st.data())
def test_n_class_waits_conserve_work(m, data):
    n = m.n_classes
    rates = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n).filter(any))
    weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    assert abs(conservation_residual(m, ddp_waits(m, rates))) < 1e-10
    assert abs(conservation_residual(m, rp_waits(m, weights))) < 1e-10


@ANALYTIC
@given(models(st.just(2), empty=False), st.floats(0.0, 1.0))
def test_segment_maps_round_trip(m, alpha):
    # alpha -> p1 -> beta -> busy-period integral -> beta -> p1 -> alpha
    p1 = p1_from_alpha(m, alpha)
    beta = beta_from_p1(m.rho, p1)
    integral, branch = integral_from_beta(m, beta)
    back = beta_from_integral(m, integral, branch)
    assert back == beta or math.isclose(back, beta, rel_tol=1e-9, abs_tol=1e-12)
    p1_back = p1_from_beta(m.rho, back)
    assert math.isclose(p1_back, p1, abs_tol=1e-12)
    assert math.isclose(alpha_from_p1(m, p1_back), alpha, abs_tol=1e-9)
