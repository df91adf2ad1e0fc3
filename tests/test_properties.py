"""Property tests of the paper's equivalences on random stable models.

Each example draws a model with 2-5 classes (mixed service kinds, some
classes possibly without arrivals).  The simulator properties add a seed
and run a few thousand jobs; the analytic ones check the conservation law
for the N-class waits, the round trips of the beta, p1, busy-period
integral and segment-weight maps, that every map lands exactly on the
strict-priority ends, that each scheme record's waits, inverse and
simulator discipline meet there, and the PP approximation's discriminant
bound.
Hypothesis runs derandomized and without an example database, so every
run tries the same examples.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mg1lab import (
    DDP,
    EDD,
    GFCFS,
    HOLPJ,
    PP,
    RP,
    SCHEMES,
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
    ddp2_waits,
    ddp_waits,
    edd2_waits_from_integral,
    expected_clearing_time,
    integral_from_beta,
    p1_from_alpha,
    p1_from_beta,
    pp2_waits_approx,
    rp2_waits,
    rp_waits,
    run_sim,
    service_start_sequence,
    strict_priority_waits_2class,
)
from mg1lab.cli import main
from mg1lab.sim import validate_discipline

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


#: the schemes with an exact map to beta
EXACT = tuple(name for name, scheme in SCHEMES.items() if scheme.to_beta is not None)
#: alpha_from_p1(m, 1.0) was 1.0000000000000004 here, one ulp of rp2_waits off the end
EDGE_23 = SystemModel([CustomerClassSpec(0.23, ServiceDistribution.exponential(1.0)),
                       CustomerClassSpec(0.13, ServiceDistribution.hyperexp2(1.0, 4.0))])
#: p1_from_beta(rho, 0.0) was 1.0000000000000002 here
EDGE_01 = SystemModel([CustomerClassSpec(0.01, ServiceDistribution.exponential(1.0)),
                       CustomerClassSpec(0.06, ServiceDistribution.exponential(1.0))])
#: the scalar flag of each exactly-mapped scheme in `analyze`
FLAGS = {"ddp": "--beta", "rp": "--p1", "edd": "--integral"}


def _map_end(m, scheme, first):
    """(value, EDD branch) of the scheme's end that serves class `first`
    first, in its map currency: EDD's is the branch's clearing time."""
    if scheme == "edd":
        return expected_clearing_time(m, first), ("neg", "nonneg")[first]
    return SCHEMES[scheme].ends[first], "nonneg"


def _waits(m, scheme, value, branch):
    """The exact waits at a map-currency value, through its domain check."""
    if scheme == "edd":
        return edd2_waits_from_integral(m, value, branch)
    return (ddp2_waits if scheme == "ddp" else rp2_waits)(m, value)


def _cli(m, *argv):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.json")
        with open(path, "w") as fh:
            fh.write(m.to_json_str())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--config", path]) == 0
    return json.loads(out.getvalue())


@ANALYTIC
@given(models(st.just(2), empty=False), st.sampled_from(EXACT), st.sampled_from(EXACT),
       st.sampled_from([0, 1, None]), st.floats(0.0, 1.0), st.sampled_from(["neg", "nonneg"]))
@example(EDGE_23, "rp", "ddp", 0, 0.5, "neg")
@example(EDGE_01, "ddp", "rp", 0, 0.5, "neg")
def test_scheme_maps_meet_their_consumers_and_the_ends(m, src, dst, first, frac, branch):
    # src value -> beta -> dst value, each accepted by its consumer; an end
    # (first = the class served first) maps to the same end exactly
    if first is not None:
        value, branch = _map_end(m, src, first)
    elif src == "edd":
        value = frac * expected_clearing_time(m, ("neg", "nonneg").index(branch))
    else:
        value = frac if src == "rp" else (frac / (1.0 - frac) if frac < 1.0 else math.inf)
    beta = SCHEMES[src].to_beta(m, value, branch)
    out = SCHEMES[dst].from_beta(m, beta)
    _waits(m, dst, out, integral_from_beta(m, beta)[1])
    if src == "rp":  # the segment weight alpha and back
        alpha = alpha_from_p1(m, value)
        assert 0.0 <= alpha <= 1.0 and math.copysign(1.0, alpha) == 1.0
        p1 = p1_from_alpha(m, alpha)
        rp2_waits(m, p1)
    if first is None:
        return
    assert beta == SCHEMES["ddp"].ends[first]
    assert out == _map_end(m, dst, first)[0]
    if src == "rp":
        assert alpha == 1 - first and p1 == value
    # the CLI at an end reports wait_bounds' vector bit for bit
    strict = list(strict_priority_waits_2class(m, first))
    assert _cli(m, "analyze", "--discipline", src, FLAGS[src], repr(value), "--sign", branch)["waits"] == strict
    mapped = _cli(m, "map", "--from", f"{src}:{value!r}", "--sign", branch, "--to", dst)
    assert mapped["to"]["value"] == (out if math.isfinite(out) else None)  # JSON writes inf as null
    assert mapped["waits"] == strict


def _interior(scheme, frac):
    """The scheme's parameter strictly between its ends at frac in (0, 1)."""
    if scheme == "ddp":
        return frac / (1.0 - frac)
    if scheme in ("edd", "holpj"):
        return math.tan(math.pi * (frac - 0.5))
    return frac


@ANALYTIC
@given(models(st.just(2), empty=False), st.sampled_from(list(SCHEMES)), st.sampled_from([0, 1]),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(EDGE_23, "rp", 0, 0.5)
@example(EDGE_23, "ddp", 0, 0.5)
def test_scheme_records_meet_at_the_ends(m, name, first, frac):
    # at the end serving class `first` first a record's waits are
    # wait_bounds' vector bit for bit and its discipline is Strict; between
    # the ends its discipline is valid and its inverse recovers the class-1
    # wait to achieve_target's tolerance
    scheme, end, value = SCHEMES[name], SCHEMES[name].ends[first], _interior(name, frac)
    assert scheme.discipline(end) == Strict((first, 1 - first))
    if scheme.config is not None:
        validate_discipline(m, scheme.discipline(value))
    if scheme.waits is not None:
        assert tuple(scheme.waits(m, end)) == tuple(strict_priority_waits_2class(m, first))
    if scheme.inverse is not None:
        w1 = scheme.waits(m, value)[0]
        assert math.isclose(scheme.waits(m, scheme.inverse(m, w1))[0], w1, rel_tol=1e-10)


@ANALYTIC
@given(st.floats(1e-9, 0.9), st.floats(0.0, 1.0), st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_pp_discriminants_stay_above_the_cauchy_schwarz_bound(gap, share, omega1):
    # both discriminants of the PP approximation, formed as analytic._pp_q
    # forms them, are at least (1 - rho)**2 up to rounding; omega1 = None
    # draws the worst weight rho1 / rho
    r1, r2 = (1.0 - gap) * share, (1.0 - gap) * (1.0 - share)
    rho = r1 + r2
    omega1 = r1 / rho if omega1 is None else omega1
    omega2 = 1.0 - omega1
    a1 = 1.0 + omega1 * r1 - omega2 * r2
    a2 = 1.0 + omega2 * r2 - omega1 * r1
    for d in (a1 * a1 - 4.0 * omega1 * r1, a2 * a2 - 4.0 * omega2 * r2):
        assert d >= (1.0 - rho) ** 2 - 1e-15
    if 0.0 < rho < 1.0 - 1e-9:
        m = SystemModel([CustomerClassSpec(r1, ServiceDistribution.exponential(1.0)),
                         CustomerClassSpec(r2, ServiceDistribution.exponential(1.0))])
        assert all(math.isfinite(w) for w in pp2_waits_approx(m, omega1))
