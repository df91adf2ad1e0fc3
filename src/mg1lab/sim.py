"""Seeded discrete-event simulator of a non-preemptive, work-conserving,
non-anticipative multi-class M/G/1 queue under all seven disciplines.

Random draws use one independent substream per (class, purpose) derived
from the master seed, so arrival and service processes are identical
across disciplines for a fixed seed (common random numbers).  Relative
and probabilistic priority consume a dedicated selection substream.
Identical (seed, model, discipline, config) inputs produce bit-identical
estimates.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Optional

import numpy as np

from .core import ServiceDistribution, SystemModel, WaitVector, conservation_residual, gfcfs_wait
from .errors import InvalidParameterError, WrongClassCountError

_CHUNK = 4096
_INF = math.inf


# ---------------------------------------------------------------------------
# discipline configurations

@dataclass(frozen=True)
class Strict:
    order: tuple[int, ...]


@dataclass(frozen=True)
class GFCFS:
    pass


@dataclass(frozen=True)
class DDP:
    b: tuple[float, ...]


@dataclass(frozen=True)
class EDD:
    u: tuple[float, ...]


@dataclass(frozen=True)
class RP:
    p: tuple[float, ...]


@dataclass(frozen=True)
class HOLPJ:
    #: deadlines, strictly increasing, D[0] > 0
    D: tuple[float, ...]
    #: "jump" = explicit queue-jump mechanism; "order" = serve min(arrival + D)
    dispatch: str = "jump"


@dataclass(frozen=True)
class PP:
    #: polling probabilities; the last entry must be 1 (two classes only)
    p: tuple[float, ...]


DisciplineConfig = Strict | GFCFS | DDP | EDD | RP | HOLPJ | PP


def validate_discipline(model: SystemModel, disc: DisciplineConfig) -> None:
    n = model.n_classes
    if isinstance(disc, Strict):
        if sorted(disc.order) != list(range(n)):
            raise InvalidParameterError(f"order must be a permutation of 0..{n - 1}")
    elif isinstance(disc, DDP):
        if len(disc.b) != n or any(x < 0 for x in disc.b) or all(x == 0 for x in disc.b):
            raise InvalidParameterError("DDP needs one rate >= 0 per class, not all zero")
    elif isinstance(disc, EDD):
        if len(disc.u) != n or any(x < 0 for x in disc.u):
            raise InvalidParameterError("EDD needs one urgency >= 0 per class")
    elif isinstance(disc, RP):
        if len(disc.p) != n or any(not x > 0 for x in disc.p):
            raise InvalidParameterError("RP needs one positive parameter per class")
    elif isinstance(disc, HOLPJ):
        if len(disc.D) != n or disc.D[0] <= 0 or any(
            disc.D[i] >= disc.D[i + 1] for i in range(n - 1)
        ):
            raise InvalidParameterError("HOLPJ needs 0 < D1 < D2 < ... <= DN")
        if disc.dispatch not in ("jump", "order"):
            raise InvalidParameterError(f"unknown HOLPJ dispatch {disc.dispatch!r}")
    elif isinstance(disc, PP):
        if n != 2:
            raise WrongClassCountError("PP simulation is defined for two classes only")
        if len(disc.p) != n or any(not 0.0 <= x <= 1.0 for x in disc.p) or disc.p[-1] != 1.0:
            raise InvalidParameterError("PP needs probabilities in [0, 1] with the last fixed to 1")
    elif not isinstance(disc, GFCFS):
        raise InvalidParameterError(f"unknown discipline {disc!r}")


@dataclass(frozen=True)
class SimConfig:
    seed: int
    measured_jobs: int = 100_000
    warmup_jobs: Optional[int] = None  # default: max(10_000, 20% of measured)
    replications: int = 10

    def __post_init__(self):
        if self.measured_jobs < 1000:
            raise InvalidParameterError("measured_jobs must be >= 1000")
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.warmup_jobs is not None and self.warmup_jobs < 0:
            raise InvalidParameterError("warmup_jobs must be >= 0")

    @property
    def effective_warmup(self) -> int:
        if self.warmup_jobs is not None:
            return self.warmup_jobs
        return max(10_000, self.measured_jobs // 5)


@dataclass(frozen=True)
class SimEstimate:
    mean: tuple[float, ...]
    ci_halfwidth_95: tuple[float, ...]
    sample_count: tuple[int, ...]
    residual: float

    def wait_vector(self) -> WaitVector:
        return WaitVector(self.mean)


# ---------------------------------------------------------------------------
# random streams

def _stream(seed_seq, draw):
    """`next` of an endless stream of Python floats drawn _CHUNK at a time."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    return chain.from_iterable(draw(rng, _CHUNK).tolist() for _ in repeat(None)).__next__


def _service_draw(dist: ServiceDistribution):
    if dist.kind == "deterministic":
        m = dist.mean
        return lambda rng, n: np.full(n, m)
    if dist.kind == "exponential":
        m = dist.mean
        return lambda rng, n: rng.exponential(m, n)
    if dist.kind == "erlang-k":
        k = round(1.0 / dist.scv)
        scale = dist.mean / k
        return lambda rng, n: rng.gamma(k, scale, n)
    # balanced-means hyperexponential-2
    x = math.sqrt((dist.scv - 1.0) / (dist.scv + 1.0))
    p1 = 0.5 * (1.0 + x)
    m1 = dist.mean / (2.0 * p1)  # branch means, balanced: p1*m1 == p2*m2
    m2 = dist.mean / (2.0 * (1.0 - p1))

    def draw(rng, n):
        u = rng.random(n)
        e = rng.exponential(1.0, n)
        return np.where(u < p1, e * m1, e * m2)

    return draw


# ---------------------------------------------------------------------------
# selection rules

def _selector(disc: DisciplineConfig, queues: list, draw):
    """Build the discipline's selection rule once, before the event loop.

    The rule is called with the current time when some job waits; it pops
    exactly one job and returns (class, arrival, service).  It never reads
    the service requirement of a job it does not choose (non-anticipative).
    `queues[c]` holds class c's waiting (arrival, service) pairs in arrival
    order; `draw` is the selection substream.
    """
    n = len(queues)
    if isinstance(disc, Strict):
        ordered = [(c, queues[c]) for c in disc.order]

        def select(now):
            for c, q in ordered:
                if q:
                    a, s = q.popleft()
                    return c, a, s
        return select

    if isinstance(disc, DDP):
        heads = list(zip(range(n), queues, disc.b))

        def select(now):
            # largest accrued priority (now - arrival) * b; ties to the earlier arrival
            bc = -1
            for c, q, b in heads:
                if q:
                    a = q[0][0]
                    v = (now - a) * b
                    if bc < 0 or v > bv or (v == bv and a < ba):
                        bv, ba, bc = v, a, c
            a, s = queues[bc].popleft()
            return bc, a, s
        return select

    if isinstance(disc, RP):
        p = disc.p
        if n == 2:
            q0, q1 = queues
            p0, p1 = p

            def select(now):
                if q0 and q1:
                    w0 = len(q0) * p0
                    c = 0 if draw() * (w0 + len(q1) * p1) < w0 else 1
                else:
                    c = 0 if q0 else 1
                a, s = queues[c].popleft()
                return c, a, s
            return select

        def select(now):
            # class c with probability proportional to (queue length) * p[c]
            nonempty = [c for c in range(n) if queues[c]]
            c = nonempty[-1]
            if len(nonempty) > 1:
                acc = list(accumulate([len(queues[cc]) * p[cc] for cc in nonempty]))
                # the scaled draw may round up to the total, which picks the last class
                c = nonempty[min(bisect_right(acc, draw() * acc[-1]), len(acc) - 1)]
            a, s = queues[c].popleft()
            return c, a, s
        return select

    if isinstance(disc, PP):
        q0, q1 = queues
        p0 = disc.p[0]

        def select(now):
            # poll queue 1 with probability p0; an empty queue is skipped, and
            # a queue that waits alone is served with probability 1
            c = 0 if q0 and (not q1 or p0 >= 1.0 or (p0 > 0.0 and draw() < p0)) else 1
            a, s = queues[c].popleft()
            return c, a, s
        return select

    if isinstance(disc, HOLPJ) and disc.dispatch == "jump":
        return _holpj_jump(disc.D, queues)

    # GFCFS, EDD and HOL-PJ ordering are one rule: serve min(arrival + offset)
    offsets = disc.u if isinstance(disc, EDD) else disc.D if isinstance(disc, HOLPJ) else (0.0,) * n
    heads = list(zip(range(n), queues, offsets))

    def select(now):
        # smallest arrival + offset; ties to the earlier arrival
        bc = -1
        for c, q, o in heads:
            if q:
                a = q[0][0]
                v = a + o
                if bc < 0 or v < bv or (v == bv and a < ba):
                    bv, ba, bc = v, a, c
        a, s = queues[bc].popleft()
        return bc, a, s
    return select


def _holpj_jump(D: tuple[float, ...], queues: list):
    """HOL-PJ by its queue-jump mechanism, kept as the reference for the
    ordering rule min(arrival + D).  queues[k] is priority level k, which
    class-k jobs enter on arrival; a job moves up one level each time it has
    waited D[k] - D[k-1] there, and the highest nonempty level is served.
    A job that has jumped is held as (arrival, service, class, entry time
    into its level)."""
    jumps = [(k, queues[k], D[k] - D[k - 1]) for k in range(1, len(queues))]

    def entry(job):
        # a job enters its class's level on arrival
        return job[3] if len(job) > 2 else job[0]

    def select(now):
        # move every due jump, in chronological order of jump instants
        while True:
            due = None
            for k, q, gap in jumps:
                if q:
                    d = entry(q[0]) + gap
                    if d <= now and (due is None or d < due):
                        due, lvl = d, k
            if due is None:
                break
            job = queues[lvl].popleft()
            target = queues[lvl - 1]
            # merge by entry time so level order matches chronology
            idx = len(target)
            while idx > 0 and entry(target[idx - 1]) > due:
                idx -= 1
            target.insert(idx, (job[0], job[1], job[2] if len(job) > 2 else lvl, due))
        for k, q in enumerate(queues):
            if q:
                job = q.popleft()
                return (job[2] if len(job) > 2 else k), job[0], job[1]
    return select


# ---------------------------------------------------------------------------
# one replication

def _replicate(
    model: SystemModel,
    disc: DisciplineConfig,
    warmup: int,
    measured: int,
    rep_seed_seq,
    trace: Optional[list] = None,
    boundaries: Optional[list] = None,
):
    """Run one replication; returns (per-class wait sums, per-class counts)
    over the measured window.  `trace` (if given) collects
    (time, class, arrival_time, wait) for every service start including
    warmup; `boundaries` collects (busy_start, busy_end) pairs."""
    n = model.n_classes
    children = rep_seed_seq.spawn(2 * n + 1)
    arrivals = [
        _stream(children[2 * i], lambda rng, k, m=1.0 / spec.lam: rng.exponential(m, k))
        if spec.lam > 0 else None
        for i, spec in enumerate(model.classes)
    ]
    services = [
        _stream(children[2 * i + 1], _service_draw(spec.service))
        for i, spec in enumerate(model.classes)
    ]
    queues = [deque() for _ in range(n)]
    select = _selector(disc, queues, _stream(children[2 * n], lambda rng, k: rng.random(k)))

    total = warmup + measured
    sums = [0.0] * n
    counts = [0] * n
    next_arr = [nxt() if nxt is not None else _INF for nxt in arrivals]
    ta = min(next_arr)
    ai = next_arr.index(ta)  # earliest pending arrival; ties to the lower class
    two = n == 2
    completion = _INF  # end of the current service; +inf while the server idles
    n_waiting = 0
    starts = 0

    while starts < total:
        if ta < completion:
            # arrival: joins its queue; an idle server is free for it at once (zero wait)
            t = ta
            queues[ai].append((t, services[ai]()))
            next_arr[ai] = t + arrivals[ai]()
            n_waiting += 1
            if completion == _INF:
                busy_start = completion = t
            if two:
                ai = 1 if next_arr[1] < next_arr[0] else 0
            else:
                ai = next_arr.index(min(next_arr))
            ta = next_arr[ai]
        elif n_waiting:
            t = completion
            c, a, s = select(t)
            n_waiting -= 1
            w = t - a
            if starts >= warmup:
                sums[c] += w
                counts[c] += 1
            if trace is not None:
                trace.append((t, c, a, w))
            starts += 1
            completion = t + s
        else:
            if boundaries is not None:
                boundaries.append((busy_start, completion))
            completion = _INF

    return sums, counts


# ---------------------------------------------------------------------------
# public entry points

def run_sim(model: SystemModel, disc: DisciplineConfig, cfg: SimConfig) -> SimEstimate:
    """Replicated simulation estimate of per-class mean waiting times.

    Means are replication averages; the 95% CI half-width uses the
    t-quantile on the across-replication variance.
    """
    validate_discipline(model, disc)
    warmup = cfg.effective_warmup
    n = model.n_classes
    rep_means = np.zeros((cfg.replications, n))
    total_counts = [0] * n
    for r, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.replications)):
        sums, counts = _replicate(model, disc, warmup, cfg.measured_jobs, seq)
        for c in range(n):
            rep_means[r, c] = sums[c] / counts[c] if counts[c] else 0.0
            total_counts[c] += counts[c]

    mean = rep_means.mean(axis=0)
    if cfg.replications > 1:
        from scipy.special import stdtrit  # t-quantile; scipy loads only here

        tq = stdtrit(cfg.replications - 1, 0.975)
        ci = tq * rep_means.std(axis=0, ddof=1) / math.sqrt(cfg.replications)
    else:
        ci = np.zeros(n)
    residual = conservation_residual(model, WaitVector(mean))
    return SimEstimate(tuple(mean), tuple(ci), tuple(total_counts), residual)


def service_start_sequence(
    model: SystemModel, disc: DisciplineConfig, n_jobs: int, seed: int
) -> list[tuple[float, int, float, float]]:
    """Full (time, class, arrival, wait) sequence of the first n_jobs service
    starts for a single replication at the given seed."""
    validate_discipline(model, disc)
    trace: list = []
    _replicate(model, disc, 0, n_jobs, np.random.SeedSequence(seed).spawn(1)[0], trace=trace)
    return trace


def busy_period_boundaries(
    model: SystemModel, disc: DisciplineConfig, n_jobs: int, seed: int
) -> list[tuple[float, float]]:
    """(start, end) of every busy period completed within the first n_jobs
    service starts.  Identical across disciplines for a fixed seed because
    the disciplines are work conserving and draws are synchronized."""
    validate_discipline(model, disc)
    boundaries: list = []
    seq = np.random.SeedSequence(seed).spawn(1)[0]
    _replicate(model, disc, 0, n_jobs, seq, boundaries=boundaries)
    return boundaries


def edd_config_from_ubar(model: SystemModel, ubar: float) -> DisciplineConfig:
    """2-class EDD configuration for an urgency difference u1 - u2 = ubar;
    the infinite endpoints degrade to strict-priority dispatch."""
    model.require_two_classes()
    if ubar == -_INF:
        return Strict((0, 1))
    if ubar == _INF:
        return Strict((1, 0))
    return EDD((max(ubar, 0.0), max(-ubar, 0.0)))


def estimate_busy_integral(
    model: SystemModel, ubar: float, cfg: SimConfig
) -> tuple[float, float]:
    """Simulation estimate of the busy-period integral at urgency difference
    ubar, recovered from the class-1 mean wait; returns (value, ci)."""
    model.require_two_classes()
    rhos = model.rho_per_class
    if rhos[1] == 0:
        raise InvalidParameterError("class 2 load is zero; the integral is undefined")
    est = run_sim(model, edd_config_from_ubar(model, ubar), cfg)
    ew = gfcfs_wait(model)
    value = abs(est.mean[0] - ew) / rhos[1]
    ci = est.ci_halfwidth_95[0] / rhos[1]
    favoured = 1 if ubar >= 0 else 0
    upper = model.w0 / ((1.0 - model.rho) * (1.0 - rhos[favoured]))
    if value > upper + ci:
        warnings.warn(
            f"integral estimate {value:.6g} exceeds branch bound {upper:.6g} beyond its CI; "
            "increase the sample size",
            stacklevel=2,
        )
    return value, ci
