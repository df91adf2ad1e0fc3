"""Seeded discrete-event simulator of a non-preemptive, work-conserving,
non-anticipative multi-class M/G/1 queue under all seven disciplines.

Random draws use one independent substream per (class, purpose) derived
from the master seed, so arrival and service processes are identical
across disciplines for a fixed seed (common random numbers).  Relative
and probabilistic priority consume a dedicated selection substream.
Identical (seed, model, discipline, config) inputs produce bit-identical
estimates.

Class c's waiting jobs are the index range A[c][head[c]:tail[c]] of its
pre-drawn arrival times; the event loop admits arrivals from merged,
time-ordered runs, serves an arrival to an idle server at once, and calls
the discipline's selection rule only to pick the class served next.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .analytic import expected_clearing_time
from .core import ServiceDistribution, SystemModel, WaitVector, conservation_residual, gfcfs_wait
from .errors import InvalidParameterError, WrongClassCountError

_CHUNK = 4096  # draws per substream call; H2 services interleave two draws per chunk
_RUN = 1024  # most arrivals per merged run, which bounds the floats held beyond the queue
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
    #: "jump" or "order": both select the ordering rule min(arrival + D)
    dispatch: str = "jump"


@dataclass(frozen=True)
class PP:
    #: polling probabilities; the last entry must be 1 (two classes only)
    p: tuple[float, ...]


DisciplineConfig = Strict | GFCFS | DDP | EDD | RP | HOLPJ | PP


def validate_discipline(model: SystemModel, disc: DisciplineConfig) -> None:
    n = model.n_classes
    if model.rho == 0:
        raise InvalidParameterError("no class has arrivals; there is nothing to simulate")
    if isinstance(disc, Strict):
        if sorted(disc.order) != list(range(n)):
            raise InvalidParameterError(f"order must be a permutation of 0..{n - 1}")
    elif isinstance(disc, DDP):
        if len(disc.b) != n or not all(0 <= x < _INF for x in disc.b) or not any(disc.b):
            raise InvalidParameterError("DDP needs one finite rate >= 0 per class, not all zero")
    elif isinstance(disc, EDD):
        if len(disc.u) != n or not all(0 <= x < _INF for x in disc.u):
            raise InvalidParameterError("EDD needs one finite urgency >= 0 per class")
    elif isinstance(disc, RP):
        if len(disc.p) != n or not all(0 < x < _INF for x in disc.p):
            raise InvalidParameterError("RP needs one finite positive parameter per class")
    elif isinstance(disc, HOLPJ):
        D = tuple(disc.D)
        if len(D) != n or not all(x < y for x, y in zip((0.0,) + D, D + (_INF,))):
            raise InvalidParameterError("HOLPJ needs finite deadlines 0 < D1 < D2 < ... < DN")
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


# ---------------------------------------------------------------------------
# random streams

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


def _arrivals(model: SystemModel, children, A: list, S: list, head: list, tail: list):
    """Build `merge()`, which returns the next run of at most _RUN arrivals
    as (times + [+inf], classes), in time order with ties to the lower
    class, and appends their times to A.  A class's arrival times are drawn
    _CHUNK at a time into `pending` (and its services into S) once it has
    nothing left to merge but its last draw; a run holds only arrivals
    before the earliest last draw, which no later draw can precede.  Served
    prefixes of A and S are dropped first, so memory stays at the queue
    plus about a chunk per class."""
    sources = [
        (c, np.random.default_rng(children[2 * c]), 1.0 / spec.lam,
         np.random.default_rng(children[2 * c + 1]), _service_draw(spec.service))
        for c, spec in enumerate(model.classes) if spec.lam > 0
    ]
    active = [c for c, *_ in sources]
    pending = {c: np.empty(0) for c in active}  # drawn, not yet merged

    def merge():
        for c, h in enumerate(head):
            if h:
                # A's lists are shared with the selection rule, so they are cut
                # in place; S's are rebuilt, which measured a lower peak RSS
                del A[c][:h]
                S[c] = S[c][h:]
                tail[c] -= h
                head[c] = 0
        for c, arr, mean, srv, draw in sources:
            p = pending[c]
            if not len(p) or p[0] == p[-1]:
                x = arr.exponential(mean, _CHUNK)
                if len(p):
                    x[0] += p[-1]
                # left to right, so each time is the scalar t + x, bit for bit
                pending[c] = np.concatenate((p, np.cumsum(x)))
                S[c] = S[c] + draw(srv, _CHUNK).tolist()
        horizon = min(pending[c][-1] for c in active)
        # each class's first _RUN arrivals before the horizon hold the run's _RUN earliest
        firsts = [pending[c][:min(np.searchsorted(pending[c], horizon), _RUN)] for c in active]
        times = np.concatenate(firsts)
        order = np.argsort(times, kind="stable")[:_RUN]  # class order breaks ties
        segment = np.searchsorted(np.cumsum([len(f) for f in firsts]), order, side="right")
        for c, k in zip(active, np.bincount(segment, minlength=len(active)).tolist()):
            A[c] += pending[c][:k].tolist()
            pending[c] = pending[c][k:]
        return times[order].tolist() + [_INF], np.take(active, segment).tolist()

    return merge


# ---------------------------------------------------------------------------
# selection rules

def _selector(disc: DisciplineConfig, A: list, head: list, tail: list, draw):
    """Build the discipline's selection rule once, before the event loop.

    The rule is called with the current time when some job waits and
    returns the class whose earliest waiting job is served next.  It reads
    only arrival times, A[c][head[c]:tail[c]] (non-anticipative), and draws
    from the selection substream `draw` only when two or more classes wait.
    """
    n = len(A)
    if isinstance(disc, Strict):
        order = disc.order

        def select(now):
            for c in order:
                if head[c] < tail[c]:
                    return c
        return select

    if isinstance(disc, DDP):
        heads = list(zip(range(n), A, disc.b))

        def select(now):
            # largest accrued priority (now - arrival) * b; ties to the earlier arrival
            bc = -1
            for c, Ac, b in heads:
                h = head[c]
                if h < tail[c]:
                    a = Ac[h]
                    v = (now - a) * b
                    if bc < 0 or v > bv or (v == bv and a < ba):
                        bv, ba, bc = v, a, c
            return bc
        return select

    if isinstance(disc, RP):
        if n == 2:
            p0, p1 = disc.p

            def select(now):
                n0 = tail[0] - head[0]
                n1 = tail[1] - head[1]
                if n0 and n1:
                    w0 = n0 * p0
                    return 0 if draw() * (w0 + n1 * p1) < w0 else 1
                return 0 if n0 else 1
            return select

        weights = list(zip(range(n), disc.p))
        acc = [0.0] * n

        def select(now):
            # class c with probability proportional to (queue length) * p[c]:
            # running sums in class order (an empty class adds 0.0), then the
            # first sum above the scaled draw
            total = 0.0
            busy = 0
            for c, p in weights:
                m = tail[c] - head[c]
                if m:
                    total += m * p
                    busy += 1
                    last = c
                acc[c] = total
            if busy > 1:
                x = draw() * total
                for c in range(last):
                    if acc[c] > x:
                        return c
            # the scaled draw may round up to the total, which picks the last class
            return last
        return select

    if isinstance(disc, PP):
        p0 = disc.p[0]

        def select(now):
            # poll queue 1 with probability p0; an empty queue is skipped, and
            # a queue that waits alone is served with probability 1
            q0, q1 = tail[0] - head[0], tail[1] - head[1]
            return 0 if q0 and (not q1 or p0 >= 1.0 or (p0 > 0.0 and draw() < p0)) else 1
        return select

    # GFCFS, EDD and HOL-PJ (either dispatch) are one rule: serve min(arrival + offset)
    offsets = disc.u if isinstance(disc, EDD) else disc.D if isinstance(disc, HOLPJ) else (0.0,) * n
    heads = list(zip(range(n), A, offsets))

    def select(now):
        # smallest arrival + offset; ties to the earlier arrival
        bc = -1
        for c, Ac, o in heads:
            h = head[c]
            if h < tail[c]:
                a = Ac[h]
                v = a + o
                if bc < 0 or v < bv or (v == bv and a < ba):
                    bv, ba, bc = v, a, c
        return bc
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
    A, S = [[] for _ in range(n)], [[] for _ in range(n)]  # arrival times, services
    head, tail = [0] * n, [0] * n  # class c waits as A[c][head[c]:tail[c]]
    merge = _arrivals(model, children, A, S, head, tail)
    rng = np.random.default_rng(children[2 * n])
    draw = chain.from_iterable(rng.random(_CHUNK).tolist() for _ in repeat(None)).__next__
    select = _selector(disc, A, head, tail, draw)

    total = warmup + measured
    sums = [0.0] * n
    counts = [0] * n
    T, C = merge()  # arrival times, ending in +inf, and their classes
    last = len(T) - 1
    i = admitted = starts = 0  # admitted + i - starts jobs wait
    completion = -_INF  # end of the current service

    while starts < total:
        while T[i] < completion:
            tail[C[i]] += 1
            i += 1
        if i == last:
            admitted += last
            T, C = merge()
            last, i = len(T) - 1, 0
            continue
        if admitted + i > starts:
            t = completion
            c = select(t)
            h = head[c]
            head[c] = h + 1
            a = A[c][h]
        else:
            # the server idles until the next arrival, which starts at once
            # without the selection rule
            if starts and boundaries is not None:
                boundaries.append((busy_start, completion))
            busy_start = t = a = T[i]
            c = C[i]
            i += 1
            h = tail[c]
            tail[c] = head[c] = h + 1
        w = t - a
        if starts >= warmup:
            sums[c] += w
            counts[c] += 1
        if trace is not None:
            trace.append((t, c, a, w))
        starts += 1
        completion = t + S[c][h]

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
    upper = expected_clearing_time(model, 1 if ubar >= 0 else 0)
    if value > upper + ci:
        warnings.warn(
            f"integral estimate {value:.6g} exceeds branch bound {upper:.6g} beyond its CI; "
            "increase the sample size",
            stacklevel=2,
        )
    return value, ci
