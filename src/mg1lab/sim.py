"""Seeded discrete-event simulator of a non-preemptive, work-conserving,
non-anticipative multi-class M/G/1 queue under all seven disciplines.

Random draws use one independent substream per (class, purpose) derived
from the master seed, so arrival and service processes are identical
across disciplines for a fixed seed (common random numbers).  Relative
and probabilistic priority consume a dedicated selection substream.
Identical (seed, model, discipline, config) inputs produce bit-identical
estimates.

Each class is its own stream: A[c] and S[c] hold its drawn arrival times
and services, and head[c] is its next job, whose arrival is H[c].  Every
discipline serves each class first-come-first-served and is
non-anticipative, so at each service completion the discipline picks
among the classes whose head arrived before that time; when none did, the
server idles until the earliest head (ties to the lower class).  No global
arrival order is built: only RP needs queue lengths, and its rule counts
them itself.  A class refills its chunk once it is used up, dropping its
served prefix, so memory stays at the queues plus a chunk per class.

Two loops run the replication.  At two classes the heads, indices and
wait sums are local variables: the loop itself serves the only waiting
class, or idles to the earlier head, and calls the discipline's
tie-breaker (`_chooser`) only when both heads wait.  RP at every N and
every other class count run the list loop, which calls the discipline's
N-class rule (`_selector`) at every decision: RP's queue count can refill
a class in mid-queue, which would invalidate the two-class loop's local
indices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .core import ServiceDistribution, SystemModel, WaitVector, conservation_residual
from .errors import InvalidParameterError, WrongClassCountError

_CHUNK = 4096  # draws per substream call; H2 services interleave two draws per chunk
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
        _check_count("seed", self.seed, 0)
        _check_count("measured_jobs", self.measured_jobs, 1000)
        _check_count("replications", self.replications, 1)
        if self.warmup_jobs is not None:
            _check_count("warmup_jobs", self.warmup_jobs, 0)

    @property
    def effective_warmup(self) -> int:
        if self.warmup_jobs is not None:
            return self.warmup_jobs
        return max(10_000, self.measured_jobs // 5)


def _check_count(name: str, value, least: int) -> None:
    """Reject a count or seed that is not an integer (as `operator.index`
    decides, so NumPy integers pass) or is below `least`."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class SimEstimate:
    mean: tuple[float, ...]  # NaN, as is its CI, for a class with no measured job
    ci_halfwidth_95: tuple[float, ...]  # NaN for every class at one replication
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


def _refiller(model: SystemModel, children, A: list, S: list, head: list, tail: list, served: list):
    """Build `refill(c)`, which drops class c's served prefix from A[c] and
    S[c] (adding its length to served[c]), shifts head[c] and tail[c] to
    match, and appends the class's next _CHUNK arrival times and services.
    Memory so stays at the queue plus about a chunk per class."""
    sources = {
        c: (np.random.default_rng(children[2 * c]), 1.0 / spec.lam,
            np.random.default_rng(children[2 * c + 1]), _service_draw(spec.service))
        for c, spec in enumerate(model.classes) if spec.lam > 0
    }

    def refill(c):
        arr, mean, srv, draw = sources[c]
        Ac, h = A[c], head[c]
        x = arr.exponential(mean, _CHUNK)
        if Ac:
            x[0] += Ac[-1]
        # A's lists are shared with the selection rule, so they are cut in
        # place; S's are rebuilt, which measured a lower peak RSS
        del Ac[:h]
        S[c] = S[c][h:] + draw(srv, _CHUNK).tolist()
        served[c] += h
        head[c] = 0
        tail[c] -= h
        # left to right, so each time is the scalar t + x, bit for bit
        Ac += np.cumsum(x).tolist()

    return refill


# ---------------------------------------------------------------------------
# selection rules

def _offsets(disc: DisciplineConfig, n: int) -> tuple:
    """GFCFS, EDD and HOL-PJ (either dispatch) are one rule, serve the
    smallest arrival + offset; their offsets."""
    return disc.u if isinstance(disc, EDD) else disc.D if isinstance(disc, HOLPJ) else (0.0,) * n


def _chooser(disc: DisciplineConfig, draw):
    """Build the two-class tie-breaker `choose(now, a0, a1)`, or None for RP.

    The two-class loop calls it only when both head arrivals a0 and a1 are
    strictly before `now`; it returns True to serve class 2 (index 1).
    Only PP draws from the selection substream `draw`.  RP returns None: it
    counts its queues, so it runs the list loop with its `_selector` rule."""
    if isinstance(disc, RP):
        return None
    if isinstance(disc, PP):
        p0 = disc.p[0]  # queue 1's polling probability
        # a draw lies in [0, 1), so at p0 = 1 and 0 one queue always goes first
        return lambda now, a0, a1: draw() >= p0
    if isinstance(disc, Strict):
        second = disc.order[0] == 1
        return lambda now, a0, a1: second
    if isinstance(disc, DDP):
        b0, b1 = disc.b

        def choose(now, a0, a1):
            # larger accrued priority (now - arrival) * b; ties to the earlier arrival
            v0 = (now - a0) * b0
            v1 = (now - a1) * b1
            return v1 > v0 or (v1 == v0 and a1 < a0)
        return choose

    o0, o1 = _offsets(disc, 2)

    def choose(now, a0, a1):
        # smaller arrival + offset; ties to the earlier arrival
        v0 = a0 + o0
        v1 = a1 + o1
        return v1 < v0 or (v1 == v0 and a1 < a0)
    return choose


def _selector(disc: DisciplineConfig, A: list, H: list, head: list, tail: list, refill, draw):
    """Build the discipline's N-class selection rule for the list loop,
    which runs RP at every N and every discipline at N != 2.

    The rule is called at every decision with the decision time `now` and
    returns the class whose head job is served next, among the classes
    whose head arrived strictly before `now` (H[c] = A[c][head[c]] < now),
    or -1 when none did.  It reads only arrival times before `now`
    (non-anticipative), and draws from the selection substream `draw`
    only when two or more classes wait.  PP, defined for two classes
    only, has no rule here: its tie-breaker is built by `_chooser`.
    """
    n = len(A)
    if isinstance(disc, Strict):
        order = disc.order

        def select(now):
            for c in order:
                if H[c] < now:
                    return c
            return -1
        return select

    if isinstance(disc, DDP):
        rates = list(zip(range(n), disc.b))

        def select(now):
            # largest accrued priority (now - arrival) * b; ties to the earlier arrival
            bc = -1
            for c, b in rates:
                a = H[c]
                if a < now:
                    v = (now - a) * b
                    if bc < 0 or v > bv or (v == bv and a < ba):
                        bv, ba, bc = v, a, c
            return bc
        return select

    if isinstance(disc, RP):
        return _rp_selector(disc.p, A, H, head, tail, refill, draw)

    heads = list(zip(range(n), _offsets(disc, n)))

    def select(now):
        # smallest arrival + offset; ties to the earlier arrival
        bc = -1
        for c, o in heads:
            a = H[c]
            if a < now:
                v = a + o
                if bc < 0 or v < bv or (v == bv and a < ba):
                    bv, ba, bc = v, a, c
        return bc
    return select


def _rp_selector(p: tuple, A: list, H: list, head: list, tail: list, refill, draw):
    """RP's rule: class c with probability proportional to (queue length) * p[c].

    A waiting class c's queue is A[c][head[c]:tail[c]], and X[c] is
    A[c][tail[c]], its first arrival not yet counted.  Once X[c] < now the
    rule moves tail[c] on, about one step per arrival, and refills the
    class when its queue reaches past its drawn chunk.  A tail[c] at or
    below head[c] is stale (the class was empty); its X[c] is then at most
    the head's arrival, and it restarts after the head."""
    X = [Ac[0] for Ac in A]

    def advance(c, now):
        Ac, h, t = A[c], head[c], tail[c]
        if t <= h:
            t = h + 1
        while True:
            try:
                while Ac[t] < now:
                    t += 1
                break
            except IndexError:
                tail[c] = t
                refill(c)
                t = tail[c]
        tail[c] = t
        X[c] = Ac[t]

    if len(A) == 2:
        p0, p1 = p

        def select(now):
            a0, a1 = H
            if a0 < now:
                if a1 < now:
                    # the N-class rule's arithmetic, unrolled
                    x0, x1 = X
                    if x0 < now:
                        advance(0, now)
                    if x1 < now:
                        advance(1, now)
                    w0 = (tail[0] - head[0]) * p0
                    return 0 if draw() * (w0 + (tail[1] - head[1]) * p1) < w0 else 1
                return 0
            return 1 if a1 < now else -1
        return select

    weights = list(zip(range(len(A)), p))
    acc = [0.0] * len(A)

    def select(now):
        # running sums of (queue length) * p over the waiting classes in
        # class order, then the first sum above the scaled draw
        total = 0.0
        busy = 0
        for c, w in weights:
            if H[c] < now:
                if X[c] < now:
                    advance(c, now)
                total += (tail[c] - head[c]) * w
                acc[c] = total
                busy += 1
                last = c
        if busy < 2:
            return last if busy else -1
        x = draw() * total
        for c in range(last):
            if H[c] < now and acc[c] > x:
                return c
        # the scaled draw may round up to the total, which picks the last class
        return last
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
    A, S = [[] for _ in range(n)], [[] for _ in range(n)]  # drawn arrival times, services
    head, tail = [0] * n, [0] * n  # class c's next job; RP's queue end
    served = [0] * n  # class c's jobs dropped from A[c]; served[c] + head[c] started
    refill = _refiller(model, children, A, S, head, tail, served)
    for c, spec in enumerate(model.classes):
        if spec.lam > 0:
            refill(c)
        else:
            A[c].append(_INF)  # a head that never arrives
    H = [Ac[0] for Ac in A]  # H[c] == A[c][head[c]], class c's head arrival
    rng = np.random.default_rng(children[2 * n])
    draw = chain.from_iterable(rng.random(_CHUNK).tolist() for _ in repeat(None)).__next__
    choose = _chooser(disc, draw) if n == 2 else None
    if choose is None:
        select = _selector(disc, A, H, head, tail, refill, draw)

    completion = busy_start = -_INF  # end of the current service; start of the busy period
    for jobs in (warmup, measured):
        first = [s + h for s, h in zip(served, head)]
        if choose is None:
            sums = [0.0] * n  # the warmup's are dropped
            for _ in range(jobs):
                t = completion
                c = select(t)
                if c < 0:
                    # the server idles until the earliest head arrives, which
                    # starts at once; ties to the lower class
                    if boundaries is not None and t > -_INF:
                        boundaries.append((busy_start, t))
                    busy_start = t = min(H)
                    c = H.index(t)
                a = H[c]
                h = head[c]
                completion = t + S[c][h]
                h += 1
                head[c] = h
                try:
                    H[c] = A[c][h]
                except IndexError:
                    refill(c)
                    H[c] = A[c][0]
                sums[c] += t - a
                if trace is not None:
                    trace.append((t, c, a, t - a))
            continue

        # two classes: the same loop on local variables, which are written
        # back to H and head at the end of the window and reloaded after
        # each refill
        A0, A1 = A
        S0, S1 = S
        a0, a1 = H
        h0, h1 = head
        w0 = w1 = 0.0  # the warmup's are dropped
        t = completion
        for _ in range(jobs):
            if a0 < t:
                second = a1 < t and choose(t, a0, a1)
            elif a1 < t:
                second = True
            else:
                # idle until the earlier head, which starts at once; ties to class 1
                if boundaries is not None and t > -_INF:
                    boundaries.append((busy_start, t))
                second = a1 < a0
                busy_start = t = a1 if second else a0
            if second:
                w1 += t - a1
                if trace is not None:
                    trace.append((t, 1, a1, t - a1))
                t += S1[h1]
                h1 += 1
                try:
                    a1 = A1[h1]
                except IndexError:
                    head[1] = h1
                    refill(1)
                    h1, A1, S1 = head[1], A[1], S[1]
                    a1 = A1[h1]
            else:
                w0 += t - a0
                if trace is not None:
                    trace.append((t, 0, a0, t - a0))
                t += S0[h0]
                h0 += 1
                try:
                    a0 = A0[h0]
                except IndexError:
                    head[0] = h0
                    refill(0)
                    h0, A0, S0 = head[0], A[0], S[0]
                    a0 = A0[h0]
        completion = t
        H[:] = a0, a1
        head[:] = h0, h1
        sums = [w0, w1]
    counts = [s + h - f for s, h, f in zip(served, head, first)]
    return sums, counts


def _t975(df: int) -> float:
    """The t at which P(|T| <= t) = 0.95 on df degrees of freedom.  With
    theta = atan(t / sqrt(df)), P is sin(theta) times a finite sum of powers
    of cos(theta); for odd df, theta is added and the total scaled by 2 / pi
    (Abramowitz & Stegun 26.7.3-4).  sin(theta) = t / sqrt(df + t^2) and
    cos^2(theta) = df / (df + t^2), so only odd df needs atan.  P is concave
    in t, so Newton's method from t = 0 rises monotonically to the root; it
    stops once a step no longer raises t."""
    odd = df % 2
    goal = 0.475 * math.pi if odd else 0.95  # 0.95, times pi / 2 for odd df
    t = 0.0
    while True:
        r = df + t * t
        c2 = df / r
        # the terms coef_j * cos^j(theta), j = odd, odd + 2, ...: `total` adds
        # those below df; `term` ends at j = df, where dP/dt = df * term / sqrt(r)
        term, total = math.sqrt(c2) if odd else 1.0, 0.0
        for j in range(odd + 2, df + 1, 2):
            total += term
            term *= c2 * (j - 1) / j
        p = t / math.sqrt(r) * total + (math.atan(t / math.sqrt(df)) if odd else 0.0)
        step = (goal - p) / (df * term / math.sqrt(r))
        if not t + step > t:
            return t
        t += step


# ---------------------------------------------------------------------------
# public entry points

def run_sim(model: SystemModel, disc: DisciplineConfig, cfg: SimConfig) -> SimEstimate:
    """Replicated simulation estimate of per-class mean waiting times.

    Means are replication averages; the 95% CI half-width uses the
    t-quantile on the across-replication variance, and is NaN with a
    single replication.
    """
    validate_discipline(model, disc)
    warmup = cfg.effective_warmup
    n = model.n_classes
    rep_means = np.zeros((cfg.replications, n))
    total_counts = [0] * n
    for r, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.replications)):
        sums, counts = _replicate(model, disc, warmup, cfg.measured_jobs, seq)
        for c in range(n):
            # a class with no measured job has no estimate
            rep_means[r, c] = sums[c] / counts[c] if counts[c] else math.nan
            total_counts[c] += counts[c]

    mean = tuple(map(float, rep_means.mean(axis=0)))
    if cfg.replications > 1:
        tq = _t975(cfg.replications - 1)
        ci = tuple(map(float, tq * rep_means.std(axis=0, ddof=1) / math.sqrt(cfg.replications)))
    else:  # one replication estimates no spread
        ci = (math.nan,) * n
    # a class without load adds nothing to the residual, estimated or not
    w = [0.0 if r == 0 else x for r, x in zip(model.rho_per_class, mean)]
    residual = math.nan if any(map(math.isnan, w)) else conservation_residual(model, WaitVector(w))
    return SimEstimate(mean, ci, tuple(total_counts), residual)


def service_start_sequence(
    model: SystemModel, disc: DisciplineConfig, n_jobs: int, seed: int
) -> list[tuple[float, int, float, float]]:
    """Full (time, class, arrival, wait) sequence of the first n_jobs service
    starts for a single replication at the given seed."""
    validate_discipline(model, disc)
    _check_count("n_jobs", n_jobs, 0)
    _check_count("seed", seed, 0)
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
    _check_count("n_jobs", n_jobs, 0)
    _check_count("seed", seed, 0)
    boundaries: list = []
    seq = np.random.SeedSequence(seed).spawn(1)[0]
    _replicate(model, disc, 0, n_jobs, seq, boundaries=boundaries)
    return boundaries
