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
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import stats

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

class _Stream:
    """Chunked draws from one substream; refills lazily."""

    __slots__ = ("_rng", "_draw", "_buf", "_i")

    def __init__(self, seed_seq, draw):
        self._rng = np.random.Generator(np.random.PCG64(seed_seq))
        self._draw = draw
        self._buf = draw(self._rng, _CHUNK)
        self._i = 0

    def next(self) -> float:
        if self._i >= _CHUNK:
            self._buf = self._draw(self._rng, _CHUNK)
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return v


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
    arr_streams = []
    srv_streams = []
    for i, spec in enumerate(model.classes):
        if spec.lam > 0:
            mean_ia = 1.0 / spec.lam
            arr_streams.append(_Stream(children[2 * i], lambda rng, k, m=mean_ia: rng.exponential(m, k)))
        else:
            arr_streams.append(None)
        srv_streams.append(_Stream(children[2 * i + 1], _service_draw(spec.service)))
    sel = _Stream(children[2 * n], lambda rng, k: rng.random(k))

    total = warmup + measured
    sums = [0.0] * n
    counts = [0] * n

    # discipline dispatch setup
    kind = type(disc).__name__
    holpj_jump = isinstance(disc, HOLPJ) and disc.dispatch == "jump"
    if holpj_jump:
        # queues are priority levels; entries [arrival, service, class, entry_time]
        jump_gaps = [0.0] + [disc.D[k] - disc.D[k - 1] for k in range(1, n)]
        queues = [deque() for _ in range(n)]
    else:
        queues = [deque() for _ in range(n)]

    next_arr = [arr_streams[i].next() if arr_streams[i] is not None else _INF for i in range(n)]
    t = 0.0
    busy = False
    completion = _INF
    n_waiting = 0
    starts = 0
    busy_start = None

    if isinstance(disc, DDP):
        ddp_b = disc.b
    if isinstance(disc, EDD):
        edd_key = disc.u
    if isinstance(disc, HOLPJ) and not holpj_jump:
        edd_key = disc.D
    if isinstance(disc, RP):
        rp_p = disc.p
    if isinstance(disc, PP):
        pp_p1 = disc.p[0]
    if isinstance(disc, Strict):
        strict_order = disc.order

    def select(now):
        # exactly one job is returned; never reads service requirements of
        # jobs other than the one chosen (non-anticipative)
        if kind == "Strict":
            for c in strict_order:
                if queues[c]:
                    a, s = queues[c].popleft()
                    return c, a, s
        elif kind == "GFCFS":
            best, bc = None, -1
            for c in range(n):
                q = queues[c]
                if q and (best is None or q[0][0] < best):
                    best, bc = q[0][0], c
            a, s = queues[bc].popleft()
            return bc, a, s
        elif kind == "DDP":
            best, ba, bc = None, None, -1
            for c in range(n):
                q = queues[c]
                if q:
                    v = (now - q[0][0]) * ddp_b[c]
                    if best is None or v > best or (v == best and q[0][0] < ba):
                        best, ba, bc = v, q[0][0], c
            a, s = queues[bc].popleft()
            return bc, a, s
        elif kind == "EDD" or (kind == "HOLPJ" and not holpj_jump):
            best, ba, bc = None, None, -1
            for c in range(n):
                q = queues[c]
                if q:
                    v = q[0][0] + edd_key[c]
                    if best is None or v < best or (v == best and q[0][0] < ba):
                        best, ba, bc = v, q[0][0], c
            a, s = queues[bc].popleft()
            return bc, a, s
        elif kind == "RP":
            nonempty = [c for c in range(n) if queues[c]]
            if len(nonempty) == 1:
                c = nonempty[0]
            else:
                wts = [len(queues[c]) * rp_p[c] for c in nonempty]
                u = sel.next() * sum(wts)
                acc = 0.0
                c = nonempty[-1]
                for cc, w in zip(nonempty, wts):
                    acc += w
                    if u < acc:
                        c = cc
                        break
            a, s = queues[c].popleft()
            return c, a, s
        elif kind == "PP":
            # poll queue 1; empty queues are skipped, a nonempty queue whose
            # successors are all empty is served with probability 1
            if queues[0]:
                if not queues[1]:
                    c = 0
                elif pp_p1 >= 1.0:
                    c = 0
                elif pp_p1 <= 0.0:
                    c = 1
                else:
                    c = 0 if sel.next() < pp_p1 else 1
            else:
                c = 1
            a, s = queues[c].popleft()
            return c, a, s
        else:  # HOLPJ queue-jump mechanism
            # move every due jump, in chronological order of jump instants
            while True:
                due, lvl = None, -1
                for k in range(1, n):
                    q = queues[k]
                    if q:
                        d = q[0][3] + jump_gaps[k]
                        if d <= now and (due is None or d < due):
                            due, lvl = d, k
                if lvl < 0:
                    break
                job = queues[lvl].popleft()
                target = queues[lvl - 1]
                # merge by entry time so level order matches chronology
                idx = len(target)
                while idx > 0 and target[idx - 1][3] > due:
                    idx -= 1
                target.insert(idx, (job[0], job[1], job[2], due))
            for k in range(n):
                if queues[k]:
                    a, s, c, _ = queues[k].popleft()
                    return c, a, s
        raise AssertionError("select called with an empty system")

    while starts < total:
        ta = next_arr[0]
        ai = 0
        for c in range(1, n):
            if next_arr[c] < ta:
                ta, ai = next_arr[c], c
        if busy and completion <= ta:
            t = completion
            busy = False
            if n_waiting:
                c, a, s = select(t)
                n_waiting -= 1
                w = t - a
                if starts >= warmup:
                    sums[c] += w
                    counts[c] += 1
                if trace is not None:
                    trace.append((t, c, a, w))
                starts += 1
                busy = True
                completion = t + s
            else:
                completion = _INF
                if boundaries is not None:
                    boundaries.append((busy_start, t))
        else:
            t = ta
            s = srv_streams[ai].next()
            next_arr[ai] = t + arr_streams[ai].next()
            if not busy:
                # idle arrival: starts service immediately, zero wait
                if starts >= warmup:
                    counts[ai] += 1
                if trace is not None:
                    trace.append((t, ai, t, 0.0))
                starts += 1
                busy = True
                completion = t + s
                busy_start = t
            else:
                if holpj_jump:
                    queues[ai].append((t, s, ai, t))
                else:
                    queues[ai].append((t, s))
                n_waiting += 1

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
    master = np.random.SeedSequence(cfg.seed)
    rep_seqs = master.spawn(cfg.replications)

    n = model.n_classes
    rep_means = np.zeros((cfg.replications, n))
    total_counts = [0] * n
    for r, seq in enumerate(rep_seqs):
        sums, counts = _replicate(model, disc, warmup, cfg.measured_jobs, seq)
        for c in range(n):
            rep_means[r, c] = sums[c] / counts[c] if counts[c] else 0.0
            total_counts[c] += counts[c]

    mean = rep_means.mean(axis=0)
    if cfg.replications > 1:
        tq = stats.t.ppf(0.975, cfg.replications - 1)
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
    seq = np.random.SeedSequence(seed).spawn(1)[0]
    _replicate(model, disc, 0, n_jobs, seq, trace=trace)
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
