"""Optimal-control solvers built on the two-class achievable wait region.

Six applications share the same backbone: the achievable mean-wait pairs
form a line segment pinned by the conservation law, so each control
problem reduces to picking one point of that segment (equivalently one
scheduling parameter) and, where prices are involved, a price vector.
Closed forms are used where available; the pricing problems are solved
numerically and certified against dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    _LOAD_LIMIT,
    CustomerClassSpec,
    ServiceDistribution,
    SystemModel,
    gfcfs_wait,
    json_dumps,
    wait_bounds,
)
from .analytic import rp2_kernel, rp2_min_weight, rp2_waits
from .errors import InfeasibleError, InvalidParameterError

_INF = math.inf


# ---------------------------------------------------------------------------
# solution record

@dataclass(frozen=True)
class ControlSolution:
    """Solver output: a case/regime tag, the decision values, the achieved
    objective, any active constraints, and solver diagnostics."""

    case: str
    params: dict
    objective: Optional[float] = None
    active_constraints: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """JSON text; non-finite numbers (an unstable class's wait) are null."""
        return json_dumps(
            {
                "case": self.case,
                "params": self.params,
                "objective": self.objective,
                "active_constraints": list(self.active_constraints),
                "diagnostics": self.diagnostics,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# small numeric helpers

def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), calls to
    f).  Endpoint values are checked so boundary optima are never missed.
    The bracket stops at tol or at four ulps of the larger end, whichever
    is wider, so a tol below float resolution cannot stall the loop."""
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        return f(x)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = g(x1), g(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = g(x2)
    xm = 0.5 * (a + b)
    fm = g(xm)
    if not math.isfinite(fm):
        # a maximum on the edge of a rejected (-inf) region can leave the
        # final midpoint just outside it; keep the better interior probe
        xm, fm = (x1, f1) if f1 >= f2 else (x2, f2)
    candidates = [(xm, fm), (lo, g(lo)), (hi, g(hi))]
    # parabolic polish: golden-section alone resolves a smooth interior
    # maximum only to about sqrt(machine epsilon); one wide-stencil parabola
    # fit recovers the vertex of a locally quadratic objective exactly
    h = 1e-5 * (hi - lo)
    if h > 0.0 and lo <= xm - h and xm + h <= hi:
        f0, f2 = g(xm - h), g(xm + h)
        if all(map(math.isfinite, (f0, fm, f2))):
            curve = f0 - 2.0 * fm + f2
            if curve < 0.0:
                xv = xm + 0.5 * h * (f0 - f2) / curve
                xv = min(max(xv, lo), hi)
                candidates.append((xv, g(xv)))
    return (*max(candidates, key=lambda t: t[1]), calls)


# ---------------------------------------------------------------------------
# network utility with a delay deadline

@dataclass(frozen=True)
class NetworkUtilityConfig:
    """Two classes with deterministic unit service; class 1 carries a
    quality-of-service pair (d, b): complete within deadline d with miss
    probability at most b.  v1 rewards meeting the deadline, v2 penalizes
    declaring it missed, v3 values served class-2 traffic, v4 is the
    per-time holding cost on the class-2 response time."""

    model: SystemModel
    d: float
    b: float
    v1: float
    v2: float
    v3: float
    v4: float

    def __post_init__(self):
        self.model.require_two_classes()
        for spec in self.model.classes:
            if spec.service.kind != "deterministic" or spec.service.mean != 1.0:
                raise InvalidParameterError(
                    "deterministic unit service is required for both classes"
                )
        if not 1.0 < self.d < _INF:
            raise InvalidParameterError("deadline d must be finite and above the service time 1")
        if not 0.0 < self.b < self.model.rho:
            raise InvalidParameterError("miss probability b must lie in (0, rho)")
        for name in ("v1", "v2", "v3", "v4"):
            if not 0 <= getattr(self, name) < _INF:
                raise InvalidParameterError(f"{name} must be finite and nonnegative")


def network_K(rho: float, d: float, b: float) -> float:
    """Mean-wait target K for the deadline class: the largest mean wait at
    which the exponential tail approximation still meets (d, b)."""
    if not 0.0 < rho < 1.0:
        raise InvalidParameterError("rho must lie in (0, 1)")
    if d <= 1.0:
        raise InvalidParameterError("d must exceed the unit service time")
    if not 0.0 < b < rho:
        raise InvalidParameterError("b must lie in (0, rho)")
    return rho * (d - 1.0) / math.log(rho / b)


def tail_prob_approx(rho: float, mean_wait: float, x: float) -> float:
    """Exponential tail approximation P(wait > x) ~ rho * exp(-rho x / mean),
    clamped to [0, 1]."""
    if mean_wait <= 0:
        raise InvalidParameterError("mean_wait must be positive")
    if x < 0:
        raise InvalidParameterError("x must be nonnegative")
    return min(1.0, max(0.0, rho * math.exp(-rho * x / mean_wait)))


def _deadline_case(cfg: NetworkUtilityConfig) -> tuple[float, str]:
    """(K, case): "dynamic" where K lies in the achievable class-1 wait
    range, "deadline-slack" above it and "deadline-unmeetable" below it."""
    K = network_K(cfg.model.rho, cfg.d, cfg.b)
    lo, hi = wait_bounds(cfg.model)[0]
    if K > hi:
        return K, "deadline-slack"
    if K < lo:
        return K, "deadline-unmeetable"
    return K, "dynamic"


def rp_param_for_utility(cfg: NetworkUtilityConfig) -> ControlSolution:
    """Relative-priority weight p1 maximizing the network utility; the
    dynamic case pins the class-1 mean wait to K, the static cases hand
    class 2 strict priority."""
    model = cfg.model
    K, case = _deadline_case(cfg)
    if case != "dynamic":
        return ControlSolution(case, {"p1": 0.0}, diagnostics={"K": K})
    # None only where rounding leaves the strict-priority wait above K = lo
    p1 = rp2_min_weight(*model.rho_per_class, model.w0, K, 0)
    return ControlSolution("dynamic", {"p1": 1.0 if p1 is None else p1}, diagnostics={"K": K})


def pp_param_for_utility_approx(cfg: NetworkUtilityConfig) -> ControlSolution:
    """Polling probability omega1 whose approximate class-1 mean wait equals
    K; static cases return omega1 = 0 (class-2 priority)."""
    model = cfg.model
    r1, r2 = model.rho_per_class
    rho, w0 = model.rho, model.w0
    K, case = _deadline_case(cfg)
    if case != "dynamic":
        return ControlSolution(case, {"omega1": 0.0}, diagnostics={"K": K})
    L = math.log(rho / cfg.b)
    S = (rho * (cfg.d - 1.0) * (1.0 - r1) - w0 * L) / (rho * (cfg.d - 1.0) + (1.0 - w0) * L)
    den = r2 - rho * S
    if den == 0.0:
        raise InvalidParameterError("degenerate configuration: rho2 equals rho * S")
    omega1 = (S * S - S * (1.0 + r2) + r2) / den
    return ControlSolution("dynamic", {"omega1": omega1}, diagnostics={"K": K, "S": S})


def network_optimal_utility(cfg: NetworkUtilityConfig) -> ControlSolution:
    """Maximum utility over work-conserving disciplines, in three cases by
    the location of K relative to the achievable class-1 wait range.  The
    optimal wait pair is params["w1"] and diagnostics["w2"]."""
    model = cfg.model
    r1, r2 = model.rho_per_class
    K, case = _deadline_case(cfg)
    if case == "dynamic":
        w1 = K
        w2 = (model.rho * gfcfs_wait(model) - r1 * K) / r2  # the conservation law
    else:
        # static: class 2 strict priority, class 1 at its upper endpoint
        (_, w1), (w2, _) = wait_bounds(model)
    # deadline met or declared missed
    reward = -cfg.v2 if case == "deadline-unmeetable" else cfg.v1
    util = reward + cfg.v3 - cfg.v4 * (1.0 + w2)
    return ControlSolution(case, {"w1": w1}, objective=util,
                           diagnostics={"K": K, "w2": w2})


def approx_utility_gfcfs(cfg: NetworkUtilityConfig) -> float:
    """Utility of the undifferentiated global-FCFS baseline, where both
    classes share the conserved mean wait."""
    K = network_K(cfg.model.rho, cfg.d, cfg.b)
    w = gfcfs_wait(cfg.model)
    if w <= K:
        return cfg.v1 + cfg.v3 - cfg.v4 * (1.0 + w)
    return cfg.v3 - cfg.v2 - cfg.v4 * (1.0 + w)


# ---------------------------------------------------------------------------
# linear holding costs: the cost-to-load index rule

def cmu_rule_2class(model: SystemModel, c1: float, c2: float) -> ControlSolution:
    """Minimize c1*W1 + c2*W2: strict priority to the class with the larger
    cost-to-load ratio.  On a tie the objective is flat and every
    work-conserving rule is optimal (p1 = 0 reported with a tie flag)."""
    model.require_two_classes()
    if not (0 <= c1 < _INF and 0 <= c2 < _INF):
        raise InvalidParameterError("holding costs must be finite and nonnegative")
    r1, r2 = model.rho_per_class
    ratio1 = c1 / r1 if r1 > 0 else _INF
    ratio2 = c2 / r2 if r2 > 0 else _INF
    tie = ratio1 == ratio2 or math.isclose(ratio1, ratio2, rel_tol=1e-12)
    p1 = 1.0 if (ratio1 > ratio2 and not tie) else 0.0
    w = rp2_waits(model, p1)
    cost = c1 * w[0] + c2 * w[1]
    return ControlSolution(
        "tie" if tie else "strict",
        {"p1": p1},
        objective=cost,
        diagnostics={"ratio1": ratio1, "ratio2": ratio2, "tie": tie},
    )


# ---------------------------------------------------------------------------
# min-max fairness

def minmax_fair_point(model: SystemModel) -> tuple[float, float, float]:
    """Segment weight minimizing the larger of the two mean waits; both
    waits equalize at the conserved global-FCFS value."""
    model.require_two_classes()
    r1, r2 = model.rho_per_class
    alpha1 = (1.0 - r1) / (2.0 - r1 - r2)
    return alpha1, 1.0 - alpha1, gfcfs_wait(model)


# ---------------------------------------------------------------------------
# two-type computing service: utility and constrained revenue

@dataclass(frozen=True)
class HpcConfig:
    """Prime (P) and regular (R) job types with a common service
    distribution.  The prime price is demand-set as theta = a - b*W_P; w1
    weighs prime revenue and w2 penalizes the regular-class wait."""

    lambda_P: float
    lambda_R: float
    service: ServiceDistribution
    a: float
    b: float
    w1: float
    w2: float
    S_R: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.lambda_P < _INF and 0 < self.lambda_R < _INF):
            raise InvalidParameterError("both arrival rates must be positive and finite")
        if not (0 < self.a < _INF and 0 < self.b < _INF):
            raise InvalidParameterError("price coefficients a and b must be positive and finite")
        if not (0 <= self.w1 < _INF and 0 <= self.w2 < _INF):
            raise InvalidParameterError("weights must be finite and nonnegative")
        if self.S_R is not None and not self.S_R > -_INF:
            raise InvalidParameterError("S_R must be a number (+inf for no cap)")

    def model(self) -> SystemModel:
        return SystemModel(
            (
                CustomerClassSpec(self.lambda_P, self.service),
                CustomerClassSpec(self.lambda_R, self.service),
            )
        )


def hpc_utility_opt(cfg: HpcConfig) -> ControlSolution:
    """Maximize w1*(a - b*W_P(p))*lambda_P - w2*W_R(p) over the relative
    priority weight p of the prime class.

    The utility is a constant minus the holding cost w1*lambda_P*b*W_P +
    w2*W_R, linear on the achievable segment, so the c/rho rule
    (:func:`cmu_rule_2class`) picks the optimal end: strict priority to the
    class with the larger cost-to-load ratio, p = 0 on a tie (the utility
    is then flat in p).  No objective search is made: `evaluations` is 0."""
    model = cfg.model()
    r1, r2 = model.rho_per_class
    w0 = model.w0
    if cfg.a - cfg.b * rp2_kernel(r1, r2, w0, 1.0)[0] < 0:
        raise InfeasibleError("the prime price is negative at every priority level")

    rule = cmu_rule_2class(model, cfg.w1 * cfg.lambda_P * cfg.b, cfg.w2)
    p_star = rule.params["p1"]
    w_p, w_r = rp2_kernel(r1, r2, w0, p_star)
    theta = cfg.a - cfg.b * w_p
    return ControlSolution(
        "boundary",
        {"p1": p_star, "theta": theta},
        objective=cfg.w1 * theta * cfg.lambda_P - cfg.w2 * w_r,
        diagnostics={"evaluations": 0},
    )


def hpc_revenue_constrained(cfg: HpcConfig) -> ControlSolution:
    """Maximize the prime revenue theta*lambda_P subject to the regular
    service level W_R(p) <= S_R.  Revenue rises and W_R worsens as p grows,
    so the optimum is the largest p meeting S_R (p = 0 where S_R is below
    W_R(0) by no more than the 1e-12 tolerance)."""
    if cfg.S_R is None:
        raise InvalidParameterError("S_R is required for the constrained problem")
    model = cfg.model()
    r1, r2 = model.rho_per_class
    w_min = rp2_kernel(r1, r2, model.w0, 0.0)[1]
    if cfg.S_R < w_min - 1e-12:
        raise InfeasibleError(
            f"S_R={cfg.S_R:.6g} is below the minimum regular-class wait {w_min:.6g}"
        )
    q = rp2_min_weight(r1, r2, model.w0, cfg.S_R, 1)
    p_star = 0.0 if q is None else 1.0 - q
    active = () if q == 0.0 else ("S_R",)
    w_p, w_r = rp2_kernel(r1, r2, model.w0, p_star)
    theta = cfg.a - cfg.b * w_p
    return ControlSolution(
        "constrained" if active else "slack",
        {"p1": p_star, "theta": theta},
        objective=theta * cfg.lambda_P,
        active_constraints=active,
        diagnostics={"W_R": w_r},
    )


# ---------------------------------------------------------------------------
# cloud pricing with delay-sensitive linear demand

@dataclass(frozen=True)
class CloudConfig:
    """Two priced classes on one server (rate mu, squared coefficient of
    variation scv).  Demand lambda_i = a_i - b_i*theta_i - c_i*W_i couples
    arrivals to the waits they induce; T_i are SLA caps on the waits."""

    mu: float
    scv: float
    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    T: tuple[float, float] = (_INF, _INF)

    def __post_init__(self):
        if any(len(v) != 2 for v in (self.a, self.b, self.c, self.T)):
            raise InvalidParameterError("a, b, c and T need one entry per class, two in all")
        if not 0 < self.mu < _INF:
            raise InvalidParameterError("mu must be positive and finite")
        if not 0 <= self.scv < _INF:
            raise InvalidParameterError("scv must be finite and nonnegative")
        if not all(0 < x < _INF for x in (*self.a, *self.b)):
            raise InvalidParameterError("demand intercepts and price slopes must be finite, > 0")
        if not all(0 <= x < _INF for x in self.c):
            raise InvalidParameterError("delay sensitivities must be finite and nonnegative")
        if not all(x > 0 for x in self.T):
            raise InvalidParameterError("SLA thresholds must be positive (+inf for none)")


def _inverse_demand(a: float, b: float, c: float, T: float, lam: float, w: float) -> Optional[float]:
    """Price at which the demand a - b*theta - c*w equals lam, or None when
    no price in [0, a/b] does or the wait w breaks the cap T.  A class with
    c = 0 ignores its wait, even an infinite one.  Zero demand holds at
    every price from the returned one up to a/b."""
    theta = (a - lam - (c * w if c else 0.0)) / b
    if lam == 0.0:
        return min(max(theta, 0.0), a / b)
    if theta < 0.0 or w > T + 1e-12:
        return None
    return theta


def _cloud_certify(cfg: CloudConfig, p1: float, r_best: float) -> tuple[float, int, int]:
    """Re-solve the demand fixed point on a 21 x 21 price grid at weight p1
    and return (the largest revenue above r_best among the converged,
    SLA-feasible points, or 0; the number of points that could beat r_best
    but whose fixed point hit the step cap; the number of steps run).

    An equilibrium rate never exceeds its cap clip(a_i - b_i*theta_i), so a
    point whose revenue at the caps is within r_best cannot beat it and is
    not iterated.  A wait-blind class (c_i = 0) demands its cap whatever the
    waits, so it starts there, at its fixed point; a delay-sensitive one
    starts at min(cap, 0.45*mu).  Each point moves its rates a damping
    fraction toward their demand until the demand is within 1e-10 of them,
    for at most 1000 steps; the damping starts at 0.3 and halves whenever
    that residual does not shrink, so an oscillating point is damped until
    it contracts.  Where no fixed point exists the residual never falls to
    1e-10 and the point is counted."""
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    n = 21
    t1 = np.linspace(0.0, cfg.a[0] / cfg.b[0], n).reshape(-1, 1)
    t2 = np.linspace(0.0, cfg.a[1] / cfg.b[1], n).reshape(1, -1)
    base = (np.broadcast_to(cfg.a[0] - cfg.b[0] * t1, (n, n)),
            np.broadcast_to(cfg.a[1] - cfg.b[1] * t2, (n, n)))
    cap = tuple(np.maximum(x, 0.0) for x in base)

    def waits(l1, l2):
        return rp2_kernel(l1 * s, l2 * s, 0.5 * (l1 + l2) * s2, p1)

    def demand(i, w):
        # c = 0 demand ignores waits entirely, even unstable ones; positive
        # delay sensitivity chokes demand to zero when waits blow up
        d = base[i] if cfg.c[i] == 0.0 else np.where(np.isfinite(w), base[i] - cfg.c[i] * w, 0.0)
        return np.minimum(np.maximum(d, 0.0), cap[i])

    l1, l2 = (cap[i] if cfg.c[i] == 0.0 else np.minimum(cap[i], 0.45 * cfg.mu) for i in range(2))
    contenders = t1 * cap[0] + t2 * cap[1] > r_best
    running = contenders.copy()
    damping = np.full((n, n), 0.3)
    last = np.full((n, n), _INF)
    steps = 0
    while steps < 1000 and running.any():
        steps += 1
        w1, w2 = waits(l1, l2)
        n1, n2 = demand(0, w1), demand(1, w2)
        step = np.maximum(np.abs(n1 - l1), np.abs(n2 - l2))
        damping = np.where(step < last, damping, 0.5 * damping)
        last = step
        l1 = np.where(running, l1 + damping * (n1 - l1), l1)
        l2 = np.where(running, l2 + damping * (n2 - l2), l2)
        running &= ~(step < 1e-10)
    w1, w2 = waits(l1, l2)
    ok = contenders & ~running & ~((l1 > 0) & (w1 > cfg.T[0] + 1e-12)) & ~((l2 > 0) & (w2 > cfg.T[1] + 1e-12))
    gain = np.where(ok, t1 * l1 + t2 * l2 - r_best, 0.0)
    return max(0.0, float(gain.max())), int(running.sum()), steps


#: price resolution of the cloud rate searches: each ends at a bracket of _THETA_TOL*b_i
_THETA_TOL = 1e-7


def _cloud_score(cfg: CloudConfig) -> tuple[Callable, Callable]:
    """(bound, revenue): the weight choice and the rate-pair score of
    :func:`cloud_revenue_opt`.

    The weight needs no search (the paper's c/rho argument): at fixed rates
    the revenue moves along the achievable segment with slope
    l1*(c2/b2 - c1/b1) in W1, so the best p1 is the end of the interval of
    weights keeping each W_i within min(T_i, (a_i - l_i)/c_i) that has the
    lower W1 when c1/b1 > c2/b2, and otherwise (the revenue flat in p1
    included) the end with the higher W1.  bound(l1, l2) is (k, cap, p1):
    the class k whose cap bounds that end, the cap, and the p1 of the
    segment end class k prefers, where :func:`rp2_min_weight` looks first.

    revenue(l1, l2) is theta1*l1 + theta2*l2 at that end, with no solve for
    the weight.  Class k's wait is its RP wait at its preferred end or,
    where that breaks the cap and the other end keeps it, the cap itself;
    the conservation law rho1*W1 + rho2*W2 = rho*W0/(1 - rho) gives the
    other wait.  Inverse demand checks the other class's cap, and -inf
    marks rates with no feasible weight."""
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    (a1, a2), (b1, b2), (c1, c2), (T1, T2) = cfg.a, cfg.b, cfg.c, cfg.T

    def cap(a, c, T, lam):
        # the largest wait at rate lam > 0 that keeps the price >= 0 and the SLA
        if not lam:
            return _INF
        if not c:
            return T + 1e-12
        w = (a - lam) / c
        while c * w > a - lam:  # so that inverse demand prices w at >= 0
            w = math.nextafter(w, -_INF)
        return min(T + 1e-12, w)

    def bound(l1, l2):
        if l1 > 0.0 and l2 > 0.0 and c1 * b2 > c2 * b1:  # c1/b1 > c2/b2: largest p1
            return 1, cap(a2, c2, T2, l2), 1.0
        return 0, cap(a1, c1, T1, l1), 0.0

    def revenue(l1, l2):
        r1, r2, w0 = l1 * s, l2 * s, 0.5 * (l1 + l2) * s2
        k, cap_k, p1 = bound(l1, l2)
        w = rp2_kernel(r1, r2, w0, p1)
        if w[k] > cap_k:
            w = rp2_kernel(r1, r2, w0, 1.0 - p1)
            if w[k] > cap_k:
                return -_INF
            rho = r1 + r2
            r_k, r_o = (r1, r2) if k == 0 else (r2, r1)
            if r_o > 0.0:  # else W_k is the same at every weight: keep this end
                w_o = (rho * w0 / (1.0 - rho) - r_k * cap_k) / r_o
                w = (cap_k, w_o) if k == 0 else (w_o, cap_k)
        theta1 = _inverse_demand(a1, b1, c1, T1, l1, w[0])
        theta2 = _inverse_demand(a2, b2, c2, T2, l2, w[1])
        if theta1 is None or theta2 is None:
            return -_INF
        return theta1 * l1 + theta2 * l2

    return bound, revenue


def cloud_revenue_opt(cfg: CloudConfig) -> ControlSolution:
    """Maximize theta1*l1 + theta2*l2 over prices and the priority weight.

    The search runs over the arrival rates (l1, l2) and recovers each price
    by inverse demand, theta_i = (a_i - l_i - c_i*W_i)/b_i with W_i the RP
    wait at those rates, so every candidate is an exact demand equilibrium.
    Rates whose price would leave [0, a_i/b_i], or whose wait breaks its SLA
    cap T_i, are rejected.  Each rate pair is scored at its best weight,
    read off the segment's ends (:func:`_cloud_score`), at one or two
    closed-form wait evaluations.  Nested golden-section over the two
    rates; the final bracket of each rate search is 1e-7*b_i, a price
    resolution of 1e-7 in the delay-free part of the inverse demand.
    `evaluations` counts the rate pairs scored.  Delay-blind demand (c = 0,
    no SLA) earns sum((a_i*l_i - l_i^2)/b_i) whatever the waits, so it
    takes the vertex l_i = a_i/2, prices a_i/(2*b_i), with no evaluation.

    The reported p1 is the best weight from :func:`rp2_min_weight`, with
    the waits and prices at it; `objective` is the score the search ranked.
    The optimum is certified on a 21 x 21 price grid at that p1 by the
    damped demand fixed point (:func:`_cloud_certify`), run only at the
    points whose revenue at the demand caps could beat the optimum:
    `certification_margin` is the largest revenue any converged,
    SLA-feasible grid point beats the optimum by (0 when none does),
    `certification_unconverged` counts the points that could beat it but
    whose fixed point hit its step cap and so were not compared, and
    `certification_iterations` is the number of fixed-point steps run."""
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    (a1, a2), (b1, b2), (c1, c2), (T1, T2) = cfg.a, cfg.b, cfg.c, cfg.T
    bound, revenue = _cloud_score(cfg)

    evaluations = 0
    if c1 == c2 == 0.0 and T1 == T2 == _INF:
        l1, l2 = 0.5 * a1, 0.5 * a2
        r_best = revenue(l1, l2)
    else:
        searched = {}  # l1 -> (l2, revenue) of the inner search

        def inner(l1):
            nonlocal evaluations
            if l1 not in searched:
                l2, r, calls = _golden_max(lambda x: revenue(l1, x), 0.0, a2, _THETA_TOL * b2)
                evaluations += calls
                searched[l1] = l2, r
            return searched[l1]

        l1 = _golden_max(lambda x: inner(x)[1], 0.0, a1, _THETA_TOL * b1)[0]
        # zero rates are always admissible (zero waits, revenue 0), so r_best is finite
        l2, r_best = inner(l1)
    r1, r2, w0 = l1 * s, l2 * s, 0.5 * (l1 + l2) * s2
    k, cap_k, _ = bound(l1, l2)
    # never None: rp2_min_weight tries the two ends with the very calls
    # that found this pair feasible
    q = rp2_min_weight(r1, r2, w0, cap_k, k)
    p_best = q if k == 0 else 1.0 - q
    w1, w2 = rp2_kernel(r1, r2, w0, p_best)
    theta1 = _inverse_demand(a1, b1, c1, T1, l1, w1)
    theta2 = _inverse_demand(a2, b2, c2, T2, l2, w2)
    active = tuple(
        name
        for name, w, T, l in (("T1", w1, T1, l1), ("T2", w2, T2, l2))
        if l > 0 and math.isfinite(T) and w > T - 1e-6
    )
    margin, unconverged, steps = _cloud_certify(cfg, p_best, r_best)
    return ControlSolution(
        "priced",
        {"theta1": theta1, "theta2": theta2, "p1": p_best},
        objective=r_best,
        active_constraints=active,
        diagnostics={
            "lambda1": l1,
            "lambda2": l2,
            "W1": w1,
            "W2": w2,
            "evaluations": evaluations,
            "certification_margin": margin,
            "certification_unconverged": unconverged,
            "certification_iterations": steps,
        },
    )


# ---------------------------------------------------------------------------
# joint pricing of a secondary class sharing the server with a primary class

@dataclass(frozen=True)
class JointPricingConfig:
    """A primary stream (rate lambda_p) shares the server (rate mu, service
    variance sigma2) with a priced secondary stream whose demand is
    lambda_s = a - b*theta - c*S_s at quoted delay S_s; S_p caps the
    primary mean wait."""

    lambda_p: float
    mu: float
    sigma2: float
    S_p: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (0 < self.lambda_p < _INF and 0 < self.mu < _INF):
            raise InvalidParameterError("rates must be positive and finite")
        if self.lambda_p >= self.mu:
            raise InvalidParameterError("the primary stream alone must be stable")
        if not 0 <= self.sigma2 < _INF:
            raise InvalidParameterError("sigma2 must be finite and nonnegative")
        if not self.S_p > 0:
            raise InvalidParameterError("S_p must be positive (+inf for none)")
        if not (0 <= self.a < _INF and 0 < self.b < _INF and 0 <= self.c < _INF):
            raise InvalidParameterError("need finite a >= 0, b > 0, c >= 0")


def joint_pricing_T1(cfg: JointPricingConfig) -> ControlSolution:
    """Maximize the secondary-class revenue (a*l - l^2 - c*l*W_s(l, p))/b
    over the admitted rate l and the primary priority weight p, subject to
    the primary service level W_p <= S_p and stability l <= mu - lambda_p.

    The search runs over l alone.  At a fixed l the conservation law
    rho_p*W_p + rho_s*W_s = rho*W0/(1 - rho) makes W_s fall as W_p rises,
    so the best weight puts W_p at min(S_p, W_p at p = 0), the nearer end
    of the achievable segment to the SLA (with c = 0 every feasible weight
    earns the same, and this one quotes the secondary its lowest wait).  A
    rate is feasible iff W_p at p = 1, W0/(1 - rho_p), is within S_p:
    l <= 2*S_p*(1 - rho_p)/E[S^2] - lambda_p, clipped to mu - lambda_p.
    The reduced objective is concave in l, so one golden-section search
    over the feasible rates, to 1e-14 of their range, finds it, and that
    reduced value is the reported objective; p, the price and the waits
    then come from :func:`rp2_min_weight`'s weight.  Delay-blind demand
    (c = 0, no SLA) takes the vertex a/2 clipped to the stable range, with
    p = 0."""
    s = 1.0 / cfg.mu
    s2 = cfg.sigma2 + s * s
    ls_max = cfg.mu - cfg.lambda_p
    delay_blind = cfg.c == 0.0 and not math.isfinite(cfg.S_p)

    lam_p = cfg.lambda_p
    r_p = lam_p * s
    w_p0 = 0.5 * lam_p * s2 / (1.0 - r_p)
    if cfg.S_p < w_p0 - 1e-12:
        raise InfeasibleError(
            f"S_p={cfg.S_p:.6g} is below the primary wait {w_p0:.6g} with no secondary traffic"
        )

    def waits(ls, p):
        # (primary, secondary) RP waits at secondary rate ls
        return rp2_kernel(r_p, ls * s, 0.5 * (lam_p + ls) * s2, p)

    # W_p at p = 0 reaches S_p where (lam_p + l)*E[S^2]/2 = S_p*(1 - rho_p -
    # l*s)*(1 - l*s), over S_p the quadratic s^2*l^2 - qb*l + qc = 0.  Its
    # roots are the kink l_k and a rate past the stable range, so the SLA's
    # excess W_p(0) - S_p is S_p*s^2*(l - l_k)*(l_far - l)/((1 - rho)*(1 -
    # l*s)), with no difference of two O(S_p) waits.  S_p may sit within
    # rounding of the zero-rate wait, where l_k is tiny, so the constant
    # S_p*(1 - rho_p) - lam_p*E[S^2]/2 is computed in exact integers and
    # rounded once
    l_k = l_far = _INF
    if math.isfinite(cfg.S_p):
        (a, b), (c, d), (e, f), (g, h) = (x.as_integer_ratio() for x in (cfg.S_p, r_p, lam_p, s2))
        const = (2 * a * (d - c) * f * h - b * d * e * g) / (2 * b * d * f * h)
        qb = (2.0 - r_p) * s + 0.5 * s2 / cfg.S_p
        qc = const / cfg.S_p
        root = math.sqrt(qb * qb - 4.0 * s * s * qc)
        l_k, l_far = 2.0 * qc / (qb + root), (qb + root) / (2.0 * s * s)

    def reduced(ls):
        # the objective at the best feasible weight, W_p = min(S_p, W_p at
        # p = 0).  By the conservation law ls*W_s is the secondary's strict-
        # priority delay ls*W0/(1 - rho_s) plus lambda_p times the part of
        # the primary's p = 0 wait the SLA takes back; this form has no
        # cancellation of large terms near rho = 1; ls = 0 earns 0, even at l_k < 0
        rho = r_p + ls * s
        if rho >= _LOAD_LIMIT:  # unstable, as rp2_kernel decides
            return -_INF
        w0 = 0.5 * (lam_p + ls) * s2
        excess = (cfg.S_p * s * s * (ls - l_k) * (l_far - ls) / ((1.0 - rho) * (1.0 - ls * s))
                  if ls > l_k and ls > 0.0 else 0.0)
        ls_ws = ls * w0 / (1.0 - ls * s) + lam_p * excess
        return (cfg.a * ls - ls * ls - cfg.c * ls_ws) / cfg.b

    calls = 0
    if delay_blind:
        # exactly quadratic: vertex at a/2, clipped to the stable range
        ls_star = min(max(cfg.a / 2.0, 0.0), ls_max)
    else:
        ls_hi = min(max(2.0 * cfg.S_p * (1.0 - r_p) / s2 - lam_p, 0.0), ls_max)
        # rounding can leave the closed form just past the SLA (by many ulps
        # of ls_hi when the SLA is barely above the wait at ls = 0), so back
        # off in doubling steps; W_p at p = 1 is nondecreasing in the rate,
        # so every rate below ls_hi is then feasible
        step = math.ulp(ls_hi)
        while ls_hi > 0.0 and cfg.S_p < waits(ls_hi, 1.0)[0] < _INF:
            ls_hi = max(ls_hi - step, 0.0)
            step *= 2.0
        ls_star, _, calls = _golden_max(reduced, 0.0, ls_hi, 1e-14 * ls_hi)

    # None where rounding leaves W_p at p = 1 above S_p, or at an unstable rate
    p_star = rp2_min_weight(r_p, ls_star * s, 0.5 * (lam_p + ls_star) * s2, cfg.S_p, 0)
    p_star = 1.0 if p_star is None else p_star

    w_pri, w_sec = waits(ls_star, p_star)
    delay = cfg.c * w_sec if cfg.c else 0.0  # c = 0 ignores even an infinite wait
    # the objective the search ranked, not the one at the rounded weight
    v_star = (cfg.a * ls_star - ls_star * ls_star) / cfg.b if delay_blind else reduced(ls_star)
    if not math.isfinite(v_star):
        raise InfeasibleError("no feasible (rate, priority) point")
    theta = (cfg.a - ls_star - delay) / cfg.b
    if ls_star == 0.0:  # zero demand holds at every price from theta up: quote one in [0, a/b]
        theta = min(max(theta, 0.0), cfg.a / cfg.b)
    active = []
    if math.isfinite(cfg.S_p) and w_pri > cfg.S_p - 1e-6:
        active.append("S_p")
    if ls_star > ls_max - 1e-9:
        active.append("stability")
    return ControlSolution(
        "priced",
        {"lambda_s": ls_star, "p1": p_star, "theta": theta, "S_s": w_sec},
        objective=v_star,
        active_constraints=tuple(active),
        diagnostics={"W_p": w_pri, "evaluations": calls},
    )
