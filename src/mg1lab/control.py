"""Optimal-control solvers built on the two-class achievable wait region.

Six applications share the same backbone: the achievable mean-wait pairs
form a line segment pinned by the conservation law, so each control
problem reduces to picking one point of that segment (equivalently one
scheduling parameter) and, where prices are involved, a price vector.
Closed forms are used where available; the pricing problems are solved
numerically and certified against dense grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .core import (
    CustomerClassSpec,
    ServiceDistribution,
    SystemModel,
    gfcfs_wait,
    strict_priority_waits_2class,
    segment_point,
)
from .analytic import rp2_kernel, rp2_waits
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
        return json.dumps(
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

def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x)).  Endpoint
    values are checked so boundary optima are never missed."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if not math.isfinite(fm):
        # a maximum on the edge of a rejected (-inf) region can leave the
        # final midpoint just outside it; keep the better interior probe
        xm, fm = (x1, f1) if f1 >= f2 else (x2, f2)
    candidates = [(xm, fm), (lo, f(lo)), (hi, f(hi))]
    # parabolic polish: golden-section alone resolves a smooth interior
    # maximum only to about sqrt(machine epsilon); one wide-stencil parabola
    # fit recovers the vertex of a locally quadratic objective exactly
    h = 1e-5 * (hi - lo)
    if h > 0.0 and lo <= xm - h and xm + h <= hi:
        f0, f2 = f(xm - h), f(xm + h)
        if all(map(math.isfinite, (f0, fm, f2))):
            curve = f0 - 2.0 * fm + f2
            if curve < 0.0:
                xv = xm + 0.5 * h * (f0 - f2) / curve
                xv = min(max(xv, lo), hi)
                candidates.append((xv, f(xv)))
    return max(candidates, key=lambda t: t[1])


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
        if self.d <= 1.0:
            raise InvalidParameterError("deadline d must exceed the unit service time")
        if not 0.0 < self.b < self.model.rho:
            raise InvalidParameterError("miss probability b must lie in (0, rho)")
        for name in ("v1", "v2", "v3", "v4"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be nonnegative")


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


def _class1_wait_range(model: SystemModel) -> tuple[float, float]:
    lo = strict_priority_waits_2class(model, 0)[0]
    hi = strict_priority_waits_2class(model, 1)[0]
    return lo, hi


def _partner_wait(model: SystemModel, w1: float) -> float:
    r1, r2 = model.rho_per_class
    return (model.rho * gfcfs_wait(model) - r1 * w1) / r2


def rp_param_for_utility(cfg: NetworkUtilityConfig) -> ControlSolution:
    """Relative-priority weight p1 maximizing the network utility; the
    dynamic case pins the class-1 mean wait to K, the static cases hand
    class 2 strict priority."""
    model = cfg.model
    r1, r2 = model.rho_per_class
    rho, w0 = model.rho, model.w0
    K = network_K(rho, cfg.d, cfg.b)
    lo, hi = _class1_wait_range(model)
    if not lo <= K <= hi:
        case = "deadline-slack" if K > hi else "deadline-unmeetable"
        return ControlSolution(case, {"p1": 0.0}, diagnostics={"K": K})
    L = math.log(rho / cfg.b)
    num = L * w0 - rho * (cfg.d - 1.0) * (1.0 - r2) * (1.0 - rho)
    den = rho * L * w0 + rho * (cfg.d - 1.0) * (r2 * (1.0 - r2) - r1 * (1.0 - r1))
    p1 = num / den
    return ControlSolution("dynamic", {"p1": p1}, diagnostics={"K": K})


def pp_param_for_utility_approx(cfg: NetworkUtilityConfig) -> ControlSolution:
    """Polling probability omega1 whose approximate class-1 mean wait equals
    K; static cases return omega1 = 0 (class-2 priority)."""
    model = cfg.model
    r1, r2 = model.rho_per_class
    rho, w0 = model.rho, model.w0
    K = network_K(rho, cfg.d, cfg.b)
    lo, hi = _class1_wait_range(model)
    if not lo <= K <= hi:
        case = "deadline-slack" if K > hi else "deadline-unmeetable"
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
    the location of K relative to the achievable class-1 wait range."""
    model = cfg.model
    r1, r2 = model.rho_per_class
    K = network_K(model.rho, cfg.d, cfg.b)
    lo, hi = _class1_wait_range(model)
    w2_strict = model.w0 / (1.0 - r2)
    if K > hi:
        util = cfg.v1 + cfg.v3 - cfg.v4 * (1.0 + w2_strict)
        return ControlSolution("deadline-slack", {"w1": hi}, objective=util,
                               diagnostics={"K": K})
    if K < lo:
        util = cfg.v3 - cfg.v2 - cfg.v4 * (1.0 + w2_strict)
        return ControlSolution("deadline-unmeetable", {"w1": hi}, objective=util,
                               diagnostics={"K": K})
    w2 = _partner_wait(model, K)
    util = cfg.v1 + cfg.v3 - cfg.v4 * (1.0 + w2)
    return ControlSolution("dynamic", {"w1": K}, objective=util,
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
    if c1 < 0 or c2 < 0:
        raise InvalidParameterError("holding costs must be nonnegative")
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
    weighs prime revenue and w2 the regular-class service level, penalized
    by default (set penalize_regular=False for the additive reading)."""

    lambda_P: float
    lambda_R: float
    service: ServiceDistribution
    a: float
    b: float
    w1: float
    w2: float
    S_R: Optional[float] = None
    penalize_regular: bool = True

    def __post_init__(self):
        if self.lambda_P <= 0 or self.lambda_R <= 0:
            raise InvalidParameterError("both arrival rates must be positive")
        if self.a <= 0 or self.b <= 0:
            raise InvalidParameterError("price-sensitivity coefficients must be positive")
        if self.w1 < 0 or self.w2 < 0:
            raise InvalidParameterError("weights must be nonnegative")

    def model(self) -> SystemModel:
        return SystemModel(
            (
                CustomerClassSpec(self.lambda_P, self.service),
                CustomerClassSpec(self.lambda_R, self.service),
            )
        )


def hpc_utility_opt(cfg: HpcConfig) -> ControlSolution:
    """Maximize w1*(a - b*W_P(p))*lambda_P - w2*W_R(p) over the relative
    priority weight p of the prime class.  Golden-section refinement on
    top of a coarse grid; endpoints always checked."""
    model = cfg.model()
    r1, r2 = model.rho_per_class
    w0 = model.w0
    sign = -1.0 if cfg.penalize_regular else 1.0

    def theta(p):
        return cfg.a - cfg.b * rp2_kernel(r1, r2, w0, p)[0]

    if theta(1.0) < 0:
        raise InfeasibleError("the prime price is negative at every priority level")

    def util(p):
        # p is a float or the whole grid
        w_p, w_r = rp2_kernel(r1, r2, w0, p)
        return cfg.w1 * (cfg.a - cfg.b * w_p) * cfg.lambda_P + sign * cfg.w2 * w_r

    grid = np.linspace(0.0, 1.0, 1001)
    i = int(np.argmax(util(grid)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    p_star, u_star = _golden_max(util, lo, hi, 1e-12)
    return ControlSolution(
        "interior" if 0.0 < p_star < 1.0 else "boundary",
        {"p1": p_star, "theta": theta(p_star)},
        objective=u_star,
        diagnostics={"grid_points": len(grid)},
    )


def hpc_revenue_constrained(cfg: HpcConfig) -> ControlSolution:
    """Maximize the prime revenue theta*lambda_P subject to the regular
    service level W_R(p) <= S_R.  Revenue rises and W_R worsens as p grows,
    so the optimum sits at p = 1 or on the constraint boundary."""
    if cfg.S_R is None:
        raise InvalidParameterError("S_R is required for the constrained problem")
    model = cfg.model()
    r1, r2 = model.rho_per_class
    w0 = model.w0

    def w_reg(p):
        return rp2_kernel(r1, r2, w0, p)[1]

    def theta(p):
        return cfg.a - cfg.b * rp2_kernel(r1, r2, w0, p)[0]

    w_min, w_max = w_reg(0.0), w_reg(1.0)
    if cfg.S_R < w_min - 1e-12:
        raise InfeasibleError(
            f"S_R={cfg.S_R:.6g} is below the minimum regular-class wait {w_min:.6g}"
        )
    if cfg.S_R >= w_max:
        p_star, active = 1.0, ()
    else:
        p_star = brentq(lambda p: w_reg(p) - cfg.S_R, 0.0, 1.0, xtol=1e-14)
        active = ("S_R",)
    return ControlSolution(
        "constrained" if active else "slack",
        {"p1": p_star, "theta": theta(p_star)},
        objective=theta(p_star) * cfg.lambda_P,
        active_constraints=active,
        diagnostics={"W_R": w_reg(p_star)},
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
        if self.mu <= 0:
            raise InvalidParameterError("mu must be positive")
        if self.scv < 0:
            raise InvalidParameterError("scv must be nonnegative")
        if any(x <= 0 for x in self.a) or any(x <= 0 for x in self.b):
            raise InvalidParameterError("demand intercepts and price slopes must be positive")
        if any(x < 0 for x in self.c):
            raise InvalidParameterError("delay sensitivities must be nonnegative")
        if any(x <= 0 for x in self.T):
            raise InvalidParameterError("SLA thresholds must be positive")


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


def _cloud_certify(cfg: CloudConfig, p1: float, r_best: float) -> tuple[float, int]:
    """Re-solve the demand fixed point on a 21 x 21 price grid at weight p1
    and return (the largest revenue above r_best among the converged,
    SLA-feasible points, or 0; the number of points whose fixed point hit
    the iteration cap).  Each point iterates with damping 0.5 until a step
    moves its rates by less than 1e-10, for at most 1000 steps."""
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

    l1, l2 = np.minimum(cap[0], 0.45 * cfg.mu), np.minimum(cap[1], 0.45 * cfg.mu)
    running = np.ones((n, n), dtype=bool)
    for _ in range(1000):
        w1, w2 = waits(l1, l2)
        n1, n2 = demand(0, w1), demand(1, w2)
        step = np.maximum(np.abs(n1 - l1), np.abs(n2 - l2))
        l1 = np.where(running, 0.5 * (l1 + n1), l1)
        l2 = np.where(running, 0.5 * (l2 + n2), l2)
        running &= ~(step < 1e-10)
        if not running.any():
            break
    w1, w2 = waits(l1, l2)
    ok = ~running & ~((l1 > 0) & (w1 > cfg.T[0] + 1e-12)) & ~((l2 > 0) & (w2 > cfg.T[1] + 1e-12))
    gain = np.where(ok, t1 * l1 + t2 * l2 - r_best, 0.0)
    return max(0.0, float(gain.max())), int(running.sum())


def cloud_revenue_opt(cfg: CloudConfig, p_grid: int = 41, theta_tol: float = 1e-7) -> ControlSolution:
    """Maximize theta1*l1 + theta2*l2 over prices and the priority weight.

    The search runs over the arrival rates (l1, l2) and recovers each price
    by inverse demand, theta_i = (a_i - l_i - c_i*W_i)/b_i with W_i the RP
    wait at those rates, so every candidate is an exact demand equilibrium
    at one closed-form wait evaluation.  Rates whose price would leave
    [0, a_i/b_i], or whose wait breaks its SLA cap T_i, are rejected.
    Nested golden-section over the two rates, a grid plus golden
    refinement over p.  theta_tol bounds the final bracket of each rate
    search to theta_tol*b_i, a price resolution of theta_tol in the
    delay-free part of the inverse demand.

    The optimum is certified on a 21 x 21 price grid at the chosen p by
    the damped demand fixed point: `certification_margin` is the largest
    revenue any converged, SLA-feasible grid point beats the optimum by
    (0 when none does), and `certification_unconverged` counts the grid
    points whose fixed point hit its iteration cap and so were not
    compared."""
    s = 1.0 / cfg.mu
    s2 = (1.0 + cfg.scv) * s * s
    (a1, a2), (b1, b2), (c1, c2), (T1, T2) = cfg.a, cfg.b, cfg.c, cfg.T

    def equilibrium(l1, l2, p1):
        # (theta1, theta2, w1, w2) that support rates (l1, l2), or None
        w1, w2 = rp2_kernel(l1 * s, l2 * s, 0.5 * (l1 + l2) * s2, p1)
        theta1 = _inverse_demand(a1, b1, c1, T1, l1, w1)
        theta2 = _inverse_demand(a2, b2, c2, T2, l2, w2)
        if theta1 is None or theta2 is None:
            return None
        return theta1, theta2, w1, w2

    def revenue(l1, l2, p1):
        eq = equilibrium(l1, l2, p1)
        return -_INF if eq is None else eq[0] * l1 + eq[1] * l2

    def best_at_p(p1, tol):
        def inner(l1):
            return _golden_max(lambda l2: revenue(l1, l2, p1), 0.0, a2, tol * b2)

        l1, _ = _golden_max(lambda x: inner(x)[1], 0.0, a1, tol * b1)
        l2, r = inner(l1)
        return r, l1, l2

    # coarse scan over p, then one golden refinement of p, then a fine
    # rate solve at the incumbent p
    coarse = max(theta_tol, 1e-3)
    grid = np.linspace(0.0, 1.0, p_grid).tolist()
    results = [best_at_p(p, coarse)[0] for p in grid]
    i = int(np.argmax(results))
    p_best = grid[i]
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, p_grid - 1)]
    if hi > lo:
        p_ref, r_ref = _golden_max(lambda p: best_at_p(p, coarse)[0], lo, hi, 1e-3)
        if r_ref > results[i]:
            p_best = p_ref
    # zero rates are always admissible (zero waits, revenue 0), so r_best is finite
    r_best, l1, l2 = best_at_p(p_best, theta_tol)
    theta1, theta2, w1, w2 = equilibrium(l1, l2, p_best)
    active = tuple(
        name
        for name, w, T, l in (("T1", w1, T1, l1), ("T2", w2, T2, l2))
        if l > 0 and math.isfinite(T) and w > T - 1e-6
    )
    margin, unconverged = _cloud_certify(cfg, p_best, r_best)
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
            "certification_margin": margin,
            "certification_unconverged": unconverged,
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
        if self.lambda_p <= 0 or self.mu <= 0:
            raise InvalidParameterError("rates must be positive")
        if self.lambda_p >= self.mu:
            raise InvalidParameterError("the primary stream alone must be stable")
        if self.sigma2 < 0:
            raise InvalidParameterError("sigma2 must be nonnegative")
        if self.S_p <= 0:
            raise InvalidParameterError("S_p must be positive")
        if self.a < 0 or self.b <= 0 or self.c < 0:
            raise InvalidParameterError("need a >= 0, b > 0, c >= 0")


def joint_pricing_T1(cfg: JointPricingConfig, grid: int = 200) -> ControlSolution:
    """Maximize the secondary-class revenue (a*l - l^2 - c*l*W_s(l, p))/b
    over the admitted rate l and the primary priority weight p, subject to
    the primary service level W_p <= S_p and stability l <= mu - lambda_p.
    Grid search with alternating golden-section refinement."""
    s = 1.0 / cfg.mu
    s2 = cfg.sigma2 + s * s
    ls_max = cfg.mu - cfg.lambda_p
    delay_blind = cfg.c == 0.0 and not math.isfinite(cfg.S_p)

    w_p0 = 0.5 * cfg.lambda_p * s2 / (1.0 - cfg.lambda_p * s)
    if cfg.S_p < w_p0 - 1e-12:
        raise InfeasibleError(
            f"S_p={cfg.S_p:.6g} is below the primary wait {w_p0:.6g} with no secondary traffic"
        )

    lam_p = cfg.lambda_p
    r_p = lam_p * s

    def waits(ls, p):
        # (primary, secondary) RP waits at secondary rate ls
        return rp2_kernel(r_p, ls * s, 0.5 * (lam_p + ls) * s2, p)

    def obj(ls, p):
        if ls < 0.0 or ls > ls_max:
            return -_INF
        if delay_blind:
            return (cfg.a * ls - ls * ls) / cfg.b
        w_pri, w_sec = waits(ls, p)
        if w_pri > cfg.S_p + 1e-12:
            return -_INF
        if ls > 0.0 and not math.isfinite(w_sec):
            return -_INF
        return (cfg.a * ls - ls * ls - cfg.c * ls * (0.0 if ls == 0.0 else w_sec)) / cfg.b

    def ls_upper(p):
        # largest admissible rate under the service-level cap; the primary
        # wait is increasing in the secondary rate, so bisect on it
        if delay_blind or not math.isfinite(cfg.S_p):
            return ls_max
        def excess(ls):
            w_pri, _ = waits(ls, p)
            return min(w_pri, 1e18) - cfg.S_p
        if excess(ls_max) <= 0.0:
            return ls_max
        if excess(0.0) >= 0.0:
            return 0.0
        return brentq(excess, 0.0, ls_max, xtol=1e-14)

    def best_at_p(p):
        # the objective is concave in the rate on the feasible interval
        if delay_blind:
            # exactly quadratic: vertex at a/2, clipped to the stable range
            x = min(max(cfg.a / 2.0, 0.0), ls_max)
            return x, obj(x, p)
        return _golden_max(lambda x: obj(x, p), 0.0, ls_upper(p), 1e-12)

    p_grid = np.linspace(0.0, 1.0, grid).tolist()
    values = [best_at_p(p)[1] for p in p_grid]
    k = int(np.argmax(values))
    lo = p_grid[max(k - 1, 0)]
    hi = p_grid[min(k + 1, grid - 1)]
    p_star, _ = _golden_max(lambda p: best_at_p(p)[1], lo, hi, 1e-10)
    ls_star, v_star = best_at_p(p_star)
    if v_star == -_INF:
        raise InfeasibleError("no feasible (rate, priority) point")

    w_pri, w_sec = waits(ls_star, p_star)
    theta = (cfg.a - ls_star - (cfg.c * w_sec if math.isfinite(w_sec) else 0.0)) / cfg.b
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
        diagnostics={"W_p": w_pri},
    )
