"""Parameter transformations between the 2-class dynamic-priority schemes
(beta <-> p1, beta <-> busy-period integral, alpha <-> p1), the table of
complete schemes, the simulated EDD busy-period integral, and a
completeness solver that hits any target point on the achievable segment
with any scheme.

The canonical exchange currencies are beta and the busy-period integral,
which are exact and land exactly on the strict-priority ends (alpha = 1,
p1 = 1, beta = 0 and back); urgency differences (ubar, dbar) are only ever
reported as the terminal parameter of a simulation-backed search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from .analytic import (_integral_in_range, ddp2_waits, expected_clearing_time, pp2_waits_approx,
                       rp2_min_weight, rp2_waits)
from .core import SystemModel, WaitVector, gfcfs_wait, segment_point, wait_bounds
from .errors import InvalidParameterError, OracleRequiredError
from .sim import DDP, EDD, PP, RP, DisciplineConfig, SimConfig, Strict, run_sim


@dataclass(frozen=True)
class SegmentTarget:
    """A point on the 2-class achievable segment, by convex weight or by
    class-1 mean wait.  Exactly one of the two must be set."""

    alpha: Optional[float] = None
    target_w1: Optional[float] = None

    def __post_init__(self):
        if (self.alpha is None) == (self.target_w1 is None):
            raise InvalidParameterError("set exactly one of alpha / target_w1")
        if self.alpha is not None and not (0.0 <= self.alpha <= 1.0):
            raise InvalidParameterError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class SchemeParameter:
    """The parameter of one scheme: beta, p1, ubar, dbar, or omega1."""

    scheme: str
    value: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def _check_rho(rho: float) -> None:
    if not (0.0 < rho < 1.0):
        raise InvalidParameterError(f"rho must lie in (0, 1), got {rho}")


def beta_from_p1(rho: float, p1: float) -> float:
    """Map the relative-priority parameter to the equivalent beta.

    Strictly decreasing, beta(1/2) = 1, beta(1) = 0, beta(0) = +inf.
    """
    _check_rho(rho)
    if not (0.0 <= p1 <= 1.0):
        raise InvalidParameterError(f"p1 must lie in [0, 1], got {p1}")
    if p1 >= 0.5:
        return (2.0 - rho) * (1.0 - p1) / (1.0 - rho * (1.0 - p1))
    if p1 == 0.0:
        return math.inf
    return (1.0 - rho * p1) / ((2.0 - rho) * p1)


def p1_from_beta(rho: float, beta: float) -> float:
    """Exact inverse of :func:`beta_from_p1`: 1 at beta = 0, 0 at beta = inf."""
    _check_rho(rho)
    if not (beta >= 0):
        raise InvalidParameterError(f"beta must be in [0, +inf], got {beta}")
    if beta <= 1.0:
        return 1.0 - beta / (2.0 - rho * (1.0 - beta))
    if math.isinf(beta):
        return 0.0
    return 1.0 / ((2.0 - rho) * beta + rho)


def beta_from_integral(model: SystemModel, integral_value: float, branch: str) -> float:
    """Map a busy-period integral value to the equivalent beta.

    branch "neg" (class 1 favoured) yields beta in [0, 1]; branch "nonneg"
    yields beta in [1, +inf].  Both the branches and the accepted range are
    those of :func:`~mg1lab.analytic.edd2_waits_from_integral`.
    """
    iv, upper = _integral_in_range(model, integral_value, branch)
    if iv == upper:  # the strict-priority end, which rounding would miss
        return SCHEMES["ddp"].ends[0 if branch == "neg" else 1]
    rhos, rho, w0 = model.rho_per_class, model.rho, model.w0
    if branch == "neg":
        num = w0 - (1.0 - rhos[0]) * (1.0 - rho) * iv
        den = w0 + rhos[0] * (1.0 - rho) * iv
        return max(num, 0.0) / den
    num = w0 + rhos[1] * (1.0 - rho) * iv
    den = w0 - (1.0 - rhos[1]) * (1.0 - rho) * iv
    if den <= 0.0:
        return math.inf
    return num / den


def integral_from_beta(model: SystemModel, beta: float) -> tuple[float, str]:
    """Inverse of :func:`beta_from_integral`; returns (integral, branch)."""
    model.require_two_classes()
    if not (beta >= 0):
        raise InvalidParameterError(f"beta must be in [0, +inf], got {beta}")
    rhos, rho, w0 = model.rho_per_class, model.rho, model.w0
    if beta <= 1.0:
        iv = w0 * (1.0 - beta) / ((1.0 - rho) * (1.0 - rhos[0] * (1.0 - beta)))
        return iv, "neg"
    if math.isinf(beta):
        return expected_clearing_time(model, 1), "nonneg"
    iv = w0 * (beta - 1.0) / ((1.0 - rho) * (rhos[1] + beta * (1.0 - rhos[1])))
    return iv, "nonneg"


@dataclass(frozen=True)
class Scheme:
    """One complete 2-class scheme: its parameter's name, the values that
    serve class 1 first and class 2 first, any exact map to beta and back,
    the waits of a parameter (exact at the ends; PP's approximate between),
    the parameter of an exact class-1 wait, and the simulator discipline
    between the ends; None where there is none yet.  EDD's ends are urgency
    differences, but its map currency is the busy-period integral of
    `map --from edd:X` and `analyze --integral`, on the branch ("neg" or
    "nonneg") that only EDD's `to_beta` reads."""

    param: str
    ends: tuple[float, float]
    to_beta: Optional[Callable[[SystemModel, float, str], float]] = None
    from_beta: Optional[Callable[[SystemModel, float], float]] = None
    waits: Optional[Callable[[SystemModel, float], WaitVector]] = None
    inverse: Optional[Callable[[SystemModel, float], float]] = None
    config: Optional[Callable[[float], DisciplineConfig]] = None

    def discipline(self, value: float) -> DisciplineConfig:
        """The simulator discipline of a parameter: strict priority at an end."""
        if value in self.ends:
            first = self.ends.index(value)
            return Strict((first, 1 - first))
        return self.config(value)


#: every complete 2-class scheme, by name
SCHEMES = {
    "ddp": Scheme("beta", (0.0, math.inf), lambda m, beta, _: beta, lambda m, beta: beta,
                  waits=ddp2_waits, config=lambda beta: DDP((1.0, beta)),
                  inverse=lambda m, w1: beta_from_p1(m.rho, SCHEMES["rp"].inverse(m, w1))),
    "rp": Scheme("p1", (1.0, 0.0), lambda m, p1, _: beta_from_p1(m.rho, p1),
                 lambda m, beta: p1_from_beta(m.rho, beta),
                 waits=rp2_waits, inverse=lambda m, w1: rp2_min_weight(*m.rho_per_class, m.w0, w1, 0)[0],
                 config=lambda p1: RP((p1, 1.0 - p1))),
    "edd": Scheme("ubar", (-math.inf, math.inf), beta_from_integral,
                  lambda m, beta: integral_from_beta(m, beta)[0],
                  config=lambda ubar: EDD((max(ubar, 0.0), max(-ubar, 0.0)))),
    "holpj": Scheme("dbar", (-math.inf, math.inf)),
    "pp": Scheme("omega1", (1.0, 0.0), waits=pp2_waits_approx, config=lambda omega1: PP((omega1, 1.0))),
}

#: schemes whose parameter can only be located through a simulation oracle
SIMULATED_SCHEMES = tuple(name for name, scheme in SCHEMES.items() if scheme.inverse is None)


def edd_config_from_ubar(model: SystemModel, ubar: float) -> DisciplineConfig:
    """2-class EDD configuration for an urgency difference u1 - u2 = ubar;
    EDD's ends, ubar = -inf and +inf, run strict-priority dispatch."""
    model.require_two_classes()
    return SCHEMES["edd"].discipline(ubar)


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


def p1_from_alpha(model: SystemModel, alpha: float) -> float:
    """Relative-priority parameter whose wait vector is the segment point at
    alpha (alpha = 1 is strict (1,2), alpha = 0 strict (2,1)); at those two
    ends it is RP's end exactly."""
    w1 = segment_point(model, alpha)[0]
    if alpha in (0.0, 1.0):
        return SCHEMES["rp"].ends[0 if alpha else 1]
    return SCHEMES["rp"].inverse(model, w1)


def alpha_from_p1(model: SystemModel, p1: float) -> float:
    """Convex weight of the segment point reached by relative priority p1:
    p1(1 - rho1) / (p1(1 - rho1) + (1 - p1)(1 - rho2)), which is exactly 1
    and 0 at p1 = 1 and 0 and lies in [0, 1] by construction.  On a
    degenerate segment (no class-2 load) every alpha names the same point."""
    model.require_two_classes()
    if not (0.0 <= p1 <= 1.0):
        raise InvalidParameterError(f"p1 must lie in [0, 1], got {p1}")
    r1, r2 = model.rho_per_class
    x = p1 * (1.0 - r1)
    return x / (x + (1.0 - p1) * (1.0 - r2))


def _target_w1(model: SystemModel, target: SegmentTarget) -> float:
    if target.alpha is not None:
        return segment_point(model, target.alpha)[0]
    (lo1, hi1), _ = wait_bounds(model)
    tol = 1e-9 * max(hi1, 1.0)
    if not (lo1 - tol <= target.target_w1 <= hi1 + tol):
        raise InvalidParameterError(
            f"target w1 = {target.target_w1} outside achievable [{lo1}, {hi1}]"
        )
    return min(max(target.target_w1, lo1), hi1)


# search knobs for the simulated schemes
_BRACKET_TOL = 1e-3
#: every probe lies at least this share of the bracket width inside each end
_SAFEGUARD = 0.1


def _interpolate(anchors: list[tuple[float, float]], w1: float) -> float:
    """The t at which the piecewise-linear curve through the (t, w1) anchors,
    increasing in both coordinates, reaches w1 (strictly inside its range)."""
    for (t0, a), (t1, b) in zip(anchors, anchors[1:]):
        if w1 <= b:
            break
    return t0 + (w1 - a) * (t1 - t0) / (b - a)


def achieve_target(
    model: SystemModel,
    target: SegmentTarget,
    scheme: str,
    sim_oracle: Optional[Callable[[float], tuple[float, float]]] = None,
) -> SchemeParameter:
    """Find the scheme parameter whose class-1 mean wait matches the target.

    For RP and DDP the record's exact inverse answers.  For EDD, HOL-PJ and PP
    a simulation oracle `param -> (mean_w1, ci_halfwidth)` must be supplied.
    The parameter is located on a bounded variable t in [0, 1], with class-1
    wait increasing in t, stopping once the oracle CI covers the target
    (diagnostic `covered` True) or the t bracket closes below 1e-3
    (`covered` False: the returned parameter is the bracket's midpoint).

    The search uses the waits the paper gives exactly: the strict-priority
    waits at t = 0 and t = 1, and for EDD and HOL-PJ the GFCFS wait
    W0/(1 - rho) at t = 1/2 (urgency difference 0).  The first probe
    interpolates the target linearly through these anchors.  Later probes
    take false position between the bracket ends, with oracle means clipped
    to the strict-priority range.  Each probe lies at least 10% of the
    bracket width inside each end, and a step that keeps more than half the
    bracket is followed by a bisection step, so the bracket shrinks to at
    most 0.45 of its width every two probes and the search makes at most 18
    oracle calls.  The anchors seed the first probe only: a sample path may
    cross the target on the other side of t = 1/2, so the bracket stays
    [0, 1] until the oracle narrows it.
    """
    model.require_two_classes()
    if scheme not in SCHEMES:
        raise InvalidParameterError(f"unknown scheme {scheme!r}")
    w1_star = _target_w1(model, target)
    (lo1, hi1), _ = wait_bounds(model)
    rho = model.rho

    # exact endpoint ties resolve to the strict-priority parameter
    if w1_star in (lo1, hi1):
        end = SCHEMES[scheme].ends[0 if w1_star == lo1 else 1]
        return SchemeParameter(scheme, end, {"case": "endpoint"})

    inverse = SCHEMES[scheme].inverse
    if inverse is not None:
        return SchemeParameter(scheme, inverse(model, w1_star), {"case": "analytic"})

    if sim_oracle is None:
        raise OracleRequiredError(f"scheme {scheme!r} needs a simulation oracle")

    # EDD / HOL-PJ: w1 increasing in the urgency difference; PP: w1
    # decreasing in omega1.  The urgency scale is the GFCFS wait, reached
    # at urgency difference 0.
    scale = model.w0 / (1.0 - rho)
    if scheme == "pp":
        param_of_t = lambda t: 1.0 - t  # noqa: E731
        anchors = [(0.0, lo1), (1.0, hi1)]
    else:
        # tan maps the probes, all strictly inside (0, 1), onto the real line
        param_of_t = lambda t: scale * math.tan(math.pi * (t - 0.5))  # noqa: E731
        anchors = [(0.0, lo1), (0.5, scale), (1.0, hi1)]

    calls = 0

    def probe(t: float) -> tuple[float, float]:
        nonlocal calls
        calls += 1
        return sim_oracle(param_of_t(t))

    # bracket ends with their class-1 waits, lo_w < w1_star < hi_w throughout
    t_lo, t_hi, lo_w, hi_w = 0.0, 1.0, lo1, hi1
    t = _interpolate(anchors, w1_star)
    while True:
        width = t_hi - t_lo
        t = min(max(t, t_lo + _SAFEGUARD * width), t_hi - _SAFEGUARD * width)
        mean, ci = probe(t)
        covered = bool(abs(mean - w1_star) <= ci)
        if not covered:
            if mean < w1_star:
                t_lo, lo_w = t, max(lo1, mean)
            else:  # a NaN mean lands here, clipped to hi1
                t_hi, hi_w = t, min(hi1, mean)
        if covered or t_hi - t_lo < _BRACKET_TOL:
            return SchemeParameter(
                scheme,
                param_of_t(t if covered else 0.5 * (t_lo + t_hi)),
                {"case": "bisection", "oracle_calls": calls, "bracket": t_hi - t_lo,
                 "achieved_w1": mean, "ci": ci, "covered": covered},
            )
        if t_hi - t_lo > 0.5 * width:
            t = 0.5 * (t_lo + t_hi)
        else:
            t = _interpolate([(t_lo, lo_w), (t_hi, hi_w)], w1_star)  # false position
