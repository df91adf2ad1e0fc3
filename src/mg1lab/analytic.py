"""Closed-form and recursive stationary mean-wait calculators for the
parametrized dynamic-priority disciplines, plus the 2-class
probabilistic-priority approximation.

Every exact producer here lands on the conservation hyperplane; the
probabilistic-priority approximation does not, and its residual is left
for the caller to inspect rather than hidden.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import (
    _LOAD_LIMIT,
    SystemModel,
    WaitVector,
    gfcfs_wait,
    strict_priority_waits_2class,
    wait_bounds,
)
from .errors import (
    IntegralOutOfRangeError,
    InvalidParameterError,
    SingularSystemError,
)


def _ratio(x: float, y: float) -> float:
    # x <= y in every call site; equal parameters mean FCFS between the
    # classes, which is the x/y -> 1 limit, covering 0/0.
    return 1.0 if x == y else x / y


def ddp_waits(model: SystemModel, b: Sequence[float]) -> WaitVector:
    """Mean waits under delay-dependent priority with accumulation rates b.

    The underlying recursion is valid for b sorted ascending; arbitrary
    nonnegative b is accepted by sorting internally and restoring the
    caller's class order on output.
    """
    n = model.n_classes
    if len(b) != n:
        raise InvalidParameterError(f"need {n} rates, got {len(b)}")
    b = [float(x) for x in b]
    if any(x < 0 or not math.isfinite(x) for x in b):
        raise InvalidParameterError("rates must be finite and >= 0")
    if all(x == 0 for x in b):
        raise InvalidParameterError("at least one rate must be positive")

    order = sorted(range(n), key=lambda i: b[i])
    bs = [b[i] for i in order]
    rhos_all = model.rho_per_class
    rhos = [rhos_all[i] for i in order]
    ew = gfcfs_wait(model)

    w_sorted: list[float] = []
    for k in range(n):
        num = ew - sum(
            rhos[i] * w_sorted[i] * (1.0 - _ratio(bs[i], bs[k])) for i in range(k)
        )
        den = 1.0 - sum(rhos[j] * (1.0 - _ratio(bs[k], bs[j])) for j in range(k + 1, n))
        w_sorted.append(num / den)

    w = [0.0] * n
    for pos, i in enumerate(order):
        w[i] = w_sorted[pos]
    return WaitVector(w)


def ddp2_waits(model: SystemModel, beta: float) -> WaitVector:
    """2-class delay-dependent priority waits for beta = b2/b1 in [0, +inf].

    beta = 0 is strict (1,2) priority, beta = 1 global FCFS, and beta =
    math.inf strict (2,1); both ends return the strict vectors exactly.
    """
    model.require_two_classes()
    if not (beta >= 0):
        raise InvalidParameterError(f"beta must be in [0, +inf], got {beta}")
    if beta == 0.0 or beta == math.inf:
        return strict_priority_waits_2class(model, 0 if beta == 0.0 else 1)
    r1, r2 = model.rho_per_class
    rho, w0 = model.rho, model.w0
    if beta <= 1.0:
        den = (1.0 - rho) * (1.0 - r1 * (1.0 - beta))
        w1 = w0 * (1.0 - rho * (1.0 - beta)) / den
        w2 = w0 / den
    else:
        g = 1.0 / beta
        den = (1.0 - rho) * (1.0 - r2 * (1.0 - g))
        w1 = w0 / den
        w2 = w0 * (1.0 - rho * (1.0 - g)) / den
    return WaitVector([w1, w2])


def rp_waits(model: SystemModel, p: Sequence[float]) -> WaitVector:
    """N-class relative-priority waits by direct solve of the linear recursion."""
    n = model.n_classes
    if len(p) != n:
        raise InvalidParameterError(f"need {n} parameters, got {len(p)}")
    p = [float(x) for x in p]
    if any(not (x > 0 and math.isfinite(x)) for x in p):
        raise InvalidParameterError("relative-priority parameters must be positive")

    rhos, w0 = model.rho_per_class, model.w0
    a = np.zeros((n, n))
    for k in range(n):
        tau_k = sum(rhos[j] * p[j] / (p[k] + p[j]) for j in range(n))
        for j in range(n):
            a[k, j] = -rhos[j] * p[j] / (p[k] + p[j])
        a[k, k] += 1.0 - tau_k
    rhs = np.full(n, w0)
    try:
        w = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"relative-priority system is singular: {exc}") from exc
    scale = max(np.linalg.norm(rhs), 1.0)
    resid = np.linalg.norm(a @ w - rhs) / scale
    if resid > 1e-12:
        raise SingularSystemError(f"linear solve residual {resid:.3e} exceeds 1e-12")
    return WaitVector(w)


def rp2_kernel(r1, r2, w0, p1):
    """Unvalidated 2-class relative-priority mean waits (w1, w2) from the
    class loads r1, r2, the residual work w0 and the class-1 weight p1.

    Takes floats or arrays that broadcast together; floats stay in plain
    Python arithmetic.  Where the total load r1 + r2 is within
    `STABILITY_MARGIN` of 1 or above, both waits are +inf.  Every factor is
    1 - rho or a sum of nonnegative terms, so none is formed by cancellation
    near rho = 1.
    """
    rho = r1 + r2
    p2 = 1.0 - p1
    den = (1.0 - rho) * (p1 * (1.0 - r1) + p2 * (1.0 - r2))
    if isinstance(rho, np.ndarray) or isinstance(p1, np.ndarray):
        stable = rho < _LOAD_LIMIT
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.where(stable, (1.0 - rho + rho * p2) * w0 / den, math.inf),
                    np.where(stable, (1.0 - rho + rho * p1) * w0 / den, math.inf))
    if rho >= _LOAD_LIMIT:
        return math.inf, math.inf
    return (1.0 - rho + rho * p2) * w0 / den, (1.0 - rho + rho * p1) * w0 / den


def rp2_min_weight(r1: float, r2: float, w0: float, cap: float, klass: int) -> Optional[float]:
    """Unvalidated: the smallest weight q of class `klass` (0 or 1) whose
    :func:`rp2_kernel` wait, at p1 = q for klass 0 and 1 - q for klass 1, is
    within `cap`; None when even q = 1 misses it (an unstable load included).

    W_k(q) = (1 - rho*q)*W0 / ((1 - rho)*(1 - r_o + q*(r_o - r_k))), with r_o
    the other class's load, falls in q, so q comes in closed form, raised in
    doubling steps from 2**-52 while rounding leaves the wait above the cap.
    """
    r_k, r_o = (r1, r2) if klass == 0 else (r2, r1)

    def wait(q):
        return rp2_kernel(r1, r2, w0, q if klass == 0 else 1.0 - q)[klass]

    if wait(0.0) <= cap:
        return 0.0
    if wait(1.0) > cap:
        return None
    rho = r1 + r2
    q = (w0 - cap * (1.0 - rho) * (1.0 - r_o)) / (rho * w0 + cap * (1.0 - rho) * (r_o - r_k))
    q = min(q, 1.0) if q > 0.0 else 0.0
    step = 2.0 ** -52
    while wait(q) > cap:
        q = min(1.0, q + step)
        step *= 2.0
    return q


def rp2_waits(model: SystemModel, p1: float) -> WaitVector:
    """2-class relative-priority closed form; p1 in [0, 1] with p2 = 1 - p1.

    The endpoints p1 = 1 and p1 = 0 return the strict-priority vectors
    exactly, which :func:`rp2_kernel` reaches only to rounding.
    """
    model.require_two_classes()
    if not (0.0 <= p1 <= 1.0):
        raise InvalidParameterError(f"p1 must lie in [0, 1], got {p1}")
    if p1 == 1.0 or p1 == 0.0:
        return strict_priority_waits_2class(model, 0 if p1 == 1.0 else 1)
    r1, r2 = model.rho_per_class
    return WaitVector(rp2_kernel(r1, r2, model.w0, p1))


def _pp_q(omega1: float, r1: float, r2: float) -> tuple[float, float]:
    """Quadratic-root service-share factors of the 2-class PP approximation.
    Each discriminant is (1 - x - y)**2 - 4xy with x = omega1*r1, y = omega2*r2,
    at least (1 - rho)**2 > 0 by Cauchy-Schwarz: the clamp is for rounding."""
    omega2 = 1.0 - omega1
    a1 = 1.0 + omega1 * r1 - omega2 * r2
    a2 = 1.0 + omega2 * r2 - omega1 * r1
    d1 = a1 * a1 - 4.0 * omega1 * r1
    d2 = a2 * a2 - 4.0 * omega2 * r2
    q1 = (a1 - math.sqrt(max(d1, 0.0))) / (2.0 * omega1)
    q2 = (a2 - math.sqrt(max(d2, 0.0))) / (2.0 * omega2)
    return q1, q2


def pp2_waits_approx(model: SystemModel, omega1: float) -> WaitVector:
    """Approximate 2-class probabilistic-priority waits for omega1 in [0, 1].

    At omega1 in {0, 1} the mechanism degenerates to strict priority, so the
    exact strict-priority vector is returned there.  Interior values use the
    approximation, which in general violates the conservation law; check the
    residual yourself if you care.
    """
    model.require_two_classes()
    if not (0.0 <= omega1 <= 1.0):
        raise InvalidParameterError(f"omega1 must lie in [0, 1], got {omega1}")
    if omega1 == 1.0 or omega1 == 0.0:
        return strict_priority_waits_2class(model, 0 if omega1 == 1.0 else 1)

    r1, r2 = model.rho_per_class
    w0 = model.w0
    lam1 = model.classes[0].lam
    lam2 = model.classes[1].lam
    s1 = model.classes[0].service.mean
    s2 = model.classes[1].service.mean
    q1, q2 = _pp_q(omega1, r1, r2)

    beta1 = (1.0 - q2) + omega1 * q2
    beta2 = (1.0 - q1) + (1.0 - omega1) * q1
    g1 = s2 * (1.0 - beta1) / beta1
    g2 = s1 * (1.0 - beta2) / beta2
    w1 = (w0 + g1) / (1.0 - r1 - lam1 * g1)
    w2 = (w0 + g2) / (1.0 - r2 - lam2 * g2)
    return WaitVector([w1, w2])


def expected_clearing_time(model: SystemModel, klass: int) -> float:
    """E(T_k(W)) = W0 / ((1-rho)(1-rho_k)): mean time to clear the stationary
    workload when only class k keeps arriving.  Upper limit of the
    busy-period integral on the branch favouring class k, and the wait of
    the other class under strict priority to class k."""
    if klass not in (0, 1):
        raise InvalidParameterError(f"klass must be 0 or 1, got {klass}")
    return wait_bounds(model)[1 - klass][1]


def _integral_in_range(model: SystemModel, integral_value: float, branch: str) -> tuple[float, float]:
    """(the integral clamped to [0, upper], upper) on branch "neg" (class 1
    favoured) or "nonneg" (class 2 favoured), upper being the branch's
    expected clearing time.  Values within 1e-9 + 1e-12*upper outside that
    range are rounding and are clamped; any further out raise."""
    model.require_two_classes()
    if branch not in ("neg", "nonneg"):
        raise InvalidParameterError(f"branch must be 'neg' or 'nonneg', got {branch!r}")
    upper = expected_clearing_time(model, 1 if branch == "nonneg" else 0)
    slack = 1e-9 + 1e-12 * upper
    if not (-slack <= integral_value <= upper + slack):
        raise IntegralOutOfRangeError(
            f"integral {integral_value} outside [0, {upper}] on branch {branch}"
        )
    return min(max(integral_value, 0.0), upper), upper


def edd2_waits_from_integral(
    model: SystemModel, integral_value: float, sign_of_ubar: str
) -> WaitVector:
    """2-class earliest-due-date waits as a function of the busy-period
    integral value.

    sign_of_ubar is "nonneg" (u1 >= u2: class 2 favoured, integral over the
    class-2 clearing time tail) or "neg" (class 1 favoured).  integral = 0
    gives global FCFS; the branch's upper limit gives the strict-priority
    endpoint, exactly.
    """
    integral_value, upper = _integral_in_range(model, integral_value, sign_of_ubar)
    if integral_value == upper:
        return strict_priority_waits_2class(model, 0 if sign_of_ubar == "neg" else 1)
    r1, r2 = model.rho_per_class
    ew = gfcfs_wait(model)
    if sign_of_ubar == "nonneg":
        w1 = ew + r2 * integral_value
        w2 = ew - r1 * integral_value
    else:
        w1 = ew - r2 * integral_value
        w2 = ew + r1 * integral_value
    return WaitVector([w1, w2])
