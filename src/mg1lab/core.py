"""System model, derived load quantities, the conservation law, and the
2-class achievable segment with its strict-priority endpoints.

All waiting times are queueing delays (arrival to service start) in the
model's abstract time unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnstableSystemError,
    WrongClassCountError,
)

#: Loads closer to 1 than this are rejected so W0/(1-rho) stays meaningful.
STABILITY_MARGIN = 1e-9
#: the total load at and above which a system is unstable
_LOAD_LIMIT = 1.0 - STABILITY_MARGIN

SERVICE_KINDS = ("deterministic", "exponential", "erlang-k", "balanced-hyperexponential-2")


@dataclass(frozen=True)
class ServiceDistribution:
    """Service-time distribution given by (kind, mean, scv).

    The squared coefficient of variation pins the second moment:
    m2 = mean**2 * (1 + scv).  The four kinds jointly cover scv in [0, inf).
    """

    kind: str
    mean: float
    scv: float

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise InvalidParameterError(f"unknown service kind {self.kind!r}")
        if not (self.mean > 0 and math.isfinite(self.mean)):
            raise InvalidParameterError(f"service mean must be positive, got {self.mean}")
        if not (self.scv >= 0 and math.isfinite(self.scv)):
            raise InvalidParameterError(f"scv must be finite and >= 0, got {self.scv}")
        if self.kind == "deterministic" and self.scv != 0:
            raise InvalidParameterError("deterministic service requires scv == 0")
        if self.kind == "exponential" and self.scv != 1:
            raise InvalidParameterError("exponential service requires scv == 1")
        if self.kind == "erlang-k":
            k = round(1.0 / self.scv) if self.scv > 0 else 0
            if k < 1 or abs(self.scv - 1.0 / k) > 1e-12:
                raise InvalidParameterError("erlang-k requires scv == 1/k for integer k >= 1")
        if self.kind == "balanced-hyperexponential-2" and not self.scv > 1:
            raise InvalidParameterError("hyperexponential-2 requires scv > 1")

    @property
    def second_moment(self) -> float:
        return self.mean * self.mean * (1.0 + self.scv)

    @classmethod
    def deterministic(cls, mean: float) -> "ServiceDistribution":
        return cls("deterministic", mean, 0.0)

    @classmethod
    def exponential(cls, mean: float) -> "ServiceDistribution":
        return cls("exponential", mean, 1.0)

    @classmethod
    def erlang(cls, mean: float, k: int) -> "ServiceDistribution":
        return cls("erlang-k", mean, 1.0 / k)

    @classmethod
    def hyperexp2(cls, mean: float, scv: float) -> "ServiceDistribution":
        return cls("balanced-hyperexponential-2", mean, scv)

    def to_json(self) -> dict:
        return {"kind": self.kind, "mean": self.mean, "scv": self.scv}

    @classmethod
    def from_json(cls, obj: dict) -> "ServiceDistribution":
        return cls(obj["kind"], float(obj["mean"]), float(obj["scv"]))


@dataclass(frozen=True)
class CustomerClassSpec:
    """One Poisson customer class: arrival rate plus service distribution."""

    lam: float
    service: ServiceDistribution

    def __post_init__(self):
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise InvalidParameterError(f"arrival rate must be finite and >= 0, got {self.lam}")

    def to_json(self) -> dict:
        return {"lambda": self.lam, "service": self.service.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "CustomerClassSpec":
        return cls(float(obj["lambda"]), ServiceDistribution.from_json(obj["service"]))


@dataclass(frozen=True)
class SystemModel:
    """An N-class M/G/1 system.  Class order is positional and never permuted.
    The per-class loads `rho_per_class`, the total load `rho` and the mean
    residual work `w0` are computed once, at construction."""

    classes: tuple[CustomerClassSpec, ...]

    def __init__(self, classes: Sequence[CustomerClassSpec]):
        classes = tuple(classes)
        if len(classes) < 1:
            raise InvalidParameterError("at least one customer class is required")
        object.__setattr__(self, "classes", classes)
        # derived once; not fields, so equality, hashing and repr read
        # `classes` alone, and the frozen class keeps them read-only
        rho_per_class = tuple(c.lam * c.service.mean for c in classes)
        object.__setattr__(self, "rho_per_class", rho_per_class)
        object.__setattr__(self, "rho", sum(rho_per_class))
        # W0 = sum_i (lambda_i / 2) * m2_i with m2 the service second moment
        object.__setattr__(self, "w0", sum(0.5 * c.lam * c.service.second_moment for c in classes))
        if self.rho >= _LOAD_LIMIT:
            raise UnstableSystemError(f"total load rho = {self.rho:.12g} >= 1")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def require_two_classes(self) -> None:
        if self.n_classes != 2:
            raise WrongClassCountError(f"operation requires exactly 2 classes, got {self.n_classes}")

    def to_json(self) -> dict:
        return {"classes": [c.to_json() for c in self.classes]}

    @classmethod
    def from_json(cls, obj: dict) -> "SystemModel":
        return cls([CustomerClassSpec.from_json(c) for c in obj["classes"]])

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json_str(cls, s: str) -> "SystemModel":
        return cls.from_json(json.loads(s))


@dataclass(frozen=True)
class WaitVector:
    """Per-class stationary mean waiting times."""

    w: tuple[float, ...]

    def __init__(self, w: Sequence[float]):
        w = tuple(float(x) for x in w)
        for x in w:
            if not (x >= 0 and math.isfinite(x)):
                raise InvalidParameterError(f"waiting times must be finite and >= 0, got {x}")
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, i: int) -> float:
        return self.w[i]


def json_dumps(obj, **kwargs) -> str:
    """`json.dumps` that writes every non-finite float as null: RFC 8259
    JSON has no Infinity or NaN."""
    return json.dumps(_finite(obj), allow_nan=False, **kwargs)


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def conservation_residual(model: SystemModel, waits: WaitVector) -> float:
    """Signed residual sum_i rho_i w_i - rho W0 / (1 - rho).

    Zero (up to roundoff) for any mean-wait vector produced by a
    work-conserving, non-preemptive, non-anticipative discipline.
    """
    if len(waits) != model.n_classes:
        raise DimensionMismatchError(
            f"wait vector has {len(waits)} entries for {model.n_classes} classes"
        )
    rho = model.rho
    return sum(r * x for r, x in zip(model.rho_per_class, waits.w)) - rho * model.w0 / (1.0 - rho)


def gfcfs_wait(model: SystemModel) -> float:
    """Common mean wait W0/(1-rho) under global FCFS."""
    return model.w0 / (1.0 - model.rho)


def wait_bounds(model: SystemModel) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-class closed intervals of achievable mean waits.  The ends are the
    two strict-priority wait vectors, (lo1, hi2) with class 1 served first
    and (hi1, lo2) with class 2 first: the one place they are computed."""
    model.require_two_classes()
    r1, r2 = model.rho_per_class
    rho, w0 = model.rho, model.w0
    lo1 = w0 / (1.0 - r1)
    hi1 = w0 / ((1.0 - rho) * (1.0 - r2))
    lo2 = w0 / (1.0 - r2)
    hi2 = w0 / ((1.0 - rho) * (1.0 - r1))
    return (lo1, hi1), (lo2, hi2)


def strict_priority_waits_2class(model: SystemModel, first: int) -> WaitVector:
    """Strict-priority mean waits for two classes, `first` served first (0 or 1)."""
    (lo1, hi1), (lo2, hi2) = wait_bounds(model)
    if first not in (0, 1):
        raise InvalidParameterError(f"first must be 0 or 1, got {first}")
    return WaitVector((lo1, hi2) if first == 0 else (hi1, lo2))


def segment_point(model: SystemModel, alpha: float) -> WaitVector:
    """Convex combination alpha*endpoint_12 + (1-alpha)*endpoint_21."""
    (lo1, hi1), (lo2, hi2) = wait_bounds(model)
    if not (0.0 <= alpha <= 1.0):
        raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return WaitVector([alpha * lo1 + (1.0 - alpha) * hi1, alpha * hi2 + (1.0 - alpha) * lo2])
