"""Embedded benchmark instances for the two network-utility tables.

Each row is a two-class system with deterministic unit service and a
quality-of-service pair (d, b) on class 1.  Expected values ship with the
instances so a build can be checked offline; `check_table` compares the
recomputed values cell by cell at the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import CustomerClassSpec, ServiceDistribution, SystemModel
from .control import (
    NetworkUtilityConfig,
    approx_utility_gfcfs,
    network_optimal_utility,
    pp_param_for_utility_approx,
    rp_param_for_utility,
)

_UNIT_DET = ServiceDistribution.deterministic(1.0)


def _model(lam1: float, lam2: float) -> SystemModel:
    return SystemModel(
        (CustomerClassSpec(lam1, _UNIT_DET), CustomerClassSpec(lam2, _UNIT_DET))
    )


# (lambda1, lambda2, d, b) and printed (K, W1, W2, p_rp, p_pp)
TABLE1_INSTANCES: tuple[tuple[float, float, float, float], ...] = (
    (0.1182, 0.26, 4.912, 0.01),
    (0.37, 0.1, 4.912, 0.01),
    (0.37, 0.62, 4.912, 0.3),
    (0.47, 0.15, 4.912, 0.01),
    (0.25, 0.15, 2.912, 0.05),
    (0.23, 0.15, 2.912, 0.05),
    (0.3, 0.2, 3.3, 0.0706),
    (0.4471, 0.1, 4.5, 0.03),
    (0.25, 0.25, 4.912, 0.01),
)

TABLE1_EXPECTED: tuple[tuple[float, float, float, float, float], ...] = (
    (0.4073, 0.4073, 0.2572, 0.0159, 0.5001),
    (0.4776, 0.4776, 0.3170, 0.1712, 0.5927),
    (3.2438, 3.2438, 77.1045, 0.9689, 0.5754),
    (0.5877, 0.5877, 1.5305, 0.9954, 0.9959),
    (0.3678, 0.3678, 0.2759, 0.2145, 0.6413),
    (0.3582, 0.3582, 0.2270, 0.0222, 0.5807),
    # the W2 cell is the value implied by the conservation law at W1 = K;
    # a commonly circulated figure of 0.3668 for this instance fails that
    # identity by 2e-3 and is treated as a misprint
    (0.5875, 0.5875, 0.3688, 0.1570, 0.5001),
    (0.6595, 0.6595, 0.3558, 0.1028, 0.5000),
    (0.5, 0.5, 0.5, 0.5, 0.675),
)

TABLE1_HEADER = ("lambda1", "lambda2", "d", "b", "K", "W1", "W2", "p_rp", "p_pp")

# (lambda1, lambda2, d, b, v3) with v1 = v2 = 60, v4 = 120,
# and printed (p_rp, optimal utility, approx utility)
TABLE2_V1 = 60.0
TABLE2_V2 = 60.0
TABLE2_V4 = 120.0

TABLE2_INSTANCES: tuple[tuple[float, float, float, float, float], ...] = (
    (0.1179, 0.26, 4.911, 0.01, 300.0),
    (0.301, 0.1991, 3.3, 0.0706, 300.0),
    (0.4471, 0.1, 4.5, 0.03, 300.0),
    (0.16, 0.382, 6.0, 0.01, 500.0),
    (0.27, 0.5284, 4.9, 0.1, 600.0),
)

TABLE2_EXPECTED: tuple[tuple[float, float, float], ...] = (
    (0.0151, 209.16, 203.55),
    (0.1559, 195.81, 179.97),
    (0.1028, 197.30, 167.52),
    (0.3654, 373.37, 368.99),
    (0.6469, 272.86, 182.38),
)

TABLE2_HEADER = ("lambda1", "lambda2", "d", "b", "v3", "p_rp", "utility_opt", "utility_gfcfs")

TABLE1_TOL = 5e-4
TABLE2_TOL = (5e-3, 5e-2, 5e-2)


def compute_table1_row(lam1: float, lam2: float, d: float, b: float) -> tuple[float, ...]:
    cfg = NetworkUtilityConfig(_model(lam1, lam2), d, b, 1.0, 1.0, 1.0, 1.0)
    opt = network_optimal_utility(cfg)
    p_rp = rp_param_for_utility(cfg).params["p1"]
    p_pp = pp_param_for_utility_approx(cfg).params["omega1"]
    return opt.diagnostics["K"], opt.params["w1"], opt.diagnostics["w2"], p_rp, p_pp


def compute_table2_row(lam1, lam2, d, b, v3) -> tuple[float, float, float]:
    model = _model(lam1, lam2)
    cfg = NetworkUtilityConfig(model, d, b, TABLE2_V1, TABLE2_V2, v3, TABLE2_V4)
    p_rp = rp_param_for_utility(cfg).params["p1"]
    return p_rp, network_optimal_utility(cfg).objective, approx_utility_gfcfs(cfg)


@dataclass(frozen=True)
class _Table:
    """One embedded table: its instances, their row function, the printed
    values, and a tolerance and a CSV format per computed column."""

    name: str
    header: tuple[str, ...]
    instances: tuple[tuple[float, ...], ...]
    row: Callable[..., tuple[float, ...]]
    expected: tuple[tuple[float, ...], ...]
    tol: tuple[float, ...]
    formats: tuple[str, ...]

    def compute(self) -> list[tuple[float, ...]]:
        return [self.row(*inst) for inst in self.instances]

    def problems(self, rows: list) -> list[str]:
        return [f"{self.name} row {i + 1} col {col}: got {g:.6f}, expected {w:.6f}"
                for i, (got, want) in enumerate(zip(rows, self.expected))
                for col, g, w, t in zip(self.header[-len(self.tol):], got, want, self.tol) if abs(g - w) > t]

    def csv(self, rows: list) -> str:
        cells = [[f"{x:.4f}" for x in inst] + [format(x, f) for x, f in zip(row, self.formats)]
                 for inst, row in zip(self.instances, rows)]
        return "".join(",".join(line) + "\n" for line in [self.header, *cells])


_TABLES = {
    "table1": _Table("table1", TABLE1_HEADER, TABLE1_INSTANCES, compute_table1_row, TABLE1_EXPECTED,
                     (TABLE1_TOL,) * 5, (".4f",) * 5),
    "table2": _Table("table2", TABLE2_HEADER, TABLE2_INSTANCES, compute_table2_row, TABLE2_EXPECTED,
                     TABLE2_TOL, (".4f", ".2f", ".2f")),
}
compute_table1 = _TABLES["table1"].compute
compute_table2 = _TABLES["table2"].compute


def get_table(which: str) -> _Table:
    """The embedded table named ``which`` ("table1" or "table2")."""
    if which not in _TABLES:
        raise ValueError(f"unknown table {which!r}")
    return _TABLES[which]


def check_table(which: str) -> list[str]:
    """Recompute a table and compare against the embedded expected values;
    returns a list of human-readable mismatch descriptions (empty = pass)."""
    table = get_table(which)
    return table.problems(table.compute())


def table_csv(which: str) -> str:
    """CSV rendering (dot decimal, 4-decimal cells, header row; table 2's
    utilities to 2 decimals)."""
    table = get_table(which)
    return table.csv(table.compute())
