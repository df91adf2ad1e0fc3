import os
import subprocess
import sys
import types
from pathlib import Path

import mg1lab

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_all_names_exist_and_none_is_a_module():
    assert len(mg1lab.__all__) == len(set(mg1lab.__all__))
    for name in mg1lab.__all__:
        assert hasattr(mg1lab, name), name
        assert not isinstance(getattr(mg1lab, name), types.ModuleType), name


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process may have loaded scipy already
    code = (
        "import sys; import mg1lab; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_control_solvers_load_no_scipy_optimize():
    # every control solver, the constrained computing-service one on a
    # binding service level, in a fresh interpreter
    code = """
import math, sys
import mg1lab as m
E = m.ServiceDistribution.exponential(1.0)
D = m.ServiceDistribution.deterministic(1.0)
model = m.SystemModel((m.CustomerClassSpec(0.3, E), m.CustomerClassSpec(0.2, E)))
net = m.NetworkUtilityConfig(
    m.SystemModel((m.CustomerClassSpec(0.25, D), m.CustomerClassSpec(0.25, D))),
    4.912, 0.01, 1.0, 1.0, 1.0, 1.0)
for solve in (m.rp_param_for_utility, m.pp_param_for_utility_approx,
              m.network_optimal_utility, m.approx_utility_gfcfs):
    solve(net)
m.cmu_rule_2class(model, 1.0, 2.0)
m.minmax_fair_point(model)
hpc = dict(lambda_P=0.25, lambda_R=0.25, service=E, a=10.0, b=2.0, w1=1.0, w2=1.0)
m.hpc_utility_opt(m.HpcConfig(**hpc))
assert m.hpc_revenue_constrained(m.HpcConfig(**hpc, S_R=0.7)).active_constraints == ("S_R",)
m.cloud_revenue_opt(m.CloudConfig(mu=1.0, scv=1.0, a=(0.8, 0.8), b=(1.5, 1.5), c=(0.2, 0.2)))
m.joint_pricing_T1(m.JointPricingConfig(0.3, 1.0, 1.0, 0.7, 2.0, 1.0, 1.0))
print(sorted(k for k in sys.modules if k == "scipy.optimize" or k.startswith("scipy.optimize.")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
