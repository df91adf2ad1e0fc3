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


def _run_without_scipy(code, *args):
    # a fresh interpreter in which `import scipy` fails, so any mg1lab path
    # that needs scipy raises there
    proc = subprocess.run(
        [sys.executable, "-c", 'import sys; sys.modules["scipy"] = None\n' + code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_import_loads_no_scipy(tmp_path):
    # with scipy blocked: the import, the simulator, both kinds of target
    # search and every CLI subcommand
    code = """
import json, os, sys
import mg1lab as m
from mg1lab.cli import main
E = m.ServiceDistribution.exponential(1.0)
model = m.SystemModel((m.CustomerClassSpec(0.3, E), m.CustomerClassSpec(0.2, E)))
for reps in (1, 3):
    m.run_sim(model, m.GFCFS(), m.SimConfig(seed=1, measured_jobs=1000, warmup_jobs=100,
                                             replications=reps))
m.service_start_sequence(model, m.EDD((0.5, 0.0)), 500, 2)
m.busy_period_boundaries(model, m.RP((0.3, 0.7)), 500, 2)
small = m.SimConfig(seed=3, measured_jobs=2000, warmup_jobs=200, replications=3)
m.estimate_busy_integral(model, 1.0, small)
target = m.SegmentTarget(alpha=0.4)
m.achieve_target(model, target, "rp")

def oracle(ubar):
    est = m.run_sim(model, m.edd_config_from_ubar(model, ubar), small)
    return est.mean[0], est.ci_halfwidth_95[0]

m.achieve_target(model, target, "edd", sim_oracle=oracle)
tmp = sys.argv[1]
config = os.path.join(tmp, "model.json")
with open(config, "w") as f:
    json.dump({"model": {"classes": [
        {"lambda": 0.3, "service": {"kind": "exponential", "mean": 1.0, "scv": 1.0}},
        {"lambda": 0.2, "service": {"kind": "exponential", "mean": 1.0, "scv": 1.0}},
    ]}}, f)
for argv in (
    ["analyze", "--config", config, "--discipline", "gfcfs"],
    ["simulate", "--config", config, "--discipline", "gfcfs", "--jobs", "1000",
     "--warmup", "100", "--replications", "3"],
    ["map", "--config", config, "--from", "rp:0.5", "--to", "ddp"],
    ["region", "--config", config, "--points", "3"],
    ["tables", "table1", "--check"],
    ["optimize", "fairness", "--config", config],
):
    assert main([*argv, "--out", os.path.join(tmp, argv[0] + ".out")]) == 0, argv
print("ok")
"""
    _run_without_scipy(code, str(tmp_path))


def test_control_solvers_load_no_scipy_optimize():
    # with scipy blocked: every control solver, the constrained
    # computing-service one on a binding service level
    code = """
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
print("ok")
"""
    _run_without_scipy(code)
