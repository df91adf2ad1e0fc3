"""Multi-class M/G/1 dynamic-priority laboratory.

Closed-form mean waits for the classical dynamic-priority families,
exact parameter maps between them, a seeded discrete-event simulator,
and control solvers that pick scheduling parameters and prices on the
achievable wait region.
"""

__version__ = "0.1.0"

from .core import (
    CustomerClassSpec,
    ServiceDistribution,
    SystemModel,
    WaitVector,
    conservation_residual,
    gfcfs_wait,
    segment_point,
    strict_priority_waits_2class,
    wait_bounds,
)
from .analytic import (
    ddp_waits,
    ddp2_waits,
    edd2_waits_from_integral,
    expected_clearing_time,
    pp2_waits_approx,
    rp_waits,
    rp2_kernel,
    rp2_min_weight,
    rp2_waits,
)
from .mappings import (
    SCHEMES,
    SIMULATED_SCHEMES,
    SchemeParameter,
    SegmentTarget,
    achieve_target,
    alpha_from_p1,
    beta_from_integral,
    beta_from_p1,
    edd_config_from_ubar,
    estimate_busy_integral,
    integral_from_beta,
    p1_from_alpha,
    p1_from_beta,
)
from .sim import (
    DDP,
    EDD,
    GFCFS,
    HOLPJ,
    PP,
    RP,
    SimConfig,
    SimEstimate,
    Strict,
    busy_period_boundaries,
    run_sim,
    service_start_sequence,
)
from .control import (
    CloudConfig,
    ControlSolution,
    HpcConfig,
    JointPricingConfig,
    NetworkUtilityConfig,
    approx_utility_gfcfs,
    cloud_revenue_opt,
    cmu_rule_2class,
    hpc_revenue_constrained,
    hpc_utility_opt,
    joint_pricing_T1,
    minmax_fair_point,
    network_K,
    network_optimal_utility,
    pp_param_for_utility_approx,
    rp_param_for_utility,
    tail_prob_approx,
)
from . import errors, tables  # submodules, reachable as attributes

__all__ = [
    "CustomerClassSpec", "ServiceDistribution", "SystemModel",
    "WaitVector", "conservation_residual", "gfcfs_wait",
    "segment_point", "strict_priority_waits_2class", "wait_bounds",
    "ddp_waits", "ddp2_waits", "edd2_waits_from_integral", "expected_clearing_time",
    "pp2_waits_approx", "rp_waits", "rp2_kernel", "rp2_min_weight", "rp2_waits",
    "SCHEMES", "SIMULATED_SCHEMES", "SchemeParameter", "SegmentTarget",
    "achieve_target", "alpha_from_p1", "beta_from_integral", "beta_from_p1",
    "edd_config_from_ubar", "estimate_busy_integral",
    "integral_from_beta", "p1_from_alpha", "p1_from_beta",
    "DDP", "EDD", "GFCFS", "HOLPJ", "PP", "RP", "SimConfig", "SimEstimate", "Strict",
    "busy_period_boundaries", "run_sim", "service_start_sequence",
    "CloudConfig", "ControlSolution", "HpcConfig", "JointPricingConfig",
    "NetworkUtilityConfig", "approx_utility_gfcfs", "cloud_revenue_opt",
    "cmu_rule_2class", "hpc_revenue_constrained", "hpc_utility_opt", "joint_pricing_T1",
    "minmax_fair_point", "network_K", "network_optimal_utility",
    "pp_param_for_utility_approx", "rp_param_for_utility", "tail_prob_approx",
]
