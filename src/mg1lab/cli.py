"""Command-line front end.

Subcommands: analyze (closed-form waits), simulate (seeded replicated
estimates), map (scheme parameter transformations), region (achievable
segment sweep), tables (embedded benchmark instances), optimize (control
solvers).  Every artifact embeds a run manifest so deterministic commands
can be reproduced byte for byte; pass --timestamp to pin the recorded
time.

Exit codes: 0 success, 2 invalid configuration, 3 unstable system,
4 invalid discipline or scheme parameters, 5 table check failure,
6 infeasible control problem.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import sys
from typing import Optional

from . import __version__
from .core import (
    ServiceDistribution,
    SystemModel,
    WaitVector,
    conservation_residual,
    gfcfs_wait,
    json_dumps,
    segment_point,
    strict_priority_waits_2class,
    wait_bounds,
)
from .analytic import ddp_waits, ddp2_waits, edd2_waits_from_integral, rp_waits
from .control import (
    CloudConfig,
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
    network_optimal_utility,
    pp_param_for_utility_approx,
    rp_param_for_utility,
)
from .errors import (
    InfeasibleError,
    InvalidParameterError,
    QueueingError,
    UnstableSystemError,
)
from .mappings import SCHEMES, integral_from_beta
from .sim import DDP, EDD, GFCFS, HOLPJ, RP, SimConfig, Strict, run_sim, service_start_sequence
from .tables import get_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_PARAMS = 4
EXIT_CHECK = 5
EXIT_INFEASIBLE = 6


class _MalformedValueError(Exception):
    """A command-line value does not parse (exit 2)."""


def _manifest(args: argparse.Namespace) -> dict:
    ts = args.timestamp or _dt.datetime.now(_dt.timezone.utc).isoformat()
    return {
        "command": args.command,
        "config": getattr(args, "config", None),
        "seed": getattr(args, "seed", None),
        "out": args.out,
        "format": getattr(args, "format", "json"),  # optimize writes JSON only
        "tool_version": __version__,
        "timestamp": ts,
    }


def _emit(args: argparse.Namespace, payload: dict, csv_text: Optional[str] = None) -> None:
    manifest = _manifest(args)
    if manifest["format"] == "csv":
        text = "# manifest: " + json_dumps(manifest, sort_keys=True) + "\n" + csv_text
    else:
        text = json_dumps({"manifest": manifest, **payload}, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _from_document(build):
    """build(), which reads a config document: a missing key or a value of
    the wrong type or shape there is a config error (exit 2), not a
    traceback.  Only reading the document is guarded; the solvers run
    outside, so an error of theirs is never reported as a config error."""
    try:
        return build()
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _MalformedValueError(f"malformed config document: {type(exc).__name__}: {exc}") from None


def _load_config_doc(args: argparse.Namespace, missing: str = "--config is required") -> dict:
    if not args.config:
        raise InvalidParameterError(missing)
    with open(args.config) as fh:
        doc = _from_document(lambda: json.load(fh))
    if not isinstance(doc, dict):
        raise _MalformedValueError("the config document must be a JSON object")
    return doc


def _load_model(args: argparse.Namespace) -> SystemModel:
    doc = _load_config_doc(args, "--config with a model document is required")
    return _from_document(lambda: SystemModel.from_json(doc.get("model", doc)))


def _pair(value) -> tuple[float, float]:
    """A config document's two-entry list, as floats."""
    if not isinstance(value, list) or len(value) != 2:
        raise _MalformedValueError(f"expected a list of two numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _flag(args: argparse.Namespace, name: str, alternative: str = ""):
    """Value of a flag the chosen discipline needs; missing is exit 4."""
    value = getattr(args, name)
    if value is None:
        raise InvalidParameterError(f"--discipline {args.discipline} needs --{name}{alternative}")
    return value


def _numbers(args: argparse.Namespace, name: str, alternative: str = "", kind=float) -> tuple:
    """Comma-separated numbers of a discipline flag; malformed is exit 2."""
    text = _flag(args, name, alternative)
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise _MalformedValueError(f"--{name} must be comma-separated numbers, got {text!r}") from None


def _scalar(args: argparse.Namespace):
    """(scheme record, value) of the discipline's scalar flag, named after its
    scheme's parameter (--beta, --p1, --omega1); the value is None when the
    flag is unset.  PP has no other flag, so there it is required."""
    scheme = SCHEMES.get(args.discipline)
    if args.discipline == "pp":
        return scheme, _flag(args, scheme.param)
    return scheme, getattr(args, scheme.param, None) if scheme else None


def _discipline_from_args(args: argparse.Namespace):
    name = args.discipline
    scheme, value = _scalar(args)
    if value is not None:
        return scheme.discipline(value)
    if name == "gfcfs":
        return GFCFS()
    if name == "strict":
        return Strict(_numbers(args, "order", kind=int))
    if name == "ddp":
        return DDP(_numbers(args, "b", " or --beta"))
    if name == "rp":
        return RP(_numbers(args, "p", " or --p1"))
    if name == "edd":
        return EDD(_numbers(args, "u"))
    return HOLPJ(_numbers(args, "u"))


def cmd_analyze(args: argparse.Namespace) -> int:
    model = _load_model(args)
    name = args.discipline
    scheme, value = _scalar(args)
    if value is not None:
        waits = tuple(scheme.waits(model, value))
    elif name == "gfcfs":
        w = gfcfs_wait(model)
        waits = tuple([w] * model.n_classes)
    elif name == "strict":
        waits = tuple(strict_priority_waits_2class(model, _numbers(args, "order", kind=int)[0]))
    elif name == "ddp":
        waits = tuple(ddp_waits(model, _numbers(args, "b", " or --beta")))
    elif name == "rp":
        waits = tuple(rp_waits(model, _numbers(args, "p", " or --p1")))
    elif name == "edd":
        waits = tuple(edd2_waits_from_integral(model, _flag(args, "integral"), args.sign))
    else:
        raise InvalidParameterError(f"no closed form for {name!r}; simulate it instead")
    payload = {
        "waits": list(waits),
        "conservation_residual": conservation_residual(model, WaitVector(waits)),
    }
    csv_text = "class,wait\n" + "".join(f"{i + 1},{w!r}\n" for i, w in enumerate(waits))
    _emit(args, payload, csv_text)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args)
    disc = _discipline_from_args(args)
    if args.seed < 0:
        raise _MalformedValueError(f"--seed must be >= 0, got {args.seed}")
    cfg = SimConfig(
        seed=args.seed,
        measured_jobs=args.jobs,
        warmup_jobs=args.warmup,
        replications=args.replications,
    )
    est = run_sim(model, disc, cfg)
    if args.trace:
        records = service_start_sequence(model, disc, args.jobs, args.seed)
        with open(args.trace, "w") as fh:
            fh.write("time,class,arrival_time,wait\n")
            for t, c, a, w in records:
                fh.write(f"{t!r},{c + 1},{a!r},{w!r}\n")
    payload = {
        "mean": list(est.mean),
        "ci_halfwidth_95": list(est.ci_halfwidth_95),
        "sample_count": list(est.sample_count),
        "conservation_residual": est.residual,
    }
    csv_text = "class,mean,ci_halfwidth_95,samples\n" + "".join(
        f"{i + 1},{m!r},{c!r},{n}\n"
        for i, (m, c, n) in enumerate(zip(est.mean, est.ci_halfwidth_95, est.sample_count))
    )
    _emit(args, payload, csv_text)
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    model = _load_model(args)
    try:
        src, raw = args.source.split(":", 1)
        value = float(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"--from must look like scheme:value, got {args.source!r}") from exc
    dst = args.to
    if src not in SCHEMES or dst not in SCHEMES:
        raise InvalidParameterError(f"schemes must be one of {tuple(SCHEMES)}")
    # through beta, the exchange currency
    to_beta, from_beta = SCHEMES[src].to_beta, SCHEMES[dst].from_beta
    if to_beta is None:
        raise InvalidParameterError(f"mapping from {src!r} is not analytic; simulate instead")
    beta = to_beta(model, value, args.sign)
    if from_beta is None:
        raise InvalidParameterError(f"mapping to {dst!r} is not analytic; use achieve_target")
    out = from_beta(model, beta)
    to = {"scheme": dst, "value": out}
    if dst == "edd":  # the integral's branch, which analyze reads from --sign
        to["sign"] = integral_from_beta(model, beta)[1]
    payload = {
        "from": {"scheme": src, "value": value},
        "to": to,
        "beta": beta,
        "waits": list(ddp2_waits(model, beta)),
    }
    _emit(args, payload, f"scheme,value\n{dst},{out!r}\n")
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    n = args.points
    if n < 2:
        raise _MalformedValueError(f"--points must be at least 2, got {n}")
    model = _load_model(args)
    (lo1, hi1), (lo2, hi2) = wait_bounds(model)
    rows = []
    for i in range(n):
        alpha = i / (n - 1)
        w = segment_point(model, alpha)
        rows.append((alpha, w[0], w[1]))
    payload = {
        "w1_bounds": [lo1, hi1],
        "w2_bounds": [lo2, hi2],
        "sweep": [list(r) for r in rows],
    }
    csv_text = "alpha,w1,w2\n" + "".join(f"{a!r},{x!r},{y!r}\n" for a, x, y in rows)
    _emit(args, payload, csv_text)
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    table = get_table(args.which)
    rows = table.compute()
    if args.check:
        problems = table.problems(rows)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return EXIT_CHECK
    _emit(args, {"table": args.which, "rows": [list(r) for r in rows]}, table.csv(rows))
    return EXIT_OK


def _optimize_input(problem: str, doc: dict):
    """The solver input of an optimize problem, read from its config document."""
    if problem == "hpc":
        return HpcConfig(
            lambda_P=float(doc["lambda_P"]),
            lambda_R=float(doc["lambda_R"]),
            service=ServiceDistribution.from_json(doc["service"]),
            a=float(doc["a"]),
            b=float(doc["b"]),
            w1=float(doc["w1"]),
            w2=float(doc["w2"]),
            S_R=float(doc["S_R"]) if "S_R" in doc else None,
        )
    if problem == "cloud":
        return CloudConfig(
            mu=float(doc["mu"]),
            scv=float(doc["scv"]),
            a=_pair(doc["a"]),
            b=_pair(doc["b"]),
            c=_pair(doc["c"]),
            T=_pair(doc.get("T", [math.inf, math.inf])),
        )
    if problem == "pricing":
        return JointPricingConfig(
            lambda_p=float(doc["lambda_p"]),
            mu=float(doc["mu"]),
            sigma2=float(doc["sigma2"]),
            S_p=float(doc.get("S_p", math.inf)),
            a=float(doc["a"]),
            b=float(doc["b"]),
            c=float(doc["c"]),
        )
    model = SystemModel.from_json(doc["model"])
    if problem == "cmu":
        return model, float(doc["c1"]), float(doc["c2"])
    if problem == "network":
        return NetworkUtilityConfig(
            model, float(doc["d"]), float(doc["b"]),
            float(doc["v1"]), float(doc["v2"]), float(doc["v3"]), float(doc["v4"]),
        )
    return model  # fairness


def cmd_optimize(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args)
    problem = args.problem
    cfg = _from_document(lambda: _optimize_input(problem, doc))
    if problem == "fairness":
        a1, a2, w = minmax_fair_point(cfg)
        payload = {"solution": {"alpha1": a1, "alpha2": a2, "wait": w}}
    elif problem == "network":
        payload = {
            "solution": {
                "p_rp": rp_param_for_utility(cfg).params["p1"],
                "omega_pp": pp_param_for_utility_approx(cfg).params["omega1"],
                "utility_opt": network_optimal_utility(cfg).objective,
                "utility_gfcfs": approx_utility_gfcfs(cfg),
            }
        }
    else:
        if problem == "cmu":
            sol = cmu_rule_2class(*cfg)
        elif problem == "hpc":
            sol = hpc_revenue_constrained(cfg) if cfg.S_R is not None else hpc_utility_opt(cfg)
        elif problem == "cloud":
            sol = cloud_revenue_opt(cfg)
        else:
            sol = joint_pricing_T1(cfg)
        payload = {"solution": json.loads(sol.to_json())}
    _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mg1lab",
        description="Multi-class M/G/1 dynamic-priority laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, config=True, csv=True):
        p = sub.add_parser(name, help=summary)
        if config:
            p.add_argument("--config", help="path to a JSON configuration document")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--timestamp", help="pin the manifest timestamp (reproducible output)")
        p.set_defaults(func=func)
        return p

    def discipline_flags(p):
        p.add_argument("--discipline", required=True,
                       choices=("gfcfs", "strict", "ddp", "rp", "pp", "edd", "holpj"))
        p.add_argument("--order", default="0,1", help="strict-priority order, e.g. 0,1")
        p.add_argument("--beta", type=float, help="2-class rate ratio for ddp")
        p.add_argument("--b", help="comma-separated accumulation rates for ddp")
        p.add_argument("--p1", type=float, help="2-class weight for rp")
        p.add_argument("--p", help="comma-separated weights for rp")
        p.add_argument("--omega1", type=float, help="polling probability for pp")

    p = command("analyze", cmd_analyze, "closed-form mean waits")
    discipline_flags(p)
    p.add_argument("--integral", type=float, help="busy-period integral value for edd analysis")
    p.add_argument("--sign", default="nonneg", choices=("nonneg", "neg"))

    p = command("simulate", cmd_simulate, "seeded replicated simulation estimate")
    discipline_flags(p)
    p.add_argument("--u", help="comma-separated urgencies (edd) or deadlines (holpj)")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--jobs", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--trace", help="also write a per-service-start CSV trace to this path")

    p = command("map", cmd_map, "transform a scheme parameter")
    p.add_argument("--from", dest="source", required=True, help="scheme:value, e.g. rp:0.5")
    p.add_argument("--to", required=True)
    p.add_argument("--sign", default="nonneg", choices=("nonneg", "neg"))

    p = command("region", cmd_region, "achievable segment endpoints and sweep")
    p.add_argument("--points", type=int, default=11)

    p = command("tables", cmd_tables, "embedded benchmark tables", config=False)
    p.add_argument("which", choices=("table1", "table2"))
    p.add_argument("--check", action="store_true",
                   help="compare against embedded expected values")

    p = command("optimize", cmd_optimize, "control-problem solvers", csv=False)
    p.add_argument("problem", choices=("cmu", "hpc", "cloud", "pricing", "network", "fairness"))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnstableSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, _MalformedValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QueueingError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
