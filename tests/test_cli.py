import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mg1lab import SystemModel, expected_clearing_time
from mg1lab.cli import main

MODEL_DOC = {
    "model": {
        "classes": [
            {"lambda": 0.25, "service": {"kind": "deterministic", "mean": 1.0, "scv": 0.0}},
            {"lambda": 0.25, "service": {"kind": "deterministic", "mean": 1.0, "scv": 0.0}},
        ]
    }
}

UNSTABLE_DOC = {
    "model": {
        "classes": [
            {"lambda": 0.75, "service": {"kind": "exponential", "mean": 1.0, "scv": 1.0}},
            {"lambda": 0.35, "service": {"kind": "exponential", "mean": 1.0, "scv": 1.0}},
        ]
    }
}

NETWORK_DOC = {
    "model": {
        "classes": [
            {"lambda": 0.1179, "service": {"kind": "deterministic", "mean": 1.0, "scv": 0.0}},
            {"lambda": 0.26, "service": {"kind": "deterministic", "mean": 1.0, "scv": 0.0}},
        ]
    },
    "d": 4.911, "b": 0.01, "v1": 60, "v2": 60, "v3": 300, "v4": 120,
}


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(MODEL_DOC))
    return str(p)


class TestAnalyze:
    def test_rp_half_symmetric(self, model_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["analyze", "--config", model_path, "--discipline", "rp",
                   "--p1", "0.5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["waits"] == pytest.approx([0.5, 0.5])
        assert abs(doc["conservation_residual"]) < 1e-12
        assert "manifest" in doc

    def test_gfcfs_equal_waits(self, model_path, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["analyze", "--config", model_path, "--discipline", "gfcfs",
                   "--out", str(out)])
        assert rc == 0
        w = json.loads(out.read_text())["waits"]
        assert w[0] == w[1]

    def test_ddp_beta_inf_is_strict(self, model_path, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["analyze", "--config", model_path, "--discipline", "ddp",
                   "--beta", "inf", "--out", str(out)])
        assert rc == 0
        w = json.loads(out.read_text())["waits"]
        assert w[1] < w[0]

    def test_unstable_model_exit_3(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(UNSTABLE_DOC))
        rc = main(["analyze", "--config", str(p), "--discipline", "gfcfs"])
        assert rc == 3

    def test_missing_config_file_exit_2(self):
        rc = main(["analyze", "--config", "/nonexistent.json", "--discipline", "gfcfs"])
        assert rc == 2

    def test_bad_params_exit_4(self, model_path):
        rc = main(["analyze", "--config", model_path, "--discipline", "rp", "--p1", "1.5"])
        assert rc == 4

    @pytest.mark.parametrize("argv", [
        ["--discipline", "ddp"],
        ["--discipline", "rp"],
        ["--discipline", "pp"],
        ["--discipline", "edd"],
    ])
    def test_missing_discipline_flag_exit_4(self, model_path, argv, capsys):
        assert main(["analyze", "--config", model_path, *argv]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_malformed_number_exit_2(self, model_path, capsys):
        rc = main(["analyze", "--config", model_path, "--discipline", "rp", "--p", "1,x"])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err


class TestSimulate:
    def test_byte_identical_with_pinned_timestamp(self, model_path, tmp_path):
        out = tmp_path / "run.json"
        outs = []
        for _ in range(2):
            rc = main(["simulate", "--config", model_path, "--discipline", "gfcfs",
                       "--seed", "5", "--jobs", "2000", "--warmup", "500",
                       "--replications", "2", "--timestamp", "2000-01-01T00:00:00Z",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_trace_emission(self, model_path, tmp_path):
        trace = tmp_path / "trace.csv"
        rc = main(["simulate", "--config", model_path, "--discipline", "gfcfs",
                   "--seed", "5", "--jobs", "1000", "--warmup", "0",
                   "--replications", "1", "--trace", str(trace),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "time,class,arrival_time,wait"
        assert len(lines) == 1001
        # one replication estimates no spread
        assert json.loads((tmp_path / "o.json").read_text())["ci_halfwidth_95"] == [None, None]

    def test_trace_fields_parse(self, model_path, tmp_path):
        trace = tmp_path / "trace.csv"
        rc = main(["simulate", "--config", model_path, "--discipline", "rp", "--p1", "0.3",
                   "--seed", "5", "--jobs", "1000", "--replications", "1", "--trace", str(trace),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 0
        for line in trace.read_text().splitlines()[1:]:
            assert len([float(x) for x in line.split(",")]) == 4

    def test_csv_numbers_parse(self, model_path, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--config", model_path, "--discipline", "gfcfs",
                   "--seed", "5", "--jobs", "1000", "--warmup", "0", "--replications", "2",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 2
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row.split(","))

    def test_empty_class_writes_null(self, tmp_path):
        # class 2 has no arrivals, so its wait is not estimated
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["model"]["classes"][1]["lambda"] = 0.0
        config, out = tmp_path / "empty.json", tmp_path / "o.json"
        config.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(config), "--discipline", "gfcfs",
                   "--seed", "5", "--jobs", "1000", "--replications", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mean"][1] is None and doc["ci_halfwidth_95"][1] is None
        assert doc["sample_count"][1] == 0
        assert doc["mean"][0] > 0 and math.isfinite(doc["conservation_residual"])

    @pytest.mark.parametrize("argv", [
        ["--discipline", "ddp"],
        ["--discipline", "edd"],
        ["--discipline", "holpj"],
    ])
    def test_missing_discipline_flag_exit_4(self, model_path, argv):
        assert main(["simulate", "--config", model_path, "--jobs", "1000", *argv]) == 4

    @pytest.mark.parametrize("argv", [
        ["--discipline", "ddp", "--b", "1,nan"],
        ["--discipline", "edd", "--u", "nan,0"],
        ["--discipline", "holpj", "--u", "1,nan"],
    ])
    def test_non_finite_parameter_exit_4(self, model_path, argv):
        assert main(["simulate", "--config", model_path, "--jobs", "1000",
                     "--replications", "2", *argv]) == 4

    def test_ddp_beta_shorthand(self, model_path, tmp_path):
        outs = []
        for argv in (["--beta", "2.0"], ["--b", "1.0,2.0"], ["--beta", "inf"], ["--order", "1,0"]):
            out = tmp_path / "o.json"
            disc = "strict" if argv[0] == "--order" else "ddp"
            rc = main(["simulate", "--config", model_path, "--discipline", disc, *argv,
                       "--jobs", "1000", "--replications", "2", "--out", str(out)])
            assert rc == 0
            outs.append(json.loads(out.read_text())["mean"])
        assert outs[0] == outs[1]  # --beta b means rates (1, b)
        assert outs[2] == outs[3]  # --beta inf is strict priority to class 2

    def test_rp_weight_ends_are_strict(self, model_path, tmp_path):
        def mean(*argv):
            out = tmp_path / "o.json"
            assert main(["simulate", "--config", model_path, *argv, "--jobs", "1000",
                         "--replications", "2", "--out", str(out)]) == 0
            return json.loads(out.read_text())["mean"]

        first = mean("--discipline", "rp", "--p1", "1")
        assert first == mean("--discipline", "strict", "--order", "0,1")
        assert first[0] < first[1]
        assert mean("--discipline", "rp", "--p1", "0") == mean("--discipline", "strict", "--order", "1,0")


class TestMap:
    def test_rp_half_maps_to_beta_one(self, model_path, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["map", "--config", model_path, "--from", "rp:0.5", "--to", "ddp",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["to"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_identity(self, model_path, tmp_path):
        out = tmp_path / "out.json"
        main(["map", "--config", model_path, "--from", "rp:0.37", "--to", "ddp",
              "--out", str(out)])
        beta = json.loads(out.read_text())["to"]["value"]
        main(["map", "--config", model_path, "--from", f"ddp:{beta!r}", "--to", "rp",
              "--out", str(out)])
        assert json.loads(out.read_text())["to"]["value"] == pytest.approx(0.37, abs=1e-12)

    def test_malformed_source_exit_4(self, model_path):
        assert main(["map", "--config", model_path, "--from", "rp", "--to", "ddp"]) == 4

    def test_edd_integral_carries_its_branch(self, tmp_path):
        # p1 = 0.8 maps to an integral on EDD's "neg" branch; analyze reads
        # the branch from --sign (default "nonneg"), so map prints it, and
        # the integral on that branch gives back RP's waits
        p = tmp_path / "model.json"
        det = {"kind": "deterministic", "mean": 0.855, "scv": 0.0}
        p.write_text(json.dumps({"classes": [{"lambda": 0.495, "service": det},
                                             {"lambda": 0.25, "service": det}]}))
        out = tmp_path / "out.json"

        def run(*argv):
            assert main([*argv, "--config", str(p), "--out", str(out)]) == 0
            return json.loads(out.read_text())

        to = run("map", "--from", "rp:0.8", "--to", "edd")["to"]
        assert to["sign"] == "neg"
        edd = run("analyze", "--discipline", "edd", f"--integral={to['value']!r}", "--sign", to["sign"])
        rp = run("analyze", "--discipline", "rp", "--p1", "0.8")
        assert rp["waits"] == pytest.approx([0.5946, 1.0580], abs=1e-4)
        assert edd["waits"] == pytest.approx(rp["waits"], abs=1e-12)


class TestRegion:
    def test_sweep_shape(self, model_path, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["region", "--config", model_path, "--points", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["sweep"]) == 5
        assert doc["w1_bounds"][0] < doc["w1_bounds"][1]


class TestTables:
    def test_check_passes_exit_0(self, tmp_path):
        rc = main(["tables", "table1", "--check", "--out", str(tmp_path / "t1.json")])
        assert rc == 0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "t2.csv"
        rc = main(["tables", "table2", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1].startswith("lambda1,")
        assert len(lines) == 2 + 5


class TestOptimize:
    def test_fairness_symmetric(self, model_path, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["optimize", "fairness", "--config", model_path, "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())["solution"]
        assert sol["alpha1"] == pytest.approx(0.5)

    def test_cmu_dispatch(self, tmp_path):
        doc = dict(MODEL_DOC, c1=1.0, c2=2.0)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        rc = main(["optimize", "cmu", "--config", str(p), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["solution"]["params"]["p1"] == 0.0

    def test_network_benchmark_row(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(NETWORK_DOC))
        out = tmp_path / "out.json"
        rc = main(["optimize", "network", "--config", str(p), "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())["solution"]
        assert sol["p_rp"] == pytest.approx(0.0151, abs=5e-3)
        assert sol["utility_opt"] == pytest.approx(209.16, abs=5e-2)

    def test_cloud_delay_blind_closed_form(self, tmp_path):
        doc = {"mu": 1.0, "scv": 1.0, "a": [1.0, 0.8], "b": [2.0, 1.5], "c": [0.0, 0.0]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        rc = main(["optimize", "cloud", "--config", str(p), "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())["solution"]
        want = sum(a * a / (4.0 * b) for a, b in zip(doc["a"], doc["b"]))
        assert sol["objective"] == pytest.approx(want, abs=1e-8)
        assert sol["diagnostics"]["certification_unconverged"] == 0

    def test_cloud_reports_evaluations(self, tmp_path):
        doc = {"mu": 1.0, "scv": 1.0, "a": [0.8, 0.8], "b": [1.5, 1.5], "c": [0.2, 0.2],
               "T": [5.0, 5.0]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main(["optimize", "cloud", "--config", str(p), "--out", str(out)]) == 0
        evaluations = json.loads(out.read_text())["solution"]["diagnostics"]["evaluations"]
        assert isinstance(evaluations, int) and evaluations > 0

    def test_json_has_no_infinity(self, tmp_path):
        # this c=0 optimum sits at rho = 1, where both waits are infinite
        doc = {"mu": 1.0, "scv": 1.0, "a": [1.0, 1.0], "b": [2.0, 2.0], "c": [0.0, 0.0]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main(["optimize", "cloud", "--config", str(p), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        sol = json.loads(out.read_text(), parse_constant=reject)["solution"]
        assert sol["diagnostics"]["W1"] is None

    def test_infeasible_exit_6(self, tmp_path):
        doc = {"lambda_p": 0.3, "mu": 1.0, "sigma2": 1.0, "S_p": 0.1,
               "a": 2.0, "b": 1.0, "c": 1.0}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["optimize", "pricing", "--config", str(p)]) == 6


SERVICE = MODEL_DOC["model"]["classes"][0]["service"]
CLOUD_DOC = {"mu": 1.0, "scv": 1.0, "a": [0.8, 0.8], "b": [1.5, 1.5], "c": [0.2, 0.2]}
HPC_DOC = {"lambda_P": 0.2, "lambda_R": 0.3, "service": SERVICE,
           "a": 5.0, "b": 1.0, "w1": 1.0, "w2": 1.0}
PRICING_DOC = {"lambda_p": 0.3, "mu": 1.0, "sigma2": 1.0, "a": 2.0, "b": 1.0, "c": 1.0}
BAD_MODELS = [
    {"model": {"classes": 5}},
    {"model": {"classes": [{"lambda": "x", "service": SERVICE}] * 2}},
]


class TestNonFiniteDocuments:
    """json.load reads NaN and Infinity literals; a parameter that is not
    finite exits 4, except an SLA cap, where +inf means no cap."""

    @pytest.mark.parametrize("problem, doc", [
        ("cloud", dict(CLOUD_DOC, mu=math.nan)),
        ("cloud", dict(CLOUD_DOC, c=[0.2, math.inf])),
        ("cloud", dict(CLOUD_DOC, T=[math.nan, 5.0])),
        ("hpc", dict(HPC_DOC, a=math.nan)),
        ("hpc", dict(HPC_DOC, S_R=math.nan)),
        ("pricing", dict(PRICING_DOC, lambda_p=math.nan)),
        ("pricing", dict(PRICING_DOC, S_p=math.nan)),
        ("pricing", dict(PRICING_DOC, b=math.inf)),
        ("network", dict(NETWORK_DOC, d=math.inf)),
        ("network", dict(NETWORK_DOC, v1=math.nan)),
        ("cmu", dict(MODEL_DOC, c1=math.nan, c2=1.0)),
        ("cmu", dict(MODEL_DOC, c1=math.inf, c2=1.0)),
    ])
    def test_optimize_exit_4(self, tmp_path, capsys, problem, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["optimize", problem, "--config", str(p)]) == 4
        assert capsys.readouterr().err.startswith("parameter error: ")

    def test_hpc_infinite_cap_is_slack(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(HPC_DOC, S_R=math.inf)))
        out = tmp_path / "out.json"
        assert main(["optimize", "hpc", "--config", str(p), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["solution"]["params"]["p1"] == 1.0


class TestMalformedDocuments:
    """A config value of the wrong type or shape exits 2, never with a traceback."""

    @pytest.mark.parametrize("problem, doc", [
        ("cloud", dict(CLOUD_DOC, a="xy")),
        ("cloud", dict(CLOUD_DOC, a=[1])),
        ("cloud", dict(CLOUD_DOC, a=5)),
        ("cloud", dict(CLOUD_DOC, mu="x")),
        ("cloud", dict(CLOUD_DOC, T=[1, None])),
        ("pricing", {"lambda_p": 0.3, "mu": 1.0, "sigma2": 1.0, "a": 2.0, "b": 1.0, "c": "q"}),
        ("cmu", dict(MODEL_DOC, c1=[1], c2=1.0)),
        ("hpc", {"lambda_P": 0.2, "lambda_R": 0.3, "service": "exp",
                 "a": 5.0, "b": 1.0, "w1": 1.0, "w2": 1.0}),
        ("network", dict(MODEL_DOC, d=4.0, b=0.01, v1=1.0, v2=1.0, v3=1.0, v4=None)),
        ("fairness", {"model": [1, 2]}),
        ("fairness", [1, 2]),
    ])
    def test_optimize_exit_2(self, tmp_path, problem, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["optimize", problem, "--config", str(p)]) == 2

    @pytest.mark.parametrize("doc", BAD_MODELS)
    @pytest.mark.parametrize("argv", [
        ["analyze", "--discipline", "gfcfs"],
        ["simulate", "--discipline", "gfcfs", "--jobs", "1000"],
        ["map", "--from", "rp:0.5", "--to", "ddp"],
        ["region"],
        ["optimize", "fairness"],
        ["optimize", "cmu"],
    ])
    def test_model_document_exit_2(self, tmp_path, argv, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(doc, c1=1.0, c2=1.0)))
        assert main([*argv, "--config", str(p)]) == 2

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_region_too_few_points_exit_2(self, model_path, points):
        assert main(["region", "--config", model_path, "--points", points]) == 2


class TestRemovedFlags:
    """Each subcommand takes only the flags it reads: a flag another
    subcommand takes is an unrecognized argument (argparse exits 2)."""

    @pytest.mark.parametrize("argv, removed", [
        (["analyze", "--discipline", "gfcfs"], ["--seed", "1"]),
        (["map", "--from", "rp:0.5", "--to", "ddp"], ["--seed", "1"]),
        (["region"], ["--seed", "1"]),
        (["tables", "table1"], ["--seed", "1"]),
        (["optimize", "fairness"], ["--seed", "1"]),
        (["tables", "table1"], ["--config", "model.json"]),
        (["optimize", "fairness"], ["--format", "csv"]),
        (["analyze", "--discipline", "edd", "--integral", "0.1"], ["--u", "1,0"]),
        (["simulate", "--discipline", "edd", "--u", "1,0"], ["--integral", "0.1"]),
        (["simulate", "--discipline", "gfcfs"], ["--sign", "neg"]),
    ])
    def test_exit_2(self, model_path, tmp_path, capsys, argv, removed):
        # the command line runs without the flag and stops at argparse with it
        common = ["--out", str(tmp_path / "o.json")]
        if argv[0] != "tables":
            common += ["--config", model_path]
        if argv[0] == "simulate":
            common += ["--jobs", "1000", "--replications", "2"]
        assert main([*argv, *common]) == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, *common, *removed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(removed)}" in err and "Traceback" not in err

    def test_manifest_records_only_what_the_command_takes(self, model_path, tmp_path):
        out = tmp_path / "o.json"
        assert main(["optimize", "fairness", "--config", model_path, "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["seed"] is None and manifest["format"] == "json"
        assert manifest["config"] == model_path
        assert main(["tables", "table1", "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["seed"] is None and manifest["config"] is None


class TestIntegralRange:
    """`analyze --discipline edd --integral X` and `map --from edd:X` accept
    the same integrals."""

    # rho = 1 - 1e-8, where the class-1 branch's upper limit is about 2e8
    DOC = {"classes": [
        {"lambda": 0.5, "service": {"kind": "exponential", "mean": 1.0, "scv": 1.0}},
        {"lambda": 0.5 - 1e-8, "service": {"kind": "exponential", "mean": 1.0, "scv": 1.0}},
    ]}

    @pytest.mark.parametrize("sign, x_of_upper, code", [
        ("neg", lambda u: math.nextafter(u, math.inf), 0),
        ("neg", lambda u: -1e-12, 0),
        ("nonneg", lambda u: -1e-12, 0),
        ("neg", lambda u: 1.5 * u, 4),
        ("nonneg", lambda u: 1.5 * u, 4),
    ])
    def test_analyze_and_map_agree(self, tmp_path, sign, x_of_upper, code):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(self.DOC))
        upper = expected_clearing_time(SystemModel.from_json(self.DOC), 1 if sign == "nonneg" else 0)
        x = repr(x_of_upper(upper))
        common = ["--config", str(p), "--sign", sign, "--out", str(tmp_path / "o.json")]
        assert main(["analyze", "--discipline", "edd", f"--integral={x}", *common]) == code
        assert main(["map", "--from", f"edd:{x}", "--to", "ddp", *common]) == code


# argv fuzz: every command line either fails to parse (argparse exits 2) or
# makes main return a documented exit code; nothing else escapes
NUMBERS = st.sampled_from(
    ["0", "0.5", "1", "2", "-1", "1.5", "1e308", "-1e-12", "5e-324", "inf", "-inf", "nan"]
) | st.floats().map(repr)
MALFORMED = st.sampled_from(["", "x", "1,", ",", "1,,2", "0x1", "--", "1;2", "None", "[]"])
VALUES = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2).map(",".join),
                   MALFORMED, st.lists(NUMBERS, max_size=3).map(",".join))
INTS = st.sampled_from(["-5", "-1", "0", "1", "2", "3", "7", "2.5", "x", ""])
#: the flags each discipline reads in each command, one group drawn per command line
DISCIPLINE_FLAGS = {
    "gfcfs": [[]], "strict": [["--order"]], "ddp": [["--beta"], ["--b"]],
    "rp": [["--p1"], ["--p"]], "pp": [["--omega1"]],
}
COMMAND_FLAGS = {
    "analyze": dict(DISCIPLINE_FLAGS, edd=[["--integral"]], holpj=[[]]),
    "simulate": dict(DISCIPLINE_FLAGS, edd=[["--u"]], holpj=[["--u"]]),
}
SIGNS = st.sampled_from(["neg", "nonneg"])
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "model.json").write_text(json.dumps(MODEL_DOC))
    (d / "bad.json").write_text(json.dumps({"model": {"classes": [{"lambda": [], "service": 1}]}}))
    (d / "binary.json").write_bytes(b"\xff\xfe{")
    # json.dumps writes the NaN and Infinity literals that json.load reads
    (d / "nonfinite.json").write_text(json.dumps(dict(MODEL_DOC, c1=math.nan, c2=math.inf)))
    return d


def _option(flag, values):
    return st.tuples(st.just(flag), values).map(list)


@st.composite
def argvs(draw, d):
    """A command line that uses only flags its command takes."""
    command = draw(st.sampled_from(["analyze", "simulate", "map", "region", "tables", "optimize"]))
    argv = [command]
    config = draw(st.sampled_from(
        ["model.json"] * 4 + ["bad.json", "binary.json", "nonfinite.json", "missing.json", None]))
    if config and command != "tables":
        argv += ["--config", str(d / config)]
    common = [
        _option("--out", st.sampled_from([str(d / "out"), str(d), ""])),
        _option("--timestamp", st.sampled_from(["2000-01-01T00:00:00Z", ""])),
    ]
    if command != "optimize":
        common.append(_option("--format", st.sampled_from(["json", "csv"])))
    if command == "simulate":
        common.append(_option("--seed", INTS | st.integers(-(2**65), 2**65).map(str)))
    for option in common:
        argv += draw(option | st.just([]))
    options = []
    if command in COMMAND_FLAGS:
        flags = COMMAND_FLAGS[command]
        discipline = draw(st.sampled_from(sorted(flags)))
        argv += ["--discipline", discipline]
        for flag in draw(st.sampled_from(flags[discipline])):
            argv += [flag, draw(VALUES)]
        options += [_option(flag, VALUES) for flag in ("--order", "--beta", "--b", "--p1", "--p", "--omega1")]
    if command == "analyze":
        options += [_option("--integral", VALUES), _option("--sign", SIGNS)]
    elif command == "simulate":
        # small runs: at most 1200 measured and 50 warm-up jobs, 2 replications
        argv += ["--jobs", draw(st.sampled_from(["1000", "1200"]) | INTS),
                 "--warmup", draw(st.sampled_from(["0", "50"]) | INTS),
                 "--replications", draw(st.sampled_from(["1", "2"]) | INTS)]
        options += [_option("--u", VALUES),
                    _option("--trace", st.sampled_from([str(d / "trace.csv"), str(d)]))]
    elif command == "map":
        schemes = st.sampled_from(["ddp", "rp", "edd", "holpj", "pp", "xyz", ""])
        argv += ["--from", draw(st.tuples(schemes, VALUES).map(":".join) | MALFORMED),
                 "--to", draw(schemes)]
        options.append(_option("--sign", SIGNS))
    elif command == "region":
        options.append(_option("--points", INTS | st.integers(-3, 40).map(str)))
    elif command == "tables":
        argv.append(draw(st.sampled_from(["table1", "table2"])))
        options.append(st.just(["--check"]))
    elif command == "optimize":
        argv.append(draw(st.sampled_from(["cmu", "hpc", "cloud", "pricing", "network", "fairness"])))
    for option in draw(st.lists(st.sampled_from(options), max_size=2)) if options else ():
        argv += draw(option)
    return argv


@FUZZ
@given(data=st.data())
def test_argv_fuzz_exits_with_a_documented_code(fuzz_dir, data):
    argv = data.draw(argvs(fuzz_dir), label="argv")
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2, argv
    else:
        assert rc in (0, 2, 3, 4, 5, 6), argv
