import json
import math

import pytest

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
        doc = {
            "model": {
                "classes": [
                    {"lambda": 0.1179, "service": {"kind": "deterministic", "mean": 1.0, "scv": 0.0}},
                    {"lambda": 0.26, "service": {"kind": "deterministic", "mean": 1.0, "scv": 0.0}},
                ]
            },
            "d": 4.911, "b": 0.01, "v1": 60, "v2": 60, "v3": 300, "v4": 120,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
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
