"""End-to-end command tests: exit codes and report shape."""

import json
import subprocess
import sys

import pytest

from qunimodal.cli import RunConfig, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(args, tmp_path, capsys, name="report.json"):
    path = tmp_path / name
    code = main(args + ["--report", str(path)])
    capsys.readouterr()
    return code, json.loads(path.read_text())


class TestExpand:
    def test_first_row_layout(self, capsys):
        code, out, _ = run_cli(["expand", "--family", "main", "--n", "0", "--out", "-"], capsys)
        assert code == 0
        assert out == "0,1\n1,1\n2,1\n3,1\n"

    def test_general_factors(self, capsys):
        code, out, _ = run_cli(["expand", "--family", "general", "--factors", "+1,+2"], capsys)
        assert code == 0
        assert out == "0,1\n1,1\n2,1\n3,1\n"

    def test_quotient_to_file(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code, _, _ = run_cli(
            ["expand", "--family", "almkvist", "--r", "3", "--n", "2", "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "0,1"

    def test_missing_n(self, capsys):
        code, _, err = run_cli(["expand", "--family", "main"], capsys)
        assert code == 2
        assert "invalid configuration" in err


class TestVerify:
    def test_small_sweep(self, tmp_path, capsys):
        code, report = run_report(["verify", "--n-max", "6"], tmp_path, capsys)
        assert code == 0
        results = report["results"]
        assert len(results) == 14  # symmetry + unimodality for n = 0..6
        assert all(r["passed"] for r in results)
        assert {r["n"] for r in results} == set(range(7))
        assert report["metadata"]["config"]["n_max"] == 6
        assert "generated_at" in report["metadata"]

    def test_asymmetric_product_fails(self, tmp_path, capsys):
        # (1 - q)(1 + q) = 1 - q^2 is not palindromic
        code, report = run_report(
            ["verify", "--family", "general", "--factors=-1,+1"], tmp_path, capsys
        )
        assert code == 1
        kinds = {r["kind"]: r["passed"] for r in report["results"]}
        assert not kinds["symmetric"]

    def test_odd_family_needs_trim(self, tmp_path, capsys):
        code, report = run_report(
            ["verify", "--family", "odd", "--n-min", "27", "--n-max", "28", "--a", "3"],
            tmp_path,
            capsys,
        )
        assert code == 0
        code, report = run_report(
            ["verify", "--family", "odd", "--n-min", "27", "--n-max", "27"],
            tmp_path,
            capsys,
            name="untrimmed.json",
        )
        assert code == 1
        failing = [r for r in report["results"] if not r["passed"]]
        assert failing and failing[0]["first_violation"] == 3

    def test_bad_range(self, capsys):
        code, _, err = run_cli(["verify", "--n-min", "5", "--n-max", "2"], capsys)
        assert code == 2
        assert "n_min" in err

    def test_trim_beyond_half_degree_is_invalid(self, capsys):
        code, _, err = run_cli(["verify", "--n-max", "3", "--a", "100"], capsys)
        assert code == 2
        assert "invalid" in err


class TestReportReproducibility:
    def test_results_block_is_stable(self, tmp_path, capsys):
        first = run_report(["verify", "--n-max", "5"], tmp_path, capsys)[1]
        second = run_report(["verify", "--n-max", "5"], tmp_path, capsys)[1]
        assert json.dumps(first["results"], sort_keys=True) == json.dumps(
            second["results"], sort_keys=True
        )
        assert first["metadata"]["config"] == second["metadata"]["config"]


class TestStructuralCommands:
    def test_lemma(self, tmp_path, capsys):
        code, report = run_report(["lemma", "--n-max", "5"], tmp_path, capsys)
        assert code == 0
        assert len(report["results"]) == 5

    def test_induction(self, tmp_path, capsys):
        code, report = run_report(["induction", "--n-max", "6"], tmp_path, capsys)
        assert code == 0
        assert report["results"][0]["kind"] == "induction"

    def test_borwein(self, tmp_path, capsys):
        code, report = run_report(["borwein", "--n-max", "10"], tmp_path, capsys)
        assert code == 0
        assert len(report["results"]) == 11

    def test_almkvist(self, tmp_path, capsys):
        code, report = run_report(
            ["almkvist", "--r", "3", "--n-min", "11", "--n-max", "13"], tmp_path, capsys
        )
        assert code == 0
        assert len(report["results"]) == 6

    def test_almkvist_is_verify_of_the_quotient_family(self, tmp_path, capsys):
        span = ["--r", "3", "--n-min", "11", "--n-max", "20"]
        code, report = run_report(["almkvist"] + span, tmp_path, capsys)
        same_code, same = run_report(
            ["verify", "--family", "almkvist"] + span, tmp_path, capsys, name="verify.json"
        )
        assert code == same_code == 0
        assert report["results"] == same["results"]
        assert report["metadata"]["config"]["family"] == "almkvist"

    def test_almkvist_config_must_name_the_quotient_family(self):
        with pytest.raises(ValueError):
            RunConfig(command="almkvist", r=3).validate()

    def test_almkvist_needs_r(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["almkvist", "--n-max", "12"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestAnalyticCommands:
    def test_certify_with_plot(self, tmp_path, capsys):
        plot = tmp_path / "envelope.csv"
        code, report = run_report(
            ["certify", "--n", "168", "--grid-points", "1000", "--plot-csv", str(plot)],
            tmp_path,
            capsys,
        )
        assert code == 0
        assert report["results"][0]["bound_id"] == "envelope_exponent"
        assert report["results"][0]["n"] == 168
        lines = plot.read_text().splitlines()
        assert lines[0] == "theta,exponent,bound"
        assert len(lines) == 1001

    def test_certify_rejects_small_n(self, capsys):
        code, _, err = run_cli(["certify", "--n", "167"], capsys)
        assert code == 2
        assert "168" in err

    def test_certify_gamma_and_lobe(self, tmp_path, capsys):
        code, report = run_report(
            [
                "certify",
                "--n",
                "168",
                "--grid-points",
                "1000",
                "--gamma-tail",
                "--i2-n",
                "5",
                "--i2-mu",
                "0,3",
            ],
            tmp_path,
            capsys,
        )
        assert code == 0
        ids = [r["bound_id"] for r in report["results"]]
        assert "gamma_tail_at_cutoff" in ids
        assert sum(i.startswith("lobe_ratio") for i in ids) == 2

    def test_integral_reconstruction(self, tmp_path, capsys):
        code, report = run_report(["integral", "--n", "2"], tmp_path, capsys)
        assert code == 0
        assert len(report["results"]) == 3

    def test_integral_sign_accord_small(self, tmp_path, capsys):
        code, _ = run_report(["integral", "--sign-accord", "--n", "4"], tmp_path, capsys)
        assert code == 0

    def test_integral_sign_accord_finds_dip(self, tmp_path, capsys):
        # the n=5 interpolant dip is a genuine sign disagreement
        code, report = run_report(["integral", "--sign-accord", "--n", "5"], tmp_path, capsys)
        assert code == 1
        assert report["results"][-1]["first_violation"] == 49

    def test_integral_above_twelve_is_inconclusive(self, capsys):
        code, _, err = run_cli(["integral", "--n", "13"], capsys)
        assert code == 3
        assert "inconclusive" in err

    def test_integral_budget_exhaustion(self, capsys):
        code, _, err = run_cli(["integral", "--n", "8", "--max-panels", "10"], capsys)
        assert code == 3
        assert "inconclusive" in err

    def test_trig(self, tmp_path, capsys):
        code, report = run_report(
            ["trig", "--samples", "50", "--grid-points", "500"], tmp_path, capsys
        )
        assert code == 0
        assert len(report["results"]) == 7

    def test_trig_rejects_negative_seed(self, capsys):
        code, _, err = run_cli(["trig", "--seed", "-1"], capsys)
        assert code == 2
        assert "--seed" in err

    def test_sweep_f(self, tmp_path, capsys):
        plot = tmp_path / "f.csv"
        code, report = run_report(
            ["sweep-f", "--n-min", "168", "--n-max", "400", "--plot-csv", str(plot)],
            tmp_path,
            capsys,
        )
        assert code == 0
        assert len(report["results"]) == 3
        lines = plot.read_text().splitlines()
        assert lines[0] == "n,f_value"
        assert len(lines) == 400 - 168 + 2


class TestProcessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qunimodal.cli", "borwein", "--n-max", "3", "--report", "-"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]
