"""End-to-end command tests: exit codes and report shape."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qunimodal import cli
from qunimodal.cli import main
from qunimodal.polynomials import ProductSpec, build_product, dump_lines


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

    @pytest.mark.parametrize("args, spec", [
        (["--n", "40"], ProductSpec.main(40)),
        (["--family", "odd", "--n", "33"], ProductSpec.odd(33)),
        (["--family", "almkvist", "--r", "5", "--n", "17"], ProductSpec.almkvist(5, 17)),
        (["--family", "general", "--factors", "+1,+2,-5,+7,+9"],
         ProductSpec.general([(1, 1), (1, 2), (-1, 5), (1, 7), (1, 9)])),
    ], ids=["main", "odd", "almkvist", "general"])
    def test_row_file_is_the_full_dump(self, args, spec, tmp_path, capsys):
        # expand writes the mirrored lower half; the file is the full row's dump.
        out = tmp_path / "row.csv"
        code, _, _ = run_cli(["expand", *args, "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text() == "".join(f"{line}\n" for line in dump_lines(build_product(spec)))

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


class TestThresholdCertificates:
    def test_lobe_ratio_at_168_is_pinned(self, tmp_path, capsys):
        code, report = run_report(["certify", "--n", "168", "--i2-n", "168", "--i2-mu", "301,711"],
                                  tmp_path, capsys)
        assert code == 0
        lobes = [r for r in report["results"] if r["bound_id"] == "lobe_ratio"]
        got = [(r["detail"]["mu"], r["detail"]["i1"], r["detail"]["i2"], r["error_budget"], r["min_margin"])
               for r in lobes]
        assert got == [
            (301, 2.4007418238037333e-09, 2.7485221591909643e-66, 3.4530183573060456e-23, 7.011552854383202e-10),
            (711, 5.630733229837707e-09, 5.507667752405198e-66, 8.249907370694287e-23, 1.616095260476216e-09),
        ]
        for r in lobes:
            assert (r["detail"]["i1_panels"], r["detail"]["i2_panels"], r["grid"]["points"]) == (86, 43262, 43348)
            assert r["passed"] is True


# Runs commands one after another in one process and reports, after each,
# its exit code, the threads it started, the threads alive, the modules it
# added to sys.modules and which of concurrent.futures, logging,
# numpy.random and numpy.polynomial are loaded at all. A second argument
# pins the CPUs the process reports to that count.
THREAD_PROBE = """
import json, os, sys, threading
if len(sys.argv) > 2:
    os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
from qunimodal.cli import main
started = []
plain_start = threading.Thread.start
def start(self):
    started.append(self.name)
    plain_start(self)
threading.Thread.start = start
seen = []
for argv in json.loads(sys.argv[1]):
    before, modules = len(started), set(sys.modules)
    code = main(argv)
    seen.append([code, started[before:], [t.name for t in threading.enumerate()],
                 sorted(set(sys.modules) - modules),
                 sorted({"concurrent.futures", "logging", "numpy.random", "numpy.polynomial"} & set(sys.modules))])
print(json.dumps(seen))
"""

LOBE_COMMAND = ["certify", "--n", "168", "--i2-n", "168", "--i2-mu", "301", "--report", "lobe.json"]
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def benchmark_commands(outdir):
    """The argv of every command of both benchmark workloads at seed 23, as bench/workloads.py plans them."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [c["argv"] for w in workloads.WORKLOADS for c in workloads.plan(w, 23, str(outdir))["commands"]]


def run_probe(commands, cwd, cpus=None):
    extra = [] if cpus is None else [str(cpus)]
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE, json.dumps(commands), *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(seen) == len(commands)
    return seen


class TestProcessEntry:
    def test_only_the_threshold_lobe_starts_a_thread(self, tmp_path):
        # Only the rotated cosine product (n >= 16) of more than one slice
        # shares its slices with a helper thread, and only on two or more
        # CPUs; the helper ends with its call.
        commands = [
            ["integral", "--sign-accord", "--report", "sign.json"],
            ["integral", "--n", "8", "--report", "integral.json"],
            ["trig", "--samples", "50", "--report", "trig.json"],
            ["verify", "--n-max", "20", "--report", "verify.json"],
            ["expand", "--n", "20", "--out", "rows.txt"],
            LOBE_COMMAND,
        ]
        seen = run_probe(commands, tmp_path)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for argv, (_, started, alive, _, loaded) in zip(commands, seen):
            assert alive == ["MainThread"], argv
            assert loaded == [], argv
            if argv is LOBE_COMMAND and cpus > 1:
                assert started and set(started) == {"cosine_product"}
            else:
                assert started == [], argv
        assert seen[-1][0] == 0

    def test_the_lobe_after_a_sweep_imports_nothing(self, tmp_path):
        # The helper thread is a plain threading.Thread, so on two CPUs the
        # lobe command loads no module that a sweep did not load before it.
        commands = [["sweep-f", "--report", "sweep.json"], LOBE_COMMAND]
        sweep, (code, started, _, added, loaded) = run_probe(commands, tmp_path, cpus=2)
        assert code == 0 and started
        assert added == []
        assert sweep[-1] == loaded == []

    def test_no_benchmark_command_loads_numpy_random_or_polynomial(self, tmp_path):
        # trig draws its seeded stream in Python integers and the Gauss
        # rule's constants are written out, so no command of either
        # workload pays the megabytes of numpy.random or numpy.polynomial.
        commands = benchmark_commands(tmp_path)
        assert {argv[0] for argv in commands} >= {"expand", "verify", "trig", "integral", "certify"}
        seen = run_probe(commands, tmp_path)
        assert [loaded for *_, loaded in seen] == [[]] * len(commands)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qunimodal.cli", "borwein", "--n-max", "3", "--report", "-"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]


class TestFamilyStream:
    def test_envelope_csv_avoids_the_sine_zero(self, tmp_path, capsys):
        plot = tmp_path / "envelope.csv"
        code, _ = run_report(
            ["certify", "--n", "168", "--grid-points", "1000", "--plot-csv", str(plot)], tmp_path, capsys
        )
        assert code == 0
        thetas = [float(line.split(",")[0]) for line in plot.read_text().splitlines()[1:]]
        assert len(thetas) == 1000
        assert min(abs(math.sin(2.0 * t)) for t in thetas) >= 1e-12

    @pytest.mark.parametrize("family,extra", [("odd", []), ("almkvist", ["--r", "3"])])
    def test_verify_sweeps_tag_each_row(self, family, extra, tmp_path, capsys):
        code, report = run_report(
            ["verify", "--family", family, "--n-min", "2", "--n-max", "6", *extra], tmp_path, capsys
        )
        assert code in (0, 1)
        assert [r["n"] for r in report["results"]] == [n for n in range(2, 7) for _ in range(2)]


class TestLibraryRules:
    # Rules that only the called function states: each exits 2 with that
    # function's message, before any report, row file or CSV is written.
    @pytest.mark.parametrize(
        "args,message",
        [
            (["certify", "--n", "167", "--plot-csv", "{dir}/plot.csv"], "claimed for n >= 168 only"),
            (["certify", "--n", "300,167", "--plot-csv", "{dir}/plot.csv"], "claimed for n >= 168 only"),
            (["certify", "--n", "168", "--grid-points", "999"], "at least 1000 grid points"),
            (["trig", "--samples", "0"], "samples must be >= 1"),
            (["sweep-f", "--n-min", "167", "--plot-csv", "{dir}/f.csv"], "168 <= n_lo < n_hi"),
            (["sweep-f", "--n-min", "400", "--n-max", "400", "--plot-csv", "{dir}/f.csv"], "168 <= n_lo < n_hi"),
            (["induction", "--n-max", "-1"], "n_max must be >= 0"),
            (["verify", "--family", "almkvist", "--r", "1", "--n-max", "3"], "quotient family needs r >= 2"),
            (["almkvist", "--r", "1"], "quotient family needs r >= 2"),
            (["expand", "--family", "almkvist", "--r", "1", "--n", "2", "--out", "{dir}/row.csv"],
             "quotient family needs r >= 2"),
            (["expand", "--n", "-1", "--out", "{dir}/row.csv"], "main family needs n >= 0"),
            (["expand", "--family", "odd", "--n", "-1", "--out", "{dir}/row.csv"], "odd family needs n >= 0"),
            (["expand", "--family", "almkvist", "--r", "3", "--n", "0", "--out", "{dir}/row.csv"],
             "quotient family needs n >= 1"),
            (["verify", "--family", "almkvist", "--r", "3", "--n-max", "0"], "quotient family needs n >= 1"),
            (["integral", "--n", "-1"], "main family needs n >= 0"),
            (["integral", "--sign-accord", "--n", "-1"], "main family needs n >= 0"),
            (["verify", "--n-max", "3", "--a", "-1"], "window trim must be >= 0"),
            (["certify", "--n", "168", "--i2-mu", "5,-1", "--plot-csv", "{dir}/p.csv"], "mu must be >= 0"),
            (["certify", "--n", "168", "--i2-n", "0", "--plot-csv", "{dir}/p.csv"], "n must be >= 1"),
            (["trig", "--grid-points", "9"], "need at least 10 grid points"),
            (["verify", "--n-min", "5", "--n-max", "3"], "need 0 <= n_min <= n_max"),
            (["borwein", "--n-min", "-1"], "need 0 <= n_min <= n_max"),
            (["almkvist", "--r", "3", "--n-min", "41"], "need 0 <= n_min <= n_max"),
            # the window check starts at n = 1, so n-max 0 would check no row
            (["lemma", "--n-min", "0", "--n-max", "0"], "need 0 <= n_min <= n_max"),
            # a bad --n is named before a lobe that would run out of panels (exit 3)
            (["certify", "--n", "167", "--i2-n", "1300", "--i2-mu", "7"], "claimed for n >= 168 only"),
        ],
    )
    def test_exits_2_with_the_library_message(self, args, message, tmp_path, capsys):
        args = [a.format(dir=tmp_path) for a in args]
        if args[0] != "expand":
            args += ["--report", str(tmp_path / "report.json")]
        cli.validate(cli.build_parser().parse_args(args))  # stated by the library alone
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "invalid request" in err and message in err
        assert "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,n", [([], "8"), (["--sign-accord"], "12")])
    def test_integral_defaults_are_the_sweeps_own(self, flags, n, tmp_path, capsys):
        code, report = run_report(["integral", *flags], tmp_path, capsys)
        code_n, report_n = run_report(["integral", *flags, "--n", n], tmp_path, capsys, name="n.json")
        assert (code, report["results"]) == (code_n, report_n["results"])


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--n-max", "5", "--report", "{path}"],
            ["expand", "--n", "3", "--out", "{path}"],
            ["certify", "--n", "168", "--grid-points", "1000", "--plot-csv", "{path}"],
            ["sweep-f", "--n-min", "168", "--n-max", "170", "--plot-csv", "{path}"],
        ],
    )
    def test_exits_2_without_a_traceback(self, args, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out.txt")
        code, _, err = run_cli([a.format(path=path) for a in args], capsys)
        assert code == 2
        assert "cannot write output" in err
        assert "Traceback" not in err


class TestLargeLobeN:
    def test_grid_outrun_is_inconclusive_not_an_overflow(self, capsys):
        code, _, err = run_cli(
            ["certify", "--n", "168", "--grid-points", "1000", "--i2-n", "1300", "--i2-mu", "7"], capsys
        )
        assert code == 3
        assert "needs 2542152 panels" in err


class TestConfigFromParser:
    def test_each_command_records_its_own_defaults(self, tmp_path, capsys):
        _, trig = run_report(["trig", "--samples", "5"], tmp_path, capsys)
        assert (trig["metadata"]["config"]["grid_points"], trig["metadata"]["config"]["seed"]) == (10000, 20260822)
        _, certify = run_report(["certify", "--n", "168"], tmp_path, capsys)
        config = certify["metadata"]["config"]
        assert config["grid_points"] == 20000
        assert config["n_list"] == [168] and config["i2_mu"] == []

    def test_a_report_carries_only_its_commands_options(self, tmp_path, capsys):
        _, report = run_report(["verify", "--n-max", "3"], tmp_path, capsys)
        config = report["metadata"]["config"]
        assert config == {"command": "verify", "family": "main", "n_min": 0, "n_max": 3,
                          "report": config["report"]}

    def test_almkvist_records_the_quotient_family(self, tmp_path, capsys):
        _, report = run_report(["almkvist", "--r", "3", "--n-max", "12"], tmp_path, capsys)
        config = report["metadata"]["config"]
        assert (config["family"], config["n_min"], config["n_max"]) == ("almkvist", 11, 12)
        assert "a" not in config

    @pytest.mark.parametrize("flag", ["--n=168,x", "--i2-mu=", "--max-panels=10"])
    def test_bad_certify_options_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", flag])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTooLargeToAllocate:
    def test_exits_2_without_a_traceback(self, monkeypatch, capsys):
        def refuse(n, grid_points):
            raise MemoryError("Unable to allocate 745. GiB")

        # Raised in place of the allocation: a real one could be granted
        # by an overcommitting kernel and kill the process later.
        monkeypatch.setattr(cli, "certify_E_bound", refuse)
        code, _, err = run_cli(["certify", "--n", "168", "--grid-points", "100000000000"], capsys)
        assert code == 2
        assert "invalid request: cannot allocate" in err
        assert "Traceback" not in err
