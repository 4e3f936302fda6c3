"""Time qunimodal commands in two checkouts, alternating sides, and write the BENCH file.

    python3 tools/bench_commands.py --parent ../pA --change ../pB --runs 3 \
        --bench-pairs 10 --bench-seconds 14 --label pr23 --out BENCH_pr23.json

Each command runs in one fresh ``python3`` per run and side, with that
side's ``src`` first on ``sys.path``, BLAS threads fixed at 1,
``QUNIMODAL_CACHE_DIR`` removed and bytecode cached per side (one untimed
command per side fills the cache first). Before that, each command runs
once per side cold, as in the first round of ``bench/run.py``: a fresh
``PYTHONPYCACHEPREFIX`` holds only the bytecode of what importing
``qunimodal.cli`` loads (compiled by one import-only process, as the
benchmark's set-up probe does), so every module the command imports
later, the standard library's too, compiles from source inside it. Its
``peak_rss_mb`` and ``wall_s`` are reported as ``cold_peak_rss_mb`` and
``cold_wall_s``, apart from the warm runs. The child times ``qunimodal.cli.main(argv)``
alone and reads ``resource.getrusage`` after the call: ``wall_s``,
``peak_rss_mb`` (``ru_maxrss`` / 1024) and ``ru_minflt``, with the OS
threads alive after the call (``/proc/self/task``), the CPUs the
process may run on, the number of modules in ``sys.modules`` and whether
``numpy.random`` and ``numpy.polynomial`` are among them. Runs alternate
which side goes first. Each run works in a fresh directory of the same path
length on both sides; give checkouts whose paths have equal length too, since
the path alone can move peak memory by a few tenths of a MB. The ``results``
block of every report (the row file for ``expand``), with the ``--plot-csv``
file of a command that writes one, must be the same across all runs of both
sides. The BENCH file also records each side's ``src_lines``, the lines of its
``src/qunimodal/*.py``.

``--bench-pairs N`` then runs ``python3 bench/run.py --workload W --seed 23
--seconds S`` in each checkout, N alternating parent/change pairs per
workload, and summarises each end-to-end metric: medians, the parent's
interquartile range and the pairs the change wins.

Uses the standard library only and does not import qunimodal.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

COMMANDS = {
    "expand": ["expand", "--family", "main", "--n", "167", "--out", "rows.txt"],
    "expand_general": ["expand", "--family", "general", "--factors", "+1,+2,-3,+4,-5,-6,+7", "--out", "rows.txt"],
    "expand_almkvist": ["expand", "--family", "almkvist", "--r", "3", "--n", "40", "--out", "rows.txt"],
    "expand_odd": ["expand", "--family", "odd", "--n", "60", "--out", "rows.txt"],
    "verify": ["verify", "--n-max", "167", "--report", "r.json"],
    "lemma": ["lemma", "--n-max", "167", "--report", "r.json"],
    "induction": ["induction", "--n-max", "167", "--report", "r.json"],
    "induction_300": ["induction", "--n-max", "300", "--report", "r.json"],
    "borwein": ["borwein", "--n-max", "60", "--report", "r.json"],
    "verify_300": ["verify", "--n-max", "300", "--report", "r.json"],
    "borwein_120": ["borwein", "--n-max", "120", "--report", "r.json"],
    "almkvist": ["almkvist", "--r", "3", "--n-min", "11", "--n-max", "40", "--report", "r.json"],
    "certify": ["certify", "--n", "168,300,1000,5000", "--gamma-tail", "--report", "r.json"],
    "sweep_f": ["sweep-f", "--report", "r.json"],
    "trig": ["trig", "--seed", "20260822", "--report", "r.json"],
    "integral": ["integral", "--n", "8", "--report", "r.json"],
    "sign_accord": ["integral", "--sign-accord", "--report", "r.json"],
    "lobe_ratio": ["certify", "--n", "168", "--i2-n", "168", "--i2-mu", "301,711", "--report", "r.json"],
    "lobe_ratio_1_1011": ["certify", "--n", "168", "--i2-n", "168", "--i2-mu", "1,1011", "--report", "r.json"],
    "lobe_ratio_300_7": ["certify", "--n", "168", "--i2-n", "300", "--i2-mu", "7", "--report", "r.json"],
    "certify_probe": ["certify", "--n", "168,300", "--gamma-tail", "--i2-n", "168", "--i2-mu", "0,2,1011,2000",
                      "--report", "r.json"],
    "certify_csv": ["certify", "--n", "300", "--plot-csv", "p.csv", "--report", "r.json"],
    "sweep_f_csv": ["sweep-f", "--n-max", "400", "--plot-csv", "f.csv", "--report", "r.json"],
    "verify_odd": ["verify", "--family", "odd", "--n-max", "60", "--report", "r.json"],
    "verify_almkvist": ["verify", "--family", "almkvist", "--r", "3", "--n-max", "40", "--report", "r.json"],
    "verify_general": ["verify", "--family", "general", "--factors", "+1,+2,+4,+5,+7,+8,-3,+9", "--report", "r.json"],
    "almkvist_r130": ["verify", "--family", "almkvist", "--r", "130", "--n-max", "4", "--report", "r.json"],
    "trig_7_3000": ["trig", "--seed", "7", "--samples", "3000", "--report", "r.json"],
    "trig_35_200": ["trig", "--seed", "35", "--samples", "200", "--report", "r.json"],
    "trig_1039885960": ["trig", "--seed", "1039885960", "--report", "r.json"],
}

WORKLOADS = ("rows_sweeps", "lobe_ratio")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")

CHILD = """
import json, os, resource, sys, threading, time
sys.path.insert(0, sys.argv[1])
from qunimodal import cli
argv = json.loads(sys.argv[2])
start = time.perf_counter()
try:
    code = cli.main(argv)
except SystemExit as exc:
    code = exc.code
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
try:
    threads = len(os.listdir("/proc/self/task"))
except OSError:
    threads = threading.active_count()
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                  "ru_minflt": usage.ru_minflt, "threads": threads, "cpus": cpus, "modules": len(sys.modules),
                  "numpy_random": "numpy.random" in sys.modules,
                  "numpy_polynomial": "numpy.polynomial" in sys.modules}))
"""


def _env() -> dict[str, str]:
    drop = ("QUNIMODAL_CACHE_DIR", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _output_digest(argv: list[str], cwd: str) -> str:
    """Digest of the report's ``results`` block (the row file for ``expand``), then of any ``--plot-csv`` file."""
    if "--out" in argv:
        with open(os.path.join(cwd, argv[argv.index("--out") + 1]), "rb") as fh:
            data = fh.read()
    else:
        with open(os.path.join(cwd, argv[argv.index("--report") + 1]), encoding="utf-8") as fh:
            data = json.dumps(json.load(fh)["results"], sort_keys=True).encode()
    digest = hashlib.sha256(data)
    if "--plot-csv" in argv:
        with open(os.path.join(cwd, argv[argv.index("--plot-csv") + 1]), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _src_lines(root: str) -> int:
    """Lines of ``root``'s ``src/qunimodal/*.py``, as ``cat src/qunimodal/*.py | wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "qunimodal", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_command(root: str, argv: list[str], workdir: str, cold: bool = False) -> dict:
    """One fresh process of ``root``'s sources running ``argv`` in ``workdir``.

    Bytecode is cached in ``pycache`` beside ``workdir``. ``cold`` first
    compiles into that empty cache only what importing ``qunimodal.cli``
    loads, in a process of its own.
    """
    os.makedirs(workdir)
    env = {**_env(), "PYTHONPYCACHEPREFIX": os.path.join(os.path.dirname(workdir), "pycache")}
    if cold:
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import qunimodal.cli",
                        os.path.join(root, "src")], cwd=workdir, env=env, check=True)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(root, "src"), json.dumps(argv)],
        cwd=workdir, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["digest"] = _output_digest(argv, workdir)
    shutil.rmtree(workdir)
    return result


def _summary(runs: list[dict], cold: dict) -> dict:
    out: dict = {"exit_codes": sorted({r["exit"] for r in runs + [cold]}),
                 "threads": sorted({r["threads"] for r in runs}), "cpus": sorted({r["cpus"] for r in runs}),
                 **{key: sorted({r[key] for r in runs + [cold]})
                    for key in ("modules", "numpy_random", "numpy_polynomial")},
                 "cold_wall_s": round(cold["wall_s"], 4), "cold_peak_rss_mb": round(cold["peak_rss_mb"], 2)}
    for key, digits in (("wall_s", 4), ("peak_rss_mb", 2), ("ru_minflt", 0)):
        values = [round(r[key], digits) for r in runs]
        out[f"{key}_median"] = round(statistics.median(values), digits)
        out[f"{key}_runs"] = values
    return out


def bench_commands(sides: dict[str, str], runs: int, names: list[str], base: str) -> dict:
    # One cold run per command and side, each beside its own fresh bytecode cache.
    cold: dict = {}
    for i, name in enumerate(names):
        for side in list(sides) if i % 2 == 0 else list(sides)[::-1]:
            workdir = os.path.join(base, side[0], f"cold-{name}", "run")
            cold[name, side] = run_command(sides[side], COMMANDS[name], workdir, cold=True)
            shutil.rmtree(os.path.dirname(workdir))
            print(f"{name} {side} cold: {cold[name, side]['peak_rss_mb']:.2f} MB", file=sys.stderr)
    # One untimed command per side next, so every timed run loads bytecode
    # (argparse imports locale lazily: the first process would compile it).
    for side in sides:
        run_command(sides[side], COMMANDS["sweep_f"], os.path.join(base, side[0], "warmup"))
    results: dict = {name: {side: [] for side in sides} for name in names}
    for i in range(runs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in names:
            for side in order:
                workdir = os.path.join(base, side[0], f"{i:03d}-{name}")
                results[name][side].append(run_command(sides[side], COMMANDS[name], workdir))
                print(f"{name} {side} run {i}: {results[name][side][-1]['wall_s']:.4f} s", file=sys.stderr)
    commands = {}
    for name in names:
        digests = {r["digest"] for side in sides for r in results[name][side] + [cold[name, side]]}
        commands[name] = {"argv": COMMANDS[name],
                          **{side: _summary(results[name][side], cold[name, side]) for side in sides},
                          "outputs_identical": len(digests) == 1}
    return commands


def _quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def bench_pairs(sides: dict[str, str], pairs: int, seconds: float, seed: int) -> dict:
    out: dict = {"method": f"python3 bench/run.py --workload W --seed {seed} --seconds {seconds:g}, "
                           f"alternating parent/change pairs (`first` names the side that ran first)"}
    for workload in WORKLOADS:
        rows = []
        for i in range(pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            pair: dict = {"first": order[0]}
            for side in order:
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds)],
                    cwd=sides[side], env=_env(),
                    capture_output=True, text=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                pair[side] = {**{m: round(result["metrics"][m]["value"], 4) for m in METRICS},
                              **{k: result[k] for k in ("correct", "failed", "attempted")}}
                print(f"{workload} pair {i} {side}: {pair[side]}", file=sys.stderr)
            rows.append(pair)
        summary = {}
        for metric in METRICS:
            parent = [p["parent"][metric] for p in rows]
            change = [p["change"][metric] for p in rows]
            summary[metric] = {
                "parent_median": round(statistics.median(parent), 4),
                "change_median": round(statistics.median(change), 4),
                "parent_iqr": round(_quartile_spread(parent), 4) if len(parent) > 1 else None,
                "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(rows),
            }
        out[workload] = {"pairs": rows, "summary": summary}
    return out


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=3, help="runs per command and side")
    parser.add_argument("--commands", default=",".join(COMMANDS), help="comma-separated names")
    parser.add_argument("--bench-pairs", type=int, default=0, help="bench/run.py pairs per workload")
    parser.add_argument("--bench-seconds", type=float, default=40.0)
    parser.add_argument("--bench-seed", type=int, default=23)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    names = args.commands.split(",")
    unknown = [name for name in names if name not in COMMANDS]
    if unknown or args.runs < 1 or args.bench_pairs < 0:
        parser.error(f"unknown commands {unknown}" if unknown else "--runs must be >= 1, --bench-pairs >= 0")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(sides["parent"]) != len(sides["change"]):
        print("bench_commands: the two checkout paths differ in length", file=sys.stderr)

    base = tempfile.mkdtemp(prefix="bench-commands-")
    try:
        commands = bench_commands(sides, args.runs, names, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    report = {
        "label": args.label,
        "machine": {"cpu": _cpu(), "nproc": os.cpu_count(), "os": platform.platform(),
                    "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "src_lines": {side: _src_lines(root) for side, root in sides.items()},
        "method": (
            "each command is one fresh python3 process with the side's src first on sys.path and "
            "OPENBLAS/OMP/MKL_NUM_THREADS=1, run from a working directory of the same path length on "
            "each side; first one cold run per command and side with its own fresh PYTHONPYCACHEPREFIX "
            "that one import-only process filled with what importing qunimodal.cli loads "
            "(cold_wall_s, cold_peak_rss_mb: every module the command imports later compiles from "
            "source in it, as in the first round of bench/run.py), then "
            "one untimed command per side that fills its bytecode cache for the warm runs; "
            "wall_s times qunimodal.cli.main(argv) alone, peak_rss_mb is "
            "resource.getrusage(RUSAGE_SELF).ru_maxrss / 1024 and ru_minflt its minor page faults, "
            "threads the OS threads alive (/proc/self/task), cpus those the process may run on, "
            "modules the count of sys.modules and numpy_random/numpy_polynomial whether those are in it, "
            f"read after the call; {args.runs} runs per side, the sides alternating which runs first; "
            "medians with all warm runs listed. outputs_identical compares each run's report `results` "
            "block (the row file for expand) and its --plot-csv file, if any, across all runs of both "
            "sides, the cold ones too; src_lines counts the lines of each side's src/qunimodal/*.py"
        ),
        "commands": commands,
    }
    if args.bench_pairs:
        report["benchmark"] = bench_pairs(sides, args.bench_pairs, args.bench_seconds, args.bench_seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if all(c["outputs_identical"] for c in commands.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
