"""qunimodal benchmark: one workload per run, timed, then checked.

    python3 bench/run.py --workload rows_sweeps --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each run times set-up in fresh
probe processes, then runs whole rounds of the workload's commands for
about ``--seconds``, each command in a fresh worker process that calls
``qunimodal.cli.main`` as the console script does. After timing, the
outputs are checked against ``oracles``. The last stdout line is the
result as JSON. ``--trace 1`` adds one round with spans around every
layer and reports the per-layer metrics instead of the end-to-end ones.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import checks
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SCRATCH = os.path.join(BENCH, ".work")

SETUP_PROBES = 10  # before the timed rounds, and as many after them
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0


def _worker_env(outdir: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("QUNIMODAL_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env["TMPDIR"] = outdir
    # Bytecode lives in the run's own directory: the first probe compiles
    # it and every later process loads it, whatever the checkout holds.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(outdir, "pycache")
    return env


def _start(env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; returns it and its set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER], env=env, cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError(f"worker did not start (printed {line!r}, exit {proc.poll()})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _run_worker(env: dict[str, str], request: dict | None, deadline: float) -> tuple[float, dict | None]:
    """Set-up time and result of one fresh worker; ``None`` runs no command."""
    proc, setup = _start(env)
    try:
        out, _ = proc.communicate(json.dumps(request) + "\n" if request else "",
                                  timeout=max(deadline - perf_counter(), 1.0))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1]) if request else None


def measure(workload: str, seed: int, seconds: float, trace: bool, outdir: str):
    """Plan, set-up samples, timed rounds and traced round (or ``None``) of one run.

    Rounds repeat while at least half of another round of the median
    length fits in ``seconds``, so a run lasts about ``seconds`` (at least
    one round). Each round runs every command once; each
    command result holds its exit code and its time inside ``cli.main``.
    Output paths in the plan are relative to the checkout root, which is
    the worker's working directory, so that the reports (whose config
    block names them) have the same size in every checkout.
    """
    deadline = perf_counter() + RUN_LIMIT_S
    plan = workloads.plan(workload, seed, os.path.relpath(outdir, ROOT))
    env = _worker_env(outdir)
    setups = [_run_worker(env, None, deadline)[0] for _ in range(SETUP_PROBES)]
    rounds, round_s = [], []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        results = []
        for command in plan["commands"]:
            setup, result = _run_worker(env, {"argv": command["argv"], "trace": False}, deadline)
            setups.append(setup)
            results.append(result)
        rounds.append(results)
        round_s.append(perf_counter() - t0)
        if perf_counter() - started + statistics.median(round_s) / 2 > seconds:
            break
    setups += [_run_worker(env, None, deadline)[0] for _ in range(SETUP_PROBES)]
    traced = None
    if trace:
        results = [_run_worker(env, {"argv": command["argv"], "trace": True}, deadline)[1]
                   for command in plan["commands"]]
        traced = {"results": results,
                  "report_bytes": sum(os.path.getsize(c["output"]) for c in plan["commands"]
                                      if os.path.exists(c["output"]))}
    return plan, setups, rounds, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "qunimodal", "cli.py")):
        print(f"bench: no qunimodal sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    os.makedirs(SCRATCH, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        plan, setups, rounds, traced = measure(args.workload, args.seed, args.seconds,
                                               bool(args.trace), outdir)
        codes = [[r["code"] for r in results] for results in rounds + ([traced["results"]] if traced else [])]
        failed, problems = checks.check(plan, codes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    # Each command's fastest run over the rounds: the machine's load comes
    # in bursts, and a command's quickest run is the one they disturbed least.
    fastest = [min(results[i]["seconds"] for results in rounds) for i in range(len(plan["commands"]))]
    wall = sum(fastest)
    attempted = sum(len(round_codes) for round_codes in codes)
    first = rounds[0][0]
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"params={ {k: v for k, v in plan['params'].items() if k != 'envelope_thetas'} } "
          f"rounds={len(rounds)} "
          f"round_s={[round(sum(r['seconds'] for r in results), 3) for results in rounds]} "
          f"fastest_s={[round(t, 3) for t in fastest]} "
          f"python={first['python']} numpy={first['numpy']} blas_threads={BLAS_THREADS} "
          f"worker_threads={max(r['threads'] for results in rounds for r in results)}")
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        command_s = {c["label"]: r["seconds"] for c, r in zip(plan["commands"], traced["results"])}
        values = tracing.layer_metrics(tracing.merge([r["spans"] for r in traced["results"]]), command_s)
        values["cli.report_bytes"] = traced["report_bytes"]
        values["trace.overhead_s"] = sum(command_s.values()) - wall
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for results in rounds for r in results),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
