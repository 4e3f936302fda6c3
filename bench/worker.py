"""Runs one qunimodal command through ``qunimodal.cli.main`` in a fresh process.

Started by ``run.py`` once per command, as the console script would be.
It imports the package from ``src/``, prints ``ready`` (the end of
set-up), then reads one JSON line on stdin: ``{"argv": [...], "trace":
bool}``. It runs the command, timing ``cli.main`` alone, and prints the
result as one JSON line. With ``trace`` set, spans are installed around
the command (``tracing.py``) and their raw sums are part of the result.
An empty stdin ends the process after ``ready``: that times set-up alone.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qunimodal.cli  # noqa: E402


def _run_command(argv: list[str]):
    try:
        return qunimodal.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        return None


def _threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def run(request: dict) -> dict:
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        start = perf_counter()
        code = _run_command(request["argv"])
        seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "code": code,
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["spans"] = tracer.sums()
    return result


def main() -> None:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if line.strip():
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
