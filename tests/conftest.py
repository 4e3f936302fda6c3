import os
from pathlib import Path

# pyproject's pythonpath puts src on this process's path; a child process
# that runs `python -m qunimodal.cli` imports the same checkout through this.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(index: int, description: str, ok: bool) -> None:
    """Log one acceptance criterion outcome, then assert it.

    The line is recorded before the assert so failures still show up in
    the terminal summary.
    """
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] criterion {index:02d}: {description}")
    assert ok, f"acceptance criterion {index:02d} failed: {description}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
