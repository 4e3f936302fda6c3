"""Shows that the benchmark's output checks reject wrong outputs.

    python3 bench/selfcheck.py

Runs each workload once (one round, seed 0, no tracing) and confirms
that the program's outputs pass. Then it corrupts one output at a time,
reruns the checks, restores the file, and confirms every corruption is
caught. Exits 1 if the true outputs fail or a corruption goes unseen.
Takes about as long as one round of each workload, a little over a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import run


def _edit_results(change):
    def edit(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        change(doc["results"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return edit


def _bump_coefficient(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    m = len(lines) // 3
    index, value = lines[m].split(",")
    lines[m] = f"{index},{int(value) + 1}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _move_i1(results):
    lobe = results[1]
    lobe["detail"]["i1"] += 4 * lobe["error_budget"]


def _flip(index):
    def change(results):
        results[index]["passed"] = not results[index]["passed"]
    return change


def _drop_n5_failure(results):
    results[5]["passed"] = True
    results[5].pop("first_violation", None)


def _fail_row_7(results):
    results[7]["passed"] = False
    results[7]["first_violation"] = 100


# workload -> (what is wrong, command label whose output is corrupted, corruption)
MUTATIONS = {
    "rows_sweeps": [
        ("one coefficient of the row off by one", "expand", _bump_coefficient),
        ("a verify report's passed flipped", "verify", _edit_results(_flip(101))),
        ("the induction report's passed flipped", "induction", _edit_results(_flip(0))),
        ("sign accord report missing the n=5 failure", "sign_accord", _edit_results(_drop_n5_failure)),
        ("sign accord report failing row n=7", "sign_accord", _edit_results(_fail_row_7)),
        ("a trig certificate's passed flipped", "trig", _edit_results(_flip(0))),
        ("a reconstruction report's passed flipped", "integral", _edit_results(_flip(3))),
    ],
    "lobe_ratio": [
        ("i1 moved by four times its error budget", "certify", _edit_results(_move_i1)),
        ("the lobe ratio certificate's passed flipped", "certify", _edit_results(_flip(1))),
    ],
}


def main() -> int:
    ok = True
    os.chdir(run.ROOT)
    os.makedirs(run.SCRATCH, exist_ok=True)
    for workload, mutations in MUTATIONS.items():
        outdir = tempfile.mkdtemp(prefix=f"selfcheck-{workload}-", dir=run.SCRATCH)
        try:
            plan, _, rounds, _ = run.measure(workload, 0, 0.0, False, outdir)
            codes = [[r["code"] for r in results] for results in rounds]
            failed, problems = checks.check(plan, codes)
            if failed or problems:
                print(f"{workload}: true outputs rejected: failed={failed} {problems}")
                ok = False
                continue
            print(f"{workload}: true outputs pass")
            outputs = {c["label"]: c["output"] for c in plan["commands"]}
            for what, label, corrupt in mutations:
                path = outputs[label]
                backup = path + ".orig"
                shutil.copyfile(path, backup)
                corrupt(path)
                _, problems = checks.check(plan, codes)
                os.replace(backup, path)
                if problems:
                    print(f"  caught: {what}: {problems[0][:160]}")
                else:
                    print(f"  MISSED: {what}")
                    ok = False
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
