"""Checks of a workload's outputs against ``oracles``, run after timing.

Each check returns a list of problems; an empty list means every output
agrees with what was computed apart or with the property the paper
states. Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import sys

import oracles
import workloads

EPS = 2.0 ** -52


def _results(command: dict) -> list[dict]:
    with open(command["output"], encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _expect_rows(problems, label, results, kinds, ns):
    """Every report passes, in the order (n, kind) for n in ns, kind in kinds."""
    want = [(n, kind) for n in ns for kind in kinds]
    got = [(r.get("n"), r.get("kind")) for r in results]
    if got != want:
        problems.append(f"{label}: reports {got[:4]}... do not follow {want[:4]}...")
    failing = [(r.get("n"), r.get("kind")) for r in results if r.get("passed") is not True]
    if failing:
        problems.append(f"{label}: reports fail at {failing[:5]}")


def _expect_certificates(problems, label, certs, bound_ids):
    got = [c.get("bound_id") for c in certs]
    if got != list(bound_ids):
        problems.append(f"{label}: certificates {got}, expected {list(bound_ids)}")
    failing = [c.get("bound_id") for c in certs if c.get("passed") is not True]
    if failing:
        problems.append(f"{label}: certificates fail: {failing}")


def _read_rows(path: str) -> list[int]:
    row = []
    with open(path, encoding="utf-8") as fh:
        for m, line in enumerate(fh):
            index, _, value = line.partition(",")
            if int(index) != m:
                raise ValueError(f"line {m} holds index {index}")
            row.append(int(value))
    return row


def _check_exact_rows(plan: dict) -> list[str]:
    problems: list[str] = []
    cmd = {c["label"]: c for c in plan["commands"]}
    params = plan["params"]
    n_top = workloads.EXACT_N
    rows = oracles.main_rows(n_top, params["plateau_rows"])

    try:
        row = _read_rows(cmd["expand"]["output"])
    except (OSError, ValueError) as exc:
        problems.append(f"expand: unreadable row file: {exc}")
    else:
        if row != rows[n_top]:
            diff = next((m for m, (a, b) in enumerate(zip(row, rows[n_top])) if a != b), None)
            problems.append(f"expand: row differs from B_{n_top} built apart (first at m={diff}, "
                            f"lengths {len(row)} and {len(rows[n_top])})")
        if sum(row) != 2 ** (2 * n_top + 2):
            problems.append("expand: coefficient sum is not 2^336")
        if sum(row[0::2]) != sum(row[1::2]):
            problems.append("expand: value at q=-1 is not 0")

    verify = _results(cmd["verify"])
    _expect_rows(problems, "verify", verify, ("symmetric", "unimodal"), range(n_top + 1))
    for report in verify:
        if report.get("kind") != "unimodal":
            continue
        n = report["n"]
        plateau = (report.get("mode_lo"), report.get("mode_hi"))
        if None in plateau or sum(plateau) != oracles.main_degree(n):
            problems.append(f"verify: plateau {plateau} of n={n} is not centred on 3(n+1)^2/2")
        if n in rows and plateau != oracles.plateau(rows[n]):
            problems.append(f"verify: plateau {plateau} of n={n}, built apart {oracles.plateau(rows[n])}")

    _expect_rows(problems, "lemma", _results(cmd["lemma"]), ("lemma_range",), range(1, n_top + 1))
    _expect_rows(problems, "induction", _results(cmd["induction"]), ("induction",), [n_top])
    _expect_rows(problems, "borwein", _results(cmd["borwein"]), ("sign_pattern",),
                 range(workloads.BORWEIN_N_MAX + 1))

    almkvist = _results(cmd["almkvist"])
    _expect_rows(problems, "almkvist", almkvist, ("symmetric", "unimodal"),
                 range(workloads.ALMKVIST_N_MIN, workloads.ALMKVIST_N_MAX + 1))
    trinomials = oracles.trinomial_rows(workloads.ALMKVIST_N_MAX, params["almkvist_rows"])
    for report in almkvist:
        if report.get("kind") == "unimodal" and report.get("n") in trinomials:
            plateau = (report.get("mode_lo"), report.get("mode_hi"))
            want = oracles.plateau(trinomials[report["n"]])
            if plateau != want:
                problems.append(f"almkvist: plateau {plateau} of n={report['n']}, built apart {want}")
    return problems


def _check_lobe_ratio(plan: dict) -> list[str]:
    problems: list[str] = []
    n = workloads.LOBE_N
    mus = plan["params"]["mus"]
    certs = _results(plan["commands"][0])
    _expect_certificates(problems, "certify", certs, ["envelope_exponent"] + ["lobe_ratio"] * len(mus))
    row = oracles.main_rows(n, [n])[n]
    f_n = oracles.f_value(n)
    if not 0.849 <= f_n <= 0.851:
        problems.append(f"f(168) computed apart is {f_n}, outside [0.849, 0.851]")
    for mu, cert in zip(mus, certs[1:]):
        detail = cert.get("detail", {})
        if detail.get("mu") != mu or cert.get("n") != n:
            problems.append(f"lobe_ratio: certificate for mu={detail.get('mu')}, n={cert.get('n')}; "
                            f"expected mu={mu}, n={n}")
            continue
        i1, i2, budget = detail["i1"], detail["i2"], cert["error_budget"]
        exact = math.pi * oracles.theta_kernel_over_pi(row, mu)
        slack = budget + 8 * EPS * (abs(i1) + abs(i2) + abs(exact))
        if abs(i1 + i2 - exact) > slack:
            problems.append(f"lobe_ratio mu={mu}: i1+i2={i1 + i2!r} but pi*r={exact!r} "
                            f"(off by {abs(i1 + i2 - exact):.3e}, allowed {slack:.3e})")
        if not _close(detail["f_n"], f_n, 1e-13):
            problems.append(f"lobe_ratio mu={mu}: f_n={detail['f_n']!r}, computed apart {f_n!r}")
        margin = min(f_n * i1 - abs(i2), i1 - oracles.i1_floor(n, mu))
        if abs(cert["min_margin"] - margin) > 1e-12 * abs(i1):
            problems.append(f"lobe_ratio mu={mu}: min_margin={cert['min_margin']!r}, "
                            f"recomputed {margin!r}")
        if not margin > budget:
            problems.append(f"lobe_ratio mu={mu}: margin {margin!r} does not clear budget {budget!r}")
    return problems


def _check_small_sweeps(plan: dict, sign_failures: dict[int, int]) -> list[str]:
    problems: list[str] = []
    cmd = {c["label"]: c for c in plan["commands"]}
    params = plan["params"]

    certs = _results(cmd["certify"])
    ns = workloads.ENVELOPE_NS
    _expect_certificates(problems, "certify", certs,
                         ["envelope_exponent"] * len(ns) + ["gamma_tail_at_zero", "gamma_tail_at_cutoff"])
    if [c.get("n") for c in certs[:len(ns)]] != list(ns):
        problems.append(f"certify: envelope rows {[c.get('n') for c in certs[:len(ns)]]}")
    for n in ns:
        bound = oracles.envelope_bound(n)
        worst = max(oracles.log_abs_cosine_product(n, t) for t in params["envelope_thetas"][str(n)])
        if not worst < bound:
            problems.append(f"envelope n={n}: log|P| reaches {worst} above the bound {bound}")
    at_zero, at_cut = (c.get("detail", {}) for c in certs[len(ns):len(ns) + 2])
    if not _close(at_zero.get("value", 0.0), 0.5 * math.sqrt(math.pi), 1e-12):
        problems.append(f"gamma tail at 0 is {at_zero.get('value')}")
    x = oracles.gamma_tail_cutoff()
    want = oracles.upper_gamma_three_halves(x)
    if not (_close(at_cut.get("x", 0.0), x, 1e-14) and _close(at_cut.get("value", 0.0), want, 1e-9)):
        problems.append(f"gamma tail at x={at_cut.get('x')} is {at_cut.get('value')}, "
                        f"erfc form gives {want} at {x}")

    sweep_f = _results(cmd["sweep_f"])
    _expect_certificates(problems, "sweep-f", sweep_f,
                         ["f_168_window", "f_strictly_decreasing", "f_log_derivative_ceiling"])
    if len(sweep_f) == 3:
        f168 = sweep_f[0].get("detail", {}).get("f_168", 0.0)
        if not _close(f168, oracles.f_value(168), 1e-13):
            problems.append(f"sweep-f: f(168)={f168!r}, computed apart {oracles.f_value(168)!r}")
        top = sweep_f[2].get("detail", {}).get("max_log_derivative", 0.0)
        if not _close(top, oracles.f_log_derivative(168), 1e-12):
            problems.append(f"sweep-f: largest log derivative {top!r}, "
                            f"computed apart at n=168 {oracles.f_log_derivative(168)!r}")

    trig = _results(cmd["trig"])
    _expect_certificates(problems, "trig", trig, [
        "identity_residual_sin2_sum", "identity_residual_sin4_sum",
        "inequality_margin_sin_lb_24", "inequality_margin_cos_lb_25",
        "inequality_margin_sin_sandwich_26", "inequality_margin_cos_ub_27",
        "inequality_margin_ratio_27_1",
    ])
    seeds = {c.get("detail", {}).get("seed") for c in trig[:2]}
    if seeds != {params["trig_seed"]}:
        problems.append(f"trig: identity sweeps ran with seeds {seeds}, not {params['trig_seed']}")

    _expect_rows(problems, "integral", _results(cmd["integral"]), ("integral_reconstruction",),
                 range(workloads.RECONSTRUCTION_N + 1))

    accord = _results(cmd["sign_accord"])
    got = {r.get("n"): (r.get("passed"), r.get("first_violation")) for r in accord}
    want = {n: (n not in sign_failures, sign_failures.get(n)) for n in range(workloads.SIGN_ACCORD_N + 1)}
    if len(accord) != len(want) or got != want:
        diff = {n: (got.get(n), want[n]) for n in want if got.get(n) != want[n]}
        problems.append(f"sign accord: (passed, first_violation) by row differ from the exact scan: "
                        f"{diff or got}")
    return problems


def check(plan: dict, codes: list[list]) -> tuple[int, list[str]]:
    """Failed command runs among ``codes`` (one list per round), and output problems."""
    problems: list[str] = []
    expected = {c["label"]: 0 for c in plan["commands"]}
    sign_failures: dict[int, int] = {}
    if plan["workload"] == "rows_sweeps":
        # The sweep exits 1 exactly when some row fails the exact scan.
        sign_failures = oracles.sign_accord_scan(workloads.SIGN_ACCORD_N)
        expected["sign_accord"] = 1 if sign_failures else 0
    failed = 0
    for round_codes in codes:
        for command, code in zip(plan["commands"], round_codes):
            if code != expected[command["label"]]:
                failed += 1
                print(f"{command['label']}: exit code {code}, expected {expected[command['label']]}",
                      file=sys.stderr)
    try:
        if plan["workload"] == "lobe_ratio":
            problems += _check_lobe_ratio(plan)
        else:
            problems += _check_exact_rows(plan)
            problems += _check_small_sweeps(plan, sign_failures)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{plan['workload']}: output unreadable or malformed: {exc!r}")
    return failed, problems
