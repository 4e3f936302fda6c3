"""Spans around the calls into each qunimodal layer, installed from outside.

A wrapper replaces a function under the name its caller looks it up:
``cli._main_chain`` finds ``recurrence_step`` in ``qunimodal.cli``,
``replay_induction`` finds it in ``qunimodal.checks``, and ``quad_I``
finds ``integrate_oscillatory`` in ``qunimodal.analytic``. Wrapping only
the defining module would record nothing. Spans nest through a stack,
so each span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

CHECKS = ("check_symmetric", "check_unimodal", "check_almost_unimodal",
          "check_lemma_range", "check_sign_pattern")

SWEEPS = {
    "i2_ratio_check": "lobe_ratio",
    "certify_E_bound": "envelope",
    "sweep_identity_residuals": "identity_sweep",
    "sweep_inequality_margins": "inequality_sweep",
    "f_sweep_certificates": "f_sweep",
    "reconstruction_sweep": "reconstruction",
    "sign_accord_sweep": "sign_accord",
}

COMMANDS = ("expand", "verify", "lemma", "induction", "borwein", "almkvist",
            "certify", "sweep_f", "trig", "integral", "sign_accord")

# Module -> names replaced there: each caller's own lookup table.
SITES = {
    "qunimodal.polynomials": ("mul_binomial", "divide_exact"),
    "qunimodal.checks": ("build_product", "recurrence_step", "check_symmetric", "check_lemma_range"),
    "qunimodal.analytic": ("integrate_oscillatory", "cosine_product", "build_product", "mul_binomial"),
    "qunimodal.cli": ("build_product", "recurrence_step", "mul_binomial", "replay_induction")
    + CHECKS + tuple(SWEEPS),
}

# Span name of each wrapped function: its layer and its own name.
LAYER = {
    "mul_binomial": "polynomials", "divide_exact": "polynomials",
    "build_product": "polynomials", "recurrence_step": "polynomials",
    "replay_induction": "checks", "integrate_oscillatory": "quadrature",
    **{name: "checks" for name in CHECKS},
    **{name: "analytic" for name in ("cosine_product", *SWEEPS)},
}


def _polynomial_arg(args):
    return next(a for a in args if hasattr(a, "coeffs"))


def _count_row(counts, args, result):
    counts["polynomials.rows"] += 1
    counts["polynomials.coeffs"] += len(result.coeffs)


def _count_check(counts, args, result):
    counts["checks.calls"] += 1
    counts["checks.coeffs_scanned"] += len(_polynomial_arg(args).coeffs)


def _count_quadrature(counts, args, result):
    counts["quadrature.calls"] += 1
    counts["quadrature.panels"] += result.panels


def _count_cosines(counts, args, result):
    n, theta = args[0], args[1]
    counts["analytic.cos_evals"] += getattr(theta, "size", 1) * 2 * (n + 1)


COUNTERS = {
    "build_product": _count_row,
    "recurrence_step": _count_row,
    "integrate_oscillatory": _count_quadrature,
    "cosine_product": _count_cosines,
    **{name: _count_check for name in CHECKS},
}


class Tracer:
    """In-memory spans and counts for one traced command."""

    def __init__(self) -> None:
        self._open: list[list[float]] = []  # child time of each open span
        self._saved: list[tuple] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered = 0.0  # time inside outermost spans

    def _wrap(self, name: str, fn):
        span = f"{LAYER[name]}.{name}"
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                self.inclusive[span] += elapsed
                self.exclusive[span] += elapsed - children[0]
                if self._open:
                    self._open[-1][0] += elapsed
                else:
                    self.covered += elapsed
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, names in SITES.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def sums(self) -> dict:
        """The spans' raw sums, to be merged over commands by ``merge``."""
        return {"inclusive": dict(self.inclusive), "exclusive": dict(self.exclusive),
                "counts": dict(self.counts), "covered": self.covered}


def merge(all_sums: list[dict]) -> dict:
    """Adds up the ``Tracer.sums`` of several traced commands."""
    merged = {"inclusive": defaultdict(float), "exclusive": defaultdict(float),
              "counts": defaultdict(int), "covered": 0.0}
    for sums in all_sums:
        for key in ("inclusive", "exclusive", "counts"):
            for name, value in sums[key].items():
                merged[key][name] += value
        merged["covered"] += sums["covered"]
    return merged


def layer_metrics(sums: dict, command_s: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round, minus ``trace.overhead_s``.

    ``sums`` is the ``merge`` of the round's commands; ``command_s`` maps
    each command label to its time in the round.
    """
    inc, exc, c = sums["inclusive"], sums["exclusive"], sums["counts"]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    row_s = inc["polynomials.build_product"] + inc["polynomials.recurrence_step"]
    quad_s = inc["quadrature.integrate_oscillatory"]
    cos_s = inc["analytic.cosine_product"]
    points = 12 * c["quadrature.panels"]
    metrics = {
        "polynomials.rows": c["polynomials.rows"],
        "polynomials.coeffs": c["polynomials.coeffs"],
        "polynomials.recurrence_step_s": inc["polynomials.recurrence_step"],
        "polynomials.mul_binomial_s": inc["polynomials.mul_binomial"],
        "polynomials.divide_exact_s": inc["polynomials.divide_exact"],
        "polynomials.coeffs_per_s": rate(c["polynomials.coeffs"], row_s),
        "checks.calls": c["checks.calls"],
        "checks.coeffs_scanned": c["checks.coeffs_scanned"],
        "checks.s": sum(inc[f"checks.{name}"] for name in CHECKS),
        "checks.replay_induction_self_s": exc["checks.replay_induction"],
        "quadrature.calls": c["quadrature.calls"],
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.points": points,
        "quadrature.self_s": exc["quadrature.integrate_oscillatory"],
        "quadrature.points_per_s": rate(points, quad_s),
        "analytic.cosine_product_s": cos_s,
        "analytic.cos_evals": c["analytic.cos_evals"],
        "analytic.cos_evals_per_s": rate(c["analytic.cos_evals"], cos_s),
    }
    for name, metric in SWEEPS.items():
        metrics[f"analytic.{metric}_s"] = inc[f"analytic.{name}"]
    for label in COMMANDS:
        metrics[f"cli.{label}_s"] = command_s.get(label, 0.0)
    metrics["cli.self_s"] = sum(command_s.values()) - sums["covered"]
    return metrics
