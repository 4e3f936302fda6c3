"""Command line front end: each verified claim maps to one command.

Commands
  expand     write a coefficient dump for one product
  verify     symmetry and (almost) unimodality over a family sweep
  lemma      central window monotonicity for the main family
  induction  full replay of the unimodality induction
  borwein    cyclic sign pattern of the signed main family product
  almkvist   symmetry and unimodality of the quotient family
  certify    envelope exponent certificates, optional gamma tail and
             lobe ratio checks
  integral   coefficient reconstruction or derivative sign accord
  trig       identity residual and inequality margin sweeps
  sweep-f    comparison factor window, decrease, log derivative ceiling

Exit codes: 0 every check passed; 1 a check failed or a certificate
margin was nonpositive; 2 invalid configuration; 3 certification
inconclusive (a margin fell inside its error budget, or the quadrature
budget was exhausted).

Reports are JSON envelopes {"metadata": {...}, "results": [...]}. The
results block is byte-reproducible for identical configurations; the
timestamp lives only in the metadata block.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import (
    ENVELOPE_INTERCEPT,
    ENVELOPE_SLOPE,
    BoundCertificate,
    certify_E_bound,
    envelope_exponent_grid,
    f_sweep_certificates,
    f_value,
    gamma_tail_certificates,
    i2_ratio_check,
    reconstruction_sweep,
    sign_accord_sweep,
    sweep_identity_residuals,
    sweep_inequality_margins,
)
from .checks import (
    check_almost_unimodal,
    check_lemma_range,
    check_sign_pattern,
    check_symmetric,
    check_unimodal,
    replay_induction,
)
from .errors import GridTooCoarse, NearSingular, SingularPoint
from .polynomials import ProductSpec, build_product, dump_lines, main_rows, product_rows

# Unused here, but bench/tracing.py wraps these names in this module; keep them bound.
from .polynomials import mul_binomial, recurrence_step  # noqa: F401

__all__ = ["RunConfig", "build_parser", "main", "run"]


@dataclass
class RunConfig:
    command: str
    family: str = "main"
    n: int | None = None
    n_min: int = 0
    n_max: int = 167
    r: int | None = None
    a: int | None = None
    factors: tuple[tuple[int, int], ...] | None = None
    n_list: tuple[int, ...] = (168, 300, 1000, 5000)
    grid_points: int = 20000
    samples: int = 1000
    seed: int = 20260822
    i2_n: int = 168
    i2_mu: tuple[int, ...] = ()
    with_gamma_tail: bool = False
    sign_accord: bool = False
    max_panels: int = 1_000_000
    out: str = "-"
    report: str = "-"
    plot_csv: str | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        values = vars(args).copy()
        command = values.pop("command")
        if values.get("factors") is not None:
            values["factors"] = _parse_factors(values["factors"])
        if values.get("n_list") is not None:
            values["n_list"] = _parse_int_list(values["n_list"], "n")
        if values.get("i2_mu") is not None:
            values["i2_mu"] = _parse_int_list(values["i2_mu"], "i2-mu")
        known = {f.name for f in dataclasses.fields(cls)}
        config = cls(command=command, **{k: v for k, v in values.items() if k in known and v is not None})
        config.validate()
        return config

    def validate(self) -> None:
        if self.command in ("verify", "lemma", "borwein", "almkvist"):
            if self.n_min < 0 or self.n_min > self.n_max:
                raise ValueError(f"need 0 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if self.command == "almkvist" and self.family != "almkvist":
            raise ValueError("the almkvist command checks the quotient family only")
        wants_quotient = self.command in ("expand", "verify", "almkvist") and self.family == "almkvist"
        if wants_quotient and (self.r is None or self.r < 2):
            raise ValueError("the quotient family needs --r >= 2")
        if self.command == "expand":
            if self.family in ("main", "odd", "almkvist") and (self.n is None or self.n < 0):
                raise ValueError(f"expand --family {self.family} needs --n >= 0")
            if self.family == "almkvist" and self.n < 1:
                raise ValueError("the quotient family needs --n >= 1")
            if self.family == "general" and not self.factors:
                raise ValueError("expand --family general needs --factors")
        if self.command == "verify":
            if self.family not in ("main", "odd", "general", "almkvist"):
                raise ValueError(f"unknown verify family {self.family!r}")
            if self.family == "general" and not self.factors:
                raise ValueError("verify --family general needs --factors")
            if self.a is not None and self.a < 0:
                raise ValueError("--a must be >= 0")
        if self.command == "induction" and self.n_max < 0:
            raise ValueError("--n-max must be >= 0")
        if self.command == "integral" and self.n is not None and self.n < 0:
            raise ValueError("--n must be >= 0")
        if self.command == "certify":
            if not self.n_list:
                raise ValueError("certify needs at least one n")
            if min(self.n_list) < 168:
                raise ValueError("the envelope bound is claimed for n >= 168 only")
            if self.grid_points < 1000:
                raise ValueError("certification needs --grid-points >= 1000")
            if any(mu < 0 for mu in self.i2_mu):
                raise ValueError("--i2-mu entries must be >= 0")
            if self.i2_n < 1:
                raise ValueError("--i2-n must be >= 1")
        if self.command == "trig":
            if self.samples < 1:
                raise ValueError("--samples must be >= 1")
            if self.grid_points < 10:
                raise ValueError("--grid-points must be >= 10")
            if self.seed < 0:
                raise ValueError("--seed must be >= 0")
        if self.command == "sweep-f":
            if not 168 <= self.n_min < self.n_max:
                raise ValueError("sweep-f needs 168 <= n_min < n_max")
        if self.max_panels < 2:
            raise ValueError("--max-panels must be >= 2")

    def to_json_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        return out


def _parse_factors(text) -> tuple[tuple[int, int], ...]:
    if isinstance(text, tuple):
        return text
    factors = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        sign = 1
        body = token
        if token[0] in "+-":
            sign = 1 if token[0] == "+" else -1
            body = token[1:]
        if not body.isdigit() or int(body) < 1:
            raise ValueError(f"bad factor token {token!r} (expected e.g. '+3' or '-5')")
        factors.append((sign, int(body)))
    if not factors:
        raise ValueError("no factors given")
    return tuple(factors)


def _parse_int_list(text, label: str) -> tuple[int, ...]:
    if isinstance(text, tuple):
        return text
    try:
        values = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad --{label} list {text!r}") from exc
    if not values:
        raise ValueError(f"empty --{label} list")
    return values


@contextmanager
def _sink(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _product_spec(config: RunConfig) -> ProductSpec:
    if config.family == "main":
        return ProductSpec.main(config.n)
    if config.family == "general":
        return ProductSpec.general(config.factors)
    if config.family == "almkvist":
        return ProductSpec.almkvist(config.r, config.n)
    if config.family == "odd":
        return ProductSpec.general(tuple((1, 2 * k - 1) for k in range(1, config.n + 1)))
    raise ValueError(f"unknown family {config.family!r}")


def _cmd_expand(config: RunConfig):
    p = build_product(_product_spec(config))
    with _sink(config.out) as fh:
        for line in dump_lines(p):
            fh.write(line + "\n")
    return None


def _cmd_verify(config: RunConfig):
    reports = []

    def run_checks(n, p):
        sym = check_symmetric(p)
        sym.n = n
        uni = check_unimodal(p) if config.a is None else check_almost_unimodal(p, config.a)
        uni.n = n
        reports.extend((sym, uni))

    if config.family in ("main", "odd"):
        if config.family == "main":
            rows = main_rows(config.n_max)
        else:
            rows = product_rows([(1, 2 * k - 1)] if k else [] for k in range(config.n_max + 1))
        for n, p in enumerate(rows):
            if n >= config.n_min:
                run_checks(n, p)
    elif config.family == "almkvist":
        for n in range(max(config.n_min, 1), config.n_max + 1):
            run_checks(n, build_product(ProductSpec.almkvist(config.r, n)))
    else:
        run_checks(None, build_product(ProductSpec.general(config.factors)))
    return reports


def _cmd_lemma(config: RunConfig):
    reports = []
    start = max(config.n_min, 1)
    for n, p in enumerate(main_rows(config.n_max)):
        if n >= start:
            reports.append(check_lemma_range(n, p))
    return reports


def _cmd_induction(config: RunConfig):
    return [replay_induction(config.n_max)]


def _cmd_borwein(config: RunConfig):
    reports = []
    for n, p in enumerate(main_rows(config.n_max, sign=-1)):
        if n >= config.n_min:
            rep = check_sign_pattern(p, 3, "+--")
            rep.n = n
            reports.append(rep)
    return reports


def _write_envelope_csv(n: int, grid_points: int, path: str) -> None:
    lo = math.pi / (6 * n + 4)
    thetas = np.linspace(lo, math.pi / 2, grid_points)
    values, _ = envelope_exponent_grid(n, thetas)
    bound = -ENVELOPE_SLOPE * n - ENVELOPE_INTERCEPT
    with _sink(path) as fh:
        fh.write("theta,exponent,bound\n")
        for theta, value in zip(thetas, values):
            fh.write(f"{float(theta)!r},{float(value)!r},{bound!r}\n")


def _cmd_certify(config: RunConfig):
    results = [certify_E_bound(n, config.grid_points) for n in config.n_list]
    if config.plot_csv:
        _write_envelope_csv(config.n_list[0], config.grid_points, config.plot_csv)
    if config.with_gamma_tail:
        results.extend(gamma_tail_certificates())
    for mu in config.i2_mu:
        results.append(i2_ratio_check(config.i2_n, mu, config.max_panels))
    return results


def _cmd_integral(config: RunConfig):
    if config.sign_accord:
        n_max = config.n if config.n is not None else 12
        return sign_accord_sweep(n_max, config.max_panels)
    n_max = config.n if config.n is not None else 8
    return reconstruction_sweep(n_max, config.max_panels)


def _cmd_trig(config: RunConfig):
    certificates = sweep_identity_residuals(config.samples, config.seed)
    certificates.extend(sweep_inequality_margins(config.grid_points))
    return certificates


def _cmd_sweep_f(config: RunConfig):
    certificates = f_sweep_certificates(config.n_min, config.n_max)
    if config.plot_csv:
        with _sink(config.plot_csv) as fh:
            fh.write("n,f_value\n")
            for n in range(config.n_min, config.n_max + 1):
                fh.write(f"{n},{f_value(n)!r}\n")
    return certificates


_HANDLERS = {
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "lemma": _cmd_lemma,
    "induction": _cmd_induction,
    "borwein": _cmd_borwein,
    "almkvist": _cmd_verify,
    "certify": _cmd_certify,
    "integral": _cmd_integral,
    "trig": _cmd_trig,
    "sweep-f": _cmd_sweep_f,
}


def _exit_code(results) -> int:
    inconclusive = False
    for result in results:
        if result.passed:
            continue
        if isinstance(result, BoundCertificate) and result.min_margin > 0:
            inconclusive = True
        else:
            return 1
    return 3 if inconclusive else 0


def _write_report(config: RunConfig, results) -> None:
    envelope = {
        "metadata": {
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config": config.to_json_dict(),
        },
        "results": [r.to_json_dict() for r in results],
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    with _sink(config.report) as fh:
        fh.write(text)


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    handler = _HANDLERS[config.command]
    try:
        results = handler(config)
    except (GridTooCoarse, SingularPoint, NearSingular) as exc:
        print(f"qunimodal {config.command}: inconclusive: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qunimodal {config.command}: invalid request: {exc}", file=sys.stderr)
        return 2
    if results is None:
        return 0
    _write_report(config, results)
    good = sum(1 for r in results if r.passed)
    print(f"qunimodal {config.command}: {good}/{len(results)} checks passed", file=sys.stderr)
    return _exit_code(results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qunimodal",
        description="expand binomial q-products, verify unimodality, certify the analytic bounds",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_report(p):
        p.add_argument("--report", default="-", metavar="PATH",
                       help="JSON report destination, '-' for stdout (default)")

    expand = sub.add_parser("expand", help="write a coefficient dump as m,<value> lines")
    expand.add_argument("--family", default="main", choices=("main", "general", "almkvist", "odd"))
    expand.add_argument("--n", type=int, default=None)
    expand.add_argument("--r", type=int, default=None)
    expand.add_argument("--factors", default=None, metavar="LIST",
                        help="comma separated signed exponents, e.g. '+1,+2,-5'")
    expand.add_argument("--out", default="-", metavar="PATH")

    verify = sub.add_parser("verify", help="symmetry and unimodality sweep")
    verify.add_argument("--family", default="main", choices=("main", "odd", "general", "almkvist"))
    verify.add_argument("--n-min", type=int, default=0)
    verify.add_argument("--n-max", type=int, default=167)
    verify.add_argument("--a", type=int, default=None,
                        help="trim count: use the almost-unimodal window check")
    verify.add_argument("--r", type=int, default=None)
    verify.add_argument("--factors", default=None, metavar="LIST")
    with_report(verify)

    lemma = sub.add_parser("lemma", help="central window monotonicity sweep")
    lemma.add_argument("--n-min", type=int, default=1)
    lemma.add_argument("--n-max", type=int, default=167)
    with_report(lemma)

    induction = sub.add_parser("induction", help="replay the unimodality induction")
    induction.add_argument("--n-max", type=int, default=167)
    with_report(induction)

    borwein = sub.add_parser("borwein", help="sign pattern sweep of the signed main product")
    borwein.add_argument("--n-min", type=int, default=0)
    borwein.add_argument("--n-max", type=int, default=60)
    with_report(borwein)

    almkvist = sub.add_parser("almkvist", help="quotient family unimodality sweep")
    almkvist.add_argument("--r", type=int, required=True)
    almkvist.add_argument("--n-min", type=int, default=11)
    almkvist.add_argument("--n-max", type=int, default=40)
    almkvist.set_defaults(family="almkvist")
    with_report(almkvist)

    certify = sub.add_parser("certify", help="grid certificates for the envelope exponent")
    certify.add_argument("--n", dest="n_list", default="168,300,1000,5000", metavar="LIST",
                         help="comma separated n values (each >= 168)")
    certify.add_argument("--grid-points", type=int, default=20000)
    certify.add_argument("--gamma-tail", dest="with_gamma_tail", action="store_true",
                         help="also certify the incomplete gamma tail anchors")
    certify.add_argument("--i2-n", type=int, default=168)
    certify.add_argument("--i2-mu", default=None, metavar="LIST",
                         help="comma separated center offsets for the lobe ratio check")
    certify.add_argument("--max-panels", type=int, default=2_000_000)
    certify.add_argument("--plot-csv", default=None, metavar="PATH",
                         help="write theta,exponent,bound rows for the first n")
    with_report(certify)

    integral = sub.add_parser("integral", help="reconstruction or sign accord sweeps")
    integral.add_argument("--n", type=int, default=None, dest="n",
                          help="sweep rows 0..n (default 8, or 12 with --sign-accord)")
    integral.add_argument("--sign-accord", action="store_true",
                          help="compare quad_I signs with exact differences")
    integral.add_argument("--max-panels", type=int, default=1_000_000)
    with_report(integral)

    trig = sub.add_parser("trig", help="identity residuals and inequality margins")
    trig.add_argument("--samples", type=int, default=1000)
    trig.add_argument("--grid-points", type=int, default=10000)
    trig.add_argument("--seed", type=int, default=20260822)
    with_report(trig)

    sweep_f = sub.add_parser("sweep-f", help="comparison factor certificates")
    sweep_f.add_argument("--n-min", type=int, default=168)
    sweep_f.add_argument("--n-max", type=int, default=5000)
    sweep_f.add_argument("--plot-csv", default=None, metavar="PATH",
                         help="write n,f_value rows")
    with_report(sweep_f)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
    except ValueError as exc:
        print(f"qunimodal: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
