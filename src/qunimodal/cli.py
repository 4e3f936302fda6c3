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

The parsed command line is the configuration: ``main(argv)`` parses,
``validate`` checks and ``run`` executes one ``argparse.Namespace``, and
a report's ``metadata.config`` holds its values that are not None.
``validate`` rejects only an unset option a command needs, and a
negative trig --seed so that the message names the flag; any other
exit-2 message is the called function's own ValueError, raised before
any report, row file or CSV is written.

Exit codes: 0 every check passed; 1 a check failed or a certificate
margin was nonpositive; 2 invalid configuration, a request too large to
allocate, or an output path that cannot be written; 3 certification
inconclusive (a margin fell inside its error budget, or the quadrature
budget was exhausted).

Reports are JSON envelopes {"metadata": {...}, "results": [...]}. The
results block is byte-reproducible for identical configurations; the
timestamp lives only in the metadata block.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from datetime import datetime, timezone

from . import __version__
from .analytic import (
    ENVELOPE_INTERCEPT,
    ENVELOPE_SLOPE,
    BoundCertificate,
    certify_E_bound,
    envelope_exponent_grid,
    envelope_grid,
    f_sweep_certificates,
    f_value,
    gamma_tail_certificates,
    lobe_ratio_certificates,
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
from .polynomials import ProductSpec, checked_rows, dump_product

# Unused here, but bench/tracing.py wraps these names in this module; keep them bound.
from .analytic import i2_ratio_check  # noqa: F401
from .polynomials import build_product, mul_binomial, recurrence_step  # noqa: F401

__all__ = ["build_parser", "main", "run", "validate"]


def validate(config: argparse.Namespace) -> None:
    """Reject an unset option the command needs, which would reach the library as None.

    Every other bad value exits 2 with the called function's own
    ValueError, raised before any report, row file or CSV is written; a
    negative trig --seed is caught here only so that the message names the flag.
    """
    command = config.command
    if command in ("expand", "verify", "almkvist") and config.family == "almkvist" and config.r is None:
        raise ValueError("the quotient family needs --r")
    if command == "expand" and config.family != "general" and config.n is None:
        raise ValueError(f"expand --family {config.family} needs --n")
    if command in ("expand", "verify") and config.family == "general" and not config.factors:
        raise ValueError(f"{command} --family general needs --factors")
    if command == "trig" and config.seed < 0:
        raise ValueError("--seed must be >= 0")


def _parse_factors(text: str) -> tuple[tuple[int, int], ...]:
    factors = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        sign = 1
        body = token
        if token[0] in "+-":
            sign = 1 if token[0] == "+" else -1
            body = token[1:]
        if not body.isdigit() or int(body) < 1:
            raise argparse.ArgumentTypeError(f"bad factor token {token!r} (expected e.g. '+3' or '-5')")
        factors.append((sign, int(body)))
    if not factors:
        raise argparse.ArgumentTypeError("no factors given")
    return tuple(factors)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


@contextmanager
def _sink(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _product_spec(config: argparse.Namespace, n: int) -> ProductSpec:
    if config.family == "main":
        return ProductSpec.main(n)
    if config.family == "odd":
        return ProductSpec.odd(n)
    if config.family == "almkvist":
        return ProductSpec.almkvist(config.r, n)
    return ProductSpec.general(config.factors)


def _cmd_expand(config: argparse.Namespace):
    blocks = dump_product(_product_spec(config, config.n))
    with _sink(config.out) as fh:
        fh.writelines(blocks)


def _cmd_verify(config: argparse.Namespace):
    def check(n, p):
        sym = check_symmetric(p)
        uni = check_unimodal(p) if config.a is None else check_almost_unimodal(p, config.a)
        sym.n = uni.n = n
        return sym, uni

    pairs = checked_rows(_product_spec(config, config.n_max), check, config.n_min)
    return [report for pair in pairs for report in pair]


def _cmd_lemma(config: argparse.Namespace):
    return list(checked_rows(ProductSpec.main(config.n_max), check_lemma_range, max(config.n_min, 1)))


def _cmd_induction(config: argparse.Namespace):
    return [replay_induction(config.n_max)]


def _cmd_borwein(config: argparse.Namespace):
    def check(n, p):
        report = check_sign_pattern(p, "+--")
        report.n = n
        return report

    return list(checked_rows(ProductSpec.signed(config.n_max), check, config.n_min))


def _write_envelope_csv(n: int, grid_points: int, path: str) -> None:
    thetas = envelope_grid(n, grid_points)
    values, _ = envelope_exponent_grid(n, thetas)
    bound = -ENVELOPE_SLOPE * n - ENVELOPE_INTERCEPT
    with _sink(path) as fh:
        fh.write("theta,exponent,bound\n")
        for theta, value in zip(thetas, values):
            fh.write(f"{float(theta)!r},{float(value)!r},{bound!r}\n")


def _cmd_certify(config: argparse.Namespace):
    results = [certify_E_bound(n, config.grid_points) for n in config.n_list]
    lobes = lobe_ratio_certificates(config.i2_n, config.i2_mu)  # before the CSV: a bad --i2-* writes none
    if config.plot_csv:
        _write_envelope_csv(config.n_list[0], config.grid_points, config.plot_csv)
    if config.with_gamma_tail:
        results.extend(gamma_tail_certificates())
    return results + lobes


def _cmd_integral(config: argparse.Namespace):
    sweep = sign_accord_sweep if config.sign_accord else reconstruction_sweep
    return sweep() if config.n is None else sweep(config.n)


def _cmd_trig(config: argparse.Namespace):
    margins = sweep_inequality_margins(config.grid_points)  # first: a bad --grid-points fails fast
    return sweep_identity_residuals(config.samples, config.seed) + margins


def _cmd_sweep_f(config: argparse.Namespace):
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


def _write_report(config: argparse.Namespace, results) -> None:
    envelope = {
        "metadata": {
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config": {k: v for k, v in vars(config).items() if v is not None},
        },
        "results": [r.to_json_dict() for r in results],
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    with _sink(config.report) as fh:
        fh.write(text)


def run(config: argparse.Namespace) -> int:
    """Execute one parsed and validated command; returns the process exit code."""
    handler = _HANDLERS[config.command]
    try:
        results = handler(config)
        if results is not None:
            _write_report(config, results)
    except (GridTooCoarse, SingularPoint, NearSingular) as exc:
        print(f"qunimodal {config.command}: inconclusive: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qunimodal {config.command}: invalid request: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or sweep too large to hold
        print(f"qunimodal {config.command}: invalid request: cannot allocate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path (--out, --report, --plot-csv) that cannot be written
        print(f"qunimodal {config.command}: cannot write output: {exc}", file=sys.stderr)
        return 2
    if results is None:
        return 0
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
    expand.add_argument("--factors", type=_parse_factors, default=None, metavar="LIST",
                        help="comma separated signed exponents, e.g. '+1,+2,-5'")
    expand.add_argument("--out", default="-", metavar="PATH")

    verify = sub.add_parser("verify", help="symmetry and unimodality sweep")
    verify.add_argument("--family", default="main", choices=("main", "odd", "general", "almkvist"))
    verify.add_argument("--n-min", type=int, default=0)
    verify.add_argument("--n-max", type=int, default=167)
    verify.add_argument("--a", type=int, default=None,
                        help="trim count: use the almost-unimodal window check")
    verify.add_argument("--r", type=int, default=None)
    verify.add_argument("--factors", type=_parse_factors, default=None, metavar="LIST")
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
    almkvist.set_defaults(family="almkvist", a=None)
    with_report(almkvist)

    certify = sub.add_parser("certify", help="grid certificates for the envelope exponent")
    certify.add_argument("--n", dest="n_list", type=_parse_int_list, default="168,300,1000,5000", metavar="LIST",
                         help="comma separated n values (each >= 168)")
    certify.add_argument("--grid-points", type=int, default=20000)
    certify.add_argument("--gamma-tail", dest="with_gamma_tail", action="store_true",
                         help="also certify the incomplete gamma tail anchors")
    certify.add_argument("--i2-n", type=int, default=168)
    certify.add_argument("--i2-mu", type=_parse_int_list, default=(), metavar="LIST",
                         help="comma separated center offsets for the lobe ratio check")
    certify.add_argument("--plot-csv", default=None, metavar="PATH",
                         help="write theta,exponent,bound rows for the first n")
    with_report(certify)

    integral = sub.add_parser("integral", help="reconstruction or sign accord sweeps")
    integral.add_argument("--n", type=int, default=None, dest="n",
                          help="sweep rows 0..n (default 8, or 12 with --sign-accord)")
    integral.add_argument("--sign-accord", action="store_true",
                          help="compare quad_I signs with exact differences")
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
    config = build_parser().parse_args(argv)
    try:
        validate(config)
    except ValueError as exc:
        print(f"qunimodal: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
