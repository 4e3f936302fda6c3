"""Exact and certified-numeric tools for unimodality of binomial q-products.

The package studies coefficient sequences of products of the form
prod (1 +/- q^{e_k}), with the main family prod_{k=0..n} (1 + q^{3k+1})(1 + q^{3k+2}).
It provides three layers:

* exact integer polynomial arithmetic and structural checks
  (symmetry, unimodality, the central monotone window, sign patterns),
* an oscillatory-integral representation of coefficients and of their
  derivative kernel, with error-tracked quadrature,
* grid certificates for the analytic exponent bound and its supporting
  trigonometric inequalities, with explicit error budgets.

Everything user-facing is re-exported here; the ``qunimodal`` console
script in :mod:`qunimodal.cli` drives the same functions.
"""

from .errors import (
    AlmkvistDivisionInexact,
    DegreeMismatch,
    DomainViolation,
    GridTooCoarse,
    NearSingular,
    SingularPoint,
    ToolkitError,
)
from .polynomials import (
    Polynomial,
    ProductSpec,
    build_product,
    coeff,
    divide_exact,
    dump_lines,
    evaluate_at_minus_one,
    evaluate_at_one,
    main_degree,
    main_rows,
    mul_binomial,
    parse_dump,
    product_rows,
    recurrence_step,
)
from .checks import (
    CheckReport,
    check_almost_unimodal,
    check_lemma_range,
    check_sign_pattern,
    check_symmetric,
    check_unimodal,
    replay_induction,
)
from .quadrature import QuadratureResult, integrate_oscillatory
from .analytic import (
    BoundCertificate,
    MuInfo,
    certify_E_bound,
    coeff_by_integral,
    cosine_product,
    e_exponent,
    envelope_exponent_grid,
    f_log,
    f_log_derivative,
    f_sweep_certificates,
    f_value,
    gamma_tail,
    gamma_tail_certificates,
    i1_lower_bound,
    i2_ratio_check,
    integrand,
    mu_of,
    quad_I,
    reconstruction_sweep,
    sign_accord_sweep,
    sweep_identity_residuals,
    sweep_inequality_margins,
    trig_identity_residual,
    trig_inequality_margin,
)

__version__ = "0.1.0"

__all__ = [
    "AlmkvistDivisionInexact",
    "BoundCertificate",
    "CheckReport",
    "DegreeMismatch",
    "DomainViolation",
    "GridTooCoarse",
    "MuInfo",
    "NearSingular",
    "Polynomial",
    "ProductSpec",
    "QuadratureResult",
    "SingularPoint",
    "ToolkitError",
    "build_product",
    "certify_E_bound",
    "check_almost_unimodal",
    "check_lemma_range",
    "check_sign_pattern",
    "check_symmetric",
    "check_unimodal",
    "coeff",
    "coeff_by_integral",
    "cosine_product",
    "divide_exact",
    "dump_lines",
    "e_exponent",
    "envelope_exponent_grid",
    "evaluate_at_minus_one",
    "evaluate_at_one",
    "f_log",
    "f_log_derivative",
    "f_sweep_certificates",
    "f_value",
    "gamma_tail",
    "gamma_tail_certificates",
    "i1_lower_bound",
    "i2_ratio_check",
    "integrand",
    "integrate_oscillatory",
    "main_degree",
    "main_rows",
    "mu_of",
    "mul_binomial",
    "parse_dump",
    "product_rows",
    "quad_I",
    "reconstruction_sweep",
    "recurrence_step",
    "replay_induction",
    "sign_accord_sweep",
    "sweep_identity_residuals",
    "sweep_inequality_margins",
    "trig_identity_residual",
    "trig_inequality_margin",
    "__version__",
]
