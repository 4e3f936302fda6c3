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

Each module's ``__all__`` is re-exported here; the ``qunimodal`` console
script in :mod:`qunimodal.cli` drives the same functions.
"""

from . import analytic, checks, errors, polynomials, quadrature
from .analytic import *  # noqa: F403
from .checks import *  # noqa: F403
from .errors import *  # noqa: F403
from .polynomials import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *polynomials.__all__,
    *checks.__all__,
    *quadrature.__all__,
    *analytic.__all__,
    "__version__",
]
