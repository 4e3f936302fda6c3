"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for toolkit-specific failures."""


class DegreeMismatch(ToolkitError, ValueError):
    """A polynomial's degree does not match what the operation requires."""


class AlmkvistDivisionInexact(ToolkitError, ArithmeticError):
    """Long division left a remainder where an exact quotient was promised."""


class GridTooCoarse(ToolkitError):
    """The panel budget cannot resolve the integrand's oscillation."""


class SingularPoint(ToolkitError):
    """A denominator vanished exactly at an evaluation point."""


class NearSingular(ToolkitError):
    """An evaluation point sits too close to a singularity for the accuracy contract."""


class DomainViolation(ToolkitError, ValueError):
    """An argument lies outside the stated validity domain."""
