"""Exception types shared across the package.

Every exception carries a short machine-readable ``code`` that the CLI maps
to exit codes and gate reports.  Grid and window faults are faults of the
config that describes the grid, so their types derive from ``ConfigError``.
"""


class FracCalderonError(Exception):
    code = "ERROR"


class ConfigError(FracCalderonError):
    code = "CONFIG_INVALID"


class GeometryError(ConfigError):
    """Region containment requirements violated."""

    code = "GEOMETRY"


class EmptyRegionError(ConfigError):
    """A region or window captured zero lattice nodes."""

    code = "EMPTY_REGION"


class UnknownRegionError(ConfigError):
    code = "UNKNOWN_REGION"


class DomainError(FracCalderonError):
    """Parameter outside its admissible range (e.g. s not in (0,1))."""

    code = "DOMAIN"


class QuadratureError(FracCalderonError):
    """The 32- and 64-point Gauss-Legendre rules of a smooth cell integral
    disagree beyond tolerance."""

    code = "QUADRATURE_FAIL"


class SingularSystemError(FracCalderonError):
    """Zero is (numerically) a Dirichlet eigenvalue; solves are refused."""

    code = "SINGULAR"


class GridMismatchError(FracCalderonError):
    code = "GRID_MISMATCH"


class ReferenceMismatchError(FracCalderonError):
    """A reconstruction handed a reference system other than the operator
    and potential its measurements were taken against."""

    code = "REFERENCE_MISMATCH"


class LadderError(FracCalderonError):
    """Extension level ladder unsuitable for trace extrapolation."""

    code = "LADDER"


class ModeMismatchError(FracCalderonError):
    code = "MODE_MISMATCH"


class LinAlgFailError(FracCalderonError):
    """A LAPACK routine failed (``numpy.linalg.LinAlgError``), e.g. a Cholesky
    factorization of a matrix that is not positive definite."""

    code = "LINALG_FAIL"


class RungeFailError(FracCalderonError):
    """A Runge control residual exceeded the configured gate."""

    code = "RUNGE_FAIL"


class IllConditionedWarning(UserWarning):
    """Normal equations condition number beyond the trust threshold."""
