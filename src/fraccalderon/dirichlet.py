"""Exterior-value Dirichlet problem for the fractional Schrodinger operator.

The interior block of the operator matrix plus diag(q), A = A_II + diag(q),
governs solvability: its spectrum is the discrete Dirichlet spectrum, and
solves are refused when zero is an eigenvalue within tolerance (the forward
problem would not be uniquely solvable).  A system is one factorization of
A, built once at assembly in the buffer A was gathered into; no copy of A
is kept.  A is symmetric, and positive definite whenever q > -lambda_1, so
it is factored by Cholesky (half the flops of an LU); only where Cholesky
finds A indefinite, as a potential below -lambda_1 may make it, is A
gathered again and factored by LU.  The verdict comes from the same
factors: LAPACK's 1-norm reciprocal-condition estimate rcond must exceed
``CONDITION_TOL``.  For the symmetric A, rcond agrees with the eigenvalue
ratio min|lambda|/max|lambda| to within a factor n_int, so solving needs no
eigendecomposition.  The full spectrum (``dirichlet_spectrum``, cached on
the system) is computed only by its users, the ``spectrum`` pipeline and the
eigen-expansion of ``diffusion``; the default targets of constructive
reconstruction take only the lowest eigenvectors (``lowest_eigenvectors``,
a partial eigh, not cached, from the operator and potential alone).  Both
gather A anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

from .errors import ConfigError, DomainError, SingularSystemError
from .fracop import FracOperator
from .grid import Grid, GridFunction

CONDITION_TOL = 1e-8


@dataclass
class Potential:
    grid: Grid
    values: np.ndarray          # over INTERIOR nodes

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.grid.interior),):
            raise ValueError("potential must be defined on the interior nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential values must be finite")


def potential_from_spec(grid: Grid, spec) -> Potential:
    """A constant, one gaussian bump, or explicit node values.

    Specs: {"type": "constant", "value": v},
           {"type": "gaussian", "amplitude": a, "center": c, "width": w}
            (center defaults to the origin; the config schema requires
            w > 0),
           {"type": "nodes", "values": [...]} (one value per interior node;
            another count raises ``ConfigError``);
    a bare number is a constant.  Non-finite values raise ``ConfigError``.
    """
    x = grid.coords[grid.interior]
    if isinstance(spec, (int, float)):
        spec = {"type": "constant", "value": float(spec)}
    kind = spec["type"]
    if kind == "constant":
        values = np.full(len(x), float(spec["value"]))
    elif kind == "gaussian":
        c = np.atleast_1d(np.asarray(spec.get("center", 0.0), dtype=float))
        w = float(spec["width"])
        r2 = np.sum((x - c[None, :]) ** 2, axis=1)
        values = float(spec["amplitude"]) * np.exp(-r2 / (2.0 * w * w))
    elif kind == "nodes":
        values = np.asarray(spec["values"], dtype=float)
        if values.shape != (len(x),):
            raise ConfigError(f"a nodes potential needs {len(x)} values, one per "
                              f"interior node; got {values.size}")
    else:
        raise DomainError(f"unknown potential family {kind!r}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"the {kind} potential has non-finite values")
    return Potential(grid, values)


@dataclass
class Spectrum:
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # orthonormal columns over interior nodes


@dataclass
class DirichletSystem:
    """The Dirichlet problem of one potential, held as one factorization of
    A = A_II + diag(q): Cholesky where A is positive definite, LU otherwise;
    build it with ``assemble_system``."""
    op: FracOperator
    potential: Potential
    factorization: str                      # "cholesky" or "lu"
    factors: tuple = field(repr=False)      # (c,) from potrf(lower) or (lu, piv) from getrf
    rcond: float                            # pocon's or gecon's 1-norm rcond estimate of A
    anorm: float                            # ||A||_1
    _spectrum: Spectrum = field(default=None, repr=False)

    @property
    def grid(self) -> Grid:
        return self.op.grid

    @property
    def interior_matrix(self) -> np.ndarray:
        """A = A_II + diag(q), gathered anew from the operator on each access
        (n_int^2 doubles); the system keeps only its factors.  Bind it once."""
        return _interior_matrix(self.op, self.potential)

    def lu(self):
        """The factors of A that every solve uses, whichever the system holds
        (see ``factorization``), the same tuple on every call; raises
        ``SingularSystemError`` when ``ensure_solvable`` does."""
        ensure_solvable(self)
        return self.factors


def _interior_matrix(op: FracOperator, potential: Potential) -> np.ndarray:
    A = op.block(op.grid.interior, op.grid.interior)
    A[np.diag_indices_from(A)] += potential.values
    return A


def assemble_system(op: FracOperator, potential: Potential) -> DirichletSystem:
    """Gather A = A_II + diag(q), read ||A||_1, and factor A in its own buffer:
    by Cholesky, or by LU where Cholesky finds A not positive definite."""
    if potential.grid is not op.grid:
        raise DomainError("potential and operator live on different grids")
    A = _interior_matrix(op, potential)
    # the operator is exactly symmetric, so A.T is A in Fortran order: dlange
    # reads ||A||_1 without an |A| temporary, and potrf overwrites its lower
    # triangle without a copy
    anorm = float(lapack.dlange("1", A.T))
    c, info = lapack.dpotrf(A.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        rcond = float(lapack.dpocon(c, anorm, uplo="L")[0])
        return DirichletSystem(op=op, potential=potential, factorization="cholesky",
                               factors=(c,), rcond=rcond, anorm=anorm)
    # A is indefinite (or singular): potrf stopped part way through the
    # buffer, so A is gathered again.  LAPACK getrf as in linalg.lu_factor,
    # minus its LinAlgWarning on an exactly zero pivot: that pivot reads
    # rcond = 0, and the gate reports it
    del A, c
    A = _interior_matrix(op, potential)
    lu, piv, _ = lapack.dgetrf(A.T, overwrite_a=True)
    rcond = float(lapack.dgecon(lu, anorm, norm="1")[0])
    return DirichletSystem(op=op, potential=potential, factorization="lu",
                           factors=(lu, piv), rcond=rcond, anorm=anorm)


def system_facts(sys: DirichletSystem) -> dict:
    """How the system was factored and how well conditioned it is, for a
    run's record: ``factorization``, ``rcond`` and the scale ``anorm`` =
    ||A||_1 it was estimated against."""
    return {"factorization": sys.factorization, "rcond": sys.rcond, "anorm": sys.anorm}


def _solve(sys: DirichletSystem, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """A^-1 b for an n_int vector or n_int x m array b, through the system's
    factors: potrs on a Cholesky factor, getrs on an LU.  With
    ``overwrite_b`` a Fortran-ordered float b is solved in place and
    returned."""
    factors = sys.lu()
    if sys.factorization == "cholesky":
        return lapack.dpotrs(*factors, b, lower=1, overwrite_b=overwrite_b)[0]
    return lapack.dgetrs(*factors, b, overwrite_b=overwrite_b)[0]


def dirichlet_spectrum(sys: DirichletSystem) -> Spectrum:
    """Full symmetric eigendecomposition of the interior matrix; cached.

    Solves never need it (see ``check_condition``)."""
    if sys._spectrum is None:
        w, v = linalg.eigh(sys.interior_matrix)
        sys._spectrum = Spectrum(eigenvalues=w, eigenvectors=v)
    return sys._spectrum


def lowest_eigenvectors(op: FracOperator, potential: Potential, k: int) -> np.ndarray:
    """The k lowest orthonormal eigenvectors of A = A_II + diag(q), as
    columns; nothing is cached and no system is needed.  A partial eigh
    (dsyevr over an index range) in the freshly gathered matrix itself: A
    is exactly symmetric, so A.T is A in Fortran order and is overwritten
    without a copy."""
    return linalg.eigh(_interior_matrix(op, potential).T, subset_by_index=[0, k - 1],
                       overwrite_a=True)[1]


def check_condition(sys: DirichletSystem) -> tuple[float, float]:
    """Is zero eigenvalue-free within tolerance?  Read from the system's factors.

    Returns the solvability gate as (value, threshold) = (-rcond,
    -``CONDITION_TOL``): A is solvable iff value < threshold, that is iff
    rcond > ``CONDITION_TOL``, with rcond LAPACK's estimate (dpocon on a
    Cholesky factor, dgecon on an LU) of the 1-norm reciprocal condition
    number 1 / (||A||_1 ||A^-1||_1) of A = A_II + diag(q).  For symmetric A
    the exact 1-norm quantity lies between 1/n_int and 1 times the
    eigenvalue ratio min|lambda|/max|lambda| (the 2-norm reciprocal
    condition number); the estimate can only read larger than the exact
    value.
    """
    return -sys.rcond, -CONDITION_TOL


def ensure_solvable(sys: DirichletSystem) -> None:
    """Raise ``SingularSystemError`` unless the factors' 1-norm rcond estimate
    exceeds ``CONDITION_TOL`` (``check_condition``)."""
    value, threshold = check_condition(sys)
    if not value < threshold:
        raise SingularSystemError(
            f"zero is a Dirichlet eigenvalue within tolerance "
            f"(rcond {sys.rcond:.3e}, needs > {CONDITION_TOL:g})")


def solve_poisson(sys: DirichletSystem, f: np.ndarray) -> GridFunction:
    """Solution with exterior-support values f, zero on FAR nodes.

    Interior rows satisfy (A_II + diag(q)) u_I = -A_IE f; exterior data is
    honored exactly.  Linear in f.
    """
    grid = sys.grid
    f = np.asarray(f, dtype=float)
    if f.shape != (len(grid.ext_support),):
        raise ValueError("f must be given on the exterior-support nodes")
    full = np.zeros(grid.n_nodes)
    full[grid.ext_support] = f
    full[grid.interior] = _solve(sys, -sys.op.apply(full, grid.interior))
    return GridFunction(grid, full)


def solve_window(sys: DirichletSystem, nodes: np.ndarray) -> np.ndarray:
    """Interior values of the solutions driven by the unit exterior vectors
    of the given exterior-support nodes, one column per node.

    The right-hand side -A_I,W is solved in the buffer it is gathered into.
    The operator is exactly symmetric, so the transpose of the gathered
    block A_W,I is A_I,W in Fortran order, bit for bit: it is negated in
    place and overwritten by the solve, with no negated copy and no
    Fortran copy for LAPACK."""
    rhs = sys.op.block(nodes, sys.grid.interior).T
    np.negative(rhs, out=rhs)
    return _solve(sys, rhs, overwrite_b=True)


def solve_source(sys: DirichletSystem, F: np.ndarray) -> GridFunction:
    """Solution of (A_II + diag(q)) u_I = F with zero exterior values."""
    grid = sys.grid
    F = np.asarray(F, dtype=float)
    if F.shape != (len(grid.interior),):
        raise ValueError("F must be given on the interior nodes")
    u_int = _solve(sys, F)
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = u_int
    return GridFunction(grid, full)
