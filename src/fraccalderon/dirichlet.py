"""Exterior-value Dirichlet problem for the fractional Schrodinger operator.

The interior block of the operator matrix plus diag(q) governs solvability:
its spectrum is the discrete Dirichlet spectrum, and solves are refused when
zero is an eigenvalue within tolerance (the forward problem would not be
uniquely solvable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import DomainError, EigFailError, SingularSystemError
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

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def potential_from_spec(grid: Grid, spec) -> Potential:
    """Built-in parametric families plus explicit node values.

    Specs: {"type": "constant", "value": v},
           {"type": "gaussian", "amplitude": a, "center": c, "width": w},
           {"type": "two_bump", "bumps": [gaussian-like dicts]},
           {"type": "nodes", "values": [...]} (one value per interior node).
    """
    x = grid.coords[grid.interior]
    if isinstance(spec, (int, float)):
        spec = {"type": "constant", "value": float(spec)}
    kind = spec["type"]
    if kind == "constant":
        return Potential(grid, np.full(len(x), float(spec["value"])))
    if kind == "gaussian":
        c = np.atleast_1d(np.asarray(spec.get("center", 0.0), dtype=float))
        w = float(spec["width"])
        r2 = np.sum((x - c[None, :]) ** 2, axis=1)
        return Potential(grid, float(spec["amplitude"]) * np.exp(-r2 / (2.0 * w * w)))
    if kind == "two_bump":
        vals = np.zeros(len(x))
        for bump in spec["bumps"]:
            c = np.atleast_1d(np.asarray(bump.get("center", 0.0), dtype=float))
            w = float(bump["width"])
            r2 = np.sum((x - c[None, :]) ** 2, axis=1)
            vals += float(bump["amplitude"]) * np.exp(-r2 / (2.0 * w * w))
        return Potential(grid, vals)
    if kind == "nodes":
        return Potential(grid, np.asarray(spec["values"], dtype=float))
    if kind == "csv":
        return potential_from_csv(grid, spec["path"])
    raise DomainError(f"unknown potential family {kind!r}")


def potential_from_csv(grid: Grid, path: str) -> Potential:
    """Read interior node values from CSV rows of ``index,value``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values = np.zeros(len(grid.interior))
    values[data[:, 0].astype(int)] = data[:, 1]
    return Potential(grid, values)


@dataclass
class Spectrum:
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # orthonormal columns over interior nodes


@dataclass
class DirichletSystem:
    op: FracOperator
    potential: Potential
    interior_matrix: np.ndarray          # A_II + diag(q)
    _lu: tuple = field(default=None, repr=False)
    _spectrum: Spectrum = field(default=None, repr=False)

    @property
    def grid(self) -> Grid:
        return self.op.grid

    def lu(self):
        if self._lu is None:
            ensure_solvable(self)
            self._lu = linalg.lu_factor(self.interior_matrix)
        return self._lu


def assemble_system(op: FracOperator, potential: Potential) -> DirichletSystem:
    grid = op.grid
    if potential.grid is not grid:
        raise DomainError("potential and operator live on different grids")
    interior = op.block(grid.interior, grid.interior) + np.diag(potential.values)
    return DirichletSystem(op=op, potential=potential, interior_matrix=interior)


def dirichlet_spectrum(sys: DirichletSystem) -> Spectrum:
    """Full symmetric eigendecomposition of the interior matrix; cached."""
    if sys._spectrum is None:
        try:
            w, v = linalg.eigh(sys.interior_matrix)
        except linalg.LinAlgError as exc:  # pragma: no cover - solver failure
            raise EigFailError(str(exc)) from exc
        sys._spectrum = Spectrum(eigenvalues=w, eigenvectors=v)
    return sys._spectrum


def check_condition(sys: DirichletSystem, tol: float = CONDITION_TOL) -> dict:
    """Is zero eigenvalue-free within tolerance?  margin = min |lambda_j|."""
    w = dirichlet_spectrum(sys).eigenvalues
    margin = float(np.min(np.abs(w)))
    scale = float(np.max(np.abs(w)))
    return {"ok": margin > tol * scale, "margin": margin}


def ensure_solvable(sys: DirichletSystem, tol: float = CONDITION_TOL) -> None:
    chk = check_condition(sys, tol)
    if not chk["ok"]:
        raise SingularSystemError(
            f"zero is a Dirichlet eigenvalue within tolerance (margin {chk['margin']:.3e})")


def solve_poisson(sys: DirichletSystem, f: np.ndarray) -> GridFunction:
    """Solution with exterior-support values f, zero on FAR nodes.

    Interior rows satisfy (A_II + diag(q)) u_I = -A_IE f; exterior data is
    honored exactly.  Linear in f.
    """
    grid = sys.grid
    f = np.asarray(f, dtype=float)
    if f.shape != (len(grid.ext_support),):
        raise ValueError("f must be given on the exterior-support nodes")
    u_int = linalg.lu_solve(sys.lu(), -sys.op.block(grid.interior, grid.ext_support) @ f)
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = u_int
    full[grid.ext_support] = f
    return GridFunction(grid, full)


def solve_window(sys: DirichletSystem, nodes: np.ndarray) -> np.ndarray:
    """Interior values of the solutions driven by the unit exterior vectors
    of the given exterior-support nodes, one column per node."""
    return linalg.lu_solve(sys.lu(), -sys.op.block(sys.grid.interior, nodes))


def solve_source(sys: DirichletSystem, F: np.ndarray) -> GridFunction:
    """Solution of (A_II + diag(q)) u_I = F with zero exterior values."""
    grid = sys.grid
    F = np.asarray(F, dtype=float)
    if F.shape != (len(grid.interior),):
        raise ValueError("F must be given on the interior nodes")
    u_int = linalg.lu_solve(sys.lu(), F)
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = u_int
    return GridFunction(grid, full)
