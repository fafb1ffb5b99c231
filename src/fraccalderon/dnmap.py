"""Dirichlet-to-Neumann map in three equivalent discrete forms.

All three read off the operator applied to the solution: the bilinear-form
matrix (window to window), the pointwise exterior restriction, and the
nonlocal-Neumann decomposition through the interior-truncated kernel sum.
With a symmetric operator matrix these coincide up to solver round-off, and
the difference-of-potentials pairing collapses to an interior quadrature
against (q1 - q2) exactly; the inverse solver consumes that identity.

Pairings of exterior data use the uniform quadrature weight h^dim.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ._kernels import matmul
from .dirichlet import DirichletSystem, solve_poisson, solve_window
from .errors import GridMismatchError
from .fracop import FracOperator
from .grid import Grid, GridFunction

__all__ = ["DNMap", "assemble_dn", "dn_pointwise", "ns_weight", "apply_ns",
           "dn_decomposition_check", "integral_identity", "export_dn_csv"]


def _potential_fingerprint(sys: DirichletSystem) -> str:
    payload = np.concatenate([[sys.op.s], sys.potential.values]).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class DNMap:
    source_nodes: np.ndarray       # node positions of the control window
    observation_nodes: np.ndarray
    matrix: np.ndarray             # (|W2| x |W1|)
    fingerprint: str


def assemble_dn(sys: DirichletSystem, W1, W2) -> DNMap:
    """Column k is the observation-window readout for the k-th source basis
    vector: (A u + E0(q u_I))|_{W2} with u the solution driven by e_k."""
    grid = sys.grid
    src, _ = grid.exterior_window(W1)
    obs, _ = grid.exterior_window(W2)
    U_int = solve_window(sys, src)                       # interior x |W1|
    op = sys.op
    # exterior rows of A u; the q-term E0(q u_I) vanishes on exterior rows
    readout = matmul(op.block(obs, grid.interior), U_int) + op.block(obs, src)
    return DNMap(source_nodes=src, observation_nodes=obs, matrix=readout,
                 fingerprint=_potential_fingerprint(sys))


def dn_pointwise(sys: DirichletSystem, f: np.ndarray) -> np.ndarray:
    """(A u_f) restricted to the exterior-support nodes."""
    grid = sys.grid
    u = solve_poisson(sys, f)
    es, interior = grid.ext_support, grid.interior
    return (matmul(sys.op.block(es, interior), u.values[interior])
            + matmul(sys.op.block(es, es), u.values[es]))


def ns_weight(op: FracOperator) -> np.ndarray:
    """Weight m(x) = c * (interior kernel quadrature) on exterior-support
    nodes, with the operator's own cell weights so the two-term formula for
    the nonlocal Neumann value is an exact rearrangement."""
    grid = op.grid
    return -op.block(grid.ext_support, grid.interior).sum(axis=1)


def apply_ns(op: FracOperator, u: GridFunction) -> np.ndarray:
    """Nonlocal Neumann value on exterior-support nodes:
    c * sum over interior cells of (u(x) - u(y)) |x-y|^(-dim-2s)."""
    grid = op.grid
    if u.grid is not grid:
        raise GridMismatchError("function and operator live on different grids")
    m = ns_weight(op)
    u_es = u.values[grid.ext_support]
    u_int = u.values[grid.interior]
    return m * u_es + matmul(op.block(grid.ext_support, grid.interior), u_int)


def dn_decomposition_check(sys: DirichletSystem, f: np.ndarray) -> float:
    """Max residual of: DN f = N_s u_f - m f + (A E0 f) on exterior support.

    Both sides are rearrangements of the same matrix action, so the residual
    is solver round-off.
    """
    grid = sys.grid
    op = sys.op
    lhs = dn_pointwise(sys, f)
    u_f = solve_poisson(sys, f)
    m = ns_weight(op)
    ns_val = apply_ns(op, u_f)
    ext_term = matmul(op.block(grid.ext_support, grid.ext_support), f)
    rhs = ns_val - m * np.asarray(f, dtype=float) + ext_term
    return float(np.max(np.abs(lhs - rhs)))


def integral_identity(sys1: DirichletSystem, sys2: DirichletSystem,
                      f1: np.ndarray, f2: np.ndarray) -> dict:
    """Pairing of (DN_1 - DN_2) f1 with f2 versus the interior quadrature of
    (q1 - q2) u1 u2; exact algebra for symmetric assembly."""
    if sys1.grid is not sys2.grid:
        raise GridMismatchError("systems must share one grid")
    if sys1.op.s != sys2.op.s:
        raise GridMismatchError("systems must share the operator order s")
    grid = sys1.grid
    hn = grid.h ** grid.dim
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    lhs = hn * float(matmul(f2, dn_pointwise(sys1, f1) - dn_pointwise(sys2, f1)))
    u1 = solve_poisson(sys1, f1).values[grid.interior]
    u2 = solve_poisson(sys2, f2).values[grid.interior]
    dq = sys1.potential.values - sys2.potential.values
    rhs = hn * float(np.sum(dq * u1 * u2))
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


def export_dn_csv(dn: DNMap, grid: Grid, path: str) -> None:
    """CSV dump with window node coordinates in a comment header block."""
    with open(path, "w", newline="") as fh:
        fh.write("# source nodes (columns): " +
                 "; ".join(",".join("%.17g" % v for v in grid.coords[n]) for n in dn.source_nodes) + "\n")
        fh.write("# observation nodes (rows): " +
                 "; ".join(",".join("%.17g" % v for v in grid.coords[n]) for n in dn.observation_nodes) + "\n")
        fh.write(f"# potential fingerprint: {dn.fingerprint}\n")
        for row in dn.matrix:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
