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
from .grid import GridFunction, Region

__all__ = ["DNMap", "assemble_dn", "dn_readout", "dn_pointwise", "ns_weight", "apply_ns",
           "dn_decomposition_check", "integral_identity"]


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
    vector: (A u + E0(q u_I))|_{W2} with u the solution driven by e_k.  One
    window solve (``solve_window``) and its readout (``dn_readout``)."""
    grid = sys.grid
    src, _ = grid.exterior_window(W1)
    obs, _ = grid.exterior_window(W2)
    readout = dn_readout(sys.op, solve_window(sys, src), src, obs)
    return DNMap(source_nodes=src, observation_nodes=obs, matrix=readout,
                 fingerprint=_potential_fingerprint(sys))


def dn_readout(op: FracOperator, U_int: np.ndarray, src: np.ndarray,
               obs: np.ndarray) -> np.ndarray:
    """The DN map from the source window ``src`` to the observation window
    ``obs`` (node positions), read off the interior values ``U_int`` of the
    solutions driven by the source basis vectors (``solve_window``): the
    exterior rows A_W2,I U_int + A_W2,W1 of A u; the q-term E0(q u_I)
    vanishes on exterior rows, so the potential enters through U_int only."""
    return matmul(op.block(obs, op.grid.interior), U_int) + op.block(obs, src)


def dn_pointwise(sys: DirichletSystem, f: np.ndarray) -> np.ndarray:
    """(A u_f) restricted to the exterior-support nodes."""
    return sys.op.apply(solve_poisson(sys, f).values, sys.grid.ext_support)


def ns_weight(op: FracOperator) -> np.ndarray:
    """Weight m(x) = c * (interior kernel quadrature) on exterior-support
    nodes, with the operator's own cell weights so the two-term formula for
    the nonlocal Neumann value is an exact rearrangement."""
    return -op.apply(op.grid.region == Region.INTERIOR, op.grid.ext_support)


def apply_ns(op: FracOperator, u: GridFunction) -> np.ndarray:
    """Nonlocal Neumann value on exterior-support nodes:
    c * sum over interior cells of (u(x) - u(y)) |x-y|^(-dim-2s)."""
    grid = op.grid
    if u.grid is not grid:
        raise GridMismatchError("function and operator live on different grids")
    u_int = np.where(grid.region == Region.INTERIOR, u.values, 0.0)
    return ns_weight(op) * u.values[grid.ext_support] + op.apply(u_int, grid.ext_support)


def dn_decomposition_check(op: FracOperator, u: GridFunction) -> float:
    """Max residual of: DN f = N_s u - m f + (A E0 f) on exterior support,
    for u = ``solve_poisson(sys, f)`` of a system on ``op`` (so DN f = A u
    there and f = u there).  Both sides rearrange the same operator action,
    so the residual is rounding."""
    es = op.grid.ext_support
    e0f = np.where(op.grid.region == Region.EXTERIOR_SUPPORT, u.values, 0.0)
    rhs = apply_ns(op, u) - ns_weight(op) * u.values[es] + op.apply(e0f, es)
    return float(np.max(np.abs(op.apply(u.values, es) - rhs)))


def integral_identity(sys1: DirichletSystem, sys2: DirichletSystem,
                      u1: GridFunction, u2: GridFunction) -> dict:
    """Pairing of (DN_1 - DN_2) f1 with f2 versus the interior quadrature of
    (q1 - q2) u1 u2, for u_k = ``solve_poisson(sys_k, f_k)``; exact algebra
    for symmetric assembly.  One solve, DN_2 f1: u1 and u2 are the caller's."""
    if not (sys1.grid is sys2.grid is u1.grid is u2.grid):
        raise GridMismatchError("systems and solutions must share one grid")
    if sys1.op.s != sys2.op.s:
        raise GridMismatchError("systems must share the operator order s")
    grid = sys1.grid
    hn = grid.h ** grid.dim
    es, interior = grid.ext_support, grid.interior
    # (DN_1 - DN_2) f1 is A of u1 minus sys2's solution for f1, zero outside
    diff = u1.values - solve_poisson(sys2, u1.values[es]).values
    lhs = hn * float(matmul(u2.values[es], sys1.op.apply(diff, es)))
    dq = sys1.potential.values - sys2.potential.values
    rhs = hn * float(np.sum(dq * u1.values[interior] * u2.values[interior]))
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}
