"""Upper-half-space extension machinery (1D base grids).

The extension is built by convolving with the exactly normalized kernel
P_y(x) ~ y^(2s) (x^2 + y^2)^(-(1+2s)/2); cell integrals of P_y have a closed
form through the regularized incomplete beta function, and the weights over
the whole line sum to one identically.  The weighted derivative at the base
recovers the fractional operator; the double-vanishing singular value study
provides a numerical witness that no smooth vector vanishes together with
its operator image on an open set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from ._kernels import matmul, offset_convolve
from .errors import DomainError, LadderError
from .fracop import FracOperator, extension_trace_constant
from .grid import Grid, GridFunction


@dataclass
class ExtensionField:
    grid: Grid
    s: float
    y_levels: np.ndarray
    base: np.ndarray            # boundary values w(x, 0) = u(x), all nodes
    values: np.ndarray          # (node, level)


def kernel_cdf(t: np.ndarray, y: float, s: float) -> np.ndarray:
    """Odd antiderivative of the extension kernel: integral of P_y over [0, t].

    P_y has unit mass, so this tends to 1/2 as t grows.
    """
    t = np.asarray(t, dtype=float)
    z = t * t / (t * t + y * y)
    return 0.5 * np.sign(t) * special.betainc(0.5, s, z)


def poisson_kernel_weights(grid: Grid, s: float, y: float) -> np.ndarray:
    """Cell-integral kernel weights at level y.

    The kernel is even, so the weight K[i, j] of source cell j at target i
    depends only on the lattice offset |i - j|: it is returned as the table
    ``table[d]`` = K[i, j] for |i - j| = d, evaluated once per offset."""
    if grid.dim != 1:
        raise DomainError("extension requires a 1D base grid")
    d = np.arange(grid.shape[0]) * grid.h
    return kernel_cdf(d + grid.h / 2.0, y, s) - kernel_cdf(d - grid.h / 2.0, y, s)


def cs_extend(u: GridFunction, s: float, y_levels) -> ExtensionField:
    """Extend a compactly supported grid function to positive levels by
    discrete convolution with the exactly-normalized kernel: per level, one
    FFT convolution of the kernel's offset table with u
    (``_kernels.offset_convolve``), no n_nodes x n_nodes matrix."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    grid = u.grid
    if grid.dim != 1:
        raise DomainError("extension requires a 1D base grid")
    u.check_far_zero()
    y_levels = np.asarray(y_levels, dtype=float)
    if y_levels.ndim != 1 or len(y_levels) == 0 or np.any(y_levels <= 0) \
            or np.any(np.diff(y_levels) <= 0):
        raise DomainError("y_levels must be strictly increasing and positive")
    vals = np.empty((grid.n_nodes, len(y_levels)))
    for m, y in enumerate(y_levels):
        vals[:, m] = offset_convolve(poisson_kernel_weights(grid, s, float(y)), u.values)
    return ExtensionField(grid=grid, s=s, y_levels=y_levels, base=u.values.copy(),
                          values=vals)


_TRACE_LEVELS = 6


def trace_ladder(h: float) -> np.ndarray:
    """Ladder tuned for trace extrapolation: starts above the cell-scale
    crossover of the discrete kernel, stays below feature scale."""
    return 3.0 * h * 1.3 ** np.arange(_TRACE_LEVELS)


def _lattice_laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / grid.h**2
    return out


def trace_derivative(field: ExtensionField) -> GridFunction:
    """Recover the operator from the behavior of the extension at the base.

    The level expansion of w - u splits into integer powers of y (classical
    Laplacian powers of u, with known coefficients) and a y^(2s) series whose
    leading coefficient carries the operator.  The classical part is
    subtracted using lattice Laplacians, and the y^(2s) series is fit on the
    smallest levels; the result is -d_s * 2s times the extrapolated constant,
    s the field's order.
    """
    s = field.s
    y_all = field.y_levels
    if len(y_all) < 3:
        raise LadderError("need at least 3 levels near zero")
    n_use = min(len(y_all), 6)
    y = y_all[:n_use]
    lap1 = _lattice_laplacian(field.grid, field.base)
    lap2 = _lattice_laplacian(field.grid, lap1)
    classical = (-np.outer(lap1, y**2) / (4.0 * (1.0 - s))
                 + np.outer(lap2, y**4) / (32.0 * (1.0 - s) * (2.0 - s)))
    G = (field.values[:, :n_use] - field.base[:, None] - classical) / y[None, :] ** (2 * s)
    n_terms = 3 if n_use >= 4 else 2
    basis = np.stack([y**e for e in (0.0, 2.0, 4.0)[:n_terms]], axis=1)
    sv_basis = linalg.svdvals(basis)          # condition number sv[0] / sv[-1]
    if sv_basis[0] > 1e12 * sv_basis[-1]:
        raise LadderError("level ladder too degenerate for extrapolation")
    coef = linalg.lstsq(basis, G.T)[0]
    a = coef[0]
    d_s = extension_trace_constant(s)
    return GridFunction(field.grid, -d_s * 2.0 * s * a)


def ucp_conditioning(op: FracOperator, W) -> dict:
    """Conditioning of the double-vanishing constraints on a window.

    Stacks the rows selecting u on W with the operator rows producing
    (A u)|_W, over all non-FAR degrees of freedom, and returns the stack's
    singular values (one per degree of freedom for a tall stack, fewer for a
    wide one, which has exact double-vanishers).  The smallest of them is
    rounding at fixed h: near-violations exist, made of grid-scale vectors.
    ``smooth_sigma_min`` restricts candidates to operator eigenvectors with
    energy at most the half-Nyquist energy (pi/(4h))^(2s); for smooth
    candidates the constraints are far from degenerate, which is the discrete
    residue of the uniqueness property.
    The smooth candidates need the whole matrix (N_nf^2 doubles) and its full
    ``eigh``, so this study suits grids of a few thousand non-FAR nodes.
    """
    grid = op.grid
    nf = grid.nonfar
    w_nodes = grid.indices_of(W)
    w_pos = op.rows(w_nodes)
    sel = np.zeros((len(w_pos), len(nf)))
    sel[np.arange(len(w_pos)), w_pos] = 1.0
    C = np.vstack([sel, op.block(w_nodes, nf)])

    norm_cap = (np.pi / (4.0 * grid.h)) ** (2.0 * op.s)
    evals, evecs = linalg.eigh(op.matrix)
    keep = evals <= norm_cap
    if np.any(keep):
        V = evecs[:, keep]
        sv_smooth = linalg.svdvals(matmul(C, V))
        smooth_sigma_min = float(sv_smooth[-1]) if V.shape[1] <= C.shape[0] else 0.0
    else:
        smooth_sigma_min = float("inf")
    return {"singular_values": linalg.svdvals(C), "smooth_sigma_min": smooth_sigma_min}
