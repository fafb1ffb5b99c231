"""Discrete fractional Laplacian on compactly supported lattice functions.

Two independent realizations:

* ``assemble_quadrature`` builds a dense symmetric matrix over the non-FAR
  nodes from the singular-integral form of the operator.  Off-diagonal
  entries use the midpoint rule for well-separated cells and exact cell
  integrals for adjacent cells; the diagonal is the negated off-diagonal row
  sum plus the exact far-field tail, so rows sum to the tail coefficient and
  the matrix keeps the sign structure of the kernel.  Every cell weight
  depends only on the lattice offset, so one table per offset serves the
  matrix (by gather) and, in 2D, the FAR-cell part of the tail (by FFT
  convolution with the FAR indicator); the tail outside the box is in
  closed form.
* ``apply_spectral`` applies the Fourier multiplier |xi|^(2s) on a
  zero-padded periodic embedding of the box.

The singular self-cell is handled by a curvature correction: the second
order Taylor term of the principal value over the own cell is redistributed
onto nearest-neighbor springs, which preserves symmetry, the sign structure
and the row-sum identity exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from ._kernels import gather_offsets, offset_convolve, offset_table
from .errors import DomainError, QuadratureError
from .grid import Grid, GridFunction, Region

_QUAD_REL_TOL = 1e-10


def cns_constant(n: int, s: float) -> float:
    """Normalization matching the singular integral to the multiplier |xi|^2s."""
    if n not in (1, 2):
        raise DomainError(f"dimension must be 1 or 2, got {n}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    # |Gamma(-s)| = Gamma(1-s)/s on (0,1)
    return 4.0**s * s * math.gamma(n / 2.0 + s) / (math.pi ** (n / 2.0) * math.gamma(1.0 - s))


def extension_trace_constant(s: float) -> float:
    """Constant relating the weighted trace derivative of the harmonic-type
    extension to the operator: 2^(2s-1) * Gamma(s) / Gamma(1-s)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    return 2.0 ** (2.0 * s - 1.0) * math.gamma(s) / math.gamma(1.0 - s)


@dataclass
class FracOperator:
    grid: Grid
    s: float
    matrix: np.ndarray        # dense symmetric, non-FAR nodes
    tail: np.ndarray          # per non-FAR node: c * integral over {u == 0}
    cns: float
    method: str = "quadrature"

    @property
    def nonfar(self) -> np.ndarray:
        return self.grid.nonfar

    def rows(self, nodes) -> np.ndarray:
        """Matrix rows (equally, columns) of the given nodes."""
        rows = self.grid.nonfar_row[np.asarray(nodes, dtype=np.int64)]
        if np.any(rows < 0):
            raise DomainError("operator rows exist only for non-FAR nodes")
        return rows

    def block(self, row_nodes, col_nodes) -> np.ndarray:
        """Copy of the matrix block coupling two node arrays."""
        return self.matrix[np.ix_(self.rows(row_nodes), self.rows(col_nodes))]


def _adjacent_weight_1d(h: float, s: float) -> float:
    # exact integral of |z|^(-1-2s) over the neighboring cell [h/2, 3h/2]
    return ((h / 2.0) ** (-2 * s) - (3.0 * h / 2.0) ** (-2 * s)) / (2.0 * s)


_KAPPA_CACHE: dict = {}


def _kappa_1d(s: float) -> float:
    """Quadratic defect of the 1D near-singular quadrature, in units c*h^(2-2s).

    Defined as the difference between the principal-value action on z^2/2
    over the window |z| <= (m+1/2)h and the discrete sum (exact adjacent
    weight, midpoint beyond), extrapolated in the window size m.
    """
    def partial(m: int) -> float:
        w1 = (0.5 ** (-2 * s) - 1.5 ** (-2 * s)) / (2.0 * s)
        j = np.arange(2, m + 1, dtype=float)
        return (m + 0.5) ** (2 - 2 * s) / (2.0 - 2.0 * s) - (w1 + np.sum(j ** (1 - 2 * s)))

    k1, k2 = partial(200_000), partial(400_000)
    return k2 + (k2 - k1) / (2.0 ** (2 * s) - 1.0)


def _kappa_2d(s: float, w_edge_unit: float, w_corner_unit: float) -> float:
    """Laplacian defect of the 2D near-singular quadrature, units c*h^(2-2s)."""
    g_val, g_err = integrate.quad(lambda t: (1.0 + t * t) ** (-s), 0.0, 1.0,
                                  epsabs=0.0, epsrel=_QUAD_REL_TOL)
    if g_err > 1e-12:
        raise QuadratureError("defect coefficient quadrature did not converge")

    def partial(m: int) -> float:
        exact = 8.0 * g_val * (m + 0.5) ** (2 - 2 * s) / (2.0 - 2.0 * s)
        r = np.arange(-m, m + 1)
        j1, j2 = np.meshgrid(r, r, indexing="ij")
        cheb = np.maximum(np.abs(j1), np.abs(j2))
        d2 = (j1 * j1 + j2 * j2).astype(float)
        with np.errstate(divide="ignore"):
            w = d2 ** (-(1.0 + s))
        w = np.where(cheb >= 2, w, 0.0)
        w = np.where(cheb == 1, np.where(np.abs(j1) + np.abs(j2) == 2, w_corner_unit, w_edge_unit), w)
        lattice = np.sum(j1 * j1 * w)
        return exact / 4.0 - lattice / 2.0

    k1, k2 = partial(256), partial(512)
    return k2 + (k2 - k1) / (2.0 ** (2 * s) - 1.0)


def _unit_cell_integral_2d(s: float, corner: bool) -> float:
    lo = 0.5
    f = lambda w2, w1: (w1 * w1 + w2 * w2) ** (-1.0 - s)
    if corner:
        val, err = integrate.dblquad(f, lo, 1.5, lo, 1.5, epsabs=0.0, epsrel=_QUAD_REL_TOL)
    else:
        val, err = integrate.dblquad(f, lo, 1.5, -0.5, 0.5, epsabs=0.0, epsrel=_QUAD_REL_TOL)
    if err > max(1e-8 * abs(val), 1e-13):
        raise QuadratureError("adjacent-cell quadrature did not converge")
    return val


def _tail_outside_box_1d(x: np.ndarray, R: float, s: float) -> np.ndarray:
    return ((R - x) ** (-2 * s) + (R + x) ** (-2 * s)) / (2.0 * s)


def _tail_outside_box_2d(pts: np.ndarray, R: float, s: float) -> np.ndarray:
    """Integral of |x-y|^(-2-2s) over the complement of the box, per point.

    In polar coordinates about x the radial integral leaves
    (1/2s) * integral of r_exit(theta)^(-2s) over the directions.  The rays
    leaving through a side at distance d have r_exit = d / cos(phi), and
    between the foot of the perpendicular and a corner at offset o along the
    side, integral cos(phi)^(2s) dphi = B(1/2, s+1/2)/2 * I_{o^2/(o^2+d^2)}(1/2, s+1/2).
    """
    half_b = 0.5 * special.beta(0.5, s + 0.5)
    out = np.zeros(len(pts))
    for k in range(2):
        along = pts[:, 1 - k]
        for d in (R - pts[:, k], R + pts[:, k]):
            ends = sum(special.betainc(0.5, s + 0.5, o * o / (o * o + d * d))
                       for o in (R - along, R + along))
            out += d ** (-2 * s) * half_b * ends
    return out / (2.0 * s)


def _edge_pairs(grid: Grid) -> np.ndarray:
    """Pairs (p, q) of non-FAR node positions whose cells share a face."""
    nf = grid.nonfar
    n_cells = int(round(2.0 * grid.R / grid.h))
    strides = n_cells ** np.arange(grid.dim - 1, -1, -1)
    idx = grid.idx[nf]
    pairs = []
    for k in range(grid.dim):
        p = np.flatnonzero(idx[:, k] + 1 < n_cells)
        q = grid.nonfar_row[idx[p] @ strides + strides[k]]
        keep = q >= 0
        pairs.append(np.stack([p[keep], q[keep]], axis=1))
    return np.concatenate(pairs, axis=0)


def _cell_weights(grid: Grid, s: float) -> np.ndarray:
    """Integral of |z|^(-dim-2s) over the cell at lattice offset d >= 0, per d.

    Midpoint rule beyond Chebyshev distance 1, exact cell integrals at
    distance 1, zero for the own cell; shape (n_cells,) * dim.
    """
    n, h = grid.dim, grid.h
    n_cells = int(round(2.0 * grid.R / h))
    K = offset_table((n_cells,) * n, h, n + 2.0 * s) * h**n
    if n == 1:
        K[1] = _adjacent_weight_1d(h, s)
    else:
        K[0, 1] = K[1, 0] = h ** (-2 * s) * _unit_cell_integral_2d(s, corner=False)
        K[1, 1] = h ** (-2 * s) * _unit_cell_integral_2d(s, corner=True)
    return K


def assemble_quadrature(grid: Grid, s: float, curvature_correction: bool = True) -> FracOperator:
    """Dense quadrature matrix of the fractional Laplacian on non-FAR nodes."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    n = grid.dim
    h = grid.h
    c = cns_constant(n, s)
    nf = grid.nonfar
    N = len(nf)

    # V[i, j] ~ integral over cell j of |x_i - y|^(-n-2s)
    K = _cell_weights(grid, s)
    V = gather_offsets(K, grid.idx[nf])

    # far-field tail: box complement plus FAR cells (u vanishes on both)
    x_nf = grid.coords[nf]
    if n == 1:
        tail_int = _tail_outside_box_1d(x_nf[:, 0], grid.R, s)
        far = grid.far
        if len(far):
            dc = np.abs(x_nf[:, 0:1] - grid.coords[far, 0][None, :])
            a = dc - h / 2.0
            b = dc + h / 2.0
            tail_int += np.sum((a ** (-2 * s) - b ** (-2 * s)) / (2.0 * s), axis=1)
    else:
        far_mask = (grid.region == Region.EXTERIOR_FAR).astype(np.float64)
        far_sum = offset_convolve(K, far_mask.reshape(K.shape)).ravel()
        tail_int = _tail_outside_box_2d(x_nf, grid.R, s) + far_sum[nf]

    # A = -c V off the diagonal, built in place of V
    diag = c * V.sum(axis=1) + c * tail_int
    A = np.multiply(V, -c, out=V)
    A[np.diag_indices(N)] = diag

    if curvature_correction:
        # the near-singular zone mistreats the quadratic Taylor term of u by
        # -c h^(2-2s) kappa(s) u''; redistribute that defect onto nearest
        # neighbor springs (keeps symmetry, signs and row sums exactly)
        key = (n, round(s, 12))
        if key not in _KAPPA_CACHE:
            if n == 1:
                _KAPPA_CACHE[key] = _kappa_1d(s)
            else:
                _KAPPA_CACHE[key] = _kappa_2d(s, _unit_cell_integral_2d(s, corner=False),
                                              _unit_cell_integral_2d(s, corner=True))
        spring = c * _KAPPA_CACHE[key] * h ** (-2.0 * s)
        edges = _edge_pairs(grid)
        np.add.at(A, (edges[:, 0], edges[:, 0]), spring)
        np.add.at(A, (edges[:, 1], edges[:, 1]), spring)
        np.add.at(A, (edges[:, 0], edges[:, 1]), -spring)
        np.add.at(A, (edges[:, 1], edges[:, 0]), -spring)

    tail_coeff = c * tail_int
    return FracOperator(grid=grid, s=s, matrix=A, tail=tail_coeff, cns=c)


def apply_spectral(u: GridFunction, s: float, pad_factor: int = 8) -> GridFunction:
    """Fourier-multiplier application on a zero-padded periodic embedding.

    Periodization error decays like (pad_factor * box size)^(-dim-2s); the
    quadrature matrix and this route are mutual oracles.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if pad_factor < 4:
        raise DomainError("pad_factor must be >= 4")
    u.check_far_zero()
    g = u.grid
    n_cells = int(round(2.0 * g.R / g.h))
    M = int(pad_factor) * n_cells
    if g.dim == 1:
        buf = np.zeros(M)
        buf[:n_cells] = u.values
        xi = 2.0 * np.pi * np.fft.fftfreq(M, d=g.h)
        out = np.fft.ifft(np.abs(xi) ** (2 * s) * np.fft.fft(buf)).real[:n_cells]
        return GridFunction(g, out)
    buf = np.zeros((M, M))
    buf[:n_cells, :n_cells] = u.values.reshape(n_cells, n_cells)
    xi = 2.0 * np.pi * np.fft.fftfreq(M, d=g.h)
    mult = (xi[:, None] ** 2 + xi[None, :] ** 2) ** s
    out = np.fft.ifft2(mult * np.fft.fft2(buf)).real[:n_cells, :n_cells]
    return GridFunction(g, out.ravel())


def export_operator(op: FracOperator, path: str, fmt: str = "npz") -> None:
    """Dump matrix and metadata for offline inspection (npz or csv)."""
    if fmt == "npz":
        np.savez_compressed(path, matrix=op.matrix, tail=op.tail, s=op.s,
                            cns=op.cns, nonfar=op.nonfar, method=op.method)
        return
    if fmt == "csv":
        header = f"# fractional operator, s={op.s!r}, cns={op.cns!r}, n={op.matrix.shape[0]}"
        np.savetxt(path, op.matrix, delimiter=",", header=header, fmt="%.17g")
        return
    raise ValueError(f"unknown export format {fmt!r}")
