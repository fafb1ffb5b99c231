"""Discrete fractional Laplacian on compactly supported lattice functions.

Two independent realizations:

* ``assemble_quadrature`` builds a structured symmetric operator over the
  non-FAR nodes from the singular-integral form of the operator.
  Off-diagonal entries use the midpoint rule for well-separated cells and
  exact cell integrals for adjacent cells; the diagonal is the negated
  off-diagonal row sum plus the exact far-field tail, so rows sum to the
  tail coefficient and the matrix keeps the sign structure of the kernel.
  Every off-diagonal entry depends only on the lattice offset, so the
  operator stores one table of entries per offset and one diagonal, and
  gathers each block it is asked for on demand; the dense N_nf x N_nf
  matrix is never held.  The row sums, and in 2D the FAR-cell part of the
  tail, are FFT convolutions of a table with a lattice indicator; the tail
  outside the box, and in 1D the whole tail, is in closed form.
* ``apply_spectral`` applies the Fourier multiplier |xi|^(2s) on a
  zero-padded periodic embedding of the box.

The singular self-cell is handled by a curvature correction: the second
order Taylor term of the principal value over the own cell is redistributed
onto nearest-neighbor springs, which preserves symmetry, the sign structure
and the row-sum identity.  A spring depends only on the offset (one
lattice step), so it is part of the offset table.  Its coefficient, the
defect kappa(s), is in closed form through the lattice sums 2 zeta(2s - 1)
on Z and 4 zeta(s) beta(s) on Z^2: exact to rounding for every s in (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import special

from ._kernels import gather_offsets, offset_convolve, offset_table
from .errors import DomainError, QuadratureError
from .grid import Grid, GridFunction, Region

# the 32- and 64-point Gauss-Legendre rules of a smooth cell integral must
# agree to this relative tolerance
_GAUSS_AGREE_TOL = 1e-13

# terms of the accelerated series of ``_dirichlet_beta``: error below 1e-22
_CVZ_TERMS = 30


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
    table: np.ndarray         # off-diagonal entry per lattice offset |d| (d = 0 unused)
    diag: np.ndarray          # per non-FAR node: the diagonal entry
    tail: np.ndarray          # per non-FAR node: c * integral over {u == 0}
    cns: float

    @property
    def nonfar(self) -> np.ndarray:
        return self.grid.nonfar

    @property
    def matrix(self) -> np.ndarray:
        """The whole symmetric non-FAR matrix, gathered anew on each access
        (N_nf^2 doubles: 193 MB on the 2D disc at h = 0.05).  Bind it once;
        the solvers read only the blocks they need."""
        return self.block(self.nonfar, self.nonfar)

    def rows(self, nodes) -> np.ndarray:
        """Matrix rows (equally, columns) of the given nodes."""
        rows = self.grid.nonfar_row[np.asarray(nodes, dtype=np.int64)]
        if np.any(rows < 0):
            raise DomainError("operator rows exist only for non-FAR nodes")
        return rows

    def block(self, row_nodes, col_nodes) -> np.ndarray:
        """The matrix block coupling two node arrays (each without repeats),
        gathered from the offset table, with the diagonal entry wherever a
        row node is also a column node.  The gather copies one lattice line
        of row nodes at a time (``_kernels.gather_offsets``): node arrays in
        grid order, as every region of a ``Grid`` is, cost O(lines * cols)
        index work besides the n x m copy; nodes in any other order give
        the same block at one line per row node."""
        r, c = self.rows(row_nodes), self.rows(col_nodes)
        if len(np.unique(r)) < len(r) or len(np.unique(c)) < len(c):
            raise DomainError("operator blocks take node arrays without repeats")
        idx = self.grid.idx
        out = gather_offsets(self.table, idx[np.asarray(row_nodes, dtype=np.int64)],
                             idx[np.asarray(col_nodes, dtype=np.int64)])
        _, i, j = np.intersect1d(r, c, assume_unique=True, return_indices=True)
        out[i, j] = self.diag[r[i]]
        return out


def _adjacent_weight_1d(h: float, s: float) -> float:
    # exact integral of |z|^(-1-2s) over the neighboring cell [h/2, 3h/2]
    return ((h / 2.0) ** (-2 * s) - (3.0 * h / 2.0) ** (-2 * s)) / (2.0 * s)


def _gauss_legendre(f, bounds, n: int) -> float:
    """Tensor Gauss-Legendre rule with n points per axis over a box."""
    t, w = np.polynomial.legendre.leggauss(n)
    nodes = [0.5 * (hi - lo) * t + 0.5 * (hi + lo) for lo, hi in bounds]
    weight = reduce(np.multiply.outer, [0.5 * (hi - lo) * w for lo, hi in bounds])
    return float(np.sum(weight * f(*np.meshgrid(*nodes, indexing="ij"))))


def _smooth_integral(f, bounds) -> float:
    """Integral of an analytic integrand over a box by Gauss-Legendre; the
    32- and 64-point rules must agree, else ``QuadratureError``."""
    coarse, fine = _gauss_legendre(f, bounds, 32), _gauss_legendre(f, bounds, 64)
    if abs(fine - coarse) > _GAUSS_AGREE_TOL * abs(fine):
        raise QuadratureError(f"Gauss-Legendre rules disagree: {coarse!r} vs {fine!r}")
    return fine


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


def _unit_weights(n: int, s: float) -> np.ndarray:
    """Exact integrals w_d of |z|^(-n-2s) over the unit cells (h = 1) at
    Chebyshev distance 1, indexed by |d| in {0, 1}^n; zero for the own cell.
    In 2D the cells centred at (1, 0) and (1, 1) take Gauss-Legendre rules."""
    if n == 1:
        return np.array([0.0, _adjacent_weight_1d(1.0, s)])
    f = lambda w1, w2: (w1 * w1 + w2 * w2) ** (-1.0 - s)
    edge, corner = (_smooth_integral(f, [(0.5, 1.5), other]) for other in ((-0.5, 0.5), (0.5, 1.5)))
    return np.array([[0.0, edge], [edge, corner]])


def _dirichlet_beta(s: float) -> float:
    """Dirichlet beta(s) = sum_k (-1)^k (2k+1)^(-s), s > 0, by the Cohen-Rodriguez
    Villegas-Zagier acceleration (Exp. Math. 9, 2000, Algorithm 1): (2k+1)^(-s) is
    a moment sequence, so m = ``_CVZ_TERMS`` terms err by under 2 (3 + sqrt 8)^(-m)."""
    m = _CVZ_TERMS
    d = (3.0 + math.sqrt(8.0)) ** m
    d = 0.5 * (d + 1.0 / d)
    b, c, total = -1.0, -d, 0.0
    for k in range(m):
        c = b - c
        total += c * (2.0 * k + 1.0) ** (-s)
        b *= (k + m) * (k - m) / ((k + 0.5) * (k + 1.0))
    return total / d


def _kappa(n: int, s: float, unit: np.ndarray) -> float:
    """Curvature defect in units c*h^(2-2s), from the weights w of ``_unit_weights``.

    On z_1^2/2 the principal value over |z|_inf <= m + 1/2 exceeds the
    discrete sum (w at Chebyshev distance 1, midpoint beyond) as m grows by
    kappa = 1/2 sum_{d in {-1,0,1}^n, d != 0} d_1^2 (|d|^(-n-2s) - w_d) - Z_n(s)/(2n),
    Z_n the analytic continuation in s of the sum of |d|^(2-n-2s) over the
    nonzero d in Z^n: Z_1 = 2 zeta(2s-1), Z_2 = 4 zeta(s) beta(s) (Borwein et
    al., Lattice Sums Then and Now, 2013).  scipy defines ``zetac`` = zeta - 1
    below 1, where its ``zeta`` may not be.
    """
    if n == 1:
        return -unit[1] - special.zetac(2.0 * s - 1.0)
    return (1.0 + 2.0 ** -s - unit[0, 1] - 2.0 * unit[1, 1]
            - (1.0 + special.zetac(s)) * _dirichlet_beta(s))


def _cell_weights(grid: Grid, s: float, unit: np.ndarray) -> np.ndarray:
    """Integral of |z|^(-dim-2s) over the cell at lattice offset d >= 0, per d.

    Midpoint rule beyond Chebyshev distance 1, exact cell integrals at
    distance 1 (in 2D the unit weights ``unit`` scaled by h^(-2s), in 1D
    the closed form at h), zero for the own cell; shape ``grid.shape``.
    """
    n, h = grid.dim, grid.h
    K = offset_table(grid.shape, h, n + 2.0 * s) * h**n
    if n == 1:
        K[1] = _adjacent_weight_1d(h, s)
    else:
        K[:2, :2] = h ** (-2 * s) * unit
    return K


def assemble_quadrature(grid: Grid, s: float) -> FracOperator:
    """Structured quadrature operator of the fractional Laplacian on non-FAR nodes."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    n = grid.dim
    h = grid.h
    c = cns_constant(n, s)
    nf = grid.nonfar

    # K[d] ~ integral over the cell at offset d of |z|^(-n-2s); the
    # off-diagonal entry at offset d is -c K[d]
    unit = _unit_weights(n, s)
    K = _cell_weights(grid, s, unit)
    table = np.multiply(K, -c)

    # far-field tail: box complement plus FAR cells (u vanishes on both)
    x_nf = grid.coords[nf]
    if n == 1:
        # the exact FAR-cell integrals telescope with the box complement's:
        # together they are the integral outside [lo, hi], the span of the
        # non-FAR cells, which in 1D (an interval support) are one run
        x = x_nf[:, 0]
        lo, hi = x[0] - h / 2.0, x[-1] + h / 2.0
        tail_int = ((x - lo) ** (-2 * s) + (hi - x) ** (-2 * s)) / (2.0 * s)
    else:
        far_mask = (grid.region == Region.EXTERIOR_FAR).astype(np.float64)
        far_sum = offset_convolve(K, far_mask.reshape(K.shape)).ravel()
        tail_int = _tail_outside_box_2d(x_nf, grid.R, s) + far_sum[nf]

    # the near-singular zone mistreats the quadratic Taylor term of u by
    # -c h^(2-2s) kappa(s) u''; redistribute that defect onto nearest
    # neighbor springs (keeps symmetry, signs and row sums)
    spring = c * _kappa(n, s, unit) * h ** (-2.0 * s)
    for k in range(n):
        table[tuple(int(j == k) for j in range(n))] += -spring

    # row-sum identity: the diagonal is the tail minus the off-diagonal row
    # sum, the table (zero at d = 0) convolved with the non-FAR indicator
    tail_coeff = c * tail_int
    nf_mask = (grid.region != Region.EXTERIOR_FAR).astype(np.float64)
    diag = tail_coeff - offset_convolve(table, nf_mask.reshape(table.shape)).ravel()[nf]
    return FracOperator(grid=grid, s=s, table=table, diag=diag, tail=tail_coeff, cns=c)


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
    padded = tuple(int(pad_factor) * n for n in g.shape)
    # fftn zero-pads each axis to its padded length
    spec = np.fft.fftn(u.values.reshape(g.shape), padded, range(g.dim))
    out = np.fft.ifftn(squared_frequencies(padded, g.h) ** s * spec).real
    return GridFunction(g, out[tuple(slice(0, n) for n in g.shape)].ravel())


def squared_frequencies(shape: tuple, h: float) -> np.ndarray:
    """|xi|^2 on the DFT lattice of spacing-h samples of the given shape: the
    squared angular frequencies of the axes, summed."""
    return sum(np.ix_(*[(2.0 * np.pi * np.fft.fftfreq(m, d=h)) ** 2 for m in shape]))


def export_operator(op: FracOperator, path: str, fmt: str = "npz") -> None:
    """Dump the whole matrix and metadata for offline inspection (npz or
    csv).  The matrix is gathered once: N_nf^2 doubles, 193 MB on the 2D
    disc at h = 0.05, and several times that as csv text."""
    if fmt not in ("npz", "csv"):
        raise ValueError(f"unknown export format {fmt!r}")
    A = op.matrix
    if fmt == "npz":
        np.savez_compressed(path, matrix=A, tail=op.tail, s=op.s,
                            cns=op.cns, nonfar=op.nonfar)
        return
    header = f"# fractional operator, s={op.s!r}, cns={op.cns!r}, n={A.shape[0]}"
    np.savetxt(path, A, delimiter=",", header=header, fmt="%.17g")
