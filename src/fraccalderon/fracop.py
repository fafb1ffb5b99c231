"""Discrete fractional Laplacian on compactly supported lattice functions.

Two independent realizations:

* ``assemble_quadrature`` builds a structured symmetric operator over the
  non-FAR nodes from the singular-integral form of the operator.
  Off-diagonal entries use the midpoint rule for well-separated cells and
  exact cell integrals for adjacent cells; the diagonal is the negated
  off-diagonal row sum plus the exact far-field tail, so rows sum to the
  tail coefficient and the matrix keeps the sign structure of the kernel.
  Every off-diagonal entry depends only on the lattice offset, so the
  operator stores one table of entries per offset and one diagonal, acts
  on a vector by FFT convolution and gathers a block only where a matrix
  is needed; the dense N_nf x N_nf matrix is never held.  The tail is exact
  outside the non-FAR cells' bounding box (a table of face-quadrant integrals
  by lattice offset); the FAR cells inside it and the row sums are FFT
  convolutions of a table with a lattice indicator.
* ``apply_spectral`` applies the Fourier multiplier |xi|^(2s) on a
  zero-padded periodic embedding of the box, by real-to-complex FFTs.

The singular self-cell is handled by a curvature correction: the second
order Taylor term of the principal value over the own cell is redistributed
onto nearest-neighbor springs, which preserves symmetry, the sign structure
and the row-sum identity.  A spring depends only on the offset (one
lattice step), so it is part of the offset table.  Its coefficient, the
defect kappa(s), is in closed form through a lattice sum over Z^n (theta
split): exact to rounding for every s in (0, 1) and every dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import special

from ._kernels import gather_offsets, offset_convolve, offset_table
from .errors import DomainError, QuadratureError
from .grid import Grid, GridFunction, Region

# the 32- and 64-point Gauss-Legendre rules of a smooth integral must
# agree to this relative tolerance
_GAUSS_AGREE_TOL = 1e-13


def cns_constant(n: int, s: float) -> float:
    """Normalization matching the singular integral to the multiplier |xi|^2s."""
    if n < 1:
        raise DomainError(f"dimension must be at least 1, got {n}")
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

    @property
    def matrix(self) -> np.ndarray:
        """The whole symmetric non-FAR matrix, gathered anew on each access
        (N_nf^2 doubles: 193 MB on the 2D disc at h = 0.05), for a dense
        eigendecomposition or an export; products with a vector use ``apply``."""
        return self.block(self.grid.nonfar, self.grid.nonfar)

    def apply(self, u, nodes) -> np.ndarray:
        """(A u) at the given non-FAR nodes, for u one value per grid node that
        vanishes on FAR nodes: diag * u plus the table convolved with u by one
        padded FFT (``offset_convolve``; Minden & Ying, SISC 2020), no block
        gathered.  A FAR node, or u nonzero on one, raises ``DomainError``."""
        rows, nodes = self.rows(nodes), np.asarray(nodes, dtype=np.int64)
        u = np.asarray(u, dtype=np.float64).reshape(self.grid.n_nodes)
        if np.any(u[self.grid.nonfar_row < 0]):
            raise DomainError("the operator acts on functions that vanish on FAR nodes")
        conv = offset_convolve(self.table, u.reshape(self.grid.shape)).ravel()
        return self.diag[rows] * u[nodes] + conv[nodes]

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


_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _gauss_legendre(f, bounds, m: int):
    """Tensor Gauss-Legendre rule with m points per axis over a box; array
    bounds give one box per point, their axes trailing the nodes'."""
    t, w = _leggauss(m)
    nodes, weights = [], []
    for j, (lo, hi) in enumerate(bounds):
        half, mid = 0.5 * (np.asarray(hi) - lo), 0.5 * (np.asarray(hi) + lo)
        shape = tuple(m if k == j else 1 for k in range(len(bounds))) + (1,) * half.ndim
        nodes.append(t.reshape(shape) * half + mid)
        weights.append(w.reshape(shape) * half)
    return np.sum(reduce(np.multiply, weights) * f(*nodes), axis=tuple(range(len(bounds))))


def _smooth_integral(f, bounds):
    """Integral of an analytic f over a box, or one box per point, by Gauss-
    Legendre: the 32- and 64-point rules must agree, else ``QuadratureError``."""
    if not bounds:
        return f()
    coarse, fine = _gauss_legendre(f, bounds, 32), _gauss_legendre(f, bounds, 64)
    gap = np.max(np.abs(fine - coarse) / np.abs(fine))
    if gap > _GAUSS_AGREE_TOL:
        raise QuadratureError(f"32- and 64-point Gauss-Legendre rules disagree by {gap:.3g}")
    return fine


def _tail_outside_box(lo_off: np.ndarray, hi_off: np.ndarray, h: float, s: float) -> np.ndarray:
    """Integral of |p - y|^(-n-2s) outside a lattice box, per node p in it, from its
    offsets in cells to the box's ends (rows i - lo, hi - i): (1/2s) sum over the faces
    F of d_F * integral_F |p - y|^(-n-2s), d_F the distance to F (divergence theorem).
    The foot of p splits F into quadrants [0, e_1] x ... x [0, e_(n-1)]; d and the e are
    (t + 1/2) h, so one table over offsets t holds d times every quadrant integral.
    Its last axis is closed form: c^(1-n-2s) B(1/2, k)/2 I_{e^2/(e^2+c^2)}(1/2, k), k =
    (n-1)/2 + s; any other takes Gauss-Legendre in u, x = d sinh u; 1D: d^(-2s)."""
    n = lo_off.shape[1]
    k = 0.5 * (n - 1) + s
    half_b = 0.5 * special.beta(0.5, k)
    m = int(max(lo_off.max(), hi_off.max())) + 1
    d, *e = np.ix_(*[(np.arange(m) + 0.5) * h] * n)

    def quadrant(*u):
        c2 = d * d + sum((d * np.sinh(x)) ** 2 for x in u)
        ends = [half_b * special.betainc(0.5, k, a * a / (a * a + c2)) for a in e[-1:]]
        return (c2 ** (0.5 * (len(ends) - n) - s) * math.prod(ends)
                * math.prod(d * np.cosh(x) for x in u))
    table = d * _smooth_integral(quadrant, [(0.0, np.arcsinh(a / d)) for a in e[:-1]])
    out = np.zeros(len(lo_off))
    for axis in range(n):
        sides = [(lo_off[:, j], hi_off[:, j]) for j in range(n) if j != axis]
        for t in (lo_off[:, axis], hi_off[:, axis]):
            for edges in itertools.product(*sides):
                out += table[(t, *edges)]
    return out / (2.0 * s)


def _unit_weights(n: int, s: float) -> np.ndarray:
    """Exact integrals w_d of |z|^(-n-2s) over the unit cells (h = 1) at Chebyshev
    distance 1, indexed by |d| in {0, 1}^n, zero for the own cell: closed form in
    1D, else Gauss-Legendre on [1/2, 3/2]^k x [-1/2, 1/2]^(n-k), k unit coordinates."""
    if n == 1:
        return np.array([0.0, (0.5 ** (-2 * s) - 1.5 ** (-2 * s)) / (2.0 * s)])
    f = lambda *w: sum(x * x for x in w) ** (-0.5 * n - s)
    by_k = [0.0] + [_smooth_integral(f, [(0.5, 1.5)] * k + [(-0.5, 0.5)] * (n - k))
                    for k in range(1, n + 1)]
    return np.asarray(by_k)[np.indices((2,) * n).sum(axis=0)]


def _lattice_sum(n: int, s: float) -> float:
    """Z_n(s), the analytic continuation in s of the sum of |d|^(2-n-2s) over the
    nonzero d in Z^n, by Riemann's theta split (Borwein et al., Lattice Sums Then and
    Now, 2013): with sigma = n/2 - 1 + s and x = pi |d|^2, pi^-sigma Gamma(sigma) Z_n =
    sum' Gamma(sigma, x) x^-sigma + sum' Gamma(1 - s, x) x^(s-1) + 1/(s - 1) - 1/sigma,
    divided by Gamma(sigma) through Gamma(sigma, x)/Gamma(sigma) = Q(sigma + 1, x) -
    x^sigma e^-x/Gamma(sigma + 1) for any sigma > -1.  |d|_inf <= 4 misses < e^(-25 pi)."""
    sigma = 0.5 * n - 1.0 + s
    x = np.pi * sum(np.ix_(*[np.arange(-4, 5) ** 2] * n)).ravel()
    x = x[x > 0]
    first = special.gammaincc(sigma + 1.0, x) * x**-sigma - np.exp(-x) * special.rgamma(sigma + 1)
    second = math.gamma(1.0 - s) * special.gammaincc(1.0 - s, x) * x ** (s - 1.0)
    return float(np.pi**sigma * (np.sum(first) - special.rgamma(sigma + 1.0)
                                 + special.rgamma(sigma) * (np.sum(second) + 1.0 / (s - 1.0))))


def _kappa(n: int, s: float, unit: np.ndarray) -> float:
    """Curvature defect in units c*h^(2-2s), from the weights w of ``_unit_weights``.

    On z_1^2/2 the principal value over |z|_inf <= m + 1/2 exceeds the
    discrete sum (w at Chebyshev distance 1, midpoint beyond) as m grows by
    kappa = 1/2 sum_{d in {-1,0,1}^n, d != 0} d_1^2 (|d|^(-n-2s) - w_d) - Z_n(s)/(2n).
    """
    d = np.indices((3,) * n).reshape(n, -1).T - 1
    d = d[d.any(axis=1)]
    r2 = np.sum(d * d, axis=1).astype(np.float64)
    return float(0.5 * np.sum(d[:, 0] ** 2 * (r2 ** (-0.5 * n - s) - unit[tuple(np.abs(d).T)]))
                 - _lattice_sum(n, s) / (2 * n))


def _cell_weights(grid: Grid, s: float, unit: np.ndarray) -> np.ndarray:
    """Integral of |z|^(-dim-2s) over the cell at lattice offset d >= 0, per d:
    midpoint beyond Chebyshev distance 1, the unit weights ``unit`` scaled by
    h^(-2s) at distance 1, zero for the own cell; shape ``grid.shape``."""
    n, h = grid.dim, grid.h
    K = offset_table(grid.shape, h, n + 2.0 * s) * h**n
    K[(slice(0, 2),) * n] = h ** (-2 * s) * unit
    return K


def assemble_quadrature(grid: Grid, s: float) -> FracOperator:
    """Structured quadrature operator of the fractional Laplacian on non-FAR nodes."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    n, h = grid.dim, grid.h
    c = cns_constant(n, s)
    nf = grid.nonfar

    # K[d] ~ integral over the cell at offset d of |z|^(-n-2s); the
    # off-diagonal entry at offset d is -c K[d]
    unit = _unit_weights(n, s)
    K = _cell_weights(grid, s, unit)
    table = np.multiply(K, -c)

    # far-field tail: exact outside the bounding box of the non-FAR cells,
    # the cell weights on the FAR cells inside it (none in 1D: one run)
    i_nf = grid.idx[nf]
    lo, hi = i_nf.min(axis=0), i_nf.max(axis=0)
    in_box = np.all((grid.idx >= lo) & (grid.idx <= hi), axis=1)
    far_in_box = (in_box & (grid.region == Region.EXTERIOR_FAR)).astype(np.float64)
    tail_int = (_tail_outside_box(i_nf - lo, hi - i_nf, h, s)
                + offset_convolve(K, far_in_box.reshape(K.shape)).ravel()[nf])

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
    return FracOperator(grid=grid, s=s, table=table, diag=diag, tail=tail_coeff)


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
    axes = tuple(range(g.dim))
    # u and the multiplier are real, so the half spectrum of rfftn carries
    # the product; rfftn zero-pads each axis to its padded length
    spec = np.fft.rfftn(u.values.reshape(g.shape), padded, axes)
    spec *= squared_frequencies(padded, g.h) ** s
    out = np.fft.irfftn(spec, padded, axes)
    return GridFunction(g, out[tuple(slice(0, n) for n in g.shape)].ravel())


def squared_frequencies(shape: tuple, h: float) -> np.ndarray:
    """|xi|^2 on the half DFT lattice of ``rfftn`` of spacing-h samples of the
    given shape (the last axis's non-negative frequencies only): the squared
    angular frequencies of the axes, summed."""
    freqs = [np.fft.fftfreq(m, d=h) for m in shape[:-1]]
    freqs.append(np.fft.rfftfreq(shape[-1], d=h))
    return sum(np.ix_(*[(2.0 * np.pi * f) ** 2 for f in freqs]))
