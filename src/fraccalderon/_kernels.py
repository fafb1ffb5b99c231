"""Hot numeric kernels: the offset-table assembly and the solve path's BLAS.

On a uniform lattice the midpoint kernel weight |x_i - x_j|^(-power) depends
only on the integer offset |idx_i - idx_j|.  ``offset_table`` evaluates it
once per offset, ``gather_offsets`` reads a dense pairwise block from the
table, and ``offset_convolve`` sums a table against a lattice indicator by
zero-padded FFT.  A gathered entry depends only on |idx_i - idx_j|, so the
blocks are exactly symmetric and do not depend on evaluation order.

One BLAS library on the solve path.  numpy and scipy each link their own
OpenBLAS, and each keeps its own thread pool.  After a numpy product, solve
or whole-array norm, numpy's workers spin for a while waiting for more
work, and scipy's LU factorizations and solves, which run next, compete
with them for the cores: on 2 cores one LU of 1264 unknowns takes 0.03 s
alone and 0.05-0.12 s right after one numpy product.  So ``dirichlet``,
``dnmap``, ``runge`` and ``calderon`` make every BLAS and LAPACK call
through scipy: products through ``matmul``, whole-array 2-norms through
``norm``, factorizations through ``scipy.linalg``.  They never use the
``@`` operator, ``np.dot``, ``np.matmul``, ``np.linalg.norm`` without
``ord`` or ``axis``, or any other ``np.linalg`` routine; a test checks
their source for these.
"""

import numpy as np
from scipy.linalg import blas

__all__ = ["backend_name", "gather_offsets", "matmul", "norm", "offset_convolve",
           "offset_table"]


def backend_name() -> str:
    """The kernels run on numpy alone."""
    return "numpy"


def _fortran(x: np.ndarray):
    """A Fortran-ordered view ``f`` of ``x`` and the BLAS transpose flag t
    with op_t(f) = x; a C-ordered ``x`` gives its transpose and t = 1."""
    return (x, 0) if x.flags.f_contiguous or not x.flags.c_contiguous else (x.T, 1)


def matmul(a, b) -> np.ndarray:
    """``a @ b`` through scipy's BLAS (dgemm, dgemv or ddot), for 1D or 2D
    float operands.  C- or Fortran-ordered operands are passed as views with
    a transpose flag, never copied; a 2D product comes back Fortran-ordered."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    shape = a.shape[:-1] + b.shape[1:]
    if a.size == 0 or b.size == 0:
        # the BLAS wrappers reject empty vectors
        return np.zeros(shape)
    if a.ndim == 1 and b.ndim == 1:
        return blas.ddot(a, b)
    if b.ndim == 1:
        f, t = _fortran(a)
        return blas.dgemv(1.0, f, b, trans=t)
    if a.ndim == 1:
        f, t = _fortran(b)
        return blas.dgemv(1.0, f, a, trans=1 - t)
    fa, ta = _fortran(a)
    fb, tb = _fortran(b)
    return blas.dgemm(1.0, fa, fb, trans_a=ta, trans_b=tb)


def norm(x) -> float:
    """2-norm of ``x`` taken as one flat vector (the Frobenius norm of a
    matrix), through scipy's dnrm2."""
    x = np.asarray(x, dtype=np.float64)
    return float(blas.dnrm2(x.ravel(order="K"))) if x.size else 0.0


def offset_table(shape, h: float, power: float) -> np.ndarray:
    """Midpoint weights (|d| h)^(-power) for lattice offsets 0 <= d_k < shape[k].

    Offsets of Chebyshev length <= 1 (the own and the adjacent cells) are
    zero; they get exact cell integrals elsewhere.
    """
    axes = np.meshgrid(*[np.arange(m, dtype=np.int64) for m in shape], indexing="ij")
    d2 = sum(a * a for a in axes).astype(np.float64) * (h * h)
    with np.errstate(divide="ignore"):
        tab = d2 ** (-0.5 * power)
    tab[(slice(0, 2),) * len(shape)] = 0.0
    return tab


def gather_offsets(tab: np.ndarray, idx_rows: np.ndarray, idx_cols: np.ndarray) -> np.ndarray:
    """Dense block M[i, j] = tab[|idx_rows_i - idx_cols_j|] for lattice
    indices of shape (n_rows, dim) and (n_cols, dim)."""
    # flat table positions fit in 32 bits for any table that fits in memory
    itype = np.int32 if tab.size < 2**31 else np.int64
    rows = np.asarray(idx_rows, dtype=itype)
    cols = np.asarray(idx_cols, dtype=itype)
    n, dim = rows.shape
    m = len(cols)
    strides = [itype(np.prod(tab.shape[k + 1:])) for k in range(dim)]
    flat = tab.ravel()
    out = np.empty((n, m))
    # cap the integer offset temporaries at ~16 MB
    block = max(1, (1 << 22) // max(m, 1))
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        pos = np.abs(rows[r0:r1, None, 0] - cols[None, :, 0]) * strides[0]
        for k in range(1, dim):
            pos += np.abs(rows[r0:r1, None, k] - cols[None, :, k]) * strides[k]
        np.take(flat, pos, out=out[r0:r1])
    return out


def offset_convolve(tab: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """out[i] = sum_j mask[j] * tab[|i - j|] on a 1D or 2D lattice, by FFT.

    ``tab`` covers at least the offsets of ``mask``'s shape.  The signed
    kernel has shape (2 n_k - 1) per axis; both are zero-padded to a power
    of two >= 3 n_k - 2, so the circular convolution equals the linear one.
    """
    n = mask.shape
    kern = tab[np.ix_(*[np.abs(np.arange(1 - m, m)) for m in n])]
    shape = tuple(1 << (3 * m - 3).bit_length() for m in n)
    axes = tuple(range(len(n)))
    spec = np.fft.rfftn(mask, shape, axes) * np.fft.rfftn(kern, shape, axes)
    full = np.fft.irfftn(spec, shape, axes)
    return full[tuple(slice(m - 1, 2 * m - 1) for m in n)]
