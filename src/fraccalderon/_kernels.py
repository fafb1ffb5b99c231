"""Hot numeric kernels: the offset-table assembly and the package's BLAS.

On a uniform lattice the midpoint kernel weight |x_i - x_j|^(-power) depends
only on the integer offset |idx_i - idx_j|.  ``offset_table`` evaluates it
once per offset, ``gather_offsets`` reads a dense pairwise block from the
table, and ``offset_convolve`` sums a table against a lattice function by
zero-padded FFT, so operator-vector products (``FracOperator.apply``) use
no BLAS.  A gathered entry depends only on |idx_i - idx_j|, so the blocks
are exactly symmetric and do not depend on evaluation order.

Along a lattice line (row nodes stepping by one along the last axis) a
block is Toeplitz, so ``gather_offsets`` copies each column of a line as
one contiguous window of the table, made two-sided along that axis, from
one integer base per column.  Its index work is O(lines * n_cols), not
O(n_rows * n_cols), and it builds no n_rows x n_cols index array; its one
large allocation is the output.

One BLAS library.  numpy and scipy each link their own OpenBLAS, and each
keeps its own thread pool.  After a numpy product, solve or whole-array
norm, numpy's workers spin for a while waiting for more work, and scipy's
Cholesky and LU factorizations and solves, which run next, compete with
them for the cores: on 2 cores one LU of 1264 unknowns took 0.03 s alone
and 0.05-0.12 s right after one numpy product.  So every module of the
package makes every BLAS and LAPACK call through scipy: products through
``matmul`` (and the symmetric Gram product through ``syrk``), whole-array
2-norms through ``norm``, factorizations and decompositions through
``scipy.linalg``.  No module uses the ``@`` operator, ``np.dot``,
``np.matmul``, ``np.linalg.norm`` without ``ord`` or ``axis``, or any other
``np.linalg`` routine; a test checks the source of every module for these.
numpy's LAPACK is still reached through ``np.polynomial.legendre.leggauss``,
which ``fracop`` calls for its Gauss-Legendre nodes (2D and 3D, cached):
scipy's ``roots_legendre`` took 40 ms on its first call against 3-8 ms.
"""

import numpy as np
from scipy.linalg import blas

__all__ = ["backend_name", "gather_offsets", "matmul", "norm", "offset_convolve",
           "offset_table", "syrk"]


# rows of a lattice run copied at once by ``gather_offsets``: bounds its
# transposed window copy at 64 * n_cols doubles
_RUN_ROWS = 64


def backend_name() -> str:
    """The kernels run on numpy alone."""
    return "numpy"


def _fortran(x: np.ndarray):
    """A Fortran-ordered view ``f`` of ``x`` and the BLAS transpose flag t
    with op_t(f) = x; a C-ordered ``x`` gives its transpose and t = 1."""
    return (x, 0) if x.flags.f_contiguous or not x.flags.c_contiguous else (x.T, 1)


def matmul(a, b) -> np.ndarray:
    """``a @ b`` through scipy's BLAS (dgemm, dgemv or ddot), for float
    operands of which ``a`` is 2D unless both are 1D.  C- or Fortran-ordered
    operands are passed as views with a transpose flag, never copied; a 2D
    product comes back Fortran-ordered."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[0] or a.ndim < b.ndim:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not align "
                         f"(a is 2D unless b is 1D)")
    shape = a.shape[:-1] + b.shape[1:]
    if a.size == 0 or b.size == 0:
        # the BLAS wrappers reject empty vectors
        return np.zeros(shape)
    if a.ndim == 1 and b.ndim == 1:
        return blas.ddot(a, b)
    fa, ta = _fortran(a)
    if b.ndim == 1:
        return blas.dgemv(1.0, fa, b, trans=ta)
    fb, tb = _fortran(b)
    return blas.dgemm(1.0, fa, fb, trans_a=ta, trans_b=tb)


def syrk(a, alpha: float, out: np.ndarray) -> np.ndarray:
    """The upper triangle of ``alpha * a @ a.T`` through scipy's dsyrk, for a
    2D float ``a``, at half the flops of the full product, written into
    ``out`` (square, Fortran-ordered) and returned; the strict lower
    triangle of ``out`` is left as it was.  ``a`` is passed as a view with a
    transpose flag, never copied."""
    f, t = _fortran(np.asarray(a, dtype=np.float64))
    return blas.dsyrk(alpha, f, beta=0.0, c=out, trans=t, overwrite_c=1)


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
    indices of shape (n_rows, dim) and (n_cols, dim).

    The rows are split into runs: consecutive rows that share their leading
    coordinates and step by one along the last axis.  Within a run, column
    j reads consecutive entries of U, the table made two-sided along its
    last axis (U[..., L - 1 + k] = tab[..., |k|] with L = tab.shape[-1]),
    so the run is one window of U.ravel() per column, copied from one
    sliding-window view at one integer base per column.  The index work is
    O(runs * n_cols * dim), no n_rows x n_cols index array is made, and the
    only large allocation is the output; a run is copied in pieces of at
    most ``_RUN_ROWS`` rows, so the transposed copy stays small.
    Lattice-ordered rows (every node set of a ``Grid``) make one run per
    lattice line; rows in any other order or with repeats are gathered
    exactly too, at one run per row, so O(n_rows * n_cols) index work.
    Offsets beyond the table raise ``ValueError``.
    """
    rows = np.asarray(idx_rows, dtype=np.int64)
    cols = np.asarray(idx_cols, dtype=np.int64)
    n, dim = rows.shape
    m = len(cols)
    out = np.empty((n, m))
    if n == 0 or m == 0:
        return out
    span = np.maximum(rows.max(axis=0) - cols.min(axis=0), cols.max(axis=0) - rows.min(axis=0))
    if any(d >= size for d, size in zip(span.tolist(), tab.shape)):
        raise ValueError(f"gather_offsets: offsets up to {span.tolist()} exceed the "
                         f"table shape {tab.shape}")
    step = rows[1:] - rows[:-1]
    step[:, -1] -= 1
    brk = (np.flatnonzero(step.any(axis=1)) + 1).tolist()
    pieces = [(r0, min(end, r0 + _RUN_ROWS)) for start, end in zip([0] + brk, brk + [n])
              for r0 in range(start, end, _RUN_ROWS)]
    p = max(r1 - r0 for r0, r1 in pieces)
    last = tab.shape[-1] - 1
    two_sided = np.concatenate([tab[..., :0:-1], tab], axis=-1)
    # p - 1 trailing zeros give every base a whole window of p entries
    padded = np.concatenate([two_sided.ravel(), np.zeros(p - 1)])
    window = np.lib.stride_tricks.sliding_window_view(padded, p)
    strides = [int(np.prod(two_sided.shape[k + 1:])) for k in range(dim - 1)]
    for r0, r1 in pieces:
        base = last + rows[r0, -1] - cols[:, -1]
        for k in range(dim - 1):
            base += np.abs(rows[r0, k] - cols[:, k]) * strides[k]
        out[r0:r1] = window[base, :r1 - r0].T
    return out


def offset_convolve(tab: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """out[i] = sum_j mask[j] * tab[|i - j|] on a lattice of any dimension, by FFT.

    ``tab`` covers at least the offsets of ``mask``'s shape.  The signed
    kernel has shape (2 n_k - 1) per axis, so along an axis of n points the
    linear convolution has 3 n - 2 outputs, of which only n - 1 ... 2 n - 2
    are read.  Both are zero-padded to the power of two L >= 2 n - 1: a
    circular convolution of length L adds output t + L and t - L onto t,
    and for a read t these fall at or beyond 3 n - 2 and below 0, where the
    linear convolution is zero, so the outputs read are exact (3 n - 2 would
    make every output exact, at up to twice the length per axis).
    """
    n = mask.shape
    kern = tab[np.ix_(*[np.abs(np.arange(1 - m, m)) for m in n])]
    shape = tuple(1 << (2 * m - 2).bit_length() for m in n)
    axes = tuple(range(len(n)))
    spec = np.fft.rfftn(mask, shape, axes) * np.fft.rfftn(kern, shape, axes)
    full = np.fft.irfftn(spec, shape, axes)
    return full[tuple(slice(m - 1, 2 * m - 1) for m in n)]
