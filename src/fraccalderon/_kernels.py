"""Hot numeric kernels of the quadrature assembly, built on one offset table.

On a uniform lattice the midpoint kernel weight |x_i - x_j|^(-power) depends
only on the integer offset |idx_i - idx_j|.  ``offset_table`` evaluates it
once per offset, ``gather_offsets`` reads a dense pairwise block from the
table, and ``offset_convolve`` sums a table against a lattice indicator by
zero-padded FFT.  A gathered entry depends only on |idx_i - idx_j|, so the
blocks are exactly symmetric and do not depend on evaluation order.
"""

import numpy as np

__all__ = ["backend_name", "gather_offsets", "offset_convolve", "offset_table"]


def backend_name() -> str:
    """The kernels run on numpy alone."""
    return "numpy"


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
