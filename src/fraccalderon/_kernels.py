"""Hot numeric kernels of the quadrature assembly, built on one offset table.

On a uniform lattice the midpoint kernel weight |x_i - x_j|^(-power) depends
only on the integer offset |idx_i - idx_j|.  ``offset_table`` evaluates it
once per offset, ``gather_offsets`` reads a dense pairwise matrix from the
table, and ``offset_convolve`` sums a table against a lattice indicator by
zero-padded FFT.  A gathered entry depends only on |idx_i - idx_j|, so the
matrix is exactly symmetric and does not depend on evaluation order.
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


def gather_offsets(tab: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Dense matrix M[i, j] = tab[|idx_i - idx_j|] for lattice indices (n, dim)."""
    # flat table positions fit in 32 bits for any table that fits in memory
    itype = np.int32 if tab.size < 2**31 else np.int64
    idx = np.asarray(idx, dtype=itype)
    n, dim = idx.shape
    strides = [itype(np.prod(tab.shape[k + 1:])) for k in range(dim)]
    flat = tab.ravel()
    out = np.empty((n, n))
    # cap the integer offset temporaries at ~16 MB
    block = max(1, (1 << 22) // max(n, 1))
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        pos = np.abs(idx[r0:r1, None, 0] - idx[None, :, 0]) * strides[0]
        for k in range(1, dim):
            pos += np.abs(idx[r0:r1, None, k] - idx[None, :, k]) * strides[k]
        np.take(flat, pos, out=out[r0:r1])
    return out


def offset_convolve(tab: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """out[i] = sum_j mask[j] * tab[|i - j|] on a 2D lattice, by FFT.

    ``tab`` covers at least the offsets of ``mask``'s shape.  The signed
    kernel has shape (2 n_k - 1) per axis; both are zero-padded to a power
    of two >= 3 n_k - 2, so the circular convolution equals the linear one.
    """
    n1, n2 = mask.shape
    kern = tab[np.ix_(np.abs(np.arange(1 - n1, n1)), np.abs(np.arange(1 - n2, n2)))]
    shape = tuple(1 << (3 * m - 3).bit_length() for m in (n1, n2))
    spec = np.fft.rfft2(mask, shape) * np.fft.rfft2(kern, shape)
    full = np.fft.irfft2(spec, shape)
    return full[n1 - 1:2 * n1 - 1, n2 - 1:2 * n2 - 1]
