import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from fraccalderon import (GridFunction, apply_spectral, assemble_quadrature, build_grid,
                          cns_constant, fracop)
from fraccalderon._kernels import gather_offsets, offset_convolve, offset_table
from fraccalderon.dirichlet import assemble_system, potential_from_spec
from fraccalderon.fracop import (_cell_weights, _kappa, _lattice_sum, _smooth_integral,
                                 _tail_outside_box, _unit_weights)
from fraccalderon.errors import DomainError, QuadratureError
from fraccalderon.grid import Region

from conftest import convolve_long_pad, make_grid_1d, smooth_bump

# Getoor-type oracle for s = 1/2 on (-1, 1): high-resolution adaptive
# quadrature of the principal-value integral at x = 0 gives 1.0000000000
# (closed form 2^(2s) Gamma(s+1/2) Gamma(s+1) / Gamma(1/2) equals exactly 1).
GETOOR_VALUE = 1.0


def test_cns_half():
    assert cns_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_cns_positive_and_domain():
    for s in np.arange(0.1, 0.95, 0.1):
        assert cns_constant(1, float(s)) > 0
        assert cns_constant(2, float(s)) > 0
    with pytest.raises(DomainError):
        cns_constant(1, 1.5)
    with pytest.raises(DomainError):
        cns_constant(0, 0.5)


def test_cns_classical_limit():
    # c_{1,s}/(1-s) -> 2 as s -> 1 (consistency with the classical Laplacian)
    vals = [cns_constant(1, s) / (1 - s) for s in (0.99, 0.999, 0.9999)]
    assert abs(vals[-1] - 2.0) < 1e-3
    assert abs(vals[1] - 2.0) < abs(vals[0] - 2.0)


def test_matrix_structure(desk_op):
    A = desk_op.matrix
    assert np.max(np.abs(A - A.T)) == 0.0
    off = A - np.diag(np.diag(A))
    assert np.max(off) <= 0.0
    rows = A.sum(axis=1)
    assert np.max(np.abs(rows - desk_op.tail)) <= 1e-12 * np.max(np.abs(A))
    assert np.all(desk_op.tail >= 0.0)


def test_positive_definite(desk_op, op_2d):
    assert np.linalg.eigvalsh(desk_op.matrix)[0] > 0
    assert np.linalg.eigvalsh(op_2d.matrix)[0] > 0


def test_apply_zero_and_even_symmetry(desk_op):
    g = desk_op.grid
    assert np.all(desk_op.matrix @ np.zeros(len(g.nonfar)) == 0.0)
    vals = smooth_bump(g, 0.0, 0.3)
    out = desk_op.matrix @ vals[g.nonfar]
    x = g.coords[g.nonfar, 0]
    order = np.argsort(-x)
    assert np.allclose(out, out[order], atol=1e-12 * np.max(np.abs(out)))


def test_getoor_oracle_and_plateau(fine_op):
    c = cns_constant(1, 0.5)
    inner, err = integrate.quad(
        lambda y: (1.0 - math.sqrt(max(1.0 - y * y, 0.0))) / (y * y),
        -1, 1, points=[0.0], limit=400)
    oracle = c * (inner + 2.0)
    assert err < 1e-8
    assert oracle == pytest.approx(GETOOR_VALUE, abs=1e-10)

    g = fine_op.grid
    x = g.coords[:, 0]
    vals = np.where(np.abs(x) < 1, np.sqrt(np.clip(1 - x * x, 0, None)), 0.0)
    out = fine_op.matrix @ vals[g.nonfar]
    xs = g.coords[g.nonfar, 0]
    mid = np.abs(xs) < 0.5
    assert np.max(np.abs(out[mid] - GETOOR_VALUE)) < 2e-3


@pytest.mark.parametrize("s,pad,tol", [(0.25, 1024, 5e-3), (0.5, 256, 5e-3), (0.75, 256, 5e-3)])
def test_oracle_agreement_1d(fine_grid, s, pad, tol):
    op = assemble_quadrature(fine_grid, s)
    rng = np.random.default_rng(0)
    g = fine_grid
    worst = 0.0
    for _ in range(10):
        vals = smooth_bump(g, rng.uniform(-0.5, 0.5), rng.uniform(0.15, 0.2))
        quad = op.matrix @ vals[g.nonfar]
        spec = apply_spectral(GridFunction(g, vals), s, pad).values[g.nonfar]
        worst = max(worst, np.linalg.norm(quad - spec) / np.linalg.norm(spec))
    assert worst <= tol


def test_oracle_agreement_2d_desk():
    g = build_grid(
        2, 0.05, 3.0,
        {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "disc", "center": [0.0, 0.0], "radius": 2.0},
        {"W1": {"type": "disc", "center": [1.5, 0.0], "radius": 0.35}})
    op = assemble_quadrature(g, 0.5)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(6):
        vals = smooth_bump(g, rng.uniform(-0.4, 0.4, size=2), rng.uniform(0.2, 0.3))
        quad = op.apply(vals, g.nonfar)
        spec = apply_spectral(GridFunction(g, vals), 0.5, 8).values[g.nonfar]
        worst = max(worst, np.linalg.norm(quad - spec) / np.linalg.norm(spec))
    # measured 6.8e-4
    assert worst <= 1e-3
    A = op.matrix
    assert np.max(np.abs(A - A.T)) == 0.0


def test_oracle_convergence_ladder_2d():
    # the quadrature converges to the spectral route at the order measured
    # on the disc (s = 1/2, the CLI's 10 bumps of seed 0, pad 8): worst
    # relative discrepancy 4.517e-2, 6.434e-3 and 8.315e-4 at h = 0.2, 0.1
    # and 0.05, observed orders 2.81 and 2.95 (pad 16 agrees to 4 digits)
    from fraccalderon.cli import _smooth_bumps
    worst = []
    for h in (0.2, 0.1, 0.05):
        g = _disc_grid_2d(h)
        op = assemble_quadrature(g, 0.5)
        errs = []
        for vals in _smooth_bumps(g, 0):
            spec = apply_spectral(GridFunction(g, vals), 0.5, 8).values[g.nonfar]
            errs.append(np.linalg.norm(op.apply(vals, g.nonfar) - spec) / np.linalg.norm(spec))
        worst.append(max(errs))
    orders = np.log2(np.array(worst[:-1]) / np.array(worst[1:]))
    assert np.all(orders >= 2.75), orders
    assert worst[-1] <= 9e-4


def test_spectral_linearity(desk_grid):
    g = desk_grid
    u = smooth_bump(g, 0.1, 0.25)
    v = smooth_bump(g, -0.2, 0.3)
    a, b = 1.7, -0.4
    lhs = apply_spectral(GridFunction(g, a * u + b * v), 0.5, 8).values
    rhs = a * apply_spectral(GridFunction(g, u), 0.5, 8).values \
        + b * apply_spectral(GridFunction(g, v), 0.5, 8).values
    assert np.allclose(lhs, rhs, atol=1e-13 * np.max(np.abs(rhs)))


def test_spectral_periodization_decay(fine_grid):
    # documented decay of the periodic-embedding error as pad grows
    g = fine_grid
    vals = smooth_bump(g, 0.0, 0.2)
    u = GridFunction(g, vals)
    ref = apply_spectral(u, 0.25, 256).values
    err8 = np.linalg.norm(apply_spectral(u, 0.25, 8).values - ref)
    err16 = np.linalg.norm(apply_spectral(u, 0.25, 16).values - ref)
    assert err16 < err8 / 1.5


def test_spectral_preconditions(desk_grid):
    vals = smooth_bump(desk_grid, 0.0, 0.2)
    with pytest.raises(DomainError):
        apply_spectral(GridFunction(desk_grid, vals), 0.5, 2)
    bad = vals.copy()
    bad[desk_grid.far[0]] = 1.0
    with pytest.raises(ValueError):
        apply_spectral(GridFunction(desk_grid, bad), 0.5, 8)


def _spectral_complex(u, s, pad_factor):
    """The spectral route by complex FFTs over the whole padded lattice: the
    reference for the real-to-complex route of ``apply_spectral``."""
    g = u.grid
    padded = tuple(pad_factor * n for n in g.shape)
    xi2 = sum(np.ix_(*[(2.0 * np.pi * np.fft.fftfreq(m, d=g.h)) ** 2 for m in padded]))
    spec = np.fft.fftn(u.values.reshape(g.shape), padded, range(g.dim))
    out = np.fft.ifftn(xi2 ** s * spec).real
    return out[tuple(slice(0, n) for n in g.shape)].ravel()


@pytest.mark.parametrize("dim,h,R,s,pad", [(1, 0.02, 4.0, 0.5, 64), (1, 0.1, 3.15, 0.25, 5),
                                           (2, 0.05, 3.0, 0.5, 16), (2, 0.1, 3.05, 0.75, 5)])
def test_spectral_route_matches_complex_fft(dim, h, R, s, pad):
    # the half spectrum of rfftn carries the product of the real u and the
    # real multiplier: the route agrees with complex FFTs over the whole
    # lattice to rounding, on even padded lengths (the desk grid at the
    # CLI's pad 64, the disc at pad 16) and odd ones (63 x 5, 61 x 5)
    g = make_grid_1d(h, R=R) if dim == 1 else build_grid(
        2, h, R, {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "disc", "center": [0.0, 0.0], "radius": 2.0})
    u = GridFunction(g, smooth_bump(g, [0.1] * dim, 0.25))
    want = _spectral_complex(u, s, pad)
    got = apply_spectral(u, s, pad).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_classical_limit_on_gaussian(desk_grid):
    # at s close to 1 the corrected quadrature matrix approximates -u''
    g = desk_grid
    vals = np.exp(-g.coords[:, 0] ** 2)
    vals[g.far] = 0.0
    op = assemble_quadrature(g, 0.999)
    out = np.zeros(g.n_nodes)
    out[g.nonfar] = op.matrix @ vals[g.nonfar]
    lap = np.zeros(g.n_nodes)
    lap[1:-1] = -(vals[2:] - 2 * vals[1:-1] + vals[:-2]) / g.h**2
    sel = g.nonfar[np.abs(g.coords[g.nonfar, 0]) < 1.5]
    assert np.linalg.norm(out[sel] - lap[sel]) / np.linalg.norm(lap[sel]) < 2e-2


def test_boundary_profile_diagnostic(fine_op):
    # solution of A_II u = 1 divided by d(x)^s is near constant inside;
    # d is the smooth distance-like weight (1 - x^2)/2
    g = fine_op.grid
    pos = np.full(g.n_nodes, -1, dtype=int)
    pos[g.nonfar] = np.arange(len(g.nonfar))
    ip = pos[g.interior]
    Aii = fine_op.matrix[np.ix_(ip, ip)]
    u = np.linalg.solve(Aii, np.ones(len(ip)))
    x = g.coords[g.interior, 0]
    ratio = u / np.sqrt((1 - x * x) / 2.0)
    m80 = np.abs(x) <= 0.8
    osc = (ratio[m80].max() - ratio[m80].min()) / ratio[m80].mean()
    assert osc <= 0.10


def test_block_read_and_far_rejected(desk_op):
    g = desk_op.grid
    pos = np.full(g.n_nodes, -1, dtype=int)
    pos[g.nonfar] = np.arange(len(g.nonfar))
    w1 = g.windows["W1"]
    expect = desk_op.matrix[np.ix_(pos[g.interior], pos[w1])]
    assert np.array_equal(desk_op.block(g.interior, w1), expect)
    with pytest.raises(DomainError):
        desk_op.block(g.interior, g.far[:2])
    from fraccalderon.extension import ucp_conditioning
    with pytest.raises(DomainError):
        ucp_conditioning(desk_op, g.far[:2])


def test_assembly_deterministic(desk_grid):
    a = assemble_quadrature(desk_grid, 0.5)
    b = assemble_quadrature(desk_grid, 0.5)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.tail, b.tail)


def _disc_grid_2d(h):
    return build_grid(2, h, 3.0,
                      {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
                      {"type": "disc", "center": [0.0, 0.0], "radius": 2.0})


def _midpoint_weights_broadcast(idx, h, power):
    # reference: pairwise broadcast of the midpoint rule, zero at Chebyshev <= 1
    di = idx[:, None, :] - idx[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", di, di).astype(np.float64) * (h * h)
    with np.errstate(divide="ignore"):
        w = d2 ** (-0.5 * power)
    return np.where(np.abs(di).max(axis=2) > 1, w, 0.0)


@pytest.mark.parametrize("grid,s", [(make_grid_1d(0.01), 0.3), (_disc_grid_2d(0.1), 0.5),
                                    (_disc_grid_2d(0.1), 0.85)])
def test_offset_table_weights_match_broadcast(grid, s):
    idx = grid.idx[grid.nonfar]
    power = grid.dim + 2.0 * s
    span = idx.max(axis=0) - idx.min(axis=0) + 1
    gathered = gather_offsets(offset_table(tuple(span), grid.h, power), idx, idx)
    assert np.array_equal(gathered, _midpoint_weights_broadcast(idx, grid.h, power))


def _ball_grid(n, h, R, inner, outer):
    ball = lambda r: {"type": "disc", "center": [0.0] * n, "radius": r}
    return build_grid(n, h, R, ball(inner), ball(outer))


def _nonfar_box(grid):
    # the bounding box of the non-FAR cells in lattice indices, first to last
    i = grid.idx[grid.nonfar]
    return i.min(axis=0), i.max(axis=0)


def _tail_outside_box_adaptive(p, lo, hi, s):
    # reference: (1/2s) sum over the faces of d * integral over the face of
    # |p - y|^(-n-2s), each face split at the foot of p into 2^(n-1) boxes
    # with the peak at a corner, each box by adaptive quadrature (quad in 2D,
    # nested quad as dblquad does in 3D)
    n = len(p)
    out = 0.0
    for axis in range(n):
        along = [j for j in range(n) if j != axis]
        for d in (p[axis] - lo[axis], hi[axis] - p[axis]):
            f = lambda *y: d * (d * d + sum((t - p[j]) ** 2 for t, j in zip(y, along))) \
                ** (-0.5 * n - s)
            for box in itertools.product(*[((lo[j], p[j]), (p[j], hi[j])) for j in along]):
                val, err = integrate.nquad(f, box, opts={"epsabs": 0.0, "epsrel": 1e-12,
                                                         "limit": 200})
                assert err <= 1e-10 * abs(val)
                out += val
    return out / (2.0 * s)


def _rect_grid_2d(h):
    # a box Omega in a box support, neither a square: the non-FAR bounding
    # box has 37 x 23 cells at h = 0.1
    return build_grid(2, h, 3.0, {"type": "rect", "bounds": [[-1.0, 0.6], [-0.4, 0.5]]},
                      {"type": "rect", "bounds": [[-2.2, 1.5], [-1.0, 1.3]]})


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_box_tail_closed_form_matches_quadrature(s):
    # the box is the bounding box of the non-FAR cells.  Points: a random
    # sample of non-FAR nodes, the node nearest a face (offset 0 from it) and
    # the corner cell (offset 0 from n faces).  Measured agreement 8.0e-15
    # at worst (the non-square box, s = 3/4), 5.7e-15 in 2D, 1.4e-15 in 3D
    for g, count in ((_disc_grid_2d(0.1), 24), (_ball_grid(3, 0.25, 1.5, 0.5, 1.0), 6),
                     (_rect_grid_2d(0.1), 12)):
        lo, hi = _nonfar_box(g)
        i = g.idx[g.nonfar]
        pick = np.random.default_rng(3).choice(len(i), count, replace=False)
        i = np.vstack([i[pick], i[np.argmax(i[:, 0])], lo])
        closed = _tail_outside_box(i - lo, hi - i, g.h, s)
        ref = np.array([_tail_outside_box_adaptive(p, -g.R + lo * g.h, -g.R + (hi + 1) * g.h, s)
                        for p in -g.R + (i + 0.5) * g.h])
        assert np.max(np.abs(closed - ref) / ref) <= 1e-12


def _tail_per_node(pts, lo, hi, s):
    # reference: the face integrals of ``_tail_outside_box`` evaluated per
    # point from its coordinates and the box's, every face split at the foot
    # of the point; the last in-face axis in incomplete beta functions over
    # both sides at once, any other by Gauss-Legendre in u, t = d sinh u
    n = pts.shape[1]
    k = 0.5 * (n - 1) + s
    half_b = 0.5 * special.beta(0.5, k)
    out = np.zeros(len(pts))
    for axis in range(n):
        spans = [(lo[j] - pts[:, j], hi[j] - pts[:, j]) for j in range(n) if j != axis]
        for d in (pts[:, axis] - lo[axis], hi[axis] - pts[:, axis]):

            def face(*u, d=d):
                c2 = d * d + sum((d * np.sinh(x)) ** 2 for x in u)
                ends = [half_b * sum(special.betainc(0.5, k, e * e / (e * e + c2)) for e in span)
                        for span in spans[-1:]]
                return (c2 ** (0.5 * (len(ends) - n) - s) * math.prod(ends)
                        * math.prod(d * np.cosh(x) for x in u))
            for sides in itertools.product(*[(-a, b) for a, b in spans[:-1]]):
                out += d * _smooth_integral(face, [(0.0, np.arcsinh(e / d)) for e in sides])
    return out / (2.0 * s)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_tail_table_matches_per_node_quadrature(s, monkeypatch):
    # the operator with its tail read from the face-quadrant table against
    # the same operator with the tail evaluated per node from coordinates:
    # the tail and the diagonal move by rounding, most in 1D at h = 0.005
    # where the coordinates carry the cancellation.  Measured over s = 1/4,
    # 1/2, 3/4: tail 1.5e-13, diagonal 1.5e-14 in 1D; 5.7e-15 and 1.6e-15 in
    # 2D; 5.5e-16 and 3.0e-16 in 3D (relative)
    for g, tail_bound, diag_bound in ((make_grid_1d(0.005), 2e-13, 2e-14),
                                      (_disc_grid_2d(0.1), 1e-14, 3e-15),
                                      (_ball_grid(3, 0.25, 1.5, 0.5, 1.0), 2e-15, 1e-15)):
        x = g.coords[g.nonfar]
        lo, hi = x.min(axis=0) - g.h / 2.0, x.max(axis=0) + g.h / 2.0
        table = assemble_quadrature(g, s)
        with monkeypatch.context() as patch:
            patch.setattr(fracop, "_tail_outside_box", lambda *offsets: _tail_per_node(x, lo, hi, s))
            per_node = assemble_quadrature(g, s)
        assert np.max(np.abs(table.tail - per_node.tail) / per_node.tail) <= tail_bound
        assert np.max(np.abs(table.diag - per_node.diag) / np.abs(per_node.diag)) <= diag_bound


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_box_tail_difference_is_the_frame_integral(s):
    # the tail outside the non-FAR bounding box less the tail outside
    # [-R, R]^2 is the integral over the frame between the two boxes, the
    # FAR cells whose part of the tail is exact instead of midpoint;
    # measured agreement 6.2e-15 at worst
    g = _disc_grid_2d(0.1)
    lo, hi = _nonfar_box(g)
    R, n_cells = g.R, g.shape[0]
    nodes = g.nonfar[np.random.default_rng(4).choice(len(g.nonfar), 6, replace=False)]
    nodes = np.append(nodes, g.nonfar[np.argmax(g.idx[g.nonfar, 1])])
    i = g.idx[nodes]
    a, b = -R + lo * g.h, -R + (hi + 1) * g.h
    frame = [((-R, a[0]), (-R, R)), ((b[0], R), (-R, R)),
             ((a[0], b[0]), (-R, a[1])), ((a[0], b[0]), (b[1], R))]
    diff = (_tail_outside_box(i - lo, hi - i, g.h, s)
            - _tail_outside_box(i, n_cells - 1 - i, g.h, s))
    for p, got in zip(g.coords[nodes], diff):
        ref = 0.0
        for (a0, b0), (a1, b1) in frame:
            val, err = integrate.dblquad(
                lambda y2, y1: ((y1 - p[0]) ** 2 + (y2 - p[1]) ** 2) ** (-1.0 - s),
                a0, b0, a1, b1, epsabs=0.0, epsrel=1e-12)
            assert err <= 1e-10 * val
            ref += val
        assert abs(got / ref - 1.0) <= 1e-12


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_far_cell_convolution_matches_direct_sum(s):
    g = _disc_grid_2d(0.2)
    K = _cell_weights(g, s, _unit_weights(2, s))
    mask = (g.region == Region.EXTERIOR_FAR).astype(np.float64).reshape(K.shape)
    fft = offset_convolve(K, mask).ravel()[g.nonfar]
    d = np.abs(g.idx[g.nonfar][:, None, :] - g.idx[g.far][None, :, :])
    direct = K[d[..., 0], d[..., 1]].sum(axis=1)
    assert np.max(np.abs(fft - direct) / direct) <= 1e-12


def _direct_convolve(tab, mask):
    """out[i] = sum_j mask[j] tab[|i - j|], one lattice point at a time."""
    points = np.array(list(np.ndindex(*mask.shape)), dtype=np.int64).reshape(-1, mask.ndim)
    weights = mask.ravel()
    out = [np.sum(weights * tab[tuple(np.abs(i - points).T)]) for i in points]
    return np.reshape(out, mask.shape)


@pytest.mark.parametrize("shape", [(m,) for m in (1, 2, 3, 7, 8, 9)]
                         + [(m, m) for m in (1, 2, 3, 7, 8, 9)] + [(2, 9), (8, 3), (3, 5, 4)])
def test_offset_convolve_matches_direct_sum(shape, monkeypatch):
    # the FFT convolution, padded per axis to the power of two >= 2 m - 1,
    # equals the direct sum at every lattice point: the circular wrap never
    # reaches the outputs read.  Random signed tables and masks, to 1e-13
    # of the largest output
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    tab, mask = rng.standard_normal(shape), rng.standard_normal(shape)
    lengths = []
    real = np.fft.rfftn

    def spy(a, s=None, axes=None, **kwargs):
        lengths.append(tuple(s))
        return real(a, s, axes, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", spy)
    got = offset_convolve(tab, mask)
    want = _direct_convolve(tab, mask)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the smallest power of two >= 2 m - 1 per axis, for the mask and the kernel
    pad = tuple(min(2**k for k in range(12) if 2**k >= 2 * m - 1) for m in shape)
    assert lengths == [pad, pad]


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_shortest_fft_length_moves_the_operator_by_rounding(h, monkeypatch):
    # the 2D disc operator with FFTs at 2 m - 1 against the same at 3 m - 2
    # (h = 0.05: 256^2 against 512^2 points): the table is the same, and the
    # diagonal and the tail move by rounding.  Measured over s = 1/4, 1/2,
    # 3/4: diagonal at most 8.9e-16 relative, tail 7.0e-14 (s = 3/4)
    g = _disc_grid_2d(h)
    for s in (0.25, 0.5, 0.75):
        short = assemble_quadrature(g, s)
        with monkeypatch.context() as patch:
            patch.setattr(fracop, "offset_convolve", convolve_long_pad)
            long = assemble_quadrature(g, s)
        assert np.array_equal(short.table, long.table)
        assert np.max(np.abs(short.diag - long.diag) / np.abs(long.diag)) <= 1e-15
        assert np.max(np.abs(short.tail - long.tail) / np.abs(long.tail)) <= 1e-13


def _tail_per_cell_1d(grid, s):
    # reference: the box complement in closed form plus one exact integral
    # of |x - y|^(-1-2s) per FAR cell; every distance is (t + 1/2) h for a
    # lattice offset t, not a difference of coordinates
    h, i = grid.h, grid.idx[grid.nonfar, 0]
    out = (((grid.shape[0] - 0.5 - i) * h) ** (-2 * s) + ((i + 0.5) * h) ** (-2 * s)) / (2.0 * s)
    t = np.abs(i[:, None] - grid.idx[grid.far, 0][None, :])
    a, b = (t - 0.5) * h, (t + 0.5) * h
    return out + np.sum((a ** (-2 * s) - b ** (-2 * s)) / (2.0 * s), axis=1)


@pytest.mark.parametrize("h", [0.05, 0.02, 0.005])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
def test_tail_1d_closed_form_matches_per_cell_sum(h, s):
    # the FAR-cell integrals telescope, so the whole 1D tail is the integral
    # outside the non-FAR span; measured agreement 6.1e-16 at worst
    g = make_grid_1d(h)
    want = cns_constant(1, s) * _tail_per_cell_1d(g, s)
    assert np.max(np.abs(assemble_quadrature(g, s).tail - want) / want) <= 1e-14


def test_assembly_near_classical_limit_2d():
    # s close to 1 stays assemblable in 2D: the exterior tail is exact, no
    # adaptive quadrature that could run out of subdivisions
    op = assemble_quadrature(_disc_grid_2d(0.2), 0.95)
    A = op.matrix
    assert np.array_equal(A, A.T)
    assert np.linalg.eigvalsh(A)[0] > 0
    assert np.max(np.abs(A.sum(axis=1) - op.tail)) <= 1e-12 * np.max(np.abs(A))


def _unit_cell_dblquad(s, corner):
    # reference: adaptive quadrature of the adjacent-cell integral
    other = (0.5, 1.5) if corner else (-0.5, 0.5)
    val, err = integrate.dblquad(lambda w2, w1: (w1 * w1 + w2 * w2) ** (-1.0 - s),
                                 0.5, 1.5, *other, epsabs=0.0, epsrel=1e-12)
    assert err <= 1e-11 * val
    return val


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.85, 0.99])
def test_gauss_legendre_cell_integrals_match_adaptive(s):
    unit = _unit_weights(2, s)
    for corner, got in ((False, unit[0, 1]), (True, unit[1, 1])):
        ref = _unit_cell_dblquad(s, corner)
        assert abs(got - ref) <= 1e-13 * ref


def test_gauss_legendre_disagreement_raises():
    # a peak of width 1e-2 defeats the 32-point rule; for one box per point,
    # one such box is enough
    with pytest.raises(QuadratureError, match="disagree by"):
        _smooth_integral(lambda x: 1.0 / (x * x + 1e-4), [(-1.0, 1.0)])
    smooth = _smooth_integral(lambda x: np.exp(x), [(np.zeros(2), np.ones(2))])
    assert np.allclose(smooth, math.e - 1.0, rtol=1e-14, atol=0.0)
    with pytest.raises(QuadratureError):
        _smooth_integral(lambda x: 1.0 / (x * x + 1e-4), [(np.array([0.5, -1.0]), np.ones(2))])


# kappa_1 = 1 - w_1 - zeta(2s - 1) and kappa_2 = 1 + 2^(-s) - w_edge
# - 2 w_corner - zeta(s) beta(s), evaluated offline with mpmath 1.3 at 40
# digits (mp.zeta, mp.dirichlet(s, [0, 1, 0, -1]) for beta, and the
# adjacent-cell integrals by mp.quad over x of the closed-form inner integral
# x^(-2-2s) y 2F1(1+s, 1/2; 3/2; -y^2/x^2)), rounded to 17 digits
KAPPA_REFERENCE = {
    0.05: (-0.013896113455399122, -0.021019335574380477),
    0.25: (0.012452262086616534, 0.049370744953219214),
    0.5: (0.16666666666666667, 0.35142088079332412),
    0.75: (0.93762379494667165, 1.6550506800246280),
    0.99: (48.658147846849188, 76.742879247976127),
}


@pytest.mark.parametrize("s", sorted(KAPPA_REFERENCE))
@pytest.mark.parametrize("n", [1, 2])
def test_kappa_matches_40_digit_reference(n, s):
    want = KAPPA_REFERENCE[s][n - 1]
    assert abs(_kappa(n, s, _unit_weights(n, s)) / want - 1.0) <= 1e-13


def test_kappa_closed_form_values():
    # kappa_1(1/2) = 1 - 4/3 - zeta(0) = 1/6
    assert abs(_kappa(1, 0.5, _unit_weights(1, 0.5)) - 1.0 / 6.0) <= 1e-15
    # the theta split against the known lattice sums: Z_1 = 2 zeta(2s - 1)
    # (measured 6.7e-16 at worst); the square lattice's 4 zeta(1/2)
    # beta(1/2) to 20 digits (mpmath, 40 digits); the cubic lattice's
    # continued sum of |d|^-2 (Borwein et al., Lattice Sums Then and Now)
    for s in (0.05, 0.25, 0.5, 0.75, 0.99):
        want = 2.0 * (1.0 + special.zetac(2.0 * s - 1.0))
        assert abs(_lattice_sum(1, s) / want - 1.0) <= 2e-15
    assert abs(_lattice_sum(2, 0.5) / -3.9002649200019558828 - 1.0) <= 1e-15
    assert abs(_lattice_sum(3, 0.5) / -8.91363291758515 - 1.0) <= 1e-14


def _kappa_window_extrapolation(n, s, unit, m):
    # reference: the principal value of z_1^2/2 over the window
    # |z|_inf <= L = m + 1/2, L^(2-2s) G / (2-2s) with G the integral of
    # (1 + |t|^2)^(1-n/2-s) over the face [-1, 1]^(n-1), minus the discrete
    # sum over the window, at windows m and 2m, Richardson-extrapolated in
    # the window size
    G, err = integrate.nquad(lambda *t: (1.0 + sum(x * x for x in t)) ** (1.0 - 0.5 * n - s),
                             [(0.0, 1.0)] * (n - 1), opts={"epsabs": 0.0, "epsrel": 1e-13})
    assert err <= 1e-13 * G
    G *= 2.0 ** (n - 1)

    def partial(m):
        j = np.ix_(*[np.arange(-m, m + 1)] * n)
        with np.errstate(divide="ignore"):
            w = sum(x * x for x in j).astype(float) ** (-0.5 * n - s)
        near = reduce(np.maximum, [np.abs(x) for x in j]) <= 1
        w = np.where(near, unit[tuple(np.minimum(np.abs(x), 1) for x in j)], w)
        return (m + 0.5) ** (2 - 2 * s) * G / (2.0 - 2.0 * s) - np.sum(j[0] ** 2 * w) / 2.0

    k1, k2 = partial(m), partial(2 * m)
    return k2 + (k2 - k1) / (2.0 ** (2 * s) - 1.0)


def test_kappa_2d_window_extrapolation_converges_to_closed_form():
    # measured relative gaps at s = 1/2, falling 4x per doubling:
    # * Z^2: 2.55e-6 at windows (128, 256) and 6.38e-7 at (256, 512);
    # * Z^3: 9.30e-4 at (8, 16), 2.40e-4 at (16, 32) and 6.08e-5 at (32, 64)
    s = 0.5
    for n, windows, bound in ((2, (128, 256), 1e-6), (3, (8, 16), 3e-4)):
        unit = _unit_weights(n, s)
        exact = _kappa(n, s, unit)
        gap = [abs(_kappa_window_extrapolation(n, s, unit, m) / exact - 1.0) for m in windows]
        assert gap[0] >= 3.0 * gap[1]
        assert gap[1] <= bound


def test_cli_import_leaves_out_scipy_integrate():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fraccalderon.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _dense_reference(grid, s):
    """The dense assembly the structured operator replaces: full gather, row
    sum diagonal, springs scattered on the edge pairs; in 2D with adaptive
    adjacent-cell integrals, in the table and in the defect."""
    n, h = grid.dim, grid.h
    c = cns_constant(n, s)
    idx = grid.idx[grid.nonfar]
    if n == 2:
        edge, corner = _unit_cell_dblquad(s, False), _unit_cell_dblquad(s, True)
        unit = np.array([[0.0, edge], [edge, corner]])
    else:
        unit = _unit_weights(1, s)
    K = _cell_weights(grid, s, unit)
    V = gather_offsets(K, idx, idx)
    tail = assemble_quadrature(grid, s).tail
    diag = c * V.sum(axis=1) + tail
    A = np.multiply(V, -c, out=V)
    A[np.diag_indices(len(A))] = diag
    spring = c * _kappa(n, s, unit) * h ** (-2.0 * s)
    di = np.abs(idx[:, None, :] - idx[None, :, :]).sum(axis=2)
    p, q = np.nonzero(np.triu(di == 1))
    np.add.at(A, (p, p), spring)
    np.add.at(A, (q, q), spring)
    np.add.at(A, (p, q), -spring)
    np.add.at(A, (q, p), -spring)
    return A


# the curvature correction is not optional; the one-value parameter keeps
# the case ids stable
@pytest.mark.parametrize("curvature_correction", [True])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.85])
@pytest.mark.parametrize("grid", [make_grid_1d(0.05), _disc_grid_2d(0.1)], ids=["desk1d", "disc2d"])
def test_structured_operator_matches_dense_reference(grid, s, curvature_correction):
    A = assemble_quadrature(grid, s).matrix
    ref = _dense_reference(grid, s)
    off = ~np.eye(len(A), dtype=bool)
    idx = grid.idx[grid.nonfar]
    cheb1 = np.abs(idx[:, None, :] - idx[None, :, :]).max(axis=2) == 1
    if grid.dim == 1:
        assert np.array_equal(A[off], ref[off])
    else:
        # the adjacent cells' Gauss-Legendre integrals differ from the
        # adaptive ones by rounding; every other entry is the same table read
        assert np.array_equal(A[off & ~cheb1], ref[off & ~cheb1])
        assert np.max(np.abs(A[cheb1] / ref[cheb1] - 1.0)) <= 1e-14
    assert np.max(np.abs(np.diag(A) / np.diag(ref) - 1.0)) <= 1e-14


def test_block_equals_matrix_slices(desk_op):
    g = desk_op.grid
    A = desk_op.matrix
    nf = g.nonfar
    perm = np.random.default_rng(5).permutation(nf)
    cases = [(g.interior, g.windows["W1"]),             # disjoint
             (nf[10:60], nf[40:100]),                   # overlapping
             (perm[:50], perm[25:90]),                  # unsorted, overlapping
             (perm, perm[::-1])]                        # unsorted, equal sets
    for rows, cols in cases:
        expect = A[np.ix_(g.nonfar_row[rows], g.nonfar_row[cols])]
        assert np.array_equal(desk_op.block(rows, cols), expect)
    with pytest.raises(DomainError):
        desk_op.block(nf[[3, 4, 3]], nf[:5])


def _gather_reference(tab, rows, cols):
    # brute force: one |offset| per pair, read off the table entry by entry
    d = np.abs(rows[:, None, :] - cols[None, :, :])
    return tab[tuple(np.moveaxis(d, -1, 0))]


@pytest.mark.parametrize("grid", [make_grid_1d(0.01), _disc_grid_2d(0.2)], ids=["1d", "2d"])
def test_gather_offsets_matches_brute_force(grid):
    # a random table, so that any wrong offset reads a different value; the
    # 1D non-FAR set is one run of 400 rows, longer than one copied piece
    tab = np.random.default_rng(0).random(grid.shape)
    nf = grid.nonfar
    perm = np.random.default_rng(3).permutation(nf)
    cases = {
        "empty rows": (nf[:0], nf),
        "empty cols": (nf, nf[:0]),
        "both empty": (nf[:0], nf[:0]),
        "single-node runs": (nf[::2], nf[1::3]),
        "one node": (nf[[7]], nf),
        "permuted": (perm, perm[::-1]),
        "repeated": (nf[[5, 5, 6, 7, 7, 7, 2, 3]], nf[[4, 4, 9]]),
        "interior x exterior support": (grid.interior, grid.ext_support),
        "exterior support x interior": (grid.ext_support, grid.interior),
        "non-FAR x non-FAR": (nf, nf),
    }
    for name, (rows, cols) in cases.items():
        ir, ic = grid.idx[rows], grid.idx[cols]
        got = gather_offsets(tab, ir, ic)
        assert got.shape == (len(rows), len(cols)), name
        assert np.array_equal(got, _gather_reference(tab, ir, ic)), name


def test_gather_offsets_table_axes_of_different_lengths():
    rng = np.random.default_rng(1)
    tab = rng.random((5, 13))
    # all lattice points of a 5 x 13 box, in lattice order, shuffled, and a
    # strip with runs of 3 broken by every change of the leading axis; a
    # whole line followed by the far corner node, whose one-row run reads
    # the table's last entry
    box = np.indices((5, 13)).reshape(2, -1).T
    strip = box[(box[:, 1] >= 4) & (box[:, 1] < 7)]
    shuffled = box[rng.permutation(len(box))]
    line_and_corner = np.vstack([box[:13], box[-1:]])
    for rows, cols in [(box, box), (strip, box), (box, strip), (shuffled, strip),
                       (strip, shuffled[:17]), (line_and_corner, box)]:
        assert np.array_equal(gather_offsets(tab, rows, cols),
                              _gather_reference(tab, rows, cols))
    with pytest.raises(ValueError):
        gather_offsets(tab[:, :12], box, box)


@pytest.mark.parametrize("which", ["desk", "disc"])
def test_block_transpose_is_exact(which, desk_op, op_2d):
    op = desk_op if which == "desk" else op_2d
    g = op.grid
    nf = g.nonfar
    perm = np.random.default_rng(7).permutation(nf)
    for a, b in [(g.interior, g.ext_support), (g.interior, g.interior),
                 (nf[10:60], nf[40:100]), (perm[:50], perm[25:90]), (nf, nf)]:
        assert np.array_equal(op.block(a, b), op.block(b, a).T)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_apply_equals_block_product(dim, s):
    # apply's FFT convolution and the gathered block's product agree to
    # rounding on the scale ||A||_inf ||u||_inf of either sum: measured at
    # most 8.6e-16 over these grids and the 1D grid at h = 0.005, for
    # random, interior-only and smooth u (relative to max |A u| it reads up
    # to 1.6e-12 there, where the diagonal is ~h^(-2s) and A u is O(1))
    g = {1: make_grid_1d(0.05), 2: _disc_grid_2d(0.1), 3: _ball_grid(3, 0.25, 1.5, 0.5, 1.0)}[dim]
    op = assemble_quadrature(g, s)
    nf = g.nonfar
    rng = np.random.default_rng(dim)
    A = op.block(nf, nf)
    scale = np.max(np.abs(A).sum(axis=1))
    for support in (nf, g.interior):
        u = np.zeros(g.n_nodes)
        u[support] = rng.standard_normal(len(support))
        for nodes in (nf, g.interior, g.ext_support):
            got = op.apply(u, nodes)
            want = op.block(nodes, nf) @ u[nf]
            assert np.max(np.abs(got - want)) <= 1e-14 * scale * np.max(np.abs(u))


def test_apply_rejects_far_rows_and_far_values(desk_op):
    g = desk_op.grid
    u = smooth_bump(g, 0.0, 0.3)
    with pytest.raises(DomainError):
        desk_op.apply(u, g.far[:2])
    with pytest.raises(DomainError):
        desk_op.apply(u, np.concatenate([g.interior, g.far[:1]]))
    u[g.far[-1]] = 1e-300
    with pytest.raises(DomainError):
        desk_op.apply(u, g.interior)
    with pytest.raises(ValueError):
        desk_op.apply(u[g.nonfar], g.interior)


@pytest.mark.parametrize("case,margin_kb", [("disc A_II", 320), ("1d non-FAR", 640)])
def test_block_gather_allocates_only_its_output(case, margin_kb, op_2d):
    # traced bytes of one block gather above its output, measured:
    # * A_II on the 2D disc at h = 0.1 (316 interior nodes, 780 KB output):
    #   218 KB, the two-sided table and its zero-padded copy (57 KB each),
    #   one lattice line's transposed window copy (at most 20 x 316
    #   doubles, 51 KB) and the node-index arrays of ``block``;
    # * the whole 1D desk operator at h = 0.005 (800 non-FAR nodes in one
    #   lattice line, 4.9 MB output): 507 KB, of which 400 KB is the
    #   transposed copy of one 64-row piece; copying the line whole would
    #   add 4.9 MB.
    if case == "disc A_II":
        op = op_2d
        rows = cols = op.grid.interior
    else:
        op = assemble_quadrature(make_grid_1d(0.005), 0.5)
        rows = cols = op.grid.nonfar
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A = op.block(rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (len(rows), len(cols))
    assert peak - base <= A.nbytes + margin_kb * 1024


def test_operator_and_system_memory_2d():
    # the 2D disc at h = 0.05 has 5024 non-FAR nodes, so the dense matrix
    # would hold 193 MB; the operator and one system stay far below that.
    # Measured traced peak 13.4 MB: the one 1264^2 buffer (12.2 MB) that
    # A_II is gathered and factored in, plus 1.2 MB of operator arrays and
    # gather work space (the assembly alone peaks at 2.7 MB, its FFTs at
    # 256^2 points; 7.2 MB at 512^2); the bound
    # leaves 2.6 MB of margin
    g = build_grid(2, 0.05, 3.0,
                   {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
                   {"type": "disc", "center": [0.0, 0.0], "radius": 2.0},
                   {"W1": {"type": "disc", "center": [1.5, 0.0], "radius": 0.35}})
    q = potential_from_spec(g, 0.0)
    assert len(g.nonfar) == 5024
    tracemalloc.start()
    try:
        sys_ref = assemble_system(assemble_quadrature(g, 0.5), q)
        sys_ref.lu()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
