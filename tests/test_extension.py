import numpy as np
import pytest

from fraccalderon import GridFunction, apply_spectral, assemble_quadrature
from fraccalderon._kernels import gather_offsets
from fraccalderon.errors import DomainError, LadderError
from fraccalderon.extension import (cs_extend, kernel_cdf, poisson_kernel_weights,
                                    trace_derivative, trace_ladder, ucp_conditioning)

from conftest import make_grid_1d, smooth_bump


def _escape(grid, s, y):
    """Per source node, the mass of the level-y kernel outside the box
    [-R, R]."""
    x = grid.coords[:, 0]
    return 1.0 - (kernel_cdf(grid.R - x, y, s) - kernel_cdf(-grid.R - x, y, s))


def test_kernel_mass_identity(fine_grid):
    # cell weights over the box plus the escaped mass tile the whole line;
    # column j of K sums the table over offsets 0..j and 1..n-1-j
    for y in (0.01, 0.16, 1.28):
        table = poisson_kernel_weights(fine_grid, 0.5, y)
        escape = _escape(fine_grid, 0.5, y)
        partial = np.cumsum(table)
        total = partial + partial[::-1] - table[0] + escape
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_delta_mass_preservation(fine_grid):
    # single-node input: per level, the field mass accounts for the full
    # kernel normalization once the escaped tail is added back
    g = fine_grid
    k = int(np.argmin(np.abs(g.coords[:, 0])))
    u = np.zeros(g.n_nodes)
    u[k] = 3.0
    levels = g.h * 2.0 ** np.arange(4)
    field = cs_extend(GridFunction(g, u), 0.5, levels)
    for m, y in enumerate(levels):
        mass = g.h * np.sum(field.values[:, m]) + g.h * _escape(g, 0.5, float(y))[k] * 3.0
        assert mass == pytest.approx(g.h * 3.0, rel=1e-12)


def test_extension_is_the_kernel_matrix_product(fine_grid):
    # each level is the dense kernel matrix gathered from the table times u,
    # to rounding of the FFT convolution
    g = fine_grid
    vals = smooth_bump(g, 0.3, 0.2)
    levels = trace_ladder(g.h)
    field = cs_extend(GridFunction(g, vals), 0.5, levels)
    for m, y in enumerate(levels):
        K = gather_offsets(poisson_kernel_weights(g, 0.5, float(y)), g.idx, g.idx)
        want = K @ vals
        assert np.max(np.abs(field.values[:, m] - want)) <= 1e-14 * np.max(np.abs(want))


def test_even_symmetry(fine_grid):
    g = fine_grid
    vals = smooth_bump(g, 0.0, 0.25)
    field = cs_extend(GridFunction(g, vals), 0.5, g.h * 2.0 ** np.arange(3))
    flipped = field.values[::-1, :]
    assert np.allclose(field.values, flipped, atol=1e-13)


def test_half_s_matches_harmonic_extension_oracle(fine_grid):
    # independent oracle: half-space harmonic extension of the cell model via
    # FFT (multiplier e^(-y|xi|) with the cell-average shape factor)
    g = fine_grid
    vals = smooth_bump(g, 0.0, 0.2)
    levels = np.array([0.05, 0.1, 0.2])
    field = cs_extend(GridFunction(g, vals), 0.5, levels)
    n = g.n_nodes
    M = 256 * n
    buf = np.zeros(M)
    buf[:n] = vals
    xi = 2 * np.pi * np.fft.fftfreq(M, d=g.h)
    shape = np.ones_like(xi)
    nz = xi != 0
    shape[nz] = 2 * np.sin(xi[nz] * g.h / 2) / (xi[nz] * g.h)
    for m, y in enumerate(levels):
        ref = np.fft.ifft(np.exp(-y * np.abs(xi)) * shape * np.fft.fft(buf)).real[:n]
        rel = np.max(np.abs(field.values[:, m] - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-6


def test_composition_at_half_s(fine_grid):
    # the s=1/2 kernel family composes in the level; discrete resampling of
    # the intermediate field costs a few parts in a thousand
    g = fine_grid
    vals = smooth_bump(g, 0.0, 0.2)
    K1, K2, K12 = (gather_offsets(poisson_kernel_weights(g, 0.5, y), g.idx, g.idx)
                   for y in (0.3, 0.5, 0.8))
    comp = K2 @ (K1 @ vals)
    direct = K12 @ vals
    assert np.max(np.abs(comp - direct)) / np.max(np.abs(direct)) <= 1e-2


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_trace_recovers_operator(fine_grid, s):
    g = fine_grid
    vals = smooth_bump(g, 0.0, 0.2)
    u = GridFunction(g, vals)
    field = cs_extend(u, s, trace_ladder(g.h))
    td = trace_derivative(field).values[g.nonfar]
    spec = apply_spectral(u, s, 64).values[g.nonfar]
    assert np.linalg.norm(td - spec) / np.linalg.norm(spec) <= 5e-3


def test_trace_zero_and_linearity(fine_grid):
    g = fine_grid
    zero = cs_extend(GridFunction(g, np.zeros(g.n_nodes)), 0.5, trace_ladder(g.h))
    assert np.all(trace_derivative(zero).values == 0.0)
    u = smooth_bump(g, 0.1, 0.25)
    v = smooth_bump(g, -0.3, 0.3)
    a, b = 1.3, -0.8
    lad = trace_ladder(g.h)
    t_comb = trace_derivative(cs_extend(GridFunction(g, a * u + b * v), 0.5, lad)).values
    t_sep = a * trace_derivative(cs_extend(GridFunction(g, u), 0.5, lad)).values \
        + b * trace_derivative(cs_extend(GridFunction(g, v), 0.5, lad)).values
    assert np.allclose(t_comb, t_sep, atol=1e-11 * np.max(np.abs(t_sep)))


def test_ladder_validation(fine_grid):
    g = fine_grid
    vals = smooth_bump(g, 0.0, 0.2)
    with pytest.raises(DomainError):
        cs_extend(GridFunction(g, vals), 0.5, [0.2, 0.1])
    with pytest.raises(LadderError):
        field = cs_extend(GridFunction(g, vals), 0.5, [0.05, 0.1])
        trace_derivative(field)


def test_ucp_full_observation(desk_grid, desk_op):
    out = ucp_conditioning(desk_op, desk_grid.nonfar)
    # identity rows force every singular value >= 1; the stack is tall, so
    # every degree of freedom has one
    sv = out["singular_values"]
    assert sv[-1] >= 1.0
    assert len(sv) == len(desk_grid.nonfar)


def test_ucp_refinement_witness():
    # smooth candidates are far from violating the constraints at every h,
    # while the stack's smallest singular value is rounding (measured:
    # smooth 2.4e-2, 4.2e-4, 1.16e-8 against 1.0e-17, 5.9e-19, 6.9e-19)
    for h in (0.08, 0.04, 0.02):
        g = make_grid_1d(h)
        out = ucp_conditioning(assemble_quadrature(g, 0.5), "EXTERIOR_SUPPORT")
        assert len(out["singular_values"]) == len(g.nonfar)
        assert out["smooth_sigma_min"] >= 1e-9
        assert out["smooth_sigma_min"] > 100 * out["singular_values"][-1]


def test_ucp_wide_window_reports_structural_null(desk_grid, desk_op):
    # a wide stack: fewer singular values than degrees of freedom, so exact
    # double-vanishers exist, and row functionals that are independent
    out = ucp_conditioning(desk_op, "W1")
    assert len(out["singular_values"]) < len(desk_grid.nonfar)
    assert out["singular_values"][-1] > 0.0
