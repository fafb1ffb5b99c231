import numpy as np
import pytest

from fraccalderon.dirichlet import assemble_system, potential_from_spec, solve_poisson
from fraccalderon.dnmap import (apply_ns, assemble_dn, dn_decomposition_check,
                                dn_pointwise, integral_identity, ns_weight)
from fraccalderon.errors import GridMismatchError
from fraccalderon.grid import GridFunction

from conftest import window_vector


def rand_ext(grid, seed, window=None):
    rng = np.random.default_rng(seed)
    if window is None:
        return rng.normal(size=len(grid.ext_support))
    return window_vector(grid, window, rng.normal(size=len(grid.windows[window])))


def solutions(sys1, sys2, f1, f2):
    """The solutions ``integral_identity`` pairs: sys1's for f1, sys2's for f2."""
    return solve_poisson(sys1, f1), solve_poisson(sys2, f2)


def test_full_dn_self_adjoint(desk_sys_bump):
    dn = assemble_dn(desk_sys_bump, "EXTERIOR_SUPPORT", "EXTERIOR_SUPPORT")
    M = dn.matrix
    assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))


def test_assemble_deterministic(desk_sys0):
    a = assemble_dn(desk_sys0, "W1", "W2")
    b = assemble_dn(desk_sys0, "W1", "W2")
    assert np.array_equal(a.matrix, b.matrix)
    assert a.fingerprint == b.fingerprint


def test_potentials_distinguishable(desk_sys0, desk_sys_bump):
    d0 = assemble_dn(desk_sys0, "W1", "W2").matrix
    d1 = assemble_dn(desk_sys_bump, "W1", "W2").matrix
    assert np.linalg.norm(d1 - d0) > 0


def test_pointwise_matches_bilinear(desk_sys_bump):
    g = desk_sys_bump.grid
    f = rand_ext(g, 1, window="W1")
    full = assemble_dn(desk_sys_bump, "EXTERIOR_SUPPORT", "EXTERIOR_SUPPORT").matrix
    lhs = full @ f
    rhs = dn_pointwise(desk_sys_bump, f)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_pointwise_zero(desk_sys0):
    g = desk_sys0.grid
    assert np.all(dn_pointwise(desk_sys0, np.zeros(len(g.ext_support))) == 0.0)


def test_readout_sign_disjoint_windows(desk_sys0):
    g = desk_sys0.grid
    dn = assemble_dn(desk_sys0, "W1", "W2")
    readout = dn.matrix @ np.ones(len(g.windows["W1"]))
    assert np.max(readout) < 0.0


def test_ns_constant_gives_zero(desk_op):
    g = desk_op.grid
    u = np.zeros(g.n_nodes)
    u[g.interior] = 4.2
    u[g.ext_support] = 4.2
    out = apply_ns(desk_op, GridFunction(g, u))
    assert np.max(np.abs(out)) <= 1e-12 * abs(4.2) * np.max(ns_weight(desk_op))


def test_ns_indicator(desk_op):
    g = desk_op.grid
    u = np.zeros(g.n_nodes)
    u[g.interior] = 1.0
    out = apply_ns(desk_op, GridFunction(g, u))
    m = ns_weight(desk_op)
    assert np.allclose(out, -m, atol=1e-13 * np.max(m))


def test_ns_two_term_formula(desk_op, desk_sys0):
    g = desk_op.grid
    rng = np.random.default_rng(8)
    u = rng.normal(size=g.n_nodes)
    u[g.far] = 0.0
    gf = GridFunction(g, u)
    direct = apply_ns(desk_op, gf)
    pos = np.full(g.n_nodes, -1, dtype=int)
    pos[g.nonfar] = np.arange(len(g.nonfar))
    chi_u = u.copy()
    chi_u[g.ext_support] = 0.0
    two_term = ns_weight(desk_op) * u[g.ext_support] \
        + (desk_op.matrix @ chi_u[g.nonfar])[pos[g.ext_support]]
    assert np.max(np.abs(direct - two_term)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("which", ["zero", "bump"])
def test_decomposition_residual(desk_sys0, desk_sys_bump, which):
    sys = {"zero": desk_sys0, "bump": desk_sys_bump}[which]
    f = rand_ext(sys.grid, 5)
    scale = np.max(np.abs(dn_pointwise(sys, f)))
    assert dn_decomposition_check(sys.op, solve_poisson(sys, f)) <= 1e-10 * scale


def test_decomposition_data_terms_are_potential_independent(desk_sys0, desk_sys_bump):
    # on a window disjoint from the source, DN and the nonlocal Neumann value
    # differ by a data term that does not involve the potential
    g = desk_sys0.grid
    f = window_vector(g, "W1", 1.0)
    w2 = np.searchsorted(g.ext_support, g.windows["W2"])
    diffs = []
    for sys in (desk_sys0, desk_sys_bump):
        u_f = solve_poisson(sys, f)
        lhs = dn_pointwise(sys, f)[w2]
        ns = apply_ns(sys.op, u_f)[w2]
        diffs.append(lhs - ns)
    assert np.max(np.abs(diffs[0] - diffs[1])) <= 1e-11 * max(np.max(np.abs(diffs[0])), 1e-30)


def test_integral_identity_zero_for_equal_potentials(desk_sys0):
    g = desk_sys0.grid
    f1, f2 = rand_ext(g, 6), rand_ext(g, 7)
    out = integral_identity(desk_sys0, desk_sys0, *solutions(desk_sys0, desk_sys0, f1, f2))
    assert out["lhs"] == pytest.approx(0.0, abs=1e-14)
    assert out["rhs"] == 0.0


def test_integral_identity_exact(desk_sys0, desk_sys_bump):
    g = desk_sys0.grid
    f1, f2 = rand_ext(g, 8), rand_ext(g, 9)
    out = integral_identity(desk_sys_bump, desk_sys0,
                            *solutions(desk_sys_bump, desk_sys0, f1, f2))
    assert out["residual"] <= 1e-10 * max(abs(out["lhs"]), 1.0)
    # swap antisymmetry
    swapped = integral_identity(desk_sys0, desk_sys_bump,
                                *solutions(desk_sys0, desk_sys_bump, f2, f1))
    assert swapped["lhs"] == pytest.approx(-out["lhs"], rel=1e-9)


def test_integral_identity_constant_shift(desk_op, desk_sys0):
    g = desk_op.grid
    sys1 = assemble_system(desk_op, potential_from_spec(g, 1.0))
    f1, f2 = rand_ext(g, 10), rand_ext(g, 11)
    out = integral_identity(sys1, desk_sys0, *solutions(sys1, desk_sys0, f1, f2))
    assert out["residual"] <= 1e-10 * max(abs(out["lhs"]), 1.0)


def test_grid_mismatch_raises(desk_sys0, fine_sys0):
    g = desk_sys0.grid
    u = solve_poisson(desk_sys0, rand_ext(g, 12))
    with pytest.raises(GridMismatchError):
        integral_identity(desk_sys0, fine_sys0, u, u)
    with pytest.raises(GridMismatchError):
        apply_ns(fine_sys0.op, GridFunction(g, np.zeros(g.n_nodes)))
