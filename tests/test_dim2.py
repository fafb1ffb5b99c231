"""Two-dimensional exercises of the solver chain on the annulus geometry.

The discrete identities are dimension-agnostic algebra; the reconstruction
bound is a frozen regression of what the 32-node windows resolve at h = 0.1.
"""

import numpy as np

from fraccalderon.calderon import (reconstruct_potential, reconstruction_error,
                                   simulate_measurements)
from fraccalderon.dirichlet import check_condition, dirichlet_spectrum, solve_poisson
from fraccalderon.dnmap import (assemble_dn, dn_decomposition_check,
                                dn_pointwise, integral_identity)


def test_2d_solvability_and_positivity(setup_2d):
    grid, sys_ref, sys_true, _ = setup_2d
    value, threshold = check_condition(sys_ref)
    assert value < threshold
    assert dirichlet_spectrum(sys_ref).eigenvalues[0] > 0
    f = np.zeros(len(grid.ext_support))
    f[np.searchsorted(grid.ext_support, grid.windows["W1"])] = 1.0
    u = solve_poisson(sys_ref, f)
    assert np.min(u.values[grid.interior]) > 0


def test_2d_identities(setup_2d):
    grid, sys_ref, sys_true, _ = setup_2d
    dn_full = assemble_dn(sys_true, "EXTERIOR_SUPPORT", "EXTERIOR_SUPPORT")
    M = dn_full.matrix
    assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
    rng = np.random.default_rng(0)
    f = rng.normal(size=len(grid.ext_support))
    f2 = rng.normal(size=len(grid.ext_support))
    scale = np.max(np.abs(dn_pointwise(sys_true, f)))
    u = solve_poisson(sys_true, f)
    assert dn_decomposition_check(sys_true.op, u) <= 1e-10 * scale
    out = integral_identity(sys_true, sys_ref, u, solve_poisson(sys_ref, f2))
    assert out["residual"] <= 1e-10 * max(abs(out["lhs"]), 1.0)


def test_2d_reconstruction_smoke(setup_2d):
    grid, sys_ref, sys_true, q_true = setup_2d
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    out = reconstruct_potential(meas, sys_ref, iterations=1, mode="linearized",
                                clean_beta=0.1)
    err = reconstruction_error(out["q_diff"], q_true.values, grid.h**2)
    # measured 0.309 with the interior-lattice Laplacian penalty (0.374 with
    # the 1D second difference over lexicographic order); the bound leaves
    # a 7% margin
    assert err <= 0.33
