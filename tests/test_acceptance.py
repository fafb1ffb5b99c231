"""Acceptance suite: one test per criterion, printing a pass line each.

Tolerances are pinned here; empirical bounds were frozen from the first
converged runs of this implementation and act as regressions.
"""

import time

import numpy as np

from fraccalderon import GridFunction, apply_spectral, assemble_quadrature, build_grid
from fraccalderon.calderon import (reconstruct_potential, reconstruction_error,
                                   simulate_measurements)
from fraccalderon.dirichlet import (assemble_system, dirichlet_spectrum,
                                    potential_from_spec, solve_poisson)
from fraccalderon.diffusion import dn_cost_check, evolve, heat_kernel_free
from fraccalderon.dnmap import (assemble_dn, dn_decomposition_check,
                                dn_pointwise, integral_identity)
from fraccalderon.extension import cs_extend, trace_derivative, trace_ladder, ucp_conditioning
from fraccalderon.runge import alpha_sweep

from conftest import make_grid_1d, smooth_bump, window_vector


def _report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_1_operator_cross_validation(fine_grid):
    """Quadrature vs spectral on 10 random smooth bumps, three orders."""
    t0 = time.time()
    pads = {0.25: 1024, 0.5: 256, 0.75: 256}
    worst = {}
    for s in (0.25, 0.5, 0.75):
        op = assemble_quadrature(fine_grid, s)
        rng = np.random.default_rng(0)
        w = 0.0
        for _ in range(10):
            vals = smooth_bump(fine_grid, rng.uniform(-0.5, 0.5), rng.uniform(0.15, 0.2))
            quad = op.matrix @ vals[fine_grid.nonfar]
            spec = apply_spectral(GridFunction(fine_grid, vals), s, pads[s]).values[fine_grid.nonfar]
            w = max(w, np.linalg.norm(quad - spec) / np.linalg.norm(spec))
        worst[s] = w
        assert w <= 5e-3

    # discrepancy decreases under h-halving
    halved = make_grid_1d(0.01)
    for s in (0.25, 0.5, 0.75):
        op = assemble_quadrature(halved, s)
        rng = np.random.default_rng(0)
        w = 0.0
        for _ in range(10):
            vals = smooth_bump(halved, rng.uniform(-0.5, 0.5), rng.uniform(0.15, 0.2))
            quad = op.matrix @ vals[halved.nonfar]
            spec = apply_spectral(GridFunction(halved, vals), s, pads[s]).values[halved.nonfar]
            w = max(w, np.linalg.norm(quad - spec) / np.linalg.norm(spec))
        assert w < worst[s]
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    _report("criterion 1 (operator cross-validation)",
            f"max rel discrepancy {max(worst.values()):.2e} <= 5e-3, "
            f"decreasing under h-halving, {elapsed:.1f}s")


def test_criterion_2_exact_discrete_identities(desk_op, desk_sys0, desk_sys_bump):
    """Self-adjointness, pointwise = bilinear, decomposition, integral identity."""
    g = desk_op.grid
    rng = np.random.default_rng(42)

    dn_full = assemble_dn(desk_sys_bump, "EXTERIOR_SUPPORT", "EXTERIOR_SUPPORT")
    M = dn_full.matrix
    sym = np.max(np.abs(M - M.T)) / np.max(np.abs(M))
    assert sym <= 1e-10

    f = rng.normal(size=len(g.ext_support))
    point = dn_pointwise(desk_sys_bump, f)
    agree = np.max(np.abs(M @ f - point)) / np.max(np.abs(point))
    assert agree <= 1e-10

    scale = np.max(np.abs(point))
    u = solve_poisson(desk_sys_bump, f)
    dec = dn_decomposition_check(desk_op, u) / scale
    assert dec <= 1e-10

    f2 = rng.normal(size=len(g.ext_support))
    out = integral_identity(desk_sys_bump, desk_sys0, u, solve_poisson(desk_sys0, f2))
    ii = out["residual"] / max(abs(out["lhs"]), 1.0)
    assert ii <= 1e-10
    _report("criterion 2 (exact discrete identities)",
            f"self-adjointness {sym:.1e}, pointwise {agree:.1e}, "
            f"decomposition {dec:.1e}, integral identity {ii:.1e}, all <= 1e-10")


def test_criterion_3_heat_kernel_closed_form():
    """s = 1/2 kernel matches c1 t (t^2 + x^2)^(-1), c1 = 1/pi, to 1e-6."""
    g = build_grid(1, 0.01, 4.0,
                   {"type": "interval", "bounds": [-1, 1]},
                   {"type": "interval", "bounds": [-2, 2]},
                   {"W1": {"type": "interval", "bounds": [1.2, 1.8]}})
    t = 0.08
    k = heat_kernel_free(g, 0.5, t, pad_factor=512)
    x = g.coords[:, 0]
    exact = (1.0 / np.pi) * t / (t * t + x * x)
    sel = np.abs(x) <= 2.0
    rel = np.max(np.abs(k.values[sel] - exact[sel]) / exact[sel])
    assert rel <= 1e-6
    _report("criterion 3 (heat kernel closed form)",
            f"max rel deviation {rel:.2e} <= 1e-6 on the inner half-box")


def test_criterion_4_extension_identity(fine_grid):
    """Weighted trace of the extension reproduces the operator to 5e-3."""
    worst = 0.0
    vals = smooth_bump(fine_grid, 0.0, 0.2)
    u = GridFunction(fine_grid, vals)
    for s in (0.25, 0.5, 0.75):
        field = cs_extend(u, s, trace_ladder(fine_grid.h))
        td = trace_derivative(field, s).values[fine_grid.nonfar]
        spec = apply_spectral(u, s, 64).values[fine_grid.nonfar]
        worst = max(worst, np.linalg.norm(td - spec) / np.linalg.norm(spec))
    assert worst <= 5e-3
    _report("criterion 4 (extension identity)",
            f"max rel deviation {worst:.2e} <= 5e-3 for s in {{0.25, 0.5, 0.75}}")


def test_criterion_5_runge_density(fine_sys0):
    """Constant target: monotone alpha path reaching <= 10% of target norm."""
    g = fine_sys0.grid
    target = np.ones(len(g.interior))
    alphas = list(np.logspace(-2, -12, 11)) + [0.0]
    results = alpha_sweep(fine_sys0, "W1", target, alphas=alphas)
    resids = [r.residual for r in results]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(resids, resids[1:]))
    final = resids[-1] / (np.sqrt(g.h) * np.linalg.norm(target))
    assert final <= 0.10
    _report("criterion 5 (Runge density in action)",
            f"monotone residual path, final {final:.3f} <= 0.10 of target norm")


def test_criterion_6_inverse_problem(desk_op):
    """Desk-scale reconstruction: clean <= 15%, noisy <= 2x clean, <= 3 min."""
    t0 = time.time()
    grid = desk_op.grid
    sys_ref = assemble_system(desk_op, potential_from_spec(grid, 0.0))
    q_true = potential_from_spec(
        grid, {"type": "gaussian", "amplitude": 0.5, "center": 0.0, "width": 0.4})
    sys_true = assemble_system(desk_op, q_true)

    clean = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=0.0, seed=7)
    out_c = reconstruct_potential(clean, sys_ref, iterations=2, mode="linearized",
                                  clean_beta=0.1)
    err_c = reconstruction_error(out_c["q_diff"], q_true.values, grid.h)
    assert err_c <= 0.15

    noisy = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=7)
    out_n = reconstruct_potential(noisy, sys_ref, iterations=2, mode="linearized",
                                  clean_beta=0.1)
    err_n = reconstruction_error(out_n["q_diff"], q_true.values, grid.h)
    assert err_n <= 2.0 * err_c
    elapsed = time.time() - t0
    assert elapsed <= 180.0
    _report("criterion 6 (end-to-end inverse problem)",
            f"clean error {err_c:.3f} <= 0.15, noisy {err_n:.3f} <= 2x clean, "
            f"{elapsed:.1f}s")


def test_criterion_7_uniqueness_witness():
    """Double-vanishing constraints: smooth candidates' sigma_min >= 1e-9 and
    more than 100x the stack's smallest singular value, which is rounding."""
    details = []
    for h in (0.08, 0.04, 0.02):
        g = make_grid_1d(h)
        out = ucp_conditioning(assemble_quadrature(g, 0.5), "EXTERIOR_SUPPORT")
        smooth, smallest = out["smooth_sigma_min"], out["singular_values"][-1]
        assert smooth >= 1e-9
        assert smooth > 100 * smallest
        details.append(f"h={h}: smooth={smooth:.1e}, smallest={smallest:.1e}")
    _report("criterion 7 (uniqueness witness)", "; ".join(details))


def test_criterion_8_diffusion(desk_sys0):
    """Semigroup to 1e-12, spectral decay bound, Richardson ratio 2 +- 0.3."""
    g = desk_sys0.grid
    rng = np.random.default_rng(3)
    f = window_vector(g, "W1", 1.0)
    u_f = solve_poisson(desk_sys0, f)
    v0 = u_f.values.copy()
    v0[g.interior] += rng.normal(size=len(g.interior))

    a = evolve(desk_sys0, GridFunction(g, v0), 0.4, steady=u_f)
    b = evolve(desk_sys0, a, 0.6, steady=u_f)
    c = evolve(desk_sys0, GridFunction(g, v0), 1.0, steady=u_f)
    semi = np.max(np.abs(b.values - c.values))
    assert semi <= 1e-12

    lam1 = dirichlet_spectrum(desk_sys0).eigenvalues[0]
    d0 = np.linalg.norm(v0 - u_f.values)
    for t in (0.1, 1.0, 5.0):
        st = evolve(desk_sys0, GridFunction(g, v0), t, steady=u_f)
        assert np.linalg.norm(st.values - u_f.values) \
            <= np.exp(-lam1 * t) * d0 * (1 + 1e-12)

    out = dn_cost_check(desk_sys0, u_f)
    ratio = out["deviation"] / out["deviation_half"]
    assert abs(ratio - 2.0) <= 0.3
    _report("criterion 8 (diffusion)",
            f"semigroup {semi:.1e} <= 1e-12, decay bounded by exp(-lambda1 t), "
            f"Richardson ratio {ratio:.3f} in 2 +- 0.3")
