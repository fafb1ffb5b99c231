import numpy as np
import pytest

from fraccalderon.dirichlet import solve_poisson, solve_source
from fraccalderon.errors import GeometryError, IllConditionedWarning
from fraccalderon.runge import alpha_sweep, control_to_interior_matrix, runge_approximate

from conftest import make_grid_1d, window_vector


def adjoint_apply(sys, v, window):
    """The oracle of these tests: the adjoint of the control-to-interior map
    under the h^dim weighted pairings.  Solve the source problem for v and
    read the negated operator action on the window (window basis vectors
    vanish on the domain, so the potential term drops)."""
    nodes, _ = sys.grid.exterior_window(window)
    return -sys.op.apply(solve_source(sys, np.asarray(v, dtype=float)).values, nodes)


def test_adjoint_identity(desk_sys_bump):
    # defining property of the adjoint: pairing with every window basis vector
    g = desk_sys_bump.grid
    hn = g.h
    rng = np.random.default_rng(0)
    v = rng.normal(size=len(g.interior))
    adj = adjoint_apply(desk_sys_bump, v, "W1")
    K = control_to_interior_matrix(desk_sys_bump, "W1")
    for k in range(K.shape[1]):
        lhs = hn * float(v @ K[:, k])
        rhs = hn * float(adj[k])
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_adjoint_zero(desk_sys0):
    g = desk_sys0.grid
    assert np.all(adjoint_apply(desk_sys0, np.zeros(len(g.interior)), "W1") == 0.0)


def test_stationarity(desk_sys0):
    # at the optimum, adjoint(achieved - target) = -alpha * control
    g = desk_sys0.grid
    target = np.ones(len(g.interior))
    alpha = 1e-6
    res = runge_approximate(desk_sys0, "W1", target, alpha=alpha)
    lhs = adjoint_apply(desk_sys0, res.achieved - target, "W1")
    rhs = -alpha * res.control
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(np.max(np.abs(rhs)), 1e-12)


def test_target_in_range(desk_sys0):
    g = desk_sys0.grid
    rng = np.random.default_rng(1)
    g0 = rng.normal(size=len(g.windows["W1"]))
    f_es = window_vector(g, "W1", g0)
    target = solve_poisson(desk_sys0, f_es).values[g.interior]
    res = runge_approximate(desk_sys0, "W1", target, alpha=1e-12)
    rel = res.residual / (np.sqrt(g.h) * np.linalg.norm(target))
    assert rel <= 1e-6


def test_residual_monotone_in_alpha(fine_sys0):
    g = fine_sys0.grid
    target = np.ones(len(g.interior))
    results = alpha_sweep(fine_sys0, "W1", target)
    resids = [r.residual for r in results]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(resids, resids[1:]))


def test_sign_target_regression(fine_sys0):
    # discontinuous target: attainable level at h=0.02 frozen from the sweep
    g = fine_sys0.grid
    target = np.sign(g.coords[g.interior, 0])
    res = runge_approximate(fine_sys0, "W1", target, alpha=1e-10)
    rel = res.residual / (np.sqrt(g.h) * np.linalg.norm(target))
    assert rel <= 0.40


def test_window_enlargement_helps(fine_sys0):
    g = fine_sys0.grid
    target = np.sign(g.coords[g.interior, 0])
    small = runge_approximate(fine_sys0, "W1", target, alpha=1e-10)
    wide_grid = make_grid_1d(0.02, windows={
        "W1": {"type": "interval", "bounds": [1.05, 1.95]}})
    from fraccalderon import assemble_quadrature
    from fraccalderon.dirichlet import assemble_system, potential_from_spec
    wide_sys = assemble_system(assemble_quadrature(wide_grid, 0.5),
                               potential_from_spec(wide_grid, 0.0))
    wide = runge_approximate(wide_sys, "W1", np.sign(wide_grid.coords[wide_grid.interior, 0]),
                             alpha=1e-10)
    assert wide.residual <= small.residual


def test_ill_conditioned_warning(desk_sys0):
    g = desk_sys0.grid
    target = np.ones(len(g.interior))
    with pytest.warns(IllConditionedWarning):
        runge_approximate(desk_sys0, "W1", target, alpha=1e-16)


def test_pinv_fallback(desk_sys0):
    g = desk_sys0.grid
    target = np.ones(len(g.interior))
    res = runge_approximate(desk_sys0, "W1", target, alpha=0.0)
    assert np.isfinite(res.residual)
    assert np.all(np.isfinite(res.control))


def test_large_window_dense_stationarity():
    # a window above 400 nodes takes the same SVD path and meets the
    # optimality condition K^T(achieved - target) = -alpha * control
    from fraccalderon import assemble_quadrature, build_grid
    from fraccalderon.dirichlet import assemble_system, potential_from_spec
    g = build_grid(1, 0.002, 1.5,
                   {"type": "interval", "bounds": [-0.1, 0.1]},
                   {"type": "interval", "bounds": [-1.0, 1.0]},
                   {"W1": {"type": "interval", "bounds": [0.15, 1.0]}})
    assert len(g.windows["W1"]) > 400
    sys = assemble_system(assemble_quadrature(g, 0.5), potential_from_spec(g, 0.0))
    target = np.ones(len(g.interior))
    alpha = 1e-4
    res = runge_approximate(sys, "W1", target, alpha=alpha)
    K = control_to_interior_matrix(sys, "W1")
    rhs = -alpha * res.control
    scale = max(np.max(np.abs(rhs)), 1e-12)
    assert np.max(np.abs(K.T @ (res.achieved - target) - rhs)) <= 1e-9 * scale
    lhs = adjoint_apply(sys, res.achieved - target, "W1")
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_window_outside_exterior_support_rejected(desk_sys0):
    g = desk_sys0.grid
    nodes = g.interior[:3]
    with pytest.raises(GeometryError):
        control_to_interior_matrix(desk_sys0, nodes)
    with pytest.raises(GeometryError):
        runge_approximate(desk_sys0, nodes, np.ones(len(g.interior)))
    with pytest.raises(GeometryError):
        adjoint_apply(desk_sys0, np.ones(len(g.interior)), nodes)


def test_target_matrix_matches_single_columns(desk_sys_bump):
    # one window solve and SVD serve every target column: a target matrix
    # gives what one call per column gives
    g = desk_sys_bump.grid
    rng = np.random.default_rng(2)
    targets = np.column_stack([np.ones(len(g.interior)), np.sign(g.coords[g.interior, 0]),
                               rng.normal(size=len(g.interior))])
    many = runge_approximate(desk_sys_bump, "W1", targets, alpha=1e-8)
    assert many.control.shape == (len(g.windows["W1"]), 3)
    assert many.achieved.shape == targets.shape
    for k in range(targets.shape[1]):
        one = runge_approximate(desk_sys_bump, "W1", targets[:, k], alpha=1e-8)
        for got, want in ((many.control[:, k], one.control),
                          (many.achieved[:, k], one.achieved)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert many.residual[k] == pytest.approx(one.residual, rel=1e-12)
        assert many.control_norm[k] == pytest.approx(one.control_norm, rel=1e-12)


def test_alpha_sweep_matches_single_alphas(desk_sys0):
    # the sweep reuses one window solve and SVD: same values, and the
    # ill-conditioning warning still fires once per ill-conditioned alpha;
    # a target matrix swept gives, column by column, each alpha's single
    # column result
    import warnings
    g = desk_sys0.grid
    target = np.ones(len(g.interior))
    alphas = [1e-2, 1e-8, 1e-16, 0.0]
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        results = alpha_sweep(desk_sys0, "W1", target, alphas=alphas)
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        want = [runge_approximate(desk_sys0, "W1", target, alpha=a) for a in alphas]
    ill = [w for w in swept if issubclass(w.category, IllConditionedWarning)]
    assert len(ill) == sum(r.condition > 1e14 for r in want) >= 1
    assert len(ill) == len([w for w in single if issubclass(w.category, IllConditionedWarning)])
    for r, w in zip(results, want):
        assert r.alpha == w.alpha and r.condition == w.condition
        assert r.residual == w.residual and r.control_norm == w.control_norm
        assert np.array_equal(r.control, w.control)
    # the matrix products round differently for one column and for two: the
    # controls agree to 7.2e-16, what K maps them to to 4.3e-14 at the
    # conditioned alphas and to 1.5e-6 at the two the warning flags
    # (conditions 6.7e14 and 9.1e30)
    targets = np.column_stack([target, np.sign(g.coords[g.interior, 0])])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        many = alpha_sweep(desk_sys0, "W1", targets, alphas=alphas)
        for r, a in zip(many, alphas):
            assert r.alpha == a and r.control.shape == (len(g.windows["W1"]), 2)
            tol = 1e-12 if r.condition <= 1e14 else 1e-5
            for k in range(targets.shape[1]):
                one = runge_approximate(desk_sys0, "W1", targets[:, k], alpha=a)
                assert r.condition == one.condition
                assert np.linalg.norm(r.control[:, k] - one.control) <= \
                    1e-12 * np.linalg.norm(one.control)
                assert np.linalg.norm(r.achieved[:, k] - one.achieved) <= \
                    tol * np.linalg.norm(one.achieved)
                for x, y in ((r.residual[k], one.residual),
                             (r.control_norm[k], one.control_norm),
                             (r.relative_residual[k], one.relative_residual)):
                    assert x == pytest.approx(y, rel=tol)
