import numpy as np
import pytest

from fraccalderon import GridFunction, build_grid
from fraccalderon.dirichlet import dirichlet_spectrum, solve_poisson
from fraccalderon.diffusion import decay_series, dn_cost_check, evolve, heat_kernel_free
from fraccalderon.errors import DomainError, GridMismatchError, ModeMismatchError

from conftest import window_vector


@pytest.fixture(scope="module")
def heat_grid():
    return build_grid(1, 0.01, 4.0,
                      {"type": "interval", "bounds": [-1, 1]},
                      {"type": "interval", "bounds": [-2, 2]},
                      {"W1": {"type": "interval", "bounds": [1.2, 1.8]}})


def interior_state(sys, values):
    full = np.zeros(sys.grid.n_nodes)
    full[sys.grid.interior] = values
    return GridFunction(sys.grid, full)


def test_t_zero_identity(desk_sys0):
    g = desk_sys0.grid
    rng = np.random.default_rng(0)
    u0 = interior_state(desk_sys0, rng.normal(size=len(g.interior)))
    st = evolve(desk_sys0, u0, 0.0)
    assert np.allclose(st.values, u0.values, atol=1e-14)


def test_single_mode_decay(desk_sys0):
    spec = dirichlet_spectrum(desk_sys0)
    phi1 = interior_state(desk_sys0, spec.eigenvectors[:, 0])
    for t in (0.5, 2.0):
        st = evolve(desk_sys0, phi1, t)
        norm = np.linalg.norm(st.values[desk_sys0.grid.interior])
        assert norm == pytest.approx(np.exp(-spec.eigenvalues[0] * t), rel=1e-12)


def test_semigroup_property(desk_sys0):
    g = desk_sys0.grid
    rng = np.random.default_rng(1)
    u0 = interior_state(desk_sys0, rng.normal(size=len(g.interior)))
    two_step = evolve(desk_sys0, evolve(desk_sys0, u0, 0.3), 0.7)
    one_step = evolve(desk_sys0, u0, 1.0)
    assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-12


def test_contraction_for_nonnegative_q(desk_sys_bump):
    g = desk_sys_bump.grid
    rng = np.random.default_rng(2)
    u0 = interior_state(desk_sys_bump, rng.normal(size=len(g.interior)))
    n0 = np.linalg.norm(u0.values)
    prev = n0
    for t in (0.1, 0.5, 2.0):
        st = evolve(desk_sys_bump, u0, t)
        n = np.linalg.norm(st.values)
        assert n <= prev * (1 + 1e-13)
        prev = n


def test_clamped_convergence_rate(desk_sys0):
    g = desk_sys0.grid
    f = window_vector(g, "W1", 1.0)
    u_f = solve_poisson(desk_sys0, f)
    rng = np.random.default_rng(3)
    v0 = u_f.values.copy()
    v0[g.interior] += rng.normal(size=len(g.interior))
    lam1 = dirichlet_spectrum(desk_sys0).eigenvalues[0]
    d0 = np.linalg.norm(v0 - u_f.values)
    for t in (0.1, 1.0, 10.0):
        st = evolve(desk_sys0, GridFunction(g, v0), t, steady=u_f)
        assert np.linalg.norm(st.values - u_f.values) \
            <= np.exp(-lam1 * t) * d0 * (1 + 1e-12)


def test_steady_state_fixed_point(desk_sys0):
    g = desk_sys0.grid
    f = window_vector(g, "W1", 1.0)
    u_f = solve_poisson(desk_sys0, f)
    for t in (0.5, 5.0):
        st = evolve(desk_sys0, u_f, t, steady=u_f)
        assert np.max(np.abs(st.values - u_f.values)) <= 1e-12


def test_mode_mismatch_errors(desk_sys0):
    g = desk_sys0.grid
    bad = np.zeros(g.n_nodes)
    bad[g.ext_support[0]] = 1.0
    with pytest.raises(ModeMismatchError):
        evolve(desk_sys0, GridFunction(g, bad), 1.0)
    f = window_vector(g, "W1", 1.0)
    with pytest.raises(ModeMismatchError):
        evolve(desk_sys0, GridFunction(g, np.zeros(g.n_nodes)), 1.0,
               steady=solve_poisson(desk_sys0, f))


def test_steady_state_of_another_grid_raises(desk_sys0, fine_sys0):
    g = desk_sys0.grid
    steady = solve_poisson(fine_sys0, window_vector(fine_sys0.grid, "W1", 1.0))
    state = GridFunction(g, np.zeros(g.n_nodes))
    for call in (lambda: evolve(desk_sys0, state, 1.0, steady),
                 lambda: decay_series(desk_sys0, state, steady, [1.0]),
                 lambda: dn_cost_check(desk_sys0, steady)):
        with pytest.raises(GridMismatchError):
            call()


def test_heat_kernel_closed_form(heat_grid):
    t = 0.3
    k = heat_kernel_free(heat_grid, 0.5, t, pad_factor=512)
    x = heat_grid.coords[:, 0]
    exact = (1.0 / np.pi) * t / (t * t + x * x)
    sel = np.abs(x) <= 2.0
    assert np.max(np.abs(k.values[sel] - exact[sel]) / exact[sel]) <= 1e-5


def test_heat_kernel_mass(heat_grid):
    # light tail regime so the in-box truncation stays below 1e-4
    k = heat_kernel_free(heat_grid, 0.8, 0.002, pad_factor=64)
    assert abs(heat_grid.h * np.sum(k.values) - 1.0) <= 1e-4


def test_heat_kernel_heavy_tail(heat_grid):
    s = 0.75
    k = heat_kernel_free(heat_grid, s, 0.05, pad_factor=64)
    x = heat_grid.coords[:, 0]
    sel = (x >= 1.0) & (x <= 2.0)
    ratio = k.values[sel] * np.abs(x[sel]) ** (1 + 2 * s)
    assert ratio.max() / ratio.min() <= 1.25


def test_heat_kernel_domain_errors(heat_grid, grid_2d):
    with pytest.raises(DomainError):
        heat_kernel_free(heat_grid, 0.5, -1.0)
    with pytest.raises(DomainError):
        heat_kernel_free(grid_2d, 0.5, 0.1)


def test_dn_cost_richardson(desk_sys0):
    g = desk_sys0.grid
    u_f = solve_poisson(desk_sys0, window_vector(g, "W1", 1.0))
    out = dn_cost_check(desk_sys0, u_f)
    assert out["deviation"] <= 0.01
    ratio = out["deviation"] / out["deviation_half"]
    assert abs(ratio - 2.0) <= 0.3


def test_dn_cost_zero_data(desk_sys0):
    g = desk_sys0.grid
    out = dn_cost_check(desk_sys0, solve_poisson(desk_sys0, np.zeros(len(g.ext_support))))
    assert out["deviation"] == 0.0


def test_decay_series_matches_evolve(desk_sys0):
    # the distances of the clamped evolution at each time, for the steady
    # state of a window clamp and for the zero clamp (steady None); zero
    # from the steady state itself; evolve's input checks kept
    g = desk_sys0.grid
    u_f = solve_poisson(desk_sys0, window_vector(g, "W1", 1.0))
    noise = np.random.default_rng(3).normal(size=len(g.interior))
    times = [0.0, 0.3, 2.0]
    for steady in (u_f, None):
        v0 = np.zeros(g.n_nodes) if steady is None else steady.values.copy()
        v0[g.interior] += noise
        v0 = GridFunction(g, v0)
        rest = 0.0 if steady is None else u_f.values
        want = [np.sqrt(g.h) * np.linalg.norm(evolve(desk_sys0, v0, t, steady).values - rest)
                for t in times]
        rows = decay_series(desk_sys0, v0, steady, times)
        assert [t for t, _ in rows] == times
        assert np.allclose([d for _, d in rows], want, rtol=1e-12, atol=1e-15)
    assert all(d <= 1e-12 for _, d in decay_series(desk_sys0, u_f, u_f, [0.1, 1.0]))
    with pytest.raises(ModeMismatchError):
        decay_series(desk_sys0, GridFunction(g, np.zeros(g.n_nodes)), u_f, times)
    with pytest.raises(DomainError):
        decay_series(desk_sys0, v0, None, [1.0, -0.5])
