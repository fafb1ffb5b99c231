import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from fraccalderon import assemble_quadrature, build_grid
from fraccalderon.dirichlet import (CONDITION_TOL, Potential,
                                    assemble_system, check_condition,
                                    dirichlet_spectrum, lowest_eigenvectors,
                                    potential_from_spec, solve_poisson, solve_source)
from fraccalderon.errors import ConfigError, DomainError, SingularSystemError

from conftest import DenseOperator, make_grid_1d, window_vector

# Converged first Dirichlet eigenvalue for q = 0, s = 1/2 on (-1, 1):
# Richardson extrapolation of this assembly at h in {0.04, 0.02, 0.01}
# gives 1.15774 (observed first-order rate in h).
LAMBDA1_CONVERGED = 1.158


def test_lambda1_value(fine_sys0):
    lam1 = dirichlet_spectrum(fine_sys0).eigenvalues[0]
    assert lam1 == pytest.approx(LAMBDA1_CONVERGED, rel=0.02)


def test_spectrum_invariants(desk_sys_bump):
    spec = dirichlet_spectrum(desk_sys_bump)
    w, v = spec.eigenvalues, spec.eigenvectors
    assert np.all(np.diff(w) >= 0)
    scale = np.max(np.abs(w))
    resid = np.max(np.abs(desk_sys_bump.interior_matrix @ v - v * w))
    assert resid <= 1e-10 * scale
    assert np.max(np.abs(v.T @ v - np.eye(len(w)))) <= 1e-12
    q_minus = np.max(np.clip(-desk_sys_bump.potential.values, 0, None))
    assert w[0] > -q_minus


def test_lowest_eigenvectors_are_the_spectrum_columns(desk_op):
    # the 1D desk eigenvalues are simple (neighbouring gaps at least 8 % of
    # the 11th eigenvalue), so the partial eigh returns the full spectrum's
    # first columns up to sign (measured 8.8e-15 at k = 10) and caches
    # nothing on the system
    q = potential_from_spec(desk_op.grid, {
        "type": "gaussian", "amplitude": 0.5, "center": 0.0, "width": 0.4})
    sys = assemble_system(desk_op, q)
    V = lowest_eigenvectors(desk_op, q, 10)
    assert sys._spectrum is None
    full = dirichlet_spectrum(sys).eigenvectors[:, :10]
    sign = np.sign(np.sum(full * V, axis=0))
    assert np.max(np.abs(full * sign - V)) <= 1e-13


def test_constant_shift_is_exact(desk_op):
    g = desk_op.grid
    s0 = assemble_system(desk_op, potential_from_spec(g, 0.0))
    s3 = assemble_system(desk_op, potential_from_spec(g, 3.0))
    w0 = dirichlet_spectrum(s0).eigenvalues
    w3 = dirichlet_spectrum(s3).eigenvalues
    assert np.allclose(w3, w0 + 3.0, rtol=0, atol=1e-11 * np.max(np.abs(w3)))


def _solvable(sys):
    # check_condition's gate: solvable iff its value is below its threshold
    value, threshold = check_condition(sys)
    return value < threshold


def test_nonnegative_q_always_solvable(desk_op):
    g = desk_op.grid
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = Potential(g, rng.uniform(0.0, 3.0, size=len(g.interior)))
        sys = assemble_system(desk_op, q)
        assert _solvable(sys)
        assert dirichlet_spectrum(sys).eigenvalues[0] > 0


def test_check_condition_cases(desk_op, desk_sys0):
    g = desk_op.grid
    assert _solvable(desk_sys0)
    lam1 = dirichlet_spectrum(desk_sys0).eigenvalues[0]
    resonant = assemble_system(desk_op, potential_from_spec(g, -float(lam1)))
    assert check_condition(resonant) == (-resonant.rcond, -CONDITION_TOL)
    assert not _solvable(resonant)
    with pytest.raises(SingularSystemError):
        solve_poisson(resonant, np.zeros(len(g.ext_support)))
    shifted = assemble_system(desk_op, potential_from_spec(g, 1.0))
    assert shifted.rcond * shifted.anorm >= 1.0


@pytest.fixture(scope="module")
def resonant(desk_op, desk_sys0):
    """Desk system whose potential puts zero on the Dirichlet spectrum."""
    lam1 = dirichlet_spectrum(desk_sys0).eigenvalues[0]
    return assemble_system(desk_op, potential_from_spec(desk_op.grid, -float(lam1)))


@pytest.mark.parametrize("entry", [
    "solve_poisson", "solve_source", "assemble_dn", "dn_pointwise",
    "control_to_interior_matrix", "evolve_homogeneous", "decay_series_homogeneous",
    "reconstruct_potential"])
def test_resonant_system_refused(entry, resonant, desk_sys0, desk_sys_bump):
    from dataclasses import replace

    from fraccalderon import GridFunction
    from fraccalderon.calderon import reconstruct_potential, simulate_measurements
    from fraccalderon.diffusion import decay_series, evolve
    from fraccalderon.dnmap import assemble_dn, dn_pointwise
    from fraccalderon.runge import control_to_interior_matrix
    g = resonant.grid
    f = np.ones(len(g.ext_support))
    calls = {
        "solve_poisson": lambda: solve_poisson(resonant, f),
        "solve_source": lambda: solve_source(resonant, np.ones(len(g.interior))),
        "assemble_dn": lambda: assemble_dn(resonant, "W1", "W2"),
        "dn_pointwise": lambda: dn_pointwise(resonant, f),
        "control_to_interior_matrix": lambda: control_to_interior_matrix(resonant, "W1"),
        "evolve_homogeneous": lambda: evolve(resonant, GridFunction(g, np.zeros(g.n_nodes)),
                                             1.0),
        "decay_series_homogeneous": lambda: decay_series(
            resonant, GridFunction(g, np.zeros(g.n_nodes)), None, [1.0]),
        # data measured against the resonant reference itself, which the
        # reconstruction is handed and must refuse to solve with
        "reconstruct_potential": lambda: reconstruct_potential(
            replace(simulate_measurements(desk_sys_bump, desk_sys0, "W1", "W2"),
                    reference=resonant.potential), resonant),
    }
    with pytest.raises(SingularSystemError):
        calls[entry]()


def test_solve_path_runs_no_eigendecomposition(desk_op, monkeypatch):
    # solvability is read from the LU that solves, so no solve or inversion
    # entry point runs an eigendecomposition; fresh systems, so that no
    # cached spectrum hides one
    from fraccalderon.calderon import reconstruct_potential, simulate_measurements
    from fraccalderon.dnmap import assemble_dn
    from fraccalderon.runge import control_to_interior_matrix
    calls = []
    for module in (scipy.linalg, np.linalg):
        def counting(*args, _real=module.eigh, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "eigh", counting)
    g = desk_op.grid
    sys0 = assemble_system(desk_op, potential_from_spec(g, 0.0))
    bump = assemble_system(desk_op, potential_from_spec(
        g, {"type": "gaussian", "amplitude": 0.5, "center": 0.0, "width": 0.4}))
    solve_poisson(sys0, np.ones(len(g.ext_support)))
    solve_source(bump, np.ones(len(g.interior)))
    assemble_dn(bump, "W1", "W2")
    control_to_interior_matrix(sys0, "W1")
    reconstruct_potential(simulate_measurements(bump, sys0, "W1", "W2"), sys0,
                          iterations=2, mode="linearized")
    assert len(calls) == 0
    dirichlet_spectrum(sys0)        # the counter sees the spectrum's eigh
    assert len(calls) == 1


def _rcond(sys):
    return sys.rcond * sys.anorm / np.linalg.norm(sys.interior_matrix, 1)


def test_rcond_within_factor_n_of_eigenvalue_ratio(desk_sys0, desk_sys_bump, setup_2d):
    # the gate's 1-norm rcond estimate against the 2-norm ratio
    # min|lambda|/max|lambda| that the eigenvalue gate used
    _, sys_ref, sys_true, _ = setup_2d
    for sys in (desk_sys0, desk_sys_bump, sys_ref, sys_true):
        n_int = len(sys.grid.interior)
        w = np.abs(dirichlet_spectrum(sys).eigenvalues)
        ratio = w.min() / w.max()
        assert ratio / n_int <= _rcond(sys) <= ratio * n_int


def test_resonant_rcond_below_tolerance(desk_op, desk_sys0):
    # near-resonant (q = -lambda_1) and exactly singular (a zero row and
    # column, so a zero pivot) systems read rcond <= CONDITION_TOL from their
    # LU, and the refusal is the only report: no LinAlgWarning ahead of it
    g = desk_op.grid
    lam1 = dirichlet_spectrum(desk_sys0).eigenvalues[0]
    q = potential_from_spec(g, -float(lam1))
    resonant = assemble_system(desk_op, q)
    dense = desk_op.matrix
    r = desk_op.rows(g.interior[:1])[0]
    dense[r, :] = 0.0
    dense[:, r] = 0.0
    dense[r, r] = -q.values[0]          # cancels q on the diagonal
    exact = assemble_system(DenseOperator(desk_op, dense), q)
    assert not np.any(exact.interior_matrix[0]) and not np.any(exact.interior_matrix[:, 0])
    for sys in (resonant, exact):
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            with pytest.raises(SingularSystemError):
                solve_poisson(sys, np.zeros(len(g.ext_support)))
        assert not _solvable(sys)
        assert _rcond(sys) <= CONDITION_TOL


def test_system_is_its_lu(desk_sys_bump):
    # one factorization, returned by ``lu()`` as the same tuple on every
    # call, and the interior matrix gathered anew from the operator
    sys = desk_sys_bump
    assert sys.lu() is sys.lu()
    interior = sys.grid.interior
    want = sys.op.block(interior, interior) + np.diag(sys.potential.values)
    assert np.array_equal(sys.interior_matrix, want)


def test_system_holds_one_matrix_2d():
    # on the 2D disc at h = 0.05 (1264 interior nodes) a factored system
    # holds its Cholesky factor and no second n_int x n_int array
    g = build_grid(2, 0.05, 3.0,
                   {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
                   {"type": "disc", "center": [0.0, 0.0], "radius": 2.0})
    op = assemble_quadrature(g, 0.5)
    q = potential_from_spec(g, 0.0)
    assemble_system(op, q).lu()         # lazily built grid tables
    n_int = len(g.interior)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sys = assemble_system(op, q)
        sys.lu()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert n_int == 1264 and sys.factorization == "cholesky"
    assert held <= 1.1 * 8 * n_int**2


def _dense_solutions(sys, seed):
    """Interior solutions of solve_source and solve_poisson for random data,
    next to numpy's dense solves of A = A_II + diag(q)."""
    g = sys.grid
    rng = np.random.default_rng(seed)
    F = rng.normal(size=len(g.interior))
    f = rng.normal(size=len(g.ext_support))
    A = sys.interior_matrix
    got = (solve_source(sys, F).values[g.interior], solve_poisson(sys, f).values[g.interior])
    want = (np.linalg.solve(A, F),
            np.linalg.solve(A, -sys.op.block(g.interior, g.ext_support) @ f))
    return got, want


def test_positive_definite_system_is_factored_by_cholesky(desk_sys0, desk_sys_bump):
    # q >= 0 keeps A positive definite: one Cholesky factor, whose rcond
    # (dpocon) gates and whose solves match numpy's dense LU solves
    for seed, sys in enumerate((desk_sys0, desk_sys_bump)):
        assert sys.factorization == "cholesky" and len(sys.lu()) == 1
        assert _solvable(sys)
        for got, want in zip(*_dense_solutions(sys, seed)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_indefinite_system_takes_lu_fallback(desk_op, desk_sys0):
    # q = -c with lambda_1 < c < lambda_2 makes A indefinite but nonsingular:
    # Cholesky stops, and the system is gathered again and factored by LU,
    # which solves correctly and reads an rcond within a factor n_int of
    # the eigenvalue ratio
    g = desk_op.grid
    lam = dirichlet_spectrum(desk_sys0).eigenvalues
    sys = assemble_system(desk_op, potential_from_spec(g, -0.5 * float(lam[0] + lam[1])))
    assert sys.factorization == "lu" and len(sys.lu()) == 2
    w = np.abs(dirichlet_spectrum(sys).eigenvalues)
    assert np.sum(dirichlet_spectrum(sys).eigenvalues < 0) == 1
    assert w.min() / w.max() / len(w) <= _rcond(sys) <= w.min() / w.max() * len(w)
    for got, want in zip(*_dense_solutions(sys, 5)):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("branch", ["cholesky", "lu"])
@pytest.mark.parametrize("window", ["W1", "W2", "EXTERIOR_SUPPORT"])
def test_window_solve_in_place_is_bitwise(branch, window, desk_op, desk_sys0):
    # the window solve negates the transposed gather A_W,I in place and
    # solves in it: bit for bit the solve of -A_I,W, on either factorization
    from fraccalderon.dirichlet import _solve, solve_window
    g = desk_op.grid
    sys = desk_sys0
    if branch == "lu":
        lam = dirichlet_spectrum(desk_sys0).eigenvalues
        sys = assemble_system(desk_op, potential_from_spec(g, -0.5 * float(lam[0] + lam[1])))
    assert sys.factorization == branch
    nodes, _ = g.exterior_window(window)
    got = solve_window(sys, nodes)
    want = _solve(sys, -desk_op.block(g.interior, nodes))
    assert got.shape == (len(g.interior), len(nodes))
    assert got.tobytes(order="A") == want.tobytes(order="A")


def test_window_solve_holds_one_rhs():
    # traced peak of one window solve on the 2D disc at h = 0.05 (n_int =
    # 1264, a 156-node window: 1.5 MB per n_int x m array) above its output:
    # measured 648 KB, the gather's work space (the two-sided table and its
    # zero-padded copy, 224 KB each, and one lattice line's transposed
    # window copy).  The right-hand side is the solution's buffer: a negated
    # or Fortran-ordered copy of it would add 1.5 MB (measured 1541 KB when
    # the solve negated and LAPACK copied).  The bound leaves 72 KB.
    from fraccalderon.dirichlet import solve_window
    g = build_grid(2, 0.05, 3.0,
                   {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
                   {"type": "disc", "center": [0.0, 0.0], "radius": 2.0},
                   {"W1": {"type": "disc", "center": [1.5, 0.0], "radius": 0.35}})
    sys = assemble_system(assemble_quadrature(g, 0.5), potential_from_spec(g, 0.0))
    nodes, _ = g.exterior_window("W1")
    sys.lu()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        U = solve_window(sys, nodes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert U.shape == (1264, 156) and U.flags.f_contiguous
    assert peak - U.nbytes <= 720 * 1024


@pytest.mark.parametrize("side,branch", [(1.0, "cholesky"), (-1.0, "lu")])
def test_near_singular_refused_on_both_branches(side, branch, desk_op, desk_sys0):
    # the lowest eigenvalue of A put at +-1e-12 of the spectrum's scale:
    # positive definite, factored by Cholesky, or indefinite, by LU; either
    # factorization reads rcond <= CONDITION_TOL and every solve is refused
    g = desk_op.grid
    lam = dirichlet_spectrum(desk_sys0).eigenvalues
    shift = float(lam[0]) - side * 1e-12 * float(np.max(np.abs(lam)))
    sys = assemble_system(desk_op, potential_from_spec(g, -shift))
    assert sys.factorization == branch
    assert not _solvable(sys) and _rcond(sys) <= CONDITION_TOL
    with pytest.raises(SingularSystemError):
        solve_source(sys, np.ones(len(g.interior)))
    with pytest.raises(SingularSystemError):
        solve_poisson(sys, np.ones(len(g.ext_support)))


def test_solve_poisson_basics(desk_sys0):
    g = desk_sys0.grid
    zero = solve_poisson(desk_sys0, np.zeros(len(g.ext_support)))
    assert np.all(zero.values == 0.0)
    rng = np.random.default_rng(2)
    f1 = rng.normal(size=len(g.ext_support))
    f2 = rng.normal(size=len(g.ext_support))
    a, b = 0.7, -2.3
    lin = solve_poisson(desk_sys0, a * f1 + b * f2).values
    sup = a * solve_poisson(desk_sys0, f1).values + b * solve_poisson(desk_sys0, f2).values
    assert np.allclose(lin, sup, atol=1e-12 * max(np.max(np.abs(sup)), 1))
    # exterior data honored exactly
    u = solve_poisson(desk_sys0, f1)
    assert np.max(np.abs(u.values[g.ext_support] - f1)) == 0.0
    assert np.all(u.values[g.far] == 0.0)


def test_poisson_positivity(desk_sys0):
    g = desk_sys0.grid
    f = window_vector(g, "W1", 1.0)
    u = solve_poisson(desk_sys0, f)
    assert np.min(u.values[g.interior]) > 0.0


def test_solve_source_basics(desk_sys0):
    g = desk_sys0.grid
    assert np.all(solve_source(desk_sys0, np.zeros(len(g.interior))).values == 0.0)
    spec = dirichlet_spectrum(desk_sys0)
    phi1 = spec.eigenvectors[:, 0]
    u = solve_source(desk_sys0, phi1)
    assert np.allclose(u.values[g.interior], phi1 / spec.eigenvalues[0], atol=1e-13)
    rng = np.random.default_rng(3)
    F1 = rng.normal(size=len(g.interior))
    F2 = rng.normal(size=len(g.interior))
    lhs = float(solve_source(desk_sys0, F1).values[g.interior] @ F2)
    rhs = float(F1 @ solve_source(desk_sys0, F2).values[g.interior])
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_well_posedness_estimate(desk_sys_bump):
    g = desk_sys_bump.grid
    rng = np.random.default_rng(4)
    margin = desk_sys_bump.rcond * desk_sys_bump.anorm     # estimates 1 / ||A^-1||_1
    coupling = desk_sys_bump.op.block(g.interior, g.ext_support)
    coupling_norm = np.linalg.norm(coupling, 2)
    for _ in range(3):
        f = rng.normal(size=len(g.ext_support))
        F = rng.normal(size=len(g.interior))
        u_int = solve_source(desk_sys_bump, F).values[g.interior] \
            + solve_poisson(desk_sys_bump, f).values[g.interior]
        bound = (np.linalg.norm(F) + coupling_norm * np.linalg.norm(f)) / margin
        assert np.linalg.norm(u_int) <= bound * (1 + 1e-12)


def test_potential_families():
    g = make_grid_1d(0.05)
    x = g.coords[g.interior, 0]
    p = potential_from_spec(g, {"type": "gaussian", "amplitude": 2.0, "center": 0.5, "width": 0.3})
    assert p.values.argmax() == np.argmin(np.abs(x - 0.5))
    assert np.max(np.abs(p.values)) == pytest.approx(2.0, rel=1e-2)
    p2 = potential_from_spec(g, {"type": "nodes", "values": list(range(len(x)))})
    assert p2.values[-1] == len(x) - 1
    with pytest.raises(ConfigError):
        potential_from_spec(g, {"type": "nodes", "values": list(range(len(x) + 1))})
    # a sum of bumps or a file is given as node values
    for kind in ("mystery", "two_bump", "csv"):
        with pytest.raises(DomainError, match=f"unknown potential family '{kind}'"):
            potential_from_spec(g, {"type": kind})
    with pytest.raises(ValueError):
        Potential(g, np.ones(3))
