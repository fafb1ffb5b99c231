import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from fraccalderon import assemble_quadrature, build_grid, calderon, dirichlet, dnmap, runge
from fraccalderon.calderon import (BETA_FLOOR, reconstruct_potential,
                                   reconstruction_error, simulate_measurements)
from fraccalderon.dirichlet import assemble_system, lowest_eigenvectors, potential_from_spec
from fraccalderon.errors import (GridMismatchError, IllConditionedWarning,
                                 ReferenceMismatchError, RungeFailError, SingularSystemError)
from fraccalderon.runge import control_to_interior_matrix, runge_approximate

from conftest import DenseOperator, make_grid_1d

BUMP = {"type": "gaussian", "amplitude": 0.5, "center": 0.0, "width": 0.4}


@pytest.fixture(scope="module")
def desk_setup(desk_op):
    grid = desk_op.grid
    sys_ref = assemble_system(desk_op, potential_from_spec(grid, 0.0))
    q_true = potential_from_spec(grid, BUMP)
    sys_true = assemble_system(desk_op, q_true)
    return grid, sys_ref, sys_true, q_true


def _data(meas, sys_ref):
    """The DN-difference data of ``meas`` against the reference system, its
    DN map read by ``assemble_dn``."""
    dn_ref = dnmap.assemble_dn(sys_ref, meas.source_nodes, meas.observation_nodes)
    return calderon.difference_data(meas, dn_ref.matrix)


def test_zero_difference_measurements(desk_setup):
    grid, sys_ref, _, _ = desk_setup
    meas = simulate_measurements(sys_ref, sys_ref, "W1", "W2")
    assert np.all(_data(meas, sys_ref) == 0.0)


def test_measurement_determinism(desk_setup):
    grid, sys_ref, sys_true, _ = desk_setup
    a = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=5)
    b = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=5)
    assert np.array_equal(a.measured, b.measured) and np.array_equal(a.noise, b.noise)
    assert np.array_equal(_data(a, sys_ref), _data(b, sys_ref))


def test_noise_magnitude(desk_setup):
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=0)
    clean = _data(simulate_measurements(sys_true, sys_ref, "W1", "W2"), sys_ref)
    rel = np.linalg.norm(_data(meas, sys_ref) - clean) / np.linalg.norm(clean)
    assert 1e-4 <= rel <= 1e-2


@pytest.mark.parametrize("case", ["desk_setup", "setup_2d"])
def test_difference_data_is_the_dn_difference(case, request, monkeypatch):
    # the measurement is the true system's DN map, read by one window solve;
    # the data is DN(true) - DN(reference), times the seeded noise factor
    # 1 + sigma xi, bit for bit.  A reference potential serves as well as
    # its system, and the measurements record the true system's operator
    # and the reference potential
    grid, sys_ref, sys_true, _ = request.getfixturevalue(case)
    dn_true = dnmap.assemble_dn(sys_true, "W1", "W2").matrix
    dn_ref = dnmap.assemble_dn(sys_ref, "W1", "W2").matrix
    solves = _spy(monkeypatch, dnmap, "solve_window")
    for sigma in (0.0, 1e-3):
        meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=sigma, seed=5)
        want = dn_true - dn_ref
        if sigma > 0:
            want = want * (1.0 + sigma * np.random.default_rng(5).standard_normal(want.shape))
        else:
            assert meas.noise is None
        assert calderon.difference_data(meas, dn_ref).tobytes() == want.tobytes()
        assert meas.measured.tobytes() == dn_true.tobytes()
        assert meas.op is sys_true.op and meas.reference is sys_ref.potential
        assert meas.grid is grid and meas.sigma == sigma
        from_potential = simulate_measurements(sys_true, sys_ref.potential, "W1", "W2",
                                               sigma=sigma, seed=5)
        assert calderon.difference_data(from_potential, dn_ref).tobytes() == want.tobytes()
    # one window solve per measurement, on the true system
    assert [sys for (sys, _), _, _ in solves] == [sys_true] * 4


def test_reference_on_another_operator_refused(desk_setup, setup_2d):
    # the difference is taken on the true system's operator, so a reference
    # system on another operator is refused, and one on another grid too
    grid, sys_ref, sys_true, _ = desk_setup
    other = assemble_system(DenseOperator(sys_ref.op, sys_ref.op.matrix),
                            potential_from_spec(grid, 0.0))
    with pytest.raises(ReferenceMismatchError):
        simulate_measurements(sys_true, other, "W1", "W2")
    for reference in (setup_2d[1], setup_2d[1].potential):
        with pytest.raises(GridMismatchError):
            simulate_measurements(sys_true, reference, "W1", "W2")


def test_zero_data_reconstructs_zero(desk_setup):
    grid, sys_ref, _, _ = desk_setup
    meas = simulate_measurements(sys_ref, sys_ref, "W1", "W2")
    out = reconstruct_potential(meas, sys_ref, iterations=2, mode="linearized",
                                clean_beta=0.1)
    size = np.sqrt(grid.h) * np.linalg.norm(out["q_diff"])
    assert size <= 1e-10
    # against the zero truth the error is the estimate's weighted norm, not
    # a relative one
    err = reconstruction_error(out["q_diff"], np.zeros_like(out["q_diff"]), grid.h)
    assert err == pytest.approx(size, rel=1e-14, abs=0.0)


def test_linearized_clean_reconstruction(desk_setup):
    grid, sys_ref, sys_true, q_true = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    out = reconstruct_potential(meas, sys_ref, iterations=2, mode="linearized",
                                clean_beta=0.1)
    err = reconstruction_error(out["q_diff"], q_true.values, grid.h)
    assert err <= 0.13


def test_noisy_degrades_gracefully(desk_setup):
    grid, sys_ref, sys_true, q_true = desk_setup
    clean = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    out_c = reconstruct_potential(clean, sys_ref, iterations=2, mode="linearized",
                                  clean_beta=0.1)
    err_c = reconstruction_error(out_c["q_diff"], q_true.values, grid.h)
    noisy = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=7)
    out_n = reconstruct_potential(noisy, sys_ref, iterations=2, mode="linearized",
                                  clean_beta=0.1)
    err_n = reconstruction_error(out_n["q_diff"], q_true.values, grid.h)
    assert err_n <= 2.0 * err_c


def test_constructive_mode_regression(desk_setup):
    # proof-shaped route: few approximable eigen targets, one constant factor
    grid, sys_ref, sys_true, q_true = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    out = reconstruct_potential(meas, sys_ref, alpha=1e-12, n_targets=4,
                                runge_gate=0.95, iterations=2,
                                mode="constructive", clean_beta=1e-12)
    err = reconstruction_error(out["q_diff"], q_true.values, grid.h)
    assert err <= 0.08
    diag = out["diagnostics"]["iterations"][0]
    assert len(diag["runge_residuals"]) == 4


def test_constructive_stable_under_rounding(desk_setup):
    # the regression case under seeded symmetric relative operator
    # perturbations at rounding scale: a weight below the resolvable floor is
    # raised to it with a warning, so the answer does not hang on rounding order
    grid, sys_ref0, _, q_true = desk_setup
    A0 = sys_ref0.op.matrix
    kwargs = dict(alpha=1e-12, n_targets=4, runge_gate=0.95, iterations=2,
                  mode="constructive")
    errs = []
    for seed in range(8):
        S = np.random.default_rng(seed).standard_normal(A0.shape)
        op = DenseOperator(sys_ref0.op, A0 * (1.0 + 1e-14 * (S + S.T) / 2))
        sys_ref = assemble_system(op, potential_from_spec(grid, 0.0))
        meas = simulate_measurements(assemble_system(op, q_true), sys_ref, "W1", "W2")
        with pytest.warns(IllConditionedWarning, match="resolvable floor"):
            out = reconstruct_potential(meas, sys_ref, clean_beta=1e-12, **kwargs)
        errs.append(reconstruction_error(out["q_diff"], q_true.values, grid.h))
        if seed == 0:
            at_floor = reconstruct_potential(meas, sys_ref, clean_beta=BETA_FLOOR, **kwargs)
            betas = [d["beta"] for d in out["diagnostics"]["iterations"]]
            assert betas == [d["beta"] for d in at_floor["diagnostics"]["iterations"]]
            assert np.array_equal(out["q_diff"], at_floor["q_diff"])
    assert max(errs) - min(errs) <= 1e-3


# the constructive settings that pass the Runge gate on each case
_CONSTRUCTIVE = {"desk_setup": dict(alpha=1e-12, n_targets=4, runge_gate=0.95,
                                    clean_beta=BETA_FLOOR),
                 "setup_2d": dict(alpha=1e-12, n_targets=8, runge_gate=0.95)}


@pytest.mark.parametrize("mode", ["linearized", "constructive"])
@pytest.mark.parametrize("case", ["desk_setup", "setup_2d"])
def test_reconstruction_owns_its_reference(case, mode, request, monkeypatch):
    # without a reference system the reconstruction assembles its own from
    # the operator and potential the measurements record, once, and returns
    # the estimate and diagnostics of the caller's reference to the byte;
    # only the trials' rcond is left out, which is not reproducible from one
    # factorization to the next at 2 BLAS threads even on one path
    grid, sys_ref, sys_true, _ = request.getfixturevalue(case)
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    kwargs = dict(clean_beta=0.1) if mode == "linearized" else _CONSTRUCTIVE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        want = reconstruct_potential(meas, sys_ref, iterations=2, mode=mode, **kwargs)
        assembled = _spy(monkeypatch, calderon, "assemble_system")
        got = reconstruct_potential(meas, iterations=2, mode=mode, **kwargs)
    assert got["q_diff"].tobytes() == want["q_diff"].tobytes()

    def facts(out):
        return [{**d, "trials": [t["factorization"] for t in d["trials"]]}
                for d in out["diagnostics"]["iterations"]]

    assert facts(got) == facts(want)
    trials = sum(len(d["trials"]) for d in got["diagnostics"]["iterations"])
    (op, potential), _, _ = assembled[0]
    assert op is meas.op and potential is meas.reference
    assert len(assembled) == 1 + trials


def test_reference_system_must_match_the_measurements(desk_setup):
    # a reference system on another operator or potential than the
    # measurements' would linearize at the wrong point: refused.  A system
    # assembled anew on the same operator and potential values is accepted
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    kwargs = dict(iterations=1, mode="linearized", clean_beta=0.1)
    other_op = assemble_system(DenseOperator(sys_ref.op, sys_ref.op.matrix),
                               potential_from_spec(grid, 0.0))
    for wrong in (sys_true, other_op):
        with pytest.raises(ReferenceMismatchError):
            reconstruct_potential(meas, wrong, **kwargs)
    again = assemble_system(sys_ref.op, potential_from_spec(grid, 0.0))
    assert np.array_equal(reconstruct_potential(meas, again, **kwargs)["q_diff"],
                          reconstruct_potential(meas, sys_ref, **kwargs)["q_diff"])


def _spy(monkeypatch, module, name):
    """Record every call of ``module.name`` as (args, kwargs, result)."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_constructive_one_window_solve_per_window(desk_setup, monkeypatch):
    # every target's control comes from the source-window solve of the
    # current system and one SVD of it, and the constant's from one
    # observation-window solve and SVD per sweep; the SVDs reuse the solves
    # the sweep already holds, so each window is solved once per system
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    solves = _spy(monkeypatch, calderon, "control_to_interior_matrix")
    trials = _spy(monkeypatch, calderon, "assemble_system")
    svds = _spy(monkeypatch, runge, "svd")
    out = reconstruct_potential(meas, sys_ref, alpha=1e-12, n_targets=4,
                                runge_gate=0.95, iterations=2, mode="constructive")
    sweeps = len(out["diagnostics"]["iterations"])
    assert sweeps == 2
    assert len(solves) == 1 + sweeps + len(trials)
    assert len(svds) == 2 * sweeps
    diag = out["diagnostics"]["iterations"][0]
    assert len(diag["runge_residuals"]) == 4 and len(diag["test_residuals"]) == 1


def test_constructive_is_galerkin_on_control_pairs(desk_setup, monkeypatch):
    # the constructive system, one moment row hn*(U1 g_k)o(U2 g_c) per target
    # with datum hn*g_c^T data g_k, solved in the targets' span, is the
    # Galerkin system tested on the pairs g_c g_k^T with unknown basis Phi
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=3)
    seen = {}
    real = calderon._solve_regularized

    def spy(gram, Btm, residual, L, noise_level, **kwargs):
        seen.update(BtB=_symmetric(gram), Btm=Btm, residual=residual, noise=noise_level)
        return real(gram, Btm, residual, L, noise_level, **kwargs)

    monkeypatch.setattr(calderon, "_solve_regularized", spy)
    alpha, hn = 1e-8, grid.h
    reconstruct_potential(meas, sys_ref, n_targets=4, alpha=alpha,
                          runge_gate=0.95, iterations=1, mode="constructive")
    targets = lowest_eigenvectors(meas.op, meas.reference, 4) / np.sqrt(hn)

    def control(window, target):
        return runge_approximate(sys_ref, window, target, alpha=alpha)

    const = control(meas.observation_nodes, np.ones(len(grid.interior)))
    data = _data(meas, sys_ref)
    rows, rhs, noise_sq = [], [], 0.0
    for k in range(targets.shape[1]):
        rk = control(meas.source_nodes, targets[:, k])
        rows.append(hn * rk.achieved * const.achieved)
        rhs.append(hn * float(const.control @ (data @ rk.control)))
        noise_sq += meas.sigma**2 * hn**2 * float(
            np.sum((np.outer(const.control, rk.control) * data) ** 2))
    Bc, m = np.asarray(rows) @ targets, np.asarray(rhs)
    assert _rel(seen["BtB"], Bc.T @ Bc) <= 1e-10
    assert _rel(seen["Btm"], Bc.T @ m) <= 1e-10
    assert seen["noise"] == pytest.approx(np.sqrt(noise_sq), rel=1e-10)
    c = np.random.default_rng(0).standard_normal(targets.shape[1])
    assert seen["residual"](c) == pytest.approx(np.linalg.norm(Bc @ c - m), rel=1e-10)


def test_runge_gate_trips(desk_setup):
    # the gate names every target column above it with its relative
    # residual, not only the first
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    targets = lowest_eigenvectors(meas.op, meas.reference, 6) / np.sqrt(grid.h)
    rel = runge_approximate(sys_ref, meas.source_nodes, targets, alpha=1e-12).relative_residual
    # all 6 columns fail at 1%, all but column 0 at 5%
    for gate, n_failing in ((0.01, 6), (0.05, 5)):
        failing = np.flatnonzero(rel > gate)
        assert len(failing) == n_failing
        with pytest.raises(RungeFailError) as err:
            reconstruct_potential(meas, sys_ref, alpha=1e-12, n_targets=6,
                                  runge_gate=gate, iterations=1, mode="constructive")
        assert str(err.value) == (f"target controls {failing.tolist()}: relative residuals "
                                  f"{np.round(rel[failing], 3).tolist()} exceed {gate:.0%}")


def test_backtracking_propagates_unrelated_errors(desk_setup, monkeypatch):
    # backtracking halves the step on an unsolvable trial system only; any
    # other error while evaluating a trial (here a TypeError from the trial's
    # window solve) is a fault and must surface
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    real = calderon.control_to_interior_matrix

    def flaky(sys, *args, **kwargs):
        if sys is not sys_ref:
            raise TypeError("unrelated fault")
        return real(sys, *args, **kwargs)

    monkeypatch.setattr(calderon, "control_to_interior_matrix", flaky)
    with pytest.raises(TypeError, match="unrelated fault"):
        reconstruct_potential(meas, sys_ref, iterations=1, mode="linearized",
                              clean_beta=0.1)


def test_backtracking_propagates_lapack_errors(desk_setup, monkeypatch):
    # a LAPACK error while evaluating a trial is not an unsolvable trial: it
    # surfaces (the CLI reports it as LINALG_FAIL) instead of being halved
    # away into an estimate left at the reference
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("trial factorization failed")

    monkeypatch.setattr(calderon, "assemble_system", failing)
    with pytest.raises(np.linalg.LinAlgError, match="trial factorization failed"):
        reconstruct_potential(meas, sys_ref, iterations=1, mode="linearized",
                              clean_beta=0.1)


def test_backtracking_halves_nonfinite_step(desk_setup, monkeypatch):
    # a non-finite update is halved like a failed trial; after the last
    # halving the step is dropped and the estimate stays at the reference
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    monkeypatch.setattr(calderon, "_solve_regularized",
                        lambda gram, *a, **k: (np.full(len(gram[1]), np.inf), 1.0))
    out = reconstruct_potential(meas, sys_ref, iterations=1, mode="linearized")
    assert np.array_equal(out["q_diff"], np.zeros(len(grid.interior)))
    assert out["diagnostics"]["iterations"][0]["halvings"] == 4


def test_halvings_count_the_steps_halved(desk_setup, monkeypatch):
    # two unsolvable trials, then the quarter step is accepted: the sweep
    # records 2 halvings and the one trial system assembled; the full step
    # of an unhindered sweep records none
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    kwargs = dict(iterations=1, mode="linearized", clean_beta=0.1)
    full = reconstruct_potential(meas, sys_ref, **kwargs)
    real, failures = calderon.assemble_system, [None, None]

    def flaky(*args):
        if failures:
            failures.pop()
            raise SingularSystemError("unsolvable trial")
        return real(*args)

    monkeypatch.setattr(calderon, "assemble_system", flaky)
    out = reconstruct_potential(meas, sys_ref, **kwargs)
    assert full["diagnostics"]["iterations"][0]["halvings"] == 0
    sweep = out["diagnostics"]["iterations"][0]
    assert sweep["halvings"] == 2 and len(sweep["trials"]) == 1
    assert np.array_equal(out["q_diff"], full["q_diff"] / 4)


def _explicit_galerkin(U1, U2, data, meas, hn):
    """The linearized Galerkin system row by row: one row per window pair."""
    rows, rhs, noise_sq = [], [], 0.0
    for k in range(U1.shape[1]):
        for l in range(U2.shape[1]):
            rows.append(hn * U1[:, k] * U2[:, l])
            rhs.append(hn * float(data[l, k]))
            noise_sq += meas.sigma**2 * hn**2 * float(data[l, k] ** 2)
    return np.asarray(rows), np.asarray(rhs), np.sqrt(noise_sq)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _symmetric(gram):
    """BtB from the Gram pair (G, diag) that ``_solve_regularized`` takes:
    G's strict upper triangle, mirrored, with diag on the diagonal."""
    G, diag = gram
    upper = np.triu(G, 1)
    return upper + upper.T + np.diag(diag)


@pytest.mark.parametrize("case", ["desk_setup", "setup_2d"])
def test_gram_normal_equations_match_explicit_galerkin(case, request, monkeypatch):
    # the Gram-form BtB, Btm, residual and noise level that the linearized
    # solve receives equal those of the explicit |W1|*|W2| x n_int matrix
    grid, sys_ref, sys_true, _ = request.getfixturevalue(case)
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=3)
    seen = {}
    real = calderon._solve_regularized

    def spy(gram, Btm, residual, L, noise_level, **kwargs):
        seen.update(BtB=_symmetric(gram), Btm=Btm, residual=residual, noise=noise_level)
        seen["dq"], beta = real(gram, Btm, residual, L, noise_level, **kwargs)
        return seen["dq"], beta

    monkeypatch.setattr(calderon, "_solve_regularized", spy)
    reconstruct_potential(meas, sys_ref, iterations=1, mode="linearized", clean_beta=0.1)

    hn = grid.h ** grid.dim
    U1 = control_to_interior_matrix(sys_ref, meas.source_nodes)
    U2 = control_to_interior_matrix(sys_ref, meas.observation_nodes)
    B, m, noise = _explicit_galerkin(U1, U2, _data(meas, sys_ref), meas, hn)
    assert B.shape == (U1.shape[1] * U2.shape[1], len(grid.interior))
    assert _rel(seen["BtB"], B.T @ B) <= 1e-12
    assert _rel(seen["Btm"], B.T @ m) <= 1e-12
    assert seen["noise"] > 0 and seen["noise"] == pytest.approx(noise, rel=1e-12)
    rng = np.random.default_rng(0)
    for dq in (seen["dq"], rng.standard_normal(B.shape[1])):
        want = np.linalg.norm(B @ dq - m)
        assert seen["residual"](dq) == pytest.approx(want, rel=1e-12)


def test_linearized_memory_below_galerkin_matrix():
    # a 2-sweep noisy linearized reconstruction at h = 0.01 never holds an
    # array the size of the Galerkin matrix B (|W1|*|W2| x n_int doubles)
    grid = make_grid_1d(0.01)
    op = assemble_quadrature(grid, 0.5)
    sys_ref = assemble_system(op, potential_from_spec(grid, 0.0))
    sys_true = assemble_system(op, potential_from_spec(grid, BUMP))
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=1e-3, seed=7)
    b_bytes = 8 * len(meas.source_nodes) * len(meas.observation_nodes) * len(grid.interior)
    tracemalloc.start()
    try:
        out = reconstruct_potential(meas, sys_ref, iterations=2, mode="linearized",
                                    clean_beta=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out["diagnostics"]["iterations"]) == 2
    assert peak < b_bytes


@pytest.mark.parametrize("mode", ["linearized", "constructive"])
def test_no_dn_assembly_one_window_solve_per_system(mode, desk_setup, monkeypatch):
    # the Newton loop reads residual data from the integral identity, never
    # from a DN map: the source window is solved once per system (the
    # reference, then each trial) and the observation window once per sweep,
    # on the sweep's current system.  Noisy linearized data stops at the
    # noise floor after 3 sweeps; clean constructive data runs 4 sweeps and
    # backtracks (7 trials); constructive controls on the noisy data fail
    # the Runge gate in sweep 3.
    grid, sys_ref, sys_true, _ = desk_setup
    sigma = 1e-3 if mode == "linearized" else 0.0
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=sigma, seed=3)
    kwargs = (dict(clean_beta=0.1) if mode == "linearized" else
              dict(alpha=1e-12, n_targets=4, runge_gate=0.95, clean_beta=BETA_FLOOR))
    base = reconstruct_potential(meas, sys_ref, iterations=4, mode=mode, **kwargs)

    def no_dn(*args, **kwargs):
        raise AssertionError("reconstruct_potential assembled a DN map")

    monkeypatch.setattr(calderon, "assemble_dn", no_dn)
    solves = _spy(monkeypatch, calderon, "control_to_interior_matrix")
    assembled = _spy(monkeypatch, calderon, "assemble_system")
    out = reconstruct_potential(meas, sys_ref, iterations=4, mode=mode, **kwargs)
    assert np.array_equal(out["q_diff"], base["q_diff"])
    sweeps = len(out["diagnostics"]["iterations"])
    trials = [sys for _, _, sys in assembled]
    source = [sys for (sys, window), _, _ in solves if window is meas.source_nodes]
    observation = [sys for (sys, window), _, _ in solves if window is meas.observation_nodes]
    assert len(source) + len(observation) == len(solves)
    assert source == [sys_ref] + trials and len(trials) >= sweeps >= 2
    assert len(observation) == sweeps and observation[0] is sys_ref


def _dn_extended(sys, meas):
    """The DN map of ``sys`` between the measurement windows in extended
    precision (numpy's longdouble): the window solutions refined twice with
    residuals in longdouble, then read out in longdouble."""
    ext = np.longdouble
    src, obs, interior = meas.source_nodes, meas.observation_nodes, sys.grid.interior
    A = sys.interior_matrix
    B = -sys.op.block(interior, src).astype(ext)
    U = np.linalg.solve(A, B.astype(float)).astype(ext)
    for _ in range(2):
        U += np.linalg.solve(A, (B - A.astype(ext) @ U).astype(float))
    return sys.op.block(obs, interior).astype(ext) @ U + sys.op.block(obs, src)


@pytest.mark.parametrize("mode", ["linearized", "constructive"])
@pytest.mark.parametrize("case", ["desk_setup", "disc_h02"])
def test_trial_residual_is_dn_difference(case, mode, request, monkeypatch):
    # the residual data a sweep tests, carried from the trial that the sweep
    # before accepted, is what the DN maps give:
    # data - (DN(current) - DN(reference)).  In sweep 3 (2D
    # linearized) that residual is 2e-4 of the DN maps, so a float64 DN
    # difference alone is off by about 1e-12 relative; the DN maps are
    # therefore taken in extended precision (``_dn_extended``).  Measured:
    # at most 1.1e-14 relative in sweep 2 and 1.5e-13 in sweep 3 (1D
    # constructive); 6.2e-14 in sweep 3 (2D linearized), where a 40-digit
    # DN difference reads 6.4e-14
    grid, sys_ref, sys_true, _ = request.getfixturevalue(case)
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    kwargs = (dict(clean_beta=0.1) if mode == "linearized" else
              dict(alpha=1e-12, n_targets=4, runge_gate=0.95, clean_beta=BETA_FLOOR))
    paired = _spy(monkeypatch, calderon, "_pair")
    solves = _spy(monkeypatch, calderon, "control_to_interior_matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        out = reconstruct_potential(meas, sys_ref, iterations=3, mode=mode, **kwargs)
    assert len(out["diagnostics"]["iterations"]) == 3
    # per sweep: the residual data it pairs (the noise level pairs data**2),
    # and its current system, whose observation window it solves
    data = [X for (X, *_), kw, _ in paired if not kw]
    current = [sys for (sys, window), _, _ in solves if window is meas.observation_nodes]
    measured = _data(meas, sys_ref)
    assert data[0].tobytes() == measured.tobytes() and current[0] is sys_ref
    assert len({id(sys) for sys in current}) == 3      # each sweep accepted a trial
    dn_ref = _dn_extended(sys_ref, meas)
    for sweep in (1, 2):
        want = (measured - (_dn_extended(current[sweep], meas) - dn_ref)).astype(float)
        assert _rel(data[sweep], want) <= 1e-12


def _setup_windows(w1, w2):
    grid = build_grid(1, 0.05, 4.0,
                      {"type": "interval", "bounds": [-1, 1]},
                      {"type": "interval", "bounds": [-2, 2]},
                      {"W1": {"type": "interval", "bounds": w1},
                       "W2": {"type": "interval", "bounds": w2}})
    op = assemble_quadrature(grid, 0.5)
    sys_ref = assemble_system(op, potential_from_spec(grid, 0.0))
    q_true = potential_from_spec(grid, BUMP)
    sys_true = assemble_system(op, q_true)
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    out = reconstruct_potential(meas, sys_ref, iterations=2, mode="linearized",
                                clean_beta=0.1)
    return reconstruction_error(out["q_diff"], q_true.values, grid.h)


def test_window_enlargement_monotone(desk_setup):
    grid, sys_ref, sys_true, q_true = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    out = reconstruct_potential(meas, sys_ref, iterations=2, mode="linearized",
                                clean_beta=0.1)
    base = reconstruction_error(out["q_diff"], q_true.values, grid.h)
    wide = _setup_windows([1.05, 1.95], [-1.95, -1.05])
    assert wide <= base * (1 + 1e-9)


def test_disjoint_vs_coincident_windows():
    # disjoint two-sided windows measured no worse than the one-sided
    # coincident pair at this desk scale (frozen factor 1.0)
    disjoint = _setup_windows([1.2, 1.8], [-1.8, -1.2])
    coincident = _setup_windows([1.2, 1.8], [1.2, 1.8])
    assert disjoint <= 0.15
    assert np.isfinite(coincident)
    assert disjoint <= 1.0 * coincident


def test_identity_consistency_of_pipeline(desk_setup):
    # the measured pairings match the interior quadrature of the true
    # difference against the exact solution factors (integral identity)
    grid, sys_ref, sys_true, q_true = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    from fraccalderon.dirichlet import solve_poisson
    from conftest import window_vector
    rng = np.random.default_rng(0)
    g1 = rng.normal(size=len(grid.windows["W1"]))
    g0 = rng.normal(size=len(grid.windows["W2"]))
    m_meas = grid.h * float(g0 @ (_data(meas, sys_ref) @ g1))
    u1 = solve_poisson(sys_true, window_vector(grid, "W1", g1)).values[grid.interior]
    u2 = solve_poisson(sys_ref, window_vector(grid, "W2", g0)).values[grid.interior]
    m_direct = grid.h * float(np.sum(q_true.values * u1 * u2))
    assert m_meas == pytest.approx(m_direct, rel=1e-9)


def _dense_laplacian(grid):
    """The interior lattice's graph Laplacian as a dense matrix, from the
    pairwise lattice distances: interior nodes at |idx_i - idx_j|_1 = 1 are
    neighbours."""
    idx = grid.idx[grid.interior]
    adjacent = (np.abs(idx[:, None, :] - idx[None, :, :]).sum(axis=2) == 1).astype(float)
    return np.diag(adjacent.sum(axis=1)) - adjacent


def _dense_penalty(grid, basis=None):
    """Reference penalty LtL + RIDGE * ||LtL||_F * I from the dense L."""
    L = _dense_laplacian(grid)
    if basis is not None:
        L = L @ basis
    LtL = L.T @ L
    return LtL + calderon.RIDGE * np.linalg.norm(LtL) * np.eye(LtL.shape[0])


def _lu_solve_regularized(gram, Btm, residual, P, noise_level, clean_beta=1e-3):
    """Reference penalized solve: the full symmetric BtB, the dense penalty P
    and an LU solve of the penalized normal equations for each weight."""
    BtB = _symmetric(gram)
    scale = np.linalg.norm(BtB) / max(np.linalg.norm(P), 1e-300)
    clean_beta = max(clean_beta, BETA_FLOOR)
    floor = clean_beta * scale
    if noise_level <= 0:
        return np.linalg.solve(BtB + floor * P, Btm), floor
    for beta in scale * np.logspace(2, np.log10(clean_beta), 25):
        dq = np.linalg.solve(BtB + beta * P, Btm)
        if residual(dq) <= 1.1 * noise_level:
            return dq, beta
    return np.linalg.solve(BtB + floor * P, Btm), floor


def _use_numpy_reference(monkeypatch):
    """Run the reconstruction on numpy's products and norms, the dense
    penalty and LU solves: the arithmetic of the solve path before it moved
    to scipy's BLAS, stencil penalty and Cholesky solve."""
    for module in (calderon, dirichlet, dnmap, runge):
        if hasattr(module, "matmul"):
            monkeypatch.setattr(module, "matmul", np.matmul)
        if hasattr(module, "norm"):
            monkeypatch.setattr(module, "norm", np.linalg.norm)
    monkeypatch.setattr(calderon, "_penalty", _dense_penalty)
    monkeypatch.setattr(calderon, "_solve_regularized", _lu_solve_regularized)


def _disc_grid(h):
    """The 2D disc of ``setup_2d`` at spacing h."""
    def disc(x, y, r):
        return {"type": "disc", "center": [x, y], "radius": r}
    return build_grid(2, h, 3.0, disc(0, 0, 1.0), disc(0, 0, 2.0),
                      {"W1": disc(1.5, 0, 0.35), "W2": disc(-1.5, 0, 0.35)})


@pytest.mark.parametrize("n,k", [(3, None), (4, None), (40, None), (40, 4),
                                 ("disc", None), ("disc", 4)])
def test_penalty_equals_dense_formula(n, k):
    # the coordinate-form penalty, densified, is the dense formula bit for
    # bit, on a 1D grid with n interior nodes and on the 2D disc at h = 0.2
    # (80 interior nodes); k columns are a constructive-mode basis, here of
    # small integers so that L Phi is exact in any summation order
    grid = _disc_grid(0.2) if n == "disc" else make_grid_1d(2.0 / n, windows={})
    size = len(grid.interior)
    basis = None if k is None else (
        np.random.default_rng(size).integers(-3, 4, (size, k)).astype(float))
    rows, cols, vals = calderon._penalty(grid, basis)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    P = np.zeros((size, size) if k is None else (k, k))
    P[rows, cols] = vals
    assert np.array_equal(P, _dense_penalty(grid, basis))


@pytest.fixture(scope="module")
def disc_h02():
    """The 2D disc of ``setup_2d`` at h = 0.2."""
    grid = _disc_grid(0.2)
    op = assemble_quadrature(grid, 0.5)
    q_true = potential_from_spec(
        grid, {"type": "gaussian", "amplitude": 0.5, "center": [0.0, 0.0], "width": 0.5})
    return (grid, assemble_system(op, potential_from_spec(grid, 0.0)),
            assemble_system(op, q_true), q_true)


# relative max-norm distance of the estimate from the numpy reference; the
# solve path reorders rounding only (measured: 6.5e-12 desk, 4.3e-11 2D,
# 1.3e-12 desk noisy, 1.5e-8 constructive, whose 4 x 4 penalized system
# sits at the condition bound 1e14 of the resolvable floor)
@pytest.mark.parametrize("case,sigma,kwargs,tol", [
    ("desk_setup", 0.0, dict(iterations=2, mode="linearized", clean_beta=0.1), 1e-8),
    ("disc_h02", 0.0, dict(iterations=1, mode="linearized", clean_beta=0.1), 1e-8),
    ("desk_setup", 1e-3, dict(iterations=4, mode="linearized", clean_beta=0.1), 1e-8),
    ("desk_setup", 0.0, dict(iterations=2, mode="constructive", alpha=1e-12, n_targets=4,
                             runge_gate=0.95, clean_beta=1e-12), 1e-7),
])
def test_estimate_matches_numpy_reference(case, sigma, kwargs, tol, request, monkeypatch):
    grid, sys_ref, sys_true, _ = request.getfixturevalue(case)
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=sigma, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        got = reconstruct_potential(meas, sys_ref, **kwargs)
        with monkeypatch.context() as patch:
            _use_numpy_reference(patch)
            want = reconstruct_potential(meas, sys_ref, **kwargs)
    assert [d["beta"] for d in got["diagnostics"]["iterations"]] == pytest.approx(
        [d["beta"] for d in want["diagnostics"]["iterations"]], rel=1e-12)
    drift = np.max(np.abs(got["q_diff"] - want["q_diff"])) / np.max(np.abs(want["q_diff"]))
    assert drift <= tol


def test_gram_buffer_is_the_only_square_array(setup_2d):
    # on the 2D disc at h = 0.1 (n_int = 316) the normal equations allocate
    # one n_int x n_int array, the Gram buffer, besides blocks of n_int x
    # GRAM_BLOCK; at a noise level no weight meets, the penalized solve
    # allocates none over the 6 weights it factors (the top one, 4
    # bisection steps and the floor), keeps the upper triangle, and solves
    # the penalized normal equations
    grid, sys_ref, sys_true, _ = setup_2d
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    U1 = control_to_interior_matrix(sys_ref, meas.source_nodes)
    U2 = control_to_interior_matrix(sys_ref, meas.observation_nodes)
    penalty = calderon._penalty(grid)
    data = _data(meas, sys_ref)
    n2_bytes = 8 * len(grid.interior) ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram, Btm, residual = calderon._linearized_normal_equations(
            U1, U2, data, grid.h**2)
        normal_peak = tracemalloc.get_traced_memory()[1] - base
        upper = np.triu(gram[0], 1)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dq, beta = calderon._solve_regularized(gram, Btm, residual, penalty, 1e-30,
                                               clean_beta=0.1)
        solve_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert normal_peak / n2_bytes <= 1.5 and solve_peak / n2_bytes <= 0.5
    assert np.array_equal(np.triu(gram[0], 1), upper)
    P = np.zeros((len(Btm), len(Btm)))
    P[penalty[0], penalty[1]] = penalty[2]
    want = np.linalg.solve(_symmetric(gram) + beta * P, Btm)
    assert _rel(dq, want) <= 1e-8


# the program's search, kept before any test replaces it
_search = calderon._solve_regularized


def _scan_weights(gram, Btm, penalty, clean_beta):
    """The search's 25 weights, its floor and a solve per weight, on the
    program's own Gram pair and LAPACK calls: the weights' scale read off
    ``_solve_regularized`` at relative weight 1, and per weight BtB + beta P
    assembled from the Gram pair, factored by dpotrf and solved by dpotrs
    in its lower triangle."""
    scale = _search(gram, Btm, None, penalty, 0.0, clean_beta=1.0)[1]
    rows, cols, vals = penalty
    lower = rows >= cols
    BtB = np.asfortranarray(_symmetric(gram))

    def solve(beta):
        M = BtB.copy(order="F")
        M[rows[lower], cols[lower]] += beta * vals[lower]
        factor, info = lapack.dpotrf(M, lower=1, clean=0, overwrite_a=1)
        assert info == 0
        return lapack.dpotrs(factor, Btm, lower=1)[0]

    clean_beta = max(clean_beta, BETA_FLOOR)
    return scale * np.logspace(2, np.log10(clean_beta), 25), clean_beta * scale, solve


def _scan_solve_regularized(gram, Btm, residual, penalty, noise_level, clean_beta=1e-3):
    """The discrepancy search as a scan of the 25 weights from the top.
    Returns the solution, the weight and the number of weights solved (None
    when no weight meets the target and the floor is solved)."""
    betas, floor, solve = _scan_weights(gram, Btm, penalty, clean_beta)
    if noise_level > 0:
        for k, beta in enumerate(betas):
            dq = solve(beta)
            if residual(dq) <= 1.1 * noise_level:
                return dq, beta, k + 1
    return solve(floor), floor, None


def _checked_search(monkeypatch):
    """Replace ``_solve_regularized`` by the program's search checked
    against the scan: every call must return the scan's weight and the
    scan's solution to the byte.  Returns the list of the scan's weight
    counts per call (None where no weight met)."""
    scanned = []

    def checked(gram, Btm, residual, penalty, noise_level, **kwargs):
        want_dq, want_beta, count = _scan_solve_regularized(
            gram, Btm, residual, penalty, noise_level, **kwargs)
        dq, beta = _search(gram, Btm, residual, penalty, noise_level, **kwargs)
        assert beta == want_beta and dq.tobytes() == want_dq.tobytes()
        scanned.append(count)
        return dq, beta

    monkeypatch.setattr(calderon, "_solve_regularized", checked)
    return scanned


@pytest.mark.parametrize("case,sigma,kwargs", [
    ("desk_setup", 1e-4, dict(iterations=4, mode="linearized", clean_beta=0.1)),
    ("desk_setup", 1e-3, dict(iterations=4, mode="linearized", clean_beta=0.1)),
    ("desk_setup", 1e-2, dict(iterations=4, mode="linearized", clean_beta=0.1)),
    ("setup_2d", 1e-3, dict(iterations=2, mode="linearized", clean_beta=0.1)),
    ("desk_setup", 1e-3, dict(iterations=2, mode="constructive", alpha=1e-8, n_targets=4,
                              runge_gate=0.95, clean_beta=1e-3)),
])
def test_search_matches_linear_scan(case, sigma, kwargs, request, monkeypatch):
    # the residual grows with the weight, so bisecting for the first weight
    # that meets the target returns the scan's weight and solution bytes
    grid, sys_ref, sys_true, _ = request.getfixturevalue(case)
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=sigma, seed=3)
    scanned = _checked_search(monkeypatch)
    reconstruct_potential(meas, sys_ref, **kwargs)
    assert scanned


def _desk_normal_equations(desk_setup, sigma):
    """The first sweep's Gram pair, right-hand side, residual, penalty and
    noise level on the desk case, noise seed 3."""
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2", sigma=sigma, seed=3)
    U1 = control_to_interior_matrix(sys_ref, meas.source_nodes)
    U2 = control_to_interior_matrix(sys_ref, meas.observation_nodes)
    data = _data(meas, sys_ref)
    return (*calderon._linearized_normal_equations(U1, U2, data, grid.h),
            calderon._penalty(grid), sigma * grid.h * np.linalg.norm(data))


def test_search_matches_linear_scan_at_every_weight(desk_setup, monkeypatch):
    # targets set between the residuals of neighbouring weights make each of
    # the 25 weights in turn the first that meets (the top one included),
    # and a target no weight meets falls back to the floor
    gram, Btm, residual, penalty, _ = _desk_normal_equations(desk_setup, 1e-3)
    betas, _, solve = _scan_weights(gram, Btm, penalty, 0.1)
    levels = [residual(solve(beta)) / 1.1 for beta in betas]
    assert all(a > b * (1 + 1e-9) for a, b in zip(levels, levels[1:]))
    scanned = _checked_search(monkeypatch)
    for level in levels + [levels[-1] / 2]:
        calderon._solve_regularized(gram, Btm, residual, penalty, level * (1 + 1e-12),
                                    clean_beta=0.1)
    assert scanned == list(range(1, 26)) + [None]


def test_search_factorizations_per_call(desk_setup, monkeypatch):
    # dpotrf runs once for clean data, once when the top weight meets, at
    # most 1 + 5 when another weight meets (bisection over the other 24),
    # and 1 + 4 + 1 when none meets (the bisection fails 4 times, then the
    # floor)
    potrf, calls = lapack.dpotrf, []

    def counting(*args, **kwargs):
        calls.append(None)
        return potrf(*args, **kwargs)

    monkeypatch.setattr(calderon.lapack, "dpotrf", counting)

    def count(noise_level, problem):
        gram, Btm, residual, penalty, _ = problem
        del calls[:]
        calderon._solve_regularized(gram, Btm, residual, penalty, noise_level,
                                    clean_beta=0.1)
        return len(calls)

    for sigma in (1e-4, 1e-3, 1e-2):
        problem = _desk_normal_equations(desk_setup, sigma)
        assert count(0.0, problem) == 1
        assert count(1e30, problem) == 1
        assert count(1e-30, problem) == 6
        assert count(problem[-1], problem) <= 6


def _traced_reconstruction(meas, sys_ref, **kwargs):
    """Reconstruct under tracemalloc; returns the result, the peak and the
    memory still held after the return, both above the entry in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            out = reconstruct_potential(meas, sys_ref, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


def test_reconstruction_peak_n_int_squared_arrays(setup_2d):
    # peak traced memory of a 2-sweep linearized 2D reconstruction (n_int =
    # 316), in n_int x n_int float arrays.  Measured 1.79: each sweep drops
    # its system once its observation window is solved, so the Gram buffer
    # (1.0) and later one trial factor (1.0) are the only square arrays
    # alive, never together; the rest is the window solutions, residual
    # data and the penalty's coordinate arrays (about 0.5, growing like
    # n_int), and the Gram product's row-ordered copy of A2 and one n_int x
    # GRAM_BLOCK block (about 0.3 here, growing like n_int).  The
    # reference factor is the caller's and was allocated before the entry;
    # the DN-difference data is formed inside (1.77 when the measurements
    # carried it in).  The bound leaves 0.05.
    grid, sys_ref, sys_true, _ = setup_2d
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    n2_bytes = 8 * len(grid.interior) ** 2
    out, peak, _ = _traced_reconstruction(meas, sys_ref, iterations=2, mode="linearized",
                                          clean_beta=0.1)
    assert len(out["diagnostics"]["iterations"]) == 2
    assert peak / n2_bytes <= 1.84


def test_constructive_reconstruction_memory(setup_2d):
    # the constructive twin: 8 eigen-targets, alpha 1e-12, 2 sweeps.  The
    # targets come from a partial eigh in the gathered interior matrix
    # (1.25 alone), and nothing is cached on the reference system, so
    # almost nothing is held after the return.  Measured: peak 1.64, held
    # 0.015; the bounds leave 0.06 and 0.035.
    grid, sys_ref, sys_true, q_true = setup_2d
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    n2_bytes = 8 * len(grid.interior) ** 2
    out, peak, held = _traced_reconstruction(
        meas, sys_ref, iterations=2, mode="constructive", n_targets=8, alpha=1e-12,
        runge_gate=0.95)
    assert len(out["diagnostics"]["iterations"]) == 2
    assert peak / n2_bytes <= 1.70 and held / n2_bytes <= 0.05
    assert reconstruction_error(out["q_diff"], q_true.values, grid.h**2) <= 0.04


def test_reconstruction_peak_owning_its_reference(setup_2d):
    # the twin of test_reconstruction_peak_n_int_squared_arrays in which the
    # reconstruction assembles the reference itself, inside the traced
    # window, so the peak counts the reference factor.  Sweep 1 drops it
    # with its window solutions, before the Gram buffer: measured 1.79, as
    # with the caller's reference (2.78 if it lived through the loop).  The
    # bound leaves 0.05.
    grid, sys_ref, sys_true, _ = setup_2d
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    n2_bytes = 8 * len(grid.interior) ** 2
    out, peak, _ = _traced_reconstruction(meas, None, iterations=2, mode="linearized",
                                          clean_beta=0.1)
    assert len(out["diagnostics"]["iterations"]) == 2
    assert peak / n2_bytes <= 1.84


def test_constructive_memory_owning_its_reference(setup_2d):
    # the constructive twin, the reference assembled inside the traced
    # window: the targets' partial eigh runs before the reference factor
    # exists, so the two never meet.  Measured: peak 1.63 (2.63 if the
    # reference lived through the loop), held 0.009; the bounds leave 0.06
    # and 0.04.
    grid, sys_ref, sys_true, q_true = setup_2d
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")
    n2_bytes = 8 * len(grid.interior) ** 2
    out, peak, held = _traced_reconstruction(
        meas, None, iterations=2, mode="constructive", n_targets=8, alpha=1e-12,
        runge_gate=0.95)
    assert len(out["diagnostics"]["iterations"]) == 2
    assert peak / n2_bytes <= 1.69 and held / n2_bytes <= 0.05
    assert reconstruction_error(out["q_diff"], q_true.values, grid.h**2) <= 0.04


def test_every_trial_failing_stops_the_loop(desk_setup, monkeypatch):
    # when no trial system can be assembled, the next sweep would repeat the
    # same solves on the same system, so the loop stops after recording the
    # sweep: one sweep, one observation-window solve, no step taken
    grid, sys_ref, sys_true, _ = desk_setup
    meas = simulate_measurements(sys_true, sys_ref, "W1", "W2")

    def singular(*args, **kwargs):
        raise SingularSystemError("every trial is singular")

    monkeypatch.setattr(calderon, "assemble_system", singular)
    solves = _spy(monkeypatch, calderon, "control_to_interior_matrix")
    out = reconstruct_potential(meas, sys_ref, iterations=3, mode="linearized",
                                clean_beta=0.1)
    sweeps = out["diagnostics"]["iterations"]
    assert len(sweeps) == 1 and sweeps[0]["trials"] == [] and sweeps[0]["step_norm"] > 0
    assert sweeps[0]["halvings"] == 4
    observation = [sys for (sys, window), _, _ in solves if window is meas.observation_nodes]
    assert observation == [sys_ref] and len(solves) == 2
    assert np.array_equal(out["q_diff"], np.zeros(len(grid.interior)))
