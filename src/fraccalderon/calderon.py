"""Potential reconstruction from partial exterior measurements.

The measurement is the measured map: the DN map of the unknown (true)
potential between a source window and an observation window, read off the
true system, with optional entrywise relative noise.  The DN map of the
reference potential is the reconstruction's own model, not something
measured: the reconstruction reads it off the reference's source-window
solutions, which its first sweep solves anyway, and forms the data, the DN
difference between the measured and the reference map.  The measurements
record the operator and the reference potential, the point the
reconstruction linearizes at.  By the integral identity, the data paired
with a source control g1 and an observation control g2 is, to first order,
the interior integral of the potential difference against the two driven
solutions.  Reconstruction tests this linearized Galerkin system on one
family of control pairs P and seeks the update in one unknown basis Phi:
unit pairs and Phi = I (linearized mode), or Runge pairs g_c g_k^T, whose
solution products approximate interior targets, and Phi = the targets
(constructive mode).  An optional Newton loop repeats the step around the
updated potential, reusing the same measured data.  The identity is exact
between any two systems, so the loop never assembles a DN map: a trial's
residual data follows from the current residual and the two systems'
window solutions.

Each system is factored once and each window solved once per system:
``simulate_measurements`` factors nothing and solves the true system's
source window; the reconstruction factors the reference and each trial
and solves a source window per system and an observation window per
sweep.  A 2-sweep ``invert`` makes 4 factorizations (true, reference, two
trials) and 6 window solves.  Memory is one Dirichlet factor (n_int^2
doubles) at a time: the true system is freed once measured, before the
reconstruction assembles its reference, and the reconstruction drops each
system after its last window solve, before the Gram buffer (the one
n_int^2 array of the solve) is allocated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, blas, lapack

from ._kernels import matmul, norm, syrk
from .dirichlet import (DirichletSystem, Potential, assemble_system, lowest_eigenvectors,
                        system_facts)
from .dnmap import assemble_dn, dn_readout
from .errors import (GridMismatchError, IllConditionedWarning, ReferenceMismatchError,
                     RungeFailError, SingularSystemError)
from .fracop import FracOperator
from .grid import Grid
from .runge import COND_WARN, control_to_interior_matrix, ridge_controls

DEFAULT_RUNGE_GATE = 0.05


@dataclass
class MeasurementSet:
    """What was measured: ``measured``, the DN map of the true potential
    from the source window to the observation window (|W2| x |W1|), as read
    off the true system, and the noise it carries, ``noise`` = 1 + sigma xi
    entrywise (xi standard normal, seeded) or None for clean data.  The data
    a reconstruction fits is the DN difference against the reference's map,
    ``difference_data``.  ``op`` and ``reference`` are the operator and the
    reference potential that difference is taken against: the linearization
    point a reconstruction of these data starts from."""
    op: FracOperator
    reference: Potential
    source_nodes: np.ndarray
    observation_nodes: np.ndarray
    measured: np.ndarray                # DN(true) on W2 x W1
    noise: np.ndarray | None            # relative noise factor, None when sigma = 0
    sigma: float

    @property
    def grid(self) -> Grid:
        return self.op.grid


def difference_data(meas: MeasurementSet, dn_ref: np.ndarray) -> np.ndarray:
    """The DN-difference data (DN(true) - DN(reference)) * noise between the
    measurement windows, from the reference's DN map ``dn_ref`` (|W2| x |W1|):
    the difference first, then the noise factor, if any."""
    data = meas.measured - dn_ref
    return data if meas.noise is None else data * meas.noise


def simulate_measurements(true: DirichletSystem, reference: DirichletSystem | Potential,
                          W1, W2, sigma: float = 0.0, seed: int = 0) -> MeasurementSet:
    """Measure the true system: its DN map between the windows W1 and W2,
    with optional entrywise relative Gaussian noise of level ``sigma``,
    deterministic for a fixed seed.

    One window solve, on the true system; nothing is factored, and the
    reference's DN map is not formed here (``difference_data`` takes it,
    and ``reconstruct_potential`` reads it off the reference's source-window
    solutions).  ``reference`` is the reference potential, or a system whose
    potential it is; a system on another operator than ``true``'s raises
    ``ReferenceMismatchError``, a potential or system on another grid
    ``GridMismatchError``.  The result records ``true``'s operator and the
    reference potential, not a system."""
    if isinstance(reference, DirichletSystem):
        if reference.grid is true.grid and reference.op is not true.op:
            raise ReferenceMismatchError("the reference system is on another operator "
                                         "than the true system")
        reference = reference.potential
    if reference.grid is not true.grid:
        raise GridMismatchError("the reference and the true system must share one grid")
    dn_true = assemble_dn(true, W1, W2)
    noise = None
    if sigma > 0:
        rng = np.random.default_rng(seed)
        noise = 1.0 + sigma * rng.standard_normal(dn_true.matrix.shape)
    return MeasurementSet(op=true.op, reference=reference,
                          source_nodes=dn_true.source_nodes,
                          observation_nodes=dn_true.observation_nodes,
                          measured=dn_true.matrix, noise=noise, sigma=float(sigma))


def _interior_laplacian(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The graph Laplacian L of the interior lattice (nearest neighbours, in
    interior order) as its stencil: row i of L holds ``weights[i]`` at
    columns ``cols[i]``.  Column 0 is i itself, weighted by its number of
    interior neighbours; then one column per step +-e_k, weighted -1 at an
    interior neighbour and 0 (at column i) where there is none."""
    inner = grid.interior
    pos = np.full(grid.n_nodes, -1, dtype=np.int64)
    pos[inner] = np.arange(len(inner))
    steps = np.concatenate([np.eye(grid.dim, dtype=np.int64),
                            -np.eye(grid.dim, dtype=np.int64)])
    nb = grid.idx[inner][:, None, :] + steps                 # (n, 2 dim, dim)
    on_lattice = np.all((nb >= 0) & (nb < grid.shape[0]), axis=2)
    # a node's number is its lattice point's flat index
    flat = np.ravel_multi_index(tuple(np.moveaxis(nb, 2, 0)), grid.shape, mode="clip")
    linked = on_lattice & (pos[flat] >= 0)
    own = np.arange(len(inner))[:, None]
    cols = np.concatenate([own, np.where(linked, pos[flat], own)], axis=1)
    link = linked.astype(float)
    return cols, np.concatenate([link.sum(axis=1, keepdims=True), -link], axis=1)


# relative ridge added to the Laplacian penalty: the graph Laplacian leaves
# the constants unpenalized, and ridge = RIDGE * ||LtL||_F closes that null
# space without biasing amplitudes
RIDGE = 1e-6
# With beta = rel * ||BtB||_F / ||P||_F, P = LtL + ridge * I, the penalized
# normal matrix BtB + beta * P has condition number at most
# (1 + 1/rel) * ||P||_F / ridge <= (1 + 1/rel) * (1 + RIDGE * sqrt(n)) / RIDGE
# for any L, about (1 + 1/rel) / RIDGE: it depends on RIDGE alone.
# BETA_FLOOR is the smallest rel keeping that bound within runge.COND_WARN.
BETA_FLOOR = 1.0 / (RIDGE * COND_WARN - 1.0)


def _penalty(grid: Grid, basis: np.ndarray = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Laplacian penalty P = LtL + ridge * I in coordinate form.

    L is ``_interior_laplacian(grid)`` on the n interior unknowns.  Returns
    ``(rows, cols, vals)`` with P[rows, cols] = vals, each position once and
    every other entry zero.  Without a basis, LtL[j, k] sums the products
    L[i, j] L[i, k] of the entries in each row i: at most (2 dim + 1)^2 n
    positions whose entries are small integers, so they are exact in any
    summation order.  In an unknown basis Phi the operator is L Phi and P
    is the dense k x k matrix (L Phi)^T (L Phi) + ridge * I.  The ridge is
    RIDGE * ||LtL||_F, added to the diagonal.
    """
    cols, weights = _interior_laplacian(grid)
    n = len(cols)
    if basis is None:
        pairs = (cols[:, :, None] * n + cols[:, None, :]).ravel()
        products = (weights[:, :, None] * weights[:, None, :]).ravel()
        pos, where = np.unique(pairs, return_inverse=True)
        rows, cols, vals = pos // n, pos % n, np.bincount(where, weights=products)
    else:
        LPhi = np.sum(weights[:, :, None] * basis[cols], axis=1)
        LtL = matmul(LPhi.T, LPhi)
        rows, cols = np.indices(LtL.shape).reshape(2, -1)
        vals = LtL.ravel()
    # a sum of squares, not dnrm2: exact on the integer entries
    ridge = RIDGE * np.sqrt(np.sum(vals * vals))
    return rows, cols, vals + ridge * (rows == cols)


# columns of the Gram buffer handled at once: the temporaries of
# ``_linearized_normal_equations`` and ``_solve_regularized`` stay at
# n x GRAM_BLOCK doubles
GRAM_BLOCK = 64


def _column_blocks(n: int) -> list:
    return [(j0, min(j0 + GRAM_BLOCK, n)) for j0 in range(0, n, GRAM_BLOCK)]


def _solve_regularized(gram: tuple, Btm: np.ndarray, residual, penalty: tuple,
                       noise_level: float, clean_beta: float = 1e-3) -> tuple[np.ndarray, float]:
    """Penalized least squares min ||B x - m||^2 + beta * ||L x||^2 (plus a
    ridge), with the weight picked by discrepancy against the noise estimate
    (fixed relative weight for clean data).

    B and m enter only through the normal-equation pieces ``gram`` (B^T B)
    and ``Btm`` (B^T m), and through ``residual(x)`` = ||B x - m|| for the
    discrepancy test, so a caller never has to form B.  ``gram`` is the
    pair (G, diag) of ``_linearized_normal_equations``: B^T B is G's strict
    upper triangle, mirrored, with ``diag`` on its diagonal; G's diagonal
    and lower triangle are work space.  ``penalty`` is P = LtL + ridge * I
    in the coordinate form of ``_penalty``, built once per reconstruction.
    Each weight beta mirrors the upper triangle into the lower by column
    blocks, puts back the diagonal, adds beta * P at P's lower-triangle
    positions, and factors and solves by Cholesky in place (potrf and potrs
    on the lower triangle): BtB is positive semidefinite and P positive
    definite, so BtB + beta * P is symmetric positive definite.  The upper
    triangle survives, so every beta of the discrepancy search reuses G, a
    weight's solution does not depend on the weights solved before it, and
    the solve allocates no n x n array.

    With noise, the weight is the largest of 25 log-spaced weights, from
    100 to ``clean_beta`` times ||BtB||_F / ||P||_F, whose residual meets
    1.1 times ``noise_level``.  For P positive definite the Tikhonov
    residual ||B x_beta - m|| never decreases as beta grows, so along the
    descending grid the weights that meet the target come last, and the
    search bisects for the first of them: the top weight first, then the
    other 24 by bisection, keeping the solution of the best weight that
    met.  That is at most 6 penalized factorizations: the top weight and at
    most 5 bisection steps when a weight meets, the top weight, 4 bisection
    steps and the floor when none does; clean data makes one.

    The relative weight ``clean_beta`` is the penalty weight over
    ||BtB||_F / ||P||_F; the normal matrix's condition number
    is at most about (1 + 1/clean_beta) / RIDGE = 1e6 * (1 + 1/clean_beta).
    Below ``BETA_FLOOR`` (about 1e-8) that bound exceeds ``runge.COND_WARN``
    and the solve would return a solution set by rounding order, so
    ``clean_beta`` is raised to the floor with an ``IllConditionedWarning``
    naming both weights, and the discrepancy grid stops there.  Above the
    floor nothing changes.  Returns the solution and the absolute weight used.
    """
    G, diag = gram
    n = len(diag)
    blocks = _column_blocks(n)
    rows, cols, vals = penalty
    lower = rows >= cols
    p_rows, p_cols, p_vals = rows[lower], cols[lower], vals[lower]
    # ||BtB||_F: the strict upper triangle counts twice
    upper_sq = sum(norm(G[:j0, j0:j1]) ** 2 + norm(np.triu(G[j0:j1, j0:j1], 1)) ** 2
                   for j0, j1 in blocks)
    scale = np.sqrt(2.0 * upper_sq + norm(diag) ** 2) / max(norm(vals), 1e-300)
    if clean_beta < BETA_FLOOR:
        warnings.warn(
            f"clean_beta {clean_beta:.3e} puts the penalized normal equations' "
            f"condition bound beyond {COND_WARN:.0e}; raised to the resolvable "
            f"floor {BETA_FLOOR:.3e}", IllConditionedWarning)
        clean_beta = BETA_FLOOR
    floor = clean_beta * scale
    below = np.tri(GRAM_BLOCK, k=-1, dtype=bool)
    # a writable view of G's diagonal: G is Fortran-contiguous
    on_diagonal = G.reshape(-1, order="F")[::n + 1]

    def solve(beta):
        for j0, j1 in blocks:
            square = G[j0:j1, j0:j1]
            square[...] = np.where(below[:j1 - j0, :j1 - j0], square.T, square)
            G[j1:, j0:j1] = G[j0:j1, j1:].T
        on_diagonal[...] = diag
        G[p_rows, p_cols] += beta * p_vals
        factor, info = lapack.dpotrf(G, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise LinAlgError(f"penalized normal matrix not positive definite (potrf {info})")
        return lapack.dpotrs(factor, Btm, lower=1)[0]

    if noise_level <= 0:
        return solve(floor), floor
    # discrepancy principle, guarded below by the frozen floor: noise may only
    # raise the smoothing weight, never drop it under the clean-data policy
    # (the residual target ignores linearization error, so it can be
    # unreachable; drilling past the floor would fit noise)
    betas = scale * np.logspace(2, np.log10(clean_beta), 25)
    best = solve(betas[0])
    if residual(best) <= 1.1 * noise_level:
        return best, betas[0]
    # bisect for the first weight that meets the target: it lies in
    # betas[lo:hi], hi = 25 standing for none, and once a weight has met,
    # ``best`` is the solution at betas[hi]
    lo, hi = 1, len(betas)
    while lo < hi:
        mid = (lo + hi) // 2
        dq = solve(betas[mid])
        if residual(dq) <= 1.1 * noise_level:
            hi, best = mid, dq
        else:
            lo = mid + 1
    if hi < len(betas):
        return best, betas[hi]
    return solve(floor), floor


def _linearized_normal_equations(A1: np.ndarray, A2: np.ndarray, D: np.ndarray,
                                 hn: float, basis: np.ndarray = None):
    """Normal equations of the linearized Galerkin system, without the system.

    Test pair (k, l) gives the row hn * A1[:, k] * A2[:, l] with datum
    hn * D[l, k], so B (one row per pair, n_int columns) is the row-wise
    Khatri-Rao product of A1^T and A2^T.  Its normal equations and residual
    follow from n_int x n_int Gram matrices:

        BtB = hn^2 * (A1 A1^T) o (A2 A2^T)
        Btm = hn^2 * rowsum(A1 o (A2 D))
        ||B dq - m|| = hn * ||A1^T diag(dq) A2 - D^T||_F

    BtB is symmetric, so only its upper triangle is formed, in one Fortran
    buffer G: hn^2 A1 A1^T by syrk, then A2 A2^T multiplied in by column
    blocks of ``GRAM_BLOCK``, one n_int x GRAM_BLOCK product at a time.  G
    is the only n_int x n_int array allocated.  In an unknown basis Phi
    (dq = Phi c; None is the identity) they become Phi^T BtB Phi (a symm
    product from the upper triangle), Phi^T Btm and the residual at Phi c.
    Returns ``((G, diag), Btm, residual)`` for ``_solve_regularized``, with
    BtB's diagonal copied into ``diag``.
    """
    n = A1.shape[0]
    G = syrk(A1, hn**2, out=np.zeros((n, n), order="F"))
    # rows of A2 contiguous, so each block product reads views of them
    rows2 = np.ascontiguousarray(A2)
    for j0, j1 in _column_blocks(n):
        G[:j1, j0:j1] *= matmul(rows2[:j1], rows2[j0:j1].T)
    del rows2
    Btm = hn**2 * np.sum(A1 * matmul(A2, D), axis=1)

    def residual(dq):
        return hn * norm(matmul(A1.T, dq[:, None] * A2) - D.T)

    if basis is None:
        return (G, G.diagonal().copy()), Btm, residual
    small = np.asfortranarray(matmul(basis.T, blas.dsymm(1.0, G, basis)))
    return ((small, small.diagonal().copy()), matmul(basis.T, Btm),
            lambda c: residual(matmul(basis, c)))


def _pair(X: np.ndarray, G1: np.ndarray, G2: np.ndarray, power: int = 1) -> np.ndarray:
    """Window data X tested on the control pairs, (G2^p)^T X G1^p (entrywise
    powers); X itself for unit pairs (G1 = G2 = None)."""
    if G1 is None:
        return X
    return matmul(matmul((G2**power).T, X), G1**power)


def _runge_controls(K: np.ndarray, targets: np.ndarray, alpha: float, gate: float,
                    hn: float, label: str):
    """Runge controls for every target column from the window's solved
    control-to-interior matrix K; gate on each column's relative residual,
    naming every column that fails it (a NaN fails)."""
    res, = ridge_controls(K, targets, [alpha], hn)
    failing = np.flatnonzero(~(res.relative_residual <= gate))
    if failing.size:
        raise RungeFailError(f"{label} controls {failing.tolist()}: relative residuals "
                             f"{np.round(res.relative_residual[failing], 3).tolist()} "
                             f"exceed {gate:.0%}")
    return res


def reconstruct_potential(meas: MeasurementSet, sys_ref: DirichletSystem = None,
                          alpha: float = 1e-10, n_targets: int = 10,
                          runge_gate: float = DEFAULT_RUNGE_GATE, iterations: int = 1,
                          mode: str = "constructive", clean_beta: float = 1e-3) -> dict:
    """Estimate the potential difference against the measurements' reference.

    The data is the DN difference ``difference_data(meas, DN(reference))``,
    with the reference's DN map read off the source-window solutions U1
    of the reference system (``dnmap.dn_readout``), which the first sweep
    solves anyway: no window is solved for it.  Per iteration the residual
    DN data (the data minus what the current estimate explains) is tested
    on control pairs of the current system.
    With U1, U2 the interior solutions driven by the window basis vectors,
    the pair factors are A1 = U1 G1 and A2 = U2 G2, the paired data is
    D = G2^T data G1, and the update is dq = Phi c.  Linearized mode takes
    G1 = G2 = Phi = I.  Constructive mode takes G1 = Runge controls (ridge
    weight ``alpha``) on the source window for the targets, the ``n_targets``
    lowest Dirichlet eigenvectors of the reference (a partial eigh that
    caches nothing), G2 = one control for the
    constant one on the observation window, and Phi = targets, since each
    pairing is a moment against one target.  A control whose relative
    residual exceeds ``runge_gate`` raises ``RungeFailError``.  Each window's
    controls are filter factors on one SVD of U1 or U2.  Tolerance: the
    estimate equals that of the explicit moment rows hn (U1 g_k) o (U2 g_c)
    up to rounding order, within 1e-8 relative max-norm on the 1D desk case.

    Both modes solve one Gram-form penalized system
    (``_linearized_normal_equations``) at the noise level
    sigma * hn * sqrt(sum((G2 o G2)^T (data o data) (G1 o G1))), which is
    sigma * hn * ||data|| for unit pairs.  ``clean_beta`` is the relative
    penalty weight (see ``_solve_regularized``); below ``BETA_FLOOR`` (about
    1e-8) it is raised to the floor with an ``IllConditionedWarning``, and
    each iteration's diagnostics record the absolute weight as ``beta``,
    the residual data norm before the step as ``data_norm``, the update's
    weighted norm as ``step_norm``, the number of times the step was halved
    before the accepted trial (4 when every trial failed) as ``halvings``,
    and ``system_facts`` of each trial system the backtracking assembled,
    in order, as ``trials``.  The
    diagnostics record the reference system's ``system_facts`` as
    ``reference``.

    No DN map is assembled: the reference's is read off the U1 that sweep 1
    solves, and the loop needs none.  The operator is exactly symmetric, so
    for a trial system T and the current system C the integral identity is
    the matrix identity DN(T) - DN(C) = U2_C^T diag(q_T - q_C) U1_T, and the
    trial's residual data is the current residual minus that product.
    Each system is factored once and its source window solved once (the
    reference's before the first sweep, each trial's when it is tried, and
    the accepted trial's U1 is the next sweep's), and each sweep solves its
    observation window once: 2 linearized sweeps that accept their first
    trials make 3 factorizations and 5 window solves.

    The reference system is only the linearization point: the operator
    ``meas.op`` with the potential ``meas.reference``.  Without ``sys_ref``
    the reconstruction assembles it, as it assembles a trial, and owns it.
    A ``sys_ref`` passed in serves instead (a caller reconstructing several
    data sets against one reference keeps it); it must be built on
    ``meas.op`` with the values of ``meas.reference``, or
    ``ReferenceMismatchError`` is raised (``GridMismatchError`` for another
    grid).  The estimate is the same to the byte either way.

    One Dirichlet factor at a time.  A system is kept only until its last
    use: a sweep's system, the reference included, is dropped once its
    observation window is solved and its Runge controls are taken, before
    the Gram buffer is allocated; a rejected trial is dropped before the
    next is assembled.  The targets are computed before the
    reference is assembled.  So n_int x n_int arrays peak at one: a factor
    or the Gram buffer (plus the caller's reference, when one is passed);
    ``fraccalderon invert`` passes none.  When every trial of a sweep
    fails, the loop records that sweep and stops: the next sweep would
    repeat the same solves on the same system, U1 and residual, to the bit.
    """
    grid = meas.grid
    if sys_ref is not None:
        if sys_ref.grid is not grid:
            raise GridMismatchError("measurements and reference system on different grids")
        if sys_ref.op is not meas.op or not np.array_equal(sys_ref.potential.values,
                                                           meas.reference.values):
            raise ReferenceMismatchError(
                "the reference system is not the operator and potential that the "
                "measurements were taken against")
    hn = grid.h ** grid.dim
    n_int = len(grid.interior)
    src, obs = meas.source_nodes, meas.observation_nodes

    if mode not in ("linearized", "constructive"):
        raise ValueError(f"unknown mode {mode!r}")
    basis = None
    if mode == "constructive":
        basis = lowest_eigenvectors(meas.op, meas.reference,
                                    min(n_targets, n_int)) / np.sqrt(hn)
    penalty = _penalty(grid, basis)
    diagnostics = {"iterations": [], "mode": mode}

    # the current system (the reference to begin with: the caller's, or one
    # assembled here and held by ``sys_cur`` alone, so that sweep 1 frees
    # it), its source-window solutions U1 and its residual data (measured
    # difference minus the part the current estimate explains).  The
    # reference's DN map, which the data is the difference against, is read
    # off its U1
    sys_cur = assemble_system(meas.op, meas.reference) if sys_ref is None else sys_ref
    del sys_ref
    diagnostics["reference"] = system_facts(sys_cur)
    q_hat = meas.reference.values.copy()
    U1 = control_to_interior_matrix(sys_cur, src)
    data_cur = data = difference_data(meas, dn_readout(meas.op, U1, src, obs))

    # once the residual data sits at the noise floor, further sweeps only fit noise
    noise_floor = 1.2 * meas.sigma * norm(data)

    for it in range(max(1, int(iterations))):
        misfit_now = norm(data_cur)
        if it > 0 and misfit_now <= noise_floor:
            break
        U2 = control_to_interior_matrix(sys_cur, obs)

        # test-pair factors A1 = U1 G1 and A2 = U2 G2 (G None: unit pairs)
        if basis is None:
            A1, A2, G1, G2 = U1, U2, None, None
            runge_res, test_res = [], []
        else:
            r1 = _runge_controls(U1, basis, alpha, runge_gate, hn, "target")
            r2 = _runge_controls(U2, np.ones((n_int, 1)), alpha, runge_gate, hn, "constant")
            A1, A2, G1, G2 = r1.achieved, r2.achieved, r1.control, r2.control
            runge_res, test_res = r1.residual.tolist(), r2.residual.tolist()
        # the sweep's system is done with: unbound, its factor is freed
        # before the Gram buffer is allocated (unless the caller holds it)
        del sys_cur

        noise_level = meas.sigma * hn * float(np.sqrt(np.sum(
            _pair(data**2, G1, G2, power=2))))
        # unbound, the normal matrix is freed once solved, before any trial
        # system is assembled
        dc, beta = _solve_regularized(
            *_linearized_normal_equations(A1, A2, _pair(data_cur, G1, G2), hn, basis),
            penalty, noise_level, clean_beta=clean_beta)
        dq = dc if basis is None else matmul(basis, dc)

        # backtrack the update if it stops explaining the measured data, or if
        # the trial potential is non-finite or makes the system unsolvable
        trials = []

        def _try(q_vals):
            sys_try = assemble_system(meas.op, Potential(grid, q_vals))
            trials.append(system_facts(sys_try))
            U1_try = control_to_interior_matrix(sys_try, src)
            # DN(trial) - DN(current) = U2^T diag(q_trial - q_current) U1_trial
            return sys_try, U1_try, data_cur - matmul(U2.T, (q_vals - q_hat)[:, None] * U1_try)

        step, tried = dq, None
        for halvings in range(4):
            trial = q_hat + step
            if np.all(np.isfinite(trial)):
                try:
                    tried = _try(trial)
                except SingularSystemError:
                    tried = None
                if tried is not None and (norm(tried[2]) <= misfit_now or it == 0):
                    break
                # a rejected trial's factor is freed before the next is assembled
                tried = None
            step = step / 2.0
        else:
            # every trial failed, after the step was halved 4 times
            halvings = 4
        diagnostics["iterations"].append({
            "runge_residuals": runge_res,
            "test_residuals": test_res,
            "beta": float(beta),
            "data_norm": misfit_now,
            "step_norm": float(np.sqrt(hn) * norm(dq)),
            "halvings": halvings,
            "trials": trials,
        })
        if tried is None:
            # every trial failed: the next sweep would repeat this one exactly
            # (same system, U1 and residual), so the loop stops here
            break
        q_hat = q_hat + step
        sys_cur, U1, data_cur = tried
        del tried

    estimate = q_hat - meas.reference.values
    return {"q_diff": estimate, "diagnostics": diagnostics}


def reconstruction_error(estimate: np.ndarray, truth: np.ndarray, hn: float) -> float:
    """Relative weighted L2 error of the estimated potential difference."""
    denom = np.sqrt(hn) * norm(truth)
    if denom == 0:
        return float(np.sqrt(hn) * norm(estimate))
    return float(np.sqrt(hn) * norm(estimate - truth) / denom)
