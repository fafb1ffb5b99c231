"""Exterior control by regularized least squares.

Solutions driven by data in an exterior window are dense in L2 of the
domain; this module realizes that density constructively: given an interior
target, it finds the window control whose solution restriction comes
closest, with a ridge penalty stabilizing the severely ill-posed problem.
The ridge solution comes from the SVD of the control-to-interior matrix K,
and the optimum satisfies K^*(achieved - target) = -alpha * control with K^*
the adjoint of that map.  One window solve and one SVD serve every target
column and every alpha: each control is a set of filter factors on that
SVD.  ``ridge_controls`` takes the solved matrix, so a caller that already
holds it (the inverse solver) solves no window again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import svd

from ._kernels import matmul, norm
from .dirichlet import DirichletSystem, solve_window
from .errors import IllConditionedWarning

DEFAULT_ALPHAS = tuple(np.logspace(-2, -12, 11))
COND_WARN = 1e14


@dataclass
class ControlProblem:
    sys: DirichletSystem
    window: object                  # window name or node-position array
    target: np.ndarray              # interior nodes, or one column per target
    alpha: float = 1e-10

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float)
        if self.target.ndim not in (1, 2) or len(self.target) != len(self.sys.grid.interior):
            raise ValueError("target must be given on the interior nodes")
        if not np.all(np.isfinite(self.target)):
            raise ValueError("target must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


@dataclass
class RungeResult:
    # a target matrix gives one column (or one entry) per target column
    control: np.ndarray             # on window nodes
    achieved: np.ndarray            # interior values of the driven solution
    residual: float                 # weighted L2 distance to the target
    control_norm: float
    alpha: float
    singular_values: np.ndarray = field(repr=False)
    condition: float


def control_to_interior_matrix(sys: DirichletSystem, window) -> np.ndarray:
    """Columns are interior values of solutions driven by window basis vectors."""
    nodes, _ = sys.grid.exterior_window(window)
    return solve_window(sys, nodes)


def ridge_controls(K: np.ndarray, p: ControlProblem, factors=None) -> RungeResult:
    """Ridge controls for every target column of ``p`` from K, the
    control-to-interior matrix of its window: filter factors on K's thin SVD
    (taken here unless ``factors`` passes it in)."""
    if K.shape[1] == 0:
        raise ValueError("window captured zero nodes")
    U, sig, Vt = svd(K, full_matrices=False) if factors is None else factors
    cond = (sig[0] ** 2 + p.alpha) / (sig[-1] ** 2 + p.alpha)
    if cond > COND_WARN:
        warnings.warn(
            f"normal equations condition number {cond:.2e}; the exterior "
            "control problem is severely ill-posed", IllConditionedWarning)
    beta = matmul(U.T, p.target)
    if p.alpha == 0.0:
        filt = np.where(sig > sig[0] * 1e-13, 1.0 / np.where(sig > 0, sig, 1.0), 0.0)
    else:
        filt = sig / (sig**2 + p.alpha)
    g = matmul(Vt.T, (filt * beta.T).T)
    achieved = matmul(K, g)

    # weighted L2 norms, one per target column
    root_hn = np.sqrt(p.sys.grid.h ** p.sys.grid.dim)
    wnorm = (lambda x: float(root_hn * norm(x))) if p.target.ndim == 1 else (
        lambda x: root_hn * np.linalg.norm(x, axis=0))
    return RungeResult(control=g, achieved=achieved, residual=wnorm(achieved - p.target),
                       control_norm=wnorm(g), alpha=p.alpha, singular_values=sig,
                       condition=cond)


def runge_approximate(p: ControlProblem) -> RungeResult:
    """Minimize the weighted misfit plus ridge penalty over window controls,
    through the SVD of the control-to-interior matrix (one per window, shared
    by the columns of a target matrix)."""
    return ridge_controls(control_to_interior_matrix(p.sys, p.window), p)


def alpha_sweep(sys: DirichletSystem, window, target, alphas=DEFAULT_ALPHAS) -> list:
    """Regularization path (the discrete L-curve data), one window solve and
    SVD for every alpha."""
    problems = [ControlProblem(sys, window, target, alpha=float(a)) for a in alphas]
    K = control_to_interior_matrix(sys, window)
    factors = svd(K, full_matrices=False)
    return [ridge_controls(K, p, factors) for p in problems]
