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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svd

from ._kernels import matmul
from .dirichlet import DirichletSystem, solve_window
from .errors import IllConditionedWarning

DEFAULT_ALPHAS = tuple(np.logspace(-2, -12, 11))
COND_WARN = 1e14


@dataclass
class RungeResult:
    # one alpha's controls; a target matrix gives one column (or entry) per target column
    control: np.ndarray             # on window nodes
    achieved: np.ndarray            # interior values of the driven solution
    residual: float                 # weighted L2 distance to the target
    control_norm: float
    target_norm: float              # weighted L2 norm of the target
    alpha: float
    condition: float

    @property
    def relative_residual(self):
        """The residual over the target's weighted norm, per target column;
        a zero target's is its absolute residual."""
        return self.residual / np.where(self.target_norm > 0, self.target_norm, 1.0)


def control_to_interior_matrix(sys: DirichletSystem, window) -> np.ndarray:
    """Columns are interior values of solutions driven by window basis vectors."""
    nodes, _ = sys.grid.exterior_window(window)
    return solve_window(sys, nodes)


def ridge_controls(K: np.ndarray, target, alphas, hn: float) -> list:
    """One ``RungeResult`` per alpha of ``alphas`` for ``target`` (one value
    per interior node, or one column per target) from K, the
    control-to-interior matrix of a window: filter factors on one thin SVD
    of K.  Norms are weighted by the cell volume ``hn`` = h^dim."""
    target = np.asarray(target, dtype=float)
    if target.ndim not in (1, 2) or len(target) != K.shape[0]:
        raise ValueError("target must be given on the interior nodes")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    alphas = [float(a) for a in alphas]
    if not all(a >= 0 for a in alphas):
        raise ValueError("alpha must be nonnegative")
    if K.shape[1] == 0:
        raise ValueError("window captured zero nodes")
    U, sig, Vt = svd(K, full_matrices=False)
    beta = matmul(U.T, target)
    # weighted L2 norms, one per target column
    wnorm = lambda x: np.sqrt(hn) * np.linalg.norm(x, axis=0)
    target_norm, results = wnorm(target), []
    for alpha in alphas:
        cond = (sig[0] ** 2 + alpha) / (sig[-1] ** 2 + alpha)
        if cond > COND_WARN:
            warnings.warn(
                f"normal equations condition number {cond:.2e}; the exterior "
                "control problem is severely ill-posed", IllConditionedWarning)
        if alpha == 0.0:
            filt = np.where(sig > sig[0] * 1e-13, 1.0 / np.where(sig > 0, sig, 1.0), 0.0)
        else:
            filt = sig / (sig**2 + alpha)
        g = matmul(Vt.T, (filt * beta.T).T)
        achieved = matmul(K, g)
        results.append(RungeResult(control=g, achieved=achieved,
                                   residual=wnorm(achieved - target), control_norm=wnorm(g),
                                   target_norm=target_norm, alpha=alpha, condition=cond))
    return results


def runge_approximate(sys: DirichletSystem, window, target, alpha: float = 1e-10) -> RungeResult:
    """Minimize the weighted misfit plus ridge penalty over controls on
    ``window``: one window solve and one ``ridge_controls`` call."""
    K = control_to_interior_matrix(sys, window)
    return ridge_controls(K, target, [alpha], sys.grid.h ** sys.grid.dim)[0]


def alpha_sweep(sys: DirichletSystem, window, target, alphas=DEFAULT_ALPHAS) -> list:
    """Regularization path (the discrete L-curve data): one window solve and
    one ``ridge_controls`` call for every alpha."""
    K = control_to_interior_matrix(sys, window)
    return ridge_controls(K, target, alphas, sys.grid.h ** sys.grid.dim)
