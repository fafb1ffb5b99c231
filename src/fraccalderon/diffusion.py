"""Nonlocal diffusion driven by the fractional operator.

Evolution is exact eigen-expansion propagation (no time stepping): the
exterior-clamped problem decomposes into the steady Poisson solution plus a
homogeneous part decaying through the Dirichlet spectrum.  The free-space
heat kernel comes from the padded Fourier transform, and a one-step free
evolution of the steady state recovers the DN map to first order in time,
which is the dynamical reading of the exterior measurement.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

from ._kernels import matmul, norm
from .dirichlet import DirichletSystem, dirichlet_spectrum, ensure_solvable
from .errors import DomainError, GridMismatchError, ModeMismatchError
from .grid import Grid, GridFunction


def _homogeneous_propagate(sys: DirichletSystem, interior0: np.ndarray, t: float) -> np.ndarray:
    spec = dirichlet_spectrum(sys)
    coeff = matmul(spec.eigenvectors.T, interior0)
    return matmul(spec.eigenvectors, np.exp(-spec.eigenvalues * t) * coeff)


def _clamped_split(sys: DirichletSystem, initial: GridFunction,
                   steady: GridFunction) -> tuple:
    """Steady state u_f (a full node vector; zero for steady = None) and
    interior difference initial - u_f under the exterior clamp u_f|ES."""
    grid = sys.grid
    if steady is not None and steady.grid is not grid:
        raise GridMismatchError("steady state and system live on different grids")
    u_f = np.zeros(grid.n_nodes) if steady is None else steady.values.copy()
    if np.max(np.abs(initial.values[grid.ext_support] - u_f[grid.ext_support])) > 0:
        raise ModeMismatchError("initial state must equal the steady state "
                                "(zero without one) on the exterior support")
    return u_f, initial.values[grid.interior] - u_f[grid.interior]


def evolve(sys: DirichletSystem, initial: GridFunction, t: float,
           steady: GridFunction = None) -> GridFunction:
    """State at time t of the evolution with the exterior clamped to f, for
    ``steady`` = ``solve_poisson(sys, f)`` (None: f = 0, steady state zero),
    propagated exactly through the cached eigenbasis."""
    ensure_solvable(sys)
    if t < 0:
        raise DomainError("t must be nonnegative")
    initial.check_far_zero()
    u_f, diff0 = _clamped_split(sys, initial, steady)
    u_f[sys.grid.interior] += _homogeneous_propagate(sys, diff0, t)
    return GridFunction(sys.grid, u_f)


def heat_kernel_free(grid: Grid, s: float, t: float, pad_factor: int = 64) -> GridFunction:
    """Free-space heat kernel at time t sampled on the 1D lattice.

    Inverse transform of exp(-t |xi|^(2s)) on the padded frequency lattice;
    mass and tails are truncation-limited and checked by the caller.
    """
    if grid.dim != 1:
        raise DomainError("free heat kernel is implemented on 1D grids")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if t <= 0:
        raise DomainError("t must be positive")
    M = int(pad_factor) * grid.shape[0]
    xi = 2.0 * np.pi * np.fft.fftfreq(M, d=grid.h)
    # cell centers sit at half-integer lattice offsets; evaluate the inverse
    # transform at (m + 1/2) h via a half-sample phase shift
    spec = np.exp(-t * np.abs(xi) ** (2 * s)) * np.exp(1j * xi * grid.h / 2.0)
    vals = np.fft.ifft(spec).real / grid.h
    m_index = np.floor(grid.coords[:, 0] / grid.h).astype(int) % M
    return GridFunction(grid, vals[m_index])


def decay_series(sys: DirichletSystem, initial: GridFunction, steady: GridFunction,
                 times) -> list:
    """(t, distance to steady state) pairs for the clamped evolution of
    ``evolve``: the interior difference decays through the spectrum."""
    ensure_solvable(sys)
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise DomainError("t must be nonnegative")
    initial.check_far_zero()
    _, diff0 = _clamped_split(sys, initial, steady)
    hn = sys.grid.h ** sys.grid.dim
    return [(t, float(np.sqrt(hn) * norm(_homogeneous_propagate(sys, diff0, t))))
            for t in times]


def dn_cost_check(sys: DirichletSystem, steady: GridFunction) -> dict:
    """Short free evolution of the steady state versus the DN readout.

    (f - u(dt))/dt on the exterior support approximates the DN map of f with
    an O(dt) remainder, for ``steady`` = ``solve_poisson(sys, f)``; the
    deviation halves when dt does.  ``deviation`` is taken at dt = 1e-3 /
    lambda_max and ``deviation_half`` at dt/2, from the same eigenbasis of
    the non-FAR operator.  That eigenbasis needs the whole matrix (N_nf^2
    doubles) and an O(N_nf^3) ``eigh``, so this check suits grids of a few
    thousand non-FAR nodes.  The ``evd`` driver is LAPACK's divide and
    conquer; scipy's default ``evr`` doubled a 2D ``diffuse`` run.
    """
    grid = sys.grid
    op = sys.op
    if steady.grid is not grid:
        raise GridMismatchError("steady state and system live on different grids")
    f = steady.values[grid.ext_support]
    evals, evecs = eigh(op.matrix, driver="evd")
    dt = 1e-3 / float(evals[-1])
    coeff = matmul(evecs.T, steady.values[grid.nonfar])
    dn = op.apply(steady.values, grid.ext_support)      # DN f
    scale = float(np.max(np.abs(dn))) if np.max(np.abs(dn)) > 0 else 1.0

    def deviation_at(tau):
        evolved = matmul(evecs, np.exp(-evals * tau) * coeff)
        readout = (f - evolved[op.rows(grid.ext_support)]) / tau
        return float(np.max(np.abs(readout - dn)) / scale)

    return {"deviation": deviation_at(dt), "deviation_half": deviation_at(dt / 2)}
