import dataclasses

import numpy as np
import pytest

from fraccalderon import assemble_quadrature, build_grid
from fraccalderon.dirichlet import assemble_system, potential_from_spec
from fraccalderon.errors import DomainError
from fraccalderon.fracop import FracOperator

DESK_WINDOWS = {
    "W1": {"type": "interval", "bounds": [1.2, 1.8]},
    "W2": {"type": "interval", "bounds": [-1.8, -1.2]},
}


def make_grid_1d(h, R=4.0, windows=DESK_WINDOWS):
    return build_grid(
        1, h, R,
        {"type": "interval", "bounds": [-1.0, 1.0]},
        {"type": "interval", "bounds": [-2.0, 2.0]},
        windows,
    )


@pytest.fixture(scope="session")
def desk_grid():
    """1D desk grid, h = 0.05."""
    return make_grid_1d(0.05)


@pytest.fixture(scope="session")
def desk_op(desk_grid):
    return assemble_quadrature(desk_grid, 0.5)


@pytest.fixture(scope="session")
def desk_sys0(desk_op):
    return assemble_system(desk_op, potential_from_spec(desk_op.grid, 0.0))


@pytest.fixture(scope="session")
def desk_sys_bump(desk_op):
    spec = {"type": "gaussian", "amplitude": 0.5, "center": 0.0, "width": 0.4}
    return assemble_system(desk_op, potential_from_spec(desk_op.grid, spec))


@pytest.fixture(scope="session")
def fine_grid():
    """1D fine grid, h = 0.02."""
    return make_grid_1d(0.02)


@pytest.fixture(scope="session")
def fine_op(fine_grid):
    return assemble_quadrature(fine_grid, 0.5)


@pytest.fixture(scope="session")
def fine_sys0(fine_op):
    return assemble_system(fine_op, potential_from_spec(fine_op.grid, 0.0))


@pytest.fixture(scope="session")
def grid_2d():
    return build_grid(
        2, 0.1, 3.0,
        {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "disc", "center": [0.0, 0.0], "radius": 2.0},
        {"W1": {"type": "disc", "center": [1.5, 0.0], "radius": 0.35}},
    )


@pytest.fixture(scope="session")
def op_2d(grid_2d):
    return assemble_quadrature(grid_2d, 0.5)


@pytest.fixture(scope="session")
def setup_2d():
    """2D disc, h = 0.1, with two opposite exterior windows: reference and
    Gaussian-bump systems."""
    grid = build_grid(2, 0.1, 3.0,
                      {"type": "disc", "center": [0, 0], "radius": 1.0},
                      {"type": "disc", "center": [0, 0], "radius": 2.0},
                      {"W1": {"type": "disc", "center": [1.5, 0], "radius": 0.35},
                       "W2": {"type": "disc", "center": [-1.5, 0], "radius": 0.35}})
    op = assemble_quadrature(grid, 0.5)
    sys_ref = assemble_system(op, potential_from_spec(grid, 0.0))
    q_true = potential_from_spec(
        grid, {"type": "gaussian", "amplitude": 0.5, "center": [0.0, 0.0], "width": 0.5})
    sys_true = assemble_system(op, q_true)
    return grid, sys_ref, sys_true, q_true


def smooth_bump(grid, center, width):
    r2 = np.sum((grid.coords - np.atleast_1d(center)) ** 2, axis=1)
    vals = np.exp(-r2 / (2.0 * width * width))
    vals[grid.far] = 0.0
    return vals


def window_vector(grid, window, values):
    """Exterior-support vector carrying given values on a window."""
    f = np.zeros(len(grid.ext_support))
    f[np.searchsorted(grid.ext_support, grid.indices_of(window))] = values
    return f


class DenseOperator(FracOperator):
    """An operator whose blocks and products read a given dense (symmetric)
    matrix, so that no caller acts with the offset table instead."""

    def __init__(self, op, dense):
        super().__init__(**{f.name: getattr(op, f.name) for f in dataclasses.fields(op)})
        self.dense = dense

    def block(self, row_nodes, col_nodes):
        return self.dense[np.ix_(self.rows(row_nodes), self.rows(col_nodes))]

    def apply(self, u, nodes):
        u = np.asarray(u, dtype=float)
        if np.any(u[self.grid.nonfar_row < 0]):
            raise DomainError("the operator acts on functions that vanish on FAR nodes")
        return self.dense[self.rows(nodes)] @ u[self.grid.nonfar]


def convolve_long_pad(tab, mask):
    """``_kernels.offset_convolve`` with every FFT axis padded to the power of
    two >= 3 m - 2, at which the whole linear convolution is exact: the
    reference for the shortest exact length 2 m - 1."""
    n = mask.shape
    kern = tab[np.ix_(*[np.abs(np.arange(1 - m, m)) for m in n])]
    shape = tuple(1 << (3 * m - 3).bit_length() for m in n)
    axes = tuple(range(len(n)))
    full = np.fft.irfftn(np.fft.rfftn(mask, shape, axes) * np.fft.rfftn(kern, shape, axes),
                         shape, axes)
    return full[tuple(slice(m - 1, 2 * m - 1) for m in n)]
