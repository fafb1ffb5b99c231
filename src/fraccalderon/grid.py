"""Truncated uniform lattice with region bookkeeping.

The computational box [-R, R]^dim is tiled by cells of width h; every cell
center is a node.  Nodes are classified into INTERIOR (inside the domain
omega), EXTERIOR_SUPPORT (inside the support box omega1 but outside omega)
and EXTERIOR_FAR (the rest of the box).  Grid functions model compactly
supported functions: they vanish identically on EXTERIOR_FAR nodes.

Every geometry is read in the grid's dimension: an interval is the one-axis
box, a rect a box with one [lo, hi] pair per axis, a disc a ball.
Membership is decided by the cell center; boxes are half-open per axis
([a, b)) so boundary ties resolve deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import EmptyRegionError, GeometryError, GridMismatchError, UnknownRegionError


class Region(IntEnum):
    INTERIOR = 0
    EXTERIOR_SUPPORT = 1
    EXTERIOR_FAR = 2


def _shape(spec: dict, dim: int) -> tuple:
    """A geometry spec as ("box", lo, hi) or ("ball", center, radius): an
    interval is the one-axis box, a rect's bounds are one [lo, hi] pair per
    axis, a disc is a ball.  A spec whose number of axes is not dim raises
    ``GeometryError``."""
    kind = spec["type"]
    if kind == "disc":
        shape = ("ball", np.asarray(spec["center"], dtype=float), float(spec["radius"]))
    elif kind in ("interval", "rect"):
        bounds = np.asarray(spec["bounds"], dtype=float).reshape(-1, 2)
        shape = ("box", bounds[:, 0], bounds[:, 1])
    else:
        raise GeometryError(f"unknown geometry type {kind!r}")
    if shape[1].shape != (dim,):
        raise GeometryError(f"{kind} {spec} has {shape[1].size} axes, the grid has {dim}")
    return shape


def _contains_point(shape: tuple, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership of points (n, dim) in a box or ball."""
    kind, a, b = shape
    if kind == "box":
        return np.all((pts >= a) & (pts < b), axis=1)
    return np.sum((pts - a) ** 2, axis=1) < b * b


def _strictly_inside(inner: tuple, outer: tuple) -> bool:
    """Conservative check that inner's bounding box sits strictly inside outer."""
    kind, a, b = inner
    lo, hi = (a, b) if kind == "box" else (a - b, a + b)
    kind, a, b = outer
    if kind == "box":
        return bool(np.all(lo > a) and np.all(hi < b))
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, len(lo))
    return bool(np.all(np.linalg.norm(corners - a, axis=1) < b))


@dataclass
class Grid:
    dim: int
    h: float
    R: float
    coords: np.ndarray          # (N, dim) cell centers, lexicographic order
    idx: np.ndarray             # (N, dim) integer lattice indices
    region: np.ndarray          # (N,) Region codes
    windows: dict = field(default_factory=dict)   # name -> node positions

    @property
    def shape(self) -> tuple:
        """The lattice, (n_cells,) * dim; node k sits at its flat index k."""
        return (int(round(2.0 * self.R / self.h)),) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(self.region == Region.INTERIOR)

    @property
    def ext_support(self) -> np.ndarray:
        return np.flatnonzero(self.region == Region.EXTERIOR_SUPPORT)

    @property
    def far(self) -> np.ndarray:
        return np.flatnonzero(self.region == Region.EXTERIOR_FAR)

    @property
    def nonfar(self) -> np.ndarray:
        return np.flatnonzero(self.region != Region.EXTERIOR_FAR)

    @cached_property
    def nonfar_row(self) -> np.ndarray:
        """Per node, its position in the non-FAR ordering (the operator
        matrix's row and column); -1 on FAR nodes."""
        nf = self.nonfar
        row = np.full(self.n_nodes, -1, dtype=np.int64)
        row[nf] = np.arange(len(nf))
        return row

    def indices_of(self, region) -> np.ndarray:
        """Node positions of a Region by name, a named window, or an explicit
        node array (returned as int64)."""
        if isinstance(region, str):
            if region in Region.__members__:
                return np.flatnonzero(self.region == Region[region])
            if region in self.windows:
                return self.windows[region]
            raise UnknownRegionError(f"unknown region or window {region!r}")
        return np.asarray(region, dtype=np.int64)

    def exterior_window(self, window) -> tuple[np.ndarray, np.ndarray]:
        """Nodes of a window (name, region name or node array) and their
        positions within the exterior support, the column index of exterior
        data vectors; every node must lie in the exterior support."""
        nodes = self.indices_of(window)
        es = self.ext_support
        if not np.isin(nodes, es).all():
            raise GridMismatchError("window nodes must lie in the exterior support region")
        return nodes, np.searchsorted(es, nodes)


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("value vector length must equal the node count")

    def check_far_zero(self) -> None:
        far = self.grid.far
        if len(far) and np.max(np.abs(self.values[far])) > 0:
            raise ValueError("grid function must vanish on EXTERIOR_FAR nodes")


def build_grid(dim, h, R, omega_spec, support_spec, window_specs=None) -> Grid:
    """Build the lattice and classify nodes; deterministic lexicographic order."""
    if dim < 1:
        raise GeometryError(f"dim must be at least 1, got {dim}")
    if h <= 0 or R <= 0:
        raise GeometryError("h and R must be positive")

    omega, support = _shape(omega_spec, dim), _shape(support_spec, dim)
    if not _strictly_inside(omega, support):
        raise GeometryError("omega must lie strictly inside the support region")
    if not _strictly_inside(support, _shape({"type": "rect", "bounds": [[-R, R]] * dim}, dim)):
        raise GeometryError("support region must lie strictly inside the box")

    n_cells = int(round(2.0 * R / h))
    if abs(n_cells * h - 2.0 * R) > 1e-9 * R:
        raise GeometryError(f"cell width {h} does not tile the box [-{R}, {R}]")
    idx = np.indices((n_cells,) * dim, dtype=np.int64).reshape(dim, -1).T
    coords = -R + (idx + 0.5) * h

    region = np.full(coords.shape[0], Region.EXTERIOR_FAR, dtype=np.int8)
    in_support = _contains_point(support, coords)
    region[in_support] = Region.EXTERIOR_SUPPORT
    in_omega = _contains_point(omega, coords)
    region[in_omega] = Region.INTERIOR
    if np.any(in_omega & ~in_support):
        raise GeometryError("omega nodes found outside the support region")

    for name, want in [("INTERIOR", Region.INTERIOR),
                       ("EXTERIOR_SUPPORT", Region.EXTERIOR_SUPPORT),
                       ("EXTERIOR_FAR", Region.EXTERIOR_FAR)]:
        if not np.any(region == want):
            raise EmptyRegionError(f"region {name} captured zero nodes")

    windows = {}
    for name, spec in (window_specs or {}).items():
        inside = np.flatnonzero(_contains_point(_shape(spec, dim), coords))
        if len(inside) == 0:
            raise EmptyRegionError(f"window {name!r} captured zero nodes")
        if np.any(region[inside] != Region.EXTERIOR_SUPPORT):
            raise GeometryError(f"window {name!r} must lie in the exterior support region")
        windows[name] = inside

    return Grid(dim=dim, h=float(h), R=float(R), coords=coords, idx=idx,
                region=region, windows=windows)

