"""Truncated uniform lattice with region bookkeeping.

The computational box [-R, R]^dim is tiled by cells of width h; every cell
center is a node.  Nodes are classified into INTERIOR (inside the domain
omega), EXTERIOR_SUPPORT (inside the support box omega1 but outside omega)
and EXTERIOR_FAR (the rest of the box).  Grid functions model compactly
supported functions: they vanish identically on EXTERIOR_FAR nodes.

Membership is decided by the cell center; interval and rectangle specs are
half-open per axis ([a, b)) so boundary ties resolve deterministically.
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


def _contains_point(spec: dict, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership of points (n, dim) in a geometry spec."""
    kind = spec["type"]
    if kind == "interval":
        a, b = spec["bounds"]
        x = pts[:, 0]
        return (x >= a) & (x < b)
    if kind == "rect":
        (ax, bx), (ay, by) = spec["bounds"]
        return (pts[:, 0] >= ax) & (pts[:, 0] < bx) & (pts[:, 1] >= ay) & (pts[:, 1] < by)
    if kind == "disc":
        c = np.asarray(spec["center"], dtype=float)
        r = spec["radius"]
        return np.sum((pts - c) ** 2, axis=1) < r * r
    raise GeometryError(f"unknown geometry type {kind!r}")


def _bounding_box(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    kind = spec["type"]
    if kind == "interval":
        a, b = spec["bounds"]
        return np.array([a]), np.array([b])
    if kind == "rect":
        bounds = np.asarray(spec["bounds"], dtype=float)
        return bounds[:, 0], bounds[:, 1]
    if kind == "disc":
        c = np.asarray(spec["center"], dtype=float)
        r = spec["radius"]
        return c - r, c + r
    raise GeometryError(f"unknown geometry type {kind!r}")


def _strictly_inside(inner: dict, outer: dict) -> bool:
    """Conservative check that inner's bounding box sits strictly inside outer."""
    lo_i, hi_i = _bounding_box(inner)
    if outer["type"] == "disc":
        c = np.asarray(outer["center"], dtype=float)
        r = outer["radius"]
        corners = np.stack(np.meshgrid(*zip(lo_i, hi_i), indexing="ij"), axis=-1).reshape(-1, len(lo_i))
        return bool(np.all(np.linalg.norm(corners - c, axis=1) < r))
    lo_o, hi_o = _bounding_box(outer)
    return bool(np.all(lo_i > lo_o) and np.all(hi_i < hi_o))


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
        """Node positions of a Region (by name or enum), a named window, or
        an explicit node array (returned as int64)."""
        if isinstance(region, Region):
            return np.flatnonzero(self.region == region)
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

    def check_far_zero(self, tol: float = 0.0) -> None:
        far = self.grid.far
        if len(far) and np.max(np.abs(self.values[far])) > tol:
            raise ValueError("grid function must vanish on EXTERIOR_FAR nodes")


def build_grid(dim, h, R, omega_spec, support_spec, window_specs=None) -> Grid:
    """Build the lattice and classify nodes; deterministic lexicographic order."""
    if dim not in (1, 2):
        raise GeometryError(f"dim must be 1 or 2, got {dim}")
    if h <= 0 or R <= 0:
        raise GeometryError("h and R must be positive")

    box = {"type": "interval", "bounds": [-R, R]} if dim == 1 else \
          {"type": "rect", "bounds": [[-R, R], [-R, R]]}
    if not _strictly_inside(omega_spec, support_spec):
        raise GeometryError("omega must lie strictly inside the support region")
    if not _strictly_inside(support_spec, box):
        raise GeometryError("support region must lie strictly inside the box")

    n_cells = int(round(2.0 * R / h))
    if abs(n_cells * h - 2.0 * R) > 1e-9 * R:
        raise GeometryError(f"cell width {h} does not tile the box [-{R}, {R}]")
    axis = -R + (np.arange(n_cells) + 0.5) * h
    if dim == 1:
        coords = axis[:, None]
        idx = np.arange(n_cells, dtype=np.int64)[:, None]
    else:
        ix, iy = np.meshgrid(np.arange(n_cells), np.arange(n_cells), indexing="ij")
        idx = np.stack([ix.ravel(), iy.ravel()], axis=1).astype(np.int64)
        coords = np.stack([axis[idx[:, 0]], axis[idx[:, 1]]], axis=1)

    region = np.full(coords.shape[0], Region.EXTERIOR_FAR, dtype=np.int8)
    in_support = _contains_point(support_spec, coords)
    region[in_support] = Region.EXTERIOR_SUPPORT
    in_omega = _contains_point(omega_spec, coords)
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
        inside = np.flatnonzero(_contains_point(spec, coords))
        if len(inside) == 0:
            raise EmptyRegionError(f"window {name!r} captured zero nodes")
        if np.any(region[inside] != Region.EXTERIOR_SUPPORT):
            raise GeometryError(f"window {name!r} must lie in the exterior support region")
        windows[name] = inside

    return Grid(dim=dim, h=float(h), R=float(R), coords=coords, idx=idx,
                region=region, windows=windows)

