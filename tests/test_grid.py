import numpy as np
import pytest

from fraccalderon import Region, build_grid
from fraccalderon.errors import EmptyRegionError, GeometryError, UnknownRegionError

from conftest import make_grid_1d


def test_desk_region_counts():
    g = make_grid_1d(0.05)
    # 40 cells of width 0.05 have centers inside (-1, 1)
    assert len(g.interior) == 40
    assert len(g.windows["W1"]) == 12
    assert len(g.windows["W2"]) == 12
    assert set(g.windows["W1"]).isdisjoint(g.windows["W2"])


def test_region_partition_exact():
    g = make_grid_1d(0.05)
    assert len(g.interior) + len(g.ext_support) + len(g.far) == g.n_nodes
    for name in ("W1", "W2"):
        assert np.all(g.region[g.windows[name]] == Region.EXTERIOR_SUPPORT)


def test_containment_violation_raises():
    with pytest.raises(GeometryError):
        build_grid(1, 0.05, 4.0,
                   {"type": "interval", "bounds": [-1, 1]},
                   {"type": "interval", "bounds": [-0.5, 0.5]})


def test_support_outside_box_raises():
    with pytest.raises(GeometryError):
        build_grid(1, 0.05, 1.5,
                   {"type": "interval", "bounds": [-1, 1]},
                   {"type": "interval", "bounds": [-2, 2]})


def test_empty_window_raises():
    with pytest.raises(EmptyRegionError):
        build_grid(1, 0.05, 4.0,
                   {"type": "interval", "bounds": [-1, 1]},
                   {"type": "interval", "bounds": [-2, 2]},
                   {"W1": {"type": "interval", "bounds": [1.501, 1.502]}})


def test_window_must_lie_in_exterior_support():
    with pytest.raises(GeometryError):
        build_grid(1, 0.05, 4.0,
                   {"type": "interval", "bounds": [-1, 1]},
                   {"type": "interval", "bounds": [-2, 2]},
                   {"W1": {"type": "interval", "bounds": [0.5, 1.5]}})


def test_disc_interior_count_matches_enumeration():
    g = build_grid(2, 0.1, 3.0,
                   {"type": "disc", "center": [0, 0], "radius": 1.0},
                   {"type": "disc", "center": [0, 0], "radius": 2.0},
                   {"W1": {"type": "disc", "center": [1.5, 0], "radius": 0.35}})
    # independent enumeration of lattice centers inside the unit disc
    axis = -3.0 + (np.arange(60) + 0.5) * 0.1
    count = 0
    for x in axis:
        for y in axis:
            if x * x + y * y < 1.0:
                count += 1
    assert len(g.interior) == count
    area_estimate = np.pi / 0.1**2
    assert abs(count - area_estimate) <= 2 * (2 * np.pi) / 0.1


def test_unknown_region_raises():
    g = make_grid_1d(0.05)
    with pytest.raises(UnknownRegionError):
        g.indices_of("W9")


def test_exterior_window_and_rows():
    g = make_grid_1d(0.05)
    for window in ("W1", "EXTERIOR_SUPPORT", g.windows["W2"][::2]):
        nodes, cols = g.exterior_window(window)
        assert np.array_equal(g.ext_support[cols], nodes)
    # a window outside the exterior support is a fault of the config that
    # names it, as build_grid finds for a window spec
    for bad, name in (("INTERIOR", "'INTERIOR'"), (g.far[:2], "nodes"),
                      (np.append(g.windows["W1"], g.interior[0]), "nodes")):
        with pytest.raises(GeometryError, match=f"^window {name} must lie in the exterior"):
            g.exterior_window(bad)
    assert np.array_equal(g.nonfar_row[g.nonfar], np.arange(len(g.nonfar)))
    assert np.all(g.nonfar_row[g.far] == -1)


def test_build_is_deterministic():
    a = make_grid_1d(0.05)
    b = make_grid_1d(0.05)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.region, b.region)
    for name in a.windows:
        assert np.array_equal(a.windows[name], b.windows[name])


def test_h_must_tile_box():
    with pytest.raises(GeometryError):
        build_grid(1, 0.03, 4.0,
                   {"type": "interval", "bounds": [-1, 1]},
                   {"type": "interval", "bounds": [-2, 2]})


def _disc(center, r):
    return {"type": "disc", "center": center, "radius": r}


@pytest.mark.parametrize("dim,omega,support,windows", [
    # a 2-D disc center, a 2-axis rect or window on the 1D grid
    (1, _disc([0.0, 0.0], 1.0), {"type": "interval", "bounds": [-2, 2]}, {}),
    (1, {"type": "rect", "bounds": [[-1, 1], [-1, 1]]},
     {"type": "interval", "bounds": [-2, 2]}, {}),
    (1, {"type": "interval", "bounds": [-1, 1]}, {"type": "interval", "bounds": [-2, 2]},
     {"W1": _disc([1.5, 0.0], 0.3)}),
    # an interval, a 1-D disc center or a 1-axis rect on the 2D grid
    (2, {"type": "interval", "bounds": [-1, 1]}, _disc([0.0, 0.0], 2.0), {}),
    (2, _disc([0.0], 1.0), _disc([0.0, 0.0], 2.0), {}),
    (2, _disc([0.0, 0.0], 1.0), _disc([0.0, 0.0], 2.0),
     {"W1": {"type": "rect", "bounds": [[1.2, 1.8]]}}),
], ids=["1d-disc2", "1d-rect2", "1d-window-disc2", "2d-interval", "2d-disc1",
        "2d-window-rect1"])
def test_spec_axes_must_match_dim(dim, omega, support, windows):
    with pytest.raises(GeometryError, match="axes|axis"):
        build_grid(dim, 0.1, 3.0, omega, support, windows)


def test_geometries_are_boxes_and_balls_in_any_dimension():
    # an interval is the one-axis rect, a disc of one axis the interval of
    # its diameter, and in 2D a rect is the product of its axis intervals
    interval = make_grid_1d(0.05)
    rect = build_grid(1, 0.05, 4.0,
                      {"type": "rect", "bounds": [[-1.0, 1.0]]},
                      {"type": "rect", "bounds": [[-2.0, 2.0]]},
                      {"W1": {"type": "rect", "bounds": [[1.2, 1.8]]},
                       "W2": {"type": "rect", "bounds": [[-1.8, -1.2]]}})
    assert np.array_equal(rect.region, interval.region)
    for name in ("W1", "W2"):
        assert np.array_equal(rect.windows[name], interval.windows[name])
    ball = build_grid(1, 0.05, 4.0, _disc([0.0], 0.6), _disc([0.0], 2.0))
    box = build_grid(1, 0.05, 4.0, {"type": "interval", "bounds": [-0.6, 0.6]},
                     {"type": "interval", "bounds": [-2.0, 2.0]})
    assert np.array_equal(ball.interior, box.interior)
    g = build_grid(2, 0.1, 3.0, {"type": "rect", "bounds": [[-1.0, 0.5], [-0.3, 0.8]]},
                   _disc([0.0, 0.0], 2.0))
    x, y = g.coords[:, 0], g.coords[:, 1]
    want = (x >= -1.0) & (x < 0.5) & (y >= -0.3) & (y < 0.8)
    assert np.array_equal(g.interior, np.flatnonzero(want))
    # lexicographic lattice order: node k is the lattice point of flat index k
    assert g.shape == (60, 60)
    assert np.array_equal(g.idx, np.argwhere(np.ones(g.shape)))
