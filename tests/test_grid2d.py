import math

import numpy as np
import pytest

from khessian.errors import ParameterError
from khessian.grid2d import Disk, Ellipse, build_grid, parse_domain

from _fd2d_reference import assemble_operator


def arm_endpoints(grid):
    """(x, y) rows of the points where assemble_operator evaluates g: the cut arms' ends."""
    calls = []

    def g(x, y):
        calls.append(np.column_stack([np.ravel(x), np.ravel(y)]))
        return np.zeros(np.shape(x))

    gvals = assemble_operator(grid, g)[2]
    pts = np.concatenate(calls)
    assert len(pts) == np.count_nonzero(~np.isnan(gvals))  # one point per cut arm
    return pts


class TestDisk:
    def test_interior_count_h_half(self):
        # enumeration oracle: lattice points with x^2 + y^2 < 1 at spacing 0.5
        grid = build_grid(Disk(1.0), 0.5)
        count = 0
        for i in range(-3, 4):
            for j in range(-3, 4):
                if (0.5 * i) ** 2 + (0.5 * j) ** 2 < 1.0:
                    count += 1
        assert count == 9
        assert grid.n_interior == 9

    def test_distance_at_origin(self):
        grid = build_grid(Disk(1.0), 0.5)
        i0 = np.argmax(grid.node_d)
        assert grid.node_d[i0] == pytest.approx(1.0)
        assert grid.node_x[i0] == 0.0 and grid.node_y[i0] == 0.0

    def test_arm_endpoints_on_circle(self):
        pts = arm_endpoints(build_grid(Disk(1.0), 1.0 / 16.0))
        assert len(pts) > 0
        assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)) < 1e-12

    def test_degenerate_grid(self):
        with pytest.raises(ParameterError):
            build_grid(Disk(1.0), -0.1)
        # the origin is always a lattice point, so a tiny disk still grids
        assert build_grid(Disk(0.01), 0.5).n_interior == 1


class TestEllipse:
    def test_distance_at_origin(self):
        assert Ellipse(2.0, 1.0).distance(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_nearest_point_against_scan(self):
        ell = Ellipse(2.0, 1.0)
        ts = np.linspace(0.0, 2.0 * math.pi, 400001)
        bx, by = 2.0 * np.cos(ts), np.sin(ts)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-1.9, 1.9)
            y = rng.uniform(-0.95, 0.95)
            if not ell.inside(x, y):
                continue
            scan = float(np.min(np.hypot(bx - x, by - y)))
            assert ell.distance(x, y) == pytest.approx(scan, abs=5e-9)

    def test_nearest_point_on_axis(self):
        # inside the evolute the nearest point leaves the axis
        ell = Ellipse(2.0, 1.0)
        x = 0.5
        ts = np.linspace(0.0, 2.0 * math.pi, 400001)
        scan = float(np.min(np.hypot(2.0 * np.cos(ts) - x, np.sin(ts))))
        assert ell.distance(x, 0.0) == pytest.approx(scan, abs=5e-9)

    def test_arm_endpoints_on_ellipse(self):
        pts = arm_endpoints(build_grid(Ellipse(1.2, 1.0), 1.0 / 12.0))
        assert len(pts) > 0
        vals = (pts[:, 0] / 1.2) ** 2 + pts[:, 1] ** 2
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_invalid(self):
        with pytest.raises(ParameterError):
            Ellipse(1.0, 2.0)


def test_parse_domain():
    assert parse_domain("disk:1.5").R == 1.5
    ell = parse_domain("ellipse:2,1")
    assert (ell.a, ell.b) == (2.0, 1.0)
    with pytest.raises(ParameterError):
        parse_domain("triangle:1")
