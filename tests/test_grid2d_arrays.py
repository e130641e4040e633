"""Whole-grid geometry against per-node scalar references."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from khessian.grid2d import Disk, Ellipse, build_grid

from _fd2d_reference import assemble_operator

DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # E, W, N, S, the arm order of gvals


def scalar_arm(domain, x, y, dx, dy, h):
    """Arm fraction of one node, one Python float at a time."""
    if isinstance(domain, Disk):
        qa = h * h * (dx * dx + dy * dy)
        qb = 2.0 * h * (x * dx + y * dy)
        qc = x * x + y * y - domain.R**2
    else:
        a2, b2 = domain.a**2, domain.b**2
        qa = h * h * (dx * dx / a2 + dy * dy / b2)
        qb = 2.0 * h * (x * dx / a2 + y * dy / b2)
        qc = x * x / a2 + y * y / b2 - 1.0
    theta = (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    return min(max(theta, 1e-12), 1.0)


def scalar_distance(ell, x, y, tol=1e-12):
    """Nearest-point distance of one node: Newton from four guarded starts."""
    xs, ys = abs(x), abs(y)
    A, B = ell.a, ell.b

    def dprime(t):
        return A * xs * math.sin(t) - B * ys * math.cos(t) \
            - (A * A - B * B) * math.sin(t) * math.cos(t)

    def dsecond(t):
        return A * xs * math.cos(t) + B * ys * math.sin(t) - (A * A - B * B) * math.cos(2.0 * t)

    def dist(t):
        return math.hypot(xs - A * math.cos(t), ys - B * math.sin(t))

    best = min(dist(0.0), dist(0.5 * math.pi))
    for t0 in (math.atan2(A * ys, B * xs), 0.25 * math.pi, 0.05, 0.5 * math.pi - 0.05):
        t = min(max(t0, 0.0), 0.5 * math.pi)
        for _ in range(100):
            g, gp = dprime(t), dsecond(t)
            if gp == 0.0:
                break
            t_new = min(max(t - g / gp, 0.0), 0.5 * math.pi)
            if abs(t_new - t) <= tol * max(1.0, abs(t)):
                best = min(best, dist(t_new))
                break
            t = t_new
    return best


@pytest.mark.parametrize("ell, h", [(Ellipse(1.2, 1.0), 1.0 / 48.0), (Ellipse(2.0, 1.0), 1.0 / 24.0)])
def test_ellipse_distance_matches_per_node_newton(ell, h):
    grid = build_grid(ell, h)
    ref = np.array([scalar_distance(ell, float(x), float(y))
                    for x, y in zip(grid.node_x, grid.node_y)])
    # an angle Newton per node against Eberly's root: both reach the nearest point, and
    # the distance, stationary there, agrees to rounding
    assert np.max(np.abs(grid.node_d - ref)) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("domain, h", [(Disk(0.9), 1.0 / 64.0), (Ellipse(1.2, 1.0), 1.0 / 96.0)])
def test_arms_match_per_node_loop(domain, h):
    # the solver evaluates g once, at the ends of the cut arms; a g that returns each
    # point's index shows in gvals which arm of which node ends at that point
    grid = build_grid(domain, h)
    calls = []

    def g(x, y):
        calls.append((np.array(x, float), np.array(y, float)))
        return np.arange(np.size(x), dtype=float)

    gvals = assemble_operator(grid, g)[2]
    (x_end, y_end), = calls
    nodes = set(zip(grid.lx.tolist(), grid.ly.tolist()))
    want = np.full(gvals.shape + (2,), np.nan)
    for i, (ix, iy) in enumerate(zip(grid.lx.tolist(), grid.ly.tolist())):
        for t, (dx, dy) in enumerate(DIRS):
            if (ix + dx, iy + dy) in nodes:
                continue
            x0, y0 = ix * h, iy * h
            theta = scalar_arm(domain, x0, y0, dx, dy, h)
            want[i, t] = (x0 + theta * h * dx, y0 + theta * h * dy)
    cut = ~np.isnan(want[:, :, 0])
    assert cut.any() and np.array_equal(~np.isnan(gvals), cut)
    at = gvals[cut].astype(int)
    assert np.array_equal(np.sort(at), np.arange(x_end.size))  # every point on one arm
    assert np.array_equal(x_end[at], want[cut][:, 0])
    assert np.array_equal(y_end[at], want[cut][:, 1])


def test_ellipse_distance_array_matches_scan():
    ell = Ellipse(2.0, 1.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.9, 1.9, 60)
    y = rng.uniform(-0.95, 0.95, 60)
    keep = ell.inside(x, y)
    x, y = x[keep].reshape(-1, 1), y[keep].reshape(-1, 1)
    d = ell.distance(x, y)
    assert d.shape == x.shape
    # two-level scan of the boundary parameter: coarse, then around the minimiser
    step = 2.0 * math.pi / 20000
    ts = np.arange(20000) * step
    t_best = ts[np.argmin(np.hypot(2.0 * np.cos(ts) - x, np.sin(ts) - y), axis=1)]
    fine = t_best[:, None] + np.linspace(-2.0 * step, 2.0 * step, 20001)
    scan = np.min(np.hypot(2.0 * np.cos(fine) - x, np.sin(fine) - y), axis=1, keepdims=True)
    assert np.max(np.abs(d - scan)) <= 1e-12
    # the scalar call gives the same value as the array call
    assert all(ell.distance(float(a), float(b)) == v for a, b, v in zip(x[:, 0], y[:, 0], d[:, 0]))


def mp_root(a, b, x, y):
    """u = s + 1 at the root of Eberly's F at 40 digits, by bisection; y != 0 inside."""
    with mp.workdps(40):
        a, b, x, y = mp.mpf(a), mp.mpf(b), abs(mp.mpf(x)), abs(mp.mpf(y))
        r0, z0, z1 = (a / b) ** 2, x / a, y / b
        lo, hi = z1, mp.mpf(1)  # F(u) >= 0 at u = z1 and < 0 at u = 1 inside
        # geometric halving, 2^-150 of the bracket's log-width: past 40 digits however
        # small the root, which tends to 0 with y
        for _ in range(150):
            u = mp.sqrt(lo * hi)
            if (r0 * z0 / (u + (r0 - 1))) ** 2 + (z1 / u) ** 2 > 1:
                lo = u
            else:
                hi = u
        return mp.sqrt(lo * hi)


def mp_distance(a, b, x, y):
    """Nearest-point distance at 40 digits, from the root of Eberly's F (mp_root)."""
    with mp.workdps(40):
        a, b, x, y = mp.mpf(a), mp.mpf(b), abs(mp.mpf(x)), abs(mp.mpf(y))
        c2 = a * a - b * b
        if y == 0:  # the nearest point leaves the axis only inside the evolute
            if a * x >= c2:
                return a - x
            x0 = a * a * x / c2
            return mp.hypot(x - x0, b * mp.sqrt(1 - (x0 / a) ** 2))
        r0, u = (a / b) ** 2, mp_root(a, b, x, y)
        return mp.hypot(x - r0 * x / (u + (r0 - 1)), y - y / u)


def test_ellipse_root_matches_mpmath():
    # the root Newton alone, which sets the distance with no polish after it: on a
    # sample of the fd2d_ellipse grid's nodes and at y = 1e-15 b near the major axis,
    # inside and outside the evolute, the root is within a few ulp
    a, b = 1.2, 1.0
    ell = Ellipse(a, b)
    grid = build_grid(ell, 1.0 / 96.0)
    pick = np.random.default_rng(5).choice(np.flatnonzero(grid.node_y != 0.0), 150,
                                           replace=False)
    x = np.concatenate([np.abs(grid.node_x[pick]), np.linspace(0.01, 0.99, 12) * a])
    y = np.concatenate([np.abs(grid.node_y[pick]), np.full(12, 1e-15 * b)])
    u = ell._root(x / a, y / b)
    ref = np.array([float(mp_root(a, b, xi, yi)) for xi, yi in zip(x, y)])
    assert np.all(np.abs(u - ref) <= 4.0 * np.finfo(float).eps * ref)


@pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 6.0, 20.0])
def test_ellipse_distance_matches_mpmath(a):
    ell = Ellipse(a, 1.0)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 2.0 * math.pi, 100)
    rad = np.sqrt(rng.uniform(0.0, 1.0, 100))
    x, y = list(a * rad * np.cos(theta)), list(rad * np.sin(theta))
    # the origin and both axes
    x += [0.0] + [a * f for f in (0.1, 0.5, 0.9, 1 - 1e-7)] + [0.0] * 4
    y += [0.0] * 5 + [0.1, 0.5, 0.9, 1 - 1e-7]
    # just inside the boundary
    for t in np.linspace(0.0, 0.5 * math.pi, 9):
        x.append((1 - 1e-7) * a * math.cos(t))
        y.append((1 - 1e-7) * math.sin(t))
    # inside the evolute (|x| < (a^2 - b^2)/a), close to the major axis
    for f in (0.05, 0.5, 0.95, 0.999):
        for yy in (1e-3, 1e-9, 1e-15):
            x.append(f * (a * a - 1.0) / a)
            y.append(yy)
    x, y = np.array(x), np.array(y)
    assert np.all(ell.inside(x, y))
    d = ell.distance(x, y)
    ref = np.array([float(mp_distance(a, 1.0, xi, yi)) for xi, yi in zip(x, y)])
    assert np.max(np.abs(d - ref)) <= 2.0 * np.finfo(float).eps * a


@settings(max_examples=150)
@given(st.one_of(st.floats(1.0, 50.0), st.floats(1e-15, 1e-6).map(lambda e: 1.0 + e)),
       st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(-320.0, -1.0), st.floats(-12.0, -2.0))
def test_ellipse_distance_matches_mpmath_property(a, t, rad, f, ey, eb):
    # property: on ellipses from near-circular to a/b = 50, at an interior point, a point
    # inside the evolute at 10^ey b from the major axis (down to subnormal) and one just
    # inside the boundary, the distance read off Eberly's root is within 2 eps a of the
    # 40-digit one
    ell = Ellipse(a, 1.0)
    x = [a * rad * math.cos(t), f * (a * a - 1.0) / a, (1.0 - 10.0**eb) * a * math.cos(t)]
    y = [rad * math.sin(t), 10.0**ey, (1.0 - 10.0**eb) * math.sin(t)]
    x, y = np.array(x), np.array(y)
    assume(np.all(ell.inside(x, y)))
    ref = np.array([float(mp_distance(a, 1.0, xi, yi)) for xi, yi in zip(x, y)])
    assert np.max(np.abs(ell.distance(x, y) - ref)) <= 2.0 * np.finfo(float).eps * a
