"""Cartesian grids on smooth convex 2d domains with curved-boundary stencils.

Nodes live on the lattice x = i*h, y = j*h (the origin is always a lattice
point).  Boundary-adjacent nodes store fractional arm lengths to the exact
boundary intersection in each cut direction, which is what the
Shortley-Weller stencil of the solver consumes.  Per-node distances to the
boundary are closed-form for the disk and a nearest-point Newton, run over
all nodes at once, for the ellipse.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError

__all__ = ["Disk", "Ellipse", "Field2D", "build_grid", "parse_domain"]

_DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=int)  # E, W, N, S


@dataclass(frozen=True)
class Disk:
    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise ParameterError(f"disk radius must be positive, got {self.R}")

    kind = "disk"

    @property
    def half_extents(self):
        return self.R, self.R

    @property
    def char_radius(self):
        return self.R

    def inside(self, x, y):
        return np.asarray(x) ** 2 + np.asarray(y) ** 2 < self.R**2

    def distance(self, x, y):
        return self.R - np.hypot(np.asarray(x, float), np.asarray(y, float))

    def arm_fraction(self, x, y, dx, dy, h):
        # (x + theta h dx)^2 + (y + theta h dy)^2 = R^2, theta in (0, 1]
        a = h * h * (dx * dx + dy * dy)
        b = 2.0 * h * (x * dx + y * dy)
        c = x * x + y * y - self.R**2
        theta = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        return np.minimum(np.maximum(theta, 1e-12), 1.0)

    def describe(self):
        return {"kind": "disk", "R": self.R}


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= self.b > 0):
            raise ParameterError(f"ellipse needs a >= b > 0, got a={self.a}, b={self.b}")

    kind = "ellipse"

    @property
    def half_extents(self):
        return self.a, self.b

    @property
    def char_radius(self):
        return self.b

    def inside(self, x, y):
        return (np.asarray(x) / self.a) ** 2 + (np.asarray(y) / self.b) ** 2 < 1.0

    def arm_fraction(self, x, y, dx, dy, h):
        a2, b2 = self.a**2, self.b**2
        qa = h * h * (dx * dx / a2 + dy * dy / b2)
        qb = 2.0 * h * (x * dx / a2 + y * dy / b2)
        qc = x * x / a2 + y * y / b2 - 1.0
        theta = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
        return np.minimum(np.maximum(theta, 1e-12), 1.0)

    def distance(self, x, y):
        """Distance to the nearest boundary point (a cos t, b sin t), elementwise.

        Quadrant symmetry reduces to x, y >= 0 and t in [0, pi/2].  Newton on
        the stationarity condition runs over all points at once from each of
        four guarded starts; the distance is the smallest over the converged
        parameters and the endpoints t = 0 and t = pi/2.
        """
        xs = np.abs(np.asarray(x, dtype=float)).ravel()
        ys = np.abs(np.asarray(y, dtype=float)).ravel()
        A, B = self.a, self.b
        c2 = A * A - B * B
        half = 0.5 * math.pi

        def dist(t):
            return np.hypot(xs - A * np.cos(t), ys - B * np.sin(t))

        best = np.minimum(dist(np.zeros_like(xs)), dist(np.full_like(xs, half)))
        for t0 in (np.arctan2(A * ys, B * xs), 0.25 * math.pi, 0.05, half - 0.05):
            t = np.clip(np.broadcast_to(t0, xs.shape), 0.0, half)
            ok = np.zeros(xs.shape, dtype=bool)
            run = np.arange(xs.size)
            for _ in range(100):
                tr, xr, yr = t[run], xs[run], ys[run]
                sin, cos = np.sin(tr), np.cos(tr)
                g = A * xr * sin - B * yr * cos - c2 * sin * cos
                gp = A * xr * cos + B * yr * sin - c2 * np.cos(2.0 * tr)
                live = gp != 0.0  # a zero slope ends that start unconverged
                run, tr, g, gp = run[live], tr[live], g[live], gp[live]
                t_new = np.clip(tr - g / gp, 0.0, half)
                t[run] = t_new
                done = np.abs(t_new - tr) <= 1e-12 * np.maximum(1.0, np.abs(tr))
                ok[run[done]] = True
                run = run[~done]
                if run.size == 0:
                    break
            best = np.where(ok, np.minimum(best, dist(t)), best)
        if np.ndim(x) == 0:
            return float(best[0])
        return best.reshape(np.shape(x))

    def describe(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


def parse_domain(spec):
    """'disk:R' or 'ellipse:a,b' -> domain object."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "disk":
        return Disk(R=float(rest))
    if kind == "ellipse":
        a, b = (float(v) for v in rest.split(","))
        return Ellipse(a=a, b=b)
    raise ParameterError(f"unknown domain kind {kind!r}")


@dataclass
class Field2D:
    """Grid geometry plus one scalar field on the interior nodes.

    ``mask``: 0 exterior, 1 interior, 2 boundary-adjacent interior.
    ``nbr``: the neighbour's unknown number per direction (E, W, N, S), 0 on
    cut arms, which the solver drops when it builds its matrix.
    ``arm``: fractional arm length per direction (1 for uncut arms);
    ``arm_xy`` holds the boundary intersection for cut arms (NaN otherwise).
    Unknowns are numbered row-major over (iy, ix).
    """

    domain: object
    h: float
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    dist: np.ndarray
    values: np.ndarray
    index: np.ndarray
    node_ix: np.ndarray
    node_iy: np.ndarray
    nbr: np.ndarray
    arm: np.ndarray
    arm_xy: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_interior(self):
        return len(self.node_ix)

    @property
    def node_x(self):
        return self.xs[self.node_ix]

    @property
    def node_y(self):
        return self.ys[self.node_iy]

    @property
    def node_d(self):
        return self.dist[self.node_iy, self.node_ix]

    def interior_values(self):
        return self.values[self.node_iy, self.node_ix]

    def with_values(self, vec, meta=None):
        vals = np.full_like(self.values, np.nan)
        vals[self.node_iy, self.node_ix] = vec
        out = replace(self, values=vals)
        out.meta = dict(self.meta if meta is None else meta)
        return out


def build_grid(domain, h):
    """Uniform lattice grid with Shortley-Weller arms and distance field."""
    if h <= 0:
        raise ParameterError(f"grid spacing must be positive, got {h}")
    hx, hy = domain.half_extents
    ix = np.arange(-(math.ceil(hx / h) + 1), math.ceil(hx / h) + 2)
    iy = np.arange(-(math.ceil(hy / h) + 1), math.ceil(hy / h) + 2)
    xs = ix * h
    ys = iy * h
    X, Y = np.meshgrid(xs, ys)
    inside = np.asarray(domain.inside(X, Y), dtype=bool)
    if not inside.any():
        raise ParameterError("degenerate grid: no interior nodes")
    ny, nx = inside.shape

    index = np.full((ny, nx), -1, dtype=np.int32)
    node_iy, node_ix = np.nonzero(inside)
    index[node_iy, node_ix] = np.arange(len(node_ix), dtype=np.int32)

    m = len(node_ix)
    nbr = np.zeros((m, 4), dtype=np.int32)  # stays 0 on cut arms
    arm = np.ones((m, 4))
    arm_xy = np.full((m, 4, 2), np.nan)
    mask = inside.astype(np.int8)

    at = node_iy * nx + node_ix  # flat places: each neighbour is one take away
    for t, (dx, dy) in enumerate(_DIRS):
        j = index.take(at + (dy * nx + dx))
        nbr[:, t] = np.maximum(j, 0)
        cut = np.flatnonzero(j < 0)
        x0, y0 = xs[node_ix[cut]], ys[node_iy[cut]]
        theta = domain.arm_fraction(x0, y0, dx, dy, h)
        arm[cut, t] = theta
        arm_xy[cut, t, 0] = x0 + theta * h * dx
        arm_xy[cut, t, 1] = y0 + theta * h * dy
        mask[node_iy[cut], node_ix[cut]] = 2

    dist = np.full((ny, nx), np.nan)
    dist[node_iy, node_ix] = np.asarray(
        domain.distance(xs[node_ix], ys[node_iy]), dtype=float
    )

    values = np.full((ny, nx), np.nan)
    values[node_iy, node_ix] = 0.0
    return Field2D(
        domain=domain, h=h, xs=xs, ys=ys, mask=mask, dist=dist, values=values,
        index=index, node_ix=node_ix.astype(np.int32), node_iy=node_iy.astype(np.int32),
        nbr=nbr, arm=arm, arm_xy=arm_xy,
        meta={"h": h, "domain": domain.describe()},
    )
