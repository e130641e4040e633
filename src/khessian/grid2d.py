"""Cartesian grids on smooth convex 2d domains with curved-boundary stencils.

Nodes live on the lattice x = i*h, y = j*h (the origin is always a lattice
point); a grid stores only their integer lattice coordinates and boundary
distances.  The solver's Shortley-Weller stencil reads each node's
neighbours off the lattice and asks the domain's ``arm_fraction`` for the
fractional arm length to the exact boundary intersection on the arms that
leave the domain.  Per-node distances to the boundary are closed-form for
the disk.  For the ellipse, run over fixed blocks of nodes, each node's
nearest point comes from one monotone Newton solve of Eberly's root
equation, started from the larger of his two lower bounds (closed form on
the major axis); the distance is read straight off that root.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, require_positive_finite

__all__ = ["Disk", "Ellipse", "Field2D", "build_grid", "parse_domain"]

_BLOCK = 4096  # points per block of Ellipse.distance, which bounds its temporaries
# y/b at or below which Ellipse.distance takes the major axis's closed form; the distance
# is 1-Lipschitz, so that moves it by at most y, and Eberly's root stays clear of overflow
_AXIS = 1e-150

@dataclass(frozen=True)
class Disk:
    R: float

    def __post_init__(self):
        require_positive_finite(self.R, "disk radius")

    kind = "disk"

    @property
    def half_extents(self):
        return self.R, self.R

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
        require_positive_finite(self.a, "ellipse semi-axis a")  # then b in (0, a] is finite too

    kind = "ellipse"

    @property
    def half_extents(self):
        return self.a, self.b

    def inside(self, x, y):
        return (np.asarray(x) / self.a) ** 2 + (np.asarray(y) / self.b) ** 2 < 1.0

    def arm_fraction(self, x, y, dx, dy, h):
        a2, b2 = self.a**2, self.b**2
        qa = h * h * (dx * dx / a2 + dy * dy / b2)
        qb = 2.0 * h * (x * dx / a2 + y * dy / b2)
        qc = x * x / a2 + y * y / b2 - 1.0
        theta = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
        return np.minimum(np.maximum(theta, 1e-12), 1.0)

    def _root(self, z0, z1):
        """u = s + 1 at the root of Eberly's F (see distance) for z = (x/a, y/b), z1 > 0.

        Newton in u, which keeps its digits where the root nears s = -1 (close to the
        major axis), rises monotonically while F > 0.  It starts from the larger of
        Eberly's two lower bounds s = z1 - 1 and s = r0 z0 - r0, where F >= 0 too.
        Entries with z1 <= _AXIS are left at that start.
        """
        A, B = self.a, self.b
        r0, c = (A / B) ** 2, (A * A - B * B) / (B * B)
        u = np.maximum(z1, 1.0 - r0 * (1.0 - z0))
        run = np.flatnonzero(z1 > _AXIS)
        while run.size:
            ur = u[run]
            p2 = (r0 * z0[run] / (ur + c)) ** 2
            q2 = (z1[run] / ur) ** 2
            F = p2 + q2 - 1.0
            u_new = ur + 0.5 * F / (p2 / (ur + c) + q2 / ur)
            step = (F > 0.0) & (u_new != ur)
            run = run[step]
            u[run] = u_new[step]
        return u

    def distance(self, x, y):
        """Distance to the nearest boundary point (a cos t, b sin t), elementwise.

        Quadrant symmetry reduces to x, y >= 0 and t in [0, pi/2].  The nearest
        point is that of D. Eberly, "Distance from a Point to an Ellipse, an
        Ellipsoid, or a Hyperellipsoid" (2013): with z = (x/a, y/b) and
        r0 = (a/b)^2 it lies at the root of the convex, decreasing
        F(s) = (r0 z0/(s + r0))^2 + (z1/(s + 1))^2 - 1, which Newton reaches
        from below (_root); on the major axis (y <= _AXIS b) it is closed form.  The
        distance is taken at that point's parameter t as it stands, with no
        polish: it is stationary in t there, so a root within a few ulp gives
        it to rounding.  x and y are alike shaped; points are taken _BLOCK at
        a time, each on its own.
        """
        xs, ys = np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel()
        best = np.empty(xs.size)
        for lo in range(0, xs.size, _BLOCK):
            part = slice(lo, lo + _BLOCK)
            best[part] = self._nearest(np.abs(xs[part]), np.abs(ys[part]))
        if np.ndim(x) == 0:
            return float(best[0])
        return best.reshape(np.shape(x))

    def _nearest(self, xs, ys):
        """The distance of each point (xs, ys), flat arrays in the first quadrant."""
        A, B = self.a, self.b
        c2 = A * A - B * B
        r0, c = (A / B) ** 2, c2 / (B * B)
        z0, z1 = xs / A, ys / B
        u = self._root(z0, z1)
        # on the major axis: cos t = a x / (a^2 - b^2) inside the evolute, else t = 0
        cos_axis = np.minimum(A * xs / c2, 1.0) if c2 > 0.0 else np.ones_like(xs)
        t = np.where(z1 > _AXIS, np.arctan2(z1 * (u + c), r0 * z0 * u), np.arccos(cos_axis))
        return np.hypot(xs - A * np.cos(t), ys - B * np.sin(t))

    def describe(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


def parse_domain(spec):
    """'disk:R' or 'ellipse:a,b' -> domain object; ParameterError naming a malformed spec."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    forms = {"disk": (Disk, 1, "disk:R"), "ellipse": (Ellipse, 2, "ellipse:a,b")}
    if kind not in forms:
        raise ParameterError(f"unknown domain kind {kind!r}")
    cls, count, form = forms[kind]
    try:
        values = [float(v) for v in rest.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise ParameterError(f"domain {spec!r} is malformed (use {form})")
    return cls(*values)


@dataclass
class Field2D:
    """Grid geometry, plus one scalar field on the interior nodes once a solve sets it.

    Node i sits on the lattice at (lx[i] h, ly[i] h), int32 coordinates numbered
    row-major over (ly, lx), at distance ``node_d[i]`` from the boundary.  A grid
    from build_grid carries no values (u is None); with_values gives a solve's
    field.  Neighbours and arm fractions are not stored: the solver derives them
    from the lattice coordinates and the domain.
    """

    domain: object
    h: float
    lx: np.ndarray
    ly: np.ndarray
    node_d: np.ndarray
    u: np.ndarray = None
    meta: dict = field(default_factory=dict)

    @property
    def n_interior(self):
        return len(self.lx)

    @property
    def node_x(self):
        return self.lx * self.h

    @property
    def node_y(self):
        return self.ly * self.h

    def interior_values(self):
        return self.u

    def with_values(self, vec, meta=None):
        """This grid with the values vec, taken as they are (not copied) when a float array."""
        out = replace(self, u=np.asarray(vec, dtype=float))
        out.meta = dict(self.meta if meta is None else meta)
        return out


def build_grid(domain, h):
    """Interior lattice nodes, numbered row-major, and their boundary distances."""
    require_positive_finite(h, "grid spacing")
    hx, hy = domain.half_extents
    mx, my = math.ceil(hx / h) + 1, math.ceil(hy / h) + 1
    ix, iy = np.arange(-mx, mx + 1), np.arange(-my, my + 1)
    inside = np.asarray(domain.inside(*np.meshgrid(ix * h, iy * h)), dtype=bool)
    if not inside.any():
        raise ParameterError("degenerate grid: no interior nodes")
    ly, lx = np.nonzero(inside)
    lx, ly = (lx - mx).astype(np.int32), (ly - my).astype(np.int32)
    return Field2D(domain=domain, h=h, lx=lx, ly=ly,
                   node_d=np.asarray(domain.distance(lx * h, ly * h), dtype=float),
                   meta={"h": h, "domain": domain.describe()})
