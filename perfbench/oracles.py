"""Independent reference values for the benchmark's correctness checks.

Nothing here calls khessian: closed-form profiles, amplitudes derived from
the limit constants, elementary symmetric functions by subset enumeration,
and ellipse distances by dense sampling refined with a bounded scalar
minimisation (the program uses a guarded Newton iteration instead).
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize_scalar


def parse_spec(spec):
    """'power:5' -> ('power', 5.0); 'constant:1' -> ('constant', 1.0)."""
    kind, _, rest = spec.partition(":")
    return kind.strip().lower(), float(rest) if rest else 1.0


class ClosedProfile:
    """phi and its first two derivatives for f = s**gamma (any k) or f = exp(a s) (k = 1).

    Power kind: Phi(s) = (k+1) s**(-(gamma-k)/(k+1)) / ((gamma-k) c) with
    c = ((k+1)/(gamma+1))**(1/(k+1)), so phi(t) = C t**(-p), p = (k+1)/(gamma-k).
    Exponential kind, k = 1: Phi(s) = sqrt(2/a) arcsin(exp(-a s/2)), so
    phi(t) = -(2/a) log sin(w t), w = sqrt(a/2); a = 2 gives -log sin t.
    """

    def __init__(self, f_spec, k):
        self.kind, self.par = parse_spec(f_spec)
        self.k = int(k)
        if self.kind == "power":
            gamma, kp1 = self.par, self.k + 1.0
            c = (kp1 / (gamma + 1.0)) ** (1.0 / kp1)
            self.p = kp1 / (gamma - self.k)
            self.C = ((gamma - self.k) * c / kp1) ** (-self.p)
            self.C_f = (gamma + 1.0) / (gamma - self.k)
        elif self.kind == "exp" and self.k == 1:
            self.w = math.sqrt(self.par / 2.0)
            self.C_f = 1.0
        else:
            raise ValueError(f"no closed form for f={f_spec}, k={k}")

    def f(self, s):
        return s**self.par if self.kind == "power" else math.exp(self.par * s)

    def phi(self, t):
        if self.kind == "power":
            return self.C * t ** (-self.p)
        return -(2.0 / self.par) * math.log(math.sin(self.w * t))

    def phi1(self, t):
        if self.kind == "power":
            return -self.p * self.C * t ** (-self.p - 1.0)
        return -(2.0 / self.par) * self.w / math.tan(self.w * t)

    def phi2(self, t):
        if self.kind == "power":
            return self.p * (self.p + 1.0) * self.C * t ** (-self.p - 2.0)
        return (2.0 / self.par) * self.w**2 / math.sin(self.w * t) ** 2


class ClosedWeight:
    """m, m', M = int_0 m and C_m = lim (M/m)' for 'constant:c' and 'power:alpha'."""

    def __init__(self, spec):
        self.kind, self.par = parse_spec(spec)
        if self.kind not in ("constant", "power"):
            raise ValueError(f"no closed form for weight {spec}")
        self.C_m = 1.0 if self.kind == "constant" else 1.0 / (self.par + 1.0)

    def m(self, t):
        return self.par if self.kind == "constant" else t**self.par

    def m1(self, t):
        return 0.0 if self.kind == "constant" else self.par * t ** (self.par - 1.0)

    def M(self, t):
        return self.par * t if self.kind == "constant" else t ** (self.par + 1.0) / (self.par + 1.0)


def ball_sigma_km1(n, k, R):
    """sigma_{k-1} of the n-1 principal curvatures 1/R of a ball (l0 = L0)."""
    return math.comb(n - 1, k - 1) * R ** (1 - k)


def amplitude(b, curv, C_f, C_m, k):
    """(b / (curv (1 - (1 - C_m)/C_f)))**(1/(k+1)): the amplitude xi of phi(xi M(d))."""
    gap = 1.0 - (1.0 - C_m) / C_f
    return (b / (curv * gap)) ** (1.0 / (k + 1.0))


def sigma_by_subsets(lam, j):
    """sigma_j as the sum over j-subsets of the products of their entries."""
    return math.fsum(math.prod(c) for c in itertools.combinations(lam, j))


def ellipse_distance(a, b, x, y, n_dense=4096):
    """Distance from (x, y) to the ellipse (a cos t, b sin t)."""
    ts = np.linspace(0.0, 2.0 * math.pi, n_dense, endpoint=False)
    sq = (x - a * np.cos(ts)) ** 2 + (y - b * np.sin(ts)) ** 2
    t0 = ts[int(np.argmin(sq))]
    dt = 2.0 * math.pi / n_dense
    res = minimize_scalar(
        lambda t: (x - a * math.cos(t)) ** 2 + (y - b * math.sin(t)) ** 2,
        bounds=(t0 - dt, t0 + dt), method="bounded", options={"xatol": 1e-14},
    )
    return math.sqrt(min(res.fun, float(sq.min())))
