"""Radial solvers for the k-Hessian blow-up equation on balls.

Contains the torsion-type auxiliary solve (right side b, zero boundary
data: two cumulative Gauss tables on one set of panels, with b evaluated
once per Gauss node and again only on a few leading panels), forward
integration of the blow-up initial value problem with singularity
detection, shooting of the blow-up radius, the monotone boundary-data
exhaustion as a two-point boundary value scheme, and boundary-asymptotics
reports.

Every solve is single-threaded and deterministic; distinct solves share no
mutable state.  The one root finder (Brent's method, for the shot and for
the IVP's cap crossing) and the Hermite interpolant of the reports are
written out here in plain floats and numpy; only the exhaustion scheme loads
scipy, for its banded solve.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import (
    panel_integrals,
    panel_partials,
    panel_points,
    panel_sums,
    scalar_or_array,
)
from .errors import (IntegrationFailure, ParameterError, ReportTruncated, SolveFailure,
                     domain_of, require_array_callable, require_dimension_order,
                     require_positive_finite, require_schedule)
from .nonlinearity import Nonlinearity, Weight
from .profiles import ProfileFns, predicted_profile

__all__ = [
    "RadialProblem",
    "RadialSolution",
    "Torsion",
    "solve_torsion",
    "integrate_blowup_ivp",
    "shoot_blowup_radius",
    "solve_exhaustion_bvp",
    "AsymptoticsReport",
    "asymptotics_report",
]


@dataclass(frozen=True)
class RadialProblem:
    """S_k(D^2 u) = b(|x|) f(u) on the ball of radius R in R^n.

    ``b`` maps an array of radii to one of its shape (checked here), and the
    IVP calls it with one float.  ``b_const``, when given, is the value of
    ``b`` at every r; the IVP's right-hand side then takes it instead.
    """

    n: int
    k: int
    R: float
    f: Nonlinearity
    b: Callable
    b_const: Optional[float] = None

    def __post_init__(self):
        require_dimension_order(self.n, self.k)
        require_positive_finite(self.R, "ball radius")
        require_array_callable(self.b, self.R * np.array([0.25, 0.5]), "source b")

    @staticmethod
    def from_weight(n, k, R, f, weight: Weight):
        """Compose b(r) = b_lower * m(R - r)**(k+1) from a boundary weight."""
        base = weight.b_lower
        # a constant weight gives one number, computed here rather than per IVP stage
        b_const = base * float(weight.const) ** (k + 1.0) if weight.kind == "constant" else None

        def b(r):
            if isinstance(r, float):  # the IVP's right-hand side: stay in floats
                return base * float(weight.m(max(R - r, 1e-300))) ** (k + 1.0)
            d = np.clip(R - np.asarray(r, float), 1e-300, None)
            return base * np.asarray(weight.m(d), float) ** (k + 1.0)

        return RadialProblem(n=n, k=k, R=R, f=f, b=b, b_const=b_const)


@dataclass
class RadialSolution:
    """Sampled radial solution; Rstar is the detected blow-up radius."""

    r: np.ndarray
    u: np.ndarray
    u1: np.ndarray
    Rstar: Optional[float]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Torsion:
    """The torsion function w of ``prob``: S_k(D^2 w) = b on the ball, w = 0 on its boundary.

    ``jet(r)`` gives (w, w', w'') at a radius or an array of radii; w'' is nan at r = 0.
    """

    prob: RadialProblem
    jet: Callable


# relative agreement of the spectral and the fresh Gauss partial panels at
# which ``_CumulativeUniform.at_points`` stops taking fresh panels; rounding
# alone keeps the two within about 4e-15 up to n = 30
_PARTIAL_AGREE = 1e-14

_TORSION_PANELS = 2048  # uniform panels of the torsion tables on [0, R]


class _CumulativeUniform:
    """int_0^r fn on ``_TORSION_PANELS`` uniform Gauss-Legendre panels of [0, R].

    The table keeps fn's values at every panel's Gauss nodes (``points``), so
    ``at_points`` gives int_0^x fn at each of those nodes from one pass of
    fn.  ``vals``, when given, are fn's values at ``points``.
    """

    def __init__(self, fn, R, vals=None):
        self.fn = fn
        self.nodes = np.linspace(0.0, float(R), _TORSION_PANELS + 1)
        self.h = self.nodes[1] - self.nodes[0]
        self.points, self.half = panel_points(self.nodes[:-1], self.nodes[1:])
        self.vals = np.asarray(fn(self.points) if vals is None else vals, dtype=float)
        self.prefix = np.concatenate([[0.0], np.cumsum(panel_sums(self.vals, self.half))])

    def value(self, r):
        arr = np.asarray(r, dtype=float)
        idx = np.clip((arr / self.h).astype(int), 0, len(self.nodes) - 2)
        out = self.prefix[idx] + panel_integrals(self.fn, self.nodes[idx], arr)
        return scalar_or_array(r, out)

    def at_points(self):
        """int_0^x fn at every node x of ``points``.

        Each is the prefix plus the partial panel from the panel's values,
        which is exact for polynomials of degree <= 9.  Near 0 the integral
        can be far smaller than that partial's error (s^(n-1) b(s) vanishes
        to order n - 1 there), so the leading panels take the partial from a
        fresh Gauss panel on [left node, x], as ``value`` does, up to and
        including the first panel where the two agree to ``_PARTIAL_AGREE``.
        """
        out = self.prefix[:-1, None] + panel_partials(self.vals, self.half)
        for i in range(len(out)):
            fresh = self.value(self.points[i])
            agree = np.all(np.abs(out[i] - fresh) < _PARTIAL_AGREE * np.abs(fresh))
            out[i] = fresh
            if agree:
                break
        return out


def solve_torsion(prob: RadialProblem):
    """Solve S_k(D^2 w) = b with w = 0 on the boundary, radially.

    Uses the exact divergence-form reduction
    r^(n-k) (w')^k = (k / C(n-1,k-1)) G(r),  G(r) = int_0^r s^(n-1) b(s) ds,
    so the only numerics are two cumulative quadratures on the same uniform
    panels.  The moment table evaluates b once per Gauss node; G at those
    nodes, and so the w' that the outer table integrates, comes from the
    panel values by spectral integration, except on the leading panels
    where G is still small against that integration's error (see
    ``_CumulativeUniform.at_points``).
    Returns the ``Torsion`` of prob, whose jet takes G and w at any r from
    one more Gauss panel each.
    """
    n, k, R = prob.n, prob.k, prob.R
    c = math.comb(n - 1, k - 1)
    moment = _CumulativeUniform(
        lambda s: np.asarray(s, float) ** (n - 1) * np.asarray(prob.b(s), float), R)

    def slope(r, G):
        """w' at r from the moment G(r)."""
        r = np.asarray(r, dtype=float)
        G = (k / c) * np.asarray(G, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0.0, G ** (1.0 / k) * r ** ((k - n) / k), 0.0)

    accum = _CumulativeUniform(lambda r: slope(r, moment.value(r)), R,
                               vals=slope(moment.points, moment.at_points()))
    WR = float(accum.value(R))

    def jet(r):
        r = np.asarray(r, dtype=float)
        moment_r = moment.value(r)
        G = (k / c) * np.asarray(moment_r, float)
        Gp = (k / c) * r ** (n - 1) * np.asarray(prob.b(r), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (1.0 / k) * G ** (1.0 / k - 1.0) * Gp * r ** ((k - n) / k)
            t2 = G ** (1.0 / k) * ((k - n) / k) * r ** ((k - n) / k - 1.0)
        return accum.value(r) - WR, slope(r, moment_r), np.where(r > 0.0, t1 + t2, np.nan)

    return Torsion(prob, jet)


# Cash-Karp 5(4) embedded pair (Cash & Karp, ACM TOMS 16 (1990) 201)
_C2, _C3, _C4, _C5, _C6 = 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 3 / 10, -9 / 10, 6 / 5
_A51, _A52, _A53, _A54 = -11 / 54, 5 / 2, -70 / 27, 35 / 27
_A61, _A62, _A63, _A64, _A65 = 1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096
_B1, _B3, _B4, _B6 = 37 / 378, 250 / 621, 125 / 594, 512 / 1771  # fifth order; b2 = b5 = 0
_E1 = _B1 - 2825 / 27648  # fifth minus embedded fourth order; e2 = 0
_E3 = _B3 - 18575 / 48384
_E4 = _B4 - 13525 / 55296
_E5 = -277 / 14336
_E6 = _B6 - 1 / 4


def _ck_step(rhs, r, y, h, k1):
    """One Cash-Karp step of the 2-component state ``y = (u, v)`` in floats.

    ``k1`` is ``rhs(r, y)``, the first stage, already known to the caller.
    Returns the fifth-order state and the embedded error estimate, both as
    tuples.
    """
    u, v = y
    p1, q1 = k1
    p2, q2 = rhs(r + _C2 * h, (u + h * (_A21 * p1), v + h * (_A21 * q1)))
    p3, q3 = rhs(r + _C3 * h, (u + h * (_A31 * p1 + _A32 * p2),
                               v + h * (_A31 * q1 + _A32 * q2)))
    p4, q4 = rhs(r + _C4 * h, (u + h * (_A41 * p1 + _A42 * p2 + _A43 * p3),
                               v + h * (_A41 * q1 + _A42 * q2 + _A43 * q3)))
    p5, q5 = rhs(r + _C5 * h, (u + h * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4),
                               v + h * (_A51 * q1 + _A52 * q2 + _A53 * q3 + _A54 * q4)))
    p6, q6 = rhs(r + _C6 * h,
                 (u + h * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5),
                  v + h * (_A61 * q1 + _A62 * q2 + _A63 * q3 + _A64 * q4 + _A65 * q5)))
    y5 = (u + h * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B6 * p6),
          v + h * (_B1 * q1 + _B3 * q3 + _B4 * q4 + _B6 * q6))
    err = (h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6),
           h * (_E1 * q1 + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6))
    return y5, err


def _make_rhs(prob: RadialProblem):
    """(u, v) -> (v, u'') for the radial ODE, in floats.

    A float overflow gives u'' = inf, a negative base under a fractional
    power gives nan and a zero denominator gives the signed inf or nan that
    numpy would, so a stage that leaves the reals shows as a non-finite
    value and its step is rejected.
    """
    n, k = prob.n, prob.k
    c_hi = math.comb(n - 1, k)
    c_lo = math.comb(n - 1, k - 1)
    f = prob.f.float_f()
    b, b_const = prob.b, prob.b_const

    def rhs(r, y):
        u, v = y
        t = v / r
        try:
            num = (float(b(r)) if b_const is None else b_const) * f(u) - c_hi * t**k
        except OverflowError:
            return v, math.inf
        except ValueError:
            return v, math.nan
        den = c_lo * t ** (k - 1)
        try:
            return v, num / den
        except ZeroDivisionError:
            if num == 0.0 or num != num:
                return v, math.nan
            return v, math.copysign(math.inf, num) * math.copysign(1.0, den)

    return rhs


def _admissible(upp, t, combs):
    """sigma_j of the radial Hessian (upp, t, ..., t) > 0 for j = 1..k.

    ``combs`` holds (j, C(n-1, j), C(n-1, j-1)) for j = 1..k.
    """
    for j, c_hi, c_lo in combs:
        if c_hi * t**j + c_lo * upp * t ** (j - 1) <= 0.0:
            return False
    return True


def _blowup_remainder(r, u, v, upp):
    """Distance to the singularity from the local blow-up model at radius r.

    Exact for pure power blow-up C d^-q and for logarithmic blow-up
    -q log d (up to O(d) relative); returns 0 when the model is invalid
    or its distance is not below r.
    """
    den = u * upp - v * v
    if den <= 0.0 or v <= 0.0 or u <= 0.0:
        return 0.0
    rem = u * v / den
    return rem if 0.0 < rem < r else 0.0


# default cap on u and u' at which the blow-up IVP stops and locates the crossing
IVP_CAP = 1e12
_MAX_STEPS = 3_000_000  # steps before an IVP that has neither crossed a cap nor stalled fails
# the shot's first u0, the tolerance of its bracket IVPs and its most bracket steps either way
_U0_INIT, _COARSE_TOL, _MAX_EXPAND = 1.0, 1e-8, 60


def integrate_blowup_ivp(prob: RadialProblem, u0, tol, u_cap=IVP_CAP, v_cap=IVP_CAP):
    """Integrate outward from the centre until the solution blows up.

    Adaptive Cash-Karp 5(4) with per-step error <= tol (mixed absolute /
    relative).  The two-component state (u, u') is stepped in plain Python
    floats: a stage that overflows or leaves f's domain gives a non-finite
    value, and its step is rejected with a quartered step size.  The
    right-hand side at each accepted state, evaluated there for the
    admissibility check, is also the first stage of every step taken from
    that state (the next step, its retries after a rejection, and the trial
    steps of the crossing search).

    Terminates on u or u' crossing the cap, or when the step size stalls at
    rounding level near the singularity.  The cap crossing inside the last
    step is the root, by Brent's method (``_brent_root``), of the overshoot
    max(u / u_cap, u' / v_cap) - 1 of one Cash-Karp trial step over the
    fraction theta of that step from the last accepted state.  Rstar is the
    crossing radius plus the local blow-up model remainder there.  The start
    state (u0, 0) must lie below both caps, and so must the series state at
    r = 1e-8 R from which the integration starts, when it is finite, and u0
    must lie in the domain of f (``domain_of``: any finite u0 for an
    exponential f, u0 > 0 otherwise); ParameterError otherwise.
    """
    def check_below_caps(r, u, v):
        if not (u < u_cap and v < v_cap):
            raise ParameterError(f"start state (u, u') = ({u:.6g}, {v:.6g}) at r={r:g} must lie "
                                 f"below the blow-up caps u_cap={u_cap:g}, v_cap={v_cap:g}")

    inside, words = domain_of(prob.f)
    if not inside(u0):
        raise ParameterError(f"initial value must be {words}, got {u0}")
    check_below_caps(0.0, u0, 0.0)
    require_positive_finite(tol, "tolerance")
    n, k, R = prob.n, prob.k, prob.R
    rhs = _make_rhs(prob)
    combs = [(j, math.comb(n - 1, j), math.comb(n - 1, j - 1)) for j in range(1, k + 1)]

    b0 = float(prob.b(1e-12 * R))
    try:
        f0 = prob.f.float_f()(float(u0))
    except OverflowError:
        f0 = math.inf
    c0 = (b0 * f0 / math.comb(n, k)) ** (1.0 / k)
    r = 1e-8 * float(R)
    y = (float(u0) + 0.5 * c0 * r * r, c0 * r)
    if all(map(math.isfinite, y)):  # an overflowing f(u0) is left to the step rejections
        check_below_caps(r, *y)
    k1 = rhs(r, y)  # first stage of every step from (r, y)

    rs, us, vs = [r], [y[0]], [y[1]]
    h = r
    eps = math.ulp(1.0)
    steps = rejected = 0
    termination = None

    while steps < _MAX_STEPS:
        steps += 1
        if h < 32.0 * eps * r:
            Rstar = r + _blowup_remainder(r, *y, k1[1])
            termination = "stall"
            break
        y_new, err = _ck_step(rhs, r, y, h, k1)
        if not all(map(math.isfinite, y_new + err)):
            h *= 0.25
            rejected += 1
            continue
        enorm = max(abs(err[0]) / (tol * (1.0 + abs(y[0]))), abs(err[1]) / (tol * (1.0 + abs(y[1]))))
        if enorm > 1.0:
            h *= max(0.2, 0.9 * enorm**-0.2)
            rejected += 1
            continue
        # accepted; admissibility of the new state
        r_new = r + h
        k_new = rhs(r_new, y_new)
        upp_new = k_new[1]
        t_new = y_new[1] / r_new
        if not (t_new > 0.0) or not math.isfinite(upp_new) or not _admissible(upp_new, t_new, combs):
            sol = RadialSolution(
                r=np.array(rs), u=np.array(us), u1=np.array(vs), Rstar=None,
                meta={"termination": "admissibility", "steps": steps, "rejected": rejected},
            )
            raise IntegrationFailure(
                f"admissibility lost at r={r_new:.6g} (u={y_new[0]:.6g})", solution=sol
            )
        if y_new[0] > u_cap or y_new[1] > v_cap:
            # the step fraction whose trial step reaches the cap: y lies on or below
            # both caps and y_new above one, so [0, 1] brackets it
            trials = {0.0: y, 1.0: y_new}

            def past_cap(yy):
                return max(yy[0] / u_cap, yy[1] / v_cap) - 1.0

            def overshoot(theta):
                trials[theta] = _ck_step(rhs, r, y, theta * h, k1)[0]
                return past_cap(trials[theta])

            theta = _brent_root(overshoot, 0.0, 1.0, past_cap(y), past_cap(y_new),
                                xtol=1e-300, rtol=8.9e-16, maxiter=200)
            r_cross, y_cross = r + theta * h, trials[theta]
            Rstar = r_cross + _blowup_remainder(r_cross, *y_cross, rhs(r_cross, y_cross)[1])
            rs.append(r_cross)
            us.append(y_cross[0])
            vs.append(y_cross[1])
            termination = "cap"
            break
        r, y, k1 = r_new, y_new, k_new
        rs.append(r)
        us.append(y[0])
        vs.append(y[1])
        h *= min(5.0, max(0.2, 0.9 * (enorm + 1e-16) ** -0.2))
    else:
        raise IntegrationFailure(
            f"no blow-up detected in {_MAX_STEPS} steps",
            solution=RadialSolution(
                r=np.array(rs), u=np.array(us), u1=np.array(vs), Rstar=None,
                meta={"termination": "max_steps", "steps": steps, "rejected": rejected},
            ),
        )

    return RadialSolution(
        r=np.array(rs),
        u=np.array(us),
        u1=np.array(vs),
        Rstar=float(Rstar),
        meta={
            "termination": termination,
            "steps": steps,
            "rejected": rejected,
            "tol": tol,
            "u_cap": u_cap,
            "v_cap": v_cap,
            "u0": u0,
            "n": n,
            "k": k,
        },
    )


def _brent_root(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Root of f bracketed by [xa, xb], by Brent's method, given fa = f(xa) and fb = f(xb).

    The iteration of scipy.optimize.brentq, step for step and in the same
    floating-point order (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), so it returns the same root; the end-point
    values come from the caller instead of being computed again.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolveFailure(f"root not bracketed: f({xa:.6g}) and f({xb:.6g}) share a sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SolveFailure(f"Brent root finding did not converge in {maxiter} iterations")


def _scaling_u0(prob: RadialProblem):
    """(u0, l) -> the centre value of the solution from u0 rescaled by l, or None.

    With b constant, u(x) -> u(l x) + (2k/a) log l maps solutions of
    S_k(D^2 u) = b e^(a u) to solutions, and u(x) -> l^(2k/(gamma-k)) u(l x)
    those of S_k(D^2 u) = b u^gamma; either way the blow-up radius R*
    becomes R* / l.  None when b is not constant or f has no such law.
    """
    if prob.b_const is None:
        return None
    k, f = prob.k, prob.f
    if f.kind == "exponential":
        c = 2.0 * k / f.rate
        return lambda u0, l: u0 + c * math.log(l)
    if f.kind == "power" and f.gamma > k:
        c = 2.0 * k / (f.gamma - k)
        return lambda u0, l: u0 * l**c
    return None


def shoot_blowup_radius(prob: RadialProblem, tol=1e-9):
    """Find u0 such that the blow-up radius equals prob.R.

    With a constant weight and f = e^(a u) or u^gamma (gamma > k) the
    equation's scaling gives u0 in closed form: u0 + (2k/a) log R*, or
    u0 R*^(2k/(gamma-k)), is the same for every solution.  The shot then
    integrates at ``tol`` from ``_U0_INIT``, predicts u0 from its R*, and,
    when that u0 lies in the domain of f (``domain_of``) below ``IVP_CAP``,
    integrates at ``tol`` again from it; it returns this second solution
    when its |log(R* / R)| <= tol (path "scaling").

    Otherwise (path "bracket"), R*(u0) being strictly decreasing in u0
    (comparison principle), the bracket is expanded from ``_U0_INIT`` at
    ``_COARSE_TOL`` by factors of 4, or downward by steps of log 4 in u0
    for exponential f, which so reaches u0 <= 0, with every u0 below
    ``IVP_CAP`` (a u0 whose series start at r = 1e-8 R already lies past a
    cap has R* < 1e-8 R and takes the gap log(1e-8)), then Brent's method
    finds the root of log(R*(u0) / R) in x = u0 for exponential f and in
    x = log u0 for every other kind, and one final IVP at ``tol`` is made
    from that root.

    Returns (u0, solution-at-tol); the solution's meta["shot"] holds the
    path and counts every IVP of the shot, with their total steps and
    rejections.  Raises SolveFailure, carrying those counts in ``shot``,
    when the bracket cannot be closed, or, with the solution in
    ``partial``, when its R* misses R by more than 1e-6 relative.  An
    IntegrationFailure of any IVP escapes with the counts, that IVP
    included, in its ``shot``.
    """
    target = prob.R
    shot = {"path": "scaling", "ivps": 0, "steps": 0, "rejected": 0}

    def ivp(u0, ivp_tol):
        failure = None
        try:
            sol = integrate_blowup_ivp(prob, u0, ivp_tol)
        except IntegrationFailure as exc:  # the failed IVP counts, and the failure carries the shot
            failure, sol, exc.shot = exc, exc.solution, shot
        shot["ivps"] += 1
        shot["steps"] += sol.meta["steps"]
        shot["rejected"] += sol.meta["rejected"]
        if failure is not None:
            raise failure
        return sol

    def done(u0, sol):
        sol.meta["shot"] = shot
        if abs(sol.Rstar / target - 1.0) > 1e-6:
            raise SolveFailure(f"shot missed the target blow-up radius: R*={sol.Rstar:.9g} "
                               f"for target {target:.9g} at u0={u0:.9g}", partial=[sol], shot=shot)
        return u0, sol

    rescale, (inside, _) = _scaling_u0(prob), domain_of(prob.f)
    if rescale is not None:
        try:
            u0 = rescale(_U0_INIT, ivp(_U0_INIT, tol).Rstar / target)
        except OverflowError:
            u0 = math.inf
        if inside(u0) and u0 < IVP_CAP:
            sol = ivp(u0, tol)
            if abs(math.log(sol.Rstar / target)) <= tol:
                return done(u0, sol)

    shot["path"] = "bracket"
    exponential = prob.f.kind == "exponential"
    to_u0, to_x = (float, float) if exponential else (math.exp, math.log)

    def gap(u0):
        try:
            return math.log(ivp(u0, _COARSE_TOL).Rstar / target)
        except ParameterError:  # the series start at 1e-8 R lies past a cap, so R* < 1e-8 R
            return math.log(1e-8)

    lo = hi = _U0_INIT
    glo = ghi = gap(lo)
    for _ in range(_MAX_EXPAND):
        if glo > 0.0:
            break
        lo = lo - math.log(4.0) if exponential else lo / 4.0
        glo = gap(lo)
    else:
        raise SolveFailure("could not bracket the target blow-up radius from below", shot=shot)
    for _ in range(_MAX_EXPAND):
        if ghi < 0.0 or not 4.0 * hi < IVP_CAP:
            break
        hi *= 4.0
        ghi = gap(hi)
    if not ghi < 0.0:
        raise SolveFailure("could not bracket the target blow-up radius from above", shot=shot)
    xtol = 1e-13 * max(1.0, abs(lo)) if exponential else 1e-13
    x = _brent_root(lambda x: gap(to_u0(x)), to_x(lo), to_x(hi), glo, ghi, xtol=xtol,
                    rtol=8.9e-16, maxiter=200)
    u0 = to_u0(x)
    return done(u0, ivp(u0, tol))


def _exhaustion_banded(alpha, dflux, centre, reaction):
    """Tridiagonal Newton Jacobian of the exhaustion scheme in solve_banded form.

    Row 0 couples the centre node to its neighbour with ``centre``; row
    i >= 1 is the flux difference ``alpha[i-1] (flux[i] - flux[i-1])``
    differentiated through ``dflux``.  ``reaction`` is b f'(U) per node.
    """
    N = reaction.size
    ab = np.zeros((3, N))
    ab[1, 0] = -centre - reaction[0]
    ab[0, 1] = centre
    ab[1, 1:] = -alpha * (dflux[1:] + dflux[:-1]) - reaction[1:]
    ab[2, :-1] = alpha * dflux[:-1]
    ab[0, 2:] = alpha[:-1] * dflux[1:-1]
    return ab


_MAX_NEWTON = 100  # Newton steps per boundary value before the exhaustion scheme fails


def solve_exhaustion_bvp(prob: RadialProblem, j_schedule, grid_h, tol):
    """Monotone boundary-data exhaustion: solve with u(R) = j for each j.

    Conservative flux discretisation of the radial divergence form on a
    uniform grid, damped Newton with tridiagonal Jacobians, continuation in
    j (the previous solution seeds the next solve).  The odd flux extension
    x |x|^(k-1) keeps Newton well defined when an iterate loses monotonicity.
    """
    from scipy.linalg import solve_banded  # the only scipy use on the radial paths

    require_positive_finite(grid_h, "grid spacing")
    require_positive_finite(tol, "tolerance")
    js = require_schedule(j_schedule, prob.f)
    n, k, R = prob.n, prob.k, prob.R
    N = max(8, int(round(R / grid_h)))
    h = R / N
    r = np.linspace(0.0, R, N + 1)
    rmid = 0.5 * (r[:-1] + r[1:])
    c_lo = math.comb(n - 1, k - 1)
    c_full = math.comb(n, k)
    alpha = c_lo / (k * h * r[1:N] ** (n - 1))
    rmid_pow = rmid ** (n - k)
    b_nodes = np.asarray(prob.b(r[:N]), float)
    fv, fpv = prob.f.f, prob.f.f_prime  # at u as it is: a non-finite trial fails the search

    def residual(U, j):
        full = np.concatenate([U, [j]])
        g = np.diff(full) / h
        flux = rmid_pow * g * np.abs(g) ** (k - 1)
        res = np.empty(N)
        res[0] = c_full * (2.0 * g[0] / h) * abs(2.0 * g[0] / h) ** (k - 1) - b_nodes[0] * fv(U[0])
        res[1:] = alpha * (flux[1:] - flux[:-1]) - b_nodes[1:] * fv(U[1:])
        return res, g

    def jacobian_banded(U, g):
        sp = np.maximum(k * np.abs(g) ** (k - 1), k * (1e-9 * max(1.0, abs(js[-1])) / R) ** (k - 1))
        dflux = rmid_pow * sp / h
        s0 = max(k * abs(2.0 * g[0] / h) ** (k - 1),
                 k * (1e-9 * max(1.0, abs(js[-1])) / h) ** (k - 1))
        return _exhaustion_banded(alpha, dflux, c_full * s0 * 2.0 / (h * h), b_nodes * fpv(U))

    def scaled_norm(res, U):
        return float(np.max(np.abs(res) / (1.0 + np.abs(b_nodes * fv(U)))))

    solutions = []
    U = None
    for j in js:
        if U is None:
            # positive start with nonzero slope: keeps the degenerate flux
            # derivative alive for k >= 2 and stays inside f's domain
            U = j * (0.5 + 0.5 * (r[:N] / R) ** 2)
        else:
            U = U.copy()
        res, g = residual(U, j)
        norm = scaled_norm(res, U)
        history = [norm]
        if math.isnan(norm):  # f is not finite at the start (trial points are checked)
            raise SolveFailure(f"Newton start has a nan residual at j={j}", residuals=history)
        for it in range(_MAX_NEWTON):
            if norm <= tol:
                break
            ab = jacobian_banded(U, g)
            delta = solve_banded((1, 1), ab, -res)
            step = 1.0
            while step >= 2.0**-30:
                U_try = U + step * delta
                res_try, g_try = residual(U_try, j)
                norm_try = scaled_norm(res_try, U_try)
                if norm_try < norm and np.all(np.isfinite(res_try)):
                    break
                step *= 0.5
            else:
                raise SolveFailure(
                    f"Newton damping floor reached at j={j} (residual {norm:.3g})",
                    residuals=history,
                )
            U, res, g, norm = U_try, res_try, g_try, norm_try
            history.append(norm)
        else:
            raise SolveFailure(
                f"Newton did not converge in {_MAX_NEWTON} steps at j={j}", residuals=history
            )
        full = np.concatenate([U, [j]])
        u1 = np.gradient(full, r)
        solutions.append(
            RadialSolution(
                r=r.copy(), u=full, u1=u1, Rstar=R,
                meta={"kind": "exhaustion", "j": j, "newton_iters": len(history) - 1,
                      "residual_history": history, "h": h, "tol": tol},
            )
        )
    return solutions


@dataclass
class AsymptoticsReport:
    """Rows (d, u, predicted, ratio) quantifying the boundary sandwich."""

    rows: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def d(self):
        return self.rows[:, 0]

    @property
    def ratio(self):
        return self.rows[:, 3]


def _hermite(x, y, dy, xq):
    """Piecewise cubic Hermite interpolant of values y and slopes dy at increasing x."""
    i = np.clip(np.searchsorted(x, xq) - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    t = (xq - x[i]) / h
    t2 = t * t
    t3 = t2 * t
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y[i] + (t3 - 2.0 * t2 + t) * h * dy[i]
            + (3.0 * t2 - 2.0 * t3) * y[i + 1] + (t3 - t2) * h * dy[i + 1])


def asymptotics_report(sol: RadialSolution, p: ProfileFns, xi, d_values):
    """Compare u against phi(xi M(d)) at the distances ``d_values`` from the blow-up.

    u at a distance d is the cubic Hermite interpolant of the solution's own
    (r, u, u') samples in the variable log d, with slopes du/dlog d = -d u'.
    Near the blow-up u is close to linear (exponential f) or exponential
    (power f) in log d, so this is far more accurate than interpolating in
    r at the solver's step sizes.

    Rows run from the largest distance down.  Raises ReportTruncated
    (carrying the resolved rows) when a distance lies outside (0, Rstar) or
    the solution samples do not reach it.
    """
    if sol.Rstar is None:
        raise ParameterError("solution carries no blow-up radius")
    Rstar = sol.Rstar
    d_samp = Rstar - sol.r
    good = d_samp > 0.0
    if not np.any(good):
        raise ReportTruncated("no samples below the blow-up radius", rows=np.empty((0, 4)))
    d_min_avail = float(d_samp[good].min())
    d_max_avail = float(d_samp[good].max())

    ladder = np.sort(np.asarray(d_values, dtype=float))[::-1]
    if np.any(ladder <= 0.0) or np.any(ladder >= Rstar):
        raise ReportTruncated("requested distances outside (0, Rstar)", rows=np.empty((0, 4)))

    usable = (ladder >= d_min_avail) & (ladder <= d_max_avail)
    d = ladder[usable]
    order = np.argsort(d_samp[good])  # samples are monotone in d
    ds = d_samp[good][order]
    u = _hermite(np.log(ds), sol.u[good][order], -ds * sol.u1[good][order], np.log(d))
    pred = predicted_profile(p, xi, d)
    rows = np.column_stack([d, u, pred, u / pred])
    if not np.all(usable):
        raise ReportTruncated(
            f"solution resolves distances only in [{d_min_avail:.3g}, {d_max_avail:.3g}]",
            rows=rows,
        )
    return AsymptoticsReport(rows=rows, meta={"xi": xi, "Rstar": Rstar})
