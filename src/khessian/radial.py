"""Radial solvers for the k-Hessian blow-up equation on balls.

Contains the torsion-type auxiliary solve (right side b, zero boundary
data), forward integration of the blow-up initial value problem with
singularity detection, the monotone boundary-data exhaustion as a two-point
boundary value scheme, the sublevel subsolution psi(-w) built from the
torsion solution w and a ``profiles.PsiPair`` of the same (f, k), and
boundary-asymptotics reports.

Every solve is single-threaded and deterministic; distinct solves share no
mutable state.  The root finders (Brent, bisection, and the Illinois search
for the IVP's cap crossing) and the Hermite interpolant of the reports are
written out here in plain floats and numpy; only the exhaustion scheme loads
scipy, for its banded solve.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import panel_integrals, scalar_or_array, vectorized
from .errors import IntegrationFailure, ParameterError, ReportTruncated, SolveFailure
from .nonlinearity import Nonlinearity, Weight
from .profiles import ProfileFns, PsiPair, predicted_profile

__all__ = [
    "RadialProblem",
    "RadialSolution",
    "solve_torsion",
    "integrate_blowup_ivp",
    "shoot_blowup_radius",
    "solve_exhaustion_bvp",
    "AsymptoticsReport",
    "asymptotics_report",
    "build_radial_subsolution",
]


@dataclass(frozen=True)
class RadialProblem:
    """S_k(D^2 u) = b(|x|) f(u) on the ball of radius R in R^n.

    ``b_const``, when given, is the value of ``b`` at every r; the IVP's
    right-hand side then takes it without calling ``b``.
    """

    n: int
    k: int
    R: float
    f: Nonlinearity
    b: Callable
    b_const: Optional[float] = None

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"dimension must be >= 2, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"order k={self.k} out of range 1..{self.n}")
        if self.R <= 0:
            raise ParameterError(f"ball radius must be positive, got {self.R}")

    @staticmethod
    def from_weight(n, k, R, f, weight: Weight, base=None):
        """Compose b(r) = base * m(R - r)**(k+1) from a boundary weight."""
        base = weight.b_lower if base is None else float(base)
        m = vectorized(weight.m)
        # a constant weight gives one number, computed here rather than per IVP stage
        b_const = base * float(weight.const) ** (k + 1.0) if weight.kind == "constant" else None

        def b(r):
            if isinstance(r, float):  # the IVP's right-hand side: stay in floats
                return base * float(weight.m(max(R - r, 1e-300))) ** (k + 1.0)
            d = np.clip(R - np.asarray(r, float), 1e-300, None)
            return base * np.asarray(m(d), float) ** (k + 1.0)

        return RadialProblem(n=n, k=k, R=R, f=f, b=b, b_const=b_const)


@dataclass
class RadialSolution:
    """Sampled radial solution; Rstar is the detected blow-up radius."""

    r: np.ndarray
    u: np.ndarray
    u1: np.ndarray
    Rstar: Optional[float]
    meta: dict = field(default_factory=dict)
    value: Optional[Callable] = None
    deriv1: Optional[Callable] = None
    deriv2: Optional[Callable] = None


class _CumulativeUniform:
    """int_0^r fn on a uniform grid with per-segment Gauss-Legendre panels."""

    def __init__(self, fn, R, n_seg=2048):
        self.fn = fn
        self.R = float(R)
        self.nodes = np.linspace(0.0, self.R, n_seg + 1)
        self.h = self.nodes[1] - self.nodes[0]
        seg = panel_integrals(fn, self.nodes[:-1], self.nodes[1:])
        self.prefix = np.concatenate([[0.0], np.cumsum(seg)])

    def value(self, r):
        arr = np.asarray(r, dtype=float)
        idx = np.clip((arr / self.h).astype(int), 0, len(self.nodes) - 2)
        out = self.prefix[idx] + panel_integrals(self.fn, self.nodes[idx], arr)
        return scalar_or_array(r, out)


def solve_torsion(prob: RadialProblem, n_seg=2048):
    """Solve S_k(D^2 w) = b with w = 0 on the boundary, radially.

    Uses the exact divergence-form reduction
    r^(n-k) (w')^k = (k / C(n-1,k-1)) int_0^r s^(n-1) b(s) ds,
    so the only numerics are two nested cumulative quadratures.  Returns a
    RadialSolution with attached analytic-grade callables for w, w', w''.
    """
    n, k, R = prob.n, prob.k, prob.R
    c = math.comb(n - 1, k - 1)
    bfn = vectorized(prob.b)
    moment = _CumulativeUniform(lambda s: np.asarray(s, float) ** (n - 1) * np.asarray(bfn(s), float), R, n_seg)

    def wp(r):
        r = np.asarray(r, dtype=float)
        G = (k / c) * np.asarray(moment.value(r), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0.0, G ** (1.0 / k) * r ** ((k - n) / k), 0.0)
        return out

    accum = _CumulativeUniform(wp, R, n_seg)
    WR = float(accum.value(R))

    def w(r):
        return np.asarray(accum.value(r), float) - WR

    def wpp(r):
        r = np.asarray(r, dtype=float)
        G = (k / c) * np.asarray(moment.value(r), float)
        Gp = (k / c) * r ** (n - 1) * np.asarray(bfn(r), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (1.0 / k) * G ** (1.0 / k - 1.0) * Gp * r ** ((k - n) / k)
            t2 = G ** (1.0 / k) * ((k - n) / k) * r ** ((k - n) / k - 1.0)
        out = t1 + t2
        return np.where(r > 0.0, out, np.nan)

    rs = np.linspace(0.0, R, 513)
    return RadialSolution(
        r=rs,
        u=np.asarray(w(rs), float),
        u1=np.asarray(wp(rs), float),
        Rstar=R,
        meta={"kind": "torsion", "n": n, "k": k, "R": R},
        value=lambda r: w(r),
        deriv1=lambda r: wp(r),
        deriv2=lambda r: wpp(r),
    )


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


def _ck_step(rhs, r, y, h, k1=None):
    """One Cash-Karp step of the 2-component state ``y = (u, v)`` in floats.

    ``k1``, if given, is ``rhs(r, y)``, the first stage, already known to
    the caller.  Returns the fifth-order state and the embedded error
    estimate, both as tuples.
    """
    u, v = y
    p1, q1 = rhs(r, y) if k1 is None else k1
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


def _blowup_remainder(u, v, upp):
    """Distance to the singularity from the local blow-up model.

    Exact for pure power blow-up C d^-q and for logarithmic blow-up
    -q log d (up to O(d) relative); returns 0 when the model is invalid.
    """
    den = u * upp - v * v
    if den <= 0.0 or v <= 0.0 or u <= 0.0:
        return 0.0
    return u * v / den


def integrate_blowup_ivp(prob: RadialProblem, u0, tol, u_cap=1e12, v_cap=1e12, max_steps=3_000_000):
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
    step is found twice, with one full step and with two half steps from the
    last accepted state, each by Illinois regula falsi on the step fraction
    (Dowell & Jarratt, BIT 11 (1971) 168) that keeps the bracket, takes the
    midpoint when the interpolate leaves it and stops at adjacent floats.
    Rstar combines the Richardson-extrapolated crossing location of the two
    and the local blow-up model remainder.
    """
    if u0 <= 0.0:
        raise ParameterError(f"initial value must be positive, got {u0}")
    if tol <= 0.0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
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
    k1 = rhs(r, y)  # first stage of every step from (r, y)

    rs, us, vs = [r], [y[0]], [y[1]]
    h = r
    eps = math.ulp(1.0)
    steps = rejected = 0
    termination = None

    def locate_crossing(r0, y0, k0, h_acc, y_full):
        """Cap crossing inside the step h_acc from (r0, y0), whose full step gave y_full."""
        def overshoot(yy):
            return max(yy[0] / u_cap, yy[1] / v_cap) - 1.0

        def trial(theta, halve):
            if halve:
                ym, _ = _ck_step(rhs, r0, y0, 0.5 * theta * h_acc, k0)
                yy, _ = _ck_step(rhs, r0 + 0.5 * theta * h_acc, ym, 0.5 * theta * h_acc)
            else:
                yy, _ = _ck_step(rhs, r0, y0, theta * h_acc, k0)
            return yy

        def solve(halve, y_hi):
            # smallest fraction theta whose trial step overshoots: g(lo) < 0 <= g(hi)
            lo, hi = 0.0, 1.0
            g_lo, g_hi = overshoot(y0), overshoot(y_hi)
            if not g_hi >= 0.0:
                return r0 + h_acc, y_hi  # no crossing inside the step
            kept = 0  # +1 after hi moved, -1 after lo moved
            while True:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break  # lo and hi are adjacent floats
                theta = hi - g_hi * (hi - lo) / (g_hi - g_lo)
                if not lo < theta < hi:
                    theta = mid
                yy = trial(theta, halve)
                g = overshoot(yy)
                if g >= 0.0:
                    hi, g_hi, y_hi = theta, g, yy
                    if kept > 0:
                        g_lo *= 0.5  # Illinois: lo kept twice in a row
                    kept = 1
                else:
                    lo, g_lo = theta, g
                    if kept < 0:
                        g_hi *= 0.5
                    kept = -1
            return r0 + hi * h_acc, y_hi

        rc0, _ = solve(False, y_full)
        rc1, yc1 = solve(True, trial(1.0, True))
        r_star = rc1 + (rc1 - rc0) / 31.0
        return r_star, yc1

    while steps < max_steps:
        steps += 1
        if h < 32.0 * eps * r:
            rem = _blowup_remainder(y[0], y[1], k1[1])
            Rstar = r + (rem if 0.0 < rem < r else 0.0)
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
                meta={"termination": "admissibility", "steps": steps},
            )
            raise IntegrationFailure(
                f"admissibility lost at r={r_new:.6g} (u={y_new[0]:.6g})", solution=sol
            )
        if y_new[0] > u_cap or y_new[1] > v_cap:
            r_cross, y_cross = locate_crossing(r, y, k1, h, y_new)
            upp = rhs(r_cross, y_cross)[1]
            rem = _blowup_remainder(y_cross[0], y_cross[1], upp)
            Rstar = r_cross + (rem if 0.0 < rem < r_cross else 0.0)
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
            f"no blow-up detected in {max_steps} steps",
            solution=RadialSolution(
                r=np.array(rs), u=np.array(us), u1=np.array(vs), Rstar=None,
                meta={"termination": "max_steps", "steps": steps},
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


def _bisect_root(f, xa, xb, xtol, maxiter):
    """Root of f bracketed by [xa, xb] by bisection: the loop of scipy.optimize.bisect.

    The relative tolerance is scipy's default, 4 eps.
    """
    rtol = 4 * np.finfo(float).eps
    fa, fb = f(xa), f(xb)
    if fa * fb > 0:
        raise SolveFailure(f"root not bracketed: f({xa:.6g}) and f({xb:.6g}) share a sign")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(maxiter):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise SolveFailure(f"bisection did not converge in {maxiter} iterations")


def shoot_blowup_radius(prob: RadialProblem, target=None, tol=1e-9, coarse_tol=1e-8,
                        u0_init=1.0, max_expand=60):
    """Find u0 such that the blow-up radius equals ``target`` (default prob.R).

    The blow-up radius R*(u0) is strictly decreasing in u0 (comparison
    principle).  The bracket is expanded by factors of 4 from ``u0_init``,
    then Brent's method finds the root of log(R*(u0) / target) in x = u0 for
    exponential f and in x = log u0 for every other kind.  With a constant
    weight the equation's scaling makes log R* exactly affine in that x:
    u0 + (2k/a) log R* is invariant for f = e^(a u), and u0 R*^(2k/(gamma-k))
    for f = u^gamma, so the secant steps land on the root at once.  Returns
    (u0, solution-at-tol); the solution's meta["shot"] counts the shot's
    IVPs, with their total steps and rejections.
    """
    target = prob.R if target is None else float(target)
    exponential = prob.f.kind == "exponential"
    to_u0, to_x = (float, float) if exponential else (math.exp, math.log)
    shot = {"ivps": 0, "steps": 0, "rejected": 0}

    def ivp(u0, ivp_tol):
        sol = integrate_blowup_ivp(prob, u0, ivp_tol)
        shot["ivps"] += 1
        shot["steps"] += sol.meta["steps"]
        shot["rejected"] += sol.meta["rejected"]
        return sol

    def gap(u0):
        return math.log(ivp(u0, coarse_tol).Rstar / target)

    lo = hi = float(u0_init)
    glo = ghi = gap(lo)
    for _ in range(max_expand):
        if glo > 0.0:
            break
        lo /= 4.0
        glo = gap(lo)
    else:
        raise SolveFailure("could not bracket the target blow-up radius from below")
    for _ in range(max_expand):
        if ghi < 0.0:
            break
        hi *= 4.0
        ghi = gap(hi)
    else:
        raise SolveFailure("could not bracket the target blow-up radius from above")
    xtol = 1e-13 * max(1.0, lo) if exponential else 1e-13
    x = _brent_root(lambda x: gap(to_u0(x)), to_x(lo), to_x(hi), glo, ghi, xtol=xtol,
                    rtol=8.9e-16, maxiter=200)
    u0 = to_u0(x)
    sol = ivp(u0, tol)
    sol.meta["shot"] = shot
    return u0, sol


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


def solve_exhaustion_bvp(prob: RadialProblem, j_schedule, grid_h, tol, max_newton=100):
    """Monotone boundary-data exhaustion: solve with u(R) = j for each j.

    Conservative flux discretisation of the radial divergence form on a
    uniform grid, damped Newton with tridiagonal Jacobians, continuation in
    j (the previous solution seeds the next solve).  The odd flux extension
    x |x|^(k-1) keeps Newton well defined when an iterate loses monotonicity.
    """
    from scipy.linalg import solve_banded  # the only scipy use on the radial paths

    js = [float(j) for j in j_schedule]
    if any(b <= a for a, b in zip(js, js[1:])):
        raise ParameterError("boundary-data schedule must be strictly increasing")
    n, k, R = prob.n, prob.k, prob.R
    N = max(8, int(round(R / grid_h)))
    h = R / N
    r = np.linspace(0.0, R, N + 1)
    rmid = 0.5 * (r[:-1] + r[1:])
    c_lo = math.comb(n - 1, k - 1)
    c_full = math.comb(n, k)
    alpha = c_lo / (k * h * r[1:N] ** (n - 1))
    rmid_pow = rmid ** (n - k)
    b_nodes = np.asarray(vectorized(prob.b)(r[:N]), float)
    # domain guard: transient Newton iterates may dip below f's domain (0, inf)
    f_raw = vectorized(prob.f.f)
    fp_raw = vectorized(prob.f.f_prime)
    fv = lambda u: f_raw(np.maximum(u, 1e-12))
    fpv = lambda u: fp_raw(np.maximum(u, 1e-12))

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
        for it in range(max_newton):
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
                f"Newton did not converge in {max_newton} steps at j={j}", residuals=history
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


def asymptotics_report(sol: RadialSolution, p: ProfileFns, xi, d_values=None,
                       d_hi=None, decades=2.0, per_decade=8):
    """Compare u against phi(xi M(d)) on a geometric ladder of distances.

    u at a distance d is the cubic Hermite interpolant of the solution's own
    (r, u, u') samples in the variable log d, with slopes du/dlog d = -d u'.
    Near the blow-up u is close to linear (exponential f) or exponential
    (power f) in log d, so this is far more accurate than interpolating in
    r at the solver's step sizes.

    Default ladder: from d_hi = 0.1 Rstar down the requested number of
    decades.  Raises ReportTruncated (carrying the resolved rows) when the
    solution samples do not reach the requested distances.
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

    explicit = d_values is not None
    if explicit:
        ladder = np.sort(np.asarray(d_values, dtype=float))[::-1]
        if np.any(ladder <= 0.0) or np.any(ladder >= Rstar):
            raise ReportTruncated(
                "requested distances outside (0, Rstar)", rows=np.empty((0, 4))
            )
    else:
        top = 0.1 * Rstar if d_hi is None else float(d_hi)
        npts = int(round(decades * per_decade)) + 1
        ladder = top * 10.0 ** (-np.arange(npts) / per_decade)

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


class RadialSubsolution:
    """Sublevel subsolution psi(-w) from the torsion solution w and the inverse pair psi."""

    def __init__(self, torsion: RadialSolution, pair: PsiPair):
        self._w = torsion
        self._psi = pair.psi
        self._Psi = pair.Psi

    def __call__(self, r):
        w = np.asarray(self._w.value(r), float)
        return scalar_or_array(r, self._psi(np.maximum(-w, 1e-300)))

    def sublevel_radius(self, j):
        """Radius r_j with value j: the radial realisation of the sublevel set."""
        target = -float(self._Psi(j))
        w0 = float(self._w.value(0.0))
        if target <= w0:
            raise ParameterError(f"sublevel {j} is below the centre value {self(0.0):.6g}")
        return float(_bisect_root(lambda r: float(self._w.value(r)) - target,
                                  0.0, self._w.meta["R"], xtol=1e-14, maxiter=200))

    @property
    def torsion(self):
        return self._w


def build_radial_subsolution(prob: RadialProblem):
    """psi(-w) with w the torsion solution and psi the inverse pair of the same problem."""
    return RadialSubsolution(solve_torsion(prob), PsiPair(prob.f, prob.k))
