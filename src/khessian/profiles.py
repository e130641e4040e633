"""Blow-up profile machinery: growth integrals, their inverses, and the
limit constants that control boundary asymptotics.

For a nonlinearity f of order k the kit provides

* ``F(s)``   cumulative integral of f from 0 (exact for built-in kinds,
  else the tail table of the reflected integrand f(1/u)/u^2 at u = 1/s),
* ``H(s)``   ((k+1) F(s))**(1/(k+1)),
* ``Phi(s)`` int_s^inf dtau/H(tau)  (finite iff the blow-up condition holds),
* ``phi(t)`` the inverse of Phi -- the universal boundary blow-up shape,
* ``PsiPair`` the analogous pair Psi/psi built from f**(-1/k), for the
  sublevel subsolution psi(-w) (built on its own, not part of the bundle),
* ``C_f``    lim H'(s) Phi(s), and for a weight m: M = int m and
  ``C_m``     lim (M/m)'(t) as t -> 0+.

``Phi`` is always evaluated by quadrature (a geometric table with an
analytic tail above its top node), even when a closed form exists, so that closed forms remain
available as independent oracles.  ``phi`` inverts the table by safeguarded
Newton: each target is bracketed by a grid segment and started from the
segment's linear interpolant, Newton steps use the exact slope
Phi' = -1/H, and a step that leaves the bracket falls back to its midpoint
(the slope blows up at small arguments, where plain Newton would be unsafe).

``Phi``, ``phi`` and its derivatives, ``PsiPair.psi``, ``predicted_profile``
and ``profile_table`` take scalars or arrays: a scalar gives a float, an array
an array of the same shape, and a whole array costs one vectorised inversion.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import DecayingTailIntegral, cumulative_from_zero, scalar_or_array, vectorized
from .errors import ConditionViolation, KHessianError, LimitNotDetected, ParameterError
from .nonlinearity import Nonlinearity, Weight

__all__ = [
    "Profile",
    "ProfileFns",
    "build_profile",
    "compute_Cf",
    "build_weight",
    "PsiPair",
    "assemble_profile",
    "condition15_gap",
    "xi_bounds",
    "PowerAsymptote",
    "power_law_asymptote",
    "check_limit_Ff",
    "predicted_profile",
    "profile_table",
]


class Profile:
    """Weight-independent profile machinery for one (f, k) pair."""

    def __init__(self, nl: Nonlinearity, k: int, per_decade: int = 64):
        if int(k) < 1:
            raise ParameterError(f"order k must be >= 1, got {k}")
        self.k = int(k)
        self.nl = nl
        nl.check_f1()
        nl.check_f2(self.k)

        self._f = vectorized(nl.f)
        self._fp = vectorized(nl.f_prime)
        if nl.F_closed(1.0) is not None:
            self._F = nl.F_closed
        else:
            self._F = cumulative_from_zero(self._f, name="F")

        kp1 = self.k + 1.0

        def inv_H(s):
            s = np.asarray(s, dtype=float)
            with np.errstate(over="ignore"):
                F = np.asarray(self._F(s), dtype=float)
            out = np.where(np.isfinite(F), (kp1 * np.where(F > 0, F, 1.0)) ** (-1.0 / kp1), 0.0)
            return np.where(F > 0, out, np.inf)

        tail_hint = None
        if nl.kind == "power":
            tail_hint = (nl.gamma + 1.0) / kp1
        elif nl.kind == "custom" and nl.tail_exponent_hint is not None:
            tail_hint = (nl.tail_exponent_hint + 1.0) / kp1
        self._ko = DecayingTailIntegral(
            inv_H, per_decade=per_decade, tail_hint=tail_hint, name="profile integral"
        )

    # -- basic functions ----------------------------------------------------

    def f(self, s):
        return self._f(s)

    def f_prime(self, s):
        return self._fp(s)

    def F(self, s):
        return self._F(s)

    def H(self, s):
        return ((self.k + 1.0) * self._F(s)) ** (1.0 / (self.k + 1.0))

    def H_prime(self, s):
        return ((self.k + 1.0) * self._F(s)) ** (-self.k / (self.k + 1.0)) * self._f(s)

    def Ff_ratio(self, s):
        """F(s)**(k/(k+1)) / f(s); tends to 0 under the blow-up condition."""
        return np.asarray(self._F(s), float) ** (self.k / (self.k + 1.0)) / self._f(s)

    # -- the integral and its inverse ----------------------------------------

    def Phi(self, s):
        return self._ko.value(s)

    def phi_domain_sup(self):
        """Supremum of Phi (the largest admissible argument of phi)."""
        return self._ko.sup_value()

    def phi(self, t):
        """Inverse of Phi at each t > 0 (scalar or array)."""
        return self._ko.invert(t)

    def phi_jet(self, t):
        """(phi, phi', phi'') at each t from one inversion.

        phi' = -H(phi) and phi'' = ((k+1) F(phi))**((1-k)/(k+1)) f(phi).
        """
        s = self.phi(t)
        kp1 = self.k + 1.0
        F = kp1 * np.asarray(self._F(s), dtype=float)
        d1 = -(F ** (1.0 / kp1))
        d2 = F ** ((1.0 - self.k) / kp1) * np.asarray(self._f(s), dtype=float)
        return s, scalar_or_array(t, d1), scalar_or_array(t, d2)

    def phi_prime(self, t):
        return self.phi_jet(t)[1]

    def phi_second(self, t):
        return self.phi_jet(t)[2]


def build_profile(nl, k, per_decade=64):
    """Construct the weight-independent profile machinery."""
    return Profile(nl, k, per_decade=per_decade)


def _aitken(seq):
    """Aitken delta-squared acceleration with degenerate-difference guards."""
    acc = []
    for i in range(len(seq) - 2):
        d2 = seq[i + 2] - 2.0 * seq[i + 1] + seq[i]
        scale = max(abs(seq[i + 2]), abs(seq[i + 1]), abs(seq[i]), 1e-300)
        if abs(d2) < 1e-14 * scale:
            acc.append(seq[i + 2])
        else:
            acc.append(seq[i + 2] - (seq[i + 2] - seq[i + 1]) ** 2 / d2)
    return acc


def _detect_limit(seq, osc_tol, what):
    if len(seq) < 3:
        raise LimitNotDetected(f"{what}: fewer than 3 finite probes", probes=seq)
    acc = _aitken(seq)
    tail = acc[-3:] if len(acc) >= 3 else acc
    spread = max(tail) - min(tail)
    ref = max(abs(tail[-1]), 1e-300)
    if spread > osc_tol * ref:
        raise LimitNotDetected(
            f"{what}: relative oscillation {spread / ref:.3g} exceeds {osc_tol}", probes=seq
        )
    return tail[-1]


def compute_Cf(p: Profile, s0=1.0, max_terms=40, osc_tol=1e-3):
    """Limit constant of H'(s) Phi(s) along s = s0 * 2**i, Aitken-accelerated."""
    s = s0 * 2.0 ** np.arange(max_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        hp = np.asarray(p.H_prime(s), dtype=float)
        s = s[: _finite_prefix(hp)]  # Phi only where H' is finite
        v = hp[: s.size] * p.Phi(s)
    return _detect_limit(v[: _finite_prefix(v)].tolist(), osc_tol, "C_f probe sequence")


def _finite_prefix(x):
    """Length of the leading run of finite entries of x."""
    bad = np.flatnonzero(~np.isfinite(x))
    return int(bad[0]) if bad.size else len(x)


def build_weight(w: Weight, per_decade=64, osc_tol=1e-7):
    """Cumulative weight M and the limit constant C_m of (M/m)' at 0+.

    M uses the closed form for built-in kinds and a quadrature table for
    custom weights; C_m is always the extrapolated numeric limit (central
    differences of M/m on a dyadic ladder, Aitken-accelerated).
    """
    w.check_b2()
    if w.M_closed(1.0) is not None:
        M = w.M_closed
    else:
        M = cumulative_from_zero(vectorized(w.m), seed=min(1.0, w.delta0 / 4), name="M")

    g = lambda t: float(M(t)) / float(w.m(t))
    t0 = min(0.25, w.delta0 / 8.0)
    eta = 1.0 / 64.0
    seq = []
    for i in range(40):
        t = t0 * 2.0**-i
        d = (g(t * (1.0 + eta)) - g(t * (1.0 - eta))) / (2.0 * t * eta)
        if not math.isfinite(d):
            break
        seq.append(d)
        if len(seq) >= 6:
            acc = _aitken(seq)
            tail = acc[-3:]
            if max(tail) - min(tail) <= osc_tol * max(abs(tail[-1]), 1e-300):
                return M, float(tail[-1])
    return M, float(_detect_limit(seq, 1e-4, "C_m probe sequence"))


class PsiPair:
    """Inverse pair built from f**(-1/k): Psi and its inverse psi."""

    def __init__(self, nl: Nonlinearity, k: int, per_decade: int = 64):
        self.k = int(k)
        f = vectorized(nl.f)

        def integrand(s):
            with np.errstate(over="ignore", divide="ignore"):
                v = np.asarray(f(s), dtype=float)
                return np.where(np.isfinite(v), v, np.inf) ** (-1.0 / k)

        tail_hint = nl.gamma / k if nl.kind == "power" else None
        self._table = DecayingTailIntegral(
            integrand, per_decade=per_decade, tail_hint=tail_hint, name="subsolution integral"
        )
        self._f = f
        self._self_check()

    def Psi(self, s):
        return self._table.value(s)

    def psi_domain_sup(self):
        """Supremum of Psi (the largest admissible argument of psi)."""
        return self._table.sup_value()

    def psi(self, t):
        """Inverse of Psi at each t > 0 (scalar or array)."""
        return self._table.invert(t)

    def psi_prime(self, t):
        return scalar_or_array(t, -np.asarray(self._f(self.psi(t)), dtype=float) ** (1.0 / self.k))

    def _self_check(self, rel=1e-6):
        # psi'(s) = -f(psi(s))**(1/k), checked by central differences at the
        # probes below half the supremum of Psi (1/(2a) for f = exp(a s), k = 1)
        ts = np.array([0.02, 0.07, 0.2, 0.7, 2.0])
        ts = ts[ts < 0.5 * self.psi_domain_sup()]
        h = 1e-6 * ts
        fd = (self.psi(ts + h) - self.psi(ts - h)) / (2.0 * h)
        an = self.psi_prime(ts)
        bad = np.abs(fd - an) > rel * np.maximum(np.abs(an), 1e-300) * 50
        if bad.any():
            i = int(np.argmax(bad))
            raise KHessianError(
                f"subsolution inverse self-check failed at t={ts[i]}: "
                f"fd={fd[i]}, analytic={an[i]}"
            )


@dataclass(frozen=True)
class ProfileFns:
    """Assembled profile/weight bundle used by the solvers and checkers.

    Frozen: a bundle with other constants is made with ``dataclasses.replace``.
    """

    k: int
    nonlinearity: Nonlinearity
    weight: Weight
    profile: Profile
    M: Callable
    C_f: float
    C_m: float

    # callables forwarded from the backing profile
    def f(self, s):
        return self.profile.f(s)

    def F(self, s):
        return self.profile.F(s)

    def H(self, s):
        return self.profile.H(s)

    def Phi(self, s):
        return self.profile.Phi(s)

    def phi(self, t):
        return self.profile.phi(t)

    def phi_prime(self, t):
        return self.profile.phi_prime(t)

    def phi_second(self, t):
        return self.profile.phi_second(t)

    def phi_jet(self, t):
        return self.profile.phi_jet(t)

    def m(self, t):
        return self.weight.m(t)

    def m_prime(self, t):
        return self.weight.m_prime(t)

    def header(self):
        try:
            condition15_gap(self.C_f, self.C_m)
            gap_ok = True
        except ConditionViolation:
            gap_ok = False
        return {
            "k": self.k,
            "nonlinearity": self.nonlinearity.describe(),
            "weight": self.weight.describe(),
            "C_f": self.C_f,
            "C_m": self.C_m,
            "ko_ok": True,  # a Profile exists only once its integral has converged
            "condition15_ok": gap_ok,
        }


def assemble_profile(nl, w, k):
    """Build the full ProfileFns bundle for a nonlinearity/weight/order triple."""
    prof = build_profile(nl, k)
    C_f = compute_Cf(prof)
    M, C_m = build_weight(w)
    return ProfileFns(k=int(k), nonlinearity=nl, weight=w, profile=prof, M=M, C_f=C_f, C_m=C_m)


def condition15_gap(C_f, C_m):
    """The constant gap 1 - (1 - C_m)/C_f of condition (1.5).

    Raises ConditionViolation (label ``"(1.5)"``) unless C_f > 0 and the gap
    is positive, that is C_f > 1 - C_m.
    """
    gap = 1.0 - (1.0 - C_m) / C_f if C_f > 0.0 else math.nan
    if not gap > 0.0:
        raise ConditionViolation(
            f"(1.5) constant gap violated: need C_f > max(0, 1 - C_m), "
            f"got C_f={C_f:.6g}, 1 - C_m={1.0 - C_m:.6g}",
            label="(1.5)",
        )
    return gap


def xi_bounds(w: Weight, L0, l0, C_f, C_m, k):
    """Asymptotic amplitude bounds from the weight constants and curvature extremes."""
    if not (0.0 < l0 <= L0):
        raise ParameterError(f"need 0 < l0 <= L0, got l0={l0}, L0={L0}")
    gap = condition15_gap(C_f, C_m)
    xi_lower = (w.b_lower / (L0 * gap)) ** (1.0 / (k + 1.0))
    xi_upper = (w.b_upper / (l0 * gap)) ** (1.0 / (k + 1.0))
    return xi_lower, xi_upper


@dataclass(frozen=True)
class PowerAsymptote:
    """Closed-form boundary asymptote u ~ coeff * d**exponent for power cases."""

    exponent: float
    coeff_lower: float
    coeff_upper: float


def power_law_asymptote(k, gamma, l0, L0, alpha=None):
    """Closed-form asymptote for f = s**gamma with constant or power weight.

    ``alpha=None`` is the constant-weight case (b comparable to 1 near the
    boundary); ``alpha>0`` is the power-weight case b ~ d**(alpha (k+1)).
    Lower coefficient pairs with l0, upper with L0.
    """
    k = int(k)
    if gamma <= k:
        raise ParameterError(f"(f2) closed-form asymptote needs gamma > k, got gamma={gamma}, k={k}")
    if not (0.0 < l0 <= L0):
        raise ParameterError(f"need 0 < l0 <= L0, got l0={l0}, L0={L0}")
    gk = gamma - k
    if alpha is None:
        exponent = -(k + 1.0) / gk
        base = (k + 1.0) ** k * (gamma + 1.0) / gk ** (k + 1.0)
    else:
        alpha = float(alpha)
        if alpha <= 0.0:
            raise ParameterError(f"power-weight asymptote needs alpha > 0, got {alpha}")
        exponent = -(k + 1.0) * (alpha + 1.0) / gk
        base = (
            (gamma + alpha * k + alpha + 1.0)
            * (k + 1.0) ** k
            * (alpha + 1.0) ** k
            / gk ** (k + 1.0)
        )
    return PowerAsymptote(
        exponent=exponent,
        coeff_lower=(l0 * base) ** (1.0 / gk),
        coeff_upper=(L0 * base) ** (1.0 / gk),
    )


def check_limit_Ff(p: Profile, i_lo=5, i_hi=30):
    """Probe F(s)**(k/(k+1))/f(s) on s = 2**i and return the last finite value.

    The ratio must tend to 0 for the blow-up machinery to work; the returned
    value is the estimate at the largest finite probe (a sanity diagnostic,
    not a certified bound).
    """
    last = math.inf
    for i in range(i_lo, i_hi + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            r = float(p.Ff_ratio(2.0**i))
        if not math.isfinite(r):
            break
        last = r
    return last


def predicted_profile(p: ProfileFns, xi, d):
    """Predicted boundary profile phi(xi * M(d)) at each distance d (scalar or array)."""
    dd = np.asarray(d, dtype=float)
    inside = (dd > 0.0) & (dd < p.weight.delta0)
    if not np.all(inside):
        raise ParameterError(
            f"distance d={dd[~inside].flat[0]} outside the weight validity window "
            f"(0, {p.weight.delta0})"
        )
    return p.phi(xi * np.asarray(p.M(d), dtype=float))


def profile_table(p: ProfileFns, xi, ts):
    """Rows (t, phi, phi_prime, M, predicted) for export."""
    ts = np.asarray(ts, dtype=float).ravel()
    phi, dphi, _ = p.phi_jet(ts)
    M = np.asarray(p.M(ts), dtype=float)
    pred = np.full(ts.shape, math.nan)
    near = ts < p.weight.delta0
    if near.any():
        pred[near] = predicted_profile(p, xi, ts[near])
    return [tuple(float(v) for v in row) for row in zip(ts, phi, dphi, M, pred)]
