"""Blow-up profile machinery: growth integrals, their inverses, and the
limit constants that control boundary asymptotics.

For a nonlinearity f of order k the kit provides

* ``F(s)``   cumulative integral of f from 0 (exact for built-in kinds,
  else the tail table of the reflected integrand f(1/u)/u^2 at u = 1/s),
* ``H(s)``   ((k+1) F(s))**(1/(k+1)),
* ``Phi(s)`` int_s^inf dtau/H(tau)  (finite iff the blow-up condition holds),
* ``phi(t)`` the inverse of Phi -- the universal boundary blow-up shape --
  and ``phi_jet(t)``, which gives phi, phi' and phi'' from one inversion,
* ``PsiPair`` the analogous pair Psi/psi built from f**(-1/k), whose
  psi(-w), with w the torsion function, is the paper's lower barrier
  (built on its own, not part of the bundle),
* ``C_f``    lim H'(s) Phi(s), and for a weight m: M = int m and
  ``C_m``     lim (M/m)'(t) as t -> 0+.

``Phi`` is always evaluated by quadrature (a geometric table with an
analytic tail above its top node), even when a closed form exists, so that closed forms remain
available as independent oracles.  ``phi`` inverts the table by safeguarded
Newton: each target is bracketed by a grid segment and started from the
segment's cubic Hermite interpolant of the inverse (slopes -H at the two
nodes), Newton steps use the exact slope Phi' = -1/H, and a step that
leaves the bracket falls back to its midpoint (the slope blows up at small
arguments, where plain Newton would be unsafe).

``Phi``, ``phi``, ``phi_jet``, ``PsiPair.psi``, ``predicted_profile`` and
``profile_table`` take scalars or arrays: a scalar gives a float, an array an
array of the same shape, and a whole array costs one vectorised inversion.
f, the weight m and the limit probes are evaluated on whole arrays too.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import DecayingTailIntegral, cumulative_from_zero, scalar_or_array
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

# C_f: probes H'(s) Phi(s) at s = 2**i, i < _CF_TERMS, whose last three Aitken values must agree
# to _CF_OSC_TOL relative; C_m: probes (M/m)' at t0 2**-i, i < _CM_TERMS, up to _CM_OSC_TOL
_CF_TERMS, _CF_OSC_TOL = 40, 1e-3
_CM_TERMS, _CM_OSC_TOL = 40, 1e-7
_PSI_CHECK_REL = 5e-5  # relative slack of PsiPair's central-difference self-check


class Profile:
    """Weight-independent profile machinery for one (f, k) pair."""

    def __init__(self, nl: Nonlinearity, k: int):
        if int(k) < 1:
            raise ParameterError(f"order k must be >= 1, got {k}")
        self.k = int(k)
        self.nl = nl
        nl.check_f1()
        nl.check_f2(self.k)

        tabulated = nl.F_closed(1.0) is None
        self._F = cumulative_from_zero(nl.f, name="F") if tabulated else nl.F_closed

        kp1 = self.k + 1.0

        def inv_H(s):
            # 1 / ((k+1) F)^(1/(k+1)): inf where F = 0, 0 where a closed-form F or (k+1) F
            # overflows; a tabulated F that leaves the floats would read as a zero tail
            with np.errstate(over="ignore", divide="ignore"):
                F = np.asarray(self._F(s), dtype=float)
                if tabulated and not np.all(np.isfinite(F)):
                    bad = np.ravel(s)[~np.isfinite(F).ravel()][0]
                    raise KHessianError(f"profile integral: F = int_0^s f leaves the float "
                                        f"range at s={bad:.2g}")
                return (kp1 * F) ** (-1.0 / kp1)

        tail_hint = None
        if nl.kind == "power":
            tail_hint = (nl.gamma + 1.0) / kp1
        elif nl.kind == "custom" and nl.tail_exponent_hint is not None:
            tail_hint = (nl.tail_exponent_hint + 1.0) / kp1
        self._ko = DecayingTailIntegral(inv_H, tail_hint=tail_hint, name="profile integral")

    # -- basic functions ----------------------------------------------------

    def f(self, s):
        return self.nl.f(s)

    def F(self, s):
        return self._F(s)

    def Ff_ratio(self, s):
        """F(s)**(k/(k+1)) / f(s); tends to 0 under the blow-up condition."""
        return np.asarray(self._F(s), float) ** (self.k / (self.k + 1.0)) / self.nl.f(s)

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
        d2 = F ** ((1.0 - self.k) / kp1) * np.asarray(self.nl.f(s), dtype=float)
        return s, scalar_or_array(t, d1), scalar_or_array(t, d2)


def build_profile(nl, k):
    """Construct the weight-independent profile machinery."""
    return Profile(nl, k)


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


def compute_Cf(p: Profile):
    """Limit of H'(s) Phi(s) along s = 2**i, Aitken-accelerated; H' = ((k+1) F)**(-k/(k+1)) f."""
    s = 2.0 ** np.arange(_CF_TERMS)
    with np.errstate(over="ignore", invalid="ignore"):
        hp = np.asarray(((p.k + 1.0) * p.F(s)) ** (-p.k / (p.k + 1.0)) * p.f(s), dtype=float)
        s = s[: _finite_prefix(hp)]  # Phi only where H' is finite
        v = hp[: s.size] * p.Phi(s)
    return _detect_limit(v[: _finite_prefix(v)].tolist(), _CF_OSC_TOL, "C_f probe sequence")


def _finite_prefix(x):
    """Length of the leading run of finite entries of x."""
    bad = np.flatnonzero(~np.isfinite(x))
    return int(bad[0]) if bad.size else len(x)


def build_weight(w: Weight):
    """Cumulative weight M and the limit constant C_m of (M/m)' at 0+.

    M uses the closed form for built-in kinds and a quadrature table for
    custom weights; C_m is always the extrapolated numeric limit (central
    differences of M/m on a dyadic ladder, Aitken-accelerated).
    """
    w.check_b2()
    if w.M_closed(1.0) is not None:
        M = w.M_closed
    else:
        M = cumulative_from_zero(w.m, seed=min(1.0, w.delta0 / 4), name="M")

    t = min(0.25, w.delta0 / 8.0) * 2.0 ** -np.arange(_CM_TERMS)
    eta = 1.0 / 64.0
    x = np.concatenate([t * (1.0 + eta), t * (1.0 - eta)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.asarray(M(x), dtype=float) / np.asarray(w.m(x), dtype=float)
        d = (g[: t.size] - g[t.size :]) / (2.0 * t * eta)
    seq = d[: _finite_prefix(d)].tolist()
    acc = _aitken(seq)
    for n in range(6, len(seq) + 1):  # the shortest prefix of >= 6 probes that settles
        tail = acc[n - 5 : n - 2]
        if max(tail) - min(tail) <= _CM_OSC_TOL * max(abs(tail[-1]), 1e-300):
            return M, float(tail[-1])
    return M, float(_detect_limit(seq, 1e-4, "C_m probe sequence"))


class PsiPair:
    """Inverse pair built from f**(-1/k): Psi and its inverse psi."""

    def __init__(self, nl: Nonlinearity, k: int):
        self.k = int(k)
        self._f = nl.f

        def integrand(s):
            with np.errstate(over="ignore", divide="ignore"):
                v = np.asarray(nl.f(s), dtype=float)
                return np.where(np.isfinite(v), v, np.inf) ** (-1.0 / k)

        tail_hint = nl.gamma / k if nl.kind == "power" else None
        self._table = DecayingTailIntegral(integrand, tail_hint=tail_hint,
                                           name="subsolution integral")
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

    def _self_check(self):
        # psi'(s) = -f(psi(s))**(1/k), checked by central differences at the
        # probes below half the supremum of Psi (1/(2a) for f = exp(a s), k = 1)
        ts = np.array([0.02, 0.07, 0.2, 0.7, 2.0])
        ts = ts[ts < 0.5 * self.psi_domain_sup()]
        h = 1e-6 * ts
        fd = (self.psi(ts + h) - self.psi(ts - h)) / (2.0 * h)
        an = self.psi_prime(ts)
        bad = np.abs(fd - an) > _PSI_CHECK_REL * np.maximum(np.abs(an), 1e-300)
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

    # callables forwarded from the backing profile (f and m: call nonlinearity and weight)
    def F(self, s):
        return self.profile.F(s)

    def Phi(self, s):
        return self.profile.Phi(s)

    def phi(self, t):
        return self.profile.phi(t)

    def phi_jet(self, t):
        return self.profile.phi_jet(t)

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


def check_limit_Ff(p: Profile):
    """F(s)**(k/(k+1))/f(s) at the last s = 2**i, i = 5..30, before the first non-finite one.

    The ratio must tend to 0 for the blow-up machinery to work: a sanity
    diagnostic, not a certified bound (inf when no probe is finite).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.asarray(p.Ff_ratio(2.0 ** np.arange(5, 31)), dtype=float)
    n = _finite_prefix(r)
    return float(r[n - 1]) if n else math.inf


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
