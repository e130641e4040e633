"""Boundary-collar barrier construction and numerical certification.

Builds the explicit super/subsolution pair phi(xi_eps M(d -+ shift)) on a
collar of the boundary, evaluates the composite Hessian spectrum of radial
functions of the distance in principal coordinates, and certifies the
differential inequalities and cone admissibility on quasi-random collar
samples.  The collar width is found by automated halving (the analysis only
asserts existence of a small enough width).  A second, global certificate
checks phi(-eps w) against the torsion solution w on the whole ball for a
dyadic ladder of eps.

The quasi-random samples are Owen-scrambled Halton points generated here in
numpy, and the symmetric functions of all samples are evaluated in one
batched call, so certification loads no scipy module.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import scalar_or_array, vectorized
from .errors import (
    CertificationFailure,
    GeometryError,
    ParameterError,
)
from .grid2d import Ellipse
from .nonlinearity import Nonlinearity, Weight
from .profiles import ProfileFns, check_limit_Ff, condition15_gap
from .radial import RadialSolution
from .symfunc import sigma_all, sk_radial

__all__ = [
    "CollarGeometry",
    "ball_geometry",
    "ellipse_geometry",
    "BarrierParams",
    "make_barrier_params",
    "composite_eigs",
    "build_barriers",
    "collar_ratios",
    "MarginReport",
    "scrambled_halton",
    "collar_samples",
    "verify_supersolution",
    "verify_subsolution",
    "certify_barriers",
    "certify_upper_barrier_global",
]


@dataclass(frozen=True)
class CollarGeometry:
    """Principal curvatures along the boundary plus their symmetric-function extremes.

    ``rho(param)`` returns the n-1 principal curvatures at the boundary
    point indexed by param in [0, 1); ``l0``/``L0`` are the extremes of
    sigma_{k-1} of those curvatures, ``focal_radius`` bounds the collar
    width where 1 - d rho stays positive.
    """

    n: int
    k: int
    rho: Callable
    l0: float
    L0: float
    focal_radius: float
    label: str = "geometry"


def ball_geometry(n, k, R=1.0):
    if not 1 <= k <= n:
        raise ParameterError(f"order k={k} out of range 1..{n}")
    if R <= 0:
        raise ParameterError(f"ball radius must be positive, got {R}")
    curv = np.full(n - 1, 1.0 / R)
    s = float(sigma_all(curv, k - 1)[k - 1]) if k >= 2 else 1.0
    return CollarGeometry(
        n=n, k=k, rho=lambda param: curv.copy(), l0=s, L0=s,
        focal_radius=R, label=f"ball(n={n}, R={R})",
    )


def ellipse_geometry(a, b, k=1):
    """2d ellipse boundary: one principal curvature kappa(t)."""
    Ellipse(a, b)  # the domain's own check: ParameterError unless a >= b > 0
    if k not in (1, 2):
        raise ParameterError(f"planar geometry supports k in {{1, 2}}, got {k}")

    def kappa(t):
        return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5

    def rho(param):
        return np.array([float(kappa(2.0 * math.pi * param))])

    if k == 1:
        l0 = L0 = 1.0  # sigma_0 of the curvatures
    else:
        l0, L0 = b / a**2, a / b**2
    return CollarGeometry(
        n=2, k=k, rho=rho, l0=l0, L0=L0, focal_radius=b**2 / a,
        label=f"ellipse(a={a}, b={b})",
    )


@dataclass(frozen=True)
class BarrierParams:
    """Inflated amplitude pair and collar widths for one epsilon."""

    eps: float
    sigma_shift: float
    delta_eps: float
    xi_eps_lower: float
    xi_eps_upper: float


def make_barrier_params(p: ProfileFns, geom: CollarGeometry, eps, delta_eps, sigma_shift=None):
    w = p.weight
    if not 0.0 < eps < w.b_lower / 2.0:
        raise ParameterError(
            f"(3.3) barrier slack must satisfy 0 < eps < b_lower/2, got eps={eps}"
        )
    gap = condition15_gap(p.C_f, p.C_m)
    if delta_eps <= 0.0:
        raise ParameterError(f"collar width must be positive, got {delta_eps}")
    sigma_shift = 0.1 * delta_eps if sigma_shift is None else float(sigma_shift)
    if not 0.0 < sigma_shift < delta_eps:
        raise ParameterError(
            f"shift must lie in (0, delta_eps), got {sigma_shift} vs {delta_eps}"
        )
    kp1 = p.k + 1.0
    return BarrierParams(
        eps=float(eps),
        sigma_shift=sigma_shift,
        delta_eps=float(delta_eps),
        xi_eps_lower=((w.b_lower - 2.0 * eps) / ((1.0 + eps) * geom.L0 * gap)) ** (1.0 / kp1),
        xi_eps_upper=((w.b_upper + 2.0 * eps) / ((1.0 - eps) * geom.l0 * gap)) ** (1.0 / kp1),
    )


def composite_eigs(g1, g2, d, rho):
    """Hessian spectrum of g(distance) in principal coordinates.

    Normal eigenvalue g''; tangential eigenvalues -g' rho_i / (1 - d rho_i).
    Valid inside the focal region 1 - d rho_i > 0.  With arrays of S samples
    (g1, g2 and d of length S, rho of shape (S, n-1) or (n-1,)) it returns
    one spectrum per row.
    """
    rho = np.asarray(rho, dtype=float)
    d = np.asarray(d, dtype=float)
    den = 1.0 - d[..., None] * rho
    if np.any(den <= 0.0):
        rows = np.atleast_2d(den)
        i = int(np.flatnonzero(np.any(rows <= 0.0, axis=1))[0])
        raise GeometryError(
            f"focal radius exceeded at d={np.ravel(d)[i]}: 1 - d*rho = {rows[i].min():.3g}"
        )
    g1 = np.asarray(g1, dtype=float)[..., None]
    g2 = np.asarray(g2, dtype=float)[..., None]
    return np.concatenate([g2, -g1 * rho / den], axis=-1)


class ProfileBarrier:
    """phi(xi M(d + shift)) with analytic first and second distance derivatives.

    Every method takes a distance or an array of distances.
    """

    def __init__(self, p: ProfileFns, xi, shift, window, label):
        self.p = p
        self.xi = float(xi)
        self.shift = float(shift)
        self.window = window
        self.label = label

    def _d1(self, d):
        lo, hi = self.window
        dd = np.asarray(d, dtype=float)
        inside = (lo < dd) & (dd < hi)
        if not np.all(inside):
            raise ParameterError(
                f"{self.label}: distance {dd[~inside].flat[0]:.6g} outside the validity "
                f"window ({lo:.6g}, {hi:.6g})"
            )
        return dd + self.shift

    def jet(self, d):
        """(value, first, second) distance derivatives from one phi inversion."""
        d1 = self._d1(d)
        p, xi = self.p, self.xi
        m = np.asarray(p.m(d1), dtype=float)
        val, g1, g2 = p.phi_jet(xi * np.asarray(p.M(d1), dtype=float))
        deriv1 = xi * m * g1
        deriv2 = xi * np.asarray(p.m_prime(d1), dtype=float) * g1 + xi**2 * m**2 * g2
        return val, scalar_or_array(d, deriv1), scalar_or_array(d, deriv2)

    def value(self, d):
        d1 = self._d1(d)
        return self.p.phi(self.xi * np.asarray(self.p.M(d1), dtype=float))

    def deriv1(self, d):
        return self.jet(d)[1]

    def deriv2(self, d):
        return self.jet(d)[2]


def build_barriers(p: ProfileFns, geom: CollarGeometry, bp: BarrierParams):
    """(upper, lower) barrier pair on their respective collar windows."""
    upper = ProfileBarrier(
        p, bp.xi_eps_lower, -bp.sigma_shift,
        (bp.sigma_shift, 2.0 * bp.delta_eps), "upper barrier",
    )
    lower = ProfileBarrier(
        p, bp.xi_eps_upper, +bp.sigma_shift,
        (0.0, 2.0 * bp.delta_eps - bp.sigma_shift), "lower barrier",
    )
    return upper, lower


def collar_ratios(p: ProfileFns, xi, d):
    """The two collar quantities controlling admissibility and the margins.

    Returns (A, B) with A -> 0 and B -> 1 - (1 - C_m)/C_f as d -> 0+; d may
    be a distance or an array of distances.
    """
    M = np.asarray(p.M(d), dtype=float)
    m = np.asarray(p.m(d), dtype=float)
    t = xi * M
    s = p.phi(t)
    P = ((p.k + 1.0) * np.asarray(p.F(s), dtype=float)) ** (p.k / (p.k + 1.0)) / (
        t * np.asarray(p.f(s), dtype=float)
    )
    A = (M / m) * P
    B = 1.0 - (M * np.asarray(p.m_prime(d), dtype=float) / m**2) * P
    return scalar_or_array(d, A), scalar_or_array(d, B)


@dataclass
class MarginReport:
    """Per-sample certification record for one barrier inequality."""

    kind: str
    eps: float
    delta_eps: float
    sigma_shift: float
    passed: bool
    worst_margin: float
    sup_sigma_k_tilted: float
    samples: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def as_dict(self):
        """The report as a dict of plain Python values (the samples list is shared)."""
        return {
            "kind": self.kind,
            "eps": self.eps,
            "delta_eps": self.delta_eps,
            "sigma_shift": self.sigma_shift,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "sup_sigma_k_tilted": self.sup_sigma_k_tilted,
            "extras": self.extras,
            "samples": self.samples,
        }

    def to_json(self, indent=None):
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def scrambled_halton(n, seed=0):
    """First n points of the Owen-scrambled Halton sequence in [0, 1)^2.

    Bases 2 and 3.  Each base gets one random permutation of its digits
    0..b-1 per digit position, for ceil(54 / log2 b) - 1 positions (enough
    to reach double precision), all drawn in turn from one
    ``np.random.default_rng(seed)``; point i is the sum over positions j of
    perm_j(digit j of i) b^-(j+1).  Owen, arXiv:1706.02808 (2017).  The draw
    order and the floating-point sums follow scipy.stats.qmc.Halton(d=2,
    scramble=True, seed=seed), whose points these are, bit for bit.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(n, dtype=np.int64)
    cols = []
    for base in (2, 3):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = index.copy()
        col = np.zeros(n)
        scale = 1.0 / base
        for perm in perms:
            col += perm[q % base] * scale
            q //= base
            scale /= base
        cols.append(col)
    return np.column_stack(cols)


def _to_collar(bp: BarrierParams, kind, unit):
    """Map unit-square points to (distance, boundary-param) pairs in the window."""
    if kind == "super":
        lo, hi = bp.sigma_shift * 1.02, 2.0 * bp.delta_eps * 0.98
    elif kind == "sub":
        top = 2.0 * bp.delta_eps - bp.sigma_shift
        lo, hi = top * 1e-3, top * 0.98
    else:
        raise ParameterError(f"unknown sample kind {kind!r}")
    d = lo * (hi / lo) ** unit[:, 0]
    return np.column_stack([d, unit[:, 1]])


def collar_samples(bp: BarrierParams, kind, nsamples=200, seed=0):
    """Quasi-random (distance, boundary-param) pairs in the barrier window.

    Distances are log-uniform (the inequalities are hardest near the inner
    edge); the boundary parameter is uniform.  Deterministic for a fixed
    seed.
    """
    return _to_collar(bp, kind, scrambled_halton(nsamples, seed))


def _verify(kind, barrier, p, geom, bp, f, bweight, samples, tol_scale=1e-9):
    fv = vectorized(f.f)
    m = vectorized(bweight.m)
    kp1 = p.k + 1
    base = bweight.b_lower if kind == "super" else bweight.b_upper
    samples = np.asarray(samples, dtype=float).reshape(-1, 2)
    ds = samples[:, 0]
    uval, g1, g2 = barrier.jet(ds)
    scale = base * np.asarray(m(ds), dtype=float) ** kp1 * np.asarray(fv(uval), dtype=float)
    d_shift = ds - bp.sigma_shift if kind == "super" else ds + bp.sigma_shift
    xi = bp.xi_eps_lower if kind == "super" else bp.xi_eps_upper
    ratio_A, ratio_B = collar_ratios(p, xi, d_shift)
    rho = np.array([geom.rho(param) for param in samples[:, 1]])
    sigs = sigma_all(composite_eigs(g1, g2, ds, rho), p.k)[:, 1:]
    tilt_k = sigma_all(rho / (1.0 - ds[:, None] * rho), p.k)[:, p.k]
    sk = sigs[:, p.k - 1]
    margin = scale - sk if kind == "super" else sk - scale
    admissible = np.all(sigs > 0.0, axis=1)
    passed = admissible & (margin >= -tol_scale * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0.0, margin / scale, margin)
    # fmin / fmax skip nan: a sample whose values left the reals sets neither extreme
    worst = float(np.fmin.reduce(rel, initial=math.inf))
    sup_tilt = float(np.fmax.reduce(tilt_k, initial=0.0))
    cols = (samples[:, 0], samples[:, 1], margin, scale, sigs, admissible,
            np.asarray(ratio_A, dtype=float), np.asarray(ratio_B, dtype=float))
    rows = [
        {"d": d, "param": param, "margin": mg, "scale": sc, "sigma_j": sig,
         "admissible": adm, "ratio_A": a, "ratio_B": b}
        for d, param, mg, sc, sig, adm, a, b in zip(*(c.tolist() for c in cols))
    ]
    return MarginReport(
        kind=kind,
        eps=bp.eps,
        delta_eps=bp.delta_eps,
        sigma_shift=bp.sigma_shift,
        passed=bool(np.all(passed)),
        worst_margin=worst,
        sup_sigma_k_tilted=sup_tilt,
        samples=rows,
    )


def verify_supersolution(u_upper, p, geom, bp, f, bweight, samples):
    """Check S_k(D^2 upper) <= b f(upper) and cone admissibility at samples."""
    return _verify("super", u_upper, p, geom, bp, f, bweight, samples)


def verify_subsolution(u_lower, p, geom, bp, f, bweight, samples):
    """Check S_k(D^2 lower) >= b f(lower) and cone admissibility at samples."""
    return _verify("sub", u_lower, p, geom, bp, f, bweight, samples)


def certify_barriers(p: ProfileFns, geom: CollarGeometry, f: Nonlinearity, bweight: Weight,
                     eps=0.1, delta0=None, nsamples=200, seed=0, max_halvings=24,
                     sigma_frac=0.1):
    """Find a collar width for which both barrier inequalities certify.

    Halves the width from 0.2 * focal radius until both the supersolution
    and subsolution reports pass on quasi-random samples (one set of Halton
    points, mapped into each width's windows); the analysis guarantees
    success for small enough widths, so exhaustion of the ladder signals a
    genuine violation (or an infeasible parameter set).  Each width is first
    screened on the first eighth of the points: every sample is checked on
    its own, so a failing prefix means a failing full set, and the width is
    halved without checking the rest.  The worst margin of a failure is
    that of the last width's checked points.
    """
    delta = 0.2 * geom.focal_radius if delta0 is None else float(delta0)
    unit = scrambled_halton(nsamples, seed)  # the same points at every width
    screen = unit[: max(1, nsamples // 8)]
    worst = None
    for _ in range(max_halvings):
        bp = make_barrier_params(p, geom, eps, delta, sigma_frac * delta)
        upper, lower = build_barriers(p, geom, bp)
        for pts in (screen, unit):
            rep_s = verify_supersolution(
                upper, p, geom, bp, f, bweight, _to_collar(bp, "super", pts)
            )
            rep_l = None if not rep_s.passed else verify_subsolution(
                lower, p, geom, bp, f, bweight, _to_collar(bp, "sub", pts)
            )
            if rep_l is None or not rep_l.passed:
                break
        else:
            return bp, rep_s, rep_l
        worst = min(rep.worst_margin for rep in (rep_s, rep_l) if rep is not None)
        delta *= 0.5
    raise CertificationFailure(
        f"no collar width certified after {max_halvings} halvings "
        f"(worst relative margin {worst:.3g})",
        worst_margin=worst,
    )


def certify_upper_barrier_global(p: ProfileFns, w_sol: RadialSolution, f: Nonlinearity,
                                 b: Callable, eps_ladder=None, r_samples=None,
                                 tol_scale=1e-9):
    """Certify phi(-eps w) as a global upper barrier for some ladder eps.

    Descends the dyadic eps ladder until S_k(D^2 phi(-eps w)) <= b f(...)
    holds at every sample radius (with cone admissibility); returns the
    largest working eps and its report.  Also records the decay diagnostic
    of F**(k/(k+1))/f that drives the smallness of the barrier multiplier.
    """
    n, k, R = w_sol.meta["n"], w_sol.meta["k"], w_sol.meta["R"]
    if w_sol.value is None or w_sol.deriv1 is None or w_sol.deriv2 is None:
        raise ParameterError("torsion solution must carry value/deriv callables")
    if eps_ladder is None:
        eps_ladder = [2.0**-i for i in range(21)]
    if r_samples is None:
        r_samples = np.linspace(0.02, 0.98, 97) * R
    fv = vectorized(f.f)
    bv = vectorized(b)
    r_all = np.asarray(r_samples, dtype=float)
    w_all = np.asarray(w_sol.value(r_all), dtype=float)
    w1_all = np.asarray(w_sol.deriv1(r_all), dtype=float)
    w2_all = np.asarray(w_sol.deriv2(r_all), dtype=float)
    b_all = np.asarray(bv(r_all), dtype=float)
    worst_overall = -math.inf
    last_rows = None
    ff_decay = check_limit_Ff(p.profile)
    for eps in eps_ladder:
        t = -eps * w_all
        # radii up to the first with t <= 0, where phi(-eps w) is undefined
        nonpos = np.flatnonzero(t <= 0.0)
        ok = nonpos.size == 0
        n_ok = len(t) if ok else int(nonpos[0])
        r, w1, w2, t = r_all[:n_ok], w1_all[:n_ok], w2_all[:n_ok], t[:n_ok]
        u, g1, g2 = p.phi_jet(t)
        h1 = -eps * w1 * g1
        h2 = -eps * w2 * g1 + eps**2 * w1**2 * g2
        lhs = sk_radial(h1, h2, r, n, k)
        rhs = b_all[:n_ok] * np.asarray(fv(u), dtype=float)
        lam = np.column_stack([h2, np.repeat((h1 / r)[:, None], n - 1, axis=1)])
        admissible = np.all(sigma_all(lam, k)[:, 1:] > 0.0, axis=1)
        margin = rhs - lhs
        ok = ok and bool(np.all(admissible & ~(margin < -tol_scale * rhs)))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(rhs > 0.0, margin / rhs, margin)
        # fmin skips nan: a radius whose values left the reals does not set the worst
        worst = float(np.fmin.reduce(rel, initial=math.inf))
        rows = [{"r": r_i, "margin": mg, "rhs": rhs_i, "admissible": adm}
                for r_i, mg, rhs_i, adm in zip(r.tolist(), margin.tolist(), rhs.tolist(),
                                               admissible.tolist())]
        if ok:
            report = {
                "eps": eps,
                "worst_relative_margin": worst,
                "Ff_decay_probe": ff_decay,
                "samples": rows,
            }
            return eps, report
        worst_overall = max(worst_overall, worst)
        last_rows = rows
    raise CertificationFailure(
        f"no ladder eps certified the global upper barrier "
        f"(best worst-margin {worst_overall:.3g})",
        worst_margin=worst_overall,
        report=last_rows,
    )