"""Boundary-collar barrier construction and numerical certification.

Builds the explicit super/subsolution pair phi(xi_eps M(d -+ shift)) on a
collar of the boundary, evaluates the composite Hessian spectrum of radial
functions of the distance in principal coordinates, and certifies the
differential inequalities and cone admissibility on quasi-random collar
samples.  The collar width is found by automated halving (the analysis only
asserts existence of a small enough width).  A second, global certificate
checks phi(-eps w) against the torsion solution w on the whole ball for a
dyadic ladder of eps.  One check, ``_judge``, decides both certificates.

The quasi-random samples are Owen-scrambled Halton points generated here in
numpy, and the symmetric functions of all samples are evaluated in one
batched call, so certification loads no scipy module.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import scalar_or_array
from .errors import (
    CertificationFailure,
    GeometryError,
    ParameterError,
    require_dimension_order,
    require_positive_finite,
)
from .grid2d import Ellipse
from .profiles import ProfileFns, check_limit_Ff, condition15_gap
from .radial import Torsion
from .symfunc import sigma_all

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
    "verify_supersolution",
    "verify_subsolution",
    "certify_barriers",
    "certify_upper_barrier_global",
]

_TOL_SCALE = 1e-9  # slack, in units of the right-hand side, within which an inequality holds
_WIDTH0_FRAC, _MAX_HALVINGS = 0.2, 24  # first collar width / focal radius; widths tried
_SHIFT_FRAC = 0.1  # barrier shift / collar width
_EPS_LADDER = tuple(2.0**-i for i in range(21))  # the global barrier's eps, tried in order
_GLOBAL_RADII = np.linspace(0.02, 0.98, 97)  # the global barrier's sample radii / R


@dataclass(frozen=True)
class CollarGeometry:
    """Principal curvatures along the boundary plus their symmetric-function extremes.

    ``rho(param)`` returns the n-1 principal curvatures at the boundary
    point indexed by param in [0, 1), and for an array of S params their
    (S, n-1) array, one row per point; ``l0``/``L0`` are the extremes of
    sigma_{k-1} of those curvatures, ``focal_radius`` bounds the collar
    width where 1 - d rho stays positive.
    """

    rho: Callable
    l0: float
    L0: float
    focal_radius: float
    label: str = "geometry"


def ball_geometry(n, k, R=1.0):
    require_dimension_order(n, k)
    require_positive_finite(R, "ball radius")
    curv = np.full(n - 1, 1.0 / R)
    s = float(sigma_all(curv, k - 1)[k - 1]) if k >= 2 else 1.0
    return CollarGeometry(
        rho=lambda param: np.tile(curv, np.shape(param) + (1,)), l0=s, L0=s,
        focal_radius=R, label=f"ball(n={n}, R={R})",
    )


def ellipse_geometry(a, b, k=1):
    """2d ellipse boundary: one principal curvature kappa(t)."""
    Ellipse(a, b)  # the domain's own check: ParameterError unless a >= b > 0
    if k not in (1, 2):
        raise ParameterError(f"planar geometry supports k in {{1, 2}}, got {k}")

    def rho(param):  # the curvature a b / (a^2 sin^2 t + b^2 cos^2 t)^(3/2), t = 2 pi param
        t = 2.0 * math.pi * np.asarray(param, dtype=float)
        return (a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5)[..., None]

    if k == 1:
        l0 = L0 = 1.0  # sigma_0 of the curvatures
    else:
        l0, L0 = b / a**2, a / b**2
    return CollarGeometry(
        rho=rho, l0=l0, L0=L0, focal_radius=b**2 / a, label=f"ellipse(a={a}, b={b})",
    )


@dataclass(frozen=True)
class BarrierParams:
    """Inflated amplitude pair and collar widths for one epsilon."""

    eps: float
    sigma_shift: float
    delta_eps: float
    xi_eps_lower: float
    xi_eps_upper: float


def make_barrier_params(p: ProfileFns, geom: CollarGeometry, eps, delta_eps):
    """The parameters for slack eps and collar width delta_eps, shift ``_SHIFT_FRAC`` * width."""
    w = p.weight
    if not 0.0 < eps < w.b_lower / 2.0:
        raise ParameterError(
            f"(3.3) barrier slack must satisfy 0 < eps < b_lower/2, got eps={eps}"
        )
    gap = condition15_gap(p.C_f, p.C_m)
    require_positive_finite(delta_eps, "collar width")
    delta_eps = float(delta_eps)
    kp1 = p.k + 1.0
    return BarrierParams(
        eps=float(eps),
        sigma_shift=_SHIFT_FRAC * delta_eps,
        delta_eps=delta_eps,
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


def _phi_chain(p: ProfileFns, T, T1, T2):
    """(phi(T), phi' T1, phi' T2 + phi'' T1^2): the jet of phi(T) given T' = T1, T'' = T2."""
    val, g1, g2 = p.phi_jet(T)
    return val, g1 * T1, g1 * T2 + g2 * T1**2


class ProfileBarrier:
    """phi(xi M(d + shift)) and its two distance derivatives, at a distance or an array."""

    def __init__(self, p: ProfileFns, xi, shift, window, label):
        self.p = p
        self.xi = float(xi)
        self.shift = float(shift)
        self.window = window
        self.label = label

    def jet(self, d):
        """(value, first, second) distance derivatives from one phi inversion."""
        lo, hi = self.window
        dd = np.asarray(d, dtype=float)
        inside = (lo < dd) & (dd < hi)
        if not np.all(inside):
            raise ParameterError(
                f"{self.label}: distance {dd[~inside].flat[0]:.6g} outside the validity "
                f"window ({lo:.6g}, {hi:.6g})"
            )
        d1 = dd + self.shift
        p, xi = self.p, self.xi
        val, deriv1, deriv2 = _phi_chain(p, xi * np.asarray(p.M(d1), dtype=float),
                                         xi * np.asarray(p.weight.m(d1), dtype=float),
                                         xi * np.asarray(p.weight.m_prime(d1), dtype=float))
        return val, scalar_or_array(d, deriv1), scalar_or_array(d, deriv2)


def build_barriers(p: ProfileFns, bp: BarrierParams):
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


def collar_ratios(p: ProfileFns, xi, d, phi_value=None):
    """The two collar quantities controlling admissibility and the margins.

    Returns (A, B) with A -> 0 and B -> 1 - (1 - C_m)/C_f as d -> 0+; d may
    be a distance or an array of distances.  ``phi_value``, when given, is
    phi(xi M(d)), which a caller that has already inverted phi there passes
    in to save the second inversion; the result is the same.
    """
    M = np.asarray(p.M(d), dtype=float)
    m = np.asarray(p.weight.m(d), dtype=float)
    t = xi * M
    s = p.phi(t) if phi_value is None else phi_value
    P = ((p.k + 1.0) * np.asarray(p.F(s), dtype=float)) ** (p.k / (p.k + 1.0)) / (
        t * np.asarray(p.nonlinearity.f(s), dtype=float)
    )
    A = (M / m) * P
    B = 1.0 - (M * np.asarray(p.weight.m_prime(d), dtype=float) / m**2) * P
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

    def as_dict(self):
        """The report as a dict of plain Python values (the samples list is shared)."""
        return dict(vars(self))


def scrambled_halton(n, seed=0):
    """First n points of the Owen-scrambled Halton sequence in [0, 1)^2.

    Bases 2 and 3.  Each base gets one random permutation of its digits
    0..b-1 per digit position, for ceil(54 / log2 b) - 1 positions (enough
    to reach double precision), all drawn in turn from one
    ``np.random.default_rng(seed)``; point i is the sum over positions j of
    perm_j(digit j of i) b^-(j+1).  Owen, arXiv:1706.02808 (2017).  The draw
    order and the floating-point sums follow scipy.stats.qmc.Halton(d=2,
    scramble=True, seed=seed), whose points these are, bit for bit.
    ParameterError unless n >= 1 and seed >= 0.
    """
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ParameterError(f"sampling seed must be >= 0, got {seed}")
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


def _to_collar(barrier: ProfileBarrier, unit):
    """Map unit-square points to (distance, boundary-param) pairs inside the barrier's window."""
    lo, hi = barrier.window
    lo, hi = max(1.02 * lo, 1e-3 * hi), 0.98 * hi
    d = lo * (hi / lo) ** unit[:, 0]
    return np.column_stack([d, unit[:, 1]])


def _judge(lam, k, rhs, kind):
    """(sigma_1..sigma_k, margin, admissible, passed, worst) of a barrier inequality.

    Per row of spectra ``lam``: "super" asks sigma_k <= rhs, "sub" sigma_k >= rhs, so the
    margin is >= 0 where it holds.  A row passes if admissible (sigma_1..sigma_k > 0) with
    margin >= -_TOL_SCALE * rhs, a nan margin failing; ``worst`` is the least margin / rhs
    (the margin itself where rhs <= 0).
    """
    sigs = sigma_all(lam, k)[:, 1:]
    sk = sigs[:, k - 1]
    margin = rhs - sk if kind == "super" else sk - rhs
    admissible = np.all(sigs > 0.0, axis=1)
    passed = bool(np.all(admissible & (margin >= -_TOL_SCALE * rhs)))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(rhs > 0.0, margin / rhs, margin)
    # fmin skips nan: a row whose values left the reals fails but does not set the worst
    return sigs, margin, admissible, passed, float(np.fmin.reduce(rel, initial=math.inf))


def _verify(kind, barrier, p, geom, bp, f, bweight, samples):
    kp1 = p.k + 1
    base = bweight.b_lower if kind == "super" else bweight.b_upper
    samples = np.asarray(samples, dtype=float).reshape(-1, 2)
    ds = samples[:, 0]
    uval, g1, g2 = barrier.jet(ds)
    scale = base * np.asarray(bweight.m(ds), dtype=float) ** kp1 * np.asarray(f.f(uval), float)
    # the barrier's own shift and xi: the jet's uval is phi(xi M(d_shift))
    d_shift = ds + barrier.shift
    ratio_A, ratio_B = collar_ratios(p, barrier.xi, d_shift, uval)
    rho = geom.rho(samples[:, 1])
    sigs, margin, admissible, passed, worst = _judge(
        composite_eigs(g1, g2, ds, rho), p.k, scale, kind)
    tilt_k = sigma_all(rho / (1.0 - ds[:, None] * rho), p.k)[:, p.k]
    # fmax skips nan, as the worst margin's fmin does
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
        passed=passed,
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


def certify_barriers(p: ProfileFns, geom: CollarGeometry, eps=0.1, nsamples=200, seed=0):
    """Find a collar width for which both barrier inequalities certify.

    The right-hand side b f(u) takes f and the weight from ``p``.  Halves the
    width from ``_WIDTH0_FRAC`` times the focal radius, at most
    ``_MAX_HALVINGS`` times, until both the supersolution and subsolution
    reports pass on quasi-random samples (one set of Halton points, mapped
    into each barrier's window); the analysis guarantees success for small enough
    widths, so exhaustion of the ladder signals a genuine violation (or an
    infeasible parameter set).  Each width checks the supersolution on all
    the points, and the subsolution on all of them only where the
    supersolution passed.  The worst margin of a failure is that of the
    last width's checked sides; its message also counts the inadmissible
    samples of the last width's failing report.
    """
    f, bweight = p.nonlinearity, p.weight
    delta = _WIDTH0_FRAC * geom.focal_radius
    unit = scrambled_halton(nsamples, seed)  # the same points at every width
    for _ in range(_MAX_HALVINGS):
        bp = make_barrier_params(p, geom, eps, delta)
        upper, lower = build_barriers(p, bp)
        rep = rep_s = verify_supersolution(upper, p, geom, bp, f, bweight,
                                           _to_collar(upper, unit))
        worst = rep_s.worst_margin
        if rep_s.passed:
            rep = verify_subsolution(lower, p, geom, bp, f, bweight, _to_collar(lower, unit))
            if rep.passed:
                return bp, rep_s, rep
            worst = min(worst, rep.worst_margin)
        delta *= 0.5
    inadmissible = sum(not row["admissible"] for row in rep.samples)
    raise CertificationFailure(
        f"no collar width certified after {_MAX_HALVINGS} halvings "
        f"(worst relative margin {worst:.3g}; {inadmissible} of {len(rep.samples)} "
        f"{rep.kind}solution samples inadmissible)",
        worst_margin=worst,
    )


def certify_upper_barrier_global(p: ProfileFns, torsion: Torsion):
    """Certify phi(-eps w) as a global upper barrier for some eps of ``_EPS_LADDER``.

    w is the torsion function, whose problem gives n, k, R and the source b;
    f is the profile's.  ParameterError unless the torsion's order is the
    profile's.  Descends the dyadic eps ladder until S_k(D^2 phi(-eps w)) <=
    b f(...) holds at every radius of ``_GLOBAL_RADII`` times R (with cone
    admissibility); returns the largest working eps and its report.
    ``_judge``, the collar certificates' check, decides each eps on the
    spectrum (h'', h'/r, ..., h'/r) of h = phi(-eps w).  Also records the
    decay diagnostic of F**(k/(k+1))/f that drives the smallness of the
    barrier multiplier.
    """
    prob = torsion.prob
    if prob.k != p.k:
        raise ParameterError(f"torsion of order k={prob.k} given for a profile of order "
                             f"k={p.k}")
    n, k, R = prob.n, prob.k, prob.R
    r_all = _GLOBAL_RADII * R
    w_all, w1_all, w2_all = torsion.jet(r_all)
    b_all = np.asarray(prob.b(r_all), dtype=float)
    worst_overall = -math.inf
    last_rows = None
    ff_decay = check_limit_Ff(p.profile)
    for eps in _EPS_LADDER:
        t = -eps * w_all
        # radii up to the first with t <= 0, where phi(-eps w) is undefined
        nonpos = np.flatnonzero(t <= 0.0)
        n_ok = len(t) if nonpos.size == 0 else int(nonpos[0])
        r = r_all[:n_ok]
        u, h1, h2 = _phi_chain(p, t[:n_ok], -eps * w1_all[:n_ok], -eps * w2_all[:n_ok])
        rhs = b_all[:n_ok] * np.asarray(p.nonlinearity.f(u), dtype=float)
        lam = np.column_stack([h2, np.repeat((h1 / r)[:, None], n - 1, axis=1)])
        _, margin, admissible, ok, worst = _judge(lam, k, rhs, "super")
        rows = [{"r": r_i, "margin": mg, "rhs": rhs_i, "admissible": adm}
                for r_i, mg, rhs_i, adm in zip(r.tolist(), margin.tolist(), rhs.tolist(),
                                               admissible.tolist())]
        if ok and nonpos.size == 0:
            return eps, {"eps": eps, "worst_relative_margin": worst, "Ff_decay_probe": ff_decay,
                         "samples": rows}
        worst_overall = max(worst_overall, worst)
        last_rows = rows
    raise CertificationFailure(
        f"no ladder eps certified the global upper barrier "
        f"(best worst-margin {worst_overall:.3g})",
        worst_margin=worst_overall,
        report=last_rows,
    )