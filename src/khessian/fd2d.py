"""2d finite-difference solver for the Laplacian case (order k = 1).

Damped Newton on the Shortley-Weller 5-point discretisation of
Delta u = b(d(x)) f(u).  Without a given start, Newton starts from the
paper's boundary profile phi(xi M(d) + Phi(j)), the blow-up shape shifted
to equal the mean boundary value j on the boundary; where that profile is
not defined it starts from the constant j.  Each Newton step solves its
Jacobian by Newton-multigrid defect correction, one geometric multigrid
V-cycle per iteration on the true residual: the coarse levels are the same
Shortley-Weller operator on the grids of spacing 2h, 4h, ..., whose nodes
are the even sublattices of the finer ones, shifted by the Galerkin
diagonal of b f'(u) and smoothed by red-black Gauss-Seidel; only the
coarsest level, at most a thousand unknowns, is factored by SuperLU.  The
operators and levels are built once per grid, and a Newton step changes
only their diagonals.
The odd orders k >= 2 are handled radially elsewhere; a genuine 2d
wide-stencil scheme for them is out of scope.

Determinism: node ordering, the multigrid levels and the coarse
fill-reducing ordering are fixed, so identical inputs give bit-identical
fields on one machine.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._quad import vectorized
from .errors import (
    ConditionViolation,
    KellerOssermanViolation,
    ParameterError,
    ReportTruncated,
    SolveFailure,
)
from .grid2d import Field2D, build_grid
from .nonlinearity import Nonlinearity, Weight
from .profiles import ProfileFns, assemble_profile, predicted_profile, xi_bounds

__all__ = ["assemble_operator", "solve_dirichlet", "exhaust", "Report2D", "asymptotics_report_2d"]

_K_ORDER = 1  # this module is the k = 1 lane
_COARSE_MAX = 1000  # unknowns on the coarsest multigrid level, the one SuperLU factors
_FORCING = 1e-6  # relative residual a Newton step is solved to
# V-cycle iteration stalls at 1e-15 to 7e-13 relative on these grids (smooth right-hand
# sides at h = 1/256 the highest): stay above
_RTOL_FLOOR = 1e-11
_MAX_CYCLES = 100  # V-cycles before a Newton step fails


def _boundary_values(grid: Field2D, g):
    """Dirichlet data at every cut-arm intersection; NaN on uncut arms."""
    out = np.full((grid.n_interior, 4), np.nan)
    cut = ~np.isnan(grid.arm_xy[:, :, 0])
    if callable(g):
        gx = grid.arm_xy[:, :, 0][cut]
        gy = grid.arm_xy[:, :, 1][cut]
        out[cut] = np.asarray(g(gx, gy), dtype=float)
    else:
        out[cut] = float(g)
    return out


def _stencil(grid: Field2D):
    """(A, cof): the Shortley-Weller matrix of grid (CSR) and its per-arm coefficients.

    A acts on the interior unknowns, diagonal included and cut arms dropped;
    cof[:, t] is the weight of the arm in direction t (E, W, N, S), which
    multiplies the boundary value on a cut arm.
    """
    aE, aW, aN, aS = (grid.arm[:, t] * grid.h for t in range(4))
    cof = np.empty((grid.n_interior, 4))
    cof[:, 0] = 2.0 / (aE * (aE + aW))
    cof[:, 1] = 2.0 / (aW * (aE + aW))
    cof[:, 2] = 2.0 / (aN * (aN + aS))
    cof[:, 3] = 2.0 / (aS * (aN + aS))
    diag = -(2.0 / (aE * aW) + 2.0 / (aN * aS))
    live = np.isnan(grid.arm_xy[:, :, 0])  # cut arms feed const, not unknowns
    m = grid.n_interior
    rows = np.broadcast_to(np.arange(m)[:, None], live.shape)[live]
    A = sp.csr_matrix((cof[live], (rows, grid.nbr[live])), shape=(m, m))
    return A + sp.diags(diag, format="csr"), cof


def _boundary_terms(grid: Field2D, cof, g):
    """(const, gvals): the known boundary contributions to each row, and g on the cut arms."""
    gvals = _boundary_values(grid, g)
    const = np.where(np.isnan(gvals), 0.0, cof * np.nan_to_num(gvals)).sum(axis=1)
    return const, gvals


def assemble_operator(grid: Field2D, g):
    """Shortley-Weller Laplacian: (A, const, gvals).

    A is the stencil on the interior unknowns as one CSR matrix, diagonal
    included and cut arms dropped; const carries the known boundary
    contributions, so A u + const approximates Delta u.
    """
    A, cof = _stencil(grid)
    return (A, *_boundary_terms(grid, cof, g))


def _source_b(grid: Field2D, bweight: Weight, b_override):
    """Source b at the interior nodes; ParameterError unless finite and >= 0 (b2)."""
    if b_override is not None:
        b = np.asarray(b_override(grid.node_x, grid.node_y), dtype=float)
    else:
        m = vectorized(bweight.m)
        b = bweight.b_lower * np.asarray(m(grid.node_d), dtype=float) ** (_K_ORDER + 1)
    bad = ~(np.isfinite(b) & (b >= 0.0))
    if bad.any():
        raise ParameterError(
            f"(b2) source b must be finite and nonnegative, got {b[bad].flat[0]} "
            f"at node {int(np.flatnonzero(bad)[0])}"
        )
    return b


def _boundary_profile(grid: Field2D, f: Nonlinearity, bweight: Weight):
    """j -> phi(xi M(d) + Phi(j)) at the interior nodes, or None without a profile.

    This is the blow-up profile shifted to equal j on the boundary.  For
    k = 1 the curvature factor is 1, so xi comes from xi_bounds with unit
    curvature bounds; on a convex domain with a constant weight it is a
    subsolution of the continuous problem.  The discrete solution can lie
    below it at nodes closer to the boundary than h, where the grid does
    not resolve the boundary layer (about e^-j wide).  None when f fails
    the Keller-Osserman condition or the weight the constant gap (1.5);
    the returned callable gives None for j <= 0 and where xi M(d) + Phi(j)
    exceeds the range of Phi.
    """
    try:
        p = assemble_profile(f, bweight, _K_ORDER)
        xi = xi_bounds(bweight, 1.0, 1.0, p.C_f, p.C_m, _K_ORDER)[0]
    except (KellerOssermanViolation, ConditionViolation):
        return None
    # symmetric domains repeat distances: invert phi once per distinct value
    t, node_t = np.unique(xi * np.asarray(p.M(grid.node_d), dtype=float),
                          return_inverse=True)

    def start(j):
        if not j > 0.0:
            return None
        try:
            return np.asarray(p.phi(t + p.Phi(j)), dtype=float)[node_t]
        except ParameterError:  # beyond the supremum of Phi
            return None

    return start


def _prolongation(lx, ly):
    """Bilinear prolongation from the even sublattice of the nodes at lattice (lx, ly).

    Returns (P, cx, cy): P maps values on the nodes whose two lattice
    coordinates are both even, at coarse lattice (cx, cy) = (lx, ly) / 2, to
    all nodes.  A fine node takes the mean of the coarse nodes at
    floor(l / 2) and ceil(l / 2) in each direction, so an even node gets an
    identity row; a coarse neighbour that does not exist contributes zero,
    which makes the correction vanish on the boundary.
    """
    even = (lx % 2 == 0) & (ly % 2 == 0)
    cx, cy = lx[even] // 2, ly[even] // 2
    x0, y0 = lx.min() // 2, ly.min() // 2
    lookup = np.full(((ly.max() + 1) // 2 - y0 + 1, (lx.max() + 1) // 2 - x0 + 1), -1)
    lookup[cy - y0, cx - x0] = np.arange(cx.size)
    rows, cols = [], []
    for sx in (0, 1):
        for sy in (0, 1):  # weight 1/4 each; repeated corners add up
            c = lookup[(ly + sy) // 2 - y0, (lx + sx) // 2 - x0]
            rows.append(np.flatnonzero(c >= 0))
            cols.append(c[c >= 0])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    P = sp.csr_matrix((np.full(rows.size, 0.25), (rows, cols)), shape=(lx.size, cx.size))
    return P, cx, cy


def _lattice(grid: Field2D):
    """Integer lattice coordinates (lx, ly) of the interior nodes: x = lx h, y = ly h."""
    return (np.rint(grid.node_x / grid.h).astype(np.int64),
            np.rint(grid.node_y / grid.h).astype(np.int64))


def _colour_order(lx, ly):
    """(order, n_red): red nodes (lx + ly even), then black, each in row-major order.

    Each smoothed level keeps its vectors in this order, so a colour is a
    slice; the coarsest level, which is only factored, keeps the row-major
    order (n_red = 0).
    """
    if lx.size <= _COARSE_MAX:
        return np.arange(lx.size), 0
    odd = (lx + ly) % 2 == 1
    return np.concatenate([np.flatnonzero(~odd), np.flatnonzero(odd)]), int(odd.size - odd.sum())


@dataclass(frozen=True)
class _Level:
    """One smoothed multigrid level: its Shortley-Weller operator split by colour.

    Vectors on the level hold its n_red red nodes first, then the black
    ones (_colour_order); the 5-point stencil couples each colour only to
    the other off the diagonal.  P is the bilinear prolongation from the
    next coarser level, in both levels' orders; ``restrict`` is
    0.25 P^T on the red rows only, and ``shift`` maps a diagonal shift s
    to the next coarser level: (P o P)^T s / (P o P)^T 1, the diagonal of
    P^T diag(s) P over that of P^T P.
    """

    n_red: int
    diag_red: np.ndarray
    diag_black: np.ndarray
    A_rb: sp.csr_matrix  # red rows, black columns
    A_br: sp.csr_matrix  # black rows, red columns
    P: sp.csr_matrix
    restrict: sp.csr_matrix  # 0.25 P[:n_red]^T
    shift: sp.csr_matrix  # (P o P)^T, rows scaled to sum to 1


@dataclass(frozen=True)
class _Multigrid:
    """Levels of one grid, fine to coarse, and the coarsest operator, fixed per grid.

    Level l is the grid build_grid(domain, 2^l h): its nodes are the fine
    nodes whose lattice coordinates are divisible by 2^l, in the same
    row-major order, since (2^l i) h and i (2^l h) round alike.  Only the
    Jacobian diagonal b f'(u) changes from one Newton step to the next.
    """

    levels: list
    order: np.ndarray  # the finest level's colour order
    coarse: sp.csc_matrix  # Shortley-Weller operator of the coarsest level, row-major


def _multigrid(grid: Field2D, A):
    """The hierarchy of grid, with fine operator A, down to <= _COARSE_MAX unknowns."""
    lx, ly = _lattice(grid)
    order, n_red = _colour_order(lx, ly)
    top, levels, h = order, [], grid.h
    while lx.size > _COARSE_MAX:
        P, cx, cy = _prolongation(lx, ly)
        h *= 2.0
        coarse = build_grid(grid.domain, h)
        assert all(map(np.array_equal, _lattice(coarse), (cx, cy))), "not the even sublattice"
        c_order, c_red = _colour_order(cx, cy)
        red, black = order[:n_red], order[n_red:]
        diag = A.diagonal()
        P = P[order][:, c_order]
        P2 = P.multiply(P).T.tocsr()
        levels.append(_Level(n_red=n_red, diag_red=diag[red], diag_black=diag[black],
                             A_rb=A[red][:, black], A_br=A[black][:, red], P=P,
                             restrict=(0.25 * P[:n_red].T).tocsr(),
                             shift=sp.diags(1.0 / np.asarray(P2.sum(axis=1)).ravel()) @ P2))
        A = _stencil(coarse)[0]
        lx, ly, order, n_red = cx, cy, c_order, c_red
    return _Multigrid(levels=levels, order=top, coarse=A.tocsc())


def _shifts(mg: _Multigrid, bfp):
    """b f'(u) on every level, finest first: bfp in its colour order, then each shifted down."""
    shifts = [bfp[mg.order]]
    for lv in mg.levels:
        shifts.append(lv.shift @ shifts[-1])
    return shifts


def _smoothers(mg: _Multigrid, shifts):
    """Per level, 1 / diagonal of A_l - diag(s_l) on the red and on the black nodes."""
    return [(1.0 / (lv.diag_red - s[:lv.n_red]), 1.0 / (lv.diag_black - s[lv.n_red:]))
            for lv, s in zip(mg.levels, shifts)]


def _vcycle(levels, inverses, coarse_lu, r):
    """One V-cycle for J x = r from x = 0, r and x in the colour order of the top level.

    One red-black Gauss-Seidel sweep before and one after the coarse
    correction on every level of ``levels`` (``inverses`` holds the
    inverted diagonals), restriction 0.25 P^T, and the SuperLU solve
    ``coarse_lu`` on the coarsest.  After the pre-sweep the black residual
    is zero, so only the red one, -A_rb x_b, is restricted.  A fixed
    linear map M of r: the approximate inverse of the defect correction in
    _newton_direction, exact when there are no levels.
    """
    if not levels:
        return coarse_lu.solve(r)
    lv, (dr, db) = levels[0], inverses[0]
    k = lv.n_red
    x = np.empty_like(r)
    x[:k] = r[:k] * dr
    x[k:] = (r[k:] - lv.A_br @ x[:k]) * db
    x += lv.P @ _vcycle(levels[1:], inverses[1:], coarse_lu, -(lv.restrict @ (lv.A_rb @ x[k:])))
    x[:k] = (r[:k] - lv.A_rb @ x[k:]) * dr
    x[k:] = (r[k:] - lv.A_br @ x[:k]) * db
    return x


def _preconditioner(mg: _Multigrid, bfp):
    """One V-cycle for A - diag(bfp) as a function of the residual.

    Factors the coarsest level, shifted by its Galerkin-diagonal b f'(u),
    by SuperLU; raises SolveFailure when that fails.
    """
    shifts = _shifts(mg, bfp)
    coarse = mg.coarse - sp.diags(shifts[-1], format="csc")
    try:
        coarse_lu = splu(coarse, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: singular or out of memory
        raise SolveFailure(f"coarsest-level Jacobian factorization failed: {exc}") from exc
    inverses = _smoothers(mg, shifts)

    def precond(r):
        x = np.empty_like(r)
        x[mg.order] = _vcycle(mg.levels, inverses, coarse_lu, r[mg.order])
        return x

    return precond


def _newton_direction(A, bfp, mg: _Multigrid, rhs, rtol):
    """Solve (A - diag(bfp)) x = rhs by defect correction, one V-cycle M per iteration.

    From x = 0, x += M r with r = rhs - (A x - bfp x), the true residual,
    until ||r||_2 <= rtol ||rhs||_2; the Jacobian is never assembled.
    Returns (x, cycles).  Raises SolveFailure when the coarsest
    factorization fails, a residual is not finite or _MAX_CYCLES cycles
    miss rtol.
    """
    precond = _preconditioner(mg, bfp)
    scale = np.linalg.norm(rhs)
    x, r = np.zeros_like(rhs), rhs
    for cycles in range(1, _MAX_CYCLES + 1):
        x += precond(r)
        r = rhs - (A @ x - bfp * x)
        norm = np.linalg.norm(r)
        if not math.isfinite(norm):
            raise SolveFailure(f"V-cycle iteration gave a non-finite residual in cycle {cycles}")
        if norm <= rtol * scale:
            return x, cycles
    raise SolveFailure(f"V-cycle iteration missed rtol {rtol:.1e} in {_MAX_CYCLES} cycles "
                       f"(relative residual {norm / scale:.2e})")


_SHARED = ContextVar("fd2d_shared", default=(None, None))  # (grid, operators) of an exhaust


def _operators(grid: Field2D):
    """(A, cof, multigrid) of grid, which depend on neither f, b nor g.

    Within _shared_operators(grid), the set built there.
    """
    shared_grid, operators = _SHARED.get()
    if shared_grid is grid:
        return operators
    A, cof = _stencil(grid)
    return A, cof, _multigrid(grid, A)


@contextmanager
def _shared_operators(grid: Field2D):
    """Let every solve on grid inside the block share one set of operators."""
    token = _SHARED.set((grid, _operators(grid)))
    try:
        yield
    finally:
        _SHARED.reset(token)


def solve_dirichlet(grid: Field2D, f: Nonlinearity, bweight: Weight, g, tol,
                    b_override=None, u0=None, max_newton=100):
    """Solve Delta u = b f(u) with Dirichlet data g; returns a new Field2D.

    Damped Newton to residual max-norm <= tol.  Without u0 the start is the
    boundary profile phi(xi M(d) + Phi(j)) with j the mean boundary value,
    or the constant j when b_override is given, the profile does not exist
    or j <= 0.  Each step solves the Jacobian A - diag(b f'(u)), never
    assembled, by defect correction with one geometric multigrid V-cycle
    per iteration (_newton_direction): level l is the Shortley-Weller
    operator of build_grid(domain, 2^l h), whose nodes are the fine nodes
    with lattice coordinates divisible by 2^l, minus the Galerkin diagonal
    of b f'(u), down to at most _COARSE_MAX unknowns; bilinear prolongation
    P, full-weighting restriction P^T / 4, and one red-black Gauss-Seidel
    sweep before and after each coarse correction.  Only the coarsest level
    is factored by SuperLU (the whole Jacobian on small grids, where one
    cycle solves the step).  The operators and levels are built once per
    call, or once per exhaust.  A failed factorization, a non-finite cycle
    residual or _MAX_CYCLES cycles short of the step's tolerance raise
    SolveFailure with the Newton residual history so far.  Residuals are
    measured against the per-node source scale 1 + b f(u): with
    exponential sources the raw residual sits at eps * b f(u) near the
    boundary, so an unscaled max-norm target below that rounding floor
    would never be reached.  meta records newton_iters, factorizations
    (coarsest-level LUs, one per step), cycles (V-cycles over all steps)
    and start ("profile", "constant" or "given").
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    A, cof, mg = _operators(grid)
    const, gvals = _boundary_terms(grid, cof, g)
    abs_diag = np.abs(A.diagonal())
    b = _source_b(grid, bweight, b_override)
    f_raw = vectorized(f.f)
    fp_raw = vectorized(f.f_prime)
    fv = lambda u: np.asarray(f_raw(np.maximum(u, 1e-12)), float)
    fpv = lambda u: np.asarray(fp_raw(np.maximum(u, 1e-12)), float)

    if u0 is not None:
        u, start = np.array(u0, dtype=float, copy=True), "given"
    else:
        j = float(np.nanmean(gvals))
        profile = None if b_override is not None else _boundary_profile(grid, f, bweight)
        u = None if profile is None else profile(j)
        start = "constant" if u is None else "profile"
        if u is None:
            u = np.full(grid.n_interior, j)

    eps = np.finfo(float).eps

    def residual(uv):
        return A @ uv + const - b * fv(uv)

    def scaled_norm(res_vec, uv):
        return float(np.max(np.abs(res_vec) / (1.0 + b * fv(uv))))

    def at_floor(res_vec, uv):
        floor = 64.0 * eps * (abs_diag * np.abs(uv) + np.abs(const) + b * fv(uv))
        return bool(np.all(np.abs(res_vec) <= floor))

    res = residual(u)
    norm = scaled_norm(res, u)
    history = [norm]
    factorizations = cycles = 0
    for _ in range(max_newton):
        if norm <= tol or at_floor(res, u):
            break
        bfp = b * fpv(u)
        rtol = _FORCING
        if np.array_equal(bfp, b * fpv(u + 1.0)):
            # f is affine here, so the Newton model is exact: solve the step far
            # enough to finish, as a linear problem should in one step
            rtol = min(_FORCING, max(0.1 * tol / norm, _RTOL_FLOOR))
        try:
            delta, step_cycles = _newton_direction(A, bfp, mg, -res, rtol)
        except SolveFailure as exc:
            exc.residuals = list(history)
            raise
        factorizations += 1  # one coarsest-level LU per step
        cycles += step_cycles
        step = 1.0
        while step >= 2.0**-30:
            u_try = u + step * delta
            res_try = residual(u_try)
            norm_try = scaled_norm(res_try, u_try)
            if math.isfinite(norm_try) and norm_try < norm:
                break
            step *= 0.5
        else:
            if at_floor(res, u):
                break  # residual is pure round-off; nothing left to gain
            raise SolveFailure(
                f"Newton damping floor reached (residual {norm:.3g})", residuals=history
            )
        u, res, norm = u_try, res_try, norm_try
        history.append(norm)
    else:
        raise SolveFailure(f"Newton did not converge in {max_newton} steps", residuals=history)

    return grid.with_values(
        u,
        meta={
            **grid.meta,
            "tol": tol,
            "newton_iters": len(history) - 1,
            "factorizations": factorizations,
            "cycles": cycles,
            "start": start,
            "residual_history": history,
        },
    )


def exhaust(grid: Field2D, f: Nonlinearity, bweight: Weight, j_schedule, tol,
            b_override=None, **solve_kw):
    """Increasing boundary-data sweep with continuation; returns (limit, diagnostics).

    Each level starts from the boundary profile for its j, raised to the
    previous level where that is higher (both are subsolutions of the
    level's continuous problem), or from the previous level alone when
    there is no profile.  Every j shares one Shortley-Weller operator and
    one multigrid hierarchy, built here once for the grid.
    Diagnostics track per-step increment bounds, the interior Cauchy ratio
    on the core region d >= 0.2 * diam, and per level the Newton steps,
    coarsest-level factorizations and V-cycles.  A SolveFailure
    carries the levels finished before it in ``partial``.
    """
    js = [float(j) for j in j_schedule]
    if len(js) < 1 or any(b_ <= a for a, b_ in zip(js, js[1:])):
        raise ParameterError("boundary-data schedule must be strictly increasing")
    diam = 2.0 * max(grid.domain.half_extents)
    core = grid.node_d >= 0.2 * diam
    profile = None if b_override is not None else _boundary_profile(grid, f, bweight)
    fields = []
    u_prev = None
    diags = {"j": [], "increment_min": [], "increment_max": [], "core_increment": [],
             "cauchy_ratio": [], "center_value": [], "newton_iters": [],
             "factorizations": [], "cycles": []}
    center = int(np.argmax(grid.node_d))
    with _shared_operators(grid):  # one operator and level set for every j
        for j in js:
            u0 = None if profile is None else profile(j)
            if u0 is None:
                u0 = u_prev
            elif u_prev is not None:
                u0 = np.maximum(u_prev, u0)
            try:
                fld = solve_dirichlet(grid, f, bweight, j, tol, b_override=b_override,
                                      u0=u0, **solve_kw)
            except SolveFailure as exc:
                exc.partial = fields  # completed levels so far
                raise
            u = fld.interior_values()
            diags["j"].append(j)
            diags["center_value"].append(float(u[center]))
            diags["newton_iters"].append(fld.meta["newton_iters"])
            diags["factorizations"].append(fld.meta["factorizations"])
            diags["cycles"].append(fld.meta["cycles"])
            if u_prev is not None:
                inc = u - u_prev
                diags["increment_min"].append(float(inc.min()))
                diags["increment_max"].append(float(inc.max()))
                diags["core_increment"].append(
                    float(np.max(np.abs(inc[core]))) if core.any() else math.nan)
                if len(diags["core_increment"]) >= 2 and diags["core_increment"][-2] > 0:
                    diags["cauchy_ratio"].append(
                        diags["core_increment"][-1] / diags["core_increment"][-2]
                    )
            fields.append(fld)
            u_prev = u
    limit = fields[-1]
    diags["prev_values"] = fields[-2].interior_values() if len(fields) > 1 else None
    return limit, diags


@dataclass
class Report2D:
    """Binned boundary-asymptotics report: per-bin ratio spread u / prediction."""

    bins: np.ndarray  # columns: d_lo, d_hi, count, ratio_min, ratio_median, ratio_max
    flagged: np.ndarray  # truncation flag per bin
    meta: dict = field(default_factory=dict)


def asymptotics_report_2d(fld: Field2D, p: ProfileFns, xi, bin_edges=None,
                          n_bins=6, d_max=None, prev_values=None):
    """Per-bin min/median/max of u / phi(xi M(d)) over boundary-collar nodes.

    When the previous exhaustion iterate is supplied, bins where the median
    ratio still moves by more than 1% are flagged as truncation-dominated.
    """
    d = fld.node_d
    u = fld.interior_values()
    if bin_edges is None:
        top = 0.2 * fld.domain.char_radius if d_max is None else float(d_max)
        lo = max(float(d.min()), 1e-6 * top)
        bin_edges = np.geomspace(lo * 1.0001, top, n_bins + 1)
    bin_edges = np.asarray(bin_edges, dtype=float)

    rows = []
    flags = []
    for lo, hi in zip(bin_edges[:-1], bin_edges[1:]):
        sel = (d >= lo) & (d < hi)
        if not sel.any():
            raise ReportTruncated(
                f"empty collar bin [{lo:.3g}, {hi:.3g})",
                rows=np.array(rows) if rows else np.empty((0, 6)),
            )
        pred = predicted_profile(p, xi, d[sel])
        ratio = u[sel] / pred
        rows.append((lo, hi, int(sel.sum()), float(ratio.min()),
                     float(np.median(ratio)), float(ratio.max())))
        if prev_values is not None:
            prev_ratio = prev_values[sel] / pred
            moved = abs(np.median(ratio) - np.median(prev_ratio))
            flags.append(bool(moved > 0.01 * abs(np.median(ratio))))
        else:
            flags.append(False)
    return Report2D(bins=np.array(rows), flagged=np.array(flags),
                    meta={"xi": xi, "bin_edges": bin_edges.tolist()})
