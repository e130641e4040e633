"""2d finite-difference solver for the Laplacian case (order k = 1).

Damped Newton on the Shortley-Weller 5-point discretisation of
Delta u = b(d(x)) f(u), started from the paper's boundary profile
phi(xi M(d) + Phi(j)) shifted to equal the mean boundary value j on the
boundary, or from the constant j where that profile is not defined.  Each
Newton step is solved by multigrid defect correction in the red-black
order of the fine nodes, only as far as the Newton residual needs
(inexact Newton, Dembo, Eisenstat & Steihaug 1982): the forcing tolerance
is proportional to the residual, tightened to 1e-6 when a loose direction
fails to descend.  Level l holds the fine nodes whose lattice
coordinates 2^l divides, with the stencil of spacing 2^l h; it is sliced
from the fine lattice, no coarse grid built, shifted by the Galerkin
diagonal of b f'(u) and smoothed by red-black Gauss-Seidel; only the
coarsest level, at most a thousand unknowns, is factored by SuperLU.  The
odd orders k >= 2 are handled radially elsewhere.  Node ordering, levels
and the coarse fill-reducing ordering are fixed, so identical inputs give
bit-identical fields on one machine.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._quad import vectorized
from .errors import (ConditionViolation, KellerOssermanViolation, ParameterError,
                     ReportTruncated, SolveFailure)
from .grid2d import _DIRS, Field2D
from .nonlinearity import Nonlinearity, Weight
from .profiles import ProfileFns, assemble_profile, predicted_profile, xi_bounds

__all__ = ["assemble_operator", "solve_dirichlet", "exhaust", "Report2D", "asymptotics_report_2d"]

_K_ORDER = 1  # this module is the k = 1 lane
_COARSE_MAX = 1000  # unknowns on the coarsest multigrid level, the one SuperLU factors
_FORCING = 1e-6  # tightest relative residual a Newton step is solved to
# c: a step is solved to c times the larger of the scaled Newton residual r and 10 tol / r,
# between _FORCING and 0.1; c = 0 solves every step to _FORCING
_FORCING_SLOPE = 0.01
# V-cycle iteration stalls at 1e-15 to 7e-13 relative on these grids (smooth right-hand
# sides at h = 1/256 the highest): stay above
_RTOL_FLOOR = 1e-11
_MAX_CYCLES = 100  # V-cycles before a Newton step fails


def _csr(vals, cols, n_cols, offset=0):
    """CSR matrix whose row i holds vals[i, t] (vals[i] if 1-d) at column cols[i, t] - offset.

    Entries are stored in t order; those with cols[i, t] < 0 are left out.
    """
    keep = cols >= 0
    counts = keep[:, 0].astype(np.int32)
    for t in range(1, keep.shape[1]):  # cheaper than count_nonzero(axis=1)
        counts += keep[:, t]
    indptr = np.zeros(len(cols) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    data, indices = (np.repeat(vals, counts) if vals.ndim == 1 else vals[keep]), cols[keep]
    indices -= offset
    return sp.csr_matrix((data, indices, indptr), shape=(len(cols), n_cols))


# stencil tables list a node's neighbours S, W, E, N, in increasing column order in
# row-major and in colour numbering, and a matrix row stores them S, W, diagonal, E, N;
# _ARMS picks grid2d's arm directions E, W, N, S out of a table
_ARMS = [2, 1, 3, 0]


def _weights(arm, h):
    """(off, diag): Shortley-Weller weights, S, W, E, N, of nodes with arm fractions arm."""
    aE, aW, aN, aS = (arm[:, t] * h for t in range(4))
    return (np.column_stack([2.0 / (aS * (aN + aS)), 2.0 / (aW * (aE + aW)),
                             2.0 / (aE * (aE + aW)), 2.0 / (aN * (aN + aS))]),
            -(2.0 / (aE * aW) + 2.0 / (aN * aS)))


def _operator(off, diag, cols):
    """The matrix of the stencil tables (off, diag) with neighbour numbers cols (-1: none)."""
    n = len(diag)
    return _csr(np.insert(off, 2, diag, axis=1),
                np.insert(cols, 2, np.arange(n, dtype=np.int32), axis=1), n)


def _stencil(grid: Field2D):
    """(A, off): the Shortley-Weller matrix of grid (CSR) and its off-diagonal weights.

    A acts on the interior unknowns, diagonal included and cut arms dropped;
    off[:, t] is the weight of the arm to neighbour S, W, E, N, which
    multiplies the boundary value on a cut arm.
    """
    off, diag = _weights(grid.arm, grid.h)
    nbr = np.where(np.isnan(grid.arm_xy[:, :, 0]), grid.nbr, -1)  # -1 on cut arms
    return _operator(off, diag, nbr[:, [3, 1, 0, 2]]), off


def _boundary_terms(grid: Field2D, off, g):
    """(const, gvals): each row's known boundary contribution, and g on the arms (NaN if uncut)."""
    cut = np.nonzero(~np.isnan(grid.arm_xy[:, :, 0]))  # (node, arm) pairs, row-major
    gvals = np.full(grid.arm.shape, np.nan)  # arms E, W, N, S
    gvals[cut] = np.asarray(g(*grid.arm_xy[cut].T), float) if callable(g) else float(g)
    const = np.zeros(grid.n_interior)
    weight = off[cut[0], np.take(_ARMS, cut[1])]
    np.add.at(const, cut[0], weight * np.nan_to_num(gvals[cut]))  # in arm order, as a row sum
    return const, gvals


def assemble_operator(grid: Field2D, g):
    """Shortley-Weller Laplacian: (A, const, gvals).

    A is the stencil on the interior unknowns as one CSR matrix, diagonal
    included and cut arms dropped; const carries the known boundary
    contributions, so A u + const approximates Delta u.
    """
    A, off = _stencil(grid)
    return (A, *_boundary_terms(grid, off, g))


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


def _table(lx, ly, order, box):
    """(table, flat, cols) of the nodes at lattice (lx, ly) on the box (x0, y0, x1, y1).

    table, the box flattened row-major, holds i at node order[i] and -1 elsewhere; flat[j]
    is node j's place in it; cols[i] numbers node order[i]'s neighbours S, W, E, N.
    """
    x0, y0, x1, y1 = box
    width = x1 - x0 + 1
    flat = (ly - y0) * width + (lx - x0)
    table = np.full((y1 - y0 + 1) * width, -1, dtype=np.int32)
    table[flat[order]] = np.arange(order.size, dtype=np.int32)
    cols = np.empty((order.size, 4), dtype=np.int32)
    for t, step in enumerate((-width, -1, 1, width)):
        cols[:, t] = table.take(flat[order] + step)
    return table, flat, cols


def _bilinear(fx, fy, table, box, n):
    """Prolongation rows of the fine nodes at lattice (fx, fy) from the n nodes of table.

    Row i holds the distinct coarse nodes at floor and ceil of (fx, fy) / 2, stored SW, SE,
    NW, NE, weighted 1/2 per odd coordinate; a repeated corner reads place 0 of the table,
    which is margin, so it is dropped like an absent node.
    """
    width = box[2] - box[0] + 1
    at = ((fy >> 1) - box[1]) * width + ((fx >> 1) - box[0])
    ox, oy = fx & 1, fy & 1
    corners = (at, (at + 1) * ox, (at + width) * oy, (at + width + 1) * (ox & oy))
    cols = np.column_stack([table.take(c) for c in corners])
    return _csr(np.where(ox, 0.5, 1.0) * np.where(oy, 0.5, 1.0), cols, n)


def _colour_order(lx, ly):
    """(order, n_red): red nodes (lx + ly even), then black, each in row-major order.

    The coarsest level, which is only factored, keeps row-major order (n_red = 0).
    """
    if lx.size <= _COARSE_MAX:
        return np.arange(lx.size), 0
    odd = ((lx + ly) & 1) == 1
    return np.concatenate([np.flatnonzero(~odd), np.flatnonzero(odd)]), int(odd.size - odd.sum())


# a coarse node's 3 x 3 fine neighbourhood in decreasing colour order (black N, E, W,
# S, then red NE, NW, centre, SE, SW) and the full-weighting weights, P's entries
_AROUND = ((0, 1), (1, 0), (-1, 0), (0, -1), (1, 1), (-1, 1), (0, 0), (1, -1), (-1, -1))
_P_WEIGHT = np.array([0.5] * 4 + [0.25, 0.25, 1.0, 0.25, 0.25])


@dataclass(frozen=True)
class _Level:
    """One smoothed multigrid level: its Shortley-Weller operator split by colour.

    Vectors hold the n_red red nodes, then the black ones (_colour_order).
    P is the bilinear prolongation from the next coarser level, in both
    levels' orders; ``shift`` maps a diagonal shift s down to it as the
    diagonal of P^T diag(s) P over that of P^T P.
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

    Level l holds the fine nodes whose lattice coordinates 2^l divides, as
    build_grid(domain, 2^l h) would, since (2^l i) h and i (2^l h) round
    alike.  Only the diagonal b f'(u) changes from one Newton step to the next.
    """

    levels: list
    order: np.ndarray  # the finest level's colour order
    coarse: sp.csc_matrix  # Shortley-Weller operator of the coarsest level, row-major


def _multigrid(grid: Field2D, A):
    """The hierarchy of grid, with fine operator A, down to <= _COARSE_MAX unknowns.

    Each level is the even sublattice of the one above, halved: its colour blocks, P,
    restriction and shift map are read off lattice tables (_table) as CSR, rows in colour
    order.  The finest weights are A's entries, a coarse level's come from its arms, cut
    only where they leave the domain; no coarse grid, distance or sparse product is formed.
    """
    lx, ly = grid.node_ix + round(grid.xs[0] / grid.h), grid.node_iy + round(grid.ys[0] / grid.h)
    box = (lx.min() - 1, ly.min() - 1, lx.max() + 1, ly.max() + 1)  # one node of margin
    order, n_red = _colour_order(lx, ly)
    table, flat, cols = _table(lx, ly, order, box)
    at = np.empty(cols.shape, dtype=np.int32)  # where A's rows store S, W, (diag,) E, N
    at[:, 0] = A.indptr[order]
    at[:, 1] = at[:, 0] + (cols[:, 0] >= 0)
    at[:, 2] = at[:, 1] + (cols[:, 1] >= 0) + 1
    at[:, 3] = at[:, 2] + (cols[:, 2] >= 0)
    off, diag = A.data.take(at, mode="clip"), A.data[at[:, 2] - 1]  # junk where none
    del at  # freed before the levels are built
    h, levels, top = grid.h, [], order
    while lx.size > _COARSE_MAX:
        k, width = n_red, box[2] - box[0] + 1
        even = np.flatnonzero(((lx | ly) & 1) == 0)
        cx, cy = lx[even] >> 1, ly[even] >> 1
        c_box = (box[0] >> 1, box[1] >> 1, -(-box[2] >> 1), -(-box[3] >> 1))
        c_order, c_red = _colour_order(cx, cy)
        c_table, c_flat, c_cols = _table(cx, cy, c_order, c_box)
        steps = np.array([dy * width + dx for dx, dy in _AROUND], dtype=np.int32)
        near = table.take(flat[even[c_order], None] + steps)  # coarse rows, colour order
        weight = np.where(near >= 0, _P_WEIGHT, 0.0) ** 2
        weight *= (1.0 / weight.sum(axis=1))[:, None]  # exact sums of multiples of 1/16
        levels.append(_Level(
            n_red=k, diag_red=diag[:k], diag_black=diag[k:],
            A_rb=_csr(off[:k], cols[:k], lx.size - k, k), A_br=_csr(off[k:], cols[k:], k),
            P=_bilinear(lx[order], ly[order], c_table, c_box, cx.size),
            restrict=_csr(np.broadcast_to(0.25 * _P_WEIGHT[8:3:-1], (cx.size, 5)),
                          near[:, 8:3:-1], k),
            shift=_csr(weight, near, lx.size)))
        lx, ly, box, order, n_red, table, flat, cols = (
            cx, cy, c_box, c_order, c_red, c_table, c_flat, c_cols)
        h *= 2.0
        x, y, arm = lx[order] * h, ly[order] * h, np.ones((lx.size, 4))
        for t, (dx, dy) in enumerate(_DIRS):
            cut = np.flatnonzero(cols[:, _ARMS[t]] < 0)
            arm[cut, t] = grid.domain.arm_fraction(x[cut], y[cut], dx, dy, h)
        off, diag = _weights(arm, h)
    return _Multigrid(levels=levels, order=top, coarse=_operator(off, diag, cols).tocsc())


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

    One red-black Gauss-Seidel sweep (``inverses``: inverted diagonals)
    before and after the coarse correction on every level, and the SuperLU
    solve ``coarse_lu`` on the coarsest.  After the pre-sweep the black
    residual is zero, so only the red one, -A_rb x_b, is restricted.  A
    fixed linear map of r, exact when there are no levels.
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


def _coarse_lu(mg: _Multigrid, shifts):
    """SuperLU factor of the coarsest level shifted by shifts[-1]; SolveFailure if it fails."""
    coarse = mg.coarse - sp.diags(shifts[-1], format="csc")
    try:
        return splu(coarse, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: singular or out of memory
        raise SolveFailure(f"coarsest-level Jacobian factorization failed: {exc}") from exc


def _cycle(mg: _Multigrid, shifts, coarse_lu):
    """One V-cycle for A - diag(shifts[0]) as a function of a residual in colour order."""
    inverses = _smoothers(mg, shifts)
    return lambda r: _vcycle(mg.levels, inverses, coarse_lu, r)


def _row_major(mg: _Multigrid, x):
    """x, given in the finest colour order, in row-major order."""
    out = np.empty_like(x)
    out[mg.order] = x
    return out


def _defect_correction(A, bfp, mg: _Multigrid, rhs):
    """Defect correction for (A - diag(bfp)) x = rhs, one V-cycle M per iteration.

    Returns solve(rtol) -> (x, cycles).  From x = 0, or from the x the last call returned,
    x += M r with r = rhs - (A x - bfp x), the true residual, until ||r||_2 <= rtol ||rhs||_2,
    at least one cycle in all; cycles counts every cycle so far.  rhs and x are row-major;
    the iteration runs in the finest colour order, r from its colour blocks.  Every call
    uses the coarsest LU of the first; between calls only that LU and the returned x are
    kept, the smoothers and r are rebuilt, so a caller holding the solve holds no extra
    fine-grid array.  Raises SolveFailure when the factorization fails, a residual is not
    finite or _MAX_CYCLES cycles in all miss rtol.
    """
    coarse_lu = last = None  # last: the (x, cycles) returned

    def solve(rtol):
        nonlocal coarse_lu, last
        shifts = _shifts(mg, bfp)
        if coarse_lu is None:
            coarse_lu = _coarse_lu(mg, shifts)
        cycle, b, s = _cycle(mg, shifts, coarse_lu), rhs[mg.order], shifts[0]
        lv = mg.levels[0] if mg.levels else None
        del shifts  # only shifts[0] is used from here on

        def residual(x):
            if lv is None:  # the grid is the coarsest level, in row-major order
                return b - (A @ x - s * x)
            k, r = lv.n_red, s * x
            r[:k] -= lv.diag_red * x[:k] + lv.A_rb @ x[k:]
            r[k:] -= lv.diag_black * x[k:] + lv.A_br @ x[:k]
            r += b
            return r

        # 2-norms by einsum: BLAS's threaded dot can stall for milliseconds on a busy host
        norm2 = lambda v: math.sqrt(np.einsum("i,i->", v, v))
        scale = norm2(rhs)
        if last is None:
            x, r, cycles = np.zeros_like(b), b, 0
        else:  # the same iterate as at the end of the last call, bit for bit
            x, cycles = last[0][mg.order], last[1]
            r = residual(x)
            norm = norm2(r)
        while cycles == 0 or norm > rtol * scale:
            if cycles == _MAX_CYCLES:
                raise SolveFailure(f"V-cycle iteration missed rtol {rtol:.1e} in {_MAX_CYCLES} "
                                   f"cycles (relative residual {norm / scale:.2e})")
            x += cycle(r)
            r = residual(x)
            norm = norm2(r)
            cycles += 1
            if not math.isfinite(norm):
                raise SolveFailure(
                    f"V-cycle iteration gave a non-finite residual in cycle {cycles}")
        last = (_row_major(mg, x), cycles)
        return last

    return solve


_SHARED = ContextVar("fd2d_shared", default=(None, None))  # (grid, operators) of an exhaust


def _operators(grid: Field2D):
    """(A, off, multigrid) of grid, which depend on neither f, b nor g.

    Within _shared_operators(grid), the set built there.
    """
    shared_grid, operators = _SHARED.get()
    if shared_grid is grid:
        return operators
    A, off = _stencil(grid)
    return A, off, _multigrid(grid, A)


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
    or j <= 0.  Each step solves the Jacobian A - diag(b f'(u)) by multigrid
    defect correction (_defect_correction) on levels sliced from the fine
    lattice (_multigrid), built once per call or once per exhaust; f(u) is
    evaluated once per trial point.  At scaled residual r the step is solved
    to relative residual min(0.1, max(_FORCING, c r, 10 c tol / r)), c =
    _FORCING_SLOPE (inexact Newton: the forcing term is O(r), which keeps
    quadratic convergence); where f is affine, to min(_FORCING, max(0.1 tol
    / r, _RTOL_FLOOR)) instead.  A loose direction need not lower the
    max-norm residual: when its full step does not, the same iteration, with
    the same coarsest LU, continues to _FORCING and the line search restarts
    at the full step, and later steps are solved to _FORCING until a full
    step is taken.  A failed coarsest factorization, a non-finite cycle
    residual or _MAX_CYCLES cycles short of the step's tolerance raise
    SolveFailure with the Newton residual history so far.
    Residuals are measured against the per-node source scale 1 + b f(u): with
    exponential sources the raw residual sits at eps * b f(u) near the
    boundary, so an unscaled max-norm target below that rounding floor
    would never be reached.  meta records newton_iters, factorizations
    (coarsest-level LUs, one per step), cycles (V-cycles over all steps)
    and start ("profile", "constant" or "given").
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    A, off, mg = _operators(grid)
    const, gvals = _boundary_terms(grid, off, g)
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

    def evaluate(uv):
        """(residual, scaled max-norm, whether it is round-off) at uv; f is evaluated once."""
        bf = b * fv(uv)
        res_vec = A @ uv + const - bf
        floor = 64.0 * np.finfo(float).eps * (abs_diag * np.abs(uv) + np.abs(const) + bf)
        return (res_vec, float(np.max(np.abs(res_vec) / (1.0 + bf))),
                bool(np.all(np.abs(res_vec) <= floor)))

    res, norm, at_floor = evaluate(u)
    history = [norm]
    factorizations = cycles = 0
    tight = False  # a loose step was refined and no full step has been taken since
    for _ in range(max_newton):
        if norm <= tol or at_floor:
            break
        bfp = b * fpv(u)
        if np.array_equal(bfp, b * fpv(u + 1.0)):
            # f is affine here, so the Newton model is exact: solve the step far
            # enough to finish, as a linear problem should in one step
            rtol = min(_FORCING, max(0.1 * tol / norm, _RTOL_FLOOR))
        elif tight:
            rtol = _FORCING
        else:  # inexact Newton: the forcing term falls with the residual
            rtol = min(0.1, max(_FORCING, _FORCING_SLOPE * max(norm, 10.0 * tol / norm)))
        try:
            solve = _defect_correction(A, bfp, mg, -res)
            del res  # solve holds -res in its place
            delta, step_cycles = solve(rtol)
        except SolveFailure as exc:
            exc.residuals = list(history)
            raise
        if rtol <= _FORCING:
            solve = None  # nothing to refine: not held through the line search
        factorizations += 1  # one coarsest-level LU per step
        cycles += step_cycles
        step = 1.0
        while step >= 2.0**-30:
            u_try = u + step * delta
            res_try, norm_try, floor_try = evaluate(u_try)
            if math.isfinite(norm_try) and norm_try < norm:
                break
            if solve is not None:
                # a loose direction need not descend: continue its iteration, on the
                # same coarsest LU, to _FORCING and search again from the full step
                try:
                    delta, total = solve(_FORCING)
                except SolveFailure as exc:
                    exc.residuals = list(history)
                    raise
                cycles += total - step_cycles
                solve, tight = None, True
                continue
            step *= 0.5
        else:
            if at_floor:
                break  # residual is pure round-off; nothing left to gain
            raise SolveFailure(f"Newton damping floor reached (residual {norm:.3g})",
                               residuals=history)
        tight = tight and step < 1.0
        u, res, norm, at_floor = u_try, res_try, norm_try, floor_try
        del delta, solve, res_try  # not held through the next step's solve
        history.append(norm)
    else:
        raise SolveFailure(f"Newton did not converge in {max_newton} steps", residuals=history)

    return grid.with_values(u, meta={
        **grid.meta, "tol": tol, "newton_iters": len(history) - 1,
        "factorizations": factorizations, "cycles": cycles, "start": start,
        "residual_history": history})


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
    fields, u_prev = [], None
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
