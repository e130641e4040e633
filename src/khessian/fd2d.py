"""2d finite-difference solver for the Laplacian case (order k = 1).

Damped Newton on the Shortley-Weller 5-point discretisation of
Delta u = b(d(x)) f(u), started from the paper's boundary profile
phi(xi M(d) + Phi(j)) shifted to equal the mean boundary value j on the
boundary, or from the constant j where that profile is not defined.  The
whole Newton iteration runs in the red-black order of the fine nodes, on
the finest multigrid level's colour blocks, which are the only copy of the
fine operator a solve holds (assemble_operator gives the row-major matrix
as a reference).  Each Newton step is solved by multigrid defect
correction, only as far as the Newton residual needs
(inexact Newton, Dembo, Eisenstat & Steihaug 1982): the forcing tolerance
is proportional to the residual, tightened to 1e-6 when a loose direction
fails to descend.  Level l holds the fine nodes whose lattice
coordinates 2^l divides, with the stencil of spacing 2^l h; it is sliced
from the fine lattice, no coarse grid built, shifted by the Galerkin
diagonal of b f'(u) and smoothed by red-black Gauss-Seidel; only the
coarsest level, at most a thousand unknowns, is factored by SuperLU.  A
level holds its diagonal by colour, one pair of index arrays for both
off-diagonal colour blocks (the black rows' CSR block and the red rows' CSC
block on it), the prolongation P and the column sums of P o P; a solve
holds besides them the cut arms, the boundary terms of the rows they cut,
and its Newton and V-cycle vectors.  The
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

from .errors import (ConditionViolation, KellerOssermanViolation, ParameterError,
                     ReportTruncated, SolveFailure, require_positive_finite, require_schedule)
from .grid2d import Field2D
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
_MAX_NEWTON = 100  # Newton steps before a solve fails


def _csr(vals, cols, n_cols):
    """CSR matrix whose row i holds vals[i, t] (vals[i] if 1-d) at column cols[i, t].

    Entries are stored in t order; those with cols[i, t] < 0 are left out.
    """
    keep = cols >= 0
    counts = keep[:, 0].astype(np.int32)
    for t in range(1, keep.shape[1]):  # cheaper than count_nonzero(axis=1)
        counts += keep[:, t]
    indptr = np.zeros(len(cols) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    data, indices = (np.repeat(vals, counts) if vals.ndim == 1 else vals[keep]), cols[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(len(cols), n_cols))


# stencil tables list a node's neighbours S, W, E, N, in increasing column order in
# row-major and in colour numbering, and a matrix row stores them S, W, diagonal, E, N;
# arms are taken E, W, N, S (_DIRS), which _ARMS picks out of a table
_DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
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


def _lattice(grid: Field2D):
    """(lx, ly, box): grid's nodes on the lattice of spacing h, and their box with margin 1."""
    lx = grid.node_ix + round(grid.xs[0] / grid.h)
    ly = grid.node_iy + round(grid.ys[0] / grid.h)
    return lx, ly, (lx.min() - 1, ly.min() - 1, lx.max() + 1, ly.max() + 1)


def _stencil(domain, h, lx, ly, order, box):
    """Shortley-Weller stencil of spacing h at the nodes at lattice (lx, ly), rows in order.

    Returns _table's (table, cols), the weights (off, diag) and the cut arms (rows, t,
    theta, weight): row and direction (_DIRS) of each arm whose neighbour is not a node,
    by row and E, W, N, S within one, its fraction from domain.arm_fraction and the
    weight that multiplies the boundary value at its end.  Rows with four unit arms take
    1/h^2 and -4/h^2, which _weights gives exactly for them; it runs on the cut rows only.
    The tables hold four entries per row: _multigrid keeps them only until the level's
    colour blocks are built.
    """
    table, cols = _table(lx, ly, order, box)
    rows, t = np.nonzero(cols[:, _ARMS] < 0)
    (dx, dy), at = _DIRS[t].T, order[rows]
    theta = domain.arm_fraction(lx[at] * h, ly[at] * h, dx, dy, h)
    inv = 1.0 / (h * h)
    off, diag = np.full((order.size, 4), inv), np.full(order.size, -4.0 * inv)
    cut, row_of = np.unique(rows, return_inverse=True)
    arm = np.ones((cut.size, 4))
    arm[row_of, t] = theta
    off[cut], diag[cut] = _weights(arm, h)
    return table, cols, off, diag, (rows, t, theta, off[rows, np.take(_ARMS, t)])


def _boundary_terms(grid: Field2D, order, arms, g):
    """(cut, const, gcut): the boundary terms on the cut arms alone, none per node and arm.

    cut are the rows with a cut arm, ascending; const their known boundary contributions,
    weight * g summed over a row's arms in arm order; gcut g at each cut arm, a 1-d array
    in arm order.  Rows are numbered as the stencil's that gave arms: row i is node
    order[i].  g is evaluated once, at the arms' ends x0 + theta h (dx, dy).  A solve
    holds cut and const through its iteration, and gcut only to take the mean j.
    """
    rows, t, theta, weight = arms
    if callable(g):
        (dx, dy), step, nodes = _DIRS[t].T, theta * grid.h, order[rows]
        g = g(grid.xs[grid.node_ix[nodes]] + step * dx, grid.ys[grid.node_iy[nodes]] + step * dy)
    gcut = np.broadcast_to(np.asarray(g, float), rows.shape)
    cut, row_of = np.unique(rows, return_inverse=True)
    const = np.zeros(cut.size)
    np.add.at(const, row_of, weight * np.nan_to_num(gcut))  # in arm order, as a row sum
    return cut, const, gcut


def assemble_operator(grid: Field2D, g):
    """Shortley-Weller Laplacian: (A, const, gvals), all in row-major order.

    A is the stencil on the interior unknowns as one CSR matrix, diagonal
    included and cut arms dropped; const carries the known boundary
    contributions, so A u + const approximates Delta u; gvals[i, t] is g at the
    end of node i's arm t (E, W, N, S), NaN where the arm is not cut.  solve_dirichlet
    never builds these: it applies the same stencil from the finest multigrid level's
    colour blocks (_multigrid) and keeps the boundary terms on the cut arms
    (_boundary_terms).  They are the row-major reference forms.
    """
    lx, ly, box = _lattice(grid)
    order = np.arange(lx.size)
    _, cols, off, diag, arms = _stencil(grid.domain, grid.h, lx, ly, order, box)
    cut, const_cut, gcut = _boundary_terms(grid, order, arms, g)
    const = np.zeros(grid.n_interior)
    const[cut] = const_cut
    gvals = np.full((grid.n_interior, 4), np.nan)
    gvals[arms[0], arms[1]] = gcut
    return _operator(off, diag, cols), const, gvals


def _source_b(grid: Field2D, bweight: Weight):
    """Source b_lower m(d)^2 at the interior nodes; ParameterError unless finite and >= 0 (b2).

    A constant weight gives one float, computed as at one node, so it equals each entry
    of the per-node array bit for bit.
    """
    constant = bweight.kind == "constant"
    d = grid.node_d[:1] if constant else grid.node_d
    b = bweight.b_lower * np.asarray(bweight.m(d), dtype=float) ** (_K_ORDER + 1)
    bad = ~(np.isfinite(b) & (b >= 0.0))
    if bad.any():
        raise ParameterError(
            f"(b2) source b must be finite and nonnegative, got {b[bad].flat[0]} "
            f"at node {int(np.flatnonzero(bad)[0])}"
        )
    return float(b[0]) if constant else b


def _boundary_profile(grid: Field2D, f: Nonlinearity, bweight: Weight):
    """j -> phi(xi M(d) + Phi(j)) at the interior nodes, or None without a profile.

    This is the blow-up profile shifted to equal j on the boundary, the
    Newton start of solve_dirichlet and of every exhaust level.  For
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
    node_t = node_t.astype(np.int32)

    def start(j):
        if not j > 0.0:
            return None
        try:
            return np.asarray(p.phi(t + p.Phi(j)), dtype=float)[node_t]
        except ParameterError:  # beyond the supremum of Phi
            return None

    return start


def _table(lx, ly, order, box):
    """(table, cols) of the nodes at lattice (lx, ly) on the box (x0, y0, x1, y1).

    table, the box flattened row-major, holds i at node order[i] and -1 elsewhere;
    cols[i] numbers node order[i]'s neighbours S, W, E, N.
    """
    x0, y0, x1, y1 = box
    width = x1 - x0 + 1
    at = ((ly - y0) * width + (lx - x0))[order]  # node order[i]'s place in table
    table = np.full((y1 - y0 + 1) * width, -1, dtype=np.int32)
    table[at] = np.arange(order.size, dtype=np.int32)
    cols = np.empty((order.size, 4), dtype=np.int32)
    for t, step in enumerate((-width, -1, 1, width)):
        cols[:, t] = table.take(at + step)
    return table, cols


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
        return np.arange(lx.size, dtype=np.int32), 0
    odd = ((lx + ly) & 1) == 1
    return (np.concatenate([np.flatnonzero(~odd), np.flatnonzero(odd)], dtype=np.int32),
            int(odd.size - odd.sum()))


# a black node's arm t meets its red neighbour's arm 3 - t: S <-> N, W <-> E
_BACK = [3, 2, 1, 0]


def _colour_blocks(off, cols, k):
    """(A_rb, A_br): the stencil (off, cols) in colour order with k red rows, split by colour.

    A_br is CSR over the black rows; A_rb is CSC on A_br's own indices and indptr,
    with its own data: where black j's arm t reaches red i, red i's weight on its arm
    3 - t back to j.  Red i's black neighbours S, W, E, N come in that column order, so
    A_rb @ x sums a red row in the same order as the CSR row sum would, bit for bit.
    """
    black = cols[k:]
    A_br = _csr(off[k:], black, k)
    back = off[black, _BACK]  # rows of absent neighbours (-1) are read, then dropped
    A_rb = sp.csc_matrix((back[black >= 0], A_br.indices, A_br.indptr),
                         shape=(k, black.shape[0]))
    return A_rb, A_br


@dataclass(frozen=True)
class _Level:
    """One smoothed multigrid level: its Shortley-Weller operator split by colour, and P.

    Vectors hold the n_red red nodes, then the black ones (_colour_order).
    The off-diagonal blocks share one pair of index arrays (_colour_blocks):
    A_br is CSR, A_rb CSC on A_br's indices and indptr with its own data.
    P is the bilinear prolongation from the next coarser level, in both
    levels' orders, and the only transfer matrix held: the V-cycle restricts
    by 0.25 P[:n_red]^T (_restrict) and _shifts maps a shift down by
    (P o P)^T (_squares) over P2_sums, both applied on P's own arrays.
    """

    n_red: int
    diag_red: np.ndarray
    diag_black: np.ndarray
    A_rb: sp.csc_matrix  # red rows, black columns, on A_br's index arrays
    A_br: sp.csr_matrix  # black rows, red columns
    P: sp.csr_matrix
    P2_sums: np.ndarray  # column sums of P o P: exact multiples of 1/16, fixed per grid


@dataclass(frozen=True)
class _Multigrid:
    """Levels of one grid, fine to coarse, and the coarsest operator, fixed per grid.

    Level l holds the fine nodes whose lattice coordinates 2^l divides, as
    build_grid(domain, 2^l h) would, since (2^l i) h and i (2^l h) round
    alike.  Only the diagonal b f'(u) changes from one Newton step to the next.
    """

    levels: list
    order: np.ndarray  # the finest level's colour order, int32
    coarse: sp.csc_matrix  # Shortley-Weller operator of the coarsest level, row-major


def _multigrid(grid: Field2D):
    """(arms, multigrid): the cut arms of grid and its hierarchy down to <= _COARSE_MAX unknowns.

    Each level is the even sublattice of the one above, halved: its stencil
    (_stencil), colour blocks (_colour_blocks) and P are read off lattice tables,
    rows in colour order, with arms cut only where they leave the domain; no coarse
    grid, distance or sparse product is formed.  A level's stencil tables are freed
    once its colour blocks are built, before the coarser stencil and P.  arms are the
    finest stencil's (rows, t, theta, weight), rows numbered in the finest colour
    order (mg.order), E, W, N, S within one.
    """
    domain, h = grid.domain, grid.h
    lx, ly, box = _lattice(grid)
    order, n_red = _colour_order(lx, ly)
    _, cols, off, diag, arms = _stencil(domain, h, lx, ly, order, box)
    levels, top = [], order
    while lx.size > _COARSE_MAX:
        k = n_red
        A_rb, A_br = _colour_blocks(off, cols, k)
        del off, cols  # not held while the coarser stencil is built
        even = ((lx | ly) & 1) == 0
        cx, cy = lx[even] >> 1, ly[even] >> 1
        c_box = (box[0] >> 1, box[1] >> 1, -(-box[2] >> 1), -(-box[3] >> 1))
        c_order, c_red = _colour_order(cx, cy)
        h *= 2.0
        c_table, cols, off, c_diag, _ = _stencil(domain, h, cx, cy, c_order, c_box)
        P = _bilinear(lx[order], ly[order], c_table, c_box, cx.size)
        levels.append(_Level(n_red=k, diag_red=diag[:k], diag_black=diag[k:], A_rb=A_rb,
                             A_br=A_br, P=P, P2_sums=_squares(P) @ np.ones(P.shape[0])))
        lx, ly, box, order, n_red, diag = cx, cy, c_box, c_order, c_red, c_diag
    return arms, _Multigrid(levels=levels, order=top, coarse=_operator(off, diag, cols).tocsc())


def _transpose(P, data, rows):
    """Q[:rows]^T as CSC, Q with P's pattern and entries data, on P's index arrays (no copy)."""
    return sp.csc_matrix((data, P.indices, P.indptr[:rows + 1]), shape=(P.shape[1], rows))


def _squares(P):
    """(P o P)^T, the map that takes a shift down a level, on P's index arrays (_transpose)."""
    return _transpose(P, P.data ** 2, P.shape[0])


def _apply(mg: _Multigrid, x):
    """A x for the fine Shortley-Weller operator A, x and A x in the finest colour order."""
    if not mg.levels:  # the grid is the coarsest level, in row-major order
        return mg.coarse @ x
    lv = mg.levels[0]
    k, out = lv.n_red, np.empty_like(x)
    out[:k] = lv.diag_red * x[:k] + lv.A_rb @ x[k:]
    out[k:] = lv.diag_black * x[k:] + lv.A_br @ x[:k]
    return out


def _abs_diag_times(mg: _Multigrid, x):
    """|diag A| |x| for the fine Shortley-Weller operator A, x in the finest colour order."""
    if not mg.levels:
        return np.abs(mg.coarse.diagonal() * x)
    lv = mg.levels[0]
    k, out = lv.n_red, np.empty_like(x)
    np.multiply(lv.diag_red, x[:k], out=out[:k])
    np.multiply(lv.diag_black, x[k:], out=out[k:])
    return np.abs(out, out=out)


def _shifts(mg: _Multigrid, bfp):
    """b f'(u) on every level, finest first: bfp, in the finest colour order, shifted down.

    Each shift is in its own level's colour order.  s maps down to the diagonal of
    P^T diag(s) P over that of P^T P: (P o P)^T s over P o P's exact column sums,
    which the level holds (P2_sums).
    """
    shifts = [bfp]
    for lv in mg.levels:
        shifts.append(_squares(lv.P) @ shifts[-1] / lv.P2_sums)
    return shifts


def _smoothers(mg: _Multigrid, shifts):
    """Per level, 1 / diagonal of A_l - diag(s_l) on the red and on the black nodes."""
    return [(1.0 / (lv.diag_red - s[:lv.n_red]), 1.0 / (lv.diag_black - s[lv.n_red:]))
            for lv, s in zip(mg.levels, shifts)]


def _restrict(lv: _Level, r_red):
    """Full weighting 0.25 P[:n_red]^T r_red, each sum SW, SE, C, NW, NE (red rows: row-major)."""
    return 0.25 * (_transpose(lv.P, lv.P.data, lv.n_red) @ r_red)


def _vcycle(levels, inverses, coarse_lu, r):
    """One V-cycle for J x = r from x = 0, r and x in the colour order of the top level.

    One red-black Gauss-Seidel sweep (``inverses``: inverted diagonals)
    before and after the coarse correction on every level, and the SuperLU
    solve ``coarse_lu`` on the coarsest.  After the pre-sweep the black
    residual is zero, so only the red one, -A_rb x_b, is restricted
    (_restrict).  A fixed linear map of r, exact when there are no levels.
    """
    if not levels:
        return coarse_lu.solve(r)
    lv, (dr, db) = levels[0], inverses[0]
    k = lv.n_red
    x = np.empty_like(r)
    x[:k] = r[:k] * dr
    x[k:] = (r[k:] - lv.A_br @ x[:k]) * db
    x += lv.P @ _vcycle(levels[1:], inverses[1:], coarse_lu, -_restrict(lv, lv.A_rb @ x[k:]))
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


def _defect_correction(bfp, mg: _Multigrid, rhs):
    """Defect correction for (A - diag(bfp)) x = rhs, one V-cycle M per iteration.

    Returns solve(rtol) -> (x, cycles).  From x = 0, or from the x the last call returned,
    x += M r with r = rhs - (A x - bfp x), the true residual, until ||r||_2 <= rtol ||rhs||_2,
    at least one cycle in all; cycles counts every cycle so far.  bfp, rhs and x are in the
    finest colour order, and A x is taken from its colour blocks (_apply).  Every call
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
        cycle = _cycle(mg, shifts, coarse_lu)
        del shifts  # the coarse shifts: not held through the cycles

        def residual(x):
            r = bfp * x
            r -= _apply(mg, x)
            r += rhs
            return r

        # 2-norms by einsum: BLAS's threaded dot can stall for milliseconds on a busy host
        norm2 = lambda v: math.sqrt(np.einsum("i,i->", v, v))
        scale = norm2(rhs)
        if last is None:
            x, r, cycles = np.zeros_like(rhs), rhs, 0
        else:  # the same iterate as at the end of the last call, bit for bit
            x, cycles = last[0].copy(), last[1]  # the caller may still hold last[0]
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
        last = (x, cycles)
        return last

    return solve


_SHARED = ContextVar("fd2d_shared", default=(None, None))  # (grid, operators) of an exhaust


def _operators(grid: Field2D):
    """(arms, multigrid) of grid (_multigrid): neither depends on f, b or g.

    arms number their rows, and the multigrid its vectors, in the finest colour order.
    Within _shared_operators(grid), the pair built there.
    """
    shared_grid, operators = _SHARED.get()
    if shared_grid is grid:
        return operators
    return _multigrid(grid)


@contextmanager
def _shared_operators(grid: Field2D):
    """Let every solve on grid inside the block share one set of operators."""
    token = _SHARED.set((grid, _operators(grid)))
    try:
        yield
    finally:
        _SHARED.reset(token)


_BLOCK = 4096  # nodes per block of _affine's comparison


def _affine(fpv, b, u, bfp):
    """Whether b f'(u + 1) equals bfp = b f'(u) at every node, compared block by block."""
    for lo in range(0, u.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        if not np.array_equal(bfp[part], (b if np.ndim(b) == 0 else b[part]) * fpv(u[part] + 1.0)):
            return False
    return True


def solve_dirichlet(grid: Field2D, f: Nonlinearity, bweight: Weight, g, tol, u0=None):
    """Solve Delta u = b f(u) with Dirichlet data g; returns a new Field2D.

    The source is b = b_lower m(d)^2 from the weight (_source_b).  Damped
    Newton to residual max-norm <= tol, in at most _MAX_NEWTON steps.
    Without u0 the start is the boundary profile phi(xi M(d) + Phi(j)) with
    j the mean boundary value (_boundary_profile), or the constant j when
    the profile does not exist or j <= 0.  Each step solves the Jacobian
    A - diag(b f'(u)) by multigrid defect correction (_defect_correction) on
    levels sliced from the fine lattice (_multigrid), built once per call or
    once per exhaust; f(u) is evaluated once per trial point.  The iteration
    runs in the finest level's red-black order: b and the start are permuted
    into it once, A u is applied from that level's colour blocks (no row-major
    matrix is built), and the field returns to the grid's row-major order once,
    at the end.  Besides the levels and the cut arms, a solve holds b (one float
    for a constant weight), the boundary terms on the rows with a cut arm only,
    and its iterates; the start's distinct profile values are found before the
    levels are built, and nothing per node and arm is held.  At scaled
    residual r the step is solved to relative residual min(0.1, max(_FORCING,
    c r, 10 c tol / r)), c = _FORCING_SLOPE (inexact Newton: the forcing
    term is O(r), which keeps quadratic convergence); where f is affine, to
    min(_FORCING, max(0.1 tol / r, _RTOL_FLOOR)) instead.  A loose direction need not lower the
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
    require_positive_finite(tol, "tolerance")
    profile = None if u0 is not None else _boundary_profile(grid, f, bweight)
    arms, mg = _operators(grid)
    order = mg.order  # every fine vector below is in this order
    cut, const, gcut = _boundary_terms(grid, order, arms, g)  # const: rows cut only
    b = _source_b(grid, bweight)
    if np.ndim(b):
        b = b[order]
    fv = lambda u: np.asarray(f.f(np.maximum(u, 1e-12)), float)
    fpv = lambda u: np.asarray(f.f_prime(np.maximum(u, 1e-12)), float)

    if u0 is not None:
        u, start = np.asarray(u0, dtype=float)[order], "given"
    else:
        j = float(np.nanmean(gcut))
        u = None if profile is None else profile(j)
        start = "constant" if u is None else "profile"
        u = np.full(grid.n_interior, j) if u is None else u[order]
    del profile, gcut  # not held through the solve
    eps64 = 64.0 * np.finfo(float).eps

    def evaluate(uv):
        """(residual, scaled max-norm, whether it is round-off) at uv; f is evaluated once."""
        bf = b * fv(uv)
        res_vec = _apply(mg, uv)
        res_vec[cut] += const
        res_vec -= bf
        floor = _abs_diag_times(mg, uv)
        floor[cut] += np.abs(const)
        floor += bf
        floor *= eps64
        scaled = np.abs(res_vec)
        at_floor = bool(np.all(scaled <= floor))
        bf += 1.0
        scaled /= bf
        return res_vec, float(np.max(scaled)), at_floor

    res, norm, at_floor = evaluate(u)
    history = [norm]
    factorizations = cycles = 0
    tight = False  # a loose step was refined and no full step has been taken since
    for _ in range(_MAX_NEWTON):
        if norm <= tol or at_floor:
            break
        bfp = b * fpv(u)
        if _affine(fpv, b, u, bfp):
            # f is affine here, so the Newton model is exact: solve the step far
            # enough to finish, as a linear problem should in one step
            rtol = min(_FORCING, max(0.1 * tol / norm, _RTOL_FLOOR))
        elif tight:
            rtol = _FORCING
        else:  # inexact Newton: the forcing term falls with the residual
            rtol = min(0.1, max(_FORCING, _FORCING_SLOPE * max(norm, 10.0 * tol / norm)))
        try:
            solve = _defect_correction(bfp, mg, -res)
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
            u_try = delta * step
            u_try += u
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
        raise SolveFailure(f"Newton did not converge in {_MAX_NEWTON} steps", residuals=history)

    return grid.with_values(_row_major(mg, u), meta={
        **grid.meta, "tol": tol, "newton_iters": len(history) - 1,
        "factorizations": factorizations, "cycles": cycles, "start": start,
        "residual_history": history})


def exhaust(grid: Field2D, f: Nonlinearity, bweight: Weight, j_schedule, tol):
    """Increasing boundary-data sweep with continuation; returns (limit, diagnostics).

    Each level starts from the boundary profile for its j, raised to the
    previous level where that is higher (both are subsolutions of the
    level's continuous problem), or from the previous level alone when
    there is no profile.  Every j shares one set of cut arms and one
    multigrid hierarchy, whose finest level is the Shortley-Weller operator,
    built here once for the grid.
    Diagnostics track per-step increment bounds, the interior Cauchy ratio
    on the core region d >= 0.2 * diam, and per level the Newton steps,
    coarsest-level factorizations and V-cycles.  A SolveFailure
    carries the levels finished before it in ``partial``.
    """
    js = require_schedule(j_schedule)
    diam = 2.0 * max(grid.domain.half_extents)
    core = grid.node_d >= 0.2 * diam
    profile = _boundary_profile(grid, f, bweight)
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
                fld = solve_dirichlet(grid, f, bweight, j, tol, u0=u0)
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


def asymptotics_report_2d(fld: Field2D, p: ProfileFns, xi, bin_edges, prev_values=None):
    """Per-bin min/median/max of u / phi(xi M(d)) over the nodes in each [lo, hi) of bin_edges.

    When the previous exhaustion iterate is supplied, bins where the median
    ratio still moves by more than 1% are flagged as truncation-dominated.
    Raises ReportTruncated, with the rows so far, at the first empty bin.
    """
    d = fld.node_d
    u = fld.interior_values()
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
