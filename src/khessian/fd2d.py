"""2d finite-difference solver for the Laplacian case (order k = 1).

Damped Newton on the Shortley-Weller 5-point discretisation of Delta u = b(d(x)) f(u),
started from the paper's boundary profile phi(xi M(d) + Phi(j)) shifted to equal the mean
boundary value j on the boundary, or from the constant j where that profile is not
defined.  Each Newton step is solved by multigrid iteration, only as far as the Newton
residual needs (inexact Newton, Dembo, Eisenstat & Steihaug 1982): the forcing tolerance
is proportional to the residual, tightened to 1e-6 when a loose direction fails to
descend.  Multigrid is a stationary iteration, x <- x + M (b - J x), and a V-cycle run on
the iterate itself gives that update (Trottenberg, Oosterlee & Schueller, Multigrid,
2001): each cycle works in place on the step's iterate, its red residual built in the
iterate's red half, which the post-sweep sets anew, and the residual's norm is built a
sublattice at a time.  So a solve holds four fine vectors: the Newton iterate u, b f'(u),
the step's right-hand side and its iterate.  The multigrid is matrix-free: level l holds
the fine nodes whose lattice coordinates 2^l divides, on a lattice box stored as its four
parity sublattices, applies the uniform stencil of spacing 2^l h by array slices and
recomputes the rows with a cut arm, which with its node mask is all it holds.  The Newton
loop runs on the finest box.  Levels are shifted by the Galerkin diagonal of b f'(u),
smoothed by red-black Gauss-Seidel and linked by full weighting and bilinear
prolongation.  Each step overwrites every level's shift, b f'(u) itself on the finest,
with its inverse diagonal 1 / (D - s), which the sweeps multiply by.  Only the coarsest
level, at most 600 unknowns, is a matrix: a band in LAPACK's storage, row-major with
half-bandwidth about its width in nodes, factored once per step by the banded LU dgbtrf
and solved once per V-cycle by dgbtrs.  scipy.sparse serves the reference
assemble_operator alone.  The hierarchy (_multigrid), with the grid's cut arms grouped
by the finest level's cut rows, depends on the grid alone: solve_dirichlet takes it as an
argument or builds it, and exhaust builds it once for all its boundary values.  The
orders k >= 2 are handled radially elsewhere.  Levels and the band's order are fixed, so
identical inputs give bit-identical fields on one machine.
"""

import math
from dataclasses import dataclass, field
import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import (ConditionViolation, KellerOssermanViolation, ParameterError,
                     ReportTruncated, SolveFailure, require_positive_finite, require_schedule)
from .grid2d import Field2D
from .nonlinearity import Nonlinearity, Weight
from .profiles import ProfileFns, assemble_profile, predicted_profile, xi_bounds

__all__ = ["assemble_operator", "solve_dirichlet", "exhaust", "Report2D", "asymptotics_report_2d"]

_K_ORDER = 1  # this module is the k = 1 lane
# unknowns on the coarsest multigrid level, the one factored: its band, about 3 sqrt(n) by
# n, is factored in about a millisecond.  A cap below 535 would coarsen Ellipse(1.2, 1) at
# h = 1/48 down to spacing 1/6, where a V-cycle contracts at 0.21 instead of 0.16
_COARSE_MAX = 600
_FORCING = 1e-6  # tightest relative residual a Newton step is solved to
# c: a step is solved to c times the larger of the scaled Newton residual r and 10 tol / r,
# between _FORCING and 0.1; c = 0 solves every step to _FORCING
_FORCING_SLOPE = 0.01
# V-cycle iteration stalls at 1e-15 to 7e-13 relative on these grids (smooth right-hand
# sides at h = 1/256 the highest): stay above
_RTOL_FLOOR = 1e-11
_MAX_CYCLES = 100  # V-cycles before a Newton step fails
_MAX_NEWTON = 100  # Newton steps before a solve fails


# stencil tables list a node's neighbours S, W, E, N, in increasing column order, and a
# matrix row stores them S, W, diagonal, E, N; arms are taken E, W, N, S (_DIRS), which
# _ARMS picks out of a table
_DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
_ARMS = [2, 1, 3, 0]


def _weights(arm, h):
    """(off, diag): Shortley-Weller weights, S, W, E, N, of nodes with arm fractions arm."""
    aE, aW, aN, aS = (arm[:, t] * h for t in range(4))
    return (np.column_stack([2.0 / (aS * (aN + aS)), 2.0 / (aW * (aE + aW)),
                             2.0 / (aE * (aE + aW)), 2.0 / (aN * (aN + aS))]),
            -(2.0 / (aE * aW) + 2.0 / (aN * aS)))


def _entries(cols, cut, off, diag, h):
    """(vals, cols): _stencil's rows as matrix entries S, W, diagonal, E, N, and their
    columns, -1 for an absent neighbour.  Rows not in cut take 1/h^2 and -4/h^2."""
    n, inv = len(cols), 1.0 / (h * h)
    vals = np.full((n, 5), inv)
    vals[:, 2] = -4.0 * inv
    vals[cut] = np.insert(off, 2, diag, axis=1)
    return vals, np.insert(cols, 2, np.arange(n, dtype=np.int32), axis=1)


def _operator(cols, cut, off, diag, h):
    """CSR matrix of _stencil's (cols, cut, off, diag), its rows stored S, W, diagonal, E, N;
    entries of absent neighbours are left out."""
    import scipy.sparse as sp  # the reference matrix alone: a solve never loads it

    vals, cols = _entries(cols, cut, off, diag, h)
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(len(cols), len(cols)))


def _band(cols, cut, off, diag, h, s):
    """_operator's matrix minus diag(s) in LAPACK's band storage, as dgbtrf takes it:
    (3 kl + 1, n) in Fortran order, kl the half-bandwidth, A[i, j] at [2 kl + i - j, j];
    the first kl rows are left 0 for the factor's fill."""
    vals, cols = _entries(cols, cut, off, diag, h)
    row, t = np.nonzero(cols >= 0)
    col = cols[row, t]
    kl = int(np.max(np.abs(row - col)))
    band = np.zeros((3 * kl + 1, len(cols)), order="F")
    band[2 * kl + row - col, col] = vals[row, t]
    band[2 * kl] -= s
    return band


def _stencil(domain, h, lx, ly):
    """Shortley-Weller stencil of spacing h at the nodes at lattice (lx, ly), row-major.

    Returns (cols, cut, off, diag, arms): cols[i] numbers node i's neighbours S, W, E, N
    (-1: none); cut, the rows with a cut arm, ascending, and their weights S, W, E, N and
    diagonal, the only rows not at 1/h^2 and -4/h^2 (which _weights gives for four unit
    arms); and the cut arms (row_of, t, theta, weight): row, as a place in cut, and
    direction (_DIRS) of each arm whose neighbour is not a node, E, W, N, S within a row,
    its fraction from domain.arm_fraction and the weight that multiplies the boundary
    value at its end.
    """
    x0, y0 = lx.min() - 1, ly.min() - 1
    width = lx.max() + 2 - x0
    at = (ly - y0) * width + (lx - x0)  # node i's place in table, a box with margin 1
    table = np.full((ly.max() + 2 - y0) * width, -1, dtype=np.int32)
    table[at] = np.arange(lx.size, dtype=np.int32)
    cols = np.column_stack([table.take(at + step) for step in (-width, -1, 1, width)])
    rows, t = np.nonzero(cols[:, _ARMS] < 0)
    theta = domain.arm_fraction(lx[rows] * h, ly[rows] * h, *_DIRS[t].T, h)
    cut, row_of = np.unique(rows, return_inverse=True)
    arm = np.ones((cut.size, 4))
    arm[row_of, t] = theta
    off, diag = _weights(arm, h)
    return cols, cut, off, diag, (row_of, t, theta, off[row_of, np.take(_ARMS, t)])


def _boundary_terms(grid: Field2D, cut, arms, g):
    """(const, gcut): the boundary terms on the cut arms alone, none per node and arm.

    cut are the rows with a cut arm, as node numbers, and arms their cut arms as _stencil
    gives them, each row a place in cut; const are the rows' known boundary contributions,
    in cut's order, weight * g summed over a row's arms in arm order; gcut g at each cut
    arm, in arm order, evaluated once at the arms' ends x0 + theta h (dx, dy).
    """
    row_of, t, theta, weight = arms
    if callable(g):
        rows, (dx, dy), step = cut[row_of], _DIRS[t].T, theta * grid.h
        g = g(grid.lx[rows] * grid.h + step * dx, grid.ly[rows] * grid.h + step * dy)
    gcut = np.broadcast_to(np.asarray(g, float), row_of.shape)
    const = np.zeros(cut.size)
    np.add.at(const, row_of, weight * np.nan_to_num(gcut))  # in arm order, as a row sum
    return const, gcut


def assemble_operator(grid: Field2D, g):
    """Shortley-Weller Laplacian: (A, const, gvals), all in row-major order: the reference.

    A is the stencil on the interior unknowns as one CSR matrix, diagonal included and
    cut arms dropped; const carries the known boundary contributions, so A u + const
    approximates Delta u; gvals[i, t] is g at the end of node i's arm t (E, W, N, S), NaN
    where the arm is not cut.  solve_dirichlet applies the same stencil by array slices
    (_Level) and keeps the boundary terms on the cut arms (_boundary_terms).
    """
    cols, cut, off, diag, arms = _stencil(grid.domain, grid.h, grid.lx, grid.ly)
    const_cut, gcut = _boundary_terms(grid, cut, arms, g)
    const = np.zeros(grid.n_interior)
    const[cut] = const_cut
    gvals = np.full((grid.n_interior, 4), np.nan)
    gvals[cut[arms[0]], arms[1]] = gcut
    return _operator(cols, cut, off, diag, grid.h), const, gvals


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


# a level's vectors live on a lattice box held as its parity sublattices, red (x + y even)
# first: _SUB[k] is sublattice k's parity (y, x), _SUB_X[k], _SUB_Y[k] its E-W, N-S neighbours
_SUB = ((0, 0), (1, 1), (0, 1), (1, 0))
_SUB_X, _SUB_Y = (2, 3, 0, 1), (3, 2, 1, 0)
_OF_PARITY = np.array([[0, 2], [3, 1]])  # the sublattice of parity (y, x)
_COLOURS = (slice(0, 2), slice(2, 4))  # the sublattices of the red and of the black cells


def _parity(box):
    """The natural box (2 my, 2 mx), row-major on the lattice, as its sublattices (4, my, mx)."""
    return np.stack([box[p::2, q::2] for p, q in _SUB])


def _natural(V):
    """The natural box of the sublattices V: the inverse of _parity."""
    box = np.empty((2 * V.shape[1], 2 * V.shape[2]), V.dtype)
    for (p, q), v in zip(_SUB, V):
        box[p::2, q::2] = v
    return box


def _window(V, oy, ox, my, mx):
    """The natural box of the sublattices V from its place (oy, ox) on, my by mx, read off V."""
    out = np.empty((my, mx))
    for (p, q), v in zip(_SUB, V):
        a, c = (p - oy) & 1, (q - ox) & 1  # out's rows a::2 and columns c::2 have parity (p, q)
        out[a::2, c::2] = v[(oy + a) >> 1:, (ox + c) >> 1:][:(my - a + 1) // 2, :(mx - c + 1) // 2]
    return out


def _to_box(mask, x):
    """The sublattices holding x on the nodes of the natural box mask, row-major, 0 elsewhere."""
    box = np.zeros(mask.shape)
    box[mask] = x
    return _parity(box)


@dataclass(frozen=True)
class _Level:
    """One level: its nodes on a lattice box at spacing 2^l h, and its cut rows.

    Vectors are 0 off the nodes.  Rows take the uniform weights 1/(2^l h)^2 and
    -4/(2^l h)^2 but the cut rows: their cells (flat in the sublattices, ascending; those
    of sublattice k from starts[k] to starts[k + 1]), neighbours' cells S, W, E, N (their
    own across a cut arm), weights (0 across a cut arm) and diagonal.  The next level's
    nodes are sublattice EE's, from (oy, ox) on its natural box (ny, nx); a grid that is
    its own coarsest level has no coarse_box.
    """

    mask: np.ndarray  # (4, my, mx) bool: the nodes
    inv_h2: float
    cells: np.ndarray
    nbrs: np.ndarray
    off: np.ndarray
    diag: np.ndarray
    starts: tuple
    coarse_box: tuple  # (oy, ox, ny, nx), or None


@dataclass(frozen=True)
class _Multigrid:
    """Levels of one grid, fine to coarse, the coarsest level's stencil and the cut arms.

    Level l holds the fine nodes whose lattice coordinates 2^l divides, as
    build_grid(domain, 2^l h) would, since (2^l i) h and i (2^l h) round alike.  levels
    are the smoothed ones; fine is the first, or the grid's own _Level when the grid is
    the coarsest level.  mask and coarse_mask are the finest and coarsest nodes on natural
    boxes, row-major like the grid and coarse, the coarsest level's stencil (_stencil's
    cols, cut, off and diag) and spacing, from which each step writes its band (_band).
    cut are fine's cut rows, in its order, as
    node numbers of the grid, and arms their cut arms (_stencil), each row a place in cut:
    what _boundary_terms needs.  None of it depends on f, b or g.
    """

    levels: list
    fine: _Level
    mask: np.ndarray
    coarse: tuple
    coarse_mask: np.ndarray
    cut: np.ndarray
    arms: tuple


def _cells(shape, iy, ix):
    """The flat places in the sublattices of places (iy, ix) of a natural box of this shape."""
    my, mx = shape[0] // 2, shape[1] // 2
    return (_OF_PARITY[iy & 1, ix & 1] * my + (iy >> 1)) * mx + (ix >> 1)


def _level(mask, ix, iy, stencil, h, coarse_box):
    """The _Level of the nodes at places (ix, iy) of the natural box mask, with their stencil."""
    cols, cut, off, diag = stencil
    cells = _cells(mask.shape, iy, ix)  # per node
    cols, own = cols[cut], cells[cut]
    present, order = cols >= 0, np.argsort(own)
    nbrs, own = np.where(present, cells[cols], own[:, None]), own[order]
    return _Level(mask=_parity(mask), inv_h2=1.0 / (h * h), cells=own, nbrs=nbrs[order],
                  off=np.where(present, off, 0.0)[order], diag=diag[order],
                  starts=tuple(np.searchsorted(own, np.arange(5) * (mask.size // 4)).tolist()),
                  coarse_box=coarse_box)


def _multigrid(grid: Field2D):
    """The _Multigrid of grid: its hierarchy down to <= _COARSE_MAX unknowns, built once.

    Each level is the even sublattice of the one above, halved, on a natural box holding
    the finer box's EE sublattice, moved by at most one cell to start on even coordinates,
    with the cut rows of its stencil (_stencil).  No coarse grid or distance is formed,
    and no matrix: the coarsest level keeps its stencil.  The cut arms are the finest
    stencil's, their rows renumbered from row-major to the finest level's order (_level's
    argsort).
    """
    domain, h, lx, ly = grid.domain, grid.h, grid.lx, grid.ly
    x0, y0 = lx.min() & ~1, ly.min() & ~1  # natural boxes start on even coordinates
    mask = np.zeros((2 * ((ly.max() - y0) // 2 + 1), 2 * ((lx.max() - x0) // 2 + 1)), bool)
    mask[ly - y0, lx - x0] = True
    *stencil, (row_of, *arms) = _stencil(domain, h, lx, ly)
    cut = stencil[1]
    order = np.argsort(_cells(mask.shape, ly[cut] - y0, lx[cut] - x0))
    cut, arms = cut[order], (np.argsort(order)[row_of], *arms)
    levels, top = [], mask
    while lx.size > _COARSE_MAX:
        oy, ox = (y0 >> 1) & 1, (x0 >> 1) & 1
        my, mx = mask.shape[0] // 2, mask.shape[1] // 2
        box = (oy, ox, 2 * ((oy + my + 1) // 2), 2 * ((ox + mx + 1) // 2))
        levels.append(_level(mask, lx - x0, ly - y0, stencil, h, box))
        del stencil  # not held while the coarser stencil is built
        mask = np.pad(mask[::2, ::2], ((oy, box[2] - oy - my), (ox, box[3] - ox - mx)))
        even = ((lx | ly) & 1) == 0
        lx, ly, x0, y0, h = lx[even] >> 1, ly[even] >> 1, (x0 >> 1) - ox, (y0 >> 1) - oy, 2 * h
        *stencil, _ = _stencil(domain, h, lx, ly)
    fine = levels[0] if levels else _level(mask, lx - x0, ly - y0, stencil, h, None)
    return _Multigrid(levels=levels, fine=fine, mask=top, coarse=(*stencil, h),
                      coarse_mask=mask, cut=cut, arms=arms)


def _nsum(V, k, out):
    """out = the sum of the four neighbours of each cell of sublattice k of V, 0 beyond the box."""
    (p, q), X, Y = _SUB[k], V[_SUB_X[k]], V[_SUB_Y[k]]
    np.add(X, Y, out=out)  # X[i, j] is E of an even x and W of an odd one; Y likewise N, S
    if q:
        out[:, :-1] += X[:, 1:]
    else:
        out[:, 1:] += X[:, :-1]
    if p:
        out[:-1] += Y[1:]
    else:
        out[1:] += Y[:-1]
    return out


def _corners(Y):
    """Y summed at (i, j), (i, j-1), (i-1, j), (i-1, j-1), in place: on OO, EE's diagonals."""
    Y[:, 1:] += Y[:, :-1]
    Y[1:] += Y[:-1]
    return Y


def _rows(lv: _Level, part):
    """(rows, cells): the cut rows of the sublattices part (a slice), and their flat places
    in part's sublattices."""
    rows = slice(lv.starts[part.start], lv.starts[part.stop])
    return rows, lv.cells[rows] - part.start * lv.mask[0].size


def _product(lv: _Level, V, part, out):
    """out = (A - D) V on the sublattices part (a slice), D = diag A; not 0 off the nodes.

    Reads the other colour only: the uniform weight, then the cut rows exactly.
    """
    for i, k in enumerate(range(part.start, part.stop)):
        _nsum(V, k, out[i])
    out *= lv.inv_h2
    rows, cells = _rows(lv, part)
    out.reshape(-1)[cells] = np.einsum("ij,ij->i", lv.off[rows], V.reshape(-1)[lv.nbrs[rows]])
    return out


def _diagonal(lv: _Level, part, s=None):
    """The diagonal of A - diag(s) on the sublattices part (a slice); of A without a box s."""
    rows, cells = _rows(lv, part)
    if s is None:
        d = np.full(lv.mask[part].shape, -4.0 * lv.inv_h2)
        d.reshape(-1)[cells] = lv.diag[rows]
    else:
        d = np.subtract(-4.0 * lv.inv_h2, s[part])
        d.reshape(-1)[cells] = lv.diag[rows] - s[part].reshape(-1)[cells]
    return d


def _apply(lv: _Level, X, part, out, inverse=None):
    """out = (A - diag(s)) X on the sublattices part of one colour, 0 off the nodes, given
    s's inverse diagonal box 1 / (D - s) (_invert), or s = 0 without it; out may be X[part],
    which is read first."""
    if inverse is None:
        d = _diagonal(lv, part)
        d *= X[part]
    else:
        d = np.divide(X[part], inverse[part], out=np.zeros_like(X[part]), where=lv.mask[part])
    _product(lv, X, part, out)
    out += d
    out *= lv.mask[part]
    return out


def _down(lv: _Level, v):
    """The next level's box holding v, given on lv's EE cells, and 0 elsewhere."""
    oy, ox, ny, nx = lv.coarse_box
    box = np.zeros((ny, nx))
    box[oy:oy + v.shape[0], ox:ox + v.shape[1]] = v
    return _parity(box)


def _restrict(lv: _Level, red):
    """Full weighting 0.25 P^T r of a red residual r = (EE, OO) = red; overwrites red."""
    red[0] += np.multiply(_corners(red[1]), 0.25, out=red[1])
    return _down(lv, np.multiply(red[0], 0.25, out=red[0]))


def _prolong(lv: _Level, E, x):
    """x += P e on the black cells, e on the next level's box E; the post-sweep sets red."""
    oy, ox, _, _ = lv.coarse_box
    e = _window(E, oy, ox, *x.shape[1:])  # on EE's cells
    e *= 0.5
    x[2] += e  # OE lies between EE (i, j) and (i, j + 1), EO between (i, j) and (i + 1, j)
    x[2][:, :-1] += e[:, 1:]
    x[3] += e
    x[3][:-1] += e[1:]


def _squared(V):
    """diag(P^T diag(V) P): V on each EE cell, its axis neighbours / 4, diagonal ones / 16."""
    out = _nsum(V, 0, np.empty(V.shape[1:]))
    out *= 0.25
    out += V[0]
    out += 0.0625 * _corners(V[1] + 0.0)
    return out


def _shifts(mg: _Multigrid, bfp):
    """b f'(u) on every level, finest first: bfp, on the finest box, shifted down.

    Shifts are on their levels' boxes, the coarsest's row-major.  s maps down to diag(P^T
    diag(s) P) / diag(P^T P): its squared-weight restriction over that of the nodes.
    """
    shifts = [bfp]
    for lv in mg.levels:
        num, den = _squared(shifts[-1]), _squared(lv.mask.view(np.uint8))
        shifts.append(_down(lv, np.divide(num, den, out=np.zeros_like(num), where=lv.mask[0])))
    shifts[-1] = _natural(shifts[-1])[mg.coarse_mask]
    return shifts


def _invert(mg: _Multigrid, bfp, shifts):
    """Overwrite each level's shift box of _shifts, bfp the finest's, with its inverse
    diagonal 1 / (D - s) on the level's nodes, 0 elsewhere, one colour at a time."""
    for lv, s in zip([mg.fine, *mg.levels[1:]], [bfp, *shifts[1:-1]]):
        for part in _COLOURS:
            np.divide(lv.mask[part], _diagonal(lv, part, s), out=s[part])


def _sweep(lv: _Level, x, r, inverse, colour):
    """Gauss-Seidel on one colour's cells: x = (r - (A - D) x) / (D - s) there, the level's
    inverse diagonal box 1 / (D - s) given (_invert)."""
    part = _COLOURS[colour]
    out = _product(lv, x, part, x[part])  # reads the other colour only
    np.subtract(r[part], out, out=out)
    out *= inverse[part]


def _vcycle(levels, inverses, coarse, r, x=None):
    """One V-cycle for J x = r on the top level's box: x + M (r - J x) in place, or M r.

    x is None for a cycle from x = 0, which returns a new x.  One red-black Gauss-Seidel
    sweep (``inverses``: the levels' 1 / (D - s)) before and after the coarse correction on
    every level, and the coarsest level's solve ``coarse``, whose new vector is returned when
    there are no levels.  After the pre-sweep the black residual is zero, so only the red
    one is restricted: it is built in x's red half, which the post-sweep sets anew.  From
    x = 0 it is -A_rb x_b, and coarser levels start from 0.  M is a fixed linear map,
    exact when there are no levels.
    """
    if not levels:
        return coarse(r)
    lv, inv = levels[0], inverses[0]
    if x is None:  # the red sweep from x = 0; the black sweep sets the black cells
        x = np.empty_like(r)
        np.multiply(r[:2], inv[:2], out=x[:2])
        _sweep(lv, x, r, inv, 1)
        red = np.negative(_product(lv, x, _COLOURS[0], x[:2]), out=x[:2])
        red *= lv.mask[:2]
    else:
        _sweep(lv, x, r, inv, 0)
        _sweep(lv, x, r, inv, 1)
        red = np.subtract(r[:2], _apply(lv, x, _COLOURS[0], x[:2], inv), out=x[:2])
    _prolong(lv, _vcycle(levels[1:], inverses[1:], coarse, _restrict(lv, red)), x)
    _sweep(lv, x, r, inv, 0)
    _sweep(lv, x, r, inv, 1)
    return x


def splu(band):
    """(lu, piv): the banded LU of LAPACK's dgbtrf of band (_band), which it overwrites;
    SolveFailure if a pivot is exactly zero.

    The coarsest level's factorization, made once per Newton step.  It keeps the name
    that perfbench/tracer.py wraps to time and count the factorizations (fd2d.factor_s,
    fd2d.factorizations); the rename waits for the run trace of ROADMAP item 3.
    """
    kl = band.shape[0] // 3
    lu, piv, info = dgbtrf(band, kl, kl, overwrite_ab=1)
    if info != 0:
        raise SolveFailure(f"coarsest-level Jacobian factorization failed (dgbtrf info {info})")
    return lu, piv


def _coarse_lu(mg: _Multigrid, shifts):
    """splu of the coarsest level's band shifted by shifts[-1]; SolveFailure if it fails."""
    return splu(_band(*mg.coarse, shifts[-1]))


def _cycle(mg: _Multigrid, inverses, coarse_lu):
    """One V-cycle for A - diag(s) on the finest box, inverses its levels' 1 / (D - s)
    (_invert): (r, x=None) -> _vcycle's x; the coarsest level's solve is dgbtrs on
    coarse_lu."""
    lu, piv = coarse_lu
    kl = lu.shape[0] // 3

    def coarse(r):
        x = dgbtrs(lu, kl, kl, _natural(r)[mg.coarse_mask], piv, overwrite_b=1)[0]
        return _to_box(mg.coarse_mask, x)

    return lambda r, x=None: _vcycle(mg.levels, inverses, coarse, r, x)


def _defect_correction(mg: _Multigrid):
    """Multigrid iteration for (A - diag(bfp)) x = rhs: one V-cycle on x per iteration.

    Returns solve(bfp, rhs, rtol) -> (x, cycles), on the finest box; x is the iterate, which
    the next call continues.  From x = 0, or from the last x, the V-cycle takes x to
    x + M (rhs - J x) in place (_vcycle) until ||rhs - J x||_2 <= rtol ||rhs||_2, at least
    one cycle in all; cycles counts every cycle so far.  The residual is built a
    sublattice at a time for its norm alone, so the iteration holds x beside bfp and rhs
    and no other fine box.  Every call takes the same bfp and rhs, overwrites bfp with
    the finest level's inverse diagonal (_invert), holds neither once it returns and runs
    on the first's coarsest LU.  Raises SolveFailure when the factorization fails, a
    residual is not finite or _MAX_CYCLES cycles in all miss rtol.
    """
    coarse_lu = last = None  # last: the (x, cycles) of the last call

    def solve(bfp, rhs, rtol):
        nonlocal coarse_lu, last
        shifts = _shifts(mg, bfp)
        if coarse_lu is None:
            coarse_lu = _coarse_lu(mg, shifts)
        _invert(mg, bfp, shifts)  # bfp is the finest level's 1 / (D - b f'(u)) from here
        cycle = _cycle(mg, shifts, coarse_lu)

        def residual_norm(x):
            """||rhs - J x||_2, built a sublattice at a time in a buffer of its own."""
            r, total = np.empty_like(rhs[:1]), 0.0
            for k in range(4):
                np.subtract(rhs[k], _apply(mg.fine, x, slice(k, k + 1), r, bfp), out=r)
                total += np.einsum("ijk,ijk->", r, r)
            return math.sqrt(total)

        # 2-norms by einsum: BLAS's threaded dot can stall for milliseconds on a busy host
        scale = math.sqrt(np.einsum("i,i->", rhs.ravel(), rhs.ravel()))
        x, cycles = (None, 0) if last is None else last
        if cycles:  # the same iterate as at the end of the last call, bit for bit
            norm = residual_norm(x)
        while cycles == 0 or norm > rtol * scale:
            if cycles == _MAX_CYCLES:
                raise SolveFailure(f"V-cycle iteration missed rtol {rtol:.1e} in {_MAX_CYCLES} "
                                   f"cycles (relative residual {norm / scale:.2e})")
            x = cycle(rhs, x)
            norm = residual_norm(x)
            cycles += 1
            if not math.isfinite(norm):
                raise SolveFailure(
                    f"V-cycle iteration gave a non-finite residual in cycle {cycles}")
        last = (x, cycles)
        return x, cycles

    return solve


def _times_b(fun, b, U, nodes):
    """b fun(max(U, 1e-12)) on nodes, 0 off them: U, nodes and b (or a float) alike shaped."""
    out = b * np.asarray(fun(np.maximum(U, 1e-12)), float)
    np.copyto(out, 0.0, where=~nodes)
    return out


def _affine(fun, b, U, bfp, nodes):
    """Whether b f'(u + 1) equals bfp = b f'(u) at every node, fun = f', a sublattice at a time."""
    return all(np.array_equal(bfp[k], _times_b(fun, b if np.ndim(b) == 0 else b[k], U[k] + 1.0,
                                               nodes[k])) for k in range(4))


def solve_dirichlet(grid: Field2D, f: Nonlinearity, bweight: Weight, g, tol, u0=None, *,
                    multigrid=None):
    """Solve Delta u = b f(u) with Dirichlet data g; returns a new Field2D.

    The source is b = b_lower m(d)^2 from the weight (_source_b).  Damped Newton to
    residual max-norm <= tol, in at most _MAX_NEWTON steps, from u0, or else from the
    boundary profile phi(xi M(d) + Phi(j)) with j the mean boundary value
    (_boundary_profile), or the constant j when the profile does not exist or j <= 0.
    Each step solves with the Jacobian A - diag(b f'(u)), never assembled, by multigrid
    iteration (_defect_correction: V-cycles in place on the step's iterate) on the levels
    of multigrid, the grid's hierarchy _multigrid(grid), which a caller with several
    solves on one grid builds once and passes (exhaust does), and which is built here
    when it is None; a step changes only their shifts.  The Newton loop runs on the
    finest box (mg.fine), 0 off the nodes: the start goes in and the field comes out
    row-major once each.  The residual is built in place, a sublattice at a time with its
    round-off floor and scaled norm, and is the next step's right-hand side.  Besides the
    hierarchy a solve holds b (one float for a constant weight), the boundary terms of
    the cut rows and four fine boxes: u, b f'(u), the right-hand side and the step's
    iterate in the V-cycles; u, the step, the trial point and its residual in the line
    search, which holds neither a step's b f'(u) nor its right-hand side.  At scaled residual r a step is solved to relative residual
    min(0.1, max(_FORCING, c r, 10 c tol / r)), c = _FORCING_SLOPE (inexact Newton: the
    forcing term is O(r), which keeps quadratic convergence); where f is affine, to
    min(_FORCING, max(0.1 tol / r, _RTOL_FLOOR)).  When a loose direction's full step
    does not lower the max-norm residual, its iteration continues to _FORCING on the same
    coarsest LU and the line search restarts, and later steps are solved to _FORCING
    until a full step is taken.  A failed coarsest
    factorization, a non-finite cycle residual or _MAX_CYCLES cycles short of the step's
    tolerance raise SolveFailure with the Newton residual history so far.  Residuals are
    scaled by 1 + b f(u) per node: with exponential sources the raw residual sits at
    eps * b f(u) near the boundary.  meta records newton_iters, factorizations
    (coarsest-level LUs, one per step), cycles (V-cycles over all steps) and start
    ("profile", "constant" or "given").
    """
    require_positive_finite(tol, "tolerance")
    profile = None if u0 is not None else _boundary_profile(grid, f, bweight)
    mg = _multigrid(grid) if multigrid is None else multigrid
    const, gcut = _boundary_terms(grid, mg.cut, mg.arms, g)  # the fine level's cut rows only
    b = _source_b(grid, bweight)
    start = "given"
    if u0 is None:
        j = float(np.nanmean(gcut))
        u0 = None if profile is None else profile(j)
        start, u0 = ("constant", j) if u0 is None else ("profile", u0)
    u = _to_box(mg.mask, u0)  # the start goes into the box once
    b = b if np.ndim(b) == 0 else _to_box(mg.mask, b)
    del profile, gcut, u0  # not held through the solve
    fine = mg.fine
    nodes, eps64 = fine.mask, 64.0 * np.finfo(float).eps

    def evaluate(U):
        """(residual, scaled max-norm, whether it is round-off) at U, a sublattice at a time.

        f is evaluated once; the round-off floor is 64 eps (|D u| + |const| + b f(u)).
        """
        res, scaled, at_floor = np.empty_like(U), [], True
        for k in range(4):
            part = slice(k, k + 1)
            rows, cells = _rows(fine, part)
            r = _apply(fine, U, part, res[part])[0]
            r.reshape(-1)[cells] += const[rows]
            bf = _times_b(f.f, b if np.ndim(b) == 0 else b[k], U[k], nodes[k])
            r -= bf
            if at_floor:  # until a cell is above its floor
                floor = _diagonal(fine, part)[0]
                floor *= U[k]
                np.abs(floor, out=floor)
                floor.reshape(-1)[cells] += np.abs(const[rows])
                floor += bf
                floor *= eps64
                at_floor = bool(np.all(np.abs(r) <= floor))
            bf += 1.0
            scaled.append(np.max(np.abs(np.divide(r, bf, out=bf), out=bf)))  # |r| / (1 + b f(u))
        return res, float(np.max(scaled)), at_floor

    res, norm, at_floor = evaluate(u)
    history = [norm]
    factorizations = cycles = 0
    tight = False  # a loose step was refined and no full step has been taken since
    try:
        for _ in range(_MAX_NEWTON):
            if norm <= tol or at_floor:
                break
            bfp = _times_b(f.f_prime, b, u, nodes)
            if _affine(f.f_prime, b, u, bfp, nodes):
                # f is affine here, so the Newton model is exact: solve the step far
                # enough to finish, as a linear problem should in one step
                rtol = min(_FORCING, max(0.1 * tol / norm, _RTOL_FLOOR))
            elif tight:
                rtol = _FORCING
            else:  # inexact Newton: the forcing term falls with the residual
                rtol = min(0.1, max(_FORCING, _FORCING_SLOPE * max(norm, 10.0 * tol / norm)))
            solve = _defect_correction(mg)
            delta, step_cycles = solve(bfp, np.negative(res, out=res), rtol)
            del res, bfp  # not held through the line search
            if rtol <= _FORCING:
                solve = None  # nothing to refine
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
                    # same coarsest LU, to _FORCING and search again from the full step;
                    # its bfp and rhs are recomputed from u, bit for bit
                    del u_try, res_try
                    rhs = evaluate(u)[0]
                    delta, total = solve(_times_b(f.f_prime, b, u, nodes),
                                         np.negative(rhs, out=rhs), _FORCING)
                    del rhs
                    cycles += total - step_cycles
                    solve, tight = None, True
                    continue
                step *= 0.5
            else:
                if at_floor:
                    break  # residual is pure round-off; nothing left to gain
                raise SolveFailure(f"Newton damping floor reached (residual {norm:.3g})")
            tight = tight and step < 1.0
            u, res, norm, at_floor = u_try, res_try, norm_try, floor_try
            del delta, solve, u_try, res_try  # not held through the next step's solve
            history.append(norm)
        else:
            raise SolveFailure(f"Newton did not converge in {_MAX_NEWTON} steps")
    except SolveFailure as exc:
        exc.residuals = list(history)
        raise

    return grid.with_values(_natural(u)[mg.mask], meta={  # row-major once, at the end
        **grid.meta, "tol": tol, "newton_iters": len(history) - 1,
        "factorizations": factorizations, "cycles": cycles, "start": start,
        "residual_history": history})


def exhaust(grid: Field2D, f: Nonlinearity, bweight: Weight, j_schedule, tol):
    """Increasing boundary-data sweep with continuation; returns (limit, diagnostics).

    Each level starts from the boundary profile for its j, raised to the previous level
    where that is higher (both are subsolutions of the level's continuous problem), or
    from the previous level alone when there is no profile.  The grid's multigrid
    hierarchy and cut arms (_multigrid) are built here once and passed to the solve of
    every j.  Diagnostics track the smallest increment per step, the interior Cauchy
    ratio on the core region d >= 0.2 * diam, and per level the Newton steps,
    coarsest-level factorizations and V-cycles.  A SolveFailure carries the levels finished before it in ``partial``.
    """
    js = require_schedule(j_schedule)
    diam = 2.0 * max(grid.domain.half_extents)
    core = grid.node_d >= 0.2 * diam
    profile = _boundary_profile(grid, f, bweight)
    fields, u_prev = [], None
    diags = {"j": [], "increment_min": [], "core_increment": [], "cauchy_ratio": [],
             "center_value": [], "newton_iters": [], "factorizations": [], "cycles": []}
    center = int(np.argmax(grid.node_d))

    def start(j):  # the level's Newton start, made in the call so that only the solve holds it
        u0 = None if profile is None else profile(j)
        return u_prev if u0 is None else u0 if u_prev is None else np.maximum(u_prev, u0)

    mg = _multigrid(grid)  # one hierarchy for every j
    for j in js:
        try:
            fld = solve_dirichlet(grid, f, bweight, j, tol, u0=start(j), multigrid=mg)
        except SolveFailure as exc:
            exc.partial = fields  # completed levels so far
            raise
        u = fld.interior_values()
        diags["j"].append(j)
        diags["center_value"].append(float(u[center]))
        for key in ("newton_iters", "factorizations", "cycles"):
            diags[key].append(fld.meta[key])
        if u_prev is not None:
            inc = u - u_prev
            diags["increment_min"].append(float(inc.min()))
            diags["core_increment"].append(
                float(np.max(np.abs(inc[core]))) if core.any() else math.nan)
            del inc  # not held through the next level's solve
            steps = diags["core_increment"]
            if len(steps) >= 2 and steps[-2] > 0:
                diags["cauchy_ratio"].append(steps[-1] / steps[-2])
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
    d, u = fld.node_d, fld.interior_values()
    bin_edges = np.asarray(bin_edges, dtype=float)
    rows, flags = [], []
    for lo, hi in zip(bin_edges[:-1], bin_edges[1:]):
        sel = (d >= lo) & (d < hi)
        if not sel.any():
            raise ReportTruncated(
                f"empty collar bin [{lo:.3g}, {hi:.3g})",
                rows=np.array(rows) if rows else np.empty((0, 6)),
            )
        pred = predicted_profile(p, xi, d[sel])
        ratio = u[sel] / pred
        median = np.median(ratio)
        rows.append((lo, hi, int(sel.sum()), float(ratio.min()), float(median), float(ratio.max())))
        flags.append(prev_values is not None and bool(
            abs(median - np.median(prev_values[sel] / pred)) > 0.01 * abs(median)))
    return Report2D(bins=np.array(rows), flagged=np.array(flags),
                    meta={"xi": xi, "bin_edges": bin_edges.tolist()})
