"""The multigrid layer of the 2d solver: levels, V-cycle and the Newton-multigrid solve."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrs
from scipy.sparse.linalg import splu, spsolve

from khessian import fd2d, grid2d
from khessian.fd2d import assemble_operator, exhaust, solve_dirichlet
from khessian.grid2d import Disk, Ellipse, build_grid
from khessian.nonlinearity import Nonlinearity, Weight

W1 = Weight.constant(1.0)
EXP2 = Nonlinearity.exponential(2)


def liouville_g(x, y):
    r2 = np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2
    return np.log(2.0 / (1.0 - r2))


def lattice(grid):
    return (np.rint(grid.node_x / grid.h).astype(np.int64),
            np.rint(grid.node_y / grid.h).astype(np.int64))


def jacobian(grid, g, u):
    """A - diag(b f'(u)) for f = e^{2u}, b = 1, written out here."""
    A = assemble_operator(grid, g)[0]
    return (A - sp.diags(2.0 * np.exp(2.0 * u))).tocsr()


def prolongation(lx, ly):
    """(P, cx, cy): bilinear prolongation from the even sublattice of the nodes at (lx, ly).

    P maps the nodes with even coordinates, at coarse lattice (cx, cy) = (lx, ly) / 2, to all
    nodes, both row-major; an absent coarse node gives zero, as on the boundary.  Written
    out here: each node looks its coarse corners up among the sorted coarse keys.
    """
    even = ((lx | ly) & 1) == 0
    cx, cy = lx[even] >> 1, ly[even] >> 1
    key = lambda x, y: (y + 2**20) * 2**21 + (x + 2**20)  # ascending in row-major order
    keys = key(cx, cy)
    rows, cols, vals = [], [], []
    for ex, wx in ((lx >> 1, np.where(lx & 1, 0.5, 1.0)), ((lx + 1) >> 1, 0.5 * (lx & 1))):
        for ey, wy in ((ly >> 1, np.where(ly & 1, 0.5, 1.0)), ((ly + 1) >> 1, 0.5 * (ly & 1))):
            at = np.minimum(np.searchsorted(keys, key(ex, ey)), keys.size - 1)
            hit = (keys[at] == key(ex, ey)) & (wx * wy > 0.0)
            rows.append(np.flatnonzero(hit))
            cols.append(at[hit])
            vals.append((wx * wy)[hit])
    P = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(lx.size, cx.size))
    return P, cx, cy


def row_major(mask, X):
    """X, on the sublattices of the natural box mask, at the nodes of mask, row-major."""
    return fd2d._natural(X)[mask]


def natural_masks(mg):
    """The natural node masks of every level of mg, finest first, the coarsest's last."""
    return [fd2d._natural(lv.mask) for lv in mg.levels] + [mg.coarse_mask]


def unband(band):
    """The dense matrix of a band in dgbtrf's storage: A[i, j] at [2 kl + i - j, j]."""
    kl, n = band.shape[0] // 3, band.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= kl
    A = np.zeros((n, n))
    A[inside] = band[2 * kl + (i - j)[inside], j[inside]]
    return A


def check_band(band, A):
    """band stores exactly the sparse matrix A, in Fortran order, with its first kl rows 0."""
    kl = band.shape[0] // 3
    assert band.shape == (3 * kl + 1, A.shape[0]) and band.flags.f_contiguous
    assert not np.any(band[:kl])
    assert np.array_equal(unband(band), A.toarray())


def inverted(mg, bfp):
    """The levels' inverse diagonal boxes (fd2d._invert) for A - diag(bfp), bfp row-major,
    with the shifts' coarsest vector last, as a solve hands them to its V-cycles."""
    box = fd2d._to_box(mg.mask, bfp)
    shifts = fd2d._shifts(mg, box)
    fd2d._invert(mg, box, shifts)
    return shifts


def level_apply(lv, X):
    """A_l X on the level's box, a sublattice at a time, as a solve builds its residuals."""
    out = np.empty_like(X)
    for k in range(4):
        fd2d._apply(lv, X, slice(k, k + 1), out[k:k + 1])
    return out


def preconditioner(mg, bfp):
    """One V-cycle for A - diag(bfp) as a function of the residual, both row-major; the
    cycle itself runs on the finest box, as in a solve."""
    shifts = inverted(mg, bfp)
    cycle = fd2d._cycle(mg, shifts, fd2d._coarse_lu(mg, shifts))
    return lambda r: row_major(mg.mask, cycle(fd2d._to_box(mg.mask, r)))


def newton_direction(bfp, mg, rhs, rtol):
    """(x, cycles) solving (A - diag(bfp)) x = rhs to relative residual rtol, bfp, rhs and x
    row-major, as one Newton step does: one call of fd2d._defect_correction's solve, which
    takes and returns boxes."""
    x, cycles = fd2d._defect_correction(mg)(fd2d._to_box(mg.mask, bfp),
                                            fd2d._to_box(mg.mask, rhs), rtol)
    return row_major(mg.mask, x), cycles


def check_levels(domain, h, seed):
    """Every level of grid(domain, h) against build_grid(domain, 2^l h) and written-out matrices.

    The level's stencil on a random vector equals the CSR product of assemble_operator;
    the prolongation equals P (prolongation()) on the black rows, the only ones the
    V-cycle adds to; the restriction of a red residual equals 0.25 P[red]^T; the shifts
    equal diag(P^T diag(s) P) / diag(P^T P).  All to 1e-13 relative; the coarsest
    level's band holds assemble_operator's matrix exactly.  Returns the number of levels.
    """
    mg = fd2d._multigrid(build_grid(domain, h))
    masks = natural_masks(mg)
    rng = np.random.default_rng(seed)
    close = lambda got, want: np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)),
                                                                         1e-300)
    s = rng.uniform(0.0, 1e4, int(masks[0].sum()))
    shifts = fd2d._shifts(mg, fd2d._to_box(masks[0], s))
    for level, lv in enumerate(mg.levels):
        grid = build_grid(domain, 2**level * h)
        lx, ly = lattice(grid)
        mask, coarse_mask = masks[level], masks[level + 1]
        v = rng.standard_normal(grid.n_interior)
        V = fd2d._to_box(mask, v)
        got = row_major(mask, level_apply(lv, V))
        assert close(got, assemble_operator(grid, 0.0)[0] @ v)
        P, cx, cy = prolongation(lx, ly)
        black = ((lx + ly) & 1) == 1
        e = rng.standard_normal(cx.size)
        x = np.zeros(lv.mask.shape)
        fd2d._prolong(lv, fd2d._to_box(coarse_mask, e), x)
        assert close(row_major(mask, x)[black], (P @ e)[black])
        assert not np.any(row_major(mask, x)[~black])
        r = np.where(black, 0.0, v)
        got = fd2d._restrict(lv, fd2d._to_box(mask, r)[:2])
        assert close(row_major(coarse_mask, got), 0.25 * (P.T @ r))
        want = (P.T @ sp.diags(s) @ P).diagonal() / (P.T @ P).diagonal()
        s = shifts[level + 1] if level + 1 == len(mg.levels) else row_major(
            coarse_mask, shifts[level + 1])
        assert close(s, want)
    coarse = build_grid(domain, 2 ** len(mg.levels) * h)
    check_band(fd2d._band(*mg.coarse, 0.0), assemble_operator(coarse, 0.0)[0])
    return len(mg.levels)


class TestLevels:
    def test_prolongation_weights(self):
        grid = build_grid(Ellipse(1.2, 1.0), 1.0 / 24.0)
        lx, ly = lattice(grid)
        P, cx, cy = prolongation(lx, ly)
        coarse = {(x, y): c for c, (x, y) in enumerate(zip(cx.tolist(), cy.tolist()))}
        assert len(coarse) == int(((lx % 2 == 0) & (ly % 2 == 0)).sum())
        P = P.toarray()
        for i, (x, y) in enumerate(zip(lx.tolist(), ly.tolist())):
            # bilinear weights from the even neighbours; absent ones are dropped
            want = np.zeros(P.shape[1])
            xs = [(x // 2, 1.0)] if x % 2 == 0 else [((x - 1) // 2, 0.5), ((x + 1) // 2, 0.5)]
            ys = [(y // 2, 1.0)] if y % 2 == 0 else [((y - 1) // 2, 0.5), ((y + 1) // 2, 0.5)]
            for ex, wx in xs:
                for ey, wy in ys:
                    if (ex, ey) in coarse:
                        want[coarse[ex, ey]] += wx * wy
            assert np.array_equal(P[i], want)
            if x % 2 == 0 and y % 2 == 0:  # an identity row
                assert np.count_nonzero(P[i]) == 1 and P[i, coarse[x // 2, y // 2]] == 1.0

    def test_hierarchy_depth(self):
        # coarsen until a level has at most _COARSE_MAX unknowns
        for h, depth in ((1.0 / 8.0, 0), (1.0 / 64.0, 3), (1.0 / 128.0, 4)):
            grid = build_grid(Disk(1.0), h)
            mg = fd2d._multigrid(grid)
            assert len(mg.levels) == depth
            sizes = [int(mask.sum()) for mask in natural_masks(mg)]
            assert sizes[0] == grid.n_interior
            assert all(n > fd2d._COARSE_MAX for n in sizes[:-1])
            assert sizes[-1] == len(mg.coarse[0]) <= fd2d._COARSE_MAX

    @pytest.mark.parametrize("domain, h", [
        (Disk(0.9), 1.0 / 256.0), (Ellipse(1.2, 1.0), 1.0 / 96.0),
        (Ellipse(2.0, 0.5), 1.0 / 64.0), (Disk(6.0), 0.1),  # 0.1: not a power of two
    ])
    def test_coarse_nodes_are_even_sublattice(self, domain, h):
        # the grid at 2^l h has exactly the fine nodes whose lattice coordinates 2^l
        # divides, in the same row-major order: each level's natural box holds them
        # shifted by an even offset (so its red cells are the lattice's red nodes), and
        # the next level's box holds the EE sublattice at coarse_box's place
        grid = build_grid(domain, h)
        mg = fd2d._multigrid(grid)
        assert mg.levels
        masks = natural_masks(mg)
        for level, mask in enumerate(masks):
            iy, ix = np.nonzero(mask)
            cx, cy = lattice(build_grid(domain, 2**level * h))
            x0, y0 = set((cx - ix).tolist()), set((cy - iy).tolist())
            assert len(x0) == len(y0) == 1 and x0.pop() % 2 == 0 and y0.pop() % 2 == 0
        for lv, mask, coarse in zip(mg.levels, masks, masks[1:]):
            assert np.array_equal(fd2d._natural(lv.mask), mask)
            oy, ox, ny, nx = lv.coarse_box
            my, mx = lv.mask.shape[1:]
            assert coarse.shape == (ny, nx) and ny % 2 == nx % 2 == 0
            assert np.array_equal(coarse[oy:oy + my, ox:ox + mx], mask[::2, ::2])
            assert coarse.sum() == mask[::2, ::2].sum()

    @pytest.mark.parametrize("domain, h", [
        (Disk(0.9), 1.0 / 256.0), (Ellipse(1.2, 1.0), 1.0 / 96.0),
        (Ellipse(2.0, 0.5), 1.0 / 64.0), (Disk(6.0), 0.1),
    ])
    def test_sliced_levels_match_rebuilt_grids(self, domain, h, monkeypatch):
        # oracle: every level sliced from the fine lattice applies the operator of
        # build_grid(domain, 2^l h), and its transfers and shifts are those of the
        # written-out prolongation (check_levels); distances are found for the fine
        # nodes only
        points = []
        distance = type(domain).distance

        def counting_distance(self, x, y):
            points.append(np.size(x))
            return distance(self, x, y)

        monkeypatch.setattr(type(domain), "distance", counting_distance)
        grid = build_grid(domain, h)
        fd2d._multigrid(grid)
        assert sum(points) == grid.n_interior  # the fine nodes only
        monkeypatch.undo()
        assert check_levels(domain, h, seed=7) >= 1

    @settings(max_examples=30)
    @given(st.one_of(st.tuples(st.just("disk"), st.floats(1.1, 2.5), st.just(0.0)),
                     st.tuples(st.just("ellipse"), st.floats(1.1, 2.5), st.floats(0.5, 1.0))),
           st.floats(0.02, 0.05), st.integers(0, 2**16))
    def test_levels_match_rebuilt_operators(self, shape, h, seed):
        # property: on random disks, ellipses and spacings with at least one level,
        # every level matches the rebuilt grid and the written-out transfers
        kind, a, ratio = shape
        domain = Disk(a) if kind == "disk" else Ellipse(a, max(ratio * a, 0.5))
        assume(build_grid(domain, h).n_interior > fd2d._COARSE_MAX)
        assert check_levels(domain, h, seed) >= 1

    def test_coarse_operators_are_rediscretised(self, monkeypatch):
        # level l applies assemble_operator(build_grid(domain, 2^l h)) - diag(s_l): s_0 is
        # b f'(u), and s_{l+1} the diagonal of the Galerkin product P^T diag(s_l) P over
        # that of P^T P; the smoothers multiply by its inverse diagonal, and the coarsest
        # is factored from its band, which holds the same matrix
        domain, h = Disk(1.0), 1.0 / 64.0
        grid = build_grid(domain, h)
        u = fd2d._boundary_profile(grid, EXP2, W1)(4.0)
        bfp = 2.0 * np.exp(2.0 * u)
        mg = fd2d._multigrid(grid)
        assert len(mg.levels) == 3
        bands, factor = [], fd2d.splu
        monkeypatch.setattr(fd2d, "splu",
                            lambda band: bands.append(band.copy(order="A")) or factor(band))
        shifts = inverted(mg, bfp)
        fd2d._coarse_lu(mg, shifts)
        rng = np.random.default_rng(1)
        s = bfp
        for level, (lv, inverse, mask) in enumerate(zip(mg.levels, shifts, natural_masks(mg))):
            coarse = build_grid(domain, 2**level * h)
            want_op = assemble_operator(coarse, 0.0)[0] - sp.diags(s)
            v = rng.standard_normal(coarse.n_interior)
            V = fd2d._to_box(mask, v)
            off = np.concatenate([fd2d._product(lv, V, part, np.empty_like(V[:2]))
                                  for part in fd2d._COLOURS])
            got = row_major(mask, off) + v / row_major(mask, inverse)
            want = want_op @ v
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert not np.any(inverse[~lv.mask])  # 0 off the nodes
            P = prolongation(*lattice(coarse))[0]
            s = (P.T @ sp.diags(s) @ P).diagonal() / (P.T @ P).diagonal()
        assert np.max(np.abs(shifts[-1] - s)) <= 1e-12 * np.max(s)
        coarse = build_grid(domain, 8.0 * h)
        [band] = bands
        check_band(band, assemble_operator(coarse, 0.0)[0] - sp.diags(shifts[-1]))

    @pytest.mark.parametrize("domain, h", [(Disk(0.9), 1.0 / 64.0), (Ellipse(1.2, 1.0), 1.0 / 48.0),
                                           (Disk(1.0), 1.0 / 8.0)])
    def test_inverse_diagonal_in_place(self, domain, h):
        # each level's shift box, b f'(u) itself on the finest, becomes mask / (D - s) per
        # colour, bit for bit, and _apply given it is A - diag(s); the coarsest shift stays
        grid = build_grid(domain, h)
        mg = fd2d._multigrid(grid)
        bfp = np.random.default_rng(2).uniform(0.0, 1e4, grid.n_interior)
        box = fd2d._to_box(mg.mask, bfp)
        shifts = fd2d._shifts(mg, box)
        levels = [mg.fine, *mg.levels[1:]]
        boxes = [box, *shifts[1:-1]]
        want = [[lv.mask[part] / fd2d._diagonal(lv, part, s) for part in fd2d._COLOURS]
                for lv, s in zip(levels, boxes)]
        saved = [s.copy() for s in boxes]
        coarsest = shifts[-1].copy()
        fd2d._invert(mg, box, shifts)
        assert boxes[0] is box and (shifts[0] is box) == bool(mg.levels)
        assert np.array_equal(shifts[-1], coarsest)
        for lv, inverse, parts, s in zip(levels, boxes, want, saved):
            for part, w in zip(fd2d._COLOURS, parts):
                assert np.array_equal(inverse[part], w)
            assert not np.any(inverse[~lv.mask])
            X = np.where(lv.mask, np.random.default_rng(4).standard_normal(lv.mask.shape), 0.0)
            for k in range(4):
                part = slice(k, k + 1)
                got = fd2d._apply(lv, X, part, np.empty_like(X[part]), inverse)
                want_k = fd2d._apply(lv, X, part, np.empty_like(X[part])) - s[part] * X[part]
                assert np.max(np.abs(got - want_k)) <= 1e-13 * np.max(np.abs(want_k))


class TestCoarseBand:
    @pytest.mark.parametrize("domain, h", [(Disk(0.9), 1.0 / 256.0),
                                           (Ellipse(1.2, 1.0), 1.0 / 96.0),
                                           (Disk(1.0), 1.0 / 8.0)])  # the last: no levels
    def test_band_factor_matches_spsolve(self, domain, h):
        # the coarsest system A - diag(s), random s >= 0, factored by dgbtrf and solved by
        # dgbtrs, against a sparse direct solve of the assembled matrix
        mg = fd2d._multigrid(build_grid(domain, h))
        coarse = build_grid(domain, 2 ** len(mg.levels) * h)
        assert coarse.n_interior == len(mg.coarse[0]) <= fd2d._COARSE_MAX
        rng = np.random.default_rng(11)
        s = rng.uniform(0.0, 1e3, coarse.n_interior)
        rhs = rng.standard_normal(coarse.n_interior)
        lu, piv = fd2d._coarse_lu(mg, [s])
        kl = lu.shape[0] // 3
        x = dgbtrs(lu, kl, kl, rhs, piv)[0]
        want = spsolve((assemble_operator(coarse, 0.0)[0] - sp.diags(s)).tocsc(), rhs)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_failed_factorization_raises(self, monkeypatch):
        # a zero pivot (dgbtrf info > 0) fails the solve with its residual history so far
        grid = build_grid(Disk(0.9), 1.0 / 64.0)
        monkeypatch.setattr(fd2d, "dgbtrf", lambda ab, kl, ku, **kw: (ab, None, 1))
        with pytest.raises(fd2d.SolveFailure, match="factorization failed") as info:
            solve_dirichlet(grid, EXP2, W1, liouville_g, tol=1e-9)
        assert len(info.value.residuals) == 1 and info.value.residuals[0] > 1e-9


class TestVCycle:
    @pytest.mark.parametrize("domain, h, g", [(Disk(0.9), 1.0 / 64.0, liouville_g),
                                              (Ellipse(1.2, 1.0), 1.0 / 48.0, 12.0)])
    def test_stationary_contraction(self, domain, h, g):
        # x <- x + M (rhs - J x) with one V-cycle as M, at the Jacobian of the solution
        grid = build_grid(domain, h)
        u = solve_dirichlet(grid, EXP2, W1, g, tol=1e-9).interior_values()
        J = jacobian(grid, g, u)
        mg = fd2d._multigrid(grid)
        assert mg.levels
        precond = preconditioner(mg, 2.0 * np.exp(2.0 * u))
        rhs = np.random.default_rng(0).standard_normal(grid.n_interior)
        x = np.zeros_like(rhs)
        norms = [np.linalg.norm(rhs)]
        for _ in range(10):
            x += precond(rhs - J @ x)
            norms.append(np.linalg.norm(rhs - J @ x))
        worst = max(b / a for a, b in zip(norms, norms[1:]))
        assert worst <= 0.5
        assert worst <= 0.2  # red-black Gauss-Seidel on rediscretised levels

    @pytest.mark.parametrize("domain, h", [(Disk(0.9), 1.0 / 64.0),
                                           (Ellipse(1.2, 1.0), 1.0 / 48.0)])
    def test_in_place_cycle_is_the_stationary_update(self, domain, h):
        # a cycle run on an arbitrary iterate x gives x + M (rhs - J x), M the V-cycle
        # from x = 0: the multigrid iteration needs no residual box and no second iterate
        grid = build_grid(domain, h)
        mg = fd2d._multigrid(grid)
        assert len(mg.levels) >= 2
        u = fd2d._boundary_profile(grid, EXP2, W1)(4.0)
        bfp = 2.0 * np.exp(2.0 * u)
        shifts = inverted(mg, bfp)
        cycle = fd2d._cycle(mg, shifts, fd2d._coarse_lu(mg, shifts))
        rng = np.random.default_rng(3)
        rhs, x = rng.standard_normal((2, grid.n_interior))
        want = x + preconditioner(mg, bfp)(rhs - jacobian(grid, 0.0, u) @ x)
        X = fd2d._to_box(mg.mask, x)
        assert cycle(fd2d._to_box(mg.mask, rhs), X) is X
        assert np.max(np.abs(row_major(mg.mask, X) - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(fd2d._natural(X)[~mg.mask])  # 0 off the nodes

    @pytest.mark.parametrize("domain, h", [(Disk(1.0), 1.0 / 64.0), (Disk(1.0), 1.0 / 128.0),
                                           (Ellipse(2.0, 0.5), 1.0 / 64.0)])
    @pytest.mark.parametrize("pattern", ["stripes", "checkerboard"])
    def test_rough_shifts(self, domain, h, pattern):
        # b f'(u) = scale on odd lattice columns (stripes) or on odd-parity nodes
        # (checkerboard), 0 elsewhere: injection would give every coarse node 0,
        # the Galerkin diagonal gives each its weighted share
        grid = build_grid(domain, h)
        A = assemble_operator(grid, 0.0)[0]
        mg = fd2d._multigrid(grid)
        assert mg.levels
        lx, ly = lattice(grid)
        odd = (lx % 2 == 1) if pattern == "stripes" else ((lx + ly) % 2 == 1)
        rhs = np.random.default_rng(5).standard_normal(grid.n_interior)
        for scale in (1e2, 1e4, 1e6, 1e8):
            bfp = np.where(odd, scale, 0.0)
            x, cycles = newton_direction(bfp, mg, rhs, 1e-6)
            assert cycles <= 25
            assert np.linalg.norm(A @ x - bfp * x - rhs) <= 1e-6 * np.linalg.norm(rhs)


def reference_newton(grid, g, u, tol):
    """Damped Newton with a direct SuperLU solve of every step: the reference for V-cycles."""
    A, const, _ = assemble_operator(grid, g)

    def scaled(v):
        return np.max(np.abs(A @ v + const - np.exp(2.0 * v)) / (1.0 + np.exp(2.0 * v)))

    for _ in range(50):
        norm = scaled(u)
        if norm <= tol:
            return u
        step = splu(jacobian(grid, g, u).tocsc()).solve(-(A @ u + const - np.exp(2.0 * u)))
        t = 1.0
        while not scaled(u + t * step) < norm:
            t *= 0.5
            assert t >= 2.0**-30, "reference Newton stalled"
        u = u + t * step
    raise AssertionError("reference Newton did not converge")


class TestNewtonKrylov:
    @pytest.mark.parametrize("domain, g", [(Ellipse(2.0, 0.5), 3.0), (Disk(0.9), liouville_g)])
    def test_matches_direct_newton(self, domain, g):
        grid = build_grid(domain, 1.0 / 64.0)
        assert fd2d._multigrid(grid).levels
        fld = solve_dirichlet(grid, EXP2, W1, g, tol=1e-10)
        assert fld.meta["start"] == "profile"
        u0 = fd2d._boundary_profile(grid, EXP2, W1)(float(np.nanmean(
            assemble_operator(grid, g)[2])))
        ref = reference_newton(grid, g, u0, tol=1e-11)
        assert np.max(np.abs(fld.interior_values() - ref)) <= 1e-9

    @pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 128.0])
    @pytest.mark.parametrize("f, g, f0, f1", [
        (Nonlinearity.custom(lambda s: np.ones_like(np.asarray(s, float)),
                             lambda s: np.zeros_like(np.asarray(s, float))), 0.0, 1.0, 0.0),
        (Nonlinearity.power(1.0), 1.0, 0.0, 1.0),
    ], ids=["const-one", "linear"])
    def test_linear_problem_takes_one_step(self, f, g, f0, f1, h):
        # f = f0 + f1 u makes the Newton model exact: V-cycles solve the one step to
        # finish, and the field is the direct solve of (A - f1 I) u = f0 - const
        grid = build_grid(Disk(1.0), h)
        assert len(fd2d._multigrid(grid).levels) >= 2
        fld = solve_dirichlet(grid, f, W1, g, tol=1e-10)
        assert fld.meta["newton_iters"] == 1
        A, const, _ = assemble_operator(grid, g)
        ref = splu((A - f1 * sp.identity(grid.n_interior)).tocsc()).solve(f0 - const)
        assert np.max(np.abs(fld.interior_values() - ref)) <= 1e-10

    def test_zero_levels_one_cycle(self):
        # the coarsest level is the whole grid: M is the exact inverse of J
        grid = build_grid(Disk(1.0), 1.0 / 8.0)
        fld = solve_dirichlet(grid, EXP2, W1, 2.0, tol=1e-10)
        assert fld.meta["newton_iters"] >= 2
        assert fld.meta["cycles"] == fld.meta["newton_iters"]
        u = fld.interior_values()
        mg = fd2d._multigrid(grid)
        assert not mg.levels
        rhs = np.sin(np.arange(grid.n_interior, dtype=float))
        x, cycles = newton_direction(2.0 * np.exp(2.0 * u), mg, rhs, 1e-6)
        assert cycles == 1
        J = jacobian(grid, 2.0, u)
        assert np.linalg.norm(J @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_fine_jacobian_never_factored(self, monkeypatch):
        grid = build_grid(Disk(0.9), 1.0 / 64.0)
        sizes = []

        factor = fd2d.splu

        def recording_splu(band):
            sizes.append(band.shape[1])
            return factor(band)

        monkeypatch.setattr(fd2d, "splu", recording_splu)
        fld = solve_dirichlet(grid, EXP2, W1, liouville_g, tol=1e-9)
        assert len(sizes) == fld.meta["factorizations"] == fld.meta["newton_iters"]
        assert max(sizes) <= fd2d._COARSE_MAX < grid.n_interior

    def test_exhaust_builds_levels_once(self, monkeypatch):
        # the hierarchy is built once per grid, not once per boundary value, and it is
        # sliced from the fine lattice: no grid is built while solving
        grid = build_grid(Disk(1.0), 1.0 / 64.0)
        built = []
        multigrid = fd2d._multigrid

        def recording_multigrid(g):
            built.append(g)
            return multigrid(g)

        def no_build_grid(domain, h):
            raise AssertionError(f"build_grid called with h = {h}")

        monkeypatch.setattr(fd2d, "_multigrid", recording_multigrid)
        monkeypatch.setattr(fd2d, "build_grid", no_build_grid, raising=False)
        monkeypatch.setattr(grid2d, "build_grid", no_build_grid)
        _, diags = exhaust(grid, EXP2, W1, [2.0, 3.0, 4.0], tol=1e-9)
        assert len(diags["j"]) == 3 and min(diags["newton_iters"]) >= 1
        assert len(built) == 1 and built[0] is grid
        solve_dirichlet(grid, EXP2, W1, 2.0, tol=1e-9)
        assert len(built) == 2 and built[1] is grid

    @pytest.mark.parametrize("domain, h, g", [(Disk(0.9), 1.0 / 64.0, liouville_g),
                                              (Ellipse(1.2, 1.0), 1.0 / 48.0, 3.0)])
    def test_given_hierarchy_is_bit_identical(self, domain, h, g):
        # a solve given _multigrid(grid)'s hierarchy, twice over, returns the default
        # call's field, counts and residual history bit for bit: it leaves the hierarchy
        # as it found it
        grid = build_grid(domain, h)
        mg = fd2d._multigrid(grid)
        assert mg.levels
        want = solve_dirichlet(grid, EXP2, W1, g, tol=1e-9)
        for _ in range(2):
            got = solve_dirichlet(grid, EXP2, W1, g, tol=1e-9, multigrid=mg)
            assert np.array_equal(got.interior_values(), want.interior_values())
            assert got.meta == want.meta


def recording_forcing(monkeypatch, distort=None):
    """Record, per Newton step, the rtol of every solve call on its defect correction.

    distort(rtol, x, step), step counting from 1, replaces each returned direction x.
    """
    steps = []
    defect_correction = fd2d._defect_correction

    def recording(mg):
        solve, calls = defect_correction(mg), []
        steps.append(calls)

        def recorded(bfp, rhs, rtol):
            calls.append(rtol)
            x, cycles = solve(bfp, rhs, rtol)
            return (x if distort is None else distort(rtol, x, len(steps))), cycles

        return recorded

    monkeypatch.setattr(fd2d, "_defect_correction", recording)
    return steps


class TestInexactNewton:
    def test_profile_start_cycles(self):
        # the forcing term follows the residual: 15 V-cycles where a fixed 1e-6 takes 27
        grid = build_grid(Disk(0.9), 1.0 / 64.0)
        fld = solve_dirichlet(grid, EXP2, W1, liouville_g, tol=1e-9)
        assert fld.meta["start"] == "profile"
        assert fld.meta["newton_iters"] == fld.meta["factorizations"] == 4
        assert fld.meta["cycles"] == 15

    def test_forcing_rule(self, monkeypatch):
        steps = recording_forcing(monkeypatch)
        tol = 1e-9
        fld = solve_dirichlet(build_grid(Disk(0.9), 1.0 / 64.0), EXP2, W1, liouville_g, tol=tol)
        history = fld.meta["residual_history"]
        assert len(steps) == len(history) - 1 == 4
        for calls, r in zip(steps, history):
            # every full step descends here, so no step is refined
            want = min(0.1, max(fd2d._FORCING, 0.01 * r, 0.1 * tol / r))
            assert calls == [pytest.approx(want, rel=1e-15)]
        assert steps[0] == [0.1] and steps[-1][0] > fd2d._FORCING

    @pytest.mark.parametrize("domain, g, bound", [(Disk(0.9), liouville_g, 1e-12),
                                                  (Ellipse(1.2, 1.0), 9.0, 1e-10)])
    def test_fixed_forcing_gives_the_same_field(self, monkeypatch, domain, g, bound):
        grid = build_grid(domain, 1.0 / 64.0)
        loose = solve_dirichlet(grid, EXP2, W1, g, tol=1e-9)
        steps = recording_forcing(monkeypatch)
        monkeypatch.setattr(fd2d, "_FORCING_SLOPE", 0.0)
        tight = solve_dirichlet(grid, EXP2, W1, g, tol=1e-9)
        assert steps and all(calls == [fd2d._FORCING] for calls in steps)
        assert tight.meta["cycles"] > loose.meta["cycles"]
        u, v = loose.interior_values(), tight.interior_values()
        assert np.max(np.abs(u - v) / np.abs(v)) <= bound

    def test_loose_direction_is_refined(self, monkeypatch):
        # with c = 10 the first step from the constant start is solved to 0.1, and its
        # full step raises the max-norm residual: the safeguard refines it to _FORCING
        # with the same coarsest LU (without it this solve stops at the damping floor)
        grid = build_grid(Disk(0.9), 1.0 / 32.0)
        u0 = np.full(grid.n_interior, float(np.nanmean(assemble_operator(grid, liouville_g)[2])))
        ref = solve_dirichlet(grid, EXP2, W1, liouville_g, tol=1e-9, u0=u0)
        monkeypatch.setattr(fd2d, "_FORCING_SLOPE", 10.0)
        steps = recording_forcing(monkeypatch)
        fld = solve_dirichlet(grid, EXP2, W1, liouville_g, tol=1e-9, u0=u0)
        assert fld.meta["residual_history"][-1] <= 1e-9
        assert fld.meta["factorizations"] == fld.meta["newton_iters"] == len(steps)
        assert steps[0] == [0.1, fd2d._FORCING]
        assert np.max(np.abs(fld.interior_values() - ref.interior_values())) <= 1e-9

    def test_stays_tight_until_a_full_step(self, monkeypatch):
        # every loose direction is made zero, so its full step is rejected and refined;
        # directions solved to _FORCING in the first two steps overshoot threefold.  The
        # first full step still lowers the residual, the second is damped: the third
        # step starts at _FORCING, and after its full step the rule loosens again
        def distort(rtol, x, step):
            return 0.0 * x if rtol > fd2d._FORCING else 3.0 * x if step <= 2 else x

        steps = recording_forcing(monkeypatch, distort)
        fld = solve_dirichlet(build_grid(Disk(0.9), 1.0 / 64.0), EXP2, W1, liouville_g, tol=1e-9)
        assert fld.meta["residual_history"][-1] <= 1e-9
        assert fld.meta["factorizations"] == fld.meta["newton_iters"] == len(steps)
        F = fd2d._FORCING
        assert steps[0] == [0.1, F] and steps[1][1:] == [F] and steps[2] == [F]
        assert steps[1][0] > F
        assert len(steps) > 3
        assert all(len(calls) == 2 and calls[0] > F == calls[1] for calls in steps[3:])
