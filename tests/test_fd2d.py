import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from khessian import _quad, fd2d
from khessian.errors import ParameterError, ReportTruncated, SolveFailure
from khessian.fd2d import asymptotics_report_2d, assemble_operator, exhaust, solve_dirichlet
from khessian.grid2d import Disk, Ellipse, build_grid
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import assemble_profile
from khessian.radial import RadialProblem, solve_exhaustion_bvp

CONST_ONE = Nonlinearity.custom(
    lambda s: np.ones_like(np.asarray(s, float)),
    lambda s: np.zeros_like(np.asarray(s, float)),
)
W1 = Weight.constant(1.0)


def liouville_g(x, y):
    r2 = np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2
    return np.log(2.0 / (1.0 - r2))


def disk_arm(R, x, y, dx, dy, h):
    """Fraction of the arm (dx, dy) h from (x, y) inside Disk(R), one Python float at a time."""
    qa = h * h * (dx * dx + dy * dy)
    qb = 2.0 * h * (x * dx + y * dy)
    qc = x * x + y * y - R * R
    theta = (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    return min(max(theta, 1e-12), 1.0)


class TestOperatorMatrix:
    def test_matvec_matches_stencil(self):
        # the Shortley-Weller formula written out node by node: neighbours looked up by
        # lattice index, cut arms' fractions solved per node
        grid = build_grid(Disk(1.0), 1.0 / 12.0)
        h = grid.h
        g = lambda x, y: 1.0 + np.asarray(x, float) - 2.0 * np.asarray(y, float)
        A, const, gvals = assemble_operator(grid, g)
        x = np.cos(np.arange(grid.n_interior, dtype=float))
        node = {ij: i for i, ij in enumerate(zip(grid.lx.tolist(), grid.ly.tolist()))}
        cut = np.zeros((grid.n_interior, 4), dtype=bool)
        Ax = A @ x
        for (ix, iy), i in node.items():
            x0, y0 = ix * h, iy * h
            nbr, arm = [], []
            for t, (dx, dy) in enumerate(((1, 0), (-1, 0), (0, 1), (0, -1))):  # E, W, N, S
                nbr.append(node.get((ix + dx, iy + dy)))
                cut[i, t] = nbr[t] is None
                arm.append(disk_arm(1.0, x0, y0, dx, dy, h) if cut[i, t] else 1.0)
            ends = [(x0 + arm[0] * h, y0), (x0 - arm[1] * h, y0),
                    (x0, y0 + arm[2] * h), (x0, y0 - arm[3] * h)]
            aE, aW, aN, aS = (a * h for a in arm)
            cof = (2.0 / (aE * (aE + aW)), 2.0 / (aW * (aE + aW)),
                   2.0 / (aN * (aN + aS)), 2.0 / (aS * (aN + aS)))
            terms = [-(2.0 / (aE * aW) + 2.0 / (aN * aS)) * x[i]]
            terms += [cof[t] * x[nbr[t]] for t in range(4) if not cut[i, t]]
            known = sum(cof[t] * g(*ends[t]) for t in range(4) if cut[i, t])
            assert abs(Ax[i] - sum(terms)) <= 1e-14 * sum(abs(v) for v in terms)
            assert const[i] == pytest.approx(known, rel=1e-13)
        assert cut.any() and np.array_equal(cut, ~np.isnan(gvals))
        # five entries on a node with no cut arm, fewer where arms are cut
        assert A.nnz == grid.n_interior + int((~cut).sum())

    def test_direct_solve_matches_dense(self):
        grid = build_grid(Disk(1.0), 0.25)
        A, _, _ = assemble_operator(grid, 0.0)
        rhs = np.sin(1.0 + np.arange(grid.n_interior, dtype=float))
        ref = np.linalg.solve(A.toarray(), rhs)
        assert np.allclose(splu(A.tocsc()).solve(rhs), ref, rtol=1e-10, atol=1e-12)

    def test_one_node_grid(self):
        # the centre alone, four unit arms all cut: A is the 1x1 diagonal
        grid = build_grid(Disk(1.0), 1.0)
        A, const, _ = assemble_operator(grid, 3.0)
        assert A.shape == (1, 1) and A.nnz == 1
        assert A.toarray()[0, 0] == -4.0
        assert const[0] == pytest.approx(12.0)

    @pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
    def test_liouville_newton_count(self, h):
        # the constant start nanmean(g), passed explicitly
        grid = build_grid(Disk(0.9), h)
        fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, liouville_g, tol=1e-9,
                              u0=constant_start(grid, liouville_g))
        assert fld.meta["newton_iters"] == 7
        assert fld.meta["start"] == "given"


def constant_start(grid, g):
    return np.full(grid.n_interior, np.nanmean(assemble_operator(grid, g)[2]))


class TestDirectNewtonOracle:
    # solve_dirichlet works in the finest level's colour order on its colour blocks; the
    # oracle is Newton on the row-major matrix with a direct solve of every step.  The
    # weight m(d) = d gives the source b = d^2, which varies from node to node
    @pytest.mark.parametrize("domain, h, g, weight", [
        (Disk(0.9), 1.0 / 32.0, liouville_g, W1),
        (Ellipse(1.2, 1.0), 1.0 / 24.0, 6.0, Weight.power(1.0)),
    ], ids=["disk-liouville", "ellipse-power-weight"])
    def test_matches_row_major_direct_newton(self, domain, h, g, weight):
        grid = build_grid(domain, h)
        assert grid.n_interior > fd2d._COARSE_MAX  # multigrid levels: not row-major order
        fld = solve_dirichlet(grid, Nonlinearity.exponential(2), weight, g, tol=1e-10)
        A, const, gvals = assemble_operator(grid, g)
        b = np.ones(grid.n_interior) if weight is W1 else grid.node_d**2

        def scaled(v):  # max |A v + const - b f(v)| / (1 + b f(v)), f = e^{2v}
            bf = b * np.exp(2.0 * v)
            return np.max(np.abs(A @ v + const - bf) / (1.0 + bf))

        u = np.full(grid.n_interior, np.nanmean(gvals))
        for _ in range(50):
            norm = scaled(u)
            if norm <= 1e-10:
                break
            jac = (A - sp.diags(2.0 * b * np.exp(2.0 * u))).tocsc()
            step = spsolve(jac, -(A @ u + const - b * np.exp(2.0 * u)))
            t = 1.0
            while not scaled(u + t * step) < norm:
                t *= 0.5
                assert t >= 2.0**-30, "direct Newton stalled"
            u = u + t * step
        else:
            raise AssertionError("direct Newton did not converge")
        v = fld.interior_values()
        assert np.max(np.abs(v - u)) <= 1e-9
        # the solver's last scaled residual is the row-major one of its field; the two sum
        # A v in different orders, so they agree to rounding, far below tol
        assert abs(fld.meta["residual_history"][-1] - scaled(v)) <= 1e-12


class TestNewtonStart:
    @pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
    def test_liouville_profile_start_counts(self, h):
        grid = build_grid(Disk(0.9), h)
        fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, liouville_g, tol=1e-9)
        assert fld.meta["start"] == "profile"
        assert fld.meta["newton_iters"] == 4
        assert fld.meta["factorizations"] == 4  # one coarsest-level LU per step

    def test_exhaust_counts(self):
        grid = build_grid(Disk(1.0), 1.0 / 64.0)
        _, diags = exhaust(grid, Nonlinearity.exponential(2), W1, [4.0, 6.0, 8.0, 10.0],
                           tol=1e-8)
        # three smoothed levels: the fifth step at j = 8 ends at 2.1e-8, above tol (two
        # levels reached 6.1e-9 there), so that level takes a sixth
        assert diags["newton_iters"] == [4, 4, 6, 6]
        assert diags["factorizations"] == [4, 4, 6, 6]

    @pytest.mark.parametrize("domain, h", [(Disk(1.0), 1.0 / 64.0), (Ellipse(1.2, 1.0), 1.0 / 48.0)])
    def test_profile_start_is_subsolution(self, domain, h):
        # phi(d + Phi(j)) is a k = 1 subsolution on a convex domain.  Discretely it
        # stays below the solution wherever the stencil resolves it: at every node
        # while the boundary layer, about e^-j wide, is resolved, and at nodes
        # with d >= h for larger j
        grid = build_grid(domain, h)
        f = Nonlinearity.exponential(2)
        start = fd2d._boundary_profile(grid, f, W1)
        for j in (2.0, 3.0, 6.0, 12.0):
            u = solve_dirichlet(grid, f, W1, j, tol=1e-9).interior_values()
            below = start(j) <= u + 1e-9
            assert below.all() if j <= 3.0 else below[grid.node_d >= h].all()

    @pytest.mark.parametrize("domain, h", [(Ellipse(1.2, 1.0), 1.0 / 96.0),
                                           (Disk(0.9), 1.0 / 128.0), (Disk(0.9), 1.0 / 256.0)])
    def test_profile_start_inverts_phi_in_few_passes(self, monkeypatch, domain, h):
        # each start is one phi inversion over thousands of targets; started from
        # the segment's Hermite interpolant, every target ends within 4 value() passes
        value, invert = _quad.DecayingTailIntegral.value, _quad.DecayingTailIntegral.invert
        passes = []

        def counting_invert(self, t):
            calls = []

            def counting_value(table, s):
                calls.append(1)
                return value(table, s)

            with monkeypatch.context() as m:
                m.setattr(_quad.DecayingTailIntegral, "value", counting_value)
                out = invert(self, t)
            passes.append(len(calls))
            return out

        monkeypatch.setattr(_quad.DecayingTailIntegral, "invert", counting_invert)
        start = fd2d._boundary_profile(build_grid(domain, h), Nonlinearity.exponential(2), W1)
        for j in (9.0, 12.0):
            start(j)
        assert len(passes) == 2 and max(passes) <= 4

    def test_constant_source_falls_back(self):
        # f = 1 fails Keller-Osserman: no profile, the constant start as before
        grid = build_grid(Disk(1.0), 1.0 / 32.0)
        fld = solve_dirichlet(grid, CONST_ONE, W1, 0.0, tol=1e-10)
        assert fld.meta["start"] == "constant"
        assert fld.meta["newton_iters"] == fld.meta["factorizations"] == 1
        ref = solve_dirichlet(grid, CONST_ONE, W1, 0.0, tol=1e-10,
                              u0=constant_start(grid, 0.0))
        assert np.array_equal(fld.interior_values(), ref.interior_values())

    def test_nonpositive_boundary_value_falls_back(self):
        grid = build_grid(Disk(1.0), 1.0 / 16.0)
        fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, -1.0, tol=1e-9)
        assert fld.meta["start"] == "constant"

    @pytest.mark.parametrize("outcome", ["cap", "nan"])
    def test_failed_vcycle_raises(self, monkeypatch, outcome):
        grid = build_grid(Disk(0.9), 1.0 / 32.0)
        f = Nonlinearity.exponential(2)
        real, calls = fd2d._vcycle, []

        def failing(levels, shifts, coarse, r, x=None):
            # zeros never reduce the residual, so the cycle cap is reached
            return np.zeros_like(r) if outcome == "cap" else np.full_like(r, np.nan)

        monkeypatch.setattr(fd2d, "_vcycle", failing)
        match = "missed rtol" if outcome == "cap" else "non-finite"
        with pytest.raises(SolveFailure, match=match) as info:
            solve_dirichlet(grid, f, W1, liouville_g, tol=1e-9)
        assert len(info.value.residuals) == 1 and info.value.residuals[0] > 1e-9
        # exhaust attaches the levels it finished: here the grid has no smoothed
        # levels, so each Newton step takes one exact cycle; the first level takes
        # four steps, and from the fifth cycle on, in the second level, cycles fail
        def second_fails(*args):
            calls.append(1)
            return real(*args) if len(calls) <= 4 else failing(*args)

        monkeypatch.setattr(fd2d, "_vcycle", second_fails)
        small = build_grid(Disk(1.0), 1.0 / 8.0)
        with pytest.raises(SolveFailure, match=match) as info:
            exhaust(small, f, W1, [2.0, 3.0], tol=1e-9)
        assert len(calls) == 4 + (fd2d._MAX_CYCLES if outcome == "cap" else 1)
        assert len(info.value.partial) == 1
        assert info.value.partial[0].meta["newton_iters"] == 4


class TestPoisson:
    def test_exact_on_quadratic(self):
        # Delta u = 1 on the unit disk: the stencil is exact on quadratics,
        # so the discrete solution matches (r^2-1)/4 at solver tolerance
        grid = build_grid(Disk(1.0), 1.0 / 64.0)
        fld = solve_dirichlet(grid, CONST_ONE, W1, 0.0, tol=1e-10)
        u = fld.interior_values()
        exact = (grid.node_x**2 + grid.node_y**2 - 1.0) / 4.0
        assert np.max(np.abs(u - exact)) <= 3e-4
        assert np.max(np.abs(u - exact)) <= 1e-8  # exact reproduction

    def test_poisson_negative_interior(self):
        grid = build_grid(Disk(1.0), 1.0 / 16.0)
        fld = solve_dirichlet(grid, CONST_ONE, W1, 0.0, tol=1e-10)
        assert np.all(fld.interior_values() <= 0.0)


class TestLiouvilleDirichlet:
    def test_truncated_liouville_accuracy(self):
        grid = build_grid(Disk(0.9), 1.0 / 128.0)
        fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, liouville_g, tol=1e-9)
        u = fld.interior_values()
        exact = liouville_g(grid.node_x, grid.node_y)
        assert np.max(np.abs(u - exact)) <= 1e-3

    def test_memory_per_node(self, traced_peak):
        # the grid keeps two int32 lattice coordinates and a distance per node (16 bytes),
        # and no values; a solve's operators keep the cut arms alone, not dense per-arm
        # arrays; the Newton loop holds four vectors on the finest box: u, b f'(u), the
        # step's right-hand side and its iterate, which each V-cycle updates in place, and
        # builds residuals a sublattice at a time
        f = Nonlinearity.exponential(2)
        grid, held, peak = traced_peak(Disk(0.9), 1.0 / 128.0, lambda grid: solve_dirichlet(
            grid, f, W1, liouville_g, tol=1e-9))
        assert held <= 20 * grid.n_interior
        assert peak <= 90 * grid.n_interior
        # besides the levels, the hierarchy holds four numbers per cut arm and one per cut
        # row, and no matrix: the coarsest level keeps its stencil, at most _COARSE_MAX
        # rows, from which each step writes its band, and a level holds its node mask (a
        # byte per cell of its box) and its cut rows alone
        n_cut = np.count_nonzero(~np.isnan(assemble_operator(grid, 0.0)[2]))
        mg = fd2d._multigrid(grid)
        assert sum(np.size(a) for a in mg.arms) <= 4 * n_cut
        assert mg.cut.size <= n_cut
        assert len(mg.coarse[0]) <= fd2d._COARSE_MAX
        assert not any(sp.issparse(value) for value in mg.coarse)
        assert mg.levels
        for lv in mg.levels:
            assert not any(sp.issparse(value) for value in vars(lv).values())
            assert lv.mask.dtype == bool
            assert all(np.size(value) <= 4 * n_cut for name, value in vars(lv).items()
                       if name != "mask")

    def test_grid_convergence_order(self):
        # curved-boundary stencils enter the asymptotic O(h^2) regime slowly
        # (arm fractions resample with h); the finest pair is the estimate
        errs = []
        hs = (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0)
        for h in hs:
            grid = build_grid(Disk(0.9), h)
            fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, liouville_g, tol=1e-9)
            err = np.max(np.abs(fld.interior_values() - liouville_g(grid.node_x, grid.node_y)))
            errs.append(err)
        assert math.log2(errs[1] / errs[2]) >= 1.9
        assert math.log2(errs[0] / errs[1]) >= 1.7

    def test_comparison_in_boundary_data(self):
        grid = build_grid(Disk(1.0), 1.0 / 32.0)
        f = Nonlinearity.exponential(2)
        u1 = solve_dirichlet(grid, f, W1, 1.0, tol=1e-9).interior_values()
        u2 = solve_dirichlet(grid, f, W1, 2.0, tol=1e-9).interior_values()
        assert np.all(u1 <= u2 + 1e-8)

    def test_maximum_principle(self):
        # Delta u = b f(u) >= 0: max on boundary; min above min g minus source bound
        grid = build_grid(Disk(1.0), 1.0 / 32.0)
        f = Nonlinearity.exponential(2)
        fld = solve_dirichlet(grid, f, W1, 1.5, tol=1e-9)
        u = fld.interior_values()
        assert np.max(u) <= 1.5 + 1e-8
        source = np.max(np.exp(2.0 * u))
        assert np.min(u) >= 1.5 - source * 1.0**2 / 4.0 - 1e-8

    def test_determinism(self):
        grid = build_grid(Disk(1.0), 1.0 / 32.0)
        f = Nonlinearity.exponential(2)
        a = solve_dirichlet(grid, f, W1, 2.0, tol=1e-9).interior_values()
        b = solve_dirichlet(grid, f, W1, 2.0, tol=1e-9).interior_values()
        assert np.array_equal(a, b)


class TestExhaust:
    def test_monotone_and_cauchy(self):
        grid = build_grid(Disk(1.0), 1.0 / 64.0)
        limit, diags = exhaust(grid, Nonlinearity.exponential(2), W1, [4.0, 6.0, 8.0, 10.0],
                               tol=1e-8)
        assert all(v >= -1e-8 for v in diags["increment_min"])
        # |u_10 - u_8| < |u_8 - u_6| at the centre
        center_incs = np.abs(np.diff(diags["center_value"]))
        assert center_incs[-1] < center_incs[-2]

    def test_interior_limit_matches_blowup_solution(self):
        grid = build_grid(Disk(1.0), 1.0 / 128.0)
        limit, diags = exhaust(grid, Nonlinearity.exponential(2), W1,
                               [4.0, 6.0, 8.0, 10.0, 12.0], tol=1e-8)
        i0 = int(np.argmax(grid.node_d))
        assert abs(limit.interior_values()[i0] - math.log(2.0)) <= 5e-3

    def test_matches_radial_exhaustion(self):
        # an independent oracle: on a disk, exhaust (Shortley-Weller, cut arms, multigrid)
        # and the radial flux scheme discretise the same Dirichlet problems with data j.
        # Against the radial solution at h = 1/2048, read at each node's radius, the whole
        # 2-d field converges at second order for j = 2; at j = 4 the boundary layer slows
        # it, but the error still falls with h
        start = time.perf_counter()
        f = Nonlinearity.exponential(2)
        radial = solve_exhaustion_bvp(RadialProblem.from_weight(2, 1, 1.0, f, W1), [2.0, 4.0],
                                      grid_h=1.0 / 2048.0, tol=1e-9)
        errs = []
        for h in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
            grid = build_grid(Disk(1.0), h)
            limit, diags = exhaust(grid, f, W1, [2.0, 4.0], tol=1e-10)
            r = np.hypot(grid.node_x, grid.node_y)
            errs.append([np.max(np.abs(u - np.interp(r, sol.r, sol.u))) for u, sol in
                         zip((diags["prev_values"], limit.interior_values()), radial)])
        (a2, a4), (b2, b4), (c2, c4) = errs
        assert min(math.log2(a2 / b2), math.log2(b2 / c2)) >= 1.8
        assert a4 > b4 > c4
        assert time.perf_counter() - start < 2.0

    def test_exhaust_memory_per_node(self, traced_peak):
        # the ellipse grid's distances are found block by block, an exhaust holds
        # neither a level's start nor its increment through the next level's solve, a
        # solve holds four fine boxes (u, b f'(u), the step's right-hand side and its
        # iterate), and the profile inversion of a level's start integrates its panels
        # in blocks, so it makes no per-point temporaries beyond F and its power
        grid, held, peak = traced_peak(Ellipse(1.2, 1.0), 1.0 / 96.0, lambda grid: exhaust(
            grid, Nonlinearity.exponential(2), W1, [6.0, 9.0, 12.0], tol=1e-8))
        assert held <= 20 * grid.n_interior
        assert peak <= 125 * grid.n_interior


class TestSolveFailure:
    def test_singular_jacobian_raises_solve_failure(self):
        # one interior node (the centre) with four unit arms: diag = -4, and
        # b f'(u) = 4 * (-1) cancels it, so the 1x1 Jacobian is exactly
        # singular; the derivative callable is deliberately not f's own
        grid = build_grid(Disk(1.0), 1.0)
        assert grid.n_interior == 1
        bad_slope = Nonlinearity.custom(lambda s: np.asarray(s, float),
                                        lambda s: np.full_like(np.asarray(s, float), -1.0))
        four = Weight.constant(2.0)  # b = m^2 = 4; f(u) = u has no profile: the constant start
        with pytest.raises(SolveFailure, match="factorization") as info:
            solve_dirichlet(grid, bad_slope, four, 0.1, tol=1e-9)
        assert len(info.value.residuals) == 1 and info.value.residuals[0] > 1e-9
        # exhaust keeps its partial-results contract on the same failure
        with pytest.raises(SolveFailure) as info:
            exhaust(grid, bad_slope, four, [0.1, 0.2], tol=1e-9)
        assert info.value.partial == []

    def test_partial_field(self):
        assert SolveFailure("no").partial == []
        levels = ["level 1", "level 2"]
        assert SolveFailure("no", partial=levels).partial == levels


class TestSourceValidation:
    LINEAR = Nonlinearity.custom(lambda s: np.asarray(s, float),
                                 lambda s: np.ones_like(np.asarray(s, float)))

    @staticmethod
    def weight_of(value):
        """A custom weight with m = value everywhere, so that b = m^2."""
        full = lambda t: np.full_like(np.asarray(t, float), value)
        return Weight.custom(full, lambda t: np.zeros_like(np.asarray(t, float)), math.inf)

    @pytest.mark.parametrize("value", [-4.0, math.nan, math.inf])
    def test_bad_override_rejected(self, value):
        # one node, f(u) = u, g = 1, source b = value: with b = -4 the scaled norm
        # 1 + b f(u) is negative, and the solve used to report convergence after 0
        # steps.  m = nan or inf gives b = value; b = -4 needs b_lower = -4, which
        # the weight's own (b2) check refuses, so that weight is doctored past it
        grid = build_grid(Disk(1.0), 1.0)
        if value < 0.0:
            weight = Weight.constant(1.0)
            object.__setattr__(weight, "b_lower", value)
        else:
            weight = self.weight_of(value)
        with pytest.raises(ParameterError, match="source b must be finite and nonnegative"):
            solve_dirichlet(grid, self.LINEAR, weight, 1.0, tol=1e-9)

    def test_zero_source_allowed(self):
        grid = build_grid(Disk(1.0), 1.0)
        fld = solve_dirichlet(grid, self.LINEAR, self.weight_of(0.0), 1.0, tol=1e-9)
        assert fld.interior_values()[0] == pytest.approx(1.0, rel=1e-12)

    def test_constant_weight_matches_per_node_source(self):
        # a constant weight's source is one float, a custom weight's one per node; with
        # m = 2 both give b = 4 at every node, and the solves agree bit for bit
        grid = build_grid(Ellipse(1.2, 1.0), 1.0 / 24.0)
        assert grid.n_interior > fd2d._COARSE_MAX
        per_node = self.weight_of(2.0)
        assert isinstance(fd2d._source_b(grid, Weight.constant(2.0)), float)
        assert np.shape(fd2d._source_b(grid, per_node)) == (grid.n_interior,)
        f = Nonlinearity.exponential(2)
        scalar = solve_dirichlet(grid, f, Weight.constant(2.0), 6.0, tol=1e-10)
        vector = solve_dirichlet(grid, f, per_node, 6.0, tol=1e-10)
        assert np.array_equal(scalar.interior_values(), vector.interior_values())
        assert scalar.meta == vector.meta


class TestReport2D:
    def test_liouville_collar_ratio(self):
        grid = build_grid(Disk(1.0), 1.0 / 64.0)
        limit, diags = exhaust(grid, Nonlinearity.exponential(2), W1,
                               [4.0, 6.0, 8.0, 10.0, 12.0], tol=1e-8)
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        rep = asymptotics_report_2d(limit, p, xi=1.0, bin_edges=[0.02, 0.04, 0.08, 0.16])
        med = rep.bins[0, 4]
        assert abs(med - 1.0) <= 0.1

    def test_ellipse_curvature_independent_rate(self):
        # k = 1 prediction is curvature independent; on the ellipse the
        # settled collar ratios sit in a narrow band around 1 even though
        # the boundary curvature varies by a factor ~1.7
        grid = build_grid(Ellipse(1.2, 1.0), 1.0 / 96.0)
        limit, diags = exhaust(grid, Nonlinearity.exponential(2), W1,
                               [6.0, 9.0, 12.0], tol=1e-8)
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        rep = asymptotics_report_2d(limit, p, xi=1.0, bin_edges=[0.04, 0.08, 0.16],
                                    prev_values=diags["prev_values"])
        settled = [row for row, fl in zip(rep.bins, rep.flagged) if not fl]
        assert settled, "no reliable bin found"
        deepest = settled[0]
        assert abs(deepest[4] - 1.0) <= 0.08
        assert deepest[3] >= 0.95 and deepest[5] <= 1.15

    def test_truncation_flag_when_j_small(self):
        grid = build_grid(Disk(1.0), 1.0 / 48.0)
        limit, diags = exhaust(grid, Nonlinearity.exponential(2), W1, [3.0, 4.0], tol=1e-8)
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        rep = asymptotics_report_2d(limit, p, xi=1.0, bin_edges=[0.02, 0.05, 0.1],
                                    prev_values=diags["prev_values"])
        # near-boundary ratios systematically below 1 and flagged as moving
        assert rep.bins[0, 4] < 1.0
        assert rep.flagged[0]

    def test_empty_bin_truncates(self):
        grid = build_grid(Disk(1.0), 1.0 / 16.0)
        fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, 3.0, tol=1e-8)
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        with pytest.raises(ReportTruncated):
            asymptotics_report_2d(fld, p, xi=1.0, bin_edges=[1e-6, 2e-6, 0.1])
