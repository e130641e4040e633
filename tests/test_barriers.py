import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from khessian import barriers, reports
from khessian.barriers import (
    ball_geometry,
    build_barriers,
    certify_barriers,
    certify_upper_barrier_global,
    collar_ratios,
    composite_eigs,
    ellipse_geometry,
    make_barrier_params,
    scrambled_halton,
    verify_subsolution,
    verify_supersolution,
)
from khessian.errors import (CertificationFailure, ConditionViolation, GeometryError,
                             ParameterError)
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import assemble_profile, xi_bounds
from khessian.radial import RadialProblem, Torsion, solve_torsion
from khessian.symfunc import sigma_all, sk_radial

B_ONE = lambda r: np.ones_like(np.asarray(r, float))
W1 = Weight.constant(1.0)


def collar_samples(barrier, nsamples, seed):
    """(distance, boundary-param) pairs in the barrier's window: the points certify_barriers
    samples at one width, distances log-uniform and the parameter uniform."""
    return barriers._to_collar(barrier, scrambled_halton(nsamples, seed))


class TestCompositeEigs:
    def test_pinned_cases(self):
        lam = composite_eigs(-1.0, 2.0, 0.1, np.ones(2))
        assert np.allclose(lam, [2.0, 1.0 / 0.9, 1.0 / 0.9])
        lam = composite_eigs(3.0, 7.0, 0.2, np.zeros(3))
        assert np.allclose(lam, [7.0, 0.0, 0.0, 0.0])
        lam = composite_eigs(1.0, 0.0, 0.0, np.ones(2))
        assert np.allclose(lam, [0.0, -1.0, -1.0])

    def test_focal_violation(self):
        with pytest.raises(GeometryError):
            composite_eigs(-1.0, 2.0, 1.5, np.ones(2))

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(5)
        g1, g2 = rng.normal(size=30), rng.normal(size=30)
        d = rng.uniform(0.0, 0.4, size=30)
        rho = rng.uniform(0.1, 2.0, size=(30, 3))
        lam = composite_eigs(g1, g2, d, rho)
        assert lam.shape == (30, 4)
        for i in range(30):
            assert np.array_equal(lam[i], composite_eigs(g1[i], g2[i], d[i], rho[i]))
        # one curvature vector shared by every sample (the ball)
        shared = composite_eigs(g1, g2, d, rho[0])
        for i in range(30):
            assert np.array_equal(shared[i], composite_eigs(g1[i], g2[i], d[i], rho[0]))

    def test_batched_focal_violation_names_first_bad_sample(self):
        d = np.array([0.1, 0.85, 0.9])
        with pytest.raises(GeometryError, match="d=0.85"):
            composite_eigs(np.ones(3), np.ones(3), d, np.full((3, 2), 1.25))


    def test_matches_expansion_identity(self):
        # sigma_j of the composite spectrum equals the profile-expansion
        # prefactor times [B sigma_{j-1}(tilted) + A sigma_j(tilted)]
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        bp = make_barrier_params(p, geom, eps=0.1, delta_eps=0.05)
        upper, _ = build_barriers(p, bp)
        xi = bp.xi_eps_lower
        rng = np.random.default_rng(17)
        for _ in range(25):
            d = float(rng.uniform(bp.sigma_shift * 1.1, 2.0 * bp.delta_eps * 0.95))
            rho = geom.rho(rng.random())
            d1 = d - bp.sigma_shift
            _, g1, g2 = upper.jet(d)
            lam = composite_eigs(g1, g2, d, rho)
            sig = sigma_all(lam, p.k)[1:]
            tilt = rho / (1.0 - d * rho)
            A, B = collar_ratios(p, xi, d1)
            t = xi * float(p.M(d1))
            s = p.phi(t)
            for j in range(1, p.k + 1):
                pref = (
                    xi ** (j + 1)
                    * float(p.weight.m(d1)) ** (j + 1)
                    * float(p.nonlinearity.f(s))
                    * float(((p.k + 1.0) * p.F(s)) ** ((j - p.k) / (p.k + 1.0)))
                )
                bracket = (
                    B * float(sigma_all(tilt, j - 1)[j - 1])
                    + A * float(sigma_all(tilt, j)[j])
                )
                assert sig[j - 1] == pytest.approx(pref * bracket, rel=1e-8)


class TestCollarGeometry:
    PARAMS = scrambled_halton(97, 4)[:, 1]

    @pytest.mark.parametrize("n, k, R", [(2, 1, 1.0), (3, 2, 1.0), (5, 3, 2.0)])
    def test_ball_rho_on_an_array_stacks_the_scalar_calls(self, n, k, R):
        geom = ball_geometry(n, k, R)
        rows = geom.rho(self.PARAMS)
        assert rows.shape == (self.PARAMS.size, n - 1)
        assert np.array_equal(rows, np.stack([geom.rho(t) for t in self.PARAMS]))

    @pytest.mark.parametrize("k", [1, 2])
    def test_ellipse_rho_on_an_array_within_2_ulp_of_the_scalar_calls(self, k):
        geom = ellipse_geometry(1.2, 1.0, k)
        rows = geom.rho(self.PARAMS)
        ref = np.stack([geom.rho(t) for t in self.PARAMS])
        assert rows.shape == ref.shape == (self.PARAMS.size, 1)
        assert np.all(np.abs(rows - ref) <= 2.0 * np.spacing(ref))


class TestHalton:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("n", [40, 200])
    def test_matches_scipy_qmc_bit_for_bit(self, seed, n):
        ref = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
        assert np.array_equal(scrambled_halton(n, seed), ref)

    def test_collar_samples_use_the_points(self):
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        bp = make_barrier_params(p, ball_geometry(3, 2, 1.0), eps=0.1, delta_eps=0.05)
        unit = scrambled_halton(64, 3)
        for barrier in build_barriers(p, bp):
            pts = collar_samples(barrier, 64, seed=3)
            assert np.array_equal(pts[:, 1], unit[:, 1])
            lo, hi = pts[:, 0].min(), pts[:, 0].max()
            assert 0.0 < lo < hi < 2.0 * bp.delta_eps


class TestCollarWindows:
    @pytest.mark.parametrize("geom, nl, k", [
        (ball_geometry(3, 2), Nonlinearity.power(5), 2),
        (ellipse_geometry(1.2, 1.0), Nonlinearity.exponential(2), 1),
    ])
    def test_one_rule_sets_both_windows(self, geom, nl, k):
        # the samples of each barrier equal those of the two per-kind formulas written out
        # here, and lie inside the window its jet accepts
        p = assemble_profile(nl, W1, k)
        unit = scrambled_halton(200, 5)
        for i in range(6):
            bp = make_barrier_params(p, geom, 0.1, 0.2 * 2**-i)
            top = 2.0 * bp.delta_eps - bp.sigma_shift
            bounds = ((bp.sigma_shift * 1.02, 2.0 * bp.delta_eps * 0.98),  # upper barrier
                      (top * 1e-3, top * 0.98))  # lower barrier
            for barrier, (lo, hi) in zip(build_barriers(p, bp), bounds):
                got = barriers._to_collar(barrier, unit)
                want = np.column_stack([lo * (hi / lo) ** unit[:, 0], unit[:, 1]])
                assert np.array_equal(got, want)
                w_lo, w_hi = barrier.window
                assert np.all((w_lo < got[:, 0]) & (got[:, 0] < w_hi))


class TestBarrierParams:
    def test_eps_range_enforced(self):
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        with pytest.raises(ParameterError):
            make_barrier_params(p, geom, eps=0.6, delta_eps=0.05)

    @pytest.mark.parametrize("width", [math.inf, math.nan])
    def test_collar_width_positive_and_finite(self, width):
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        with pytest.raises(ParameterError, match=f"collar width must be positive and finite, "
                                                 f"got {width}"):
            make_barrier_params(p, ball_geometry(3, 2, 1.0), eps=0.1, delta_eps=width)

    def test_gap_violation_label(self):
        # force the degenerate constant pairs via a doctored copy of the bundle
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        for C_f, C_m in ((1.0, 0.0), (-1.0, 0.5)):
            bad = dataclasses.replace(p, C_f=C_f, C_m=C_m)
            with pytest.raises(ConditionViolation) as ei:
                make_barrier_params(bad, ball_geometry(2, 1, 1.0), eps=0.1, delta_eps=0.05)
            assert ei.value.label == "(1.5)"

    def test_xi_eps_first_order_in_eps(self):
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        lo, hi = xi_bounds(p.weight, geom.L0, geom.l0, p.C_f, p.C_m, p.k)
        errs_lo, errs_hi = [], []
        for eps in (0.1, 0.01, 0.001):
            bp = make_barrier_params(p, geom, eps=eps, delta_eps=0.05)
            errs_lo.append(abs(bp.xi_eps_lower - lo))
            errs_hi.append(abs(bp.xi_eps_upper - hi))
        for errs in (errs_lo, errs_hi):
            assert errs[1] <= 0.2 * errs[0]
            assert errs[2] <= 0.2 * errs[1]


class TestBarrierShapes:
    def test_power_closed_form(self):
        # constant weight, power nonlinearity: upper barrier is
        # sqrt(2)/(xi (d - sigma)) for k=1, gamma=3
        p = assemble_profile(Nonlinearity.power(3), W1, 1)
        geom = ball_geometry(2, 1, 1.0)
        bp = make_barrier_params(p, geom, eps=0.1, delta_eps=0.05)
        upper, lower = build_barriers(p, bp)
        for d in (0.01, 0.03, 0.08):
            d1 = d - bp.sigma_shift
            assert upper.jet(d)[0] == pytest.approx(
                math.sqrt(2.0) / (bp.xi_eps_lower * d1), rel=1e-6
            )

    def test_upper_blows_up_at_inner_edge(self):
        p = assemble_profile(Nonlinearity.power(3), W1, 1)
        geom = ball_geometry(2, 1, 1.0)
        bp = make_barrier_params(p, geom, eps=0.1, delta_eps=0.05)
        upper, _ = build_barriers(p, bp)
        assert upper.jet(bp.sigma_shift * 1.0001)[0] > 1e4
        with pytest.raises(ParameterError):
            upper.jet(bp.sigma_shift * 0.5)

    def test_upper_dominates_lower_on_overlap(self):
        p = assemble_profile(Nonlinearity.power(3), W1, 1)
        geom = ball_geometry(2, 1, 1.0)
        bp = make_barrier_params(p, geom, eps=0.1, delta_eps=0.05)
        upper, lower = build_barriers(p, bp)
        for d in np.linspace(0.006, 0.09, 25):
            assert upper.jet(d)[0] > lower.jet(d)[0]


class TestCollarRatios:
    def test_limits_two_point(self):
        cases = [
            (Nonlinearity.power(5), W1, 2),
            (Nonlinearity.power(3), Weight.power(1.0), 1),
            (Nonlinearity.exponential(2), W1, 1),
        ]
        for nl, w, k in cases:
            p = assemble_profile(nl, w, k)
            target_B = 1.0 - (1.0 - p.C_m) / p.C_f
            A3, B3 = collar_ratios(p, 1.0, 1e-3)
            A5, B5 = collar_ratios(p, 1.0, 1e-5)
            assert abs(A5) <= abs(A3) + 1e-12
            assert abs(B5 - target_B) <= abs(B3 - target_B) + 1e-9

    @pytest.mark.parametrize("nl, w, k, n", [
        (Nonlinearity.power(5), W1, 2, 3),
        (Nonlinearity.exponential(2), Weight.power(1.0), 1, 2),
    ])
    def test_given_phi_value_is_bit_identical(self, nl, w, k, n):
        # the jet's phi at the barrier's own distances is the phi that collar_ratios inverts
        p = assemble_profile(nl, w, k)
        geom = ball_geometry(n, k, 1.0)
        bp = make_barrier_params(p, geom, 0.1, 0.05)
        for barrier, kind in zip(build_barriers(p, bp), ("super", "sub")):
            ds = collar_samples(barrier, 64, seed=2)[:, 0]
            d_shift = ds + barrier.shift
            uval = barrier.jet(ds)[0]
            want = collar_ratios(p, barrier.xi, d_shift)
            got = collar_ratios(p, barrier.xi, d_shift, uval)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            # a scalar distance keeps its scalar results
            got = collar_ratios(p, barrier.xi, float(d_shift[0]), float(uval[0]))
            assert got == collar_ratios(p, barrier.xi, float(d_shift[0]))

    @pytest.mark.parametrize("kind", ["super", "sub"])
    def test_one_phi_inversion_per_verify(self, monkeypatch, kind):
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        bp = make_barrier_params(p, geom, 0.1, 0.05)
        upper, lower = build_barriers(p, bp)
        calls = []
        real = type(p.profile).phi

        def counting(self, t):
            calls.append(np.size(t))
            return real(self, t)

        monkeypatch.setattr(type(p.profile), "phi", counting)
        verify = verify_supersolution if kind == "super" else verify_subsolution
        barrier = upper if kind == "super" else lower
        verify(barrier, p, geom, bp, Nonlinearity.power(5), W1,
               collar_samples(barrier, 40, seed=1))
        assert calls == [40]


class TestVerification:
    @pytest.mark.parametrize(
        "nl,k,n",
        [
            (Nonlinearity.exponential(2), 1, 2),
            (Nonlinearity.power(5), 2, 3),
            (Nonlinearity.power(5), 2, 2),
        ],
    )
    def test_certify_matrix_on_unit_ball(self, nl, k, n):
        p = assemble_profile(nl, W1, k)
        geom = ball_geometry(n, k, 1.0)
        bp, rep_s, rep_l = certify_barriers(p, geom, eps=0.1)
        assert rep_s.passed and rep_l.passed
        assert bp.delta_eps > 1e-6
        for rep in (rep_s, rep_l):
            assert all(s["admissible"] for s in rep.samples)

    @pytest.mark.parametrize("nl, k, geom, weight, seed", [
        (Nonlinearity.exponential(2), 1, ball_geometry(2, 1, 1.0), W1, 0),
        (Nonlinearity.power(5), 2, ball_geometry(3, 2, 1.0), W1, 7),
        (Nonlinearity.power(5), 2, ball_geometry(3, 2, 1.0), Weight.power(1.0), 123),
        (Nonlinearity.exponential(2), 1, ellipse_geometry(1.2, 1.0, k=1), W1, 7),
    ])
    def test_certificate_is_the_full_sample_check(self, monkeypatch, nl, k, geom, weight, seed):
        # the result of checking every sample at every width, written out here
        p = assemble_profile(nl, weight, k)
        delta = 0.2 * geom.focal_radius
        while True:
            bp = make_barrier_params(p, geom, 0.1, delta)
            upper, lower = build_barriers(p, bp)
            want_s = verify_supersolution(upper, p, geom, bp, nl, weight,
                                          collar_samples(upper, 200, seed))
            want_l = verify_subsolution(lower, p, geom, bp, nl, weight,
                                        collar_samples(lower, 200, seed))
            if want_s.passed and want_l.passed:
                break
            delta *= 0.5
        assert delta < 0.2 * geom.focal_radius  # the first width fails here
        calls = []  # (side, samples checked, passed) per verify_* call

        def recording(real, side):
            def verify(*args):
                rep = real(*args)
                calls.append((side, len(args[6]), rep.passed))
                return rep
            return verify

        for side in ("super", "sub"):
            name = f"verify_{side}solution"
            monkeypatch.setattr(barriers, name, recording(getattr(barriers, name), side))
        got = certify_barriers(p, geom, eps=0.1, seed=seed)
        assert got == (bp, want_s, want_l)
        # one pass per side: every call checks all 200 points, and a subsolution call
        # follows each passing supersolution call and no other
        assert all(n == 200 for _, n, _ in calls) and calls[-1] == ("sub", 200, True)
        nxt = ["sub" if side == "super" and passed else "super" for side, _, passed in calls]
        assert [side for side, _, _ in calls] == ["super"] + nxt[:-1]

    @pytest.mark.parametrize("kind", ["super", "sub"])
    @pytest.mark.parametrize("width", [0.2, 0.0125])  # the supersolution fails at 0.2
    def test_summary_matches_a_loop_over_the_rows(self, kind, width):
        # the report's rows and reductions against the same checks made one sample at a time
        nl = Nonlinearity.power(5)
        p = assemble_profile(nl, W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        bp = make_barrier_params(p, geom, 0.1, width)
        upper, lower = build_barriers(p, bp)
        verify = verify_supersolution if kind == "super" else verify_subsolution
        barrier = upper if kind == "super" else lower
        rep = verify(barrier, p, geom, bp, nl, W1, collar_samples(barrier, 60, seed=3))
        worst, sup_tilt, ok = math.inf, 0.0, True
        for s in rep.samples:
            sk, sc = s["sigma_j"][p.k - 1], s["scale"]
            assert s["margin"] == (sc - sk if kind == "super" else sk - sc)
            assert s["admissible"] == all(v > 0.0 for v in s["sigma_j"])
            ok = ok and s["admissible"] and s["margin"] >= -1e-9 * sc
            worst = min(worst, s["margin"] / sc if sc > 0 else s["margin"])
            rho = geom.rho(s["param"])
            sup_tilt = max(sup_tilt, float(sigma_all(rho / (1.0 - s["d"] * rho), p.k)[p.k]))
        assert (rep.passed, rep.worst_margin, rep.sup_sigma_k_tilted) == (ok, worst, sup_tilt)
        assert rep.passed == (width < 0.1 or kind == "sub")

    def test_nan_weight_fails(self):
        # the collar twin of the global barrier's nan right-hand side
        nl = Nonlinearity.power(5)
        p = assemble_profile(nl, W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        bp = make_barrier_params(p, geom, 0.1, 0.0125)
        upper, _ = build_barriers(p, bp)
        pts = collar_samples(upper, 60, seed=3)
        cut = float(np.median(pts[:, 0]))
        zeros = lambda d: np.zeros_like(np.asarray(d, float))
        nan_m = Weight.custom(lambda d: np.where(d > cut, np.nan, 1.0), zeros, 1.0)
        assert verify_supersolution(upper, p, geom, bp, nl, W1, pts).passed
        rep = verify_supersolution(upper, p, geom, bp, nl, nan_m, pts)
        assert not rep.passed
        assert sum(math.isnan(s["margin"]) for s in rep.samples) == 30

    def test_oversized_collar_shrinks_not_fails(self, monkeypatch):
        # a too-large initial width (0.5 here) may fail its report; the search shrinks
        monkeypatch.setattr(barriers, "_WIDTH0_FRAC", 0.5)
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        bp, rep_s, rep_l = certify_barriers(p, geom, eps=0.1)
        assert rep_s.passed and rep_l.passed

    def test_wrong_nonlinearity_runs_out_of_widths(self):
        # barriers built from the power:5 profile are no barriers for f = power:7: every
        # width of the ladder fails, and the failure carries the last width's worst margin
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        wrong = dataclasses.replace(p, nonlinearity=Nonlinearity.power(7))
        with pytest.raises(CertificationFailure, match="no collar width certified after "
                           f"{barriers._MAX_HALVINGS} halvings") as info:
            certify_barriers(wrong, ball_geometry(3, 2, 1.0), eps=0.1)
        assert info.value.worst_margin == -1.0

    def test_curvature_scaling_raises_amplitude(self):
        # shrinking all curvatures 10x lowers l0 and raises xi_upper; the
        # certification keeps passing with margins no worse than marginally
        # (relative margins are scale-invariant to leading order)
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        nl = Nonlinearity.power(5)
        res = {}
        for R in (1.0, 10.0):
            geom = ball_geometry(3, 2, R)
            bp = make_barrier_params(p, geom, eps=0.1, delta_eps=0.02)
            _, lower = build_barriers(p, bp)
            rep = verify_subsolution(
                lower, p, geom, bp, nl, W1, collar_samples(lower, 100, seed=1)
            )
            res[R] = (bp, rep)
        assert res[10.0][0].xi_eps_upper > res[1.0][0].xi_eps_upper
        assert res[10.0][1].passed
        assert res[10.0][1].worst_margin > res[1.0][1].worst_margin - 0.01

    def test_sample_outside_collar_rejected(self):
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        geom = ball_geometry(3, 2, 1.0)
        bp = make_barrier_params(p, geom, eps=0.1, delta_eps=0.02)
        upper, _ = build_barriers(p, bp)
        with pytest.raises(ParameterError):
            verify_supersolution(upper, p, geom, bp, Nonlinearity.power(5), W1,
                                 [(3.0 * bp.delta_eps, 0.5)])

    def test_report_serialises(self, tmp_path):
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        geom = ball_geometry(2, 1, 1.0)
        bp, rep_s, rep_l = certify_barriers(p, geom, eps=0.1)
        reports.write_json(tmp_path / "rep.json", rep_s.as_dict())
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["passed"] is True
        assert len(blob["samples"]) == 200
        assert blob == rep_s.as_dict()


class TestGlobalUpperBarrier:
    @pytest.mark.parametrize("k,gamma", [(1, 3.0), (1, 5.0), (2, 3.0), (2, 5.0)])
    def test_finds_eps_on_disk(self, k, gamma):
        nl = Nonlinearity.power(gamma)
        prob = RadialProblem(n=2, k=k, R=1.0, f=nl, b=B_ONE)
        w = solve_torsion(prob)
        p = assemble_profile(nl, W1, k)
        eps, report = certify_upper_barrier_global(p, w)
        assert 0 < eps <= 1.0
        assert report["worst_relative_margin"] >= -1e-9
        # decay probe ~ s**(-(gamma-k)/(k+1)) at s = 2**30
        expected = (2.0**30) ** (-(gamma - k) / (k + 1.0))
        assert report["Ff_decay_probe"] < 10.0 * expected

    def test_report_matches_per_radius_loop(self, monkeypatch):
        # worst and the pass decision, recomputed here radius by radius from the rows;
        # eps = 4 fails everywhere, so its rows and worst margin reach the exception
        nl = Nonlinearity.power(5)
        prob = RadialProblem(n=3, k=2, R=1.0, f=nl, b=B_ONE)
        w, p = solve_torsion(prob), assemble_profile(nl, W1, 2)

        def loop(rows):
            worst, ok = math.inf, True
            for row in rows:
                assert type(row["r"]) is type(row["margin"]) is type(row["rhs"]) is float
                assert type(row["admissible"]) is bool
                rhs = row["rhs"]
                worst = min(worst, row["margin"] / rhs if rhs > 0 else row["margin"])
                ok = ok and row["admissible"] and row["margin"] >= -1e-9 * rhs
            return worst, ok

        monkeypatch.setattr(barriers, "_EPS_LADDER", (4.0, 2.0, 1.0))
        eps, report = certify_upper_barrier_global(p, w)
        assert eps == 1.0 and len(report["samples"]) == 97
        assert loop(report["samples"]) == (report["worst_relative_margin"], True)
        monkeypatch.setattr(barriers, "_EPS_LADDER", (2.0, 4.0))
        with pytest.raises(CertificationFailure) as info:
            certify_upper_barrier_global(p, w)
        worst, ok = loop(info.value.report)
        assert not ok and len(info.value.report) == 97
        assert worst < info.value.worst_margin < 0.0  # eps = 2 was the better of the two

    def test_nan_rhs_fails(self):
        # b is nan on half the radii: those margins are nan, and a nan margin fails every eps
        nl = Nonlinearity.power(5)
        prob = RadialProblem(n=3, k=2, R=1.0, f=nl, b=B_ONE)
        w, p = solve_torsion(prob), assemble_profile(nl, W1, 2)
        nan_b = lambda r: np.where(r > 0.5, np.nan, 1.0)
        with pytest.raises(CertificationFailure) as info:
            certify_upper_barrier_global(p, Torsion(dataclasses.replace(prob, b=nan_b), w.jet))
        margins = [row["margin"] for row in info.value.report]
        assert sum(map(math.isnan, margins)) == 48 and len(margins) == 97

    @pytest.mark.parametrize("k_profile, k_torsion", [(1, 2), (2, 1)])
    def test_torsion_of_another_order_rejected(self, k_profile, k_torsion):
        # each pair certified an eps (0.03125 and 1.0) for no barrier of the paper
        nl = Nonlinearity.power(5)
        w = solve_torsion(RadialProblem(n=2, k=k_torsion, R=1.0, f=nl, b=B_ONE))
        with pytest.raises(ParameterError, match=f"torsion of order k={k_torsion} given for "
                                                 f"a profile of order k={k_profile}"):
            certify_upper_barrier_global(assemble_profile(nl, W1, k_profile), w)

    @settings(max_examples=25)
    @given(n=st.integers(2, 6), data=st.data())
    def test_margin_matches_sk_radial(self, n, data):
        # sk_radial's closed form, an oracle independent of the report's sigma recurrence
        k = data.draw(st.integers(1, n), label="k")
        gamma = k + data.draw(st.floats(0.05, 5.0), label="gamma - k")
        nl = Nonlinearity.power(gamma)
        w = solve_torsion(RadialProblem(n=n, k=k, R=1.0, f=nl, b=B_ONE))
        p = assemble_profile(nl, W1, k)
        try:
            eps, report = certify_upper_barrier_global(p, w)
            rows = report["samples"]
        except CertificationFailure as exc:  # its rows are the last eps's
            eps, rows = barriers._EPS_LADDER[-1], exc.report
        r = np.array([row["r"] for row in rows])
        w0, w1, w2 = w.jet(r)
        u, g1, g2 = p.phi_jet(-eps * w0)
        h1 = -eps * w1 * g1
        h2 = -eps * w2 * g1 + eps**2 * w1**2 * g2
        lhs = sk_radial(h1, h2, r, n, k)
        rhs = np.array([row["rhs"] for row in rows])
        margin = np.array([row["margin"] for row in rows])
        assert np.array_equal(rhs, nl.f(u))
        assert np.all(np.abs(margin - (rhs - lhs)) <= 1e-13 * np.maximum(abs(rhs), abs(lhs)))

    def test_eps_one_recorded_even_if_it_fails(self):
        # the largest ladder value may or may not certify; the search must
        # return the largest one that does, never an error for eps = 1
        nl = Nonlinearity.power(3)
        prob = RadialProblem(n=2, k=1, R=1.0, f=nl, b=B_ONE)
        w = solve_torsion(prob)
        p = assemble_profile(nl, W1, 1)
        eps, _ = certify_upper_barrier_global(p, w)
        assert eps in [2.0**-i for i in range(21)]


class TestEllipseGeometry:
    def test_curvature_extremes(self):
        geom = ellipse_geometry(2.0, 1.0, k=2)
        assert geom.l0 == pytest.approx(0.25)
        assert geom.L0 == pytest.approx(2.0)
        assert geom.focal_radius == pytest.approx(0.5)
        # curvature at the major-axis end (param 0) is a/b^2
        assert geom.rho(0.0)[0] == pytest.approx(2.0)

    def test_k1_sigma0(self):
        geom = ellipse_geometry(1.2, 1.0, k=1)
        assert geom.l0 == geom.L0 == 1.0

    def test_semi_axes_checked_as_for_the_domain(self):
        for a, b in ((1.0, 1.2), (1.0, 0.0)):
            with pytest.raises(ParameterError, match="ellipse needs a >= b > 0"):
                ellipse_geometry(a, b)
