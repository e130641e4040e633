import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import bisect, brentq

from khessian import radial
from khessian.errors import ParameterError, ReportTruncated, SolveFailure
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import PsiPair, assemble_profile
from khessian.radial import (
    RadialProblem,
    RadialSolution,
    RadialSubsolution,
    _brent_root,
    _ck_step,
    _exhaustion_banded,
    _hermite,
    _make_rhs,
    asymptotics_report,
    build_radial_subsolution,
    integrate_blowup_ivp,
    shoot_blowup_radius,
    solve_exhaustion_bvp,
    solve_torsion,
)
from khessian.symfunc import sk_radial

B_ONE = lambda r: np.ones_like(np.asarray(r, float))


def liouville(r):
    return np.log(2.0 / (1.0 - np.asarray(r, float) ** 2))


class TestTorsion:
    def test_laplace_2d(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sol = solve_torsion(prob)
        rs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(sol.value(rs) - (rs**2 - 1.0) / 4.0)) < 1e-12
        assert abs(float(sol.value(1.0))) < 1e-12
        assert np.all(np.asarray(sol.value(rs)) <= 1e-12)

    def test_monge_ampere_2d(self):
        prob = RadialProblem(n=2, k=2, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sol = solve_torsion(prob)
        rs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(sol.value(rs) - (rs**2 - 1.0) / 2.0)) < 1e-12
        # derivative callables agree with the closed form
        assert np.max(np.abs(sol.deriv1(rs) - rs)) < 1e-12
        assert np.max(np.abs(np.asarray(sol.deriv2(rs[1:])) - 1.0)) < 1e-10

    def test_laplace_3d(self):
        prob = RadialProblem(n=3, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sol = solve_torsion(prob)
        rs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(sol.value(rs) - (rs**2 - 1.0) / 6.0)) < 1e-12

    def test_satisfies_equation(self):
        # S_k(D^2 w) = b for a non-constant weight, via the closed radial form
        b = lambda r: 1.0 + np.asarray(r, float) ** 2
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=b)
        sol = solve_torsion(prob)
        for r in (0.2, 0.5, 0.9):
            val = sk_radial(float(sol.deriv1(r)), float(sol.deriv2(r)), r, 3, 2)
            assert val == pytest.approx(1.0 + r * r, rel=1e-9)


class TestManufacturedIVP:
    def test_manufactured_identities(self):
        # verify the two manufactured solutions really solve their equations
        r = np.linspace(0.05, 0.95, 19)
        u1 = 2.0 * r / (1.0 - r**2)
        u2 = 2.0 * (1.0 + r**2) / (1.0 - r**2) ** 2
        lap = u2 + u1 / r
        assert np.allclose(lap, 4.0 / (1.0 - r**2) ** 2, rtol=1e-12)  # = e^{2u}
        det = u2 * u1 / r
        rhs = (1.0 + r**2) / 2.0 * (2.0 / (1.0 - r**2)) ** 3
        assert np.allclose(det, rhs, rtol=1e-12)  # = b e^{3u}

    def test_liouville_k1(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-10)
        assert sol.Rstar == pytest.approx(1.0, abs=1e-4)
        mask = sol.r <= 0.99
        err = np.max(np.abs(sol.u[mask] - liouville(sol.r[mask])))
        assert err < 1e-6

    def test_monge_ampere_k2(self):
        b = lambda r: (1.0 + np.asarray(r, float) ** 2) / 2.0
        prob = RadialProblem(n=2, k=2, R=1.0, f=Nonlinearity.exponential(3), b=b)
        sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-10)
        assert sol.Rstar == pytest.approx(1.0, abs=1e-4)
        mask = sol.r <= 0.99
        err = np.max(np.abs(sol.u[mask] - liouville(sol.r[mask])))
        assert err < 1e-6

    def test_rstar_decreasing_in_u0(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        r10 = integrate_blowup_ivp(prob, 10.0, tol=1e-8).Rstar
        r20 = integrate_blowup_ivp(prob, 20.0, tol=1e-8).Rstar
        assert math.isfinite(r10) and math.isfinite(r20)
        assert r20 < r10

    def test_monotone_and_admissible_samples(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        sol = integrate_blowup_ivp(prob, 5.0, tol=1e-8)
        assert np.all(np.diff(sol.u) > 0.0)
        # cone membership at every accepted sample, with u'' rebuilt from the ODE
        from khessian.radial import _make_rhs
        from khessian.symfunc import cone_membership, radial_eigenvalues

        rhs = _make_rhs(prob)
        for r, u, u1 in zip(sol.r, sol.u, sol.u1):
            upp = rhs(r, np.array([u, u1]))[1]
            lam = radial_eigenvalues(u1, upp, r, prob.n)
            assert cone_membership(lam, prob.k).admissible

    def test_tolerance_refinement_consistency(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        r_a = integrate_blowup_ivp(prob, 5.0, tol=1e-8).Rstar
        r_b = integrate_blowup_ivp(prob, 5.0, tol=1e-9).Rstar
        assert abs(r_a - r_b) < 5e-8 + 1e-12

    def test_cap_threshold_insensitive(self):
        # the detected radius barely moves when the blow-up cap drops 100x
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        r_hi = integrate_blowup_ivp(prob, 5.0, tol=1e-9).Rstar
        r_lo = integrate_blowup_ivp(prob, 5.0, tol=1e-9, u_cap=1e10, v_cap=1e10).Rstar
        assert abs(r_hi - r_lo) < 1e-6

    def test_invalid_parameters(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        with pytest.raises(ParameterError):
            integrate_blowup_ivp(prob, -1.0, tol=1e-8)
        with pytest.raises(ParameterError):
            integrate_blowup_ivp(prob, 1.0, tol=-1e-8)


class TestCashKarpStep:
    # Butcher tableau of the Cash-Karp 5(4) pair (Cash & Karp, ACM TOMS 16 (1990) 201)
    C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
    A = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
        [3 / 10, -9 / 10, 6 / 5, 0.0, 0.0],
        [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0.0],
        [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
    ])
    B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
    B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])

    def reference_step(self, rhs, r, y, h):
        y = np.asarray(y, float)
        ks = np.zeros((6, 2))
        for i in range(6):
            ks[i] = rhs(r + self.C[i] * h, y + h * (self.A[i, :i] @ ks[:i]))
        return y + h * (self.B5 @ ks), h * ((self.B5 - self.B4) @ ks), ks

    @pytest.mark.parametrize("r, y, h", [
        (0.05, (5.0, 0.8), 0.02),
        (0.4, (7.5, 40.0), 1e-3),
        (0.6, (3.0e3, 2.0e6), 1e-6),
    ])
    def test_matches_butcher_tableau(self, r, y, h):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        rhs = _make_rhs(prob)
        y5, err = _ck_step(rhs, r, y, h)
        y5_ref, err_ref, ks = self.reference_step(rhs, r, y, h)
        assert isinstance(y5, tuple) and isinstance(err, tuple)
        np.testing.assert_allclose(y5, y5_ref, rtol=1e-14, atol=0.0)
        # err cancels terms of size h |k|: its rounding is relative to them
        assert np.all(np.abs(np.subtract(err, err_ref)) <= 1e-14 * h * np.abs(ks).max(axis=0))


class TestIVPWork:
    # step and rejection counts and blow-up radii of the adaptive integration
    @pytest.mark.parametrize("n, k, f, u0, tol, steps, rejected, Rstar", [
        (3, 2, Nonlinearity.power(5), 5.0, 1e-8, 276, 0, 0.6230010771781634),
        (2, 1, Nonlinearity.exponential(2), math.log(2.0), 1e-10, 618, 0, 0.9999999999279815),
        (4, 3, Nonlinearity.power(7), 3.0, 1e-9, 614, 0, 0.9390988758541435),
    ])
    def test_pinned_counts(self, n, k, f, u0, tol, steps, rejected, Rstar):
        calls = []
        prob = RadialProblem(n=n, k=k, R=1.0, f=f, b=lambda r: calls.append(1) or B_ONE(r))
        sol = integrate_blowup_ivp(prob, u0, tol)
        assert sol.meta["termination"] == "cap"
        assert (sol.meta["steps"], sol.meta["rejected"]) == (steps, rejected)
        assert len(calls) == self.B_CALLS[n, k]
        assert sol.Rstar == pytest.approx(Rstar, rel=1e-13, abs=0.0)

    # b evaluations of those integrations: each accepted state's right-hand side is
    # the next step's first stage, and the cap crossing is found by Illinois regula falsi
    B_CALLS = {(3, 2): 1896, (2, 1): 3994, (4, 3): 3874}

    def test_overflow_rejects_without_warnings(self):
        # f(u0) = 1e350 overflows: every step is rejected until the step size stalls
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = integrate_blowup_ivp(prob, 1e70, 1e-8)
        assert sol.meta["termination"] == "stall"
        assert sol.meta["steps"] == 25

    @pytest.mark.parametrize("nl", [
        Nonlinearity.power(5), Nonlinearity.power(2.5), Nonlinearity.exponential(2),
        Nonlinearity.custom(lambda s: s**3 + s, lambda s: 3.0 * s**2 + 1.0),
    ])
    def test_float_f_matches_array_f(self, nl):
        ss = np.array([1e-3, 0.7, 5.0, 40.0])
        vals = [nl.float_f()(float(s)) for s in ss]
        assert all(type(v) is float for v in vals)
        np.testing.assert_allclose(vals, nl.f(ss), rtol=1e-15, atol=0.0)
        if nl.kind != "custom":
            with pytest.raises(OverflowError):
                nl.float_f()(1e300)

    @pytest.mark.parametrize("weight", [Weight.constant(2.0), Weight.power(1.5)])
    def test_from_weight_scalar_matches_array(self, weight):
        prob = RadialProblem.from_weight(3, 2, 1.0, Nonlinearity.power(5), weight, base=1.5)
        rs = np.array([0.0, 1e-12, 0.3, 0.999, 1.0, 1.01])
        scalar = [prob.b(float(r)) for r in rs]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(scalar, prob.b(rs), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("weight, base", [(Weight.constant(1.0), None),
                                              (Weight.constant(2.0, b_lower=0.7), 1.5)])
    def test_constant_weight_fast_path_bit_identical(self, weight, base):
        # b(r) folded into one number once gives the same IVP, bit for bit, as a
        # b that evaluates the weight at every right-hand-side call
        nl = Nonlinearity.power(5)
        prob = RadialProblem.from_weight(3, 2, 1.0, nl, weight, base=base)
        scale = weight.b_lower if base is None else base
        calls = []

        def b_each_call(r):
            calls.append(1)
            return scale * float(weight.m(max(1.0 - r, 1e-300))) ** 3.0

        slow = RadialProblem(n=3, k=2, R=1.0, f=nl, b=b_each_call)
        fast, ref = (integrate_blowup_ivp(p, 5.0, 1e-8) for p in (prob, slow))
        assert len(calls) > 1000
        assert fast.meta["steps"] == ref.meta["steps"]
        assert fast.Rstar == ref.Rstar
        assert np.array_equal(fast.r, ref.r) and np.array_equal(fast.u, ref.u)

    def test_constant_weight_rhs_makes_no_b_call(self):
        prob = RadialProblem.from_weight(3, 2, 1.0, Nonlinearity.power(5),
                                         Weight.constant(2.0, b_lower=0.7), base=1.5)
        assert prob.b_const == 1.5 * 2.0**3
        calls = []
        counted = dataclasses.replace(prob, b=lambda r: calls.append(1) or prob.b(r))
        sol = integrate_blowup_ivp(counted, 5.0, 1e-8)
        assert len(calls) == 1  # b(0) of the start-up series; the right-hand side takes b_const
        assert sol.Rstar == integrate_blowup_ivp(prob, 5.0, 1e-8).Rstar


class TestShooting:
    def test_shoot_to_unit_ball(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert sol.Rstar == pytest.approx(1.0, abs=1e-7)
        assert u0 > 0

    # the constant-weight verify-asymptotics cases of the benchmark: the parameters
    # are the shots of Brent on the raw gap in u0, SHOTS the shots in the scaling
    # coordinate (u0 for exponential f, log u0 for power f), bit for bit
    @pytest.mark.parametrize("n, k, nl, u0, Rstar", [
        (3, 2, Nonlinearity.power(5), 2.6604497942870005, 0.999999999213772),
        (2, 1, Nonlinearity.exponential(2), 0.6931471762449922, 1.0000000037493049),
        (4, 3, Nonlinearity.power(7), 2.7301608579200742, 0.9999999997089148),
    ])
    def test_pinned_shots(self, n, k, nl, u0, Rstar):
        prob = RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0))
        got, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert (got, sol.Rstar) == self.SHOTS[n, k]
        assert abs(got - u0) <= 1e-13 * u0
        assert sol.Rstar == pytest.approx(Rstar, rel=1e-12, abs=0.0)

    SHOTS = {(3, 2): (2.660449794287001, 0.9999999992137736),
             (2, 1): (0.6931471762450053, 1.000000003749293),
             (4, 3): (2.730160857920078, 0.9999999997089144)}

    @pytest.mark.parametrize("n, k, nl", [
        (3, 2, Nonlinearity.power(5)),
        (2, 1, Nonlinearity.exponential(2)),
        (4, 3, Nonlinearity.power(7)),
    ])
    def test_ivps_per_shot(self, monkeypatch, n, k, nl):
        # log R* is affine in the shooting coordinate, so the secant steps land at
        # once; Brent on the raw gap in u0 took 11, 9 and 11 IVPs here
        prob = RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0))
        ivp = radial.integrate_blowup_ivp
        sols = []
        monkeypatch.setattr(radial, "integrate_blowup_ivp",
                            lambda *a, **kw: sols.append(ivp(*a, **kw)) or sols[-1])
        _, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert len(sols) <= 6
        assert sol.meta["shot"] == {"ivps": len(sols),
                                    "steps": sum(s.meta["steps"] for s in sols),
                                    "rejected": sum(s.meta["rejected"] for s in sols)}


class TestRootFinderPorts:
    # the constant-weight verify-asymptotics cases of the benchmark
    @pytest.mark.parametrize("n, k, nl", [
        (3, 2, Nonlinearity.power(5)),
        (2, 1, Nonlinearity.exponential(2)),
        (4, 3, Nonlinearity.power(7)),
    ])
    def test_shot_u0_matches_scipy_brentq(self, monkeypatch, n, k, nl):
        prob = RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0))
        ivp = radial.integrate_blowup_ivp
        calls = []
        monkeypatch.setattr(radial, "integrate_blowup_ivp",
                            lambda *a, **kw: calls.append(1) or ivp(*a, **kw))
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        port_calls = len(calls)
        calls.clear()
        # scipy's brentq evaluates both bracket ends again
        monkeypatch.setattr(radial, "_brent_root",
                            lambda f, xa, xb, fa, fb, **kw: brentq(f, xa, xb, **kw))
        u0_ref, sol_ref = shoot_blowup_radius(prob, tol=1e-9)
        assert abs(u0 - u0_ref) <= 1e-13 * abs(u0_ref)
        assert sol.Rstar == pytest.approx(sol_ref.Rstar, rel=1e-12, abs=0.0)
        assert len(calls) - port_calls == 2

    @pytest.mark.parametrize("fn, a, b", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 10.0, -1.0, 5.0),
        (lambda x: (x - 0.3) ** 3, -2.0, 1.0),
        (lambda x: math.atan(50.0 * (x - 0.123)), -1.0, 4.0),
    ])
    @pytest.mark.parametrize("xtol", [1e-300, 1e-12, 1e-4])
    def test_brent_matches_scipy_on_closed_forms(self, fn, a, b, xtol):
        root = _brent_root(fn, a, b, fn(a), fn(b), xtol=xtol, rtol=8.9e-16, maxiter=200)
        assert root == brentq(fn, a, b, xtol=xtol, rtol=8.9e-16, maxiter=200)

    def test_brent_rejects_unbracketed(self):
        with pytest.raises(SolveFailure):
            _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, 1e-12, 8.9e-16, 50)

    def test_sublevel_radius_matches_scipy_bisect(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        pair = PsiPair(Nonlinearity.power(5), 2)
        sub = RadialSubsolution(solve_torsion(prob), pair)
        w = sub.torsion
        for j in (2.0, 10.0, 1e3):
            target = -float(pair.Psi(j))
            ref = bisect(lambda r: float(w.value(r)) - target, 0.0, 1.0, xtol=1e-14, maxiter=200)
            assert sub.sublevel_radius(j) == ref


class TestHermite:
    def test_reproduces_a_cubic(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 1.0, 40))
        c = np.array([0.7, -2.0, 3.5, 1.25])
        y = c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
        dy = c[1] + 2.0 * c[2] * x + 3.0 * c[3] * x**2
        xq = np.concatenate([rng.uniform(x[0], x[-1], 500), x])
        exact = c[0] + c[1] * xq + c[2] * xq**2 + c[3] * xq**3
        assert np.max(np.abs(_hermite(x, y, dy, xq) - exact)) <= 1e-14

    def test_report_interpolates_exact_liouville_samples(self):
        # u = log(2/(1 - r^2)) and its slope on the shot's own radii, blow-up at 1:
        # what remains is interpolation error (Pchip in log d gives 4e-9 here)
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        r = integrate_blowup_ivp(prob, math.log(2.0), 1e-9).r
        r = r[r < 1.0 - 1e-13]
        sol = RadialSolution(r=r, u=liouville(r), u1=2.0 * r / (1.0 - r**2), Rstar=1.0)
        p = assemble_profile(Nonlinearity.exponential(2), Weight.constant(1.0), 1)
        rep = asymptotics_report(sol, p, xi=1.0, d_values=np.geomspace(1e-4, 1e-2, 17))
        exact = liouville(1.0 - rep.d)
        assert np.max(np.abs(rep.rows[:, 1] - exact) / exact) <= 1e-9


class TestExhaustionBVP:
    def test_matches_truncated_liouville(self):
        prob = RadialProblem(n=2, k=1, R=0.9, f=Nonlinearity.exponential(2), b=B_ONE)
        jb = float(liouville(0.9))
        sols = solve_exhaustion_bvp(prob, [jb], grid_h=1.0 / 512.0, tol=1e-10)
        sol = sols[0]
        err = np.max(np.abs(sol.u - liouville(sol.r)))
        assert err < 1e-4

    def test_matches_truncated_monge_ampere(self):
        b = lambda r: (1.0 + np.asarray(r, float) ** 2) / 2.0
        prob = RadialProblem(n=2, k=2, R=0.9, f=Nonlinearity.exponential(3), b=b)
        jb = float(liouville(0.9))
        sols = solve_exhaustion_bvp(prob, [jb], grid_h=1.0 / 512.0, tol=1e-10)
        err = np.max(np.abs(sols[0].u - liouville(sols[0].r)))
        assert err < 1e-3

    def test_monotone_in_boundary_data(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        sols = solve_exhaustion_bvp(prob, [2.0, 4.0, 8.0], grid_h=1.0 / 128.0, tol=1e-9)
        for a, b_ in zip(sols, sols[1:]):
            assert np.all(b_.u - a.u >= -1e-8)

    def test_interior_cauchy_contraction(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        sols = solve_exhaustion_bvp(prob, [8.0, 16.0, 32.0], grid_h=1.0 / 128.0, tol=1e-9)
        mid = len(sols[0].r) // 2  # r = 0.5
        d1 = abs(sols[1].u[mid] - sols[0].u[mid])
        d2 = abs(sols[2].u[mid] - sols[1].u[mid])
        assert d2 < d1

    @pytest.mark.parametrize("N", [8, 200])
    def test_banded_jacobian_matches_loop(self, N):
        # the tridiagonal assembly against the node-by-node loop it replaced
        n, k, R = 3, 2, 1.0
        f = Nonlinearity.power(5)
        h = R / N
        r = np.linspace(0.0, R, N + 1)
        rmid = 0.5 * (r[:-1] + r[1:])
        alpha = math.comb(n - 1, k - 1) / (k * h * r[1:N] ** (n - 1))
        U = 2.0 + 3.0 * (r[:N] / R) ** 2 + 0.1 * np.sin(7.0 * r[:N])
        g = np.diff(np.concatenate([U, [6.0]])) / h
        dflux = rmid ** (n - k) * k * np.abs(g) ** (k - 1) / h
        b_nodes = 1.0 + r[:N] ** 2
        centre = math.comb(n, k) * k * abs(2.0 * g[0] / h) ** (k - 1) * 2.0 / (h * h)

        ref = np.zeros((3, N))
        ref[1, 0] = -centre - b_nodes[0] * f.f_prime(U[0])
        ref[0, 1] = centre
        for i in range(1, N):
            ref[1, i] = -alpha[i - 1] * (dflux[i] + dflux[i - 1]) - b_nodes[i] * f.f_prime(U[i])
            ref[2, i - 1] = alpha[i - 1] * dflux[i - 1]
            if i + 1 < N:
                ref[0, i + 1] = alpha[i - 1] * dflux[i]

        ab = _exhaustion_banded(alpha, dflux, centre, b_nodes * f.f_prime(U))
        np.testing.assert_allclose(ab, ref, rtol=1e-15, atol=0.0)

    def test_bad_schedule(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        with pytest.raises(ParameterError):
            solve_exhaustion_bvp(prob, [4.0, 2.0], grid_h=0.01, tol=1e-8)


class TestSubsolution:
    def test_closed_form_composition(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = build_radial_subsolution(prob)
        # psi((1-r^2)/4) = sqrt(2) (1-r^2)^{-1/2}
        assert sub(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-8)
        for r in (0.3, 0.6, 0.9):
            assert sub(r) == pytest.approx(math.sqrt(2.0) / math.sqrt(1.0 - r * r), rel=1e-8)

    def test_monotone_and_blowup(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = build_radial_subsolution(prob)
        rs = np.linspace(0.0, 0.999, 40)
        vals = np.asarray(sub(rs))
        assert np.all(np.diff(vals) > 0.0)
        assert sub(0.999999) > 1e2

    def test_scalar_and_array_arguments(self):
        # a scalar gives a float, an array keeps its shape, even with one entry
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = build_radial_subsolution(prob)
        one = sub(np.array([0.3]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert type(sub(0.3)) is float and one[0] == sub(0.3)
        assert sub(np.array([0.3, 0.6])).shape == (2,)

    def test_sublevel_radius(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = build_radial_subsolution(prob)
        rj = sub.sublevel_radius(10.0)
        assert sub(rj) == pytest.approx(10.0, rel=1e-6)
        with pytest.raises(ParameterError):
            sub.sublevel_radius(0.5 * sub(0.0))

    def test_subsolution_inequality(self):
        # S_k(D^2 psi(-w)) >= b f(psi(-w)), derivatives by central differences
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = build_radial_subsolution(prob)
        for r in np.linspace(0.05, 0.95, 100):
            h = 1e-5 * r
            v = float(sub(r))
            d1 = (float(sub(r + h)) - float(sub(r - h))) / (2 * h)
            d2 = (float(sub(r + h)) - 2 * v + float(sub(r - h))) / (h * h)
            lhs = sk_radial(d1, d2, r, 2, 1)
            rhs = v**3
            assert lhs >= rhs - 1e-4 * rhs


class TestAsymptoticsReport:
    def test_liouville_ratio(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-10)
        p = assemble_profile(Nonlinearity.exponential(2), Weight.constant(1.0), 1)
        rep = asymptotics_report(sol, p, xi=1.0, d_values=[1e-2, 1e-3])
        ratios = rep.ratio
        assert abs(ratios[-1] - 1.0) < 0.02
        # prediction equals -log(sin d)
        d, u, pred, _ = rep.rows[-1]
        assert pred == pytest.approx(-math.log(math.sin(d)), rel=1e-8)

    def test_default_ladder_spans_two_decades(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        sol = integrate_blowup_ivp(prob, 5.0, tol=1e-9)
        p = assemble_profile(Nonlinearity.power(5), Weight.constant(1.0), 2)
        rep = asymptotics_report(sol, p, xi=0.5 ** (1.0 / 3.0))
        assert rep.d.max() / rep.d.min() >= 99.0

    def test_out_of_range_truncates(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-8)
        p = assemble_profile(Nonlinearity.exponential(2), Weight.constant(1.0), 1)
        with pytest.raises(ReportTruncated):
            asymptotics_report(sol, p, xi=1.0, d_values=[2.0])
        with pytest.raises(ReportTruncated) as ei:
            asymptotics_report(sol, p, xi=1.0, d_values=[0.5, 1e-280])
        assert ei.value.rows is not None
