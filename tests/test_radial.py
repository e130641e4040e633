import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from khessian import _quad, radial
from khessian.errors import ParameterError, ReportTruncated, SolveFailure
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import PsiPair, assemble_profile
from khessian.radial import (
    RadialProblem,
    RadialSolution,
    _brent_root,
    _ck_step,
    _exhaustion_banded,
    _hermite,
    _make_rhs,
    asymptotics_report,
    integrate_blowup_ivp,
    shoot_blowup_radius,
    solve_exhaustion_bvp,
    solve_torsion,
)
from khessian.symfunc import sk_radial

B_ONE = lambda r: np.ones_like(np.asarray(r, float))


def liouville(r):
    return np.log(2.0 / (1.0 - np.asarray(r, float) ** 2))


@pytest.mark.parametrize("bad", [
    lambda r: math.exp(r), lambda r: max(1.0 - r, 1e-300), lambda r: 1.0,
    lambda r: np.sum(np.asarray(r, float)), lambda r: np.ones(3),
], ids=["math-exp", "max", "float", "sum", "three"])
def test_source_b_must_take_and_return_arrays(bad):
    with pytest.raises(ParameterError, match="source b must take an array"):
        RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=bad)


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


class TestTorsionTable:
    def test_partial_integration_matrix_is_exact(self):
        # Q integrates every polynomial of degree <= 9 from -1 to each Gauss node
        x = _quad._GL_NODES
        for d in range(10):
            want = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(_quad._GL_PARTIAL @ x**d - want)) <= 1e-15

    @settings(max_examples=20)
    @given(st.integers(0, 2), st.integers(-2, 2), st.booleans(), st.integers(0, 2**16))
    def test_blocked_panels_equal_row_at_a_time(self, blocks, extra, scalar_end, seed):
        # panel_integrals takes _PANEL_BLOCK panels at a time; at sizes straddling the
        # block, each panel's value is bitwise the one it has when integrated alone
        n = max(1, blocks * _quad._PANEL_BLOCK + extra)
        rng = np.random.default_rng(seed)
        a = rng.uniform(1e-3, 5.0, n)
        b = 6.0 if scalar_end else a + rng.uniform(1e-6, 2.0, n)
        fn = lambda s: np.exp(-s) * np.sqrt(s)
        want = [_quad.panel_integrals(fn, a[i], np.broadcast_to(b, n)[i]) for i in range(n)]
        assert np.array_equal(_quad.panel_integrals(fn, a, b), want)

    @pytest.mark.parametrize("n_seg, table", [(512, True), (1536, True), (2048, True)])
    def test_b_evaluations_stay_linear_in_the_panels(self, monkeypatch, n_seg, table):
        # n_seg panels, a multiple of 512: the samples are read off the table, so b is
        # evaluated about twice per Gauss node (per-sample panels took ~56,000 more)
        monkeypatch.setattr(radial, "_TORSION_PANELS", n_seg)
        count = [0]

        def b(r):
            count[0] += np.size(r)
            return 1.0 + np.asarray(r, float) ** 2

        solve_torsion(RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=b))
        assert 10 * n_seg <= count[0]
        assert (count[0] <= 2 * 10 * n_seg + 10_000) == table

    @pytest.mark.parametrize("n_seg", [2048, 1536])
    @pytest.mark.parametrize("n, k, weight", [(2, 1, None), (3, 2, 1.0), (4, 3, None)])
    def test_samples_equal_the_callables(self, monkeypatch, n_seg, n, k, weight):
        monkeypatch.setattr(radial, "_TORSION_PANELS", n_seg)
        f = Nonlinearity.power(7)
        prob = (RadialProblem(n=n, k=k, R=1.0, f=f, b=B_ONE) if weight is None
                else RadialProblem.from_weight(n, k, 1.0, f, Weight.power(weight)))
        sol = solve_torsion(prob)
        assert np.max(np.abs(sol.r - np.linspace(0.0, 1.0, 513))) <= 2.3e-16
        assert np.max(np.abs(sol.u - sol.value(sol.r))) <= 1e-15
        assert np.max(np.abs(sol.u1 - sol.deriv1(sol.r))) <= 1e-15
        assert sol.u1[0] == 0.0 and abs(sol.u[-1]) <= 1e-15

    @pytest.mark.parametrize("R", [1.0, 0.7, 3.3])
    @pytest.mark.parametrize("n_seg", [512, 2048])
    def test_sample_radii_are_the_uniform_grid(self, monkeypatch, n_seg, R):
        # every (n_seg / 512)-th node of a power-of-two table is bitwise the 513-point grid
        monkeypatch.setattr(radial, "_TORSION_PANELS", n_seg)
        prob = RadialProblem(n=2, k=1, R=R, f=Nonlinearity.power(3), b=B_ONE)
        assert np.array_equal(solve_torsion(prob).r, np.linspace(0.0, R, 513))

    @pytest.mark.parametrize("n, weight", [(9, 1.0), (10, None), (12, None), (20, None), (30, None)])
    def test_moment_at_nodes_matches_fresh_panels(self, n, weight):
        # s^(n-1) b(s) is tiny near 0 against the spectral partial's error:
        # the moment at every Gauss node stays within 1e-14 of a fresh panel
        prob = (RadialProblem(n=n, k=2, R=1.0, f=Nonlinearity.power(7), b=B_ONE) if weight is None
                else RadialProblem.from_weight(n, 2, 1.0, Nonlinearity.power(7), Weight.power(weight)))
        moment = radial._CumulativeUniform(lambda s: s ** (n - 1) * prob.b(s), 1.0)
        got, want = moment.at_points(), moment.value(moment.points)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("n, k", [(10, 1), (12, 2), (20, 3)])
    def test_high_dimension_closed_form(self, n, k):
        # b = 1: w = (r^2 - R^2) / (2 C(n, k)^(1/k))
        sol = solve_torsion(RadialProblem(n=n, k=k, R=1.0, f=Nonlinearity.power(7), b=B_ONE))
        exact = (sol.r**2 - 1.0) / (2.0 * math.comb(n, k) ** (1.0 / k))
        assert np.max(np.abs(sol.u - exact)) <= 1e-15
        assert np.max(np.abs(sol.u1 - sol.r / math.comb(n, k) ** (1.0 / k))) <= 1e-15

    def test_power_weight_in_nine_dimensions(self):
        # b = (R - r)^3, n = 9: the spectral moment at the first Gauss node
        # alone would be negative and every later sample nan
        prob = RadialProblem.from_weight(9, 2, 1.0, Nonlinearity.power(5), Weight.power(1.0))
        sol = solve_torsion(prob)
        assert np.all(np.isfinite(sol.u)) and np.all(np.isfinite(sol.u1))
        assert np.all(np.diff(sol.u) > 0.0) and abs(sol.u[-1]) <= 1e-15
        assert np.max(np.abs(sol.u - sol.value(sol.r))) <= 1e-15


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

    def test_start_value_in_the_domain_of_f(self):
        # e^(2u) is defined on all of R: from u0 = -1, u = log(2R / (R^2 - r^2)) blows up
        # at R = 2e; u^3 and a custom f are defined on (0, inf), and e^(2u) needs a finite u0
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        assert integrate_blowup_ivp(prob, -1.0, tol=1e-10).Rstar == pytest.approx(
            2.0 * math.e, rel=1e-7)
        with pytest.raises(ParameterError, match="initial value must be finite, got -inf"):
            integrate_blowup_ivp(prob, -math.inf, tol=1e-8)
        cube = Nonlinearity.custom(lambda s: np.asarray(s, float) ** 3,
                                   lambda s: 3.0 * np.asarray(s, float) ** 2)
        for f in (Nonlinearity.power(3), cube):
            prob = RadialProblem(n=2, k=1, R=1.0, f=f, b=B_ONE)
            with pytest.raises(ParameterError, match="initial value must be positive, got 0.0"):
                integrate_blowup_ivp(prob, 0.0, tol=1e-8)

    @pytest.mark.parametrize("u0, caps", [(radial.IVP_CAP, {}), (1e13, {}),
                                          (2.0, {"u_cap": 2.0}), (1.0, {"v_cap": 0.0})])
    def test_start_at_or_above_a_cap_rejected(self, u0, caps):
        # a start past the cap has no crossing to locate: power:2.05 from u0 = 1e12
        # used to divide by zero in the crossing search
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(2.05), b=B_ONE)
        with pytest.raises(ParameterError, match="must lie below the blow-up caps"):
            integrate_blowup_ivp(prob, u0, 1e-9, **caps)


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
        y5, err = _ck_step(rhs, r, y, h, rhs(r, y))
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
        calls.clear()  # the construction's one array check of b
        sol = integrate_blowup_ivp(prob, u0, tol)
        assert sol.meta["termination"] == "cap"
        assert (sol.meta["steps"], sol.meta["rejected"]) == (steps, rejected)
        assert len(calls) == self.B_CALLS[n, k]
        assert sol.Rstar == pytest.approx(Rstar, rel=1e-13, abs=0.0)

    # b evaluations of those integrations: each accepted state's right-hand side is
    # the next step's first stage, and the cap crossing is found by Brent's method
    B_CALLS = {(3, 2): 1684, (2, 1): 3736, (4, 3): 3707}

    def test_overflow_rejects_without_warnings(self):
        # f(u0) = 1e350 overflows: every step is rejected until the step size stalls
        # (caps above u0, which the default cap is not)
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = integrate_blowup_ivp(prob, 1e70, 1e-8, u_cap=1e300, v_cap=1e300)
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

    @pytest.mark.parametrize("weight", [Weight.constant(2.0, b_lower=1.5, b_upper=1.5),
                                        Weight.power(1.5, b_lower=1.5, b_upper=1.5)])
    def test_from_weight_scalar_matches_array(self, weight):
        prob = RadialProblem.from_weight(3, 2, 1.0, Nonlinearity.power(5), weight)
        rs = np.array([0.0, 1e-12, 0.3, 0.999, 1.0, 1.01])
        scalar = [prob.b(float(r)) for r in rs]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(scalar, prob.b(rs), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("weight, base", [(Weight.constant(1.0), None),
                                              (Weight.constant(2.0), 1.5)])
    def test_constant_weight_fast_path_bit_identical(self, weight, base):
        # b(r) folded into one number once gives the same IVP, bit for bit, as a
        # b that evaluates the weight at every right-hand-side call; base, when
        # given, replaces the weight's bounds b_lower and b_upper
        if base is not None:
            weight = dataclasses.replace(weight, b_lower=base, b_upper=base)
        nl = Nonlinearity.power(5)
        prob = RadialProblem.from_weight(3, 2, 1.0, nl, weight)
        scale = weight.b_lower
        calls = []

        def b_each_call(r):  # an array in, an array out, as a problem's b must
            calls.append(1)
            return scale * np.asarray(weight.m(np.maximum(1.0 - r, 1e-300)), float) ** 3.0

        slow = RadialProblem(n=3, k=2, R=1.0, f=nl, b=b_each_call)
        fast, ref = (integrate_blowup_ivp(p, 5.0, 1e-8) for p in (prob, slow))
        assert len(calls) > 1000
        assert fast.meta["steps"] == ref.meta["steps"]
        assert fast.Rstar == ref.Rstar
        assert np.array_equal(fast.r, ref.r) and np.array_equal(fast.u, ref.u)

    def test_constant_weight_rhs_makes_no_b_call(self):
        prob = RadialProblem.from_weight(3, 2, 1.0, Nonlinearity.power(5),
                                         Weight.constant(2.0, b_lower=1.5, b_upper=1.5))
        assert prob.b_const == 1.5 * 2.0**3
        calls = []
        counted = dataclasses.replace(prob, b=lambda r: calls.append(1) or prob.b(r))
        calls.clear()  # the construction's one array check of b
        sol = integrate_blowup_ivp(counted, 5.0, 1e-8)
        assert len(calls) == 1  # b(0) of the start-up series; the right-hand side takes b_const
        assert sol.Rstar == integrate_blowup_ivp(prob, 5.0, 1e-8).Rstar


def bracketed(prob):
    """The same problem with b a plain callable: its shot takes the bracket path."""
    return dataclasses.replace(prob, b_const=None)


class TestShooting:
    def test_shoot_to_unit_ball(self):
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert sol.Rstar == pytest.approx(1.0, abs=1e-7)
        assert u0 > 0

    # the constant-weight verify-asymptotics cases of the benchmark: the parameters
    # are the shots of Brent on the raw gap in u0, BRACKET_SHOTS the bracketed shots
    # in the scaling coordinate (u0 for exponential f, log u0 for power f), SHOTS
    # the shots by the scaling law, bit for bit
    @pytest.mark.parametrize("n, k, nl, u0, Rstar", [
        (3, 2, Nonlinearity.power(5), 2.6604497942870005, 0.999999999213772),
        (2, 1, Nonlinearity.exponential(2), 0.6931471762449922, 1.0000000037493049),
        (4, 3, Nonlinearity.power(7), 2.7301608579200742, 0.9999999997089148),
    ])
    def test_pinned_shots(self, n, k, nl, u0, Rstar):
        prob = RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0))
        got, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert (got, sol.Rstar) == self.SHOTS[n, k]
        got, sol = shoot_blowup_radius(bracketed(prob), tol=1e-9)
        assert (got, sol.Rstar) == self.BRACKET_SHOTS[n, k]
        assert abs(got - u0) <= 1e-13 * u0
        assert sol.Rstar == pytest.approx(Rstar, rel=1e-12, abs=0.0)

    SHOTS = {(3, 2): (2.6604497912819425, 1.000000000060921),
             (2, 1): (0.6931471800972899, 0.9999999998970095),
             (4, 3): (2.730160856619382, 1.0000000000265254)}
    BRACKET_SHOTS = {(3, 2): (2.660449794286999, 0.9999999992137744),
                     (2, 1): (0.6931471762450051, 1.0000000037492933),
                     (4, 3): (2.7301608579200356, 0.9999999997089236)}

    @staticmethod
    def counted_shot(monkeypatch, prob):
        """The shot of prob, and every solution of the IVPs it made."""
        ivp = radial.integrate_blowup_ivp
        sols = []
        monkeypatch.setattr(radial, "integrate_blowup_ivp",
                            lambda *a, **kw: sols.append(ivp(*a, **kw)) or sols[-1])
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert {k: v for k, v in sol.meta["shot"].items() if k != "path"} == {
            "ivps": len(sols), "steps": sum(s.meta["steps"] for s in sols),
            "rejected": sum(s.meta["rejected"] for s in sols)}
        return u0, sol, sols

    @pytest.mark.parametrize("n, k, nl", [
        (3, 2, Nonlinearity.power(5)),
        (2, 1, Nonlinearity.exponential(2)),
        (4, 3, Nonlinearity.power(7)),
    ])
    def test_ivps_per_shot(self, monkeypatch, n, k, nl):
        # the scaling law puts the second IVP on the target within tol; on the bracket
        # path log R* is affine in the shooting coordinate, so the secant steps land at
        # once; Brent on the raw gap in u0 took 11, 9 and 11 IVPs here
        prob = RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0))
        _, sol, sols = self.counted_shot(monkeypatch, prob)
        assert sol.meta["shot"]["path"] == "scaling" and len(sols) == 2
        assert sol is sols[-1] and abs(math.log(sol.Rstar)) <= 1e-9
        _, sol, sols = self.counted_shot(monkeypatch, bracketed(prob))
        assert sol.meta["shot"]["path"] == "bracket" and len(sols) <= 6

    @pytest.mark.parametrize("R", [0.25, 0.5, 1.0, 1.9])
    def test_liouville_shot_is_log_2_over_R(self, R):
        # u = log(2R / (R^2 - r^2)) solves u'' + u'/r = e^(2u) and blows up at R
        prob = RadialProblem.from_weight(2, 1, R, Nonlinearity.exponential(2), Weight.constant(1.0))
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert sol.meta["shot"]["path"] == "scaling"
        assert abs(u0 - math.log(2.0 / R)) <= 1e-9

    @pytest.mark.parametrize("n, k, nl, R", [
        (3, 2, Nonlinearity.power(5), 1.0),
        (2, 1, Nonlinearity.exponential(2), 1.0),
        (4, 3, Nonlinearity.power(7), 1.0),
        (3, 2, Nonlinearity.exponential(1), 0.3),
        (4, 1, Nonlinearity.power(3), 2.5),
    ])
    def test_scaling_shot_matches_bracketed_shot(self, n, k, nl, R):
        prob = RadialProblem.from_weight(n, k, R, nl, Weight.constant(1.0))
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        u0_ref, _ = shoot_blowup_radius(bracketed(prob), tol=1e-9)
        assert sol.meta["shot"]["path"] == "scaling"
        assert abs(u0 - u0_ref) <= 1e-8 * u0_ref

    # n <= 4, every k <= n, f = u^(k + 1/2), u^(k + 1), u^(2k + 1) and e^(2u), constant weight
    SWEEP = [(n, k, nl) for n in range(2, 5) for k in range(1, n + 1)
             for nl in (Nonlinearity.power(k + 0.5), Nonlinearity.power(k + 1.0),
                        Nonlinearity.power(2.0 * k + 1.0), Nonlinearity.exponential(2))]

    @pytest.mark.parametrize("n, k, nl", SWEEP)
    def test_shots_hit_the_target_across_n_k_f(self, n, k, nl):
        # R*(u0) must be continuous for Brent to close in on R: a crossing taken from
        # the first state past the cap, with no search, missed 8 of these
        prob = RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0))
        _, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert abs(sol.Rstar - 1.0) <= 1e-6

    def test_unverified_prediction_falls_back_to_the_bracket(self, monkeypatch):
        # u0 = R*0^4 here, and the first IVP's R*0 = 5.04 is not exact: the prediction
        # blows up at 1 - 5.2e-6; the bracketed shot that follows is the one of b as a
        # plain callable, bit for bit
        prob = RadialProblem.from_weight(5, 2, 1.0, Nonlinearity.power(3), Weight.constant(1.0))
        u0, sol, _ = self.counted_shot(monkeypatch, prob)
        ref, ref_sol = shoot_blowup_radius(bracketed(prob), tol=1e-9)
        assert sol.meta["shot"]["path"] == "bracket"
        assert (u0, sol.Rstar) == (ref, ref_sol.Rstar) == (643.4477875819742, 0.9999999994528085)
        assert sol.meta["shot"]["ivps"] == ref_sol.meta["shot"]["ivps"] + 2

    @pytest.mark.parametrize("R", [2.0, 2.5, 3.0, 10.0])
    def test_exponential_shot_reaches_nonpositive_u0(self, R):
        # for exp:2 the shot is u0 = log(2 / R) <= 0: the scaling law predicts it, and the
        # bracket steps down by log 4 in u0 past 0 (from 1, it stopped at 0 + 4^-60 and
        # failed to bracket R from below)
        prob = RadialProblem.from_weight(2, 1, R, Nonlinearity.exponential(2), Weight.constant(1.0))
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        assert sol.meta["shot"]["path"] == "scaling" and sol.meta["shot"]["ivps"] == 2
        assert abs(u0 - math.log(2.0 / R)) <= 1e-9
        u0, sol = shoot_blowup_radius(bracketed(prob), tol=1e-9)
        assert sol.meta["shot"]["path"] == "bracket" and sol.meta["shot"]["ivps"] <= 7
        assert abs(u0 - math.log(2.0 / R)) <= 2e-8

    def test_expansion_stays_below_the_cap(self, monkeypatch):
        # for power:2.05 at k = 2, R*(u0) > 1 for every u0 below the cap
        prob = RadialProblem.from_weight(3, 2, 1.0, Nonlinearity.power(2.05), Weight.constant(1.0))
        ivp = radial.integrate_blowup_ivp
        starts = []
        monkeypatch.setattr(radial, "integrate_blowup_ivp",
                            lambda p, u0, *a, **kw: starts.append(u0) or ivp(p, u0, *a, **kw))
        with pytest.raises(SolveFailure, match="could not bracket the target blow-up "
                                               "radius from above"):
            shoot_blowup_radius(prob, tol=1e-9)
        assert max(starts) == 4.0**19 < radial.IVP_CAP <= 4.0**20

    def test_series_start_past_a_cap_ends_the_expansion(self):
        # power:40 at k = 1: R*(1) = 0.456 > 0.3, and from u0 = 4 the series start at
        # r = 1e-8 R already has u' = 1.8e15, above the cap, so R*(4) < 1e-8 R closes
        # the bracket; Brent's root agrees with the scaling-law shot
        prob = RadialProblem.from_weight(2, 1, 0.3, Nonlinearity.power(40.0), Weight.constant(1.0))
        u0_law, _ = shoot_blowup_radius(prob, tol=1e-9)
        u0, sol = shoot_blowup_radius(bracketed(prob), tol=1e-9)
        assert sol.meta["shot"]["path"] == "bracket"
        assert abs(u0 / u0_law - 1.0) <= 1e-8

    def test_shot_that_misses_the_target_fails(self):
        # R*(u0) jumps over the target between u0 = 4.5e10 (1.056) and 4.6e10 (0.525),
        # starts within a factor 25 of the cap; Brent closes in on the jump
        prob = RadialProblem.from_weight(6, 4, 1.0, Nonlinearity.power(4.5), Weight.constant(1.0))
        with pytest.raises(SolveFailure, match="shot missed the target blow-up radius") as exc:
            shoot_blowup_radius(prob, tol=1e-9)
        (sol,) = exc.value.partial
        assert abs(sol.Rstar - 1.0) > 1e-6 and sol.meta["shot"]["path"] == "bracket"


class TestRootFinderPorts:
    # the constant-weight verify-asymptotics cases of the benchmark, on the bracket path
    @pytest.mark.parametrize("n, k, nl", [
        (3, 2, Nonlinearity.power(5)),
        (2, 1, Nonlinearity.exponential(2)),
        (4, 3, Nonlinearity.power(7)),
    ])
    def test_shot_u0_matches_scipy_brentq(self, monkeypatch, n, k, nl):
        prob = bracketed(RadialProblem.from_weight(n, k, 1.0, nl, Weight.constant(1.0)))
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
    def test_scaling_identity(self):
        # b = 4: u + log 2 solves the b = 1 problem with data j + log 2, exactly on the
        # grid too; f and f' are evaluated at u as it is, where a clamp at u = 1e-12 made
        # Newton converge to another equation wherever an iterate dipped below 0
        f, js = Nonlinearity.exponential(2), [2.0, 4.0, 6.0]
        four = solve_exhaustion_bvp(RadialProblem.from_weight(2, 1, 1.0, f, Weight.constant(2.0)),
                                    js, grid_h=1.0 / 512.0, tol=1e-9)
        one = solve_exhaustion_bvp(RadialProblem.from_weight(2, 1, 1.0, f, Weight.constant(1.0)),
                                   [j + math.log(2.0) for j in js], grid_h=1.0 / 512.0, tol=1e-9)
        for a, b in zip(four, one):
            assert np.max(np.abs(a.u - (b.u - math.log(2.0)))) <= 1e-10

    def test_start_outside_the_domain_of_f_fails(self):
        # u = j < 0 at the start: (-1)^2.5 is nan, and Newton stops there loudly
        f = Nonlinearity.custom(lambda s: np.asarray(s, float) ** 2.5,
                                lambda s: 2.5 * np.asarray(s, float) ** 1.5)
        prob = RadialProblem(n=3, k=2, R=1.0, f=f, b=B_ONE)
        with np.errstate(invalid="ignore"), pytest.raises(SolveFailure, match="nan residual"):
            solve_exhaustion_bvp(prob, [-1.0, 2.0], grid_h=1.0 / 128.0, tol=1e-9)

    @pytest.mark.parametrize("js", [[-1.0, 2.0], [0.0, 2.0]])
    def test_power_schedule_must_be_positive(self, js):
        # a power f is defined on (0, inf): with gamma = 5, j = -1 solved numpy's odd
        # extension of u^5 and returned u(0) = -0.802
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        with pytest.raises(ParameterError, match="power nonlinearity must be positive"):
            solve_exhaustion_bvp(prob, js, grid_h=1.0 / 128.0, tol=1e-9)

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


def psi_of_torsion(prob):
    """r -> psi(-w(r)), with w the torsion solution and psi the inverse pair of prob."""
    w, pair = solve_torsion(prob), PsiPair(prob.f, prob.k)
    return lambda r: pair.psi(np.maximum(-w.value(r), 1e-300))


class TestSubsolution:
    def test_closed_form_composition(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = psi_of_torsion(prob)
        # psi((1-r^2)/4) = sqrt(2) (1-r^2)^{-1/2}
        assert sub(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-8)
        for r in (0.3, 0.6, 0.9):
            assert sub(r) == pytest.approx(math.sqrt(2.0) / math.sqrt(1.0 - r * r), rel=1e-8)

    def test_monotone_and_blowup(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = psi_of_torsion(prob)
        rs = np.linspace(0.0, 0.999, 40)
        vals = np.asarray(sub(rs))
        assert np.all(np.diff(vals) > 0.0)
        assert sub(0.999999) > 1e2

    def test_subsolution_inequality(self):
        # S_k(D^2 psi(-w)) >= b f(psi(-w)), derivatives by central differences
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.power(3), b=B_ONE)
        sub = psi_of_torsion(prob)
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

    def test_out_of_range_truncates(self):
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-8)
        p = assemble_profile(Nonlinearity.exponential(2), Weight.constant(1.0), 1)
        with pytest.raises(ReportTruncated):
            asymptotics_report(sol, p, xi=1.0, d_values=[2.0])
        with pytest.raises(ReportTruncated) as ei:
            asymptotics_report(sol, p, xi=1.0, d_values=[0.5, 1e-280])
        assert ei.value.rows is not None
