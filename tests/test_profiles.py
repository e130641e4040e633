import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from khessian import profiles
from khessian.errors import (
    ConditionViolation,
    KellerOssermanViolation,
    LimitNotDetected,
    ParameterError,
)
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import (
    PsiPair,
    assemble_profile,
    build_profile,
    build_weight,
    check_limit_Ff,
    compute_Cf,
    power_law_asymptote,
    predicted_profile,
    profile_table,
    xi_bounds,
)


def phi_power_exact(k, gamma, t):
    """Closed-form profile for f = s**gamma (oracle)."""
    coeff = ((k + 1.0) ** k * (gamma + 1.0) / (gamma - k) ** (k + 1.0)) ** (1.0 / (gamma - k))
    return coeff * t ** (-(k + 1.0) / (gamma - k))


def _arr(s):
    return np.asarray(s, float)


class TestProfileIntegral:
    def test_power_phi_closed_form(self):
        # Phi(s) for f = s**gamma has an elementary antiderivative
        p = build_profile(Nonlinearity.power(3), 1)
        for s in (0.3, 1.0, 4.0, 50.0):
            exact = math.sqrt(2.0) / s  # ((gamma+1)/(k+1))**(1/(k+1)) * (k+1)/(gamma-k) * s**-1
            assert p.Phi(s) == pytest.approx(exact, rel=1e-11)

    def test_exponential_phi_closed_form(self):
        # d/ds(-asin(e^-s)) = (e^{2s}-1)^{-1/2} gives Phi in closed form for a=2, k=1
        p = build_profile(Nonlinearity.exponential(2), 1)
        assert p.Phi(1.0) == pytest.approx(math.asin(math.exp(-1.0)), rel=1e-10)
        assert p.Phi(1.0) == pytest.approx(0.376727, abs=1e-6)
        for s in (0.2, 2.0, 8.0):
            assert p.Phi(s) == pytest.approx(math.asin(math.exp(-s)), rel=1e-9)

    def test_antiderivative_oracle_differentiates_back(self):
        # validate the closed-form oracle itself before trusting it above
        h = 1e-6
        for s in (0.5, 1.0, 3.0):
            fd = -(math.asin(math.exp(-(s + h))) - math.asin(math.exp(-(s - h)))) / (2 * h)
            assert fd == pytest.approx(1.0 / math.sqrt(math.exp(2 * s) - 1.0), rel=1e-8)

    def test_phi_pinned_values(self):
        p13 = build_profile(Nonlinearity.power(3), 1)
        assert p13.phi(1.0) == pytest.approx(math.sqrt(2.0), abs=1e-6)
        p25 = build_profile(Nonlinearity.power(5), 2)
        assert p25.phi(0.5) == pytest.approx(2.0 * 2.0 ** (1.0 / 3.0), rel=1e-6)

    def test_phi_matches_closed_form_over_range(self):
        for k, gamma in ((1, 3), (2, 5), (3, 7)):
            p = build_profile(Nonlinearity.power(gamma), k)
            for t in np.logspace(-3, 0, 25):
                assert p.phi(t) == pytest.approx(phi_power_exact(k, gamma, t), rel=1e-6)

    def test_exponential_phi_inverse(self):
        p = build_profile(Nonlinearity.exponential(2), 1)
        for t in (1e-3, 1e-2, 0.3, 1.0):
            assert p.phi(t) == pytest.approx(-math.log(math.sin(t)), rel=1e-9)

    def test_inversion_residual(self):
        for nl, k in ((Nonlinearity.power(3), 1), (Nonlinearity.power(5), 2),
                      (Nonlinearity.exponential(2), 1)):
            p = build_profile(nl, k)
            for t in np.logspace(-4, 0, 17):
                assert abs(p.Phi(p.phi(t)) - t) <= 1e-8 * t

    def test_phi_prime_matches_central_difference(self):
        for nl, k in ((Nonlinearity.power(3), 1), (Nonlinearity.exponential(2), 1)):
            p = build_profile(nl, k)
            for t in (1e-2, 0.1, 0.5):
                h = 1e-6 * t
                fd = (p.phi(t + h) - p.phi(t - h)) / (2 * h)
                assert p.phi_jet(t)[1] == pytest.approx(fd, rel=1e-5)

    def test_phi_monotone_decreasing(self):
        p = build_profile(Nonlinearity.power(5), 2)
        ts = np.logspace(-3, 0.5, 30)
        vals = [p.phi(t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        phis = [p.Phi(s) for s in np.logspace(-1, 2, 30)]
        assert all(a > b for a, b in zip(phis, phis[1:]))

    def test_divergent_tail_raises(self):
        with pytest.raises(KellerOssermanViolation) as ei:
            build_profile(Nonlinearity.power(1), 1)
        assert ei.value.tail_exponent is not None and ei.value.tail_exponent <= 1.0 + 1e-9
        assert str(ei.value).startswith("(f2) ")
        # custom nonlinearity with the same divergence, detected by fitting
        slow = Nonlinearity.custom(lambda s: np.asarray(s, float),
                                   lambda s: np.ones_like(np.asarray(s, float)))
        with pytest.raises(KellerOssermanViolation):
            build_profile(slow, 1)
        # f = s + s^0.9 is no exact power: the top decade's two slopes disagree, so the fit
        # is not trusted, and the grid is pushed up until the fitted exponent stays <= 1.01
        mixed = Nonlinearity.custom(lambda s: _arr(s) + _arr(s) ** 0.9,
                                    lambda s: 1.0 + 0.9 * _arr(s) ** -0.1)
        with pytest.raises(KellerOssermanViolation,
                           match="fitted tail exponent .* after extension") as ei:
            build_profile(mixed, 1)
        assert 0.99 < ei.value.tail_exponent <= 1.01

    def test_phi_domain_error_for_exponential(self):
        # Phi(0+) is finite for exponential kinds; beyond it phi is undefined
        p = build_profile(Nonlinearity.exponential(2), 1)
        sup = p.phi_domain_sup()
        assert sup == pytest.approx(math.pi / 2.0, rel=1e-4)
        with pytest.raises(ParameterError):
            p.phi(2.0)


class TestConditionChecks:
    # (f1) and (b2) are sampled when a profile is assembled; each failure names its label
    @pytest.mark.parametrize("fn, message", [
        (lambda s: np.full_like(_arr(s), np.nan), "not evaluable on the sample grid"),
        (lambda s: _arr(s) - 1.0, "must be positive on (0, inf)"),
        (lambda s: 1.0 + 1.0 / _arr(s), "must be nondecreasing"),
    ], ids=["not-evaluable", "not-positive", "decreasing"])
    def test_f1_failures(self, fn, message):
        with pytest.raises(ParameterError) as ei:
            assemble_profile(Nonlinearity.custom(fn, fn), Weight.constant(1.0), 1)
        assert str(ei.value) == "(f1) nonlinearity " + message

    @pytest.mark.parametrize("m, message", [
        (lambda t: _arr(t) - 0.5, "must be positive on (0, delta0)"),
        (lambda t: 2.0 - _arr(t), "must be nondecreasing on (0, delta0)"),
    ], ids=["not-positive", "decreasing"])
    def test_b2_failures(self, m, message):
        with pytest.raises(ParameterError) as ei:
            assemble_profile(Nonlinearity.power(3), Weight.custom(m, m, 1.0), 1)
        assert str(ei.value) == "(b2) weight m " + message


class TestLimitRatio:
    def test_second_probe_closer_to_limit(self):
        # ((k+1) F(phi(t)))**(k/(k+1)) / (t f(phi(t))) -> 1/C_f
        cases = [
            (Nonlinearity.power(3), 1, 0.5),
            (Nonlinearity.power(5), 2, 0.5),
            (Nonlinearity.exponential(2), 1, 1.0),
        ]
        for nl, k, inv_cf in cases:
            p = build_profile(nl, k)

            def ratio(t):
                s = p.phi(t)
                return float(((k + 1.0) * p.F(s)) ** (k / (k + 1.0)) / (t * p.f(s)))

            r1, r2 = ratio(1e-3), ratio(1e-5)
            assert abs(r2 - inv_cf) <= abs(r1 - inv_cf) + 1e-9 * inv_cf
            if nl.kind == "power":
                assert abs(ratio(1e-6) - inv_cf) <= 5e-3 * inv_cf


class TestCf:
    def test_power_pairs(self):
        for k, gamma in ((1, 3), (2, 5), (3, 7)):
            p = build_profile(Nonlinearity.power(gamma), k)
            assert compute_Cf(p) == pytest.approx((gamma + 1.0) / (gamma - k), abs=1e-3)

    def test_exponential(self):
        p = build_profile(Nonlinearity.exponential(2), 1)
        assert compute_Cf(p) == pytest.approx(1.0, abs=1e-3)

    def test_oscillating_limit_not_detected(self):
        # log-periodic modulation never settles
        wob = Nonlinearity.custom(
            lambda s: np.asarray(s, float) ** 3 * (2.0 + np.sin(np.log(np.asarray(s, float)))),
            lambda s: 3.0 * np.asarray(s, float) ** 2 * (2.0 + np.sin(np.log(np.asarray(s, float))))
            + np.asarray(s, float) ** 2 * np.cos(np.log(np.asarray(s, float))),
        )
        p = build_profile(wob, 1)
        with pytest.raises(LimitNotDetected):
            compute_Cf(p)


class TestWeights:
    def test_constant_weight(self):
        M, C_m = build_weight(Weight.constant(1.0))
        assert float(M(0.7)) == pytest.approx(0.7, rel=1e-12)
        assert C_m == pytest.approx(1.0, abs=1e-9)

    def test_power_weights(self):
        M, C_m = build_weight(Weight.power(1.0))
        assert float(M(0.5)) == pytest.approx(0.125, rel=1e-12)
        assert C_m == pytest.approx(0.5, abs=1e-9)
        _, C_m3 = build_weight(Weight.power(3.0))
        assert C_m3 == pytest.approx(0.25, abs=1e-6)

    def test_custom_weight_matches_power(self):
        w = Weight.custom(
            lambda t: np.asarray(t, float) ** 2.0,
            lambda t: 2.0 * np.asarray(t, float),
            delta0=1.0,
        )
        M, C_m = build_weight(w)
        assert float(M(0.3)) == pytest.approx(0.3**3 / 3.0, rel=1e-9)
        assert C_m == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_weight_limits(self):
        # M/m -> 0 and M m'/m^2 -> 1 - C_m as t -> 0+ (two-point approach)
        for w, cm in ((Weight.constant(1.0), 1.0), (Weight.power(2.0), 1.0 / 3.0)):
            M, C_m = build_weight(w)
            assert C_m == pytest.approx(cm, abs=1e-6)

            mm = lambda t: float(M(t)) / float(w.m(t))
            q = lambda t: float(M(t)) * float(w.m_prime(t)) / float(w.m(t)) ** 2
            assert abs(mm(1e-5)) <= abs(mm(1e-3)) + 1e-12
            target = 1.0 - cm
            assert abs(q(1e-5) - target) <= abs(q(1e-3) - target) + 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_power_float_path_matches_array(self, alpha):
        # the IVP evaluates m on one Python float per stage: no array round trip
        w = Weight.power(alpha)
        ts = np.geomspace(1e-300, 1e3, 2001)
        scalar = np.array([w.m(float(t)) for t in ts])
        assert all(type(w.m(float(t))) is float for t in ts[:5])
        ulps = np.abs(scalar - w.m(ts)) / np.spacing(w.m(ts))
        assert ulps.max() <= 2.0

    def test_monotone_M(self):
        M, _ = build_weight(Weight.power(1.5))
        ts = np.logspace(-4, 0, 20)
        vals = [float(M(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_oscillating_weight_limit_not_detected(self):
        # log-periodic modulation: (M/m)' never settles
        m = lambda t: np.asarray(t, float) * (2.0 + np.sin(np.log(np.asarray(t, float))))
        m_prime = lambda t: (2.0 + np.sin(np.log(np.asarray(t, float)))
                             + np.cos(np.log(np.asarray(t, float))))
        w = Weight.custom(m, m_prime, delta0=1.0)
        with pytest.raises(LimitNotDetected):
            build_weight(w)


class TestPsi:
    def test_power_closed_forms(self):
        pair = PsiPair(Nonlinearity.power(3), 1)
        assert pair.Psi(2.0) == pytest.approx(1.0 / 8.0, rel=1e-10)
        assert pair.psi(0.5) == pytest.approx(1.0, rel=1e-9)
        pair2 = PsiPair(Nonlinearity.power(5), 2)
        assert pair2.Psi(1.0) == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert pair2.psi(2.0 / 3.0) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_power_raises(self):
        with pytest.raises(KellerOssermanViolation):
            PsiPair(Nonlinearity.power(1), 1)


class TestXiBounds:
    def test_pinned_cases(self):
        w = Weight.constant(1.0)
        lo, hi = xi_bounds(w, L0=2.0, l0=2.0, C_f=2.0, C_m=1.0, k=2)
        assert lo == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-12)
        assert hi == pytest.approx(lo)
        lo2, hi2 = xi_bounds(w, L0=1.0, l0=1.0, C_f=2.0, C_m=0.5, k=1)
        assert lo2 == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)

    def test_gap_violation(self):
        # (-1, 0.5): the gap 1 - (1 - C_m)/C_f = 1.5 is positive, but C_f is not
        for C_f, C_m in ((1.0, 0.0), (-1.0, 0.5)):
            with pytest.raises(ConditionViolation) as ei:
                xi_bounds(Weight.constant(1.0), L0=1.0, l0=1.0, C_f=C_f, C_m=C_m, k=1)
            assert ei.value.label == "(1.5)"

    def test_ordering(self):
        w = Weight.constant(1.0, b_lower=0.5, b_upper=2.0)
        lo, hi = xi_bounds(w, L0=3.0, l0=1.0, C_f=2.0, C_m=1.0, k=2)
        assert lo <= hi


class TestPowerAsymptote:
    def test_constant_weight_cases(self):
        a = power_law_asymptote(2, 5.0, l0=2.0, L0=2.0)
        assert a.exponent == pytest.approx(-1.0)
        assert a.coeff_lower == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
        b = power_law_asymptote(1, 3.0, l0=1.0, L0=1.0)
        assert b.exponent == pytest.approx(-1.0)
        assert b.coeff_lower == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_power_weight_case(self):
        c = power_law_asymptote(1, 3.0, l0=1.0, L0=1.0, alpha=1.0)
        assert c.exponent == pytest.approx(-2.0)
        assert c.coeff_lower == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_matches_profile_composition(self):
        # coeff*d**exponent must equal phi(xi M(d)) with the matched xi
        k, gamma = 1, 3.0
        nl = Nonlinearity.power(gamma)

        # constant weight
        p = assemble_profile(nl, Weight.constant(1.0), k)
        xi_lo, _ = xi_bounds(p.weight, L0=1.0, l0=1.0, C_f=p.C_f, C_m=p.C_m, k=k)
        a = power_law_asymptote(k, gamma, l0=1.0, L0=1.0)
        for d in (1e-3, 1e-2, 0.1):
            pred = predicted_profile(p, xi_lo, d)
            assert pred == pytest.approx(a.coeff_lower * d**a.exponent, rel=1e-6)

        # power weight alpha = 1
        p2 = assemble_profile(nl, Weight.power(1.0), k)
        xi_lo2, _ = xi_bounds(p2.weight, L0=1.0, l0=1.0, C_f=p2.C_f, C_m=p2.C_m, k=k)
        a2 = power_law_asymptote(k, gamma, l0=1.0, L0=1.0, alpha=1.0)
        for d in (1e-3, 1e-2, 0.1):
            pred = predicted_profile(p2, xi_lo2, d)
            assert pred == pytest.approx(a2.coeff_lower * d**a2.exponent, rel=1e-6)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            power_law_asymptote(2, 2.0, l0=1.0, L0=1.0)
        with pytest.raises(ParameterError):
            power_law_asymptote(1, 3.0, l0=1.0, L0=1.0, alpha=-1.0)


class TestLimitFf:
    def test_power_values(self):
        p = build_profile(Nonlinearity.power(3), 1)
        # closed form F**(1/2)/f = 1/(2s); last finite probe is s = 2**30
        assert float(p.Ff_ratio(2.0**30)) == pytest.approx(1.0 / 2.0**31, rel=1e-10)
        assert check_limit_Ff(p) == pytest.approx(1.0 / 2.0**31, rel=1e-8)

    def test_exponential_small_at_64(self):
        p = build_profile(Nonlinearity.exponential(2), 1)
        assert float(p.Ff_ratio(64.0)) < 1e-12
        assert check_limit_Ff(p) < 1e-12

    def test_slow_power_decay(self):
        p = build_profile(Nonlinearity.power(1.5), 1)
        r1 = float(p.Ff_ratio(2.0**10))
        r2 = float(p.Ff_ratio(2.0**14))
        # decays like s**-0.25: ratio over 4 octaves is 1/2
        assert r2 / r1 == pytest.approx(0.5, rel=1e-3)


class TestAssembled:
    def test_constants_within_structural_bounds(self):
        cases = [
            (Nonlinearity.power(3), Weight.constant(1.0), 1),
            (Nonlinearity.power(5), Weight.power(1.0), 2),
            (Nonlinearity.exponential(2), Weight.constant(1.0), 1),
            (Nonlinearity.power(7), Weight.power(3.0), 3),
        ]
        for nl, w, k in cases:
            p = assemble_profile(nl, w, k)
            assert p.C_f >= 1.0 - 1e-3
            assert -1e-9 <= p.C_m <= 1.0 + 1e-9

    def test_bundle_is_frozen(self):
        p = assemble_profile(Nonlinearity.exponential(2), Weight.constant(1.0), 1)
        assert [f.name for f in dataclasses.fields(p)] == [
            "k", "nonlinearity", "weight", "profile", "M", "C_f", "C_m"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.C_f = 1.0
        assert p.header()["ko_ok"] is True and p.header()["condition15_ok"] is True
        # the header derives (1.5) from the bundle's own constants
        bad = dataclasses.replace(p, C_f=1.0, C_m=0.0)
        assert bad.header()["condition15_ok"] is False
        assert bad.profile is p.profile and p.C_f != 1.0  # p itself is unchanged

    def test_predicted_profile_values(self):
        p = assemble_profile(Nonlinearity.power(3), Weight.constant(1.0), 1)
        assert predicted_profile(p, 1.0, 0.1) == pytest.approx(math.sqrt(2.0) * 10.0, rel=1e-6)
        pe = assemble_profile(Nonlinearity.exponential(2), Weight.constant(1.0), 1)
        assert predicted_profile(pe, 1.0, 0.01) == pytest.approx(4.605187, abs=1e-5)
        # positive and finite up to the validity window
        pw = assemble_profile(Nonlinearity.power(3), Weight.power(1.0, delta0=0.5), 1)
        val = predicted_profile(pw, 1.0, 0.499)
        assert math.isfinite(val) and val > 0
        with pytest.raises(ParameterError):
            predicted_profile(pw, 1.0, 0.6)

    def test_profile_table_rows(self):
        p = assemble_profile(Nonlinearity.power(3), Weight.constant(1.0), 1)
        rows = profile_table(p, 1.0, [0.5, 1.0])
        assert len(rows) == 2
        t, phi, dphi, M, pred = rows[1]
        assert t == 1.0
        assert phi == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert dphi < 0
        assert M == pytest.approx(1.0)
        assert pred == pytest.approx(phi)


# f = s**3 + s has no closed-form F, so its profile runs on the cumulative table
CUSTOM = Nonlinearity.custom(
    lambda s: np.asarray(s, float) ** 3 + np.asarray(s, float),
    lambda s: 3.0 * np.asarray(s, float) ** 2 + 1.0,
    tail_exponent_hint=3.0,
)
ARRAY_CASES = [
    (Nonlinearity.power(5), 2),
    (Nonlinearity.exponential(2), 1),
    (Nonlinearity.power(7), 3),
    (CUSTOM, 1),
]
CASE_IDS = ["power5-k2", "exp2-k1", "power7-k3", "custom-k1"]


def _targets(sup, num=40):
    """t from 1e-8 to 0.99 sup; an infinite supremum (Phi diverging at 0) is
    capped at 1e30, 38 decades above the bottom."""
    top = 0.99 * sup if math.isfinite(sup) else 1e30
    return np.geomspace(1e-8, top, num)


def _brentq_inverse(fn, t):
    """Root of the scalar, decreasing fn(s) = t: bracket by doubling from 1, then brentq."""
    lo = hi = 1.0
    while fn(lo) <= t:
        lo *= 0.5
    while fn(hi) > t:
        hi *= 2.0
    return brentq(lambda s: fn(s) - t, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=500)


class TestArrayInverse:
    @pytest.mark.parametrize("nl,k", ARRAY_CASES, ids=CASE_IDS)
    def test_phi_matches_brentq(self, nl, k):
        p = build_profile(nl, k)
        ts = _targets(p.phi_domain_sup())
        got = p.phi(ts)
        ref = np.array([_brentq_inverse(p.Phi, t) for t in ts])
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("nl,k", ARRAY_CASES, ids=CASE_IDS)
    def test_psi_matches_brentq(self, nl, k):
        pair = PsiPair(nl, k)
        ts = _targets(pair.psi_domain_sup())
        got = pair.psi(ts)
        ref = np.array([_brentq_inverse(pair.Psi, t) for t in ts])
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("nl,k", ARRAY_CASES, ids=CASE_IDS)
    def test_round_trip(self, nl, k):
        p = build_profile(nl, k)
        ts = _targets(p.phi_domain_sup(), num=400)
        assert np.max(np.abs(p.Phi(p.phi(ts)) - ts) / ts) <= 1e-13

    def test_shape_contract(self):
        p = build_profile(Nonlinearity.power(5), 2)
        ts = np.array([[0.1, 0.2, 0.5], [1.0, 2.0, 5.0]])
        phi_prime = lambda t: p.phi_jet(t)[1]
        phi_second = lambda t: p.phi_jet(t)[2]
        for fn in (p.phi, phi_prime, phi_second, p.Phi):
            assert type(fn(0.5)) is float
            assert type(fn(np.float64(0.5))) is float
            out = fn(ts)
            assert isinstance(out, np.ndarray) and out.shape == ts.shape
            assert np.array_equal(out.ravel(), fn(ts.ravel()))
        assert p.phi(np.empty(0)).shape == (0,)
        pw = assemble_profile(Nonlinearity.power(3), Weight.constant(1.0), 1)
        assert type(predicted_profile(pw, 1.0, 0.1)) is float
        assert predicted_profile(pw, 1.0, ts * 0.01).shape == ts.shape

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_input_raises(self, bad):
        p = build_profile(Nonlinearity.power(5), 2)
        pair = PsiPair(Nonlinearity.power(5), 2)
        ts = np.array([0.1, 0.5, bad, 2.0])
        with pytest.raises(ParameterError):
            p.phi(ts)
        with pytest.raises(ParameterError):
            p.phi(bad)
        with pytest.raises(ParameterError):
            pair.psi(ts)
        with pytest.raises(ParameterError):
            p.Phi(ts)


# callables that break the array contract: scalar-only ones raise on an array, and
# the others return a scalar or an array of another shape
NOT_ARRAY_NATIVE = {
    "math-exp": lambda s: math.exp(s),
    "max": lambda s: max(s, 1e-300),
    "float": lambda s: 1.0,
    "sum": lambda s: np.sum(np.asarray(s, float)),
    "three": lambda s: np.ones(3),
}
GOOD = lambda s: np.asarray(s, float) ** 2 + 1.0


class TestArrayContract:
    @pytest.mark.parametrize("bad", NOT_ARRAY_NATIVE.values(), ids=NOT_ARRAY_NATIVE)
    @pytest.mark.parametrize("slot", [0, 1], ids=["f", "f_prime"])
    def test_custom_nonlinearity_rejected(self, bad, slot):
        fns = [GOOD, GOOD]
        fns[slot] = bad
        with pytest.raises(ParameterError, match=r"\(f1\) custom f'? must take an array"):
            Nonlinearity.custom(*fns)

    @pytest.mark.parametrize("bad", NOT_ARRAY_NATIVE.values(), ids=NOT_ARRAY_NATIVE)
    @pytest.mark.parametrize("slot", [0, 1], ids=["m", "m_prime"])
    def test_custom_weight_rejected(self, bad, slot):
        fns = [GOOD, GOOD]
        fns[slot] = bad
        with pytest.raises(ParameterError, match=r"\(b2\) custom weight m'? must take an array"):
            Weight.custom(*fns, delta0=0.5)

    def test_direct_construction_and_replace_checked(self):
        with pytest.raises(ParameterError, match=r"\(f1\) custom f must take an array"):
            Nonlinearity(kind="custom", fn=NOT_ARRAY_NATIVE["math-exp"], fn_prime=GOOD)
        w = Weight.custom(GOOD, GOOD, delta0=0.5)
        with pytest.raises(ParameterError, match=r"\(b2\) custom weight m must take an array"):
            dataclasses.replace(w, m_fn=NOT_ARRAY_NATIVE["float"])

    def test_custom_weight_window_checked_first(self):
        with pytest.raises(ParameterError, match="delta0 must be positive"):
            Weight.custom(GOOD, GOOD, delta0=math.nan)


def _cm_scalar_loop(w):
    """C_m as the probe ladder computed it one scalar probe at a time."""
    M = w.M_closed
    g = lambda t: float(M(t)) / float(w.m(t))
    t0 = min(0.25, w.delta0 / 8.0)
    eta = 1.0 / 64.0
    seq = []
    for i in range(40):
        t = t0 * 2.0**-i
        d = (g(t * (1.0 + eta)) - g(t * (1.0 - eta))) / (2.0 * t * eta)
        if not math.isfinite(d):
            break
        seq.append(d)
        if len(seq) >= 6:
            acc = profiles._aitken(seq)
            tail = acc[-3:]
            if max(tail) - min(tail) <= profiles._CM_OSC_TOL * max(abs(tail[-1]), 1e-300):
                return float(tail[-1])
    return float(profiles._detect_limit(seq, 1e-4, "C_m probe sequence"))


def _ff_scalar_loop(p):
    """check_limit_Ff as one scalar probe at a time."""
    last = math.inf
    for i in range(5, 31):
        with np.errstate(over="ignore", invalid="ignore"):
            r = float(p.Ff_ratio(2.0**i))
        if not math.isfinite(r):
            break
        last = r
    return last


@pytest.mark.parametrize("w", [Weight.constant(1.0)] + [Weight.power(a) for a in (0.5, 1, 2, 3)],
                         ids=["constant1", "power0.5", "power1", "power2", "power3"])
def test_cm_ladder_matches_scalar_loop_bit_for_bit(w):
    assert build_weight(w)[1] == _cm_scalar_loop(w)


@pytest.mark.parametrize("nl,k", ARRAY_CASES, ids=CASE_IDS)
def test_check_limit_Ff_matches_scalar_loop(nl, k):
    # each side on a fresh profile: the custom kind's F table extends as it is probed
    assert check_limit_Ff(build_profile(nl, k)) == _ff_scalar_loop(build_profile(nl, k))
