"""Independent oracles: 50-digit mpmath profiles, scaling laws and hypothesis properties.

The mpmath values come from the definitions alone (F, H, the improper
integral Phi and the limit C_f = lim H'(s) Phi(s)), with none of the
library's tables, tail substitutions or closed forms.  The scaling laws
of the radial shot follow from the equation's symmetries alone.
"""

import dataclasses
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian._quad import cumulative_from_zero
from khessian.errors import KHessianError, ParameterError
from khessian.fd2d import exhaust
from khessian.grid2d import Disk, build_grid
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import assemble_profile, build_profile, build_weight
from khessian.radial import RadialProblem, shoot_blowup_radius
from khessian.symfunc import cone_membership, sigma_all

PROPERTY = settings(settings.get_profile("khessian"), max_examples=150)  # see conftest.py
SOLVES = settings(PROPERTY, max_examples=25)  # each example is a few 2d Newton solves
BATCHES = settings(PROPERTY, max_examples=50)  # each example is up to 26 inversions

# (spec, order k): the benchmark's three profiles
CASES = [("power:5", 2), ("power:7", 3), ("exp:2", 1)]


class Oracle:
    """F, H = ((k+1) F)^(1/(k+1)), H' = f / H^k and Phi = int_s^inf 1/H, at 50 digits."""

    def __init__(self, spec, k):
        kind, par = spec.split(":")
        self.k, self.par, self.kind = mp.mpf(k), mp.mpf(par), kind

    def f(self, s):
        return s**self.par if self.kind == "power" else mp.exp(self.par * s)

    def F(self, s):
        if self.kind == "power":
            return s ** (self.par + 1) / (self.par + 1)
        return mp.expm1(self.par * s) / self.par

    def H(self, s):
        return ((self.k + 1) * self.F(s)) ** (1 / (self.k + 1))

    def H_prime(self, s):
        return self.f(s) / self.H(s) ** self.k

    def Phi(self, s):
        return mp.quad(lambda x: 1 / self.H(x), [s, 2 * s, 10 * s, mp.inf])


@pytest.fixture(scope="module", params=CASES, ids=[f"{s}-k{k}" for s, k in CASES])
def case(request):
    spec, k = request.param
    kind, par = spec.split(":")
    nl = Nonlinearity.power(float(par)) if kind == "power" else Nonlinearity.exponential(float(par))
    with mp.workdps(50):
        yield assemble_profile(nl, Weight.constant(1.0), k), Oracle(spec, k)


def test_Phi_to_50_digits(case):
    p, oracle = case
    for s in ("0.01", "1", "20"):
        exact = oracle.Phi(mp.mpf(s))
        assert abs(p.Phi(float(s)) / exact - 1) <= 1e-13


def test_phi_to_50_digits(case):
    # the error of s = phi(t) is (Phi(s) - t) / Phi'(s) = (Phi(s) - t) H(s), to first order
    p, oracle = case
    for t in (1e-3, 0.05, 0.5, p.Phi(0.1)):
        s = mp.mpf(p.phi(t))
        rel_err = abs((oracle.Phi(s) - t) * oracle.H(s) / s)
        assert rel_err <= 1e-13


def test_C_f_to_50_digits(case):
    # H'(s) Phi(s) is constant for a power and 1 + O(e^-2s) for exp:2
    p, oracle = case
    s = mp.mpf(40)
    assert abs(p.C_f / (oracle.H_prime(s) * oracle.Phi(s)) - 1) <= 1e-12


# f = s^3 + s, k = 1: a custom kind, so F comes from the reflected cumulative
# table and the tail of Phi is fitted, with no closed form in the library
class CubicOracle(Oracle):
    def __init__(self):
        self.k = mp.mpf(1)

    def f(self, s):
        return s**3 + s

    def F(self, s):
        return s**4 / 4 + s**2 / 2


def test_custom_kind_to_50_digits():
    cubic = Nonlinearity.custom(lambda s: np.asarray(s, float) ** 3 + np.asarray(s, float),
                                lambda s: 3.0 * np.asarray(s, float) ** 2 + 1.0)
    p, oracle = build_profile(cubic, 1), CubicOracle()
    with mp.workdps(50):
        for s in ("1e-30", "0.01", "1", "20", "1e5"):
            assert abs(p.F(float(s)) / oracle.F(mp.mpf(s)) - 1) <= 1e-15
            assert abs(p.Phi(float(s)) / oracle.Phi(mp.mpf(s)) - 1) <= 1e-13
        for t in (1e-3, 0.05, 0.5, 3.0):
            s = mp.mpf(p.phi(t))
            assert abs((oracle.Phi(s) - t) * oracle.H(s) / s) <= 1e-13


def test_custom_F_past_the_floats_raises():
    # f = s log(e + s), k = 1: Phi diverges like 2 sqrt(log s), so the table climbs
    # until F overflows; an inf F must not read as a zero, trusted tail
    def f(s):
        s = np.asarray(s, float)
        return s * np.log(np.e + s)

    def f_prime(s):
        s = np.asarray(s, float)
        return np.log(np.e + s) + s / (np.e + s)

    with pytest.raises(KHessianError, match=r"profile integral: F .* float range at s=7\.3e\+101"):
        build_profile(Nonlinearity.custom(f, f_prime), 1).Phi(1e3)


def _weight_M(m, dm):
    return build_weight(Weight.custom(m, dm, delta0=1.0))[0]


# name -> (t -> int_0^t at 50 digits, the table): F as a custom f builds it,
# M as a custom weight does
CUMULATIVE = {
    "s": (lambda t: t**2 / 2, lambda: cumulative_from_zero(lambda s: s)),
    "s^3+s": (lambda t: t**4 / 4 + t**2 / 2, lambda: cumulative_from_zero(lambda s: s**3 + s)),
    "s^5": (lambda t: t**6 / 6, lambda: cumulative_from_zero(lambda s: s**5)),
    "exp(2s)": (lambda t: mp.expm1(2 * t) / 2,
                lambda: cumulative_from_zero(lambda s: np.exp(2.0 * s))),
    "m=t": (lambda t: t**2 / 2, lambda: _weight_M(lambda t: t, lambda t: np.ones_like(t))),
    "m=sqrt(t)": (lambda t: 2 * t**1.5 / 3,
                  lambda: _weight_M(np.sqrt, lambda t: 0.5 / np.sqrt(t))),
}


@pytest.mark.parametrize("name", CUMULATIVE)
def test_cumulative_table_matches_closed_form(name):
    exact, table = CUMULATIVE[name]

    def rel_err(t, got):
        with mp.workdps(50):
            return float(abs(got / exact(mp.mpf(t)) - 1))

    ts = np.geomspace(1e-40, 1e2, 400)
    together = table()(ts)  # one table over the whole range
    assert max(rel_err(t, v) for t, v in zip(ts, together)) <= 1e-13
    # each point alone on a fresh table: the tail fit, not the range, closes the head
    assert max(rel_err(t, table()(t)) for t in ts[::19]) <= 1e-13


def test_cumulative_table_boundary_arguments():
    F = cumulative_from_zero(lambda s: s**-0.5)
    assert F(0.0) == 0.0
    assert F(np.array([0.0, 1.0])) == pytest.approx([0.0, 2.0], rel=1e-15)
    assert F(1e-200) == pytest.approx(2e-100, rel=1e-13)  # g(s) s s keeps s^2 from underflowing
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="argument must be nonnegative finite"):
            F(bad)


@pytest.mark.parametrize("t", [1e-291, 2e-308, 5e-310, 5e-324])
def test_cumulative_table_range_cap_covers_subnormal_arguments(t):
    # a subnormal t, whose 1/t overflows, gets the range-cap error of t = 1e-291
    F = cumulative_from_zero(lambda s: s)
    for arg in (t, np.array([1.0, t])):
        with pytest.raises(KHessianError, match="upper range cap exceeded"):
            F(arg)


@pytest.mark.parametrize("spec, k", CASES)
def test_phi_is_independent_of_its_batch(spec, k):
    # a batched Gauss-Legendre sum must round each row as it would alone; the
    # batch comes first, so the single calls find the table already extended
    kind, par = spec.split(":")
    nl = Nonlinearity.power(float(par)) if kind == "power" else Nonlinearity.exponential(float(par))
    shared = build_profile(nl, k)
    top = 0.999 * shared.Phi(1e-6)

    @BATCHES
    @given(st.lists(st.floats(1e-4, min(top, 50.0)), min_size=2, max_size=12))
    def check(ts):
        for p in (build_profile(nl, k), shared):
            together = p.phi(np.asarray(ts))
            assert [p.phi(t) for t in ts] == together.tolist()

    check()


@pytest.mark.parametrize("spec, k", CASES)
def test_phi_is_monotone(spec, k):
    kind, par = spec.split(":")
    nl = Nonlinearity.power(float(par)) if kind == "power" else Nonlinearity.exponential(float(par))
    p = assemble_profile(nl, Weight.constant(1.0), k)
    top = 0.999 * p.Phi(1e-6)  # inside the range of Phi, finite or not

    @PROPERTY
    @given(st.lists(st.floats(1e-4, min(top, 50.0)), min_size=2, max_size=12))
    def check(ts):
        ts = np.sort(np.asarray(ts))
        vals = np.asarray(p.phi(ts))
        assert np.all(np.diff(vals) <= 0.0)  # phi inverts the decreasing Phi

    check()


@pytest.mark.parametrize("n, k, spec, radii", [
    (3, 2, "power:5", (0.5, 1.0, 2.0)),
    (4, 3, "power:7", (0.5, 1.0, 2.0)),
    (2, 1, "exp:2", (0.25, 0.5, 1.0)),
    (3, 2, "exp:2", (0.25, 0.5, 1.0)),
])
def test_shot_obeys_the_scaling_law(n, k, spec, radii):
    # with b = 1, u(x) -> l^(2k/(g-k)) u(l x) maps solutions of S_k(D^2 u) = u^g to
    # solutions, and u(x) -> u(l x) + (2k/a) log l those of S_k(D^2 u) = e^(a u);
    # either way the blow-up radius becomes R/l, so these are the same at every R;
    # b is a plain callable, so the shot brackets and does not use the law itself
    kind, par = spec.split(":")
    nl = Nonlinearity.power(float(par)) if kind == "power" else Nonlinearity.exponential(float(par))
    invariants = []
    for R in radii:
        prob = RadialProblem.from_weight(n, k, R, nl, Weight.constant(1.0))
        u0, sol = shoot_blowup_radius(dataclasses.replace(prob, b_const=None))
        assert sol.meta["shot"]["path"] == "bracket"
        assert sol.Rstar == pytest.approx(R, rel=1e-7)
        if kind == "power":
            invariants.append(u0 * R ** (2.0 * k / (float(par) - k)))
        else:
            invariants.append(u0 + (2.0 * k / float(par)) * math.log(R))
    assert max(invariants) - min(invariants) <= 1e-7 * abs(invariants[1])


def subset_sigma(lam, j):
    return math.fsum(math.prod(c) for c in itertools.combinations(lam, j))


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n), min_size=1, max_size=4),
    st.integers(0, n + 2))))
def test_sigma_all_matches_subset_enumeration(args):
    rows, jmax = args
    got = sigma_all(np.array(rows), jmax)
    assert got.shape == (len(rows), jmax + 1)
    for lam, sig in zip(rows, got):
        for j in range(jmax + 1):
            # the recurrence's rounding is bounded by the sum of |products|
            scale = math.fsum(math.prod(c) for c in itertools.combinations(np.abs(lam), j))
            assert abs(sig[j] - subset_sigma(lam, j)) <= 1e-13 * scale


@PROPERTY
@given(st.integers(2, 7).flatmap(lambda n: st.lists(
    st.floats(-1e3, 1e3) | st.floats(0.0, 10.0), min_size=n, max_size=n)))
def test_cones_nest(lam):
    # Gamma_k lies in Gamma_j for j < k: admissible at an order is admissible below it
    admissible = [cone_membership(lam, k).admissible for k in range(1, len(lam) + 1)]
    for k in range(2, len(lam) + 1):
        if admissible[k - 1]:
            assert all(admissible[: k - 1])


@SOLVES
@given(st.sampled_from([16, 24, 32]),
       st.lists(st.floats(1.0, 8.0), min_size=2, max_size=4, unique=True).map(sorted))
def test_exhaustion_is_monotone_in_j(inv_h, js):
    # Delta u = e^{2u} on the unit disk: raising the boundary value j never lowers u
    _, diags = exhaust(build_grid(Disk(1.0), 1.0 / inv_h), Nonlinearity.exponential(2),
                       Weight.constant(1.0), js, tol=1e-9)
    assert diags["j"] == js
    assert min(diags["increment_min"]) >= -1e-8
