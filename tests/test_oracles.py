"""Independent oracles: 50-digit mpmath profiles, scaling laws and hypothesis properties.

The mpmath values come from the definitions alone (F, H, the improper
integral Phi and the limit C_f = lim H'(s) Phi(s)), with none of the
library's tables, tail substitutions or closed forms.  The scaling laws
of the radial shot follow from the equation's symmetries alone.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian.fd2d import exhaust
from khessian.grid2d import Disk, build_grid
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import assemble_profile
from khessian.radial import RadialProblem, shoot_blowup_radius
from khessian.symfunc import sigma_all

PROPERTY = settings(settings.get_profile("khessian"), max_examples=150)  # see conftest.py
SOLVES = settings(PROPERTY, max_examples=25)  # each example is a few 2d Newton solves

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
    # either way the blow-up radius becomes R/l, so these are the same at every R
    kind, par = spec.split(":")
    nl = Nonlinearity.power(float(par)) if kind == "power" else Nonlinearity.exponential(float(par))
    invariants = []
    for R in radii:
        u0, sol = shoot_blowup_radius(RadialProblem.from_weight(n, k, R, nl, Weight.constant(1.0)))
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


@SOLVES
@given(st.sampled_from([16, 24, 32]),
       st.lists(st.floats(1.0, 8.0), min_size=2, max_size=4, unique=True).map(sorted))
def test_exhaustion_is_monotone_in_j(inv_h, js):
    # Delta u = e^{2u} on the unit disk: raising the boundary value j never lowers u
    _, diags = exhaust(build_grid(Disk(1.0), 1.0 / inv_h), Nonlinearity.exponential(2),
                       Weight.constant(1.0), js, tol=1e-9)
    assert diags["j"] == js
    assert min(diags["increment_min"]) >= -1e-8
