import itertools
import math

import numpy as np
import pytest

from khessian.errors import ParameterError
from khessian.symfunc import (
    cone_membership,
    radial_eigenvalues,
    sigma,
    sigma_all,
    sigma_partial,
    sk_radial,
    symmetric_eigenvalues,
)


def sk_radial_divergence(u1_fn, r, h, n, k):
    """Divergence-form evaluation of the radial operator, for cross-checks.

    Differentiates the flux r^(n-k) (u')^k by central differences with step
    ``h`` and rescales by C(n-1,k-1) / (k r^(n-1)).  O(h) agreement with
    :func:`sk_radial` on smooth inputs.
    """
    flux = lambda s: s ** (n - k) * u1_fn(s) ** k
    dflux = (flux(r + h) - flux(r - h)) / (2.0 * h)
    return math.comb(n - 1, k - 1) * dflux / (k * r ** (n - 1))


def sigma_bruteforce(j, lam):
    """Independent oracle: direct subset enumeration."""
    if j == 0:
        return 1.0
    if j > len(lam):
        return 0.0
    return float(sum(math.prod(c) for c in itertools.combinations(lam, j)))


class TestSigma:
    def test_pinned_values(self):
        assert sigma(2, [1, 2, 3]) == pytest.approx(11.0, abs=0)
        assert sigma(3, [1, 1, 1, 1]) == pytest.approx(4.0, abs=0)
        assert sigma(0, [5, -7]) == 1.0
        assert sigma(5, [1, 2, 3]) == 0.0

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 9)
            lam = rng.normal(0.0, 2.0, size=n)
            for j in range(n + 1):
                ref = sigma_bruteforce(j, lam)
                assert sigma(j, lam) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            sigma(1, [1.0, np.inf])
        with pytest.raises(ParameterError):
            sigma(-1, [1.0, 2.0])

    def test_newton_identities_crosscheck(self):
        # sigma_j from power sums must agree with the product recurrence
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(2, 9)
            lam = rng.normal(0.0, 1.5, size=n)
            p = np.array([np.sum(lam**m) for m in range(n + 1)])
            e = np.zeros(n + 1)
            e[0] = 1.0
            for j in range(1, n + 1):
                e[j] = sum((-1) ** (m - 1) * e[j - m] * p[m] for m in range(1, j + 1)) / j
            rec = sigma_all(lam)
            scale = np.maximum(np.abs(e), 1.0)
            assert np.all(np.abs(rec - e) <= 1e-10 * scale)


class TestSigmaAllBatched:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_rows_match_single_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        lam = rng.normal(0.0, 2.0, size=(25, n))
        for jmax in (None, 0, 1, n, n + 2):
            batched = sigma_all(lam, jmax)
            width = (n if jmax is None else jmax) + 1
            assert batched.shape == (25, width)
            for i in range(25):
                assert np.array_equal(batched[i], sigma_all(lam[i], jmax))

    def test_one_spectrum_keeps_its_shape(self):
        assert sigma_all([1.0, 2.0, 3.0]).shape == (4,)
        assert sigma_all(np.ones((1, 3))).shape == (1, 4)

    def test_no_samples(self):
        assert sigma_all(np.empty((0, 3)), 2).shape == (0, 3)

    def test_rejects_bad_batches(self):
        with pytest.raises(ParameterError):
            sigma_all(np.array([[1.0, 2.0], [np.nan, 0.0]]))
        with pytest.raises(ParameterError):
            sigma_all(np.empty((4, 0)))


class TestConeMembership:
    def test_pinned_cases(self):
        r = cone_membership([3, -1], 1)
        assert r.admissible and r.sigmas[0] == pytest.approx(2.0)
        r = cone_membership([3, -1], 2)
        assert not r.admissible and r.sigmas[1] == pytest.approx(-3.0)
        r = cone_membership([1, 1, 1], 3)
        assert r.admissible
        assert np.allclose(r.sigmas, [3.0, 3.0, 1.0])

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            cone_membership([1.0, 2.0], 3)
        with pytest.raises(ParameterError):
            cone_membership([1.0, 2.0], 0)

    def test_cone_nesting(self):
        # admissible at k implies admissible at every smaller order
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(1000):
            n = rng.integers(2, 7)
            lam = rng.normal(0.4, 1.0, size=n)
            reports = [cone_membership(lam, k) for k in range(1, n + 1)]
            for k in range(2, n + 1):
                if reports[k - 1].admissible:
                    assert all(r.admissible for r in reports[: k - 1])
                    checked += 1
        assert checked > 100


class TestSigmaPartial:
    def test_pinned_cases(self):
        assert sigma_partial(2, [1, 2, 3], 0) == pytest.approx(5.0)
        assert sigma_partial(1, [4, 5, 6], 1) == 1.0
        assert sigma_partial(3, [1, 2, 3, 4], 3) == pytest.approx(11.0)

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            sigma_partial(2, [1, 2, 3], 3)
        with pytest.raises(ParameterError):
            sigma_partial(4, [1, 2, 3], 0)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.integers(2, 7)
            lam = rng.normal(0.0, 1.0, size=n)
            j = int(rng.integers(1, n + 1))
            i = int(rng.integers(0, n))
            h = 1e-6
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            fd = (sigma(j, lp) - sigma(j, lm)) / (2 * h)
            assert sigma_partial(j, lam, i) == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_positive_on_admissible_cone(self):
        rng = np.random.default_rng(13)
        found = 0
        while found < 1000:
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            lam = rng.normal(0.6, 1.0, size=n)
            if not cone_membership(lam, k).admissible:
                continue
            found += 1
            for i in range(n):
                assert sigma_partial(k, lam, i) > 0.0


class TestRadial:
    def test_radial_eigenvalues(self):
        assert np.allclose(radial_eigenvalues(2.0, 4.0, 1.0, 3), [4.0, 2.0, 2.0])
        assert np.allclose(radial_eigenvalues(0.0, 5.0, 1.0, 2), [5.0, 0.0])
        assert np.allclose(radial_eigenvalues(3.0, 1.0, 3.0, 4), [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            radial_eigenvalues(1.0, 1.0, 0.0, 3)

    def test_sk_radial_pinned(self):
        assert sk_radial(2.0, 4.0, 1.0, 3, 2) == pytest.approx(20.0)
        # u = (r^2 - 1)/2 has unit determinant in 2d: u'=r, u''=1
        for r in (0.25, 0.5, 1.0, 2.0):
            assert sk_radial(r, 1.0, r, 2, 2) == pytest.approx(1.0, rel=1e-14)
        assert sk_radial(0.5 * 1.7, 0.5, 1.7, 2, 1) == pytest.approx(1.0, rel=1e-14)

    def test_sk_radial_matches_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            u1, u2, r = rng.normal(0, 2), rng.normal(0, 2), rng.uniform(0.1, 3.0)
            direct = sigma(k, radial_eigenvalues(u1, u2, r, n))
            assert sk_radial(u1, u2, r, n, k) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_divergence_form_equivalence(self):
        # u = r^2: flux-difference form approaches the closed form at O(h)
        u1_fn = lambda s: 2.0 * s
        for n, k in ((3, 2), (4, 3), (2, 1)):
            errs = []
            for h in (1e-2, 5e-3, 2.5e-3):
                r = np.linspace(0.5, 1.5, 11)
                dv = sk_radial_divergence(u1_fn, r, h, n, k)
                cl = sk_radial(2.0 * r, 2.0, r, n, k)
                errs.append(np.max(np.abs(dv - cl) / np.abs(cl)))
            assert errs[2] < errs[0] + 1e-13
            assert errs[0] < 50.0 * 1e-2  # O(h) bound with a generous constant


class TestSymmetricEigenvalues:
    def test_pinned_cases(self):
        assert np.allclose(symmetric_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])
        assert np.allclose(symmetric_eigenvalues(np.diag([5.0, -2.0])), [5.0, -2.0])
        assert np.allclose(symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0])

    def test_matches_numpy(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = rng.normal(0, 1, size=(n, n))
            a = a + a.T
            mine = symmetric_eigenvalues(a, tol=1e-13)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(mine, ref, rtol=1e-10, atol=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ParameterError):
            symmetric_eigenvalues(np.eye(9))


def matrix_sk(A, k):
    """S_k of a (possibly slightly nonsymmetric) matrix: sum of principal minors."""
    n = A.shape[0]
    total = 0.0
    for rows in itertools.combinations(range(n), k):
        sub = A[np.ix_(rows, rows)]
        total += np.linalg.det(sub)
    return total


class TestRankOneUpdate:
    def test_rank_one_identity(self):
        # sigma_k(eigs(S +- xi xi^T)) = sigma_k(eigs(S)) +- sum_ij dSk/dA_ij xi_i xi_j
        rng = np.random.default_rng(41)
        n = 4
        h = 1e-5
        for trial in range(300):
            k = int(rng.integers(1, n + 1))
            S = rng.normal(0, 1, size=(n, n))
            S = 0.5 * (S + S.T)
            xi = rng.normal(0, 1, size=n)
            deriv = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    E = np.zeros((n, n))
                    E[i, j] = 1.0
                    deriv[i, j] = (matrix_sk(S + h * E, k) - matrix_sk(S - h * E, k)) / (2 * h)
            quad = float(xi @ deriv @ xi)
            base = sigma(k, symmetric_eigenvalues(S, tol=1e-13))
            for sign in (+1.0, -1.0):
                lhs = sigma(k, symmetric_eigenvalues(S + sign * np.outer(xi, xi), tol=1e-13))
                rhs = base + sign * quad
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
