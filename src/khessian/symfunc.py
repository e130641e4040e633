"""Elementary-symmetric-function algebra on Hessian eigenvalue spectra.

Spectra are plain 1d float arrays (length n >= 2 for Hessians, but the
algebra itself works for any length); ``sigma_all`` also takes a 2d array of
spectra, one per row.  All functions are pure; none mutate their inputs, so
concurrent use is safe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "sigma",
    "sigma_all",
    "ConeReport",
    "cone_membership",
    "sigma_partial",
    "radial_eigenvalues",
    "sk_radial",
    "sk_radial_divergence",
    "symmetric_eigenvalues",
]


def _as_spectrum(values, rows=False):
    """Validated float spectrum; with ``rows``, a 2d input stays one spectrum per row."""
    lam = np.asarray(values, dtype=float)
    if not (rows and lam.ndim == 2):
        lam = lam.ravel()
    if lam.shape[-1] == 0:
        raise ParameterError("empty eigenvalue spectrum")
    if not np.all(np.isfinite(lam)):
        raise ParameterError("eigenvalue spectrum contains non-finite entries")
    return lam


def sigma_all(values, jmax=None):
    """All elementary symmetric functions sigma_0..sigma_jmax of ``values``.

    Uses the coefficient recurrence of prod(1 + lam_i t): O(n*jmax) work and
    stable for mixed-sign spectra, unlike subset enumeration.  A 2d
    ``values`` holds one spectrum per row and gives one row of sigmas per
    spectrum; the recurrence runs column by column over all rows at once, so
    each row is bit-identical to the call on that spectrum alone.
    """
    lam = _as_spectrum(values, rows=True)
    spectra = lam if lam.ndim == 2 else lam[None, :]
    n = spectra.shape[1]
    if jmax is None:
        jmax = n
    top = min(jmax, n)
    e = np.zeros((spectra.shape[0], top + 1))
    e[:, 0] = 1.0
    for x in spectra.T:
        # rhs is materialised before the assignment, so the overlap is safe
        e[:, 1:] = e[:, 1:] + x[:, None] * e[:, :-1]
    if jmax > n:
        e = np.concatenate([e, np.zeros((e.shape[0], jmax - n))], axis=1)
    return e if lam.ndim == 2 else e[0]


def sigma(j, values):
    """sigma_j(values) with the conventions sigma_0 = 1 and sigma_j = 0 for j > n."""
    if j < 0:
        raise ParameterError(f"sigma order must be >= 0, got {j}")
    lam = _as_spectrum(values)
    if j == 0:
        return 1.0
    if j > lam.size:
        return 0.0
    return float(sigma_all(lam, j)[j])


@dataclass(frozen=True)
class ConeReport:
    """Membership report for the elliptic cone of order k."""

    k: int
    sigmas: np.ndarray  # (sigma_1, ..., sigma_k)
    admissible: bool


def cone_membership(values, k):
    """Check sigma_j(values) > 0 for j = 1..k (strict, no tolerance).

    The cone is open, so the test is an exact ``> 0`` comparison; callers
    needing robustness should perturb their spectra before calling.
    """
    lam = _as_spectrum(values)
    if not 1 <= k <= lam.size:
        raise ParameterError(f"order k={k} out of range 1..{lam.size}")
    sigmas = sigma_all(lam, k)[1:]
    return ConeReport(k=k, sigmas=sigmas, admissible=bool(np.all(sigmas > 0.0)))


def sigma_partial(j, values, i):
    """d(sigma_j)/d(lambda_i): sigma_{j-1} of the spectrum with entry i removed.

    ``i`` is a 0-based index.
    """
    lam = _as_spectrum(values)
    if not 1 <= j <= lam.size:
        raise ParameterError(f"sigma order j={j} out of range 1..{lam.size}")
    if not 0 <= i < lam.size:
        raise ParameterError(f"index i={i} out of range 0..{lam.size - 1}")
    return sigma(j - 1, np.delete(lam, i))


def radial_eigenvalues(u1, u2, r, n):
    """Hessian spectrum of a radial function: (u'', u'/r, ..., u'/r)."""
    if r <= 0.0:
        raise ParameterError(f"radius must be positive, got {r}")
    if n < 2:
        raise ParameterError(f"dimension must be >= 2, got {n}")
    lam = np.full(n, u1 / r)
    lam[0] = u2
    return lam


def sk_radial(u1, u2, r, n, k):
    """sigma_k of the radial spectrum via the closed form.

    Equals C(n-1,k) (u'/r)^k + C(n-1,k-1) u'' (u'/r)^(k-1); accepts scalars
    or broadcastable arrays for (u1, u2, r).
    """
    if not 1 <= k <= n:
        raise ParameterError(f"order k={k} out of range 1..{n}")
    if np.any(np.asarray(r) <= 0.0):
        raise ParameterError("radius must be positive")
    t = np.asarray(u1, dtype=float) / r
    out = math.comb(n - 1, k) * t**k + math.comb(n - 1, k - 1) * np.asarray(u2, float) * t ** (k - 1)
    return float(out) if np.ndim(out) == 0 else out


def sk_radial_divergence(u1_fn, r, h, n, k):
    """Divergence-form evaluation of the radial operator, for cross-checks.

    Differentiates the flux r^(n-k) (u')^k by central differences with step
    ``h`` and rescales by C(n-1,k-1) / (k r^(n-1)).  O(h) agreement with
    :func:`sk_radial` on smooth inputs; test scaffolding, not a solver path.
    """
    if np.any(np.asarray(r) <= 0.0):
        raise ParameterError("radius must be positive")
    flux = lambda s: s ** (n - k) * u1_fn(s) ** k
    dflux = (flux(r + h) - flux(r - h)) / (2.0 * h)
    return math.comb(n - 1, k - 1) * dflux / (k * r ** (n - 1))


def symmetric_eigenvalues(A, tol=1e-12, max_sweeps=60):
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Capped at size 8 (all internal uses are n <= 4 Hessians).  Returns the
    spectrum sorted descending; the off-diagonal Frobenius norm is <= tol at
    return.  Asymmetry beyond 1e-12 relative is rejected.
    """
    a = np.array(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("input must be a square matrix")
    n = a.shape[0]
    if n > 8:
        raise ParameterError(f"matrix size {n} exceeds the supported cap of 8")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise ParameterError("matrix is not symmetric within 1e-12 relative")
    a = 0.5 * (a + a.T)
    if n == 1:
        return np.array([a[0, 0]])

    def offnorm(m):
        o = m - np.diag(np.diag(m))
        return float(np.sqrt((o * o).sum()))

    for _ in range(max_sweeps):
        if offnorm(a) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diag(a))[::-1]
