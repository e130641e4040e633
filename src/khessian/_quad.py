"""Geometric-grid quadrature table for the improper integrals of the profile kit.

One table kind, :class:`DecayingTailIntegral`, tabulates int_s^inf g(tau) dtau
for a positive integrand that decays at infinity.  The grid is geometric
(``per_decade`` nodes per decade, integer-aligned exponents so extension is
exact), each segment is integrated with fixed Gauss-Legendre quadrature, and
the remaining tail above the top node is handled analytically from a fitted
local power exponent.  A fitted exponent <= 1 raises
:class:`KellerOssermanViolation`.

The cumulative integrals int_0^t g from 0 are the same table after the
reflection u = 1/tau: int_0^t g = int_{1/t}^inf g(1/u) u^-2 du, so a local
exponent q of g at 0 is the tail exponent q + 2 of the reflected integrand.
:func:`cumulative_from_zero` builds that table.

The table extends itself on demand, so callers never need to guess the range
of future queries.  Evaluation and inversion take a scalar or an array: a
scalar gives a float, an array gives an array of the same shape, and the range
is extended once per call from the extreme arguments.
"""

import math

import numpy as np

from .errors import KellerOssermanViolation, KHessianError, ParameterError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _partial_integration_matrix(x, w):
    """Q[i, j] = int_{-1}^{x_i} l_j for the Lagrange basis l_j of the Gauss nodes x.

    Gauss quadrature is exact for l_j P_m, so l_j has Legendre coefficients
    (m + 1/2) P_m(x_j) w_j and Q needs no matrix inverse.
    """
    leg = np.polynomial.legendre
    coef = (np.arange(len(x)) + 0.5)[:, None] * leg.legvander(x, len(x) - 1).T * w
    return leg.legvander(x, len(x)) @ leg.legint(coef, lbnd=-1, axis=0)


# spectral integration on one panel (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071)
_GL_PARTIAL = _partial_integration_matrix(_GL_NODES, _GL_WEIGHTS)

# hard range cap: 10**+-290 keeps every node representable
_MAX_EXTENT = 290

# Newton steps per inversion, a guard: far above the ~3 taken from the
# segment's Hermite interpolant, and above the ~56 midpoint fallbacks that
# would shrink a segment bracket to rounding level
_NEWTON_CAP = 100

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the smallest normal float

# relative size below which the analytic tail above the grid is trusted
_REL_TAIL = 1e-13

# slope agreement that marks an exact power tail: the tail formula's relative
# error is about a tenth of it, and the rounding of the fitted slopes (about
# 2e-16 |log g|) stays under 1.5e-13 while the integrand is above 1e-300
_EXACT_POWER = 1e-12

_EXTRA_DECADES = 8  # decades added above a table whose tail exponent stays <= 1.01
_SUP_DECADES, _SUP_REL = 40, 1e-9  # sup_value: decades added below, relative change to stop
_CUMULATIVE_PER_DECADE = 128  # nodes per decade of cumulative_from_zero's tables


def panel_points(a, b):
    """The 10 Gauss-Legendre nodes of each panel [a, b] (broadcast), and its half-width."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES, half


def panel_sums(vals, half):
    """Gauss-Legendre sums of integrand values taken at :func:`panel_points`."""
    # einsum, not a BLAS matvec: a row's sum must not depend on the batch size
    return half * np.einsum("...j,j->...", vals, _GL_WEIGHTS)


def panel_partials(vals, half):
    """int_a^x at each Gauss node x of its panel [a, b], from the values at :func:`panel_points`."""
    return half[..., None] * np.einsum("...j,ij->...i", vals, _GL_PARTIAL)


def panel_integrals(fn, a, b):
    """Fixed 10-point Gauss-Legendre quadrature of ``fn`` over each [a, b] (broadcast)."""
    pts, half = panel_points(a, b)
    return panel_sums(np.asarray(fn(pts), dtype=float), half)


def _checked(x, ok, name, what):
    """``x`` as a float array; ParameterError naming the first entry failing ``ok``."""
    arr = np.asarray(x, dtype=float)
    good = ok(arr)
    if not np.all(good):
        bad = arr[~good].flat[0]
        raise ParameterError(f"{name}: {what}, got {bad}")
    return arr


def _positive(x, name, what):
    return _checked(x, lambda a: np.isfinite(a) & (a > 0.0), name,
                    f"{what} must be positive finite")


def scalar_or_array(x, out):
    """``out`` as a float when the argument ``x`` was a scalar."""
    return float(out) if np.ndim(x) == 0 else out


class DecayingTailIntegral:
    """Tabulated int_s^inf g with on-demand range extension.

    Nodes are 10**(i/per_decade) for i_lo <= i <= i_hi, with the integral
    of g over each segment between them.
    """

    def __init__(self, integrand, seed=1.0, per_decade=64, tail_hint=None, name="integral"):
        self.g = integrand
        self.per_decade = int(per_decade)
        self.tail_hint = tail_hint
        self.name = name
        # integer exponent bookkeeping: node j has exponent (i_lo + j)/per_decade
        e0 = round(math.log10(seed) * self.per_decade)
        self.i_lo = e0 - 2 * self.per_decade
        self.i_hi = e0 + 2 * self.per_decade
        self.nodes = self._nodes_between(self.i_lo, self.i_hi)
        self.seg = self._segments(self.nodes)
        self._refresh()
        self._check_convergence()

    # -- grid management ----------------------------------------------------

    def _nodes_between(self, i0, i1):
        return 10.0 ** (np.arange(i0, i1 + 1) / self.per_decade)

    def _segments(self, nodes):
        return panel_integrals(self.g, nodes[:-1], nodes[1:])

    def _segment_of(self, s):
        j = np.floor(np.log10(s) * self.per_decade).astype(int) - self.i_lo
        return np.clip(j, 0, len(self.nodes) - 2)

    def _refresh(self):
        # suffix[j] = integral from node j to the top node
        self.suffix = np.concatenate([np.cumsum(self.seg[::-1])[::-1], [0.0]])
        self.tail, self.tail_trusted, self.tail_exponent = self._fit_tail()

    def _extend_high(self):
        """Append one decade of nodes above the top."""
        if self.i_hi + self.per_decade > _MAX_EXTENT * self.per_decade:
            raise KHessianError(f"{self.name}: upper range cap exceeded")
        new_hi = self.i_hi + self.per_decade
        add = self._nodes_between(self.i_hi, new_hi)
        self.i_hi = new_hi
        self.nodes = np.concatenate([self.nodes, add[1:]])
        self.seg = np.concatenate([self.seg, self._segments(add)])
        self._refresh()

    def _extend_low(self):
        if self.i_lo - self.per_decade < -_MAX_EXTENT * self.per_decade:
            raise KHessianError(f"{self.name}: lower range cap exceeded")
        new_lo = self.i_lo - self.per_decade
        add = self._nodes_between(new_lo, self.i_lo)
        self.i_lo = new_lo
        self.nodes = np.concatenate([add[:-1], self.nodes])
        self.seg = np.concatenate([self._segments(add), self.seg])
        self._refresh()

    # -- tail handling ------------------------------------------------------

    def _fit_tail(self):
        """Analytic tail above the top node from a fitted power exponent.

        Exponent fitted over the top decade; when the two half-decade slopes
        agree to ``_EXACT_POWER`` the integrand is locally an exact power and
        the tail formula g(S) S/(p-1) holds to about a tenth of that.  For
        faster-than-power decay the same formula is a safe overestimate, used
        only to decide when the grid is high enough.
        """
        S = self.nodes[-1]
        gS = float(self.g(np.array([S]))[0])
        if gS == 0.0 or not math.isfinite(gS):
            return 0.0, True, math.inf
        gmid = float(self.g(np.array([S * 10 ** -0.5]))[0])
        glow = float(self.g(np.array([S * 0.1]))[0])
        if glow <= 0.0 or gmid <= 0.0:
            return 0.0, True, math.inf
        p_full = -(math.log(gS) - math.log(glow)) / math.log(10.0)
        p_half = -(math.log(gS) - math.log(gmid)) / (0.5 * math.log(10.0))
        exact_power = abs(p_half - p_full) <= _EXACT_POWER * max(1.0, abs(p_full))
        p = p_half
        if self.tail_hint is not None and exact_power:
            p = self.tail_hint
        if p <= 1.0 + 1e-9:
            if exact_power:
                raise KellerOssermanViolation(
                    f"{self.name} diverges: integrand tail exponent {p:.6g} <= 1",
                    tail_exponent=p,
                )
            return math.inf, False, p
        return gS * S / (p - 1.0), exact_power, p

    def _check_convergence(self):
        """Raise if the tail exponent stays <= 1 as the grid is pushed up."""
        tries = 0
        while not self.tail_trusted and self.tail_exponent <= 1.01:
            if tries >= _EXTRA_DECADES:
                raise KellerOssermanViolation(
                    f"{self.name} diverges: fitted tail exponent "
                    f"{self.tail_exponent:.6g} after extension",
                    tail_exponent=self.tail_exponent,
                )
            self._extend_high()
            tries += 1

    # -- evaluation ---------------------------------------------------------

    def _to_top(self, s):
        """int_s^(top node) g for s inside the grid: one local panel plus a suffix."""
        j = self._segment_of(s)
        return self.suffix[j + 1] + panel_integrals(self.g, s, self.nodes[j + 1])

    def value(self, s):
        """int_s^inf g at each s (scalar or array), accurate to ~1e-13 relative."""
        arr = _positive(s, self.name, "argument")
        if arr.size == 0:
            return arr.copy()
        flat = arr.ravel()
        while flat.min() < self.nodes[0] * (1.0 + 1e-12):
            self._extend_low()
        while flat.max() > self.nodes[-2]:
            self._extend_high()
        v = self._to_top(flat)
        while not self.tail_trusted and self.tail > _REL_TAIL * (v.min() + self.tail):
            self._extend_high()
            v = self._to_top(flat)
        return scalar_or_array(s, (v + self.tail).reshape(arr.shape))

    def node_values(self):
        return self.suffix + self.tail

    def sup_value(self):
        """Limit of the integral as s -> 0+ (may be finite or +inf-like large)."""
        prev = self.node_values()[0]
        for _ in range(_SUP_DECADES):
            self._extend_low()
            cur = self.node_values()[0]
            if cur - prev <= _SUP_REL * max(cur, 1e-300):
                return cur
            prev = cur
        return prev

    def _bracket(self, t):
        """Grid segments [lo, hi] with value(lo) > t >= value(hi), one per target."""
        while self.node_values()[0] < t.max():
            prev = self.node_values()[0]
            self._extend_low()
            if self.node_values()[0] - prev <= 1e-14 * max(prev, 1e-300):
                raise ParameterError(
                    f"{self.name}: target {t.max():.6g} exceeds the supremum "
                    f"{self.node_values()[0]:.6g} of the integral"
                )
        while self.node_values()[-1] > 0.5 * t.min():
            self._extend_high()
        while True:
            vals = self.node_values()
            j = np.maximum(np.searchsorted(-vals, -t), 1)
            # trust the tail down to half the smallest bracketed value, so no
            # value() call inside the brackets extends the grid under them
            if self.tail_trusted or self.tail <= 0.5 * _REL_TAIL * vals[j].min():
                return self.nodes[j - 1], self.nodes[j], vals[j - 1], vals[j]
            self._extend_high()

    def invert(self, target):
        """Solve value(s) = target for s at each target (value is strictly decreasing).

        Each target is bracketed by the grid segment whose node values straddle
        it, found by ``searchsorted`` over :meth:`node_values`, and started from
        the cubic Hermite interpolant of the inverse on that segment, whose
        slopes at the two nodes are -1/g there (one ``g`` call over all bracket
        ends).  A start that is not finite or leaves the bracket falls back to
        the linear interpolant, then to the midpoint.  Safeguarded Newton steps
        follow, with the exact slope value'(s) = -g(s): a step that leaves its
        bracket, or meets a slope that is not finite and positive, falls back
        to the bracket midpoint, and each residual's sign shrinks the bracket.
        A target is done once its step is at most 2 eps s, or lands on a
        bracket end that an earlier step evaluated: that is a rounding-level
        cycle between neighbouring floats.  Every step is one :meth:`value`
        call over the targets still running, at most ``_NEWTON_CAP`` of them.
        The root is a rounding-level-smooth function of the target, which
        downstream checks rely on when they difference it numerically.
        """
        t = _positive(target, self.name, "inverse argument")
        if t.size == 0:
            return t.copy()
        tf = t.ravel()
        lo, hi, va, vb = self._bracket(tf)
        n = tf.size
        g_ends = np.asarray(self.g(np.concatenate([lo, hi])), dtype=float)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            tau = (va - tf) / (va - vb)
            linear = lo + tau * (hi - lo)
            # the cubic s(tau) with s = lo, hi and ds/dtau = da, db at tau = 0, 1
            da, db = (va - vb) / g_ends[:n], (va - vb) / g_ends[n:]
            s = lo + tau * tau * (3.0 - 2.0 * tau) * (hi - lo) \
                + tau * (1.0 - tau) * ((1.0 - tau) * da - tau * db)
        for cand in (linear, 0.5 * (lo + hi)):
            s = np.where(np.isfinite(s) & (s >= lo) & (s <= hi), s, cand)
        lo_seen = np.zeros(n, dtype=bool)  # whether value() was taken at lo, hi
        hi_seen = np.zeros(n, dtype=bool)
        todo = np.arange(n)
        for _ in range(_NEWTON_CAP):
            si, ti = s[todo], tf[todo]
            res = self.value(si) - ti  # > 0: the root lies above si
            up, down = res > 0.0, res < 0.0
            lo_i = np.where(up, si, lo[todo])
            hi_i = np.where(down, si, hi[todo])
            lo_seen[todo] |= up
            hi_seen[todo] |= down
            slope = self.g(si)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                nxt = si + np.where(res == 0.0, 0.0, res / slope)
            newton = np.isfinite(slope) & (slope > 0.0) & (nxt >= lo_i) & (nxt <= hi_i)
            nxt = np.where(newton, nxt, 0.5 * (lo_i + hi_i))
            lo[todo], hi[todo], s[todo] = lo_i, hi_i, nxt
            cycle = ((nxt == lo_i) & lo_seen[todo]) | ((nxt == hi_i) & hi_seen[todo])
            todo = todo[(np.abs(nxt - si) > 2.0 * _EPS * si) & ~cycle]
            if todo.size == 0:
                break
        return scalar_or_array(target, s.reshape(t.shape))


def cumulative_from_zero(g, seed=1.0, name="cumulative"):
    """t -> int_0^t g at each t >= 0 (scalar or array), for g integrable at 0.

    The integral is the tail table of the reflected integrand g(1/u)/u^2,
    seeded at 1/seed and read at u = 1/t.  Positive t is covered from about
    1e-290 to 1e290; a smaller t, subnormal ones included, hits the table's
    range cap (KHessianError).
    A panel spans a fixed ratio of t, so an integrand growing like exp(a t)
    loses accuracy as a t grows: at 128 nodes per decade int_0^t exp(2s)
    stays within 1e-13 relative up to t = 100 (64 nodes give 1.1e-13 there).
    """
    def reflected(u):
        s = 1.0 / np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            # g(s) before s * s, which underflows below s = 1e-154
            return (np.asarray(g(s), dtype=float) * s) * s

    table = DecayingTailIntegral(reflected, 1.0 / seed, _CUMULATIVE_PER_DECADE, name=name)

    def value(t):
        arr = _checked(t, lambda a: np.isfinite(a) & (a >= 0.0), name,
                       "argument must be nonnegative finite")
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        if pos.any():
            # a subnormal t, whose 1/t overflows, is read at the smallest normal float:
            # far below the range cap, so it gets the range-cap error as t = 1e-291 does
            out[pos] = table.value(1.0 / np.maximum(arr[pos], _TINY))
        return scalar_or_array(t, out)

    return value
