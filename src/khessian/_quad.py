"""Geometric-grid quadrature tables for the improper integrals of the profile kit.

Two table kinds are provided:

* :class:`DecayingTailIntegral` -- integrals of the form int_s^inf g(tau) dtau
  for a positive decreasing-at-infinity integrand.  The grid is geometric
  (``per_decade`` nodes per decade, integer-aligned exponents so extension is
  exact), each segment is integrated with fixed Gauss-Legendre quadrature,
  and the remaining tail above the top node is handled analytically from a
  fitted local power exponent.  A fitted exponent <= 1 raises
  :class:`KellerOssermanViolation`.

* :class:`CumulativeFromZero` -- int_0^t g for integrands integrable at 0;
  the sliver below the bottom node is closed with a local power fit.

Both tables extend themselves on demand, so callers never need to guess the
range of future queries.  Evaluation (and, for the decaying table, inversion)
takes a scalar or an array: a scalar gives a float, an array gives an array of
the same shape, and the range is extended once per call from the extreme
arguments.
"""

import math

import numpy as np

from .errors import KellerOssermanViolation, KHessianError, ParameterError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

# hard range cap: 10**+-290 keeps every node representable
_MAX_EXTENT = 290

# Newton steps per inversion; far above the ~4 taken from the segment
# interpolant, and above the ~56 midpoint fallbacks that would shrink a
# segment bracket to rounding level
_NEWTON_CAP = 100

_EPS = np.finfo(float).eps

# relative size below which the analytic tail above the grid is trusted
_REL_TAIL = 1e-13


def panel_integrals(fn, a, b):
    """Fixed 10-point Gauss-Legendre quadrature of ``fn`` over each [a, b] (broadcast)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(fn(mid[..., None] + half[..., None] * _GL_NODES), dtype=float)
    return half * (vals @ _GL_WEIGHTS)


def vectorized(fn):
    """Return a callable that accepts numpy arrays, wrapping scalar-only fns."""
    try:
        out = fn(np.array([1.0, 2.0]))
        if np.shape(out) == (2,):
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


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


class _GeometricTable:
    """Nodes 10**(i/per_decade), i_lo <= i <= i_hi, with per-segment integrals."""

    def _nodes_between(self, i0, i1):
        return 10.0 ** (np.arange(i0, i1 + 1) / self.per_decade)

    def _segments(self, nodes):
        return panel_integrals(self.g, nodes[:-1], nodes[1:])

    def _segment_of(self, s):
        j = np.floor(np.log10(s) * self.per_decade).astype(int) - self.i_lo
        return np.clip(j, 0, len(self.nodes) - 2)

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


class DecayingTailIntegral(_GeometricTable):
    """Tabulated int_s^inf g with on-demand range extension."""

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

    def _refresh(self):
        # suffix[j] = integral from node j to the top node
        self.suffix = np.concatenate([np.cumsum(self.seg[::-1])[::-1], [0.0]])
        self.tail, self.tail_trusted, self.tail_exponent = self._fit_tail()

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
        agree to ~1e-6 the integrand is locally an exact power and the tail
        formula g(S) S/(p-1) is exact.  For faster-than-power decay the same
        formula is a safe overestimate, used only to decide when the grid is
        high enough.
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
        exact_power = abs(p_half - p_full) <= 1e-6 * max(1.0, abs(p_full))
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

    def _check_convergence(self, max_extra_decades=8):
        """Raise if the tail exponent stays <= 1 as the grid is pushed up."""
        tries = 0
        while not self.tail_trusted and self.tail_exponent <= 1.01:
            if tries >= max_extra_decades:
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

    def sup_value(self, rel=1e-9, max_decades=40):
        """Limit of the integral as s -> 0+ (may be finite or +inf-like large)."""
        prev = self.node_values()[0]
        for _ in range(max_decades):
            self._extend_low()
            cur = self.node_values()[0]
            if cur - prev <= rel * max(cur, 1e-300):
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
        the linear interpolant inside that segment.  Safeguarded Newton steps
        follow, with the exact slope value'(s) = -g(s): a step that leaves its
        bracket, or meets a slope that is not finite and positive, falls back
        to the bracket midpoint, and each residual's sign shrinks the bracket.
        A target is done once its step is at most 2 eps s; every step is one
        :meth:`value` call over the targets still running, at most
        ``_NEWTON_CAP`` of them.  The root is a rounding-level-smooth function
        of the target, which downstream checks rely on when they difference it
        numerically.
        """
        t = _positive(target, self.name, "inverse argument")
        if t.size == 0:
            return t.copy()
        tf = t.ravel()
        lo, hi, va, vb = self._bracket(tf)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = lo + (va - tf) / (va - vb) * (hi - lo)
        s = np.where((s >= lo) & (s <= hi), s, 0.5 * (lo + hi))
        todo = np.arange(tf.size)
        for _ in range(_NEWTON_CAP):
            si, ti = s[todo], tf[todo]
            res = self.value(si) - ti  # > 0: the root lies above si
            lo_i = np.where(res > 0.0, si, lo[todo])
            hi_i = np.where(res < 0.0, si, hi[todo])
            slope = self.g(si)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                nxt = si + np.where(res == 0.0, 0.0, res / slope)
            newton = np.isfinite(slope) & (slope > 0.0) & (nxt >= lo_i) & (nxt <= hi_i)
            nxt = np.where(newton, nxt, 0.5 * (lo_i + hi_i))
            lo[todo], hi[todo], s[todo] = lo_i, hi_i, nxt
            todo = todo[np.abs(nxt - si) > 2.0 * _EPS * si]
            if todo.size == 0:
                break
        return scalar_or_array(target, s.reshape(t.shape))


class CumulativeFromZero(_GeometricTable):
    """Tabulated int_0^t g for integrands integrable at 0."""

    def __init__(self, integrand, seed=1.0, per_decade=64, floor_decades=12, name="cumulative"):
        self.g = integrand
        self.per_decade = int(per_decade)
        self.name = name
        e0 = round(math.log10(seed) * self.per_decade)
        self.i_lo = e0 - floor_decades * self.per_decade
        self.i_hi = e0 + self.per_decade
        self.nodes = self._nodes_between(self.i_lo, self.i_hi)
        self.seg = self._segments(self.nodes)
        self._refresh()
        self.head = self._head()

    def _refresh(self):
        # prefix[j] = integral from the bottom node to node j
        self.prefix = np.concatenate([[0.0], np.cumsum(self.seg)])

    def _head(self):
        """Closing integral below the bottom node from a local power fit."""
        s0 = self.nodes[0]
        g0 = float(self.g(np.array([s0]))[0])
        g1 = float(self.g(np.array([s0 * 10.0]))[0])
        if g0 <= 0.0 or g1 <= 0.0:
            raise ParameterError(f"{self.name}: integrand must be positive near 0")
        q = (math.log(g1) - math.log(g0)) / math.log(10.0)
        if q <= -1.0 + 1e-9:
            raise ParameterError(
                f"{self.name}: integrand not integrable at 0 (local exponent {q:.4g})"
            )
        return g0 * s0 / (q + 1.0)

    def value(self, t):
        """int_0^t g at each t >= 0 (scalar or array)."""
        arr = _checked(t, lambda a: np.isfinite(a) & (a >= 0.0), self.name,
                       "argument must be nonnegative finite")
        out = np.zeros(arr.shape)
        if arr.size == 0:
            return out
        while arr.max() > self.nodes[-1]:
            self._extend_high()
        s0 = self.nodes[0]
        head = (arr > 0.0) & (arr <= s0)
        if head.any():
            # inside the head region: rescale the power-fit closing integral
            th = arr[head]
            g0 = float(self.g(np.array([s0]))[0])
            gt = np.asarray(self.g(th), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where((gt > 0.0) & (th < s0),
                             (math.log(g0) - np.log(gt)) / (math.log(s0) - np.log(th)), 0.0)
            if np.any(q <= -1.0 + 1e-9):
                raise ParameterError(f"{self.name}: integrand not integrable at 0")
            out[head] = gt * th / (q + 1.0)
        body = arr > s0
        if body.any():
            tb = arr[body]
            j = self._segment_of(tb)
            out[body] = self.head + self.prefix[j] + panel_integrals(self.g, self.nodes[j], tb)
        return scalar_or_array(t, out)
