"""Nonlinearity and boundary-weight specifications.

Both types are thin immutable descriptions: the built-in kinds carry closed
forms for their antiderivatives, custom kinds carry user callables that are
validated by sampling (positivity, monotonicity) when a profile is built.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import KellerOssermanViolation, ParameterError

__all__ = ["Nonlinearity", "Weight"]


def _logspace(lo, hi, num):
    return np.logspace(math.log10(lo), math.log10(hi), num)


@dataclass(frozen=True)
class Nonlinearity:
    """Source nonlinearity f on (0, infinity), positive and nondecreasing.

    Kinds: ``power`` (f = s**gamma), ``exponential`` (f = exp(a s)) and
    ``custom`` (callables f, f'; an optional tail exponent hint speeds up
    improper-integral handling).
    """

    kind: str
    gamma: Optional[float] = None
    rate: Optional[float] = None
    fn: Optional[Callable] = None
    fn_prime: Optional[Callable] = None
    tail_exponent_hint: Optional[float] = None

    @staticmethod
    def power(gamma):
        gamma = float(gamma)
        if gamma <= 0.0:
            raise ParameterError(f"(f1) power nonlinearity needs gamma > 0, got {gamma}")
        return Nonlinearity(kind="power", gamma=gamma)

    @staticmethod
    def exponential(rate):
        rate = float(rate)
        if rate <= 0.0:
            raise ParameterError(f"(f1) exponential nonlinearity needs a > 0, got {rate}")
        return Nonlinearity(kind="exponential", rate=rate)

    @staticmethod
    def custom(fn, fn_prime, tail_exponent_hint=None):
        return Nonlinearity(
            kind="custom", fn=fn, fn_prime=fn_prime, tail_exponent_hint=tail_exponent_hint
        )

    # -- evaluation ---------------------------------------------------------

    def f(self, s):
        if self.kind == "power":
            return np.asarray(s, float) ** self.gamma
        if self.kind == "exponential":
            return np.exp(self.rate * np.asarray(s, float))
        return self.fn(s)

    def float_f(self):
        """f as a function of one Python float, for scalar inner loops.

        The built-in kinds use ``math``: an overflow raises OverflowError and
        a negative argument under a fractional power raises ValueError, where
        ``f`` would return inf or nan with a numpy warning.
        """
        if self.kind == "power":
            gamma = self.gamma
            return lambda s: math.pow(s, gamma)
        if self.kind == "exponential":
            rate = self.rate
            return lambda s: math.exp(rate * s)

        def f(s):
            with np.errstate(over="ignore", invalid="ignore"):
                return float(self.fn(s))

        return f

    def f_prime(self, s):
        if self.kind == "power":
            return self.gamma * np.asarray(s, float) ** (self.gamma - 1.0)
        if self.kind == "exponential":
            return self.rate * np.exp(self.rate * np.asarray(s, float))
        return self.fn_prime(s)

    def F_closed(self, s):
        """Exact antiderivative from 0 for the built-in kinds, else None."""
        if self.kind == "power":
            return np.asarray(s, float) ** (self.gamma + 1.0) / (self.gamma + 1.0)
        if self.kind == "exponential":
            return np.expm1(self.rate * np.asarray(s, float)) / self.rate
        return None

    def check_f1(self, lo=1e-6, hi=1e6, num=200):
        """Sampled positivity/monotonicity check of condition (f1)."""
        grid = _logspace(lo, hi, num)
        with np.errstate(over="ignore"):
            vals = np.asarray(self.f(grid), float)
        finite = np.isfinite(vals)
        vals = vals[finite]
        if vals.size < 8:
            raise ParameterError("(f1) nonlinearity not evaluable on the sample grid")
        if np.any(vals <= 0.0):
            raise ParameterError("(f1) nonlinearity must be positive on (0, inf)")
        if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
            raise ParameterError("(f1) nonlinearity must be nondecreasing")

    def check_f2(self, k):
        """Condition (f2) for order k where it has a closed form: power kinds need gamma > k.

        Raises KellerOssermanViolation carrying the exact tail exponent of 1/H.
        Other kinds are left to the tail fit of the profile integral.
        """
        if self.kind == "power" and self.gamma <= k:
            raise KellerOssermanViolation(
                f"(f2) power nonlinearity with gamma={self.gamma} <= k={k}: "
                "the profile integral diverges",
                tail_exponent=(self.gamma + 1.0) / (k + 1.0),
            )

    def describe(self):
        if self.kind == "power":
            return {"kind": "power", "gamma": self.gamma}
        if self.kind == "exponential":
            return {"kind": "exponential", "rate": self.rate}
        return {"kind": "custom", "tail_exponent_hint": self.tail_exponent_hint}


@dataclass(frozen=True)
class Weight:
    """Normal-form boundary weight: b(x) ~ [b_lower, b_upper] * m(d(x))**(k+1).

    ``m`` must be positive and nondecreasing on (0, delta0).  ``b_lower`` and
    ``b_upper`` are the liminf/limsup constants of the normal form.
    """

    kind: str
    const: Optional[float] = None
    alpha: Optional[float] = None
    m_fn: Optional[Callable] = None
    m_prime_fn: Optional[Callable] = None
    delta0: float = math.inf
    b_lower: float = 1.0
    b_upper: float = 1.0

    def __post_init__(self):
        if self.delta0 <= 0.0:
            raise ParameterError(f"(b2) validity window delta0 must be positive, got {self.delta0}")
        if self.b_lower <= 0.0:
            raise ParameterError(f"(b2) b_lower must be positive, got {self.b_lower}")
        if self.b_upper < self.b_lower:
            raise ParameterError("(b2) b_upper must be >= b_lower")

    @staticmethod
    def constant(c=1.0, *, delta0=math.inf, b_lower=1.0, b_upper=1.0):
        c = float(c)
        if c <= 0.0:
            raise ParameterError(f"(b2) constant weight must be positive, got {c}")
        return Weight(kind="constant", const=c, delta0=delta0, b_lower=b_lower, b_upper=b_upper)

    @staticmethod
    def power(alpha, *, delta0=math.inf, b_lower=1.0, b_upper=1.0):
        alpha = float(alpha)
        if alpha <= 0.0:
            raise ParameterError(f"(b2) power weight needs alpha > 0, got {alpha}")
        return Weight(kind="power", alpha=alpha, delta0=delta0, b_lower=b_lower, b_upper=b_upper)

    @staticmethod
    def custom(m, m_prime, delta0, *, b_lower=1.0, b_upper=1.0):
        return Weight(
            kind="custom", m_fn=m, m_prime_fn=m_prime, delta0=float(delta0),
            b_lower=b_lower, b_upper=b_upper,
        )

    # -- evaluation ---------------------------------------------------------

    def m(self, t):
        if self.kind == "constant":
            if isinstance(t, float) or not np.ndim(t):
                return self.const
            return np.full_like(np.asarray(t, float), self.const)
        if self.kind == "power":
            if isinstance(t, float) and t >= 0.0:
                return t**self.alpha
            return np.asarray(t, float) ** self.alpha
        return self.m_fn(t)

    def m_prime(self, t):
        if self.kind == "constant":
            return np.zeros_like(np.asarray(t, float)) if np.ndim(t) else 0.0
        if self.kind == "power":
            return self.alpha * np.asarray(t, float) ** (self.alpha - 1.0)
        return self.m_prime_fn(t)

    def M_closed(self, t):
        """Exact cumulative integral of m for the built-in kinds, else None."""
        if self.kind == "constant":
            return self.const * np.asarray(t, float)
        if self.kind == "power":
            return np.asarray(t, float) ** (self.alpha + 1.0) / (self.alpha + 1.0)
        return None

    def check_b2(self, num=200):
        """Sampled positivity/monotonicity check of m on (0, delta0)."""
        hi = min(self.delta0, 1e6) * 0.999
        grid = _logspace(hi * 1e-8, hi, num)
        vals = np.asarray(self.m(grid), float)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ParameterError("(b2) weight m must be positive on (0, delta0)")
        if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
            raise ParameterError("(b2) weight m must be nondecreasing on (0, delta0)")

    def describe(self):
        base = {"delta0": self.delta0, "b_lower": self.b_lower, "b_upper": self.b_upper}
        if self.kind == "constant":
            return {"kind": "constant", "c": self.const, **base}
        if self.kind == "power":
            return {"kind": "power", "alpha": self.alpha, **base}
        return {"kind": "custom", **base}
