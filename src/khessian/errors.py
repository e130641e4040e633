"""Exception types shared across the package, and its parameter checks."""

import math


class KHessianError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(KHessianError, ValueError):
    """A precondition on user-supplied parameters is violated."""


def require_positive_finite(value, what):
    """ParameterError naming ``what`` unless value is positive and finite (nan is neither)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{what} must be positive and finite, got {value}")


def require_dimension_order(n, k):
    """ParameterError unless the dimension n is >= 2 and the order k lies in 1..n."""
    if n < 2:
        raise ParameterError(f"dimension must be >= 2, got {n}")
    if not 1 <= k <= n:
        raise ParameterError(f"order k={k} out of range 1..{n}")


def domain_of(f):
    """(inside, words): the test of a value x against the domain of the nonlinearity f, and
    that domain in words.  An exponential f is defined on all of R, so any finite x; a power
    or custom f on (0, inf), so x > 0."""
    if f.kind == "exponential":
        return math.isfinite, "finite"
    return (lambda x: x > 0.0), "positive"


def require_schedule(values, f):
    """values as floats; ParameterError unless they are non-empty, finite, strictly increasing,
    and, unless f is custom, in the domain of f (``domain_of``): positive for a power f."""
    js = [float(j) for j in values]
    if not js:
        raise ParameterError("boundary-data schedule must not be empty")
    if not all(map(math.isfinite, js)) or any(b <= a for a, b in zip(js, js[1:])):
        raise ParameterError(f"boundary-data schedule must be strictly increasing and finite, "
                             f"got {js}")
    inside, words = domain_of(f)
    if f.kind != "custom" and not inside(js[0]):  # a custom f's start is left to its solve
        raise ParameterError(f"boundary-data schedule of a {f.kind} nonlinearity must be "
                             f"{words}, got {js}")
    return js


def require_array_callable(fn, probe, what):
    """ParameterError naming ``what`` unless fn maps the array ``probe`` to one of its shape."""
    try:
        ok = getattr(fn(probe), "shape", None) == probe.shape
    except (TypeError, ValueError):  # what a scalar-only callable raises on an array
        ok = False
    if not ok:
        raise ParameterError(f"{what} must take an array and return an array of its shape")


class KellerOssermanViolation(KHessianError):
    """The profile integral diverges for the given nonlinearity/order pair.

    Carries the fitted (or exact) tail exponent of the integrand so callers
    can report how far from integrability the input is.
    """

    def __init__(self, message, tail_exponent=None):
        super().__init__(message)
        self.tail_exponent = tail_exponent


class LimitNotDetected(KHessianError):
    """A probed limit did not settle within the configured tolerance."""

    def __init__(self, message, probes=None):
        super().__init__(message)
        self.probes = probes


class ConditionViolation(KHessianError):
    """A structural condition (e.g. the constant gap test) fails.

    ``label`` is the short condition tag used in CLI diagnostics,
    e.g. ``"(1.5)"`` for the constant-gap condition.
    """

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


class IntegrationFailure(KHessianError):
    """Integration stopped; ``solution`` holds the last good state, ``shot`` a shot's counts."""

    def __init__(self, message, solution=None, shot=None):
        super().__init__(message)
        self.solution = solution
        self.shot = shot


class SolveFailure(KHessianError):
    """A nonlinear solve did not converge; carries the residual history.

    ``partial`` holds the results completed before the failure, e.g. the
    finished levels of an exhaustion sweep; ``shot``, for a failed shot, its
    path and IVP counts.
    """

    def __init__(self, message, residuals=None, partial=None, shot=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []
        self.partial = list(partial) if partial is not None else []
        self.shot = shot


class GeometryError(KHessianError):
    """Collar geometry evaluated outside its validity region."""


class CertificationFailure(KHessianError):
    """No parameter in the search ladder certified the inequality."""

    def __init__(self, message, worst_margin=None, report=None):
        super().__init__(message)
        self.worst_margin = worst_margin
        self.report = report


class ReportTruncated(KHessianError):
    """Requested report range is not resolved; carries the available rows."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows
