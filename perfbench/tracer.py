"""Span tracing of khessian's layers from outside the program.

``install()`` replaces the traced functions with wrappers wherever callers
look them up: the defining module, every khessian module that imported the
name (``cli``, ``barriers``, ``radial`` and the package itself), and the
class for methods.  Each call records a span (name, start, end, parent) in
memory; ``Tracer.metrics()`` turns the spans into the per-layer metrics and
``Tracer.dump()`` writes them out when the round ends.  Nothing under
``src/`` is edited.
"""

import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = [
    ("khessian.grid2d", "build_grid", "grid2d.build"),
    ("khessian.grid2d", "Disk.distance", "grid2d.distance"),
    ("khessian.grid2d", "Ellipse.distance", "grid2d.distance"),
    ("khessian.fd2d", "solve_dirichlet", "fd2d.solve"),
    ("khessian.fd2d", "splu", "fd2d.factor"),
    ("khessian.fd2d", "exhaust", "fd2d.exhaust"),
    ("khessian.fd2d", "asymptotics_report_2d", "fd2d.report"),
    ("khessian.profiles", "assemble_profile", "profiles.assemble"),
    ("khessian.profiles", "Profile.phi", "profiles.phi"),
    ("khessian._quad", "DecayingTailIntegral.invert", "_quad.invert"),
    ("khessian._quad", "DecayingTailIntegral.value", "_quad.value"),
    ("khessian.radial", "integrate_blowup_ivp", "radial.ivp"),
    ("khessian.radial", "shoot_blowup_radius", "radial.shoot"),
    ("khessian.radial", "asymptotics_report", "radial.report"),
    ("khessian.radial", "solve_torsion", "radial.torsion"),
    ("khessian.barriers", "certify_barriers", "barriers.certify"),
    ("khessian.barriers", "make_barrier_params", "barriers.width"),
    ("khessian.barriers", "verify_supersolution", "barriers.verify"),
    ("khessian.barriers", "verify_subsolution", "barriers.verify"),
    ("khessian.barriers", "certify_upper_barrier_global", "barriers.global"),
    ("khessian.symfunc", "sigma_all", "symfunc.sigma_all"),
    ("khessian.cli", "run", "cli.run"),
    ("khessian.reports", "write_csv", "reports.write"),
    ("khessian.reports", "write_json", "reports.write"),
]

# counts read from arguments or results at the same wrappers
_TALLIES = {
    "fd2d.solve": ("fd2d.newton_steps", lambda args, out: out.meta["newton_iters"]),
    "radial.ivp": ("radial.ivp_steps", lambda args, out: out.meta["steps"]),
    "barriers.verify": ("barriers.samples_checked", lambda args, out: len(args[6])),
}

# per-layer metric -> ("time" | "calls" | "tally", span or tally name)
METRICS = {
    "grid2d.build_s": ("time", "grid2d.build"),
    "grid2d.distance_s": ("time", "grid2d.distance"),
    "fd2d.solve_s": ("time", "fd2d.solve"),
    "fd2d.factor_s": ("time", "fd2d.factor"),
    "fd2d.factorizations": ("calls", "fd2d.factor"),
    "fd2d.newton_steps": ("tally", "fd2d.newton_steps"),
    "fd2d.exhaust_s": ("time", "fd2d.exhaust"),
    "fd2d.report_s": ("time", "fd2d.report"),
    "profiles.assemble_s": ("time", "profiles.assemble"),
    "profiles.phi_calls": ("calls", "profiles.phi"),
    "profiles.phi_s": ("time", "profiles.phi"),
    "quad.invert_calls": ("calls", "_quad.invert"),
    "quad.invert_s": ("time", "_quad.invert"),
    "quad.value_calls": ("calls", "_quad.value"),
    "radial.ivp_calls": ("calls", "radial.ivp"),
    "radial.ivp_steps": ("tally", "radial.ivp_steps"),
    "radial.ivp_s": ("time", "radial.ivp"),
    "radial.shoot_s": ("time", "radial.shoot"),
    "radial.report_s": ("time", "radial.report"),
    "radial.torsion_s": ("time", "radial.torsion"),
    "barriers.certify_s": ("time", "barriers.certify"),
    "barriers.widths_tried": ("calls", "barriers.width"),
    "barriers.samples_checked": ("tally", "barriers.samples_checked"),
    "barriers.global_s": ("time", "barriers.global"),
    "symfunc.sigma_all_calls": ("calls", "symfunc.sigma_all"),
    "symfunc.sigma_all_s": ("time", "symfunc.sigma_all"),
    "cli.run_s": ("time", "cli.run"),
    "reports.write_s": ("time", "reports.write"),
}

COUNT_METRICS = [m for m, (kind, _) in METRICS.items() if kind != "time"]


class Tracer:
    """Spans and tallies of the calls made while ``active`` (the timed region)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.tallies = Counter()
        self.active = False
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, tallies = self.spans, self._stack, self.tallies
        tally = _TALLIES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](args, out)
            return out

        return traced

    def install(self):
        """Wrap every target; khessian must already be imported."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "khessian" or n.startswith("khessian.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)

    def _durations(self):
        """Per span name: (calls, inclusive time of outermost spans, self time)."""
        spans = self.spans
        child = defaultdict(float)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # no enclosing span of the same name
                incl[name] += t1 - t0
        return calls, incl, own

    def metrics(self):
        calls, incl, _ = self._durations()
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "time":
                out[metric] = incl.get(key, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(key, 0)
            else:
                out[metric] = self.tallies.get(key, 0)
        return out

    def dump(self, path):
        """Write the spans and a per-name summary (calls, inclusive, self time)."""
        calls, incl, own = self._durations()
        summary = {name: {"calls": calls[name], "inclusive_s": incl[name], "self_s": own[name]}
                   for name in sorted(calls)}
        with open(path, "w") as fh:
            json.dump({"summary": summary, "tallies": dict(self.tallies),
                       "spans": self.spans}, fh)
