"""Configuration-driven experiment runner.

Configs are flat ``key = value`` text files (``#`` starts a comment); the
schema is documented in the README.  Each invocation runs one experiment
and writes CSV data plus JSON metadata into the output directory; report
bodies are byte-identical across reruns, timestamps live in a
``*.runinfo.json`` sidecar.

Exit codes: 0 success (and all checks passed), 1 computational failure
(diagnostic written to ``error.json``), 2 config/parameter validation
failure with a message naming the violated condition label, or a config key
the command never read, with the closest key it did when one is close.
"""

import argparse
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__, reports
from .barriers import (
    ball_geometry,
    certify_barriers,
    certify_upper_barrier_global,
    ellipse_geometry,
)
from .errors import (ConditionViolation, KellerOssermanViolation, ParameterError,
                     require_positive_finite)
from .grid2d import build_grid, parse_domain
from .nonlinearity import Nonlinearity, Weight
from .profiles import assemble_profile, profile_table, xi_bounds
from .radial import (
    RadialProblem,
    asymptotics_report,
    integrate_blowup_ivp,
    shoot_blowup_radius,
    solve_exhaustion_bvp,
    solve_torsion,
)

class Config:
    """Flat key-value config with typed accessors that record every key looked up."""

    def __init__(self, pairs):
        self.pairs = dict(pairs)
        self.looked_up = set()

    @staticmethod
    def parse(text):
        pairs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
        return Config(pairs)

    def get(self, key, cast=str, default=None, required=False):
        self.looked_up.add(key)
        if key not in self.pairs:
            if required:
                raise ParameterError(f"config key {key!r} is required for this command")
            return default
        raw = self.pairs[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"config key {key!r}: cannot parse {raw!r} ({exc})")

    def floats(self, key, default=None, required=False):
        """The comma-separated floats under key, [] if it lists none.

        An empty entry beside others, as in ``1,,2`` or ``1,2,``, is a ParameterError
        naming key.
        """
        def parse(raw):
            entries = [v.strip() for v in raw.split(",")]
            if not any(entries):
                return []
            if not all(entries):
                raise ValueError(f"entry {entries.index('') + 1} of {len(entries)} is empty")
            return [float(v) for v in entries]

        return self.get(key, parse, default, required)

    def check_all_read(self):
        """ParameterError naming a key the command never looked up, and a close one it did.

        Each command calls it once it has read all its keys, before any solve or file
        write.  ``seed`` is exempt: ``--seed`` sets it for every command.
        """
        unread = sorted(set(self.pairs) - self.looked_up - {"seed"})
        if unread:
            import difflib  # only on this error path: the import is not paid by every run

            key, command = unread[0], self.pairs["command"]
            closest = difflib.get_close_matches(key, sorted(self.looked_up), n=1)
            raise ParameterError(f"unknown config key {key!r} for command {command!r}"
                                 + (f" (closest valid key: {closest[0]!r})" if closest else ""))


def _spec_number(spec, rest, what):
    """float(rest), the number in spec; ParameterError naming spec when it is not one."""
    try:
        return float(rest)
    except ValueError:
        raise ParameterError(f"{what} {spec!r}: {rest.strip()!r} is not a number") from None


def _parse_nonlinearity(spec):
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "power":
        return Nonlinearity.power(_spec_number(spec, rest, "nonlinearity"))
    if kind in ("exp", "exponential"):
        return Nonlinearity.exponential(_spec_number(spec, rest, "nonlinearity"))
    raise ParameterError(f"(f1) unknown nonlinearity kind {kind!r} (use power:G or exp:A)")


def _parse_weight(spec, cfg):
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    kw = {
        "b_lower": cfg.get("b_lower", float, 1.0),
        "b_upper": cfg.get("b_upper", float, 1.0),
    }
    delta0 = cfg.get("delta0", float, None)
    if delta0 is not None:
        kw["delta0"] = delta0
    if kind in ("constant", "const"):
        return Weight.constant(_spec_number(spec, rest, "weight") if rest else 1.0, **kw)
    if kind == "power":
        return Weight.power(_spec_number(spec, rest, "weight"), **kw)
    raise ParameterError(f"(b2) unknown weight kind {kind!r} (use constant:C or power:A)")


def _default_t_grid(cfg):
    tmin = cfg.get("t_min", float, 1e-3)
    tmax = cfg.get("t_max", float, 10.0)
    per_dec = cfg.get("t_per_decade", int, 10)
    require_positive_finite(tmin, "t_min")
    require_positive_finite(tmax, "t_max")
    if tmin > tmax:
        raise ParameterError(f"profile grid needs t_min <= t_max, got t_min={tmin}, t_max={tmax}")
    if per_dec < 1:
        raise ParameterError(f"t_per_decade must be >= 1, got {per_dec}")
    klo = math.ceil(math.log10(tmin) * per_dec - 1e-9)
    khi = math.floor(math.log10(tmax) * per_dec + 1e-9)
    return [10.0 ** (kk / per_dec) for kk in range(klo, khi + 1)]


def _geometry(cfg, n, k):
    """(geom, R): the collar geometry of the config's domain and the radius of its ball.

    With no domain, the ball of radius R (default 1) in R^n; else the planar domain
    (parse_domain), which needs n = 2: disk:R is the ball of that radius, and an ellipse
    has no radius (R is None).  A config gives R or domain, not both.
    """
    spec, R = cfg.get("domain", str, None), cfg.get("R", float, None)
    if spec is None:
        R = 1.0 if R is None else R
        return ball_geometry(n, k, R), R
    if R is not None:
        raise ParameterError("give the ball radius R or a domain, not both")
    dom = parse_domain(spec)
    if dom.kind == "disk":
        geom, R, article = ball_geometry(2, k, dom.R), dom.R, "a"
    else:
        geom, article = ellipse_geometry(dom.a, dom.b, k=k), "an"
    if n != 2:  # after the geometry's k message
        raise ParameterError(f"{article} {dom.kind} domain is planar: n must be 2, got n={n}")
    return geom, R


def _xi_key(cfg):
    """The config's xi, checked, or None for "auto" (the default), which _resolve_xi bounds."""
    if cfg.get("xi", str, "auto") == "auto":
        return None
    xi = cfg.get("xi", float)
    require_positive_finite(xi, "xi")
    return xi


def _resolve_xi(xi, p, geom):
    """xi, or the xi_bounds value for p on geom when xi is None."""
    return xi_bounds(p.weight, geom.L0, geom.l0, p.C_f, p.C_m, p.k)[0] if xi is None else xi


def cmd_profile(cfg, outdir, base, quiet, runinfo):
    k = cfg.get("k", int, required=True)
    nl = _parse_nonlinearity(cfg.get("f", str, required=True))
    w = _parse_weight(cfg.get("weight", str, "constant:1"), cfg)
    geom, _ = _geometry(cfg, cfg.get("n", int, max(2, k)), k)  # checks k before any profile
    ts = cfg.floats("t_grid")
    if ts is None:
        ts = _default_t_grid(cfg)
    elif not (ts and all(math.isfinite(t) and t > 0.0 for t in ts)):
        raise ParameterError(f"t_grid must list positive finite values, got {ts}")
    xi = _xi_key(cfg)
    cfg.check_all_read()
    p = assemble_profile(nl, w, k)
    xi = _resolve_xi(xi, p, geom)
    sup = p.profile.phi_domain_sup()
    ts = [t for t in ts if t < 0.95 * sup]
    rows = profile_table(p, xi, ts)
    reports.profile_files(outdir / base, p, xi, rows)
    if not quiet:
        print(f"profile: C_f={p.C_f:.6f} C_m={p.C_m:.6f} xi={xi:.6f} rows={len(rows)}")
    return 0


def _radial_problem(cfg):
    n = cfg.get("n", int, required=True)
    k = cfg.get("k", int, required=True)
    R = cfg.get("R", float, 1.0)
    nl = _parse_nonlinearity(cfg.get("f", str, required=True))
    w = _parse_weight(cfg.get("weight", str, "constant:1"), cfg)
    prob = RadialProblem.from_weight(n, k, R, nl, w)
    nl.check_f2(k)
    return prob, nl, w


def cmd_radial_ivp(cfg, outdir, base, quiet, runinfo):
    prob, nl, w = _radial_problem(cfg)
    u0 = cfg.get("u0", float, required=True)
    tol = cfg.get("tol", float, 1e-9)
    cfg.check_all_read()
    sol = integrate_blowup_ivp(prob, u0, tol)
    reports.radial_solution_files(outdir / base, sol)
    if not quiet:
        print(f"radial-ivp: Rstar={sol.Rstar:.8f} steps={sol.meta['steps']}")
    return 0


def cmd_radial_exhaust(cfg, outdir, base, quiet, runinfo):
    prob, nl, w = _radial_problem(cfg)
    js = cfg.floats("j_schedule", required=True)
    h = cfg.get("h", float, 1.0 / 256.0)
    tol = cfg.get("tol", float, 1e-9)
    cfg.check_all_read()
    sols = solve_exhaustion_bvp(prob, js, h, tol)
    rows = []
    for sol in sols:
        j = sol.meta["j"]
        rows.extend((j, r, u, u1) for r, u, u1 in zip(sol.r, sol.u, sol.u1))
    reports.write_csv(outdir / f"{base}.csv", ["j", "r", "u", "u1"], rows)
    mono = [float(np.min(b.u - a.u)) for a, b in zip(sols, sols[1:])]
    mid = len(sols[0].r) // 2
    incs = [abs(b.u[mid] - a.u[mid]) for a, b in zip(sols, sols[1:])]
    meta = {
        "j_schedule": js,
        "h": h,
        "tol": tol,
        "monotone_min_increment": mono,
        "center_increments": incs,
        "monotone_ok": bool(all(v >= -1e-8 for v in mono)),
    }
    reports.write_json(outdir / f"{base}.json", meta)
    if not quiet:
        print(f"radial-exhaust: {len(sols)} levels, monotone_ok={meta['monotone_ok']}")
    return 0


def cmd_fd_exhaust(cfg, outdir, base, quiet, runinfo):
    from .fd2d import exhaust  # loads scipy's LAPACK, which no other command needs

    nl = _parse_nonlinearity(cfg.get("f", str, required=True))
    w = _parse_weight(cfg.get("weight", str, "constant:1"), cfg)
    nl.check_f2(1)  # the 2-d solver is the k = 1 case
    dom = parse_domain(cfg.get("domain", str, required=True))
    h = cfg.get("h", float, 1.0 / 64.0)
    tol = cfg.get("tol", float, 1e-8)
    js = cfg.floats("j_schedule", required=True)
    cfg.check_all_read()
    grid = build_grid(dom, h)
    limit, diags = exhaust(grid, nl, w, js, tol)
    reports.field_files(outdir / base, limit, extra_meta={
        "j_schedule": js,
        "increment_min": diags["increment_min"],
        "cauchy_ratio": diags["cauchy_ratio"],
        "monotone_ok": bool(all(v >= -1e-8 for v in diags["increment_min"])),
    })
    runinfo["levels"] = {key: diags[key] for key in ("j", "newton_iters", "cycles")}
    if not quiet:
        print(f"fd-exhaust: nodes={grid.n_interior} monotone_ok="
              f"{all(v >= -1e-8 for v in diags['increment_min'])}")
    return 0


def cmd_check_barrier(cfg, outdir, base, quiet, runinfo):
    n = cfg.get("n", int, required=True)
    k = cfg.get("k", int, required=True)
    nl = _parse_nonlinearity(cfg.get("f", str, required=True))
    w = _parse_weight(cfg.get("weight", str, "constant:1"), cfg)
    eps = cfg.get("eps", float, 0.1)
    geom, R = _geometry(cfg, n, k)  # checks k before any profile is built
    seed = cfg.get("seed", int, 0)
    nsamples = cfg.get("samples", int, 200)
    global_check = cfg.get("global_check", str, "false").lower() in ("true", "1", "yes")
    if global_check and R is None:
        raise ParameterError(f"global_check certifies the global upper barrier on a ball "
                             f"only, got {geom.label}")
    cfg.check_all_read()
    p = assemble_profile(nl, w, k)
    bp, rep_s, rep_l = certify_barriers(p, geom, nl, w, eps=eps, nsamples=nsamples, seed=seed)
    out = {
        "geometry": geom.label,
        "delta_eps": bp.delta_eps,
        "eps": bp.eps,
        "supersolution": rep_s.as_dict(),
        "subsolution": rep_l.as_dict(),
    }
    passed = rep_s.passed and rep_l.passed
    if global_check:
        prob = RadialProblem.from_weight(n, k, R, nl, w)
        eps_g, rep_g = certify_upper_barrier_global(p, solve_torsion(prob), nl, prob.b)
        out["global_upper_barrier"] = {
            "eps": eps_g,
            "worst_relative_margin": rep_g["worst_relative_margin"],
        }
    reports.write_json(outdir / f"{base}.json", out)
    if not quiet:
        print(f"check-barrier: {'PASS' if passed else 'FAIL'} "
              f"(delta_eps={bp.delta_eps:.4g}, eps={bp.eps})")
    return 0 if passed else 1


def cmd_verify_asymptotics(cfg, outdir, base, quiet, runinfo):
    prob, nl, w = _radial_problem(cfg)
    geom = ball_geometry(prob.n, prob.k, prob.R)  # the shot's domain
    xi = _xi_key(cfg)
    tol = cfg.get("tol", float, 1e-9)
    d_lo = cfg.get("d_lo", float, 1e-4)
    d_hi = cfg.get("d_hi", float, 1e-2)
    band = cfg.floats("ratio_band", default=[0.9, 1.1])
    per_decade = cfg.get("per_decade", int, 8)
    if not 0.0 < d_lo < d_hi < math.inf:
        raise ParameterError(f"distance window needs finite 0 < d_lo < d_hi, "
                             f"got d_lo={d_lo}, d_hi={d_hi}")
    if d_hi >= prob.R:  # the shot's blow-up radius is R
        raise ParameterError(f"distance window needs d_hi < R, got d_hi={d_hi}, R={prob.R}")
    if per_decade < 1:
        raise ParameterError(f"per_decade must be >= 1, got {per_decade}")
    if not (len(band) == 2 and -math.inf < band[0] < band[1] < math.inf):
        raise ParameterError(f"ratio_band needs two finite numbers lo < hi, got {band}")
    cfg.check_all_read()
    p = assemble_profile(nl, w, prob.k)
    xi = _resolve_xi(xi, p, geom)
    u0, sol = shoot_blowup_radius(prob, tol=tol)
    runinfo["shot"] = sol.meta["shot"]
    npts = max(2, int(round(math.log10(d_hi / d_lo) * per_decade)) + 1)
    ladder = np.geomspace(d_lo, d_hi, npts)
    rep = asymptotics_report(sol, p, xi, d_values=ladder)
    rows = rep.rows  # descending in d: rows[0] at d_hi, rows[-1] at d_lo
    in_band = bool(np.all((rows[:, 3] >= band[0]) & (rows[:, 3] <= band[1])))
    trend = bool(abs(rows[-1, 3] - 1.0) <= abs(rows[0, 3] - 1.0) + 1e-12)
    passed = in_band and trend
    reports.write_csv(outdir / f"{base}.csv", ["d", "u", "predicted", "ratio"], rows)
    reports.write_json(outdir / f"{base}.json", {
        "xi": xi, "u0": u0, "Rstar": sol.Rstar, "band": band,
        "in_band": in_band, "trend_improves": trend, "passed": passed,
    })
    if not quiet:
        print(f"verify-asymptotics: {'PASS' if passed else 'FAIL'} "
              f"(Rstar={sol.Rstar:.6f}, ratio[{rows[0, 0]:.1e}]={rows[0, 3]:.4f})")
    return 0 if passed else 1


_DISPATCH = {
    "profile": cmd_profile,
    "radial-ivp": cmd_radial_ivp,
    "radial-exhaust": cmd_radial_exhaust,
    "fd-exhaust": cmd_fd_exhaust,
    "check-barrier": cmd_check_barrier,
    "verify-asymptotics": cmd_verify_asymptotics,
}
COMMANDS = tuple(_DISPATCH)


def run(cfg: Config, outdir: Path, seed=None, quiet=False):
    command = cfg.get("command", str, required=True)
    if command not in COMMANDS:
        raise ParameterError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if seed is not None:
        cfg.pairs["seed"] = str(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    base = cfg.get("out", str, command)
    runinfo = {}  # entries a command adds to the sidecar, never to its report body
    status = _DISPATCH[command](cfg, outdir, base, quiet, runinfo)
    reports.write_json(outdir / f"{base}.runinfo.json", {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "command": command,
        "version": __version__,
        **runinfo,
    })
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="khessian",
        description="Experiment runner for the k-Hessian blow-up toolkit",
    )
    ap.add_argument("--config", required=True, help="path to a flat key=value config file")
    ap.add_argument("--out", default="out", help="output directory (default: ./out)")
    ap.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    ap.add_argument("--quiet", action="store_true", help="suppress informational output")
    args = ap.parse_args(argv)

    outdir = Path(args.out)
    try:
        cfg = Config.parse(Path(args.config).read_text())
        status = run(cfg, outdir, seed=args.seed, quiet=args.quiet)
    except (ParameterError, ConditionViolation, KellerOssermanViolation) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computational failure: diagnose, never crash
        outdir.mkdir(parents=True, exist_ok=True)
        diagnostic = {
            "error": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        if getattr(exc, "shot", None) is not None:  # a failed shot's path and IVP counts
            diagnostic["shot"] = exc.shot
        reports.write_json(outdir / "error.json", diagnostic)
        print(f"computation failed: {exc} (diagnostics in {outdir / 'error.json'})",
              file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
