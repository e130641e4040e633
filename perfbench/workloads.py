"""One benchmark round in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --size full|small \
        --trace 0|1 --out DIR

The first statement after the clock starts imports ``khessian.cli``, so
``setup_s`` is what a CLI user pays before any work (numpy and scipy
included).  The workload's calls are then timed as ``wall_s``; the
correctness checks run afterwards, outside the timed region.  With
``--trace 1`` the layers are wrapped by ``tracer`` before the first call.
The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()
import khessian.cli  # noqa: E402  -- the timed set-up
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from khessian import cli, fd2d, grid2d, profiles  # noqa: E402
from khessian.nonlinearity import Nonlinearity, Weight  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SIZES = {
    "full": {
        "liouville_R": 0.9, "liouville_inv_h": (64, 128, 256),
        "ellipse_inv_h": 96, "barrier_samples": 200,
    },
    # every check stays on; R = 0.5 keeps the coarse grids in the h^2 regime
    "small": {
        "liouville_R": 0.5, "liouville_inv_h": (16, 32, 64),
        "ellipse_inv_h": 48, "barrier_samples": 40,
    },
}

LIOUVILLE_TOL = 1e-9
ELLIPSE = (1.2, 1.0)
ELLIPSE_J = (6.0, 9.0, 12.0)
ELLIPSE_TOL = 1e-8
ELLIPSE_BINS = (0.04, 0.08, 0.16)
DISTANCE_SAMPLE = 200
BARRIER_SUBSET = 12

# radial_barrier: (n, k, f) and (n, k, f, weight) cases; shipped configs come from configs/
VERIFY_CASES = [(3, 2, "power:5"), (2, 1, "exp:2"), (4, 3, "power:7")]
BARRIER_CASES = [(2, 1, "exp:2", "constant:1"), (3, 2, "power:5", "constant:1"),
                 (2, 2, "power:5", "constant:1"), (3, 2, "power:5", "power:1")]
SHIPPED = ["profile_power", "liouville_ivp"]


class Round:
    """Operations attempted in this round, the checks made on them, and the timed region."""

    def __init__(self, tracer=None):
        self.ops = {}  # name -> error message or None
        self.checks = []  # (op, check, ok, detail)
        self.tracer = tracer
        self.wall = None

    @contextmanager
    def timed(self):
        """wall_s; traced calls count only in here, so the checks' calls do not."""
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        yield
        self.wall = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False

    def run(self, name, fn, *args):
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            self.ops[name] = f"{type(exc).__name__}: {exc}"
            return None
        self.ops[name] = None
        return out

    def check(self, op, what, ok, detail=""):
        self.checks.append((op, what, bool(ok), detail))

    def done(self, op):
        return op in self.ops and self.ops[op] is None

    def failed(self):
        bad = {op for op, err in self.ops.items() if err is not None}
        bad |= {op for op, _, ok, _ in self.checks if not ok}
        return sorted(bad)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# -- fd2d_liouville ------------------------------------------------------------

def liouville_exact(x, y):
    return np.log(2.0 / (1.0 - (np.asarray(x) ** 2 + np.asarray(y) ** 2)))


def run_liouville(rnd, size, seed, out):
    R, inv_hs = size["liouville_R"], size["liouville_inv_h"]
    nl, w = Nonlinearity.exponential(2.0), Weight.constant(1.0)

    def solve(h):
        grid = grid2d.build_grid(grid2d.Disk(R), h)
        return fd2d.solve_dirichlet(grid, nl, w, liouville_exact, tol=LIOUVILLE_TOL)

    with rnd.timed():
        fields = [rnd.run(f"solve_h1/{m}", solve, 1.0 / m) for m in inv_hs]

    errs = []
    for m, fld in zip(inv_hs, fields):
        op = f"solve_h1/{m}"
        if fld is None:
            errs.append(math.nan)
            continue
        errs.append(float(np.max(np.abs(fld.interior_values()
                                        - liouville_exact(fld.node_x, fld.node_y)))))
        res = fld.meta["residual_history"][-1]
        rnd.check(op, "final scaled residual <= tol", res <= LIOUVILLE_TOL, res)
    mid, fine = f"solve_h1/{inv_hs[1]}", f"solve_h1/{inv_hs[2]}"
    rnd.check(mid, "max error <= 1e-3", errs[1] <= 1e-3, errs[1])
    order = math.log2(errs[1] / errs[2])
    rnd.check(fine, "observed order >= 1.9", order >= 1.9, order)


# -- fd2d_ellipse --------------------------------------------------------------

def run_ellipse(rnd, size, seed, out):
    h = 1.0 / size["ellipse_inv_h"]
    nl, w = Nonlinearity.exponential(2.0), Weight.constant(1.0)
    # k = 1, constant weight (C_m = 1), sigma_0 of the curvatures = 1
    xi = oracles.amplitude(w.b_lower, 1.0, oracles.ClosedProfile("exp:2", 1).C_f,
                           oracles.ClosedWeight("constant:1").C_m, 1)

    def report(limit, prev):
        p = profiles.assemble_profile(nl, w, 1)
        return p, fd2d.asymptotics_report_2d(limit, p, xi, bin_edges=ELLIPSE_BINS,
                                             prev_values=prev)

    ex = rep = None
    with rnd.timed():
        grid = rnd.run("build_grid", grid2d.build_grid, grid2d.Ellipse(*ELLIPSE), h)
        if grid is not None:
            ex = rnd.run("exhaust", fd2d.exhaust, grid, nl, w, ELLIPSE_J, ELLIPSE_TOL)
        if ex is not None:
            rep = rnd.run("report", report, ex[0], ex[1]["prev_values"])

    if grid is not None:
        rng = np.random.default_rng(seed)
        pick = rng.choice(grid.n_interior, size=min(DISTANCE_SAMPLE, grid.n_interior),
                          replace=False)
        a, b = ELLIPSE
        worst = max(abs(grid.node_d[i] - oracles.ellipse_distance(
            a, b, grid.node_x[i], grid.node_y[i])) for i in pick)
        rnd.check("build_grid", "node_d matches nearest-point distance within 1e-10",
                  worst <= 1e-10, worst)
    if ex is not None:
        inc = min(ex[1]["increment_min"])
        rnd.check("exhaust", "exhaustion monotone in j (increments >= -1e-8)",
                  inc >= -1e-8, inc)
    if rep is not None:
        p, r2 = rep
        limit = ex[0]
        d, u = limit.node_d, limit.interior_values()
        worst_pred = worst_stat = 0.0
        for (lo, hi, count, rmin, rmed, rmax) in r2.bins:
            sel = (d >= lo) & (d < hi)
            exact = -np.log(np.sin(xi * d[sel]))
            pred = np.array([profiles.predicted_profile(p, xi, dd) for dd in d[sel]])
            worst_pred = max(worst_pred, float(np.max(np.abs(pred - exact) / exact)))
            ratio = u[sel] / exact
            ours = (sel.sum(), ratio.min(), np.median(ratio), ratio.max())
            worst_stat = max(worst_stat, rel(count, ours[0]),
                             *(rel(x, y) for x, y in zip((rmin, rmed, rmax), ours[1:])))
        rnd.check("report", "predictions equal -log(sin d) within 1e-12 relative",
                  worst_pred <= 1e-12, worst_pred)
        rnd.check("report", "bin counts and ratio statistics match the closed form",
                  worst_stat <= 1e-12, worst_stat)
        open_bins = [row for row, flag in zip(r2.bins, r2.flagged) if not flag]
        if open_bins:
            _, _, _, rmin, rmed, rmax = min(open_bins, key=lambda row: row[0])
            law = abs(rmed - 1.0) <= 0.08 and rmin >= 0.95 and rmax <= 1.15
            detail = (rmin, rmed, rmax)
        else:
            law, detail = False, "every bin flagged as truncation-dominated"
        rnd.check("report", "deepest unflagged bin obeys u/phi(xi d) -> 1", law, detail)


# -- radial_barrier ------------------------------------------------------------

def radial_configs(size):
    """(name, config text, keys) for every CLI run of the workload, in run order."""
    out = []
    for n, k, f in VERIFY_CASES:
        keys = {"command": "verify-asymptotics", "n": n, "k": k, "R": 1.0, "f": f,
                "weight": "constant:1", "tol": 1e-9}
        out.append((f"va_n{n}k{k}_{f.replace(':', '')}", keys))
    for n, k, f, wt in BARRIER_CASES:
        keys = {"command": "check-barrier", "n": n, "k": k, "f": f, "weight": wt,
                "eps": 0.1, "samples": size["barrier_samples"], "global_check": "true"}
        out.append((f"cb_n{n}k{k}_{f.replace(':', '')}_{wt.replace(':', '')}", keys))
    for name in SHIPPED:
        text = (ROOT / "configs" / f"{name}.cfg").read_text()
        keys = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            if "=" in line:
                key, _, val = line.partition("=")
                keys[key.strip()] = val.strip()
        out.append((name, keys))
    return [(name, "".join(f"{k} = {v}\n" for k, v in {**keys, "out": name}.items()), keys)
            for name, keys in out]


def read_csv(path):
    """Data rows of a CLI report as a float array (the header is skipped)."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def check_verify(rnd, name, keys, out):
    n, k, R = int(keys["n"]), int(keys["k"]), float(keys["R"])
    prof = oracles.ClosedProfile(keys["f"], k)
    wt = oracles.ClosedWeight(keys["weight"])
    meta = json.loads((out / f"{name}.json").read_text())
    rows = read_csv(out / f"{name}.csv")
    d, u, pred, ratio = rows.T
    rnd.check(name, "Rstar within 1e-6 of R", abs(meta["Rstar"] - R) <= 1e-6, meta["Rstar"])
    xi = oracles.amplitude(1.0, oracles.ball_sigma_km1(n, k, R), prof.C_f, wt.C_m, k)
    rnd.check(name, "xi equals the closed-form amplitude", rel(meta["xi"], xi) <= 1e-10,
              (meta["xi"], xi))
    exact = np.array([prof.phi(xi * wt.M(dd)) for dd in d])
    worst = float(np.max(np.abs(pred - exact) / exact))
    rnd.check(name, "predicted equals phi(xi M(d)) within 1e-9", worst <= 1e-9, worst)
    lo, hi = meta["band"]
    rnd.check(name, "ratios in band", bool(np.all((ratio >= lo) & (ratio <= hi))),
              (ratio.min(), ratio.max()))
    if prof.kind == "exp" and prof.par == 2.0 and n == 2:  # u = log(2R/(R^2 - r^2))
        rnd.check(name, "shot u0 equals log(2/R)", rel(meta["u0"], math.log(2.0 / R)) <= 1e-8,
                  meta["u0"])
    far, near = ratio[np.argmax(d)], ratio[np.argmin(d)]
    rnd.check(name, "ratio trends toward 1", abs(near - 1.0) <= abs(far - 1.0) + 1e-12,
              (far, near))


def check_barrier(rnd, name, keys, out, seed):
    n, k, R = int(keys["n"]), int(keys["k"]), 1.0
    prof = oracles.ClosedProfile(keys["f"], k)
    wt = oracles.ClosedWeight(keys["weight"])
    blob = json.loads((out / f"{name}.json").read_text())
    reps = (blob["supersolution"], blob["subsolution"])
    rnd.check(name, "both collar reports pass", all(r["passed"] for r in reps))
    rnd.check(name, "every sample admissible",
              all(s["admissible"] for r in reps for s in r["samples"]))
    eps_g = blob.get("global_upper_barrier", {}).get("eps", 0.0)
    rnd.check(name, "global-barrier eps > 0", eps_g > 0.0, eps_g)
    curv = oracles.ball_sigma_km1(n, k, R)
    rho = 1.0 / R
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in reps:
        eps = r["eps"]
        if r["kind"] == "super":  # phi(xi M(d - shift)) against b_lower
            xi = oracles.amplitude((1.0 - 2.0 * eps) / (1.0 + eps), curv, prof.C_f, wt.C_m, k)
            shift = -r["sigma_shift"]
        else:  # phi(xi M(d + shift)) against b_upper
            xi = oracles.amplitude((1.0 + 2.0 * eps) / (1.0 - eps), curv, prof.C_f, wt.C_m, k)
            shift = r["sigma_shift"]
        samples = r["samples"]
        for i in rng.choice(len(samples), size=min(BARRIER_SUBSET, len(samples)),
                            replace=False):
            s = samples[i]
            d = s["d"]
            d1 = d + shift
            t = xi * wt.M(d1)
            g1 = xi * wt.m(d1) * prof.phi1(t)
            g2 = xi * wt.m1(d1) * prof.phi1(t) + xi**2 * wt.m(d1) ** 2 * prof.phi2(t)
            lam = [g2] + [-g1 * rho / (1.0 - d * rho)] * (n - 1)
            sk = oracles.sigma_by_subsets(lam, k)
            scale = wt.m(d) ** (k + 1) * prof.f(prof.phi(t))  # b_lower = b_upper = 1
            margin = scale - sk if r["kind"] == "super" else sk - scale
            worst = max(worst, rel(s["sigma_j"][k - 1], sk), rel(s["scale"], scale),
                        abs(s["margin"] - margin) / scale)
    rnd.check(name, "sigma_k, scale and margin recomputed within 1e-8", worst <= 1e-8, worst)


def check_profile_table(rnd, name, keys, out):
    k = int(keys["k"])
    prof = oracles.ClosedProfile(keys["f"], k)
    rows = read_csv(out / f"{name}.csv")
    t, phi, phi1 = rows[:, 0], rows[:, 1], rows[:, 2]
    worst = max(max(rel(a, prof.phi(tt)), rel(b, prof.phi1(tt)))
                for tt, a, b in zip(t, phi, phi1))
    rnd.check(name, "phi and phi' match the power closed form within 1e-6", worst <= 1e-6,
              worst)


def check_ivp(rnd, name, keys, out):
    meta = json.loads((out / f"{name}.json").read_text())
    R = float(keys["R"])
    rnd.check(name, "Rstar within 1e-6 of R", abs(meta["Rstar"] - R) <= 1e-6, meta["Rstar"])
    rows = read_csv(out / f"{name}.csv")
    r, u = rows[:, 0], rows[:, 1]
    inner = r <= 0.9 * R  # u = log(2/(1 - r^2)) for exp:2 on the unit disk
    worst = float(np.max(np.abs(u[inner] - np.log(2.0 / (1.0 - r[inner] ** 2)))))
    rnd.check(name, "u matches log(2/(1-r^2)) within 1e-6 for r <= 0.9", worst <= 1e-6, worst)


def run_radial_barrier(rnd, size, seed, out):
    cfgs = radial_configs(size)
    for name, text, _ in cfgs:
        (out / f"{name}.cfg").write_text(text)

    def cli_run(name):
        status = cli.main(["--config", str(out / f"{name}.cfg"), "--out", str(out),
                           "--seed", str(seed), "--quiet"])
        if status != 0:
            raise RuntimeError(f"exit {status}")

    with rnd.timed():
        for name, _, _ in cfgs:
            rnd.run(name, cli_run, name)

    for name, _, keys in cfgs:
        if not rnd.done(name):
            continue
        command = keys["command"]
        if command == "verify-asymptotics":
            check_verify(rnd, name, keys, out)
        elif command == "check-barrier":
            check_barrier(rnd, name, keys, out, seed)
        elif command == "profile":
            check_profile_table(rnd, name, keys, out)
        else:
            check_ivp(rnd, name, keys, out)


WORKLOADS = {
    "fd2d_liouville": run_liouville,
    "fd2d_ellipse": run_ellipse,
    "radial_barrier": run_radial_barrier,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(khessian.cli.__file__).resolve().parents:
        raise SystemExit(f"khessian imported from {khessian.cli.__file__}, not from {src}")
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rnd = Round(tracer)
    WORKLOADS[args.workload](rnd, SIZES[args.size], args.seed, out)
    result = {
        "setup_s": SETUP_S,
        "wall_s": rnd.wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": sorted(rnd.ops),
        "failed": rnd.failed(),
        "errors": {op: err for op, err in rnd.ops.items() if err},
        "checks": rnd.checks,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(out / "trace.json")
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
