"""khessian benchmark: three workloads, each round a fresh Python process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size small]

Run from the root of a checkout; the program is imported from ``src/``.
Rounds run one at a time until ``--seconds`` have passed: at least two
untraced rounds, or one untraced and one traced round with ``--trace 1``,
or one round with ``--size small``.  With ``--trace 0`` it reports the
medians of ``setup_s``, ``wall_s`` and ``peak_rss_mb``; with ``--trace 1``
it reports the per-layer metrics of the traced rounds and import times from
``python -X importtime``, and prints the tracing overhead (traced minus
untraced ``wall_s``) to standard error.  The last line of standard output is one JSON
object; the exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fd2d_liouville", "fd2d_ellipse", "radial_barrier")
ROUND_TIMEOUT = 150.0
UNITS = {m: ("count" if m in COUNT_METRICS else "s") for m in METRICS}
UNITS.update({"setup.khessian_s": "s", "setup.scipy_stats_s": "s"})


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))  # khessian is single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_round(args, traced, env):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(traced)),
           "--out", str(OUT / f"{args.workload}{'-traced' if traced else ''}")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload} round exited {proc.returncode}")
    return json.loads(lines[-1])


def import_times(env):
    """Cumulative import times (s) of khessian and scipy.stats under -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import khessian.cli"],
                          cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT, check=True)
    khessian_us = stats_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        if name.startswith(" khessian"):  # top level only: one leading space
            khessian_us += int(cumulative)
        elif name.strip() == "scipy.stats" and not stats_us:
            stats_us = int(cumulative)
    return {"setup.khessian_s": khessian_us * 1e-6, "setup.scipy_stats_s": stats_us * 1e-6}


def main(argv=None):
    ap = argparse.ArgumentParser(description="khessian benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: tiny grids and configs, every check on")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "khessian" / "cli.py").is_file():
        print(f"khessian sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    # a traced run alternates untraced and traced rounds, in pairs
    plan = (False, True) if args.trace else (False,)
    min_rounds = 2 if args.size == "full" and not args.trace else 1
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds * len(plan) or time.perf_counter() - start < args.seconds:
        for traced in plan:
            rounds.append((traced, run_round(args, traced, env)))

    plain = [r for traced, r in rounds if not traced]
    attempted = sum(len(r["ops"]) for _, r in rounds)
    failed = sum(len(r["failed"]) for _, r in rounds)
    for _, r in rounds:
        for op, err in r["errors"].items():
            print(f"FAILED {op}: {err}", file=sys.stderr)
        for op, what, ok, detail in r["checks"]:
            if not ok:
                print(f"CHECK FAILED {op}: {what} ({detail})", file=sys.stderr)
    correct = failed == 0

    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    else:
        traced = [r for t, r in rounds if t]
        counts = [{m: r["layers"][m] for m in COUNT_METRICS} for r in traced]
        if any(c != counts[0] for c in counts):
            print(f"counts differ between traced rounds: {counts}", file=sys.stderr)
            correct = False
        layers = {m: statistics.median(r["layers"][m] for r in traced)
                  for m in METRICS if m not in COUNT_METRICS}
        layers.update(counts[0])
        layers.update(import_times(env))
        walls = [statistics.median(r["wall_s"] for r in rs) for rs in (traced, plain)]
        print(f"tracing overhead: {walls[0] - walls[1]:.4f} s (traced wall_s {walls[0]:.4f}, "
              f"untraced {walls[1]:.4f})", file=sys.stderr)
        metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in layers.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
