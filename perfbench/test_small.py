"""Small-size mode of the benchmark: every workload at tiny sizes, every check on.

    python3 -m pytest -q perfbench/test_small.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be non-zero on each workload (its layers run there)
LAYERS_RUN = {
    "fd2d_liouville": ["grid2d.build_s", "fd2d.solve_s", "fd2d.factor_s",
                       "fd2d.factorizations", "fd2d.newton_steps"],
    "fd2d_ellipse": ["grid2d.build_s", "grid2d.distance_s", "fd2d.exhaust_s", "fd2d.report_s",
                     "fd2d.factorizations", "profiles.phi_calls", "quad.invert_calls",
                     "quad.value_calls"],
    "radial_barrier": ["profiles.assemble_s", "profiles.phi_calls", "radial.ivp_calls",
                       "radial.ivp_steps", "radial.shoot_s", "radial.report_s",
                       "radial.torsion_s", "barriers.certify_s", "barriers.widths_tried",
                       "barriers.samples_checked", "barriers.global_s",
                       "symfunc.sigma_all_calls", "cli.run_s", "reports.write_s"],
}


def bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = bench(workload, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    res = bench(workload, trace=1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(res["metrics"][m]["value"] > 0 for m in LAYERS_RUN[workload])
    assert res["metrics"]["setup.khessian_s"]["value"] > 0


def test_counts_repeat_at_fixed_seed():
    runs = [bench("fd2d_ellipse", trace=1, seed=3)["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs]
    assert counts[0] == counts[1]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
