"""Import boundary: the radial and barrier commands run on numpy alone.

scipy is loaded only by the 2-d solver (``khessian.fd2d``, the coarsest level's banded
LU) and by the radial exhaustion scheme (a banded solve); scipy.sparse only by the
reference ``assemble_operator``.  Each check runs in a fresh interpreter, since this test
process has scipy loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = {
    "profile": """
        command = profile
        n = 3
        k = 2
        f = power:5
    """,
    "radial-ivp": """
        command = radial-ivp
        n = 2
        k = 1
        f = exp:2
        u0 = 0.6931471805599453
    """,
    "check-barrier": """
        command = check-barrier
        n = 3
        k = 2
        f = power:5
        samples = 40
        global_check = true
    """,
    "verify-asymptotics": """
        command = verify-asymptotics
        n = 3
        k = 2
        f = power:5
    """,
    "fd-exhaust": """
        command = fd-exhaust
        f = exp:2
        domain = disk:1.0
        h = 0.0625
        j_schedule = 3,4
    """,
}

SCRIPT = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

out = Path(sys.argv[1])
configs = json.loads(sys.argv[2])
seen = {}
import khessian.cli as cli
seen["import khessian.cli"] = scipy_modules()
status = {}
for command in ("profile", "radial-ivp", "check-barrier", "verify-asymptotics"):
    cfg = out / f"{command}.cfg"
    cfg.write_text(configs[command])
    status[command] = cli.main(["--config", str(cfg), "--out", str(out), "--quiet"])
    seen[command] = scipy_modules()

import khessian
import khessian.fd2d as fd2d
lazy = {name: getattr(khessian, name) is getattr(fd2d, name)
        for name in ("exhaust", "solve_dirichlet", "asymptotics_report_2d")}
cfg = out / "fd-exhaust.cfg"
cfg.write_text(configs["fd-exhaust"])
status["fd-exhaust"] = cli.main(["--config", str(cfg), "--out", str(out), "--quiet"])
print(json.dumps({"seen": seen, "status": status, "lazy": lazy,
                  "sparse_after_fd": "scipy.sparse" in sys.modules}))
"""


def test_radial_and_barrier_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    configs = {name: textwrap.dedent(text) for name, text in CONFIGS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(configs)],
        env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["status"] == {name: 0 for name in CONFIGS}
    for stage, modules in res["seen"].items():
        assert modules == [], f"{stage} loaded {modules[:5]}"
    assert res["lazy"] == {"exhaust": True, "solve_dirichlet": True,
                           "asymptotics_report_2d": True}
    assert res["sparse_after_fd"] is False  # fd-exhaust: banded LAPACK, no sparse matrix
    assert (tmp_path / "fd-exhaust.csv").is_file()


def test_unknown_package_attribute_raises():
    import khessian

    with pytest.raises(AttributeError, match="no_such_name"):
        khessian.no_such_name


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these names and reads verify_*'s 7th positional
    # argument as the samples: a rename under src/ must fail here, not only there
    import importlib
    import importlib.util
    import inspect

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"

    from khessian import barriers

    for fn in (barriers.verify_supersolution, barriers.verify_subsolution):
        assert list(inspect.signature(fn).parameters)[6] == "samples"
