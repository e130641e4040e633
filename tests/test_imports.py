"""Import boundary and reach: the radial and barrier commands run on numpy alone, and
every function under src/khessian is called by a command or exported.

scipy is loaded only by the 2-d solver (``khessian.fd2d``, the coarsest level's banded
LU) and by the radial exhaustion scheme (a banded solve); scipy.sparse by no module of
the package (the tests' reference operator, ``_fd2d_reference``, uses it).  The command
runs go through one fresh interpreter, since this test process has scipy loaded, and
record every code object they call, from ``import khessian.cli`` on.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = {  # run in this order, each with its name as out
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
    "fd-exhaust-ellipse": """
        command = fd-exhaust
        f = exp:2
        domain = ellipse:1.2,1.0
        h = 0.0625
        j_schedule = 3,4
    """,
    "check-barrier-ellipse": """
        command = check-barrier
        n = 2
        k = 1
        f = exp:2
        domain = ellipse:1.2,1.0
        samples = 40
    """,
    "radial-exhaust": """
        command = radial-exhaust
        n = 3
        k = 2
        f = power:5
        weight = power:1
        h = 0.02
        j_schedule = 2,4
    """,
    "verify-asymptotics-exp": """
        command = verify-asymptotics
        n = 2
        k = 1
        f = exp:2
    """,
}
SCIPY_FREE = ("profile", "radial-ivp", "check-barrier", "verify-asymptotics")

# functions of src/khessian that no run above calls and that khessian does not export,
# each with the reason it stays; an entry covers the methods and closures under its name,
# while an export covers its function alone
UNREACHED_ALLOWED = {
    "_quad.cumulative_from_zero": "custom f: Phi of a custom model, which a config cannot name",
    "nonlinearity.Nonlinearity.custom": "custom f: library API, a config names power or exp",
    "nonlinearity.Nonlinearity.float_f.<locals>.f": "custom f: float_f's custom branch",
    "nonlinearity.Weight.custom": "custom weight: library API, a config names constant or power",
    "profiles.PsiPair": "psi of the paper's lower global barrier, not yet certified by a command",
    "radial.shoot_blowup_radius.<locals>.gap": "the bracket shot: only varying weights take it",
    "radial.shoot_blowup_radius.<locals>.<lambda>": "the bracket shot's Brent search",
    "radial.AsymptoticsReport.d": "read by the acceptance suite",
    "radial.AsymptoticsReport.ratio": "read by the acceptance suite",
}

SCRIPT = """
import inspect, json, sys, types
from pathlib import Path

called = set()


def trace(frame, event, arg):
    called.add(frame.f_code)


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


def functions(code, prefix=""):
    # (code, qualified name) of each def and lambda compiled into code, nested ones too
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            name = prefix + c.co_name
            if c.co_name == "<lambda>" or not c.co_name.startswith("<"):
                yield c, name
            local = c.co_flags & inspect.CO_OPTIMIZED  # a function's, not a class body's
            yield from functions(c, name + (".<locals>." if local else "."))


out = Path(sys.argv[1])
configs, scipy_free = json.loads(sys.argv[2]), json.loads(sys.argv[3])
seen, status = {}, {}
sys.settrace(trace)
import khessian.cli as cli
seen["import khessian.cli"] = scipy_modules()


def run(name):
    cfg = out / f"{name}.cfg"
    cfg.write_text(configs[name] + f"out = {name}\\n")
    status[name] = cli.main(["--config", str(cfg), "--out", str(out), "--quiet"])


for name in scipy_free:
    run(name)
    seen[name] = scipy_modules()
import khessian
import khessian.fd2d as fd2d
lazy = {name: getattr(khessian, name) is getattr(fd2d, name)
        for name in ("exhaust", "solve_dirichlet", "asymptotics_report_2d")}
for name in configs:
    if name not in status:
        run(name)
sys.settrace(None)

import khessian.errors as errors
called = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}
exempt = [getattr(khessian, name) for name in (*dir(khessian), *khessian._FD2D)]
exempt += [cls.__init__ for cls in vars(errors).values()
           if isinstance(cls, type) and issubclass(cls, errors.KHessianError)
           and "__init__" in vars(cls)]
exempt = {(fn.__code__.co_filename, fn.__qualname__) for fn in exempt
          if isinstance(fn, types.FunctionType)}
unreached = []
for path in sorted(Path(khessian.__file__).parent.glob("*.py")):
    for code, name in functions(compile(path.read_text(), str(path), "exec")):
        if ((code.co_filename, code.co_firstlineno, code.co_name) not in called
                and (code.co_filename, name) not in exempt):
            unreached.append(f"{path.stem}.{name}")
print(json.dumps({"seen": seen, "status": status, "lazy": lazy, "unreached": unreached,
                  "sparse_after_fd": "scipy.sparse" in sys.modules}))
"""


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The result of every CONFIGS run, in one fresh interpreter, and its output directory."""
    out = tmp_path_factory.mktemp("runs")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    configs = {name: textwrap.dedent(text) for name, text in CONFIGS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), json.dumps(configs), json.dumps(SCIPY_FREE)],
        env=env, cwd=out, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def test_radial_and_barrier_commands_load_no_scipy(fresh_run):
    res, out = fresh_run
    assert res["status"] == {name: 0 for name in CONFIGS}
    assert list(res["seen"]) == ["import khessian.cli", *SCIPY_FREE]
    for stage, modules in res["seen"].items():
        assert modules == [], f"{stage} loaded {modules[:5]}"
    assert res["lazy"] == {"exhaust": True, "solve_dirichlet": True,
                           "asymptotics_report_2d": True}
    assert res["sparse_after_fd"] is False  # fd-exhaust: banded LAPACK, no sparse matrix
    assert (out / "fd-exhaust.csv").is_file()


def _covers(entry, name):
    return name == entry or name.startswith(entry + ".")


def test_every_function_is_called_by_a_command_or_exported(fresh_run):
    # a function of src/khessian that no command calls and no name bound in khessian
    # (the lazy fd2d names included) exports belongs in the tests; error-class
    # constructors are exempt
    unreached = fresh_run[0]["unreached"]
    assert [name for name in unreached
            if not any(_covers(entry, name) for entry in UNREACHED_ALLOWED)] == []
    assert [entry for entry in UNREACHED_ALLOWED
            if not any(_covers(entry, name) for name in unreached)] == [], "stale entries"


def test_no_module_imports_scipy_sparse():
    found = []
    for path in sorted((SRC / "khessian").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.sparse" or n.startswith("scipy.sparse.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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
