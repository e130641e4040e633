import json
import math
from pathlib import Path

import pytest

from khessian import cli
from khessian.cli import main


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    cols = lines[0].split(",")
    return cols, [[float(v) for v in ln.split(",")] for ln in lines[1:]]


class TestProfileCommand:
    def test_profile_table_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.cfg", """
            command = profile
            k = 1
            n = 2
            f = power:3
            weight = constant:1
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        cols, rows = read_rows(out / "profile.csv")
        assert cols == ["t", "phi", "phi_prime", "M", "predicted"]
        row1 = min(rows, key=lambda r: abs(r[0] - 1.0))
        assert abs(row1[0] - 1.0) < 1e-12
        assert row1[1] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        header = json.loads((out / "profile.json").read_text())
        assert header["C_f"] == pytest.approx(2.0, abs=1e-3)
        assert header["C_m"] == pytest.approx(1.0, abs=1e-6)
        assert header["ko_ok"] is True

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.cfg", """
            command = profile
            k = 2
            n = 3
            f = power:5
            weight = constant:1
        """)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for fname in ("profile.csv", "profile.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestRadialCommands:
    def test_radial_ivp_liouville(self, tmp_path):
        cfg = write_cfg(tmp_path, "ivp.cfg", f"""
            command = radial-ivp
            n = 2
            k = 1
            R = 1.0
            f = exp:2
            weight = constant:1
            u0 = {math.log(2.0)!r}
            tol = 1e-9
            out = liouville
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "liouville.json").read_text())
        assert meta["Rstar"] == pytest.approx(1.0, abs=1e-4)
        cols, rows = read_rows(out / "liouville.csv")
        assert cols == ["r", "u", "u1"]
        assert len(rows) > 100

    def test_radial_exhaust(self, tmp_path):
        cfg = write_cfg(tmp_path, "ex.cfg", """
            command = radial-exhaust
            n = 3
            k = 2
            R = 1.0
            f = power:5
            weight = constant:1
            j_schedule = 2,4,8
            h = 0.0078125
            tol = 1e-8
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "radial-exhaust.json").read_text())
        assert meta["monotone_ok"] is True

    def test_verify_asymptotics_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "va.cfg", """
            command = verify-asymptotics
            n = 3
            k = 2
            R = 1.0
            f = power:5
            weight = constant:1
            d_lo = 1e-3
            d_hi = 1e-2
            tol = 1e-9
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        meta = json.loads((out / "verify-asymptotics.json").read_text())
        assert meta["passed"] is True
        assert meta["xi"] == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-6)

    def test_verify_asymptotics_runinfo_holds_the_shot(self, tmp_path):
        cfg = write_cfg(tmp_path, "va.cfg", """
            command = verify-asymptotics
            n = 2
            k = 1
            R = 1.0
            f = exp:2
            weight = constant:1
            tol = 1e-9
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        shot = json.loads((out / "verify-asymptotics.runinfo.json").read_text())["shot"]
        assert set(shot) == {"ivps", "steps", "rejected"}
        assert 2 <= shot["ivps"] <= 6
        assert shot["steps"] > shot["rejected"] >= 0
        body = (out / "verify-asymptotics.json").read_text()
        assert "shot" not in json.loads(body) and "ivps" not in body


class TestFdCommand:
    def test_fd_exhaust(self, tmp_path):
        cfg = write_cfg(tmp_path, "fd.cfg", """
            command = fd-exhaust
            f = exp:2
            weight = constant:1
            domain = disk:1.0
            h = 0.03125
            j_schedule = 3,4,5
            tol = 1e-8
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "fd-exhaust.json").read_text())
        assert meta["monotone_ok"] is True
        cols, rows = read_rows(out / "fd-exhaust.csv")
        assert cols == ["x", "y", "d", "u"]

    def test_runinfo_holds_per_level_counts(self, tmp_path):
        cfg = write_cfg(tmp_path, "fd.cfg", """
            command = fd-exhaust
            f = exp:2
            weight = constant:1
            domain = disk:1.0
            h = 0.03125
            j_schedule = 3,4,5
            tol = 1e-8
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        levels = json.loads((out / "fd-exhaust.runinfo.json").read_text())["levels"]
        assert levels["j"] == [3.0, 4.0, 5.0]
        assert len(levels["newton_iters"]) == len(levels["cycles"]) == 3
        assert all(c >= n >= 1 for n, c in zip(levels["newton_iters"], levels["cycles"]))
        body = json.loads((out / "fd-exhaust.json").read_text())
        assert "levels" not in body and body["newton_iters"] == levels["newton_iters"][-1]
        assert body["cycles"] == levels["cycles"][-1]

    def test_shipped_config_byte_identical_reruns(self, tmp_path):
        cfg = str(Path(__file__).resolve().parent.parent / "configs" / "fd_disk_exhaust.cfg")
        outs = [tmp_path / sub for sub in ("a", "b")]
        for out in outs:
            assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        meta = json.loads((outs[0] / "fd_disk.json").read_text())
        assert meta["monotone_ok"] is True and meta["start"] == "given"
        for fname in ("fd_disk.csv", "fd_disk.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestBarrierCommand:
    def test_check_barrier_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cb.cfg", """
            command = check-barrier
            n = 2
            k = 1
            f = exp:2
            weight = constant:1
            eps = 0.1
            samples = 100
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        blob = json.loads((out / "check-barrier.json").read_text())
        assert blob["supersolution"]["passed"] and blob["subsolution"]["passed"]

    def test_gap_violation_exits_2(self, tmp_path, capsys):
        for cf, cm in ((1.0, 0.0), (-1.0, 0.5)):
            cfg = write_cfg(tmp_path, "bad.cfg", f"""
                command = check-barrier
                n = 2
                k = 1
                f = exp:2
                weight = constant:1
                cf = {cf}
                cm = {cm}
            """)
            assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
            assert "(1.5)" in capsys.readouterr().err


class TestValidation:
    def test_gamma_below_k_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", """
            command = profile
            k = 2
            n = 3
            f = power:2
            weight = constant:1
        """)
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "(f2)" in capsys.readouterr().err

    def test_k_exceeds_n_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.cfg", """
            command = radial-ivp
            n = 2
            k = 3
            f = power:5
            weight = constant:1
            u0 = 1.0
        """)
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_command_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.cfg", "command = florble")
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_unread_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", """
            command = profile
            k = 1
            n = 2
            f = power:3
            sampels = 5
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        # no config key of the profile command is close to 'sampels'
        assert "'sampels'" in err and "'profile'" in err and "closest valid key" not in err
        assert not (out / "profile.runinfo.json").exists()

    def test_unread_key_names_closest_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", "command = profile\nk = 1\nf = power:3\nt_mxa = 5")
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "closest valid key: 't_max'" in capsys.readouterr().err

    def test_seed_key_is_always_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.cfg", "command = profile\nk = 1\nf = power:3\nseed = 4")
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet",
                     "--seed", "5"]) == 0

    def test_missing_required_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.cfg", "command = radial-ivp\nn = 2\nk = 1")
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_bad_eps_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", """
            command = check-barrier
            n = 2
            k = 1
            f = exp:2
            weight = constant:1
            eps = 0.7
        """)
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "(3.3)" in capsys.readouterr().err


PROFILE = "command = profile\nk = 1\nf = power:3\n"
IVP = "command = radial-ivp\nn = 2\nk = 1\nf = exp:2\nu0 = 0.7\n"
EXHAUST = "command = radial-exhaust\nn = 2\nk = 1\nf = exp:2\n"
FD = "command = fd-exhaust\nf = exp:2\nh = 0.125\n"
BARRIER = "command = check-barrier\nn = 2\nk = 1\nf = exp:2\n"
F2 = "(f2) power nonlinearity with gamma=2.0 <= k=2: the profile integral diverges"

# (config text, a fragment of the message) for every validation path of the CLI
VALIDATION = {
    "config-line": ("command = profile\nk 1\n", "config line 2: expected 'key = value'"),
    "unparsable-value": ("command = profile\nk = two\nf = power:3\n",
                         "config key 'k': cannot parse 'two'"),
    "missing-key": ("command = radial-ivp\nn = 2\nk = 1\n",
                    "config key 'f' is required for this command"),
    "unknown-command": ("command = florble\n", "unknown command 'florble'"),
    "f1-kind": ("command = profile\nk = 1\nf = cubic:3\n",
                "(f1) unknown nonlinearity kind 'cubic'"),
    "b2-kind": (PROFILE + "weight = log:1\n", "(b2) unknown weight kind 'log'"),
    "b2-bounds": (PROFILE + "b_lower = 2\nb_upper = 1\n", "(b2) b_upper must be >= b_lower"),
    "k-above-n-profile": ("command = profile\nn = 2\nk = 3\nf = power:5\n",
                          "order k=3 out of range 1..2"),
    "k-above-n-radial-ivp": ("command = radial-ivp\nn = 2\nk = 3\nf = power:5\nu0 = 1\n",
                             "order k=3 out of range 1..2"),
    "f2-radial-ivp": ("command = radial-ivp\nn = 3\nk = 2\nf = power:2\nu0 = 1\n", F2),
    "f2-radial-exhaust": ("command = radial-exhaust\nn = 3\nk = 2\nf = power:2\n"
                          "j_schedule = 2,4\n", F2),
    "f2-fd-exhaust": ("command = fd-exhaust\nf = power:1\ndomain = disk:1\nj_schedule = 2,4\n",
                      "(f2) power nonlinearity with gamma=1.0 <= k=1: "
                      "the profile integral diverges"),
    "domain-kind": (FD + "domain = square:1\nj_schedule = 2,4\n", "unknown domain kind 'square'"),
    "ellipse-a-below-b": (FD + "domain = ellipse:1,1.2\nj_schedule = 2,4\n",
                          "ellipse needs a >= b > 0, got a=1.0, b=1.2"),
    "j-decreasing-radial-exhaust": (EXHAUST + "j_schedule = 4,2\n",
                                    "boundary-data schedule must be strictly increasing"),
    "j-decreasing-fd-exhaust": (FD + "domain = disk:1\nj_schedule = 4,2\n",
                                "boundary-data schedule must be strictly increasing"),
    "h-zero": ("command = fd-exhaust\nf = exp:2\ndomain = disk:1\nh = 0\nj_schedule = 2,4\n",
               "grid spacing must be positive, got 0.0"),
    "tol-negative": (IVP + "tol = -1\n", "tolerance must be positive, got -1.0"),
    "u0-negative": ("command = radial-ivp\nn = 2\nk = 1\nf = exp:2\nu0 = -1\n",
                    "initial value must be positive, got -1.0"),
    "gap-1.5": (PROFILE + "cf = 1\ncm = 0\n", "(1.5) constant gap violated"),
    "slack-3.3": (BARRIER + "eps = 0.7\n", "(3.3) barrier slack must satisfy"),
    "ellipse-k3": ("command = profile\nn = 3\nk = 3\nf = power:5\ndomain = ellipse:1.2,1\n",
                   "planar geometry supports k in {1, 2}, got 3"),
}


@pytest.mark.parametrize("case", VALIDATION)
def test_validation_exits_2_with_its_message(case, tmp_path, capsys):
    text, fragment = VALIDATION[case]
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, "bad.cfg", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and fragment in err
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("command", ["profile", "check-barrier"])
def test_k_above_n_fails_before_any_profile(command, tmp_path, monkeypatch):
    def no_profile(*args):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(cli, "assemble_profile", no_profile)
    text = f"command = {command}\nn = 2\nk = 3\nf = power:5\n"
    assert main(["--config", write_cfg(tmp_path, "bad.cfg", text), "--out",
                 str(tmp_path / "out")]) == 2
