import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from khessian import cli
from khessian.cli import main
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import assemble_profile, predicted_profile


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_explicit_xi_is_used(self, tmp_path):
        # a number for xi, not "auto": the body carries it and the predicted column follows it
        cfg = write_cfg(tmp_path, "p.cfg", PROFILE + "xi = 0.75\nt_grid = 0.1,0.5\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "profile.json").read_text())["xi"] == 0.75
        _, rows = read_rows(out / "profile.csv")
        p = assemble_profile(Nonlinearity.power(3), Weight.constant(1.0), 1)
        want = predicted_profile(p, 0.75, np.array([0.1, 0.5]))
        assert [r[4] for r in rows] == pytest.approx(want, rel=1e-15)

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

    def test_radial_exhaust_center_increments(self, tmp_path):
        # center_increments are read at r = 0 (they were read at r = R/2: 0.181, 0.0285)
        cfg = write_cfg(tmp_path, "ex.cfg", EXHAUST + "h = 0.0078125\nj_schedule = 2,4,6\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "radial-exhaust.json").read_text())
        _, rows = read_rows(out / "radial-exhaust.csv")
        centre = [u for j, r, u, _ in rows if r == 0.0]
        assert meta["center_increments"] == [b - a for a, b in zip(centre, centre[1:])]
        assert meta["center_increments"] == pytest.approx([0.117, 0.0173], rel=1e-2)

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
        assert set(shot) == {"path", "ivps", "steps", "rejected"}
        assert shot["path"] == "scaling" and shot["ivps"] == 2
        assert shot["steps"] > shot["rejected"] >= 0
        body = (out / "verify-asymptotics.json").read_text()
        assert "shot" not in json.loads(body) and "ivps" not in body


    def test_verify_asymptotics_unbracketed_shot_exits_1(self, tmp_path):
        # for power:2.05 at k = 2, R*(u0) > 1 for every u0 below the IVP's cap
        cfg = write_cfg(tmp_path, "va.cfg", """
            command = verify-asymptotics
            n = 3
            k = 2
            R = 1.0
            f = power:2.05
            weight = constant:1
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "SolveFailure"
        assert err["message"] == "could not bracket the target blow-up radius from above"
        assert err["shot"]["path"] == "bracket" and err["shot"]["ivps"] >= 1


    def test_verify_asymptotics_integration_failure_keeps_the_shot(self, tmp_path):
        # a weight that vanishes on the boundary takes the bracket path, and its
        # first IVP loses admissibility past R
        text = (CONFIGS / "verify_power_ball.cfg").read_text()
        cfg = write_cfg(tmp_path, "va.cfg", text.replace("weight = constant:1", "weight = power:1"))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "IntegrationFailure"
        assert err["message"].startswith("admissibility lost at r=")
        assert set(err["shot"]) == {"path", "ivps", "steps", "rejected"}
        assert err["shot"]["path"] == "bracket" and err["shot"]["ivps"] >= 1
        assert err["shot"]["steps"] > 0


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

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
    def test_shipped_config_byte_identical_reruns(self, tmp_path, name):
        outs = [tmp_path / sub for sub in ("a", "b")]
        for out in outs:
            assert main(["--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out),
                         "--quiet"]) == 0
        bodies = sorted(p.name for p in outs[0].iterdir() if not p.name.endswith(".runinfo.json"))
        assert bodies and bodies == sorted(
            p.name for p in outs[1].iterdir() if not p.name.endswith(".runinfo.json"))
        for fname in bodies:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        if name == "fd_disk_exhaust":
            meta = json.loads((outs[0] / "fd_disk.json").read_text())
            assert meta["monotone_ok"] is True and meta["start"] == "given"


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

    def test_disk_domain_is_the_planar_ball(self, tmp_path):
        # domain = disk:R certifies, with the global barrier, what n = 2 and that R do
        bodies = []
        for name, key in (("disk", "domain = disk:0.5"), ("ball", "R = 0.5")):
            cfg = write_cfg(tmp_path, f"{name}.cfg",
                            BARRIER + f"samples = 20\nglobal_check = true\n{key}\n")
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
            bodies.append((out / "check-barrier.json").read_bytes())
        assert bodies[0] == bodies[1] and b'"geometry": "ball(n=2, R=0.5)"' in bodies[0]

    def test_inadmissible_failure_names_its_count(self, tmp_path):
        # every width fails on cone admissibility, sigma_1..sigma_4 of its overflowed
        # spectra far below 0, while the worst relative margin is large and positive:
        # the message, and so error.json, counts the inadmissible samples of the last
        # width's failing report
        cfg = write_cfg(tmp_path, "cb.cfg", """
            command = check-barrier
            n = 4
            k = 4
            f = power:4.5
            weight = power:1
            eps = 0.1
            samples = 200
        """)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--seed", "7", "--quiet"]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "CertificationFailure"
        assert err["message"].startswith("no collar width certified after ")
        assert err["message"].endswith("; 200 of 200 supersolution samples inadmissible)")


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
VERIFY = "command = verify-asymptotics\nn = 2\nk = 1\nf = exp:2\n"
F2 = "(f2) power nonlinearity with gamma=2.0 <= k=2: the profile integral diverges"

# (config text, a fragment of the message) for every validation path of the CLI
VALIDATION = {
    "config-line": ("command = profile\nk 1\n", "config line 2: expected 'key = value'"),
    "key-given-twice": ("command = profile\nk = 1\nf = power:3\n# again\nk = 2\n",
                        "config key 'k' is given twice, on lines 2 and 5"),
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
    "n-one-profile": ("command = profile\nn = 1\nk = 1\nf = power:5\n",
                      "dimension must be >= 2, got 1"),
    "n-one-check-barrier": ("command = check-barrier\nn = 1\nk = 1\nf = power:5\n",
                            "dimension must be >= 2, got 1"),
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
               "grid spacing must be positive and finite, got 0.0"),
    "h-nan": ("command = fd-exhaust\nf = exp:2\ndomain = disk:1\nh = nan\nj_schedule = 2,4\n",
              "grid spacing must be positive and finite, got nan"),
    "h-inf": ("command = fd-exhaust\nf = exp:2\ndomain = disk:1\nh = inf\nj_schedule = 2,4\n",
              "grid spacing must be positive and finite, got inf"),
    "tol-negative": (IVP + "tol = -1\n", "tolerance must be positive and finite, got -1.0"),
    "tol-nan-radial-ivp": (IVP + "tol = nan\n", "tolerance must be positive and finite, got nan"),
    "tol-nan-fd-exhaust": (FD + "domain = disk:1\nj_schedule = 2,4\ntol = nan\n",
                           "tolerance must be positive and finite, got nan"),
    "tol-inf-fd-exhaust": (FD + "domain = disk:1\nj_schedule = 2,4\ntol = inf\n",
                           "tolerance must be positive and finite, got inf"),
    "tol-inf-radial-exhaust": (EXHAUST + "j_schedule = 2,4\ntol = inf\n",
                               "tolerance must be positive and finite, got inf"),
    "tol-zero-radial-exhaust": (EXHAUST + "j_schedule = 2,4\ntol = 0\n",
                                "tolerance must be positive and finite, got 0.0"),
    "samples-zero": (BARRIER + "samples = 0\n", "sample count must be >= 1, got 0"),
    "samples-negative": (BARRIER + "samples = -3\n", "sample count must be >= 1, got -3"),
    "d_lo-zero": (VERIFY + "d_lo = 0\n",
                  "distance window needs finite 0 < d_lo < d_hi, got d_lo=0.0, d_hi=0.01"),
    "d_lo-nan": (VERIFY + "d_lo = nan\n",
                 "distance window needs finite 0 < d_lo < d_hi, got d_lo=nan, d_hi=0.01"),
    "d_lo-above-d_hi": (VERIFY + "d_lo = 0.1\n",
                        "distance window needs finite 0 < d_lo < d_hi, got d_lo=0.1, d_hi=0.01"),
    "d_hi-inf": (VERIFY + "d_hi = inf\n",
                 "distance window needs finite 0 < d_lo < d_hi, got d_lo=0.0001, d_hi=inf"),
    "per_decade-zero": (VERIFY + "per_decade = 0\n", "per_decade must be >= 1, got 0"),
    "u0-negative": ("command = radial-ivp\nn = 2\nk = 1\nf = power:5\nu0 = -1\n",
                    "initial value must be positive, got -1.0"),
    "u0-nan": ("command = radial-ivp\nn = 2\nk = 1\nf = exp:2\nu0 = nan\n",
               "initial value must be finite, got nan"),
    "u0-above-cap": ("command = radial-ivp\nn = 3\nk = 2\nf = power:5\nu0 = 1e13\n",
                     "must lie below the blow-up caps u_cap=1e+12"),
    # u0 is below the caps, but u' of the series start at r = 1e-8 R is 1.8e19
    "series-start-above-cap": ("command = radial-ivp\nn = 3\nk = 2\nf = power:5\nu0 = 1e11\n",
                               "start state (u, u') = (1.91287e+11, 1.82574e+19) at r=1e-08 "
                               "must lie below the blow-up caps"),
    "unknown-key-cf": (PROFILE + "cf = 1\ncm = 0\n", "unknown config key 'cf'"),
    "slack-3.3": (BARRIER + "eps = 0.7\n", "(3.3) barrier slack must satisfy"),
    "ellipse-k3": ("command = profile\nn = 3\nk = 3\nf = power:5\ndomain = ellipse:1.2,1\n",
                   "planar geometry supports k in {1, 2}, got 3"),
    "ellipse-n5": ("command = check-barrier\nn = 5\nk = 2\nf = power:5\n"
                   "domain = ellipse:1.2,1\n", "an ellipse domain is planar: n must be 2, got n=5"),
    "disk-n3": ("command = check-barrier\nn = 3\nk = 2\nf = power:5\ndomain = disk:0.5\n",
                "a disk domain is planar: n must be 2, got n=3"),
    "disk-not-a-number-check-barrier": (BARRIER + "domain = disk:abc\n",
                                        "domain 'disk:abc' is malformed (use disk:R)"),
    "domain-kind-profile": (PROFILE + "domain = square:1\n", "unknown domain kind 'square'"),
    "domain-and-R-check-barrier": (BARRIER + "domain = disk:0.5\nR = 1\n",
                                   "give the ball radius R or a domain, not both"),
    "domain-and-R-profile": (PROFILE + "domain = ellipse:1.2,1\nR = 1\n",
                             "give the ball radius R or a domain, not both"),
    "domain-verify": (VERIFY + "domain = ellipse:1.5,1\n",
                      "unknown config key 'domain' for command 'verify-asymptotics'"),
    "global-check-misspelt": (BARRIER + "global_check = ture\n",
                              "config key 'global_check': cannot parse 'ture' "
                              "(use true/1/yes or false/0/no)"),
    "global-check-ellipse": (BARRIER + "domain = ellipse:1.5,1\nglobal_check = true\n",
                             "global_check certifies the global upper barrier on a ball only, "
                             "got ellipse(a=1.5, b=1.0)"),
    "h-zero-radial-exhaust": (EXHAUST + "h = 0\nj_schedule = 2,4\n",
                              "grid spacing must be positive and finite, got 0.0"),
    "h-negative-radial-exhaust": (EXHAUST + "h = -0.01\nj_schedule = 2,4\n",
                                  "grid spacing must be positive and finite, got -0.01"),
    "h-nan-radial-exhaust": (EXHAUST + "h = nan\nj_schedule = 2,4\n",
                             "grid spacing must be positive and finite, got nan"),
    "R-nan-radial-ivp": (IVP + "R = nan\n", "ball radius must be positive and finite, got nan"),
    "R-inf-radial-ivp": (IVP + "R = inf\n", "ball radius must be positive and finite, got inf"),
    "disk-nan-fd-exhaust": (FD + "domain = disk:nan\nj_schedule = 2,4\n",
                            "disk radius must be positive and finite, got nan"),
    "ellipse-inf-fd-exhaust": (FD + "domain = ellipse:inf,1\nj_schedule = 2,4\n",
                               "ellipse semi-axis a must be positive and finite, got inf"),
    "R-inf-check-barrier": (BARRIER + "R = inf\n", "ball radius must be positive and finite, got inf"),
    "d_hi-above-R": (VERIFY + "d_hi = 2\n", "distance window needs d_hi < R, got d_hi=2.0, R=1.0"),
    "j-nan-radial-exhaust": (EXHAUST + "j_schedule = 2,nan\n",
                             "boundary-data schedule must be strictly increasing and finite, "
                             "got [2.0, nan]"),
    "ellipse-one-axis": (FD + "domain = ellipse:1\nj_schedule = 2,4\n",
                         "domain 'ellipse:1' is malformed (use ellipse:a,b)"),
    "ellipse-one-axis-check-barrier": (BARRIER + "domain = ellipse:1.2\n",
                                       "domain 'ellipse:1.2' is malformed (use ellipse:a,b)"),
    "ellipse-three-axes": (FD + "domain = ellipse:1,2,3\nj_schedule = 2,4\n",
                           "domain 'ellipse:1,2,3' is malformed (use ellipse:a,b)"),
    "disk-no-radius": (FD + "domain = disk:\nj_schedule = 2,4\n",
                       "domain 'disk:' is malformed (use disk:R)"),
    "f-power-no-exponent": ("command = profile\nk = 1\nf = power:\n",
                            "nonlinearity 'power:': '' is not a number"),
    "weight-power-not-a-number": (PROFILE + "weight = power:x\n",
                                  "weight 'power:x': 'x' is not a number"),
    "j-not-a-number": (FD + "domain = disk:1\nj_schedule = 3,x\n",
                       "config key 'j_schedule': cannot parse '3,x'"),
    "j-nan-fd-exhaust": (FD + "domain = disk:1\nj_schedule = 3,nan\n",
                         "boundary-data schedule must be strictly increasing and finite, "
                         "got [3.0, nan]"),
    "j-inf-fd-exhaust": (FD + "domain = disk:1\nj_schedule = 3,inf\n",
                         "boundary-data schedule must be strictly increasing and finite, "
                         "got [3.0, inf]"),
    "j-only-nan-fd-exhaust": (FD + "domain = disk:1\nj_schedule = nan\n",
                              "boundary-data schedule must be strictly increasing and finite, "
                              "got [nan]"),
    "j-empty-radial-exhaust": (EXHAUST + "j_schedule = ,\n",
                               "boundary-data schedule must not be empty"),
    "j-nonpositive-power-radial-exhaust": ("command = radial-exhaust\nn = 3\nk = 2\nf = power:5\n"
                                           "j_schedule = -1,2\n",
                                           "boundary-data schedule of a power nonlinearity must "
                                           "be positive, got [-1.0, 2.0]"),
    "j-nonpositive-power-fd-exhaust": ("command = fd-exhaust\nf = power:3\nh = 0.0625\n"
                                       "domain = disk:1\nj_schedule = -1,2\n",
                                       "boundary-data schedule of a power nonlinearity must "
                                       "be positive, got [-1.0, 2.0]"),
    "t_min-zero": (PROFILE + "t_min = 0\n", "t_min must be positive and finite, got 0.0"),
    "t_max-inf": (PROFILE + "t_max = inf\n", "t_max must be positive and finite, got inf"),
    "t_min-above-t_max": (PROFILE + "t_min = 10\nt_max = 1\n",
                          "profile grid needs t_min <= t_max, got t_min=10.0, t_max=1.0"),
    "t_per_decade-zero": (PROFILE + "t_per_decade = 0\n", "t_per_decade must be >= 1, got 0"),
    "ratio_band-one-number": (VERIFY + "ratio_band = 0.9\n",
                              "ratio_band needs two finite numbers lo < hi, got [0.9]"),
    "f-power-nan-radial-ivp": ("command = radial-ivp\nn = 2\nk = 1\nf = power:nan\nu0 = 0.7\n",
                               "(f1) power nonlinearity exponent gamma must be positive and "
                               "finite, got nan"),
    "f-exp-inf-radial-ivp": ("command = radial-ivp\nn = 2\nk = 1\nf = exp:inf\nu0 = 0.7\n",
                             "(f1) exponential nonlinearity rate a must be positive and finite, "
                             "got inf"),
    "weight-constant-nan-radial-ivp": (IVP + "weight = constant:nan\n",
                                       "(b2) constant weight c must be positive and finite, "
                                       "got nan"),
    "weight-power-inf-radial-ivp": (IVP + "weight = power:inf\n",
                                    "(b2) power weight exponent alpha must be positive and "
                                    "finite, got inf"),
    "delta0-nan": (PROFILE + "delta0 = nan\n",
                   "(b2) validity window delta0 must be positive, got nan"),
    "b_lower-nan": (PROFILE + "b_lower = nan\n",
                    "(b2) b_lower must be positive and finite, got nan"),
    "b_lower-inf": (PROFILE + "b_lower = inf\n",
                    "(b2) b_lower must be positive and finite, got inf"),
    "b_upper-nan": (PROFILE + "b_upper = nan\n", "(b2) b_upper must be finite, got nan"),
    "b_upper-inf-check-barrier": (BARRIER + "b_upper = inf\n",
                                  "(b2) b_upper must be finite, got inf"),
    "xi-nan-profile": (PROFILE + "xi = nan\n", "xi must be positive and finite, got nan"),
    "xi-negative-profile": (PROFILE + "xi = -1\n", "xi must be positive and finite, got -1.0"),
    "xi-inf-profile": (PROFILE + "xi = inf\n", "xi must be positive and finite, got inf"),
    "xi-nan-verify": (VERIFY + "xi = nan\n", "xi must be positive and finite, got nan"),
    "xi-negative-verify": (VERIFY + "xi = -1\n", "xi must be positive and finite, got -1.0"),
    "xi-inf-verify": (VERIFY + "xi = inf\n", "xi must be positive and finite, got inf"),
    "t_grid-nan": (PROFILE + "t_grid = nan\n",
                   "t_grid must list positive finite values, got [nan]"),
    "t_grid-nonpositive": (PROFILE + "t_grid = 0,-1\n",
                           "t_grid must list positive finite values, got [0.0, -1.0]"),
    "t_grid-inf": (PROFILE + "t_grid = 1,inf\n",
                   "t_grid must list positive finite values, got [1.0, inf]"),
    "t_grid-empty": (PROFILE + "t_grid = ,\n", "t_grid must list positive finite values, got []"),
    # sup Phi = pi/2 for exp:2 at k = 1: every t lies past the table's cut, and the
    # command wrote a header-only CSV and exited 0
    "t_grid-past-sup-Phi": ("command = profile\nk = 1\nf = exp:2\nt_grid = 5,6\n",
                            "profile table is empty: t must lie below 0.95 sup Phi = 1.49226, "
                            "and the smallest t is 5"),
    # 10 per decade puts no point between 2 and 2.5: the profile was built, and then the
    # empty grid exited 1 with "min() arg is an empty sequence"
    "t-window-between-grid-points": (PROFILE + "t_min = 2\nt_max = 2.5\n",
                                     "profile grid has no point between t_min=2.0 and "
                                     "t_max=2.5 at t_per_decade=10"),
    "t_grid-empty-entry": (PROFILE + "t_grid = 1,,2\n",
                           "config key 't_grid': cannot parse '1,,2' (entry 2 of 3 is empty)"),
    "t_grid-trailing-comma": (PROFILE + "t_grid = 1,2,\n",
                              "config key 't_grid': cannot parse '1,2,' (entry 3 of 3 is empty)"),
    "j-empty-entry-radial-exhaust": (EXHAUST + "j_schedule = 2,,4\n",
                                     "config key 'j_schedule': cannot parse '2,,4' "
                                     "(entry 2 of 3 is empty)"),
}


@pytest.mark.parametrize("raw, flag", [("true", True), ("1", True), ("YES", True),
                                       ("False", False), ("0", False), ("no", False)])
def test_global_check_spellings(raw, flag):
    assert cli._flag(raw) is flag


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


@pytest.mark.parametrize("text, stage", [
    (PROFILE + "t_grid = 0,-1\n", "assemble_profile"),
    (VERIFY + "xi = -1\n", "shoot_blowup_radius"),
    (PROFILE + "t_min = 2\nt_max = 2.5\n", "assemble_profile"),
], ids=["t_grid-before-profile", "xi-before-shot", "empty-t-window-before-profile"])
def test_bad_t_grid_and_xi_fail_before_the_work(text, stage, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{stage} ran")

    monkeypatch.setattr(cli, stage, no_work)
    assert main(["--config", write_cfg(tmp_path, "bad.cfg", text), "--out",
                 str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("name", ["ABSOLUTE", "../x", "sub/x", ".", ".."])
def test_out_must_be_a_plain_file_name(name, tmp_path, monkeypatch, capsys):
    # out names the reports in --out: at a path it wrote outside --out (an absolute path
    # or ../x) or failed with exit 1 (sub/x, unless sub existed)
    def no_profile(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "assemble_profile", no_profile)
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (tmp_path / "elsewhere").mkdir()
    if name == "ABSOLUTE":
        name = str(tmp_path / "elsewhere" / "x")
    cfg = write_cfg(tmp_path, "bad.cfg", PROFILE + f"out = {name}\n")
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert (f"validation error: out must be a plain file name, without a path separator, "
            f"got {name!r}") in capsys.readouterr().err
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "bad.cfg", "elsewhere", "out", "out/sub"]


def test_profile_counts_the_t_it_drops(tmp_path, capsys):
    # sup Phi = pi/2 for exp:2 at k = 1, so t = 5 is cut: the summary and the sidecar say
    # so, and the body is as before
    cfg = write_cfg(tmp_path, "p.cfg", "command = profile\nk = 1\nf = exp:2\nt_grid = 1,5\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("rows=1 t_dropped=1")
    assert json.loads((out / "profile.runinfo.json").read_text())["t_dropped"] == 1
    assert json.loads((out / "profile.json").read_text())["rows"] == 1
    assert [row[0] for row in read_rows(out / "profile.csv")[1]] == [1.0]


# a small config of every command
QUIET = {
    "profile": PROFILE,
    "radial-ivp": IVP,
    "radial-exhaust": EXHAUST + "j_schedule = 2,4\nh = 0.0625\n",
    "fd-exhaust": FD + "domain = disk:1\nj_schedule = 2,4\n",
    "check-barrier": BARRIER + "samples = 20\n",
    "verify-asymptotics": VERIFY,
}


@pytest.mark.parametrize("command", QUIET)
def test_quiet_prints_nothing(command, tmp_path, capsys):
    # --quiet silences every command: the exit code and the report body carry the verdict
    assert set(QUIET) == set(cli.COMMANDS)
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, "q.cfg", QUIET[command]), "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert any(not p.name.endswith(".runinfo.json") for p in out.iterdir())


@pytest.mark.parametrize("command", QUIET)
def test_each_command_writes_its_reports_and_one_summary_line(command, tmp_path, capsys):
    # NAME is the command's name when the config has no out key; check-barrier has no table
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, "c.cfg", QUIET[command]), "--out",
                 str(out)]) == 0
    files = {f"{command}.json", f"{command}.runinfo.json"}
    if command != "check-barrier":
        files.add(f"{command}.csv")
    assert {p.name for p in out.iterdir()} == files
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: ")


@pytest.mark.parametrize("command", QUIET)
def test_command_returns_its_report_and_writes_nothing(command, tmp_path, monkeypatch, capsys):
    # a command is a function of its config: run alone writes its report and prints it
    monkeypatch.chdir(tmp_path)
    cfg = cli.Config.parse(QUIET[command])
    cfg.get("command")  # read by run, before the command
    report = cli._DISPATCH[command](cfg)
    assert isinstance(report, cli.Report) and report.status == 0
    assert (report.table is None) == (command == "check-barrier")
    assert not any(tmp_path.iterdir()) and capsys.readouterr().out == ""


def test_failed_verification_writes_its_reports_and_exits_1(tmp_path, capsys):
    # the ratios at d = 1e-2 and 1e-4 leave the band 0.99..1.001: the verdict is FAIL
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "va.cfg", VERIFY + "ratio_band = 0.99,1.001\nout = va\n")
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert {p.name for p in out.iterdir()} == {"va.csv", "va.json", "va.runinfo.json"}
    assert json.loads((out / "va.json").read_text())["passed"] is False
    assert capsys.readouterr().out.startswith("verify-asymptotics: FAIL (")


@pytest.mark.parametrize("n, k, f, R", [(2, 1, "exp:2", 2.0), (2, 1, "exp:2", 3.0),
                                        (3, 1, "exp:1", 5.0)])
def test_verify_exponential_shot_below_zero(n, k, f, R, tmp_path):
    # the shot's u0 is below 0 (log(2 / R) for exp:2 at n = 2); these exited 1, unable to
    # bracket R from below
    cfg = write_cfg(tmp_path, "va.cfg", f"command = verify-asymptotics\nn = {n}\nk = {k}\n"
                                        f"f = {f}\nR = {R}\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    body = json.loads((out / "verify-asymptotics.json").read_text())
    assert body["passed"] is True and body["u0"] < 0.0
    if f == "exp:2":
        assert abs(body["u0"] - math.log(2.0 / R)) <= 1e-9


# a config of every command with one misspelt key, and the first work the command does
MISSPELT = {
    "profile": (PROFILE + "t_mxa = 5\n", "assemble_profile"),
    "radial-ivp": (IVP + "toll = 1e-9\n", "integrate_blowup_ivp"),
    "radial-exhaust": (EXHAUST + "j_schedule = 2,4\nhh = 0.01\n", "solve_exhaustion_bvp"),
    "fd-exhaust": (FD + "domain = disk:1\nj_schedule = 2,4\ntoll = 1e-8\n", "build_grid"),
    "check-barrier": (BARRIER + "global_check = true\nsampels = 5\n", "assemble_profile"),
    "verify-asymptotics": (VERIFY + "d_hii = 0.01\n", "assemble_profile"),
}


@pytest.mark.parametrize("command", MISSPELT)
def test_misspelt_key_fails_before_any_work(command, tmp_path, monkeypatch, capsys):
    # every key is read, and the unknown one rejected, before the first solve or file
    # write: the command's work never starts and no report file is written
    text, stage = MISSPELT[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{stage} ran")

    monkeypatch.setattr(cli, stage, no_work)
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, "bad.cfg", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: unknown config key") and "closest" in err
    assert not out.exists() or not any(out.iterdir())


def test_readme_config_table_lists_every_key():
    # the literal key of every cfg.get and cfg.floats call in cli.py ...
    calls = [node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "cfg"
             and node.func.attr in ("get", "floats")]
    assert calls and all(isinstance(c.args[0], ast.Constant) for c in calls)
    read = {c.args[0].value for c in calls}
    # ... against the keys in the first column of the README's config table
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    rows = lines[lines.index("| key | meaning |") + 2:]
    listed = set()
    for row in rows[:next(i for i, ln in enumerate(rows) if not ln.startswith("|"))]:
        listed.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert read == listed
