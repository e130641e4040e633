"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

import numpy as np
import pytest

from khessian.barriers import certify_barriers, certify_upper_barrier_global, ball_geometry
from khessian.fd2d import exhaust, solve_dirichlet
from khessian.grid2d import Disk, build_grid
from khessian.nonlinearity import Nonlinearity, Weight
from khessian.profiles import assemble_profile, build_profile, build_weight, compute_Cf
from khessian.radial import (
    RadialProblem,
    asymptotics_report,
    integrate_blowup_ivp,
    shoot_blowup_radius,
    solve_exhaustion_bvp,
    solve_torsion,
)
from khessian.symfunc import (
    cone_membership,
    sigma,
    sigma_all,
    sigma_partial,
    symmetric_eigenvalues,
)

W1 = Weight.constant(1.0)
B_ONE = lambda r: np.ones_like(np.asarray(r, float))


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def check(self):
        assert self.elapsed < self.budget, (
            f"runtime {self.elapsed:.1f}s exceeded the {self.budget}s budget"
        )


def report(num, detail, timer=None):
    stamp = f" [{timer.elapsed:.1f}s]" if timer is not None else ""
    print(f"\n[criterion {num}] PASS{stamp}: {detail}")


def phi_closed_form(k, gamma, t):
    coeff = ((k + 1.0) ** k * (gamma + 1.0) / (gamma - k) ** (k + 1.0)) ** (1.0 / (gamma - k))
    return coeff * t ** (-(k + 1.0) / (gamma - k))


def test_criterion_1_profile_closed_forms():
    with _Timer(5.0) as tm:
        worst = 0.0
        for k, gamma in ((1, 3), (2, 5), (3, 7)):
            p = build_profile(Nonlinearity.power(gamma), k)
            for t in np.geomspace(1e-3, 1.0, 40):
                rel = abs(p.phi(t) / phi_closed_form(k, gamma, t) - 1.0)
                worst = max(worst, rel)
        assert worst <= 1e-6
    tm.check()
    report(1, f"profile matches the closed form, worst rel err {worst:.2e}", tm)


def test_criterion_2_limit_constants():
    with _Timer(5.0) as tm:
        for k, gamma in ((1, 3), (2, 5), (3, 7)):
            cf = compute_Cf(build_profile(Nonlinearity.power(gamma), k))
            assert cf == pytest.approx((gamma + 1.0) / (gamma - k), abs=1e-3)
        for alpha in (1.0, 3.0):
            _, cm = build_weight(Weight.power(alpha))
            assert cm == pytest.approx(1.0 / (alpha + 1.0), abs=1e-6)
        cf_exp = compute_Cf(build_profile(Nonlinearity.exponential(2), 1))
        assert cf_exp == pytest.approx(1.0, abs=1e-3)
    tm.check()
    report(2, "C_f = (gamma+1)/(gamma-k), C_m = 1/(alpha+1), exponential C_f = 1", tm)


def test_criterion_3_manufactured_radial_solutions():
    with _Timer(10.0) as tm:
        exact = lambda r: np.log(2.0 / (1.0 - r**2))
        results = {}
        cases = {
            "laplacian": RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE),
            "monge_ampere": RadialProblem(
                n=2, k=2, R=1.0, f=Nonlinearity.exponential(3),
                b=lambda r: (1.0 + np.asarray(r, float) ** 2) / 2.0,
            ),
        }
        for name, prob in cases.items():
            sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-10)
            mask = sol.r <= 0.99
            err = float(np.max(np.abs(sol.u[mask] - exact(sol.r[mask]))))
            assert err <= 1e-6, f"{name}: max error {err:.2e}"
            assert sol.Rstar == pytest.approx(1.0, abs=1e-4)
            results[name] = err
    tm.check()
    report(3, f"manufactured blow-ups reproduced, max errors {results}", tm)


def test_criterion_4_power_trend_unit_ball():
    with _Timer(30.0) as tm:
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        u0, sol = shoot_blowup_radius(prob, tol=1e-9)
        p = assemble_profile(Nonlinearity.power(5), W1, 2)
        xi = 0.5 ** (1.0 / 3.0)
        ladder = np.geomspace(1e-4, 1e-2, 17)
        rep = asymptotics_report(sol, p, xi, d_values=ladder)
        ratios = rep.ratio  # rows descending in d
        preds = rep.rows[:, 2]
        # the prediction must agree with the closed form 2^{2/3}/d
        assert np.allclose(preds, 2.0 ** (2.0 / 3.0) / rep.d, rtol=1e-6)
        assert np.all((ratios >= 0.9) & (ratios <= 1.1))
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    tm.check()
    report(
        4,
        f"ratio in [{ratios.min():.4f}, {ratios.max():.4f}], "
        f"|ratio-1| {abs(ratios[0] - 1):.2e} @1e-2 -> {abs(ratios[-1] - 1):.2e} @1e-4",
        tm,
    )


def test_criterion_5_exponential_exact_crosscheck():
    with _Timer(10.0) as tm:
        prob = RadialProblem(n=2, k=1, R=1.0, f=Nonlinearity.exponential(2), b=B_ONE)
        sol = integrate_blowup_ivp(prob, math.log(2.0), tol=1e-10)
        p = assemble_profile(Nonlinearity.exponential(2), W1, 1)
        rep = asymptotics_report(sol, p, xi=1.0, d_values=[1e-3])
        d, u, pred, ratio = rep.rows[0]
        assert pred == pytest.approx(-math.log(math.sin(1e-3)), rel=1e-8)
        assert abs(ratio - 1.0) <= 0.02
    report(5, f"Liouville vs -log(sin d): ratio {ratio:.5f} at d=1e-3", tm)


def test_criterion_6_fd_verification():
    with _Timer(60.0) as tm:
        const_one = Nonlinearity.custom(
            lambda s: np.ones_like(np.asarray(s, float)),
            lambda s: np.zeros_like(np.asarray(s, float)),
        )
        # constant source on the unit disk: stencil exact on quadratics
        poisson_errs = []
        for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
            grid = build_grid(Disk(1.0), h)
            fld = solve_dirichlet(grid, const_one, W1, 0.0, tol=1e-10)
            exact = (grid.node_x**2 + grid.node_y**2 - 1.0) / 4.0
            poisson_errs.append(float(np.max(np.abs(fld.interior_values() - exact))))
        assert poisson_errs[-1] <= 3e-4
        # exact reproduction: any h^2 bound holds; order fit is degenerate here
        assert all(e <= 1e-8 for e in poisson_errs)

        liou = lambda x, y: np.log(2.0 / (1.0 - (np.asarray(x) ** 2 + np.asarray(y) ** 2)))
        errs = []
        for h in (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0):
            grid = build_grid(Disk(0.9), h)
            fld = solve_dirichlet(grid, Nonlinearity.exponential(2), W1, liou, tol=1e-9)
            errs.append(float(np.max(np.abs(fld.interior_values()
                                            - liou(grid.node_x, grid.node_y)))))
        assert errs[1] <= 1e-3  # h = 1/128
        order = math.log2(errs[1] / errs[2])
        assert order >= 1.9
    tm.check()
    report(
        6,
        f"constant-source exact ({poisson_errs[-1]:.1e}); Liouville err(1/128)="
        f"{errs[1]:.2e}, measured order {order:.2f}",
        tm,
    )


def test_criterion_7_exhaustion_properties():
    with _Timer(60.0) as tm:
        # radial boundary-value exhaustion
        prob = RadialProblem(n=3, k=2, R=1.0, f=Nonlinearity.power(5), b=B_ONE)
        sols = solve_exhaustion_bvp(prob, [4.0, 8.0, 16.0, 32.0], grid_h=1.0 / 128.0, tol=1e-9)
        for a, b in zip(sols, sols[1:]):
            assert np.all(b.u - a.u >= -1e-8)
        incs = [float(abs(b.u[0] - a.u[0])) for a, b in zip(sols, sols[1:])]
        assert all(y < x for x, y in zip(incs, incs[1:]))

        # 2d exhaustion
        grid = build_grid(Disk(1.0), 1.0 / 64.0)
        limit, diags = exhaust(grid, Nonlinearity.exponential(2), W1,
                               [4.0, 6.0, 8.0, 10.0], tol=1e-8)
        assert all(v >= -1e-8 for v in diags["increment_min"])
        center_incs = np.abs(np.diff(diags["center_value"]))
        assert np.all(center_incs[1:] < center_incs[:-1])
    tm.check()
    report(
        7,
        f"monotone to 1e-8; centre increments radial {incs} / fd {center_incs.tolist()}",
        tm,
    )


def test_criterion_8_barrier_certification():
    with _Timer(60.0) as tm:
        matrix = [
            (Nonlinearity.exponential(2), 1, 2),
            (Nonlinearity.power(5), 2, 3),
            (Nonlinearity.power(5), 2, 2),
        ]
        deltas = {}
        for nl, k, n in matrix:
            p = assemble_profile(nl, W1, k)
            geom = ball_geometry(n, k, 1.0)
            bp, rep_s, rep_l = certify_barriers(p, geom, eps=0.1)
            assert rep_s.passed and rep_l.passed
            assert all(s["admissible"] for s in rep_s.samples + rep_l.samples)
            deltas[(k, n)] = bp.delta_eps

        eps_found = {}
        for k, gamma in itertools.product((1, 2), (3.0, 4.0, 5.0)):
            nl = Nonlinearity.power(gamma)
            prob = RadialProblem(n=2, k=k, R=1.0, f=nl, b=B_ONE)
            p = assemble_profile(nl, W1, k)
            eps, _ = certify_upper_barrier_global(p, solve_torsion(prob))
            eps_found[(k, gamma)] = eps
        assert all(e > 0 for e in eps_found.values())
    tm.check()
    report(8, f"collar widths {deltas}; global-barrier eps {eps_found}", tm)


def _matrix_sk_minors(A, k):
    n = A.shape[0]
    idx = list(itertools.combinations(range(n), k))
    subs = np.stack([A[np.ix_(r, r)] for r in idx])
    return float(np.sum(np.linalg.det(subs)))


def _fd_matrix_derivative(S, k, h=1e-5):
    n = S.shape[0]
    plus = np.stack([S + h * np.eye(1, n * n, i * n + j).reshape(n, n)
                     for i in range(n) for j in range(n)])
    minus = np.stack([S - h * np.eye(1, n * n, i * n + j).reshape(n, n)
                      for i in range(n) for j in range(n)])
    idx = list(itertools.combinations(range(n), k))
    out = np.empty(n * n)
    for m in range(n * n):
        sp = sum(np.linalg.det(plus[m][np.ix_(r, r)]) for r in idx)
        sm = sum(np.linalg.det(minus[m][np.ix_(r, r)]) for r in idx)
        out[m] = (sp - sm) / (2.0 * h)
    return out.reshape(n, n)


def test_criterion_9_algebra_suite():
    with _Timer(5.0) as tm:
        rng = np.random.default_rng(2024)
        trials = 1000

        # Newton's identities cross-check
        for _ in range(trials):
            n = int(rng.integers(2, 9))
            lam = rng.normal(0.0, 1.5, size=n)
            p = np.array([np.sum(lam**m) for m in range(n + 1)])
            e = np.zeros(n + 1)
            e[0] = 1.0
            for j in range(1, n + 1):
                e[j] = sum((-1) ** (m - 1) * e[j - m] * p[m] for m in range(1, j + 1)) / j
            rec = sigma_all(lam)
            assert np.all(np.abs(rec - e) <= 1e-10 * np.maximum(np.abs(e), 1.0))

        # rank-one update identity (FD matrix derivative)
        n = 4
        for _ in range(trials):
            k = int(rng.integers(1, n + 1))
            S = rng.normal(0.0, 1.0, size=(n, n))
            S = 0.5 * (S + S.T)
            xi = rng.normal(0.0, 1.0, size=n)
            quad = float(xi @ _fd_matrix_derivative(S, k) @ xi)
            base = _matrix_sk_minors(S, k)
            for sign in (1.0, -1.0):
                lhs = sigma(k, symmetric_eigenvalues(S + sign * np.outer(xi, xi), tol=1e-13))
                assert abs(lhs - (base + sign * quad)) <= 1e-9 * max(1.0, abs(lhs))

        # cone nesting
        for _ in range(trials):
            n = int(rng.integers(2, 7))
            lam = rng.normal(0.4, 1.0, size=n)
            reports_ = [cone_membership(lam, k) for k in range(1, n + 1)]
            for k in range(2, n + 1):
                if reports_[k - 1].admissible:
                    assert all(r.admissible for r in reports_[: k - 1])

        # partial positivity on the admissible cone
        found = 0
        while found < trials:
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            lam = rng.normal(0.7, 1.0, size=n)
            if not cone_membership(lam, k).admissible:
                continue
            found += 1
            for i in range(n):
                assert sigma_partial(k, lam, i) > 0.0
    tm.check()
    report(9, f"4 x {trials} randomized algebra checks, zero failures", tm)
