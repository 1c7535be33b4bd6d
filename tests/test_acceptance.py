"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy runs are shared through module-scoped fixtures; run with `pytest -s`
to see the per-criterion lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from jacobidiag.angles import SubproblemView, best_angle
from jacobidiag.geometry import RotationState, lambda_of, random_rotation
from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.oracle import (brute_force_angle, finite_difference_h_prime,
                               h_prime_at_zero, h_tilde, proximal_gamma)
from jacobidiag.sweeps import RunConfig, run, upper_pairs
from jacobidiag.symtensor import TensorSet

from reference import dense_symmetrize, tau, tau_identity_check

N = 10
QP = math.pi / 4


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def standard_configs(n, max_sweeps):
    """The comparison set run on every test problem."""
    return [
        RunConfig("c", max_sweeps=max_sweeps, name="c"),
        RunConfig("g", eps=2.0 / n, max_sweeps=max_sweeps, name="g-eps-max"),
        RunConfig("g", eps=0.02, max_sweeps=max_sweeps, name="g-eps-0.02"),
        RunConfig("gmax", max_sweeps=max_sweeps, name="gmax"),
        RunConfig("cthresh", thresh=1e-10, max_sweeps=max_sweeps,
                  name="cthresh"),
        RunConfig("pc", delta0=1e-3, max_sweeps=max_sweeps, name="pc-1e-3"),
        RunConfig("pc", delta0=1e-1, max_sweeps=max_sweeps, name="pc-1e-1"),
    ]


def _run_all(tensors, configs):
    out = []
    for cfg in configs:
        t0 = time.perf_counter()
        res = run(tensors, cfg)
        out.append((res, tensors.frob_sq(), time.perf_counter() - t0))
    return out


def random_problem(order, dim, seed, m=1):
    rng = np.random.default_rng(seed)
    tensors = []
    for _ in range(m):
        arr = dense_symmetrize(rng.standard_normal((dim,) * order))
        arr /= np.linalg.norm(arr)
        tensors.append(arr)
    return TensorSet(tensors)


@pytest.fixture(scope="module")
def recovery_runs():
    """Criterion 1 regime: n=10, sigma=0, equal diagonal, all algorithms."""
    out = {}
    for d in (2, 3, 4):
        spec = ExperimentSpec(n=N, order=d, sigma=0.0, seed_rot=5,
                              profile="equal")
        tensors, _ = make_test_problem(spec)
        out[d] = _run_all(tensors, standard_configs(N, 50))
    return out


@pytest.fixture(scope="module")
def small_noise_runs():
    """Criterion 8 regime: sigma = 1e-4, equal diagonal, d in {3, 4}."""
    out = {}
    for d in (3, 4):
        spec = ExperimentSpec(n=N, order=d, sigma=1e-4, seed_rot=11,
                              seed_noise=7, profile="equal")
        tensors, _ = make_test_problem(spec)
        out[d] = _run_all(tensors, standard_configs(N, 100))
    return out


@pytest.fixture(scope="module")
def high_noise_runs():
    """Criterion 8 second regime: sigma = 1e-1, d = 4, varied diagonal."""
    spec = ExperimentSpec(n=N, order=4, sigma=1e-1, seed_rot=13,
                          seed_noise=17, profile="linear")
    tensors, _ = make_test_problem(spec)
    return _run_all(tensors, standard_configs(N, 100))


@pytest.fixture(scope="module")
def gradient_step_runs():
    """Noisy gradient-ordered runs, d in {2, 3}, for the step inequality."""
    out = []
    for d in (2, 3):
        spec = ExperimentSpec(n=N, order=d, sigma=1e-4, seed_rot=19,
                              seed_noise=23, profile="linear")
        tensors, _ = make_test_problem(spec)
        for eps in (2.0 / N, 0.02):
            cfg = RunConfig("g", eps=eps, max_sweeps=100,
                            name=f"g-d{d}-eps{eps:g}")
            out.append((run(tensors, cfg), tensors.frob_sq(), 0.0))
    return out


@pytest.fixture(scope="module")
def slice_runs():
    """Criterion 9 regime: 10 third-order slices of a 4th-order tensor."""
    spec = ExperimentSpec(n=N, order=4, sigma=1e-2, seed_rot=3, seed_noise=9,
                          profile="equal", slice_mode=True)
    tensors, _ = make_test_problem(spec)
    configs = [RunConfig("c", max_sweeps=100, name="c"),
               RunConfig("pc", max_sweeps=100, name="pc")]
    return _run_all(tensors, configs)


@pytest.fixture(scope="module")
def all_runs(recovery_runs, small_noise_runs, high_noise_runs,
             gradient_step_runs, slice_runs):
    runs = []
    for d in recovery_runs:
        runs.extend(recovery_runs[d])
    for d in small_noise_runs:
        runs.extend(small_noise_runs[d])
    runs.extend(high_noise_runs)
    runs.extend(gradient_step_runs)
    runs.extend(slice_runs)
    return runs


# ---------------------------------------------------------------------------

def test_c01_exact_recovery(recovery_runs):
    worst = 0.0
    slowest = 0.0
    max_sweeps = 0
    for d, entries in recovery_runs.items():
        for res, total, wall in entries:
            worst = max(worst, res.state.offdiag_sq() / total)
            slowest = max(slowest, wall)
            max_sweeps = max(max_sweeps, res.sweeps_used)
            assert res.state.offdiag_sq() < 1e-16 * total, \
                (d, res.config.label, res.state.offdiag_sq())
            assert res.sweeps_used <= 50
            assert wall < 10.0
    _report(1, "exact recovery", True,
            f"worst offdiag/total {worst:.2e}, max sweeps {max_sweeps}, "
            f"slowest run {slowest:.2f}s")


def test_c02_gradient_correctness():
    worst_fd = 0.0
    worst_lam = 0.0
    rng = np.random.default_rng(101)
    for d in (2, 3, 4):
        for k in range(200):
            tensors = random_problem(d, 8, seed=10_000 + 100 * d + k,
                                     m=1 + k % 2)
            state = RotationState(tensors, random_rotation(8, 555 + k))
            i = int(rng.integers(0, 7))
            j = int(rng.integers(i + 1, 8))
            view = SubproblemView.from_tensors(state.tensors, i, j)
            analytic = h_prime_at_zero(view)
            lam = lambda_of(state.tensors)
            lam_ij = lam[upper_pairs(8).index((i, j))]
            worst_lam = max(worst_lam, abs(analytic + 2 * lam_ij)
                            / (1 + abs(analytic)))
            fd = finite_difference_h_prime(state.tensors, i, j)
            worst_fd = max(worst_fd, abs(fd - analytic) / (1 + abs(analytic)))
    ok = worst_fd <= 1e-6 and worst_lam <= 1e-10
    _report(2, "gradient correctness", ok,
            f"max FD dev {worst_fd:.2e} (tol 1e-6), "
            f"max -2*Lambda dev {worst_lam:.2e} (tol 1e-10)")


def test_c03_angle_solver_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for delta0 in (0.0, 1e-3, 1e-1):
            rng = np.random.default_rng(300 + d + int(delta0 * 1000))
            for k in range(1000):
                m = 1 + k % 3
                view = SubproblemView(rng.standard_normal((m, d + 1)), delta0)
                alg = best_angle(view)
                orc = brute_force_angle(view)
                va = h_tilde(view, alg.theta)
                vo = h_tilde(view, orc.theta)
                worst = max(worst, abs(va - vo) / (1 + abs(vo)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(3, "angle-solver oracle equivalence", ok,
            f"worst value gap {worst:.2e} (tol 1e-10), {elapsed:.1f}s "
            f"for 9000 views (limit 60s)")


def test_c04_identity_suite():
    worst_id = 0.0
    worst_inv = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(400 + d)
        for k in range(1000):
            m = 1 + k % 2
            view = SubproblemView(rng.standard_normal((m, d + 1)))
            x = float(rng.uniform(-1.0, 1.0))
            r1, r2 = tau_identity_check(view, x)
            scale = 1.0 + abs(tau(view, x))
            worst_id = max(worst_id, r1 / scale, r2 / scale)
            if abs(x) > 1e-3:
                tv = tau(view, x)
                worst_inv = max(worst_inv, abs(tv - tau(view, -1.0 / x))
                                / (1 + abs(tv)))
    ok = worst_id <= 1e-10 and worst_inv <= 1e-10
    _report(4, "rational-identity suite", ok,
            f"worst identity residual {worst_id:.2e}, "
            f"worst inversion residual {worst_inv:.2e} (tol 1e-10)")


def test_c05_monotonicity(all_runs):
    violations = 0
    count = 0
    for res, total, _ in all_runs:
        prev = res.f_initial
        for rec in res.records:
            count += 1
            if rec.f < prev - 1e-12 * total:
                violations += 1
            prev = rec.f
    _report(5, "monotone ascent", violations == 0,
            f"{violations} violations over {count} iterations "
            f"in {len(all_runs)} runs")


def test_c06_proximal_bound(all_runs):
    worst = -math.inf
    steps = 0
    for res, total, _ in all_runs:
        if res.config.method != "pc":
            continue
        delta0 = res.config.delta0 if res.config.delta0 is not None \
            else 1e-3 * total
        prev = res.f_initial
        for rec in res.records:
            gamma = 2.0 * (math.sin(rec.theta) * math.cos(rec.theta))**2
            margin = (rec.f - prev) - delta0 * gamma + 1e-10 * total
            worst = max(worst, -margin)
            steps += 1
            prev = rec.f
    theta = np.linspace(-QP, QP, 10_000)
    gamma_ok = bool(np.all(proximal_gamma(theta)
                           >= 8 * theta**2 / math.pi**2 - 1e-12))
    ok = worst <= 0.0 and gamma_ok and steps > 0
    _report(6, "proximal gain bound", ok,
            f"worst bound violation {max(worst, 0.0):.2e} over {steps} "
            f"proximal steps; gamma >= 8 theta^2/pi^2 on 10^4 grid: "
            f"{gamma_ok}")


def test_c07_gradient_step_inequality(all_runs):
    worst = -math.inf
    steps = 0
    for res, total, _ in all_runs:
        if res.config.method != "g" or res.state.tensors.order not in (2, 3):
            continue
        eps = res.config.eps
        prev = res.f_initial
        for rec in res.records:
            dq = 2.0 * math.sqrt(2.0) * abs(math.sin(rec.theta / 2.0))
            bound = (math.sqrt(2.0) * eps / 4.0) * rec.lambda_norm * dq
            margin = abs(rec.f - prev) - bound + 1e-10 * total
            worst = max(worst, -margin)
            steps += 1
            prev = rec.f
    ok = worst <= 0.0 and steps > 0
    _report(7, "gradient step inequality (d=2,3)", ok,
            f"worst violation {max(worst, 0.0):.2e} over {steps} steps")


def test_c08_regime_reproduction(small_noise_runs, high_noise_runs):
    spreads = {}
    for d, entries in small_noise_runs.items():
        fs = np.array([res.state.f_current for res, _, _ in entries])
        spreads[d] = float((fs.max() - fs.min()) / np.abs(fs).max())
    ok = all(s <= 1e-6 for s in spreads.values())
    # high-noise runs carry no equality assertion but stay monotone and
    # satisfy the proximal bound
    for res, total, _ in high_noise_runs:
        prev = res.f_initial
        delta0 = res.config.delta0 if res.config.delta0 is not None else 0.0
        for rec in res.records:
            ok = ok and rec.f >= prev - 1e-12 * total
            if res.config.method == "pc":
                gamma = 2.0 * (math.sin(rec.theta) * math.cos(rec.theta))**2
                ok = ok and (rec.f - prev) >= delta0 * gamma - 1e-10 * total
            prev = rec.f
    _report(8, "regime reproduction", ok,
            "final-f spread d=3: {:.2e}, d=4: {:.2e} (tol 1e-6); "
            "high-noise runs monotone".format(spreads[3], spreads[4]))


def test_c09_simultaneous_diagonalization(slice_runs):
    details = []
    ok = True
    for res, total, _ in slice_runs:
        lam = res.state.lambda_norm()
        bound = 1e-6 * math.sqrt(total)
        ok = ok and lam <= bound and res.sweeps_used <= 100
        details.append(f"{res.config.label}: lambda {lam:.2e} "
                       f"(bound {bound:.2e}, {res.sweeps_used} sweeps)")
    _report(9, "simultaneous slice diagonalization", ok, "; ".join(details))


def test_c10_stationarity_at_termination(all_runs):
    worst = 0.0
    converged = 0
    for res, total, _ in all_runs:
        if not res.converged:
            continue
        converged += 1
        worst = max(worst, res.state.lambda_norm() / math.sqrt(total))
    ok = converged > 0 and worst <= 1e-8
    _report(10, "stationarity at termination", ok,
            f"{converged} converged runs, worst ||Lambda||/sqrt(total) "
            f"{worst:.2e} (tol 1e-8)")
