import csv
import math
import warnings

import numpy as np
import pytest

from jacobidiag import sweeps
from jacobidiag.angles import SubproblemView
from jacobidiag.geometry import GivensRotation, RotationState, lambda_of
from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.oracle import (best_angle_xi, offdiag_sq_norm,
                               rotate_planes_reference)
from jacobidiag.sweeps import (RunConfig, run, select_pair_gradient,
                               select_pair_max, upper_pairs,
                               write_trajectory_csv)
from jacobidiag.symtensor import TensorSet


def noisy_problem(order, n=6, sigma=1e-2, seed=5):
    spec = ExperimentSpec(n=n, order=order, sigma=sigma, seed_rot=seed,
                          seed_noise=seed + 1, profile="linear")
    tensors, _ = make_test_problem(spec)
    return tensors


def skew(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a - a.T


# ---------------------------------------------------------------------------
# pair selection

def test_select_pair_max_cases():
    lam = np.zeros((6, 6))
    lam[2, 5] = -3.0
    lam[5, 2] = 3.0
    assert select_pair_max(lam) == (2, 5)
    assert select_pair_max(np.zeros((4, 4))) is None
    tie = np.zeros((4, 4))
    tie[0, 1] = tie[1, 2] = 2.0
    tie -= tie.T
    assert select_pair_max(tie) == (0, 1)


def test_select_pair_max_satisfies_two_over_n_bound():
    for seed in range(20):
        lam = skew(7, seed)
        i, j = select_pair_max(lam)
        assert 2 * abs(lam[i, j]) >= (2.0 / 7) * np.linalg.norm(lam) * (1 - 1e-12)


def test_select_pair_gradient_cases():
    lam = np.zeros((6, 6))
    lam[2, 5] = 1.0
    lam[5, 2] = -1.0
    for eps in (2.0 / 6, 0.01):
        assert select_pair_gradient(lam, eps) == (2, 5)
    assert select_pair_gradient(np.zeros((5, 5)), 0.1) is None
    # the cyclic order scanned above, one sweep long
    assert upper_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert len(upper_pairs(5)) == 5 * 4 // 2
    for seed in range(20):
        lam = skew(8, 100 + seed)
        eps = 2.0 / 8
        i, j = select_pair_gradient(lam, eps)
        assert 2 * abs(lam[i, j]) >= eps * np.linalg.norm(lam) * (1 - 1e-12)


def test_stationarity_norm_matches_lambda():
    ts = noisy_problem(3)
    state = RotationState(ts)
    assert state.lambda_norm() == pytest.approx(
        float(np.linalg.norm(lambda_of(state.tensors))), rel=1e-14)
    diag = TensorSet.from_diagonal([1.0, 2.0, 3.0], 3)
    assert RotationState(diag).lambda_norm() == 0.0


def overflowing_square_problem():
    # x 2^300: ||T||^2 ~ 4e180 is finite, ||Lambda||^2 ~ 2^1200 is not
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    return tensors, TensorSet(2.0**300 * tensors.stack[0])


def test_lambda_norm_survives_an_overflowing_square():
    tensors, big = overflowing_square_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = RotationState(big).lambda_norm()
    want = 2.0**600 * RotationState(tensors).lambda_norm()
    assert abs(norm - want) <= 1e-14 * want


def test_lambda_norm_survives_an_underflowing_square():
    # x 2^-280: every entry of Lambda ~ 1e-170 squares to 0
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = RotationState(TensorSet(2.0**-280 * tensors.stack[0])
                             ).lambda_norm()
    want = 2.0**-560 * RotationState(tensors).lambda_norm()
    assert want > 0.0
    assert abs(norm - want) <= 1e-14 * want


def test_run_records_a_finite_lambda_norm_when_its_square_overflows():
    _, big = overflowing_square_problem()
    res = run(big, RunConfig(method="c", max_sweeps=1))
    assert res.records
    assert all(math.isfinite(r.lambda_norm) and r.lambda_norm > 0.0
               for r in res.records)


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="newton")
    with pytest.raises(ValueError):
        RunConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        RunConfig(record_every=0)
    with pytest.raises(ValueError):
        RunConfig(eps=-0.1)
    cfg = RunConfig(method="g", eps=0.5)
    with pytest.raises(ValueError):
        run(noisy_problem(2, n=6), cfg)      # 0.5 > 2/n


@pytest.mark.parametrize("attr", ["eps", "delta0", "thresh",
                                  "stationarity_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_knobs(attr, value):
    # NaN passes a plain `v < 0` test; inf would reach angles.py or never stop
    with pytest.raises(ValueError, match=f"{attr} must be finite"):
        RunConfig(**{attr: value})


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_run_refuses_under_and_overflowing_norm(scale):
    # ||T||^2 underflows to 0 at 1e-170 and overflows to inf at 1e160
    ts = noisy_problem(3, sigma=1e-3)
    with pytest.raises(ValueError, match="squared norm is"):
        run(TensorSet(scale * ts.stack[0]), RunConfig())


def test_run_rejects_bad_q0():
    ts = noisy_problem(2)
    with pytest.raises(ValueError):
        run(ts, RunConfig(), q0=np.eye(5))


# ---------------------------------------------------------------------------
# driver behavior

def test_diagonal_input_stops_immediately():
    ts = TensorSet.from_diagonal([1.0, 0.5, -2.0, 0.1], 3)
    for method in ("c", "g", "gmax", "cthresh", "pc"):
        res = run(ts, RunConfig(method=method))
        assert res.converged and res.stop_reason == "stationary"
        assert res.records == []
        assert res.state.rotation_count == 0


@pytest.mark.parametrize("method", ["c", "g", "gmax", "cthresh", "pc"])
def test_monotone_ascent(method):
    ts = noisy_problem(3, sigma=5e-2)
    res = run(ts, RunConfig(method=method, max_sweeps=20))
    scale = ts.frob_sq()
    prev = res.f_initial
    for rec in res.records:
        assert rec.f >= prev - 1e-12 * scale
        prev = rec.f
    # conservation at every logged iteration
    for rec in res.records:
        assert rec.f + rec.offdiag_sq == pytest.approx(scale, rel=1e-9)


def test_trajectories_match_reference_kernel(monkeypatch):
    # the packed kernel sums in another order than the dense reference, so
    # angles and objective agree to rounding; the discrete path is the same
    problems = [make_test_problem(ExperimentSpec(
        n=5, order=order, m=2, sigma=1e-2, seed_rot=7, seed_noise=8,
        profile="linear"))[0] for order in (2, 3, 4)]

    def reference_rotate_plane(self, i, j, theta):
        stack = self.stack
        rotate_planes_reference(stack, i, j, math.cos(theta), math.sin(theta))
        self.packed = TensorSet._wrap(stack).packed
        return self

    def trajectories():
        results = [run(ts, RunConfig(method=method, max_sweeps=10))
                   for ts in problems for method in sweeps.METHODS]
        assert all(res.state.rotation_count > 0 for res in results)
        return results

    fast = trajectories()
    monkeypatch.setattr(TensorSet, "rotate_plane", reference_rotate_plane)
    _assert_same_path(fast, trajectories())


def _assert_same_path(fast, reference):
    for a, b in zip(fast, reference):
        assert (a.stop_reason, a.state.rotation_count) == \
            (b.stop_reason, b.state.rotation_count)
        assert [(r.i, r.j, r.skipped) for r in a.records] == \
            [(r.i, r.j, r.skipped) for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert abs(ra.theta - rb.theta) <= 1e-11
            assert abs(ra.f - rb.f) <= 1e-12 * abs(rb.f)


def test_fourth_order_trajectories_match_the_xi_route(monkeypatch):
    # the d = 4 angle from the trig form's quartic against the companion
    # matrix route it replaced, kept in oracle
    problems = [make_test_problem(ExperimentSpec(
        n=5, order=4, m=m, sigma=1e-2, seed_rot=7, seed_noise=8,
        profile="linear"))[0] for m in (1, 2)]

    def trajectories():
        results = [run(ts, RunConfig(method=method, max_sweeps=10))
                   for ts in problems for method in sweeps.METHODS]
        assert all(res.state.rotation_count > 0 for res in results)
        return results

    fast = trajectories()
    monkeypatch.setattr(sweeps, "best_angle", best_angle_xi)
    _assert_same_path(fast, trajectories())


def test_view_gather_keeps_angles_bitwise(monkeypatch):
    # the pair view is one take from a table of packed positions; the same
    # entries read one by one from the dense stack give the same angles,
    # bit for bit
    problems = [make_test_problem(ExperimentSpec(
        n=5, order=order, m=m, sigma=1e-2, seed_rot=7, seed_noise=8,
        profile="linear"))[0] for order in (2, 3) for m in (1, 3)]

    def dense_view(cls, tensors, i, j, delta0=0.0):
        stack = tensors.stack
        d = tensors.order
        return cls([[member[(i,) * (d - w) + (j,) * w] for w in range(d + 1)]
                    for member in stack], delta0)

    def thetas():
        return [[r.theta for r in run(ts, RunConfig(method=method,
                                                    max_sweeps=10)).records]
                for ts in problems for method in sweeps.METHODS]

    fast = thetas()
    monkeypatch.setattr(SubproblemView, "from_tensors",
                        classmethod(dense_view))
    assert thetas() == fast


def test_forced_reorthonormalization_keeps_ascent(monkeypatch):
    monkeypatch.setattr(sweeps, "ORTH_TOL", 0.0)     # rebuild on any drift
    ts = noisy_problem(3, sigma=5e-2)
    total = ts.frob_sq()
    res = run(ts, RunConfig(method="c", max_sweeps=20))
    state = res.state
    assert state.reorth_count > 0
    prev = res.f_initial
    for rec in res.records:
        assert rec.f >= prev - 1e-12 * total
        prev = rec.f
    assert state.f_current >= prev - 1e-12 * total
    n = state.dim
    assert np.linalg.norm(state.q.T @ state.q - np.eye(n)) <= 1e-12
    assert np.linalg.det(state.q) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("method", sweeps.METHODS)
@pytest.mark.parametrize("order,sigma", [(2, 0.0), (3, 0.0), (3, 1e-2)])
def test_final_offdiag_is_a_fresh_sum(method, order, sigma):
    # offdiag_sq(), a weighted sum over the packed entries, equals a direct
    # sum over the dense off-diagonal entries, also at ~1e-31 of the total
    # (order 2, sigma = 0) and ~1e-21..1e-25 (order 3, sigma = 0)
    spec = ExperimentSpec(n=6, order=order, m=2, sigma=sigma, seed_rot=6,
                          seed_noise=7)
    ts, _ = make_test_problem(spec)
    state = run(ts, RunConfig(method=method)).state
    fresh = offdiag_sq_norm(state.tensors)
    assert abs(state.offdiag_sq() - fresh) <= 1e-13 * fresh
    if sigma == 0.0:
        assert fresh <= (1e-30 if order == 2 else 1e-20) \
            * state.total_sq_norm


def test_reorthonormalization_recounts_offdiag(monkeypatch):
    monkeypatch.setattr(sweeps, "ORTH_TOL", 0.0)     # rebuild every sweep
    state = run(noisy_problem(4), RunConfig(method="c", max_sweeps=5)).state
    assert state.reorth_count > 0
    fresh = offdiag_sq_norm(state.tensors)
    assert abs(state.offdiag_sq() - fresh) <= 1e-13 * fresh


def test_threshold_skips_and_stops_without_progress():
    ts = noisy_problem(3, sigma=1e-3)
    res = run(ts, RunConfig(method="cthresh", thresh=1e-2, max_sweeps=50))
    assert res.converged
    skipped = [r for r in res.records if r.skipped]
    rotated = [r for r in res.records if not r.skipped]
    assert skipped, "a loose threshold must skip some pairs"
    for r in skipped:
        assert r.theta == 0.0
    # k counts rotations only
    assert [r.k for r in rotated] == list(range(1, len(rotated) + 1))
    if res.stop_reason == "no_progress":
        last_sweep = res.records[-1].sweep
        assert all(r.skipped for r in res.records if r.sweep == last_sweep)


def test_step_size_identity():
    ts = noisy_problem(3)
    state = RotationState(ts)
    rng = np.random.default_rng(3)
    for _ in range(10):
        i, j = sorted(rng.choice(6, size=2, replace=False))
        theta = float(rng.uniform(-math.pi / 4, math.pi / 4))
        q_before = state.q.copy()
        state.apply(GivensRotation(int(i), int(j), theta))
        dq = float(np.linalg.norm(state.q - q_before))
        assert dq == pytest.approx(2 * math.sqrt(2) * abs(math.sin(theta / 2)),
                                   abs=1e-12)


def test_gradient_step_inequality_small():
    ts = noisy_problem(3, sigma=1e-2)
    eps = 0.1 * (2.0 / 6)
    res = run(ts, RunConfig(method="g", eps=eps, max_sweeps=20))
    scale = ts.frob_sq()
    prev = res.f_initial
    for rec in res.records:
        dq = 2 * math.sqrt(2) * abs(math.sin(rec.theta / 2))
        assert abs(rec.f - prev) >= (math.sqrt(2) * eps / 4) * \
            rec.lambda_norm * dq - 1e-10 * scale
        prev = rec.f


def test_proximal_inequality_small():
    ts = noisy_problem(3, sigma=1e-2)
    delta0 = 1e-2
    res = run(ts, RunConfig(method="pc", delta0=delta0, max_sweeps=20))
    scale = ts.frob_sq()
    prev = res.f_initial
    for rec in res.records:
        gamma = 2 * (math.sin(rec.theta) * math.cos(rec.theta))**2
        assert rec.f - prev >= delta0 * gamma - 1e-10 * scale
        prev = rec.f


def test_pc_rotations_vanish_at_convergence():
    ts = noisy_problem(3, sigma=1e-3)
    res = run(ts, RunConfig(method="pc", max_sweeps=60))
    assert res.converged
    last_sweep = res.records[-1].sweep
    tail = [abs(r.theta) for r in res.records if r.sweep == last_sweep]
    assert max(tail) <= 1e-6


def test_gradient_single_point_convergence_trend():
    ts = noisy_problem(3, sigma=1e-3)
    res = run(ts, RunConfig(method="g", eps=0.02, max_sweeps=60))
    assert res.converged
    quiet = None
    by_sweep = {}
    for r in res.records:
        by_sweep.setdefault(r.sweep, []).append(abs(r.theta))
    for sweep in sorted(by_sweep):
        if max(by_sweep[sweep]) < 1e-4:
            quiet = sweep
            break
    assert quiet is not None
    tail_move = sum(2 * math.sqrt(2) * abs(math.sin(r.theta / 2))
                    for r in res.records if r.sweep > quiet)
    assert tail_move <= 1e-2


def test_gradient_run_at_scaled_input_reaches_stationarity():
    # x 2^7 the last pairs have |Lambda[i, j]| ~ 1e-13 of Omega's largest
    # coefficient; every such step must still move, or g never stops
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    res = run(TensorSet(2.0**7 * tensors.stack[0]),
              RunConfig(method="g", max_sweeps=20))
    assert res.converged and res.stop_reason == "stationary"


@pytest.mark.parametrize("k", [7, -7])
def test_fourth_order_gradient_run_at_scaled_input_reaches_stationarity(k):
    # the d = 4 path of the test above, at x 2^7 and x 2^-7
    spec = ExperimentSpec(n=5, order=4, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    res = run(TensorSet(2.0**k * tensors.stack[0]),
              RunConfig(method="g", max_sweeps=20))
    assert res.converged and res.stop_reason == "stationary"


def test_run_result_reports_the_resolved_settings():
    ts = noisy_problem(3)
    total = ts.frob_sq()
    res = run(ts, RunConfig(method="pc", max_sweeps=1))
    assert res.stationarity_tol == res.thresh == 1e-10 * math.sqrt(total)
    assert res.delta0 == 1e-3 * total
    assert res.eps == 0.1 * (2.0 / 6)
    assert run(ts, RunConfig(method="c", max_sweeps=1)).delta0 == 0.0
    given = RunConfig(method="g", eps=0.25, delta0=0.5, thresh=1e-3,
                      stationarity_tol=1e-4, max_sweeps=1)
    res = run(ts, given)
    assert (res.stationarity_tol, res.thresh, res.delta0, res.eps) == \
        (1e-4, 1e-3, 0.5, 0.25)


def test_converged_runs_are_stationary():
    for method in ("c", "gmax", "pc"):
        ts = noisy_problem(3, sigma=1e-3, seed=11)
        res = run(ts, RunConfig(method=method, max_sweeps=80))
        assert res.converged
        assert res.state.lambda_norm() <= 1e-8 * math.sqrt(ts.frob_sq())


# ---------------------------------------------------------------------------
# CSV export

def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_csv_roundtrip_and_format(tmp_path):
    ts = noisy_problem(3, sigma=1e-2)
    res = run(ts, RunConfig(method="c", max_sweeps=3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res)
    rows = read_csv(path)
    assert len(rows) == len(res.records)
    header = path.read_text().splitlines()[0]
    assert header == "k,sweep,i,j,theta,f,offdiag_sq,lambda_norm,skipped,wall_ms"
    for row, rec in zip(rows, res.records):
        assert int(row["k"]) == rec.k
        assert float(row["f"]) == rec.f       # 17 digits roundtrip exactly
        assert float(row["theta"]) == rec.theta
        assert row["skipped"] == "0"


def test_csv_record_every_keeps_final(tmp_path):
    ts = noisy_problem(3, sigma=1e-2)
    res = run(ts, RunConfig(method="c", max_sweeps=3, record_every=7))
    path = tmp_path / "thin.csv"
    write_trajectory_csv(path, res)
    rows = read_csv(path)
    ks = [int(r["k"]) for r in rows]
    assert ks[-1] == res.records[-1].k
    assert all(k % 7 == 0 for k in ks[:-1])


def test_csv_deterministic_except_walltime(tmp_path):
    ts = noisy_problem(4, sigma=1e-2)
    cfg = RunConfig(method="pc", max_sweeps=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(p1, run(ts, cfg))
    write_trajectory_csv(p2, run(ts, cfg))
    strip = lambda p: ["," .join(line.split(",")[:-1])
                       for line in p.read_text().splitlines()]
    assert strip(p1) == strip(p2)
