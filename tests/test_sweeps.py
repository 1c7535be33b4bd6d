import csv
import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobidiag import sweeps
from jacobidiag.angles import MAX_SQ_NORM, SubproblemView
from jacobidiag.geometry import (RotationState, contracted_start, lambda_norm,
                                 random_rotation)
from jacobidiag.harness import (ExperimentSpec, make_test_problem,
                                verify_invariants)
from jacobidiag.oracle import rotate_planes_reference
from jacobidiag.sweeps import (RunConfig, run, select_pair_gradient,
                               select_pair_max, upper_pairs,
                               write_trajectory_csv)
from jacobidiag.symtensor import TensorSet

from reference import (best_angle_xi, lambda_reference, offdiag_sq_norm,
                       run_recomputing_lambda)


def noisy_problem(order, n=6, sigma=1e-2, seed=5):
    spec = ExperimentSpec(n=n, order=order, sigma=sigma, seed_rot=seed,
                          seed_noise=seed + 1, profile="linear")
    tensors, _ = make_test_problem(spec)
    return tensors


def skew(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a - a.T


def upper(lam):
    """The selectors' input: Lambda's upper triangle in row-major order."""
    return lam[np.triu_indices(len(lam), 1)]


def max_pair(lam):
    """``select_pair_max`` on a full skew Lambda, its position read as the
    pair ``run`` takes from ``upper_pairs``."""
    k = select_pair_max(upper(lam))
    return None if k is None else upper_pairs(len(lam))[k]


def gradient_pair(lam, eps, norm):
    """``select_pair_gradient`` on a full skew Lambda, as ``max_pair``."""
    k = select_pair_gradient(upper(lam), eps, norm)
    return None if k is None else upper_pairs(len(lam))[k]


# ---------------------------------------------------------------------------
# pair selection

def test_select_pair_max_cases():
    lam = np.zeros((6, 6))
    lam[2, 5] = -3.0
    lam[5, 2] = 3.0
    assert max_pair(lam) == (2, 5)
    assert select_pair_max(upper(lam)) == upper_pairs(6).index((2, 5))
    assert select_pair_max(np.zeros(4 * 3 // 2)) is None
    tie = np.zeros((4, 4))
    tie[0, 1] = tie[1, 2] = 2.0
    tie -= tie.T
    assert max_pair(tie) == (0, 1)
    # the first maximum in row-major order, not in column-major order
    tie = np.zeros((4, 4))
    tie[0, 3] = tie[1, 2] = -2.0
    assert max_pair(tie - tie.T) == (0, 3)


def test_select_pair_max_satisfies_two_over_n_bound():
    for seed in range(20):
        lam = skew(7, seed)
        i, j = max_pair(lam)
        assert 2 * abs(lam[i, j]) >= (2.0 / 7) * np.linalg.norm(lam) * (1 - 1e-12)


def test_select_pair_gradient_cases():
    lam = np.zeros((6, 6))
    lam[2, 5] = 1.0
    lam[5, 2] = -1.0
    for eps in (2.0 / 6, 0.01):
        assert gradient_pair(lam, eps, lambda_norm(upper(lam))) == (2, 5)
    assert select_pair_gradient(np.zeros(5 * 4 // 2), 0.1, 0.0) is None
    # the cyclic order scanned above, one sweep long
    assert upper_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert len(upper_pairs(5)) == 5 * 4 // 2
    for seed in range(20):
        lam = skew(8, 100 + seed)
        eps = 2.0 / 8
        i, j = gradient_pair(lam, eps, lambda_norm(upper(lam)))
        assert 2 * abs(lam[i, j]) >= eps * np.linalg.norm(lam) * (1 - 1e-12)


def skew_with_ties(n, seed):
    # integer entries, so many magnitudes repeat; the largest is also
    # planted, with random signs, in a few random places across rows
    rng = np.random.default_rng(seed)
    a = np.triu(rng.integers(-3, 4, size=(n, n)).astype(np.float64), 1)
    iu = np.transpose(np.triu_indices(n, 1))
    for i, j in iu[rng.choice(len(iu), size=min(3, len(iu)), replace=False)]:
        a[i, j] = rng.choice([-5.0, 5.0])
    return a - a.T


def row_major_max(lam):
    best, arg = 0.0, None
    for i in range(len(lam) - 1):
        for j in range(i + 1, len(lam)):
            if abs(lam[i, j]) > best:
                best, arg = abs(lam[i, j]), (i, j)
    return arg


def row_major_gradient(lam, eps):
    norm = float(np.linalg.norm(lam))
    for i in range(len(lam) - 1):
        for j in range(i + 1, len(lam)):
            if 2.0 * abs(lam[i, j]) >= eps * norm:
                return i, j
    return row_major_max(lam)


@pytest.mark.parametrize("n", range(2, 10))
def test_pair_selection_matches_a_row_major_scan(n):
    # eps = 4 > 2/n: no entry reaches the bound, and the argmax is taken
    for seed in range(40):
        lam = skew(n, seed) if seed % 4 == 0 else skew_with_ties(n, seed)
        want = row_major_max(lam)
        assert max_pair(lam) == want
        if want is None:
            assert gradient_pair(lam, 0.1, lambda_norm(upper(lam))) is None
            continue
        for eps in (2.0 / n, 0.5 / n, 1e-3, 4.0):
            want = row_major_gradient(lam, eps)
            for norm in (lambda_norm(upper(lam)), float(np.linalg.norm(lam))):
                assert gradient_pair(lam, eps, norm) == want


def test_stationarity_norm_matches_lambda():
    # lambda_norm is sqrt(2) times the upper triangle's norm: within a few
    # ulps of the full matrix's Frobenius norm at m = 1, where the entries
    # are bitwise the reference's
    for order in (2, 3, 4):
        ts = noisy_problem(order)
        for seed in range(5):
            state = RotationState(ts, random_rotation(ts.dim, seed))
            ref = float(np.linalg.norm(lambda_reference(state.tensors)))
            assert abs(state.lambda_norm() - ref) <= 4 * math.ulp(ref)
        diag = TensorSet.from_diagonal([1.0, 2.0, 3.0], order)
        assert RotationState(diag, np.eye(3)).lambda_norm() == 0.0


@pytest.mark.parametrize("method", ["c", "g", "pc"])
def test_stationary_stop_reports_the_norm_run_compared(monkeypatch, method):
    # the stop test and RotationState.lambda_norm read one function, so
    # the norm a check reads after a stationary stop is the one run saw
    seen = []
    real = sweeps.lambda_norm

    def spy(lam):
        seen.append(real(lam))
        return seen[-1]

    monkeypatch.setattr(sweeps, "lambda_norm", spy)
    res = run(noisy_problem(3), RunConfig(method=method, max_sweeps=50))
    assert res.stop_reason == "stationary"
    assert res.state.lambda_norm() == seen[-1] <= res.stationarity_tol


def overflowing_square_problem():
    # x 2^300: ||T||^2 ~ 4e180 is finite, ||Lambda||^2 ~ 2^1200 is not
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    return tensors, TensorSet(2.0**300 * tensors.stack[0])


def test_lambda_norm_survives_an_overflowing_square():
    tensors, big = overflowing_square_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = RotationState(big, np.eye(5)).lambda_norm()
    want = 2.0**600 * RotationState(tensors, np.eye(5)).lambda_norm()
    assert abs(norm - want) <= 1e-14 * want


def test_lambda_norm_survives_an_underflowing_square():
    # x 2^-280: every entry of Lambda ~ 1e-170 squares to 0
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = RotationState(TensorSet(2.0**-280 * tensors.stack[0]),
                             np.eye(5)).lambda_norm()
    want = 2.0**-560 * RotationState(tensors, np.eye(5)).lambda_norm()
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
    # a fractional count would fail in range() or thin the CSV by k % 2.5
    for attr in ("max_sweeps", "record_every"):
        with pytest.raises(ValueError, match=f"{attr} must be an integer"):
            RunConfig(**{attr: 2.5})
        assert getattr(RunConfig(**{attr: np.int64(2)}), attr) == 2
    cfg = RunConfig(method="g", eps=0.5)
    with pytest.raises(ValueError):
        run(noisy_problem(2, n=6), cfg)      # 0.5 > 2/n
    # cthresh's threshold is refused when the config is made; its default,
    # 1e-10 ||T||, is positive for every set run accepts
    with pytest.raises(ValueError, match="^thresh must be positive for "
                                         "cthresh$"):
        RunConfig(method="cthresh", thresh=0)
    assert RunConfig(method="c", thresh=0).thresh == 0


@pytest.mark.parametrize("attr,value", [("max_sweeps", 2.5), ("eps", "x"),
                                        ("method", "c")])
def test_config_fields_cannot_be_set_after_construction(attr, value):
    # a field set later would skip the checks that construction runs
    cfg = RunConfig(method="g")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, attr, value)
    assert getattr(cfg, attr) == getattr(RunConfig(method="g"), attr)


@pytest.mark.parametrize("attr", ["eps", "delta0", "thresh",
                                  "stationarity_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, "1", b"1", 1j, [0.1]])
def test_config_rejects_non_finite_knobs(attr, value):
    # NaN passes a plain `v < 0` test; inf would reach angles.py or never
    # stop; a non-number is refused by name, not by math.isfinite's TypeError
    with pytest.raises(ValueError,
                       match=f"^{attr} must be finite and nonnegative, got "):
        RunConfig(**{attr: value})


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_run_refuses_under_and_overflowing_norm(scale):
    # ||T||^2 underflows to 0 at 1e-170 and overflows to inf at 1e160
    ts = noisy_problem(3, sigma=1e-3)
    with pytest.raises(ValueError, match="squared norm is"):
        run(TensorSet(scale * ts.stack[0]), RunConfig())


@pytest.mark.parametrize("k", [511, 510])
def test_run_refuses_a_set_whose_omega_can_overflow(k):
    # ||T||^2 = 4.6e307 and 1.1e307, both above the d = 4 bound 8.7e305:
    # refused before the first rotation, with no overflow warning
    spec = ExperimentSpec(n=5, order=4, sigma=1e-2, seed_rot=5, seed_noise=3)
    big = TensorSet(2.0**k * make_test_problem(spec)[0].stack[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\|\|T\|\|\^2 = .* exceeds "
                           r"8\.710e\+305, .*; rescale the input"):
            run(big, RunConfig(method="c", max_sweeps=3))


@pytest.mark.parametrize("method", ["pc", "c"])
@pytest.mark.parametrize("order", [3, 4])
def test_run_refuses_a_delta0_that_can_overflow_omega(order, method,
                                                       monkeypatch):
    # delta0 = 1e308 overflows the angle step's proximal term: refused before
    # the first rotation, with no overflow warning; 1e306 still runs
    ts = make_test_problem(ExperimentSpec(n=4, order=order, sigma=1e-2))[0]
    ref = run(ts, RunConfig(method, delta0=1e306, max_sweeps=2))
    assert ref.state.rotation_count > 0

    def rotate_plane(*args):
        raise AssertionError("rotated before the refusal")

    monkeypatch.setattr(TensorSet, "rotate_plane", rotate_plane)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"delta0 = 1\.000e\+308 .*; "
                           r"lower delta0"):
            run(ts, RunConfig(method, delta0=1e308, max_sweeps=2))


@pytest.mark.parametrize("method", sweeps.METHODS)
@pytest.mark.parametrize("order", [2, 3, 4])
def test_run_just_under_the_squared_norm_bound(order, method):
    # a set scaled to just under MAX_SQ_NORM runs without a warning, and
    # its first sweep takes the unscaled run's pairs and angles (later
    # ones may part: the default tolerance scales as ||T||, Lambda as
    # ||T||^2)
    # (both from the identity: the default start's first sweep at d = 2
    # rotates by rounding only, and whether it stops is scale-dependent)
    ts = noisy_problem(order, n=5, sigma=1e-1)
    scale = math.sqrt(0.999 * MAX_SQ_NORM[order] / ts.frob_sq())
    big = TensorSet(scale * ts.stack[0])
    assert 0.99 * MAX_SQ_NORM[order] < big.frob_sq() <= MAX_SQ_NORM[order]
    cfg = RunConfig(method=method, max_sweeps=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(big, cfg, q0=np.eye(5))
    ref = run(ts, cfg, q0=np.eye(5))
    first = len(upper_pairs(5))
    assert len(res.records) >= first and len(ref.records) >= first
    for r, s in zip(res.records[:first], ref.records[:first]):
        assert (r.i, r.j, r.skipped) == (s.i, s.j, s.skipped)
        assert abs(r.theta - s.theta) <= 1e-9


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
        self.packed[...] = TensorSet(list(stack)).packed
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
    # the d = 4 angle from the trig form against the companion-matrix
    # route on the reference's hand-expanded sums, in tests/reference.py
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


@pytest.mark.parametrize("orth_tol", [None, 0.0], ids=["default", "tol0"])
@pytest.mark.parametrize("method", sweeps.METHODS)
def test_row_updated_lambda_matches_a_recompute_before_every_visit(
        monkeypatch, method, orth_tol):
    # run rewrites only rows i and j of Lambda after each rotation; a loop
    # that recomputes it before every visit sees the same bits: the same
    # norms, pairs, angles, skips and stop, also across cthresh's skips and,
    # with ORTH_TOL patched to 0, a re-orthonormalization after every sweep
    # (from the identity, whose long runs skip and drift the most;
    # test_row_updated_lambda_matches_a_recompute_from_the_default_start
    # covers the default start)
    if orth_tol is not None:
        monkeypatch.setattr(sweeps, "ORTH_TOL", orth_tol)
    for order, m in ((2, 3), (3, 1), (4, 2)):
        ts, _ = make_test_problem(ExperimentSpec(
            n=6, order=order, m=m, sigma=1e-2, seed_rot=order,
            seed_noise=m, profile="linear"))
        res = run(ts, RunConfig(method=method, thresh=1e-2, max_sweeps=30),
                  q0=np.eye(6))
        visits, reason, state = run_recomputing_lambda(ts, res, np.eye(6))
        assert [(r.sweep, r.i, r.j, r.theta, r.skipped, r.lambda_norm)
                for r in res.records] == visits
        assert res.stop_reason == reason
        assert np.array_equal(res.state.q, state.q)
        assert res.state.reorth_count == state.reorth_count
        if method == "cthresh":
            assert any(r.skipped for r in res.records)
        if orth_tol is not None:
            assert res.state.reorth_count > 0


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
    n = state.tensors.dim
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
    # from the identity, the state the skips are compared with
    ts = noisy_problem(3, sigma=1e-3)
    eye = np.eye(ts.dim)
    res = run(ts, RunConfig(method="cthresh", thresh=1e-2, max_sweeps=50),
              q0=eye)
    assert res.converged
    skipped = [r for r in res.records if r.skipped]
    rotated = [r for r in res.records if not r.skipped]
    assert skipped, "a loose threshold must skip some pairs"
    # k counts rotations only
    assert [r.k for r in rotated] == list(range(1, len(rotated) + 1))
    if res.stop_reason == "no_progress":
        last_sweep = res.records[-1].sweep
        assert all(r.skipped for r in res.records if r.sweep == last_sweep)
    # a skip leaves the state as it was: theta 0, and k, f and offdiag_sq
    # bitwise those of the record before it, or of the initial state (no
    # re-orthonormalization ran between them); a threshold above every
    # |Lambda[i, j]| skips the whole first sweep
    initial = RotationState(ts, eye)
    for res in (res, run(ts, RunConfig(method="cthresh", thresh=1e3),
                         q0=eye)):
        assert res.state.reorth_count == 0
        prev = (0, initial.f_current, initial.offdiag_sq())
        for r in res.records:
            assert type(r.skipped) is bool
            if r.skipped:
                assert r.theta == 0.0
                assert (r.k, r.f, r.offdiag_sq) == prev
            prev = (r.k, r.f, r.offdiag_sq)
    assert [r.skipped for r in res.records] == [True] * 15
    assert res.stop_reason == "no_progress"


@pytest.mark.parametrize("method, sigma, max_sweeps, reason", [
    ("c", 1e-2, 1, "max_sweeps"),
    ("cthresh", 1e-3, 50, "no_progress"),
    ("c", 1e-3, 80, "stationary"),
])
def test_converged_is_read_off_the_stop_reason(method, sigma, max_sweeps,
                                               reason):
    ts = noisy_problem(3, sigma=sigma)
    res = run(ts, RunConfig(method=method, thresh=1e-2,
                            max_sweeps=max_sweeps))
    assert res.stop_reason == reason
    assert res.converged == (res.stop_reason != "max_sweeps")


def test_step_size_identity():
    ts = noisy_problem(3)
    state = RotationState(ts, np.eye(6))
    rng = np.random.default_rng(3)
    for _ in range(10):
        i, j = sorted(rng.choice(6, size=2, replace=False))
        theta = float(rng.uniform(-math.pi / 4, math.pi / 4))
        q_before = state.q.copy()
        state.apply(int(i), int(j), theta)
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
    # x 2^7 the last pairs have |Lambda[i, j]| ~ 1e-12 of the largest
    # coefficient of the angle step; every such step must still move, or g
    # never stops
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


def scaled(tensors, k):
    """The set times 2^k, exactly: every entry keeps its mantissa."""
    return TensorSet._from_packed(2.0**k * tensors.packed, tensors.order,
                                  tensors.dim)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(order=st.sampled_from([2, 3, 4]), n=st.integers(2, 6),
       m=st.integers(1, 3), method=st.sampled_from(sweeps.METHODS),
       seed=st.integers(0, 2**16), k=st.integers(-498, 498))
def test_run_keeps_the_paper_invariants_at_any_scale(order, n, m, method,
                                                     seed, k):
    spec = ExperimentSpec(n=n, order=order, m=m, sigma=1e-2, seed_rot=seed,
                          seed_noise=seed + 1)
    ts = scaled(make_test_problem(spec)[0], k)
    total = ts.frob_sq()
    res = run(ts, RunConfig(method=method))
    prev = res.f_initial
    for rec in res.records:
        assert rec.f >= prev - 1e-12 * total
        if method == "pc":
            gamma = 2.0 * (math.sin(rec.theta) * math.cos(rec.theta))**2
            assert rec.f - prev >= res.delta0 * gamma - 1e-10 * total
        assert abs(rec.f + rec.offdiag_sq - total) <= 1e-9 * total
        prev = rec.f
    state = res.state
    assert abs(state.f_current + state.offdiag_sq() - total) <= 1e-9 * total
    assert state.orthogonality_error() <= 1e-8
    assert abs(np.linalg.det(state.q) - 1.0) <= 1e-8
    failed = [c for c in verify_invariants(ts, samples=2) if not c.passed]
    assert failed == []


@pytest.mark.xfail(strict=True, reason=(
    "the default stationarity_tol, 1e-10 sqrt(||T||^2), is linear in the "
    "scale and ||Lambda|| quadratic; ROADMAP item 6's tolerance change "
    "must make the path scale-free"))
def test_run_takes_one_path_at_every_scale():
    # c makes 55 rotations unscaled, 53 at x 2^-1, 64 at x 2^7, and at
    # x 2^-300 stops "stationary" after 0
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=5, seed_noise=3)
    tensors, _ = make_test_problem(spec)
    cfg = RunConfig(method="c", max_sweeps=20)
    path = [(r.i, r.j, r.theta) for r in run(tensors, cfg).records]
    for k in (-1, 7, -300):
        assert [(r.i, r.j, r.theta)
                for r in run(scaled(tensors, k), cfg).records] == path


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
# the default start

def path_of(res):
    return [(r.i, r.j, r.theta, r.skipped) for r in res.records]


@pytest.mark.parametrize("order,m", [(2, 2), (3, 1), (3, 2), (4, 1)])
def test_default_start_takes_one_path_at_every_2k_scale(order, m):
    # the start reads the set scaled to max |T| in [1/2, 1): bitwise the
    # same Q0 at x 2^-300, x 1 and x 2^300, and with the stop tolerance
    # scaled as ||Lambda|| (by 4^k), the same pairs, angles and final Q
    ts, _ = make_test_problem(ExperimentSpec(
        n=5, order=order, m=m, sigma=1e-2, seed_rot=order, seed_noise=m))

    def runs(tensors, k):
        return [run(tensors, RunConfig(method=method, max_sweeps=10,
                                       stationarity_tol=1e-20 * 4.0**k))
                for method in ("c", "pc")]

    ref = runs(ts, 0)
    for k in (-300, 300):
        big = scaled(ts, k)
        assert np.array_equal(contracted_start(big), contracted_start(ts))
        for res, want in zip(runs(big, k), ref):
            assert res.start == "contracted" and res.state.rotation_count > 0
            assert path_of(res) == path_of(want)
            assert np.array_equal(res.state.q, want.state.q)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_default_start_just_under_the_squared_norm_bound(order):
    # a set scaled by 2^k to just under MAX_SQ_NORM gets the unscaled Q0
    # and runs every method without a warning
    ts = noisy_problem(order, n=5, sigma=1e-1)
    k = math.floor(math.log2(MAX_SQ_NORM[order] / ts.frob_sq()) / 2)
    big = scaled(ts, k)
    assert MAX_SQ_NORM[order] / 4 < big.frob_sq() <= MAX_SQ_NORM[order]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(contracted_start(big), contracted_start(ts))
        for method in sweeps.METHODS:
            res = run(big, RunConfig(method=method, max_sweeps=3))
            assert res.start == "contracted"
            assert res.state.f_current <= big.frob_sq()


@pytest.mark.parametrize("order", [2, 3, 4])
def test_default_start_of_a_diagonal_set_is_a_signed_permutation(order):
    # a diagonal M's eigenvectors are exactly a signed permutation, which
    # keeps the set exactly diagonal: Lambda is 0 and no pair is rotated;
    # at m = 2 too, and with tied and zero diagonal entries
    values = [3.0, -1.0, 2.0, 0.5, -2.0, 0.0]
    sets = [TensorSet.from_diagonal(values, order),
            TensorSet([TensorSet.from_diagonal(v, order).stack[0]
                       for v in (values, [1.0, 1.0, -2.0, 0.0, 0.0, 4.0])])]
    for ts in sets:
        q0 = contracted_start(ts)
        assert set(np.abs(q0).ravel().tolist()) == {0.0, 1.0}
        assert (np.abs(q0).sum(axis=0) == 1.0).all()
        assert (np.abs(q0).sum(axis=1) == 1.0).all()
        assert np.linalg.det(q0) == 1.0
        for method in sweeps.METHODS:
            res = run(ts, RunConfig(method=method))
            assert (res.stop_reason, res.state.rotation_count,
                    res.records) == ("stationary", 0, [])
            assert res.summary()["offdiag_sq"] == 0.0


@pytest.mark.parametrize("method", sweeps.METHODS)
def test_default_start_diagonalizes_one_matrix_without_a_rotation(method):
    # at d = 2, m = 1, M is the matrix itself (times u): its eigenvectors
    # leave Lambda at rounding, far below the default tolerance
    ts = noisy_problem(2, sigma=1e-2)
    res = run(ts, RunConfig(method=method))
    assert res.stop_reason == "stationary"
    assert res.state.rotation_count == 0 and res.records == []
    summary = res.summary()
    assert (summary["start"], summary["rotations"]) == ("contracted", 0)
    assert summary["offdiag_sq"] <= 1e-28 * ts.frob_sq()


def test_identity_q0_is_the_identity_start():
    # RotationState builds its set only as source.rotated_by(q0), so
    # q0 = I is the one identity start: rotating by I reproduces packed
    # bitwise, and the run is the identity-start run (test_row_updated_
    # lambda_matches_a_recompute_before_every_visit compares its records
    # with a loop from I)
    for order, m in itertools.product((2, 3, 4), (1, 3)):
        ts, _ = make_test_problem(ExperimentSpec(
            n=6, order=order, m=m, sigma=1e-2, seed_rot=order, seed_noise=m))
        assert np.array_equal(RotationState(ts, np.eye(6)).tensors.packed,
                              ts.packed)
        res = run(ts, RunConfig(max_sweeps=1), q0=np.eye(6))
        assert res.start == res.summary()["start"] == "given"
        assert (res.records[0].i, res.records[0].j) == (0, 1)


def test_wall_ms_counts_the_default_start(monkeypatch):
    # the clock is read before the start is built, so a start that takes
    # 50 ms shows in the first record's wall_ms and in the summary's
    def slow_start(tensors):
        time.sleep(0.05)
        return contracted_start(tensors)

    monkeypatch.setattr(sweeps, "contracted_start", slow_start)
    res = run(noisy_problem(3, sigma=1e-2), RunConfig(max_sweeps=1))
    assert res.start == "contracted" and res.records
    assert res.records[0].wall_ms >= 50.0
    assert res.summary()["wall_ms"] >= res.records[0].wall_ms


@pytest.mark.parametrize("method", sweeps.METHODS)
def test_row_updated_lambda_matches_a_recompute_from_the_default_start(
        method):
    # the row update from Q0 = contracted_start, against a loop that
    # recomputes Lambda before every visit from that Q0
    for order, m in ((2, 3), (3, 1), (4, 2)):
        ts, _ = make_test_problem(ExperimentSpec(
            n=6, order=order, m=m, sigma=1e-2, seed_rot=order,
            seed_noise=m, profile="linear"))
        res = run(ts, RunConfig(method=method, thresh=1e-6, max_sweeps=30))
        assert res.state.rotation_count > 0
        visits, reason, state = run_recomputing_lambda(
            ts, res, contracted_start(ts))
        assert [(r.sweep, r.i, r.j, r.theta, r.skipped, r.lambda_norm)
                for r in res.records] == visits
        assert res.stop_reason == reason
        assert np.array_equal(res.state.q, state.q)


@pytest.mark.parametrize("order,m,slices", [
    (2, 3, False), (3, 2, False), (4, 3, False), (4, 1, True)])
def test_default_start_recovers_a_noise_free_set(order, m, slices):
    # m > 1 members (copies, or the slices of one 4th-order tensor) of one
    # hidden diagonalization: Q0 is the hidden Q up to a signed permutation,
    # and the run from it needs no rotation, where the identity start
    # needs dozens
    ts, q_true = make_test_problem(ExperimentSpec(
        n=6, order=order, m=m, sigma=0.0, profile="linear", seed_rot=3,
        slice_mode=slices))
    assert len(ts) == (6 if slices else m)
    overlap = np.abs(q_true.T @ contracted_start(ts))
    assert sorted(overlap.argmax(axis=0).tolist()) == list(range(6))
    assert overlap.max(axis=0).min() >= 1 - 1e-12
    res = run(ts)
    assert (res.stop_reason, res.state.rotation_count) == ("stationary", 0)
    assert run(ts, q0=np.eye(6)).state.rotation_count > 10


@pytest.mark.parametrize("order,m", [(3, 1), (3, 4), (4, 1)])
def test_default_start_needs_fewer_rotations_on_noisy_sets(order, m):
    # the start recovers most of the hidden rotation, and the sweeps from
    # it reach the identity start's objective in fewer rotations
    for seed in range(3):
        ts, _ = make_test_problem(ExperimentSpec(
            n=8, order=order, m=m, sigma=1e-4, profile="linear",
            seed_rot=seed, seed_noise=seed + 10))
        cfg = RunConfig(method="c")
        ours, eye = run(ts, cfg), run(ts, cfg, q0=np.eye(8))
        assert ours.stop_reason == eye.stop_reason == "stationary"
        assert ours.state.rotation_count < eye.state.rotation_count
        assert abs(ours.state.f_current - eye.state.f_current) \
            <= 1e-12 * ts.frob_sq()


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
    # a dense array is run as TensorSet(array), here bitwise ts
    write_trajectory_csv(p2, run(ts.stack[0], cfg))
    strip = lambda p: ["," .join(line.split(",")[:-1])
                       for line in p.read_text().splitlines()]
    assert strip(p1) == strip(p2)
