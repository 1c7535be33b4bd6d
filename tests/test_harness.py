import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from jacobidiag import cli, geometry, harness, symtensor
from jacobidiag.angles import AngleResult
from jacobidiag.harness import (ExperimentSpec, make_diag_tensor,
                                make_test_problem, parse_suite_file,
                                run_benchmark, verify_invariants)
from jacobidiag.sweeps import RunConfig, run
from jacobidiag.symtensor import TensorSet

from reference import dense_symmetrize, dense_symmetry_error, offdiag_sq_norm

VERIFY_CHECKS = ["gradient-fd", "plane-kernel", "lambda-rows", "angle-oracle",
                 "conservation"]


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=1, order=3)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=5)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=3, sigma=-1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=3, slice_mode=True)


@pytest.mark.parametrize("field,kwargs", [
    ("n", dict(n=5.0, order=3)), ("order", dict(n=5, order=3.0)),
    ("m", dict(n=5, order=3, m=2.5)), ("n", dict(n="5", order=3)),
    ("seed_rot", dict(n=5, order=3, seed_rot=1.5)),
    ("seed_noise", dict(n=5, order=3, seed_noise="2"))])
def test_spec_refuses_non_integral_sizes(field, kwargs):
    # refused where the spec is made, naming the field, not deep inside
    # make_test_problem; numpy integers are integers
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ExperimentSpec(**kwargs)
    spec = ExperimentSpec(n=np.int64(5), order=np.int32(3), m=np.int64(2),
                          sigma=1e-3, seed_rot=np.int64(0),
                          seed_noise=np.int32(4))
    assert len(make_test_problem(spec)[0]) == 2


@pytest.mark.parametrize("field", ["seed_rot", "seed_noise"])
def test_spec_refuses_negative_seeds(field):
    # refused by name, not by NumPy's generator inside make_test_problem
    with pytest.raises(ValueError,
                       match=f"^{field} must be a non-negative integer$"):
        ExperimentSpec(n=5, order=3, **{field: -1})


def test_slice_mode_refuses_m_other_than_1():
    # the n slices are the set: an m would be silently dropped
    with pytest.raises(ValueError, match="m = 3"):
        ExperimentSpec(n=4, order=4, m=3, slice_mode=True)
    assert ExperimentSpec(n=4, order=4, m=1, slice_mode=True).m == 1


def test_equal_profile_diagonal():
    spec = ExperimentSpec(n=10, order=3, profile="equal")
    d = make_diag_tensor(spec)
    assert np.allclose(d.packed[:d.dim].T[0], 1.0 / math.sqrt(10.0),
                       rtol=0, atol=0)
    assert d.frob_sq() == pytest.approx(1.0, rel=1e-14)
    assert offdiag_sq_norm(d) == 0.0


def test_linear_profile_diagonal():
    spec = ExperimentSpec(n=10, order=4, profile="linear")
    d = make_diag_tensor(spec)
    expect = np.arange(1, 11) / math.sqrt(385.0)
    assert np.allclose(d.packed[:d.dim].T[0], expect, rtol=1e-15)
    assert d.frob_sq() == pytest.approx(1.0, rel=1e-14)


def test_unknown_profile():
    with pytest.raises(ValueError,
                       match="^profile must be 'equal' or 'linear', got "
                             "'cubic'$"):
        ExperimentSpec(n=4, order=2, profile="cubic")
    # frozen: a field cannot be set after the checks, past them; every
    # field is immutable, so a spec hashes
    spec = ExperimentSpec(n=4, order=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.profile = "cubic"
    assert hash(spec) == hash(ExperimentSpec(n=4, order=2))


@pytest.mark.parametrize("profile", [
    "flat", [1.0, 2.0], [0.0, 0.0, 0.0], [math.nan, 1.0, 2.0],
    [math.inf, 1.0, 2.0], ["a", "b", "c"], [{}, 1.0, 2.0], None,
    [1.0, 2.0, 2.0], np.array([1.0, 2.0, 2.0]), ["equal"]])
def test_spec_refuses_bad_profile_when_made(profile):
    # refused by name where the spec is made, before make_diag_tensor
    # sees it: a profile is one of two names, never values that could be
    # changed after the check
    with pytest.raises(ValueError,
                       match="^profile must be 'equal' or 'linear', got "):
        ExperimentSpec(n=3, order=2, profile=profile)


@pytest.mark.parametrize("sigma", ["1e-3", None, 1j])
def test_spec_refuses_non_numeric_sigma_by_name(sigma):
    with pytest.raises(ValueError,
                       match="^sigma must be finite and nonnegative, got "):
        ExperimentSpec(n=5, order=3, sigma=sigma)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_overflowing_noise_is_refused_by_name(order):
    # sigma * draw overflows: refused naming sigma, with no RuntimeWarning
    spec = ExperimentSpec(n=3, order=order, m=2, sigma=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^sigma = 1e[+]308 overflows"):
            make_test_problem(spec)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_noise_free_problem_recovers_exactly(order):
    spec = ExperimentSpec(n=6, order=order, sigma=0.0, seed_rot=4)
    tensors, q_true = make_test_problem(spec)
    rotated = tensors.rotated_by(q_true)
    assert offdiag_sq_norm(rotated) <= 1e-20 * tensors.frob_sq()


def test_problem_determinism_and_noise_seeds():
    spec = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=1, seed_noise=2)
    a1, q1 = make_test_problem(spec)
    a2, q2 = make_test_problem(spec)
    assert np.array_equal(a1.stack, a2.stack)
    assert np.array_equal(q1, q2)
    other = ExperimentSpec(n=5, order=3, sigma=1e-2, seed_rot=1, seed_noise=3)
    b, _ = make_test_problem(other)
    assert not np.array_equal(a1.stack, b.stack)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_noise_averages_each_draw_in_permutation_order(order, m):
    # member k is the noise-free base plus the k-th seed_noise draw summed
    # over its d! transposes in itertools.permutations order, over d!: the
    # recipe of perfbench/problems.py, bit for bit
    spec = ExperimentSpec(n=5, order=order, m=m, sigma=1e-3, seed_rot=3,
                          seed_noise=8)
    tensors, _ = make_test_problem(spec)
    clean = dataclasses.replace(spec, m=1, sigma=0.0)
    base = make_test_problem(clean)[0].stack[0]
    rng = np.random.default_rng(spec.seed_noise)
    expected = np.stack([
        base + dense_symmetrize(spec.sigma * rng.standard_normal(base.shape))
        for _ in range(m)])
    assert tensors.stack.tobytes() == expected.tobytes()


def test_multi_tensor_problem_shares_rotation():
    spec = ExperimentSpec(n=5, order=3, m=3, sigma=1e-3, seed_rot=6)
    tensors, q_true = make_test_problem(spec)
    assert len(tensors) == 3
    # all members are near-diagonal in the ground-truth frame
    rotated = tensors.rotated_by(q_true)
    for ell in range(3):
        t = TensorSet(rotated.stack[ell])
        assert offdiag_sq_norm(t) <= 1e-3 * t.frob_sq()


def test_slice_mode_consistency():
    spec = ExperimentSpec(n=6, order=4, sigma=1e-2, seed_rot=2, seed_noise=3,
                          slice_mode=True)
    slices, q_true = make_test_problem(spec)
    assert len(slices) == 6 and slices.order == 3
    parent, _ = make_test_problem(
        ExperimentSpec(n=6, order=4, sigma=1e-2, seed_rot=2, seed_noise=3))
    for i in range(6):
        assert np.array_equal(slices.stack[i], parent.stack[0][..., i])
        assert dense_symmetry_error(slices.stack[i]) == 0.0
    assert slices.frob_sq() == pytest.approx(parent.frob_sq(), rel=1e-14)
    # noise-free slices share the diagonalizer
    clean, q0 = make_test_problem(
        ExperimentSpec(n=6, order=4, sigma=0.0, seed_rot=2, slice_mode=True))
    assert offdiag_sq_norm(clean.rotated_by(q0)) <= 1e-20 * clean.frob_sq()


# ---------------------------------------------------------------------------
# suites and benchmark fan-out

def test_parse_suite_file(tmp_path):
    p = tmp_path / "suite.cfg"
    p.write_text(
        "# comparison suite\n"
        "algo=c\n"
        "\n"
        "algo=g eps=0.02 name=grad-small\n"
        "algo=pc delta0=1e-3 max-sweeps=40 tol=1e-9\n"
        "algo=cthresh thresh=1e-8\n")
    configs = parse_suite_file(p)
    assert [c.method for c in configs] == ["c", "g", "pc", "cthresh"]
    assert configs[3].label == "cthresh-thresh=1e-08"
    assert configs[1].eps == 0.02 and configs[1].label == "grad-small"
    assert configs[2].max_sweeps == 40
    assert configs[2].stationarity_tol == 1e-9

    p.write_text("algo=c foo=1\n")
    with pytest.raises(ValueError):
        parse_suite_file(p)
    p.write_text("eps=0.1\n")
    with pytest.raises(ValueError):
        parse_suite_file(p)
    p.write_text("# nothing\n")
    with pytest.raises(ValueError):
        parse_suite_file(p)


# (suite line, message): each is refused with the file and line, by
# parse_suite_file here and by `bench` with exit 2 in tests/test_cli.py
SUITE_VALUE_ERRORS = [("algo=c max-sweeps=abc", "invalid literal for int()"),
                      ("algo=c eps=abc", "eps=abc: could not convert string"),
                      ("algo=c max-sweeps=2.5",
                       "max-sweeps=2.5: invalid literal for int()"),
                      ("algo=zz", "unknown method 'zz'"),
                      ("algo=c eps=nan", "eps must be finite"),
                      ("algo=c record-every=0", "record_every must be >= 1"),
                      ("algo=c max-sweeps=5 max_sweeps=50",
                       "max_sweeps is set twice (by 'max_sweeps')"),
                      ("algo=c record_every=2 record-every=3",
                       "record_every is set twice (by 'record-every')"),
                      ("algo=c algo=g", "method is set twice (by 'algo')"),
                      ("algo=c eps", "expected key=value, got 'eps'"),
                      ("algo=cthresh thresh=0",
                       "thresh must be positive for cthresh")]


@pytest.mark.parametrize("line,message", SUITE_VALUE_ERRORS)
def test_suite_value_errors_name_file_and_line(tmp_path, line, message):
    p = tmp_path / "suite.cfg"
    p.write_text(f"# suite\nalgo=c\n{line}\n")
    with pytest.raises(ValueError) as exc:
        parse_suite_file(p)
    assert str(exc.value).startswith(f"{p}:3: ")
    assert message in str(exc.value)


@pytest.mark.parametrize("names", [(None, None), ("a/b", "a_b")])
def test_run_benchmark_refuses_clashing_labels_before_any_run(
        tmp_path, monkeypatch, names):
    # equal labels, or labels that make one CSV name, would leave one run's
    # trajectory and results entry in place of the other's
    tensors, _ = make_test_problem(ExperimentSpec(n=4, order=3, sigma=1e-3))
    configs = [RunConfig("c", max_sweeps=1, name=names[0]),
               RunConfig("c", max_sweeps=50, name=names[1])]
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args, **kw: calls.append(1))
    labels = [cfg.label for cfg in configs]
    with pytest.raises(ValueError, match=re.escape(f"{labels[0]!r} and "
                                                   f"{labels[1]!r}")):
        run_benchmark(tensors, configs, outdir=tmp_path / "out")
    assert calls == [] and not (tmp_path / "out").exists()


def test_run_benchmark_reports_and_csv(tmp_path, monkeypatch):
    # a row is the run's summary() plus its CSV; a failed run's row holds
    # only label, method and error, and the later configs still run
    spec = ExperimentSpec(n=5, order=3, sigma=1e-3, seed_rot=8, seed_noise=9)
    tensors, _ = make_test_problem(spec)
    configs = [RunConfig("c", max_sweeps=30, name="plain"),
               RunConfig("g", eps=1.0, name="broken"),
               RunConfig("pc", delta0=1e-3, max_sweeps=30, name="prox")]
    results = []

    def kept_run(*args, **kw):
        results.append(run(*args, **kw))
        return results[-1]

    monkeypatch.setattr(harness, "run", kept_run)
    rows = run_benchmark(tensors, configs, outdir=tmp_path)
    assert [r["label"] for r in rows] == ["plain", "broken", "prox"]
    assert set(rows[1]) == {"label", "method", "error"}
    assert rows[1]["method"] == "g" and "eps" in rows[1]["error"]
    for row, res in zip((rows[0], rows[2]), results):
        assert row == {**res.summary(), "csv_path": str(
            tmp_path / f"{row['label']}.csv")}
        assert row["offdiag_sq"] == res.state.offdiag_sq()
        assert row["sweeps"] == res.sweeps_used
        assert (tmp_path / f"{row['label']}.csv").exists()


def test_run_benchmark_labels_show_delta0_for_every_method(tmp_path):
    # a delta0 penalizes every method, so a c run with one is not plain c
    # and must not share its label and CSV name
    tensors, _ = make_test_problem(ExperimentSpec(n=4, order=3, sigma=1e-3))
    configs = [RunConfig("c", max_sweeps=2),
               RunConfig("c", delta0=1e-3, max_sweeps=2)]
    rows = run_benchmark(tensors, configs, outdir=tmp_path)
    assert [r["label"] for r in rows] == ["c", "c-delta0=0.001"]
    assert all("error" not in r for r in rows)
    paths = [r["csv_path"] for r in rows]
    assert paths == [str(tmp_path / "c.csv"),
                     str(tmp_path / "c-delta0_0.001.csv")]
    assert open(paths[0]).read() != open(paths[1]).read()


def test_verify_invariants_pass_on_clean_problem():
    spec = ExperimentSpec(n=5, order=3, m=2, sigma=1e-2, seed_rot=10,
                          seed_noise=11)
    tensors, _ = make_test_problem(spec)
    checks = verify_invariants(tensors, samples=10)
    assert checks and all(c.passed for c in checks)
    assert [c.name for c in checks] == VERIFY_CHECKS
    # dense members are checked as TensorSet(members), here bitwise tensors
    assert verify_invariants(list(tensors.stack), samples=10) == checks


@pytest.mark.parametrize("order,m,slice_mode", [
    (2, 3, False), (3, 1, False), (4, 2, False),
    (4, 1, True),     # the n = 4 third-order slices of a 4th-order tensor
], ids=["2-3", "3-1", "4-2", "4-slices"])
def test_verify_invariants_at_every_order(order, m, slice_mode):
    # every order runs the same five checks, in order, and each verdict is
    # a Python bool, so a list of checks goes through json.dumps
    spec = ExperimentSpec(n=4, order=order, m=m, sigma=1e-2, seed_rot=12,
                          seed_noise=13, slice_mode=slice_mode)
    tensors, _ = make_test_problem(spec)
    checks = verify_invariants(tensors, samples=6)
    assert [c.name for c in checks] == VERIFY_CHECKS
    assert all(type(c.passed) is bool and c.passed for c in checks)
    json.dumps([dataclasses.asdict(c) for c in checks])


def test_verify_gradient_fd_reads_the_same_at_every_scale():
    # an equal-profile matrix is rotation invariant, so h'(0) is the
    # noise's alone, ~1e-4 ||T||^2, and the difference quotient's rounding
    # ~1e-11 ||T||^2: relative to 1 + |h'(0)| it failed from 2^11 on and
    # read ~1e-311 at 2^-498
    spec = ExperimentSpec(n=2, order=2, sigma=1e-2, seed_rot=14,
                          seed_noise=15)
    tensors, _ = make_test_problem(spec)
    want = verify_invariants(tensors, samples=2)[0]
    assert want.passed
    for k in (-498, 11, 498):
        big = TensorSet._from_packed(2.0**k * tensors.packed, 2, 2)
        assert verify_invariants(big, samples=2)[0] == want


def scaled_problem(k):
    """A (4, 4, 1) problem times 2^k, exactly."""
    tensors, _ = make_test_problem(ExperimentSpec(
        n=4, order=4, sigma=1e-2, seed_rot=16, seed_noise=17))
    return TensorSet._from_packed(2.0**k * tensors.packed, 4, 4)


def test_verify_reads_the_same_at_every_scale():
    # every gap is relative to ||T||^2 (the kernel's to ||T||_F), and the
    # oracle's flatness and tie tests are relative to the view, so a scale
    # by 2^k changes no reading
    want = verify_invariants(scaled_problem(0), samples=6)
    assert all(c.passed for c in want)
    for k in (-300, 300):
        assert verify_invariants(scaled_problem(k), samples=6) == want


@pytest.mark.parametrize("k", [0, -300])
def test_verify_angle_oracle_fails_a_zero_angle_at_every_scale(monkeypatch,
                                                                k):
    # an angle step stuck at 0 fails at any scale: a flatness test in
    # absolute units of h~ calls every view flat below ||T|| ~ 2^-30, and
    # the grid search then returns theta = 0 too
    monkeypatch.setattr(harness, "best_angle",
                        lambda view: AngleResult(0.0, 0.0))
    checks = {c.name: c for c in verify_invariants(scaled_problem(k),
                                                   samples=6)}
    assert not checks["angle-oracle"].passed
    assert all(c.passed for name, c in checks.items()
               if name != "angle-oracle")


def test_verify_invariants_builds_no_solver_state(monkeypatch):
    # verify checks rotated copies of the set, not the solver's iterate
    spec = ExperimentSpec(n=5, order=3, m=2, sigma=1e-2, seed_rot=10,
                          seed_noise=11)
    tensors, _ = make_test_problem(spec)

    def refuse(self, *args, **kwargs):
        raise AssertionError("verify_invariants built a RotationState")

    monkeypatch.setattr(geometry.RotationState, "__init__", refuse)
    assert all(c.passed for c in verify_invariants(tensors, samples=6))


def flip_s1(monkeypatch, order):
    """Corrupt the plane kernel: S_1, the map of the entries with one index
    in {i, j}, rotates the wrong way."""
    table = symtensor._POWER_TABLE[order].copy()
    table[:(order + 1) ** 2] *= -1
    monkeypatch.setitem(symtensor._POWER_TABLE, order, table)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_verify_invariants_fails_a_corrupted_plane_kernel(monkeypatch,
                                                          order):
    spec = ExperimentSpec(n=5, order=order, m=2, sigma=1e-2, seed_rot=3,
                          seed_noise=4)
    tensors, _ = make_test_problem(spec)
    flip_s1(monkeypatch, order)
    checks = {c.name: c for c in verify_invariants(tensors, samples=6)}
    assert not checks["plane-kernel"].passed


def test_cli_verify_exits_3_on_a_corrupted_plane_kernel(tmp_path, monkeypatch,
                                                        capsys):
    # the README problem passes, and fails once the kernel is corrupted
    path = str(tmp_path / "problem.st")
    assert cli.main(["gen", "--n", "10", "--d", "3", "--profile", "equal",
                     "--sigma", "1e-4", "--seed-rot", "0", "--seed-noise",
                     "1", "--out", path]) == 0
    assert cli.main(["verify", "--in", path]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()[-5:]] == [
        "PASS gradient-fd", "PASS plane-kernel", "PASS lambda-rows",
        "PASS angle-oracle", "PASS conservation"]
    flip_s1(monkeypatch, 3)
    assert cli.main(["verify", "--in", path]) == 3
    assert "FAIL plane-kernel" in capsys.readouterr().out


def drop_last_row(monkeypatch):
    """Corrupt the Lambda row update: every pair's update skips the last
    of its 2n - 3 entries."""
    tables = harness._lambda_rows

    def broken(order, dim):
        return tuple((rows[:-1], positions[:, :-1])
                     for rows, positions in tables(order, dim))

    monkeypatch.setattr(harness, "_lambda_rows", broken)


@pytest.mark.parametrize("order,m", [(2, 1), (3, 2), (4, 1)])
def test_verify_invariants_fails_a_broken_lambda_row_update(monkeypatch,
                                                            order, m):
    spec = ExperimentSpec(n=5, order=order, m=m, sigma=1e-2, seed_rot=3,
                          seed_noise=4)
    tensors, _ = make_test_problem(spec)
    drop_last_row(monkeypatch)
    checks = {c.name: c for c in verify_invariants(tensors, samples=6)}
    assert not checks["lambda-rows"].passed
    assert checks["lambda-rows"].detail.startswith("6 of 6 ")
    assert all(c.passed for name, c in checks.items() if name != "lambda-rows")


@pytest.mark.parametrize("kwargs,message", [
    (dict(samples=2.5), "samples must be an integer"),
    (dict(seed=-3), "seed must be a non-negative integer"),
    (dict(seed=1.5), "seed must be an integer")])
def test_verify_invariants_refuses_bad_samples_and_seed(monkeypatch, kwargs,
                                                        message):
    # refused by name before any check: no set is even rotated
    tensors, _ = make_test_problem(ExperimentSpec(n=4, order=3, sigma=1e-3))
    monkeypatch.setattr(TensorSet, "rotated_by", None)
    with pytest.raises(ValueError, match=f"^{message}"):
        verify_invariants(tensors, **kwargs)


@pytest.mark.parametrize("k", [511, 510])
def test_verify_invariants_refuses_a_set_whose_omega_can_overflow(k):
    # ||T||^2 = 4.6e307 and 1.1e307, above the d = 4 bound 8.7e305: refused
    # before the first sample, as run refuses it, with no overflow warning
    spec = ExperimentSpec(n=5, order=4, sigma=1e-2, seed_rot=5, seed_noise=3)
    big = TensorSet(2.0**k * make_test_problem(spec)[0].stack[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\|\|T\|\|\^2 = .* exceeds "
                           r"8\.710e\+305, .*; rescale the input"):
            verify_invariants(big, samples=3)
