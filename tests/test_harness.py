import math
import re
import warnings

import numpy as np
import pytest

from jacobidiag import harness
from jacobidiag.harness import (ExperimentSpec, make_diag_tensor,
                                make_test_problem, parse_suite_file,
                                run_benchmark, verify_invariants)
from jacobidiag.oracle import offdiag_sq_norm
from jacobidiag.sweeps import RunConfig, run
from jacobidiag.symtensor import TensorSet, symmetry_error


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=1, order=3)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=5)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=3, sigma=-1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=3, slice_mode=True)


def test_slice_mode_refuses_m_other_than_1():
    # the n slices are the set: an m would be silently dropped
    with pytest.raises(ValueError, match="m = 3"):
        ExperimentSpec(n=4, order=4, m=3, slice_mode=True)
    assert ExperimentSpec(n=4, order=4, m=1, slice_mode=True).m == 1


def test_equal_profile_diagonal():
    spec = ExperimentSpec(n=10, order=3, profile="equal")
    d = make_diag_tensor(spec)
    assert np.allclose(d.diags()[0], 1.0 / math.sqrt(10.0), rtol=0, atol=0)
    assert d.frob_sq() == pytest.approx(1.0, rel=1e-14)
    assert offdiag_sq_norm(d) == 0.0


def test_linear_profile_diagonal():
    spec = ExperimentSpec(n=10, order=4, profile="linear")
    d = make_diag_tensor(spec)
    expect = np.arange(1, 11) / math.sqrt(385.0)
    assert np.allclose(d.diags()[0], expect, rtol=1e-15)
    assert d.frob_sq() == pytest.approx(1.0, rel=1e-14)


def test_custom_profile():
    spec = ExperimentSpec(n=3, order=2, profile=[1.0, 2.0, 2.0])
    d = make_diag_tensor(spec)
    assert np.array_equal(d.diags()[0], [1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        make_diag_tensor(ExperimentSpec(n=3, order=2, profile=[0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        make_diag_tensor(ExperimentSpec(n=3, order=2, profile=[1.0, 2.0]))


def test_unknown_profile():
    with pytest.raises(ValueError):
        make_diag_tensor(ExperimentSpec(n=4, order=2, profile="cubic"))


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
        assert symmetry_error(slices.stack[i]) == 0.0
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
        "algo=pc delta0=1e-3 max-sweeps=40 tol=1e-9\n")
    configs = parse_suite_file(p)
    assert [c.method for c in configs] == ["c", "g", "pc"]
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


SUITE_VALUE_ERRORS = [("algo=c max-sweeps=abc", "invalid literal for int()"),
                      ("algo=zz", "unknown method 'zz'"),
                      ("algo=c eps=nan", "eps must be finite"),
                      ("algo=c record-every=0", "record_every must be >= 1")]


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
    without_dir = run_benchmark(tensors, configs[:1])
    assert without_dir[0]["csv_path"] is None


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
    names = {c.name for c in checks}
    assert {"gradient-fd", "tau-identities", "angle-oracle",
            "conservation"} <= names


def test_verify_invariants_order4_skips_identities():
    spec = ExperimentSpec(n=4, order=4, sigma=1e-2, seed_rot=12, seed_noise=13)
    tensors, _ = make_test_problem(spec)
    checks = verify_invariants(tensors, samples=6)
    assert all(c.passed for c in checks)
    assert "tau-identities" not in {c.name for c in checks}


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
