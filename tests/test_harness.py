import math

import numpy as np
import pytest

from jacobidiag.harness import (ExperimentSpec, make_diag_tensor,
                                make_test_problem, parse_suite_file,
                                run_benchmark, verify_invariants)
from jacobidiag.sweeps import RunConfig
from jacobidiag.symtensor import symmetry_error


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=1, order=3)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=5)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=3, sigma=-1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=5, order=3, slice_mode=True)


def test_equal_profile_diagonal():
    spec = ExperimentSpec(n=10, order=3, profile="equal")
    d = make_diag_tensor(spec)
    assert np.allclose(d.diags()[0], 1.0 / math.sqrt(10.0), rtol=0, atol=0)
    assert d.frob_sq() == pytest.approx(1.0, rel=1e-14)
    assert d.offdiag_sq_norm() == 0.0


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
    assert rotated.offdiag_sq_norm() <= 1e-20 * tensors.frob_sq()


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
        t = rotated[ell]
        assert t.offdiag_sq_norm() <= 1e-3 * t.frob_sq()


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
    assert clean.rotated_by(q0).offdiag_sq_norm() <= 1e-20 * clean.frob_sq()


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


def test_run_benchmark_reports_and_csv(tmp_path):
    spec = ExperimentSpec(n=5, order=3, sigma=1e-3, seed_rot=8, seed_noise=9)
    tensors, _ = make_test_problem(spec)
    configs = [RunConfig("c", max_sweeps=30, name="plain"),
               RunConfig("pc", delta0=1e-3, max_sweeps=30, name="prox"),
               RunConfig("g", eps=1.0, name="broken")]
    report, results = run_benchmark(tensors, configs, outdir=tmp_path)
    assert [r.label for r in report.runs] == ["plain", "prox", "broken"]
    ok = [r for r in report.runs if r.error is None]
    assert len(ok) == 2
    for entry in ok:
        res = results[entry.label]
        assert entry.final_f == res.records[-1].f
        assert entry.offdiag_sq == res.records[-1].offdiag_sq
        assert entry.sweeps == res.sweeps_used
        assert (tmp_path / f"{entry.label}.csv").exists()
    broken = report.runs[2]
    assert broken.error is not None and "eps" in broken.error
    report.to_json(tmp_path / "report.json")
    assert (tmp_path / "report.json").exists()


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
