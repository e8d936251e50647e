"""Acceptance gate: run every criterion at its stated tolerance.

One test per check, executed against the shared seeded default
configuration; each reports its measured value and passes only at the
spec'd tolerance.  ``pytest -s tests/test_acceptance.py`` prints one
PASS/FAIL line per criterion.
"""

import math

import pytest

from indmom import (JacobiCoefficients, TruncationPolicy, acceptance,
                    evaluation, zeros)
from indmom.acceptance import run_acceptance
from indmom.config import RunConfig
from indmom.errors import (BasepointError, CoefficientFileError,
                           CoefficientRangeError, EvaluationOverflowError,
                           IndmomError, NonConvergenceError, ZeroOnContourError)
from indmom.evaluation import clear_evaluator_cache


@pytest.fixture(scope="module")
def results():
    out = run_acceptance(RunConfig())
    for r in out:
        print(r.line())
    return {r.name: r for r in out}


EXPECTED_CHECKS = [
    "01_determinant_identity",
    "02_series_vs_casorati",
    "03a_three_point_residual",
    "03b_transfer_cocycle",
    "04_pick_property",
    "05_moment_reconstruction_t=0",
    "05_moment_reconstruction_t=1",
    "05_moment_reconstruction_t=inf",
    "06a_support_disjointness",
    "06b_offaxis_zero_counts",
    "07_stieltjes_consistency",
    "08a_membership_positives",
    "08b_membership_negatives",
    "09_adjacent_zero_signs",
    "10a_extension_domain_selects_t",
    "10b_resolvent_combination",
    "11a_resolvent_identity",
    "11b_difference_quotient",
    "11c_kernel_and_norm_bound",
    "11d_xi_range_in_domain",
    "12_truncated_problem_relations",
]


def test_every_check_is_present(results):
    assert sorted(results) == sorted(EXPECTED_CHECKS)


@pytest.mark.parametrize("name", EXPECTED_CHECKS)
def test_criterion(results, name):
    r = results[name]
    assert r.passed, r.line()


ZERO_SET_CHECKS = ["measures", "supports", "stieltjes", "membership", "signs",
                   "extensions"]


@pytest.mark.parametrize("case", ["c=3", "c=4", "c=5", "n_max=301",
                                  "alternating_b"])
def test_zero_set_checks_beyond_the_preset(case, tmp_path):
    if case.startswith("c="):
        config = RunConfig(
            problem=JacobiCoefficients.power_law(float(case[2:])))
    elif case == "n_max=301":
        config = RunConfig(truncation=TruncationPolicy(n_max=301))
    else:
        path = tmp_path / "alternating.txt"
        path.write_text("".join(f"{(n + 1) ** 2} {0.3 * (-1) ** n!r}\n"
                                for n in range(600)))
        config = RunConfig(problem=JacobiCoefficients.from_file(str(path)))
    failed = [r.line() for r in run_acceptance(config, only=ZERO_SET_CHECKS)
              if not r.passed]
    assert not failed


def test_extended_precision_reaches_the_determinant_check(monkeypatch):
    # in double precision 01 reads 3.4e-7 here: |AD| + |BC| reaches 3e9
    config = RunConfig(problem=JacobiCoefficients.power_law(1.2),
                       precision="extended")
    clear_evaluator_cache()
    points = []                                 # one integer recurrence per table
    kernel = evaluation._point_kernel

    def counted(coeffs, z, upto, stats):
        points.append(z)
        return kernel(coeffs, z, upto, stats)

    monkeypatch.setattr(evaluation, "_point_kernel", counted)
    (r,) = run_acceptance(config, only=["determinant"])
    assert r.passed and r.measured < 1e-20, r.line()
    # 20 points, more than an extended evaluator's 16 tables: each built once
    assert len(points) == len(set(points)) == 20


def test_near_point_checks_make_no_full_solve(monkeypatch):
    # 08a, 09 and 10a read the nodes next to a point: bisection slices only
    solves = []
    solve = zeros._tridiagonal_eigvals
    monkeypatch.setattr(zeros, "_tridiagonal_eigvals",
                        lambda d, e: solves.append(len(d)) or solve(d, e))
    build = acceptance._measures_for
    monkeypatch.setattr(acceptance, "_measures_for",
                        lambda cfg: (build(cfg), solves.clear())[0])
    results = run_acceptance(RunConfig(),
                             only=["membership", "signs", "extensions"])
    assert solves == []
    checked = {r.name: r.passed for r in results}
    assert checked["08a_membership_positives"]
    assert checked["09_adjacent_zero_signs"]
    assert checked["10a_extension_domain_selects_t"]


def test_fallback_route_agrees_with_the_blas_route(monkeypatch):
    # without BLAS ztbsv and LAPACK dsterf and dstebz, tables come
    # from the real-arithmetic recurrence, node sets from the dense
    # eigvalsh and nodes near a point from slices of the whole set
    config = RunConfig(truncation=TruncationPolicy(n_max=120))
    blas = run_acceptance(config)
    clear_evaluator_cache()
    monkeypatch.setattr(evaluation, "_ztbsv", lambda: None)
    monkeypatch.setattr(zeros, "_dsterf", lambda: None)
    monkeypatch.setattr(zeros, "_dstebz", lambda: None)
    try:
        fallback = run_acceptance(config)
    finally:
        clear_evaluator_cache()  # no fallback table outlives the test
    assert [r.name for r in fallback] == [r.name for r in blas] == sorted(
        EXPECTED_CHECKS)
    # 04, 06b and 09 have tolerance 0 (sign and count checks): roundoff there
    for b, f in zip(blas, fallback):
        assert b.passed and f.passed, (b.line(), f.line())
        assert abs(f.measured - b.measured) <= (b.tolerance
                                                + 1e-12 * abs(b.measured)), (
            b.line(), f.line())


@pytest.mark.parametrize("error", [EvaluationOverflowError, ZeroOnContourError,
                                   IndmomError])
def test_measures_that_raise_fail_each_group_that_reads_them(monkeypatch, error):
    def fail(config):
        raise error("no measures")

    monkeypatch.setattr(acceptance, "_measures_for", fail)
    results = run_acceptance(RunConfig(truncation=TruncationPolicy(n_max=120)),
                             only=["pick", "measures", "supports", "tilde"])
    assert [r.name for r in results] == ["04_pick_property", "measures_raised",
                                         "supports_raised",
                                         "12_truncated_problem_relations"]
    for r in results[1:3]:
        assert not r.passed and math.isnan(r.measured) and math.isnan(r.tolerance)
        assert r.detail == f"{error.__name__}: no measures"
    assert results[0].passed and results[3].passed


@pytest.mark.parametrize("error", [NonConvergenceError, BasepointError,
                                   CoefficientRangeError, CoefficientFileError])
def test_errors_that_end_a_run_propagate(monkeypatch, error):
    def fail(config):
        raise error("ends the run")

    monkeypatch.setattr(acceptance, "_check_pick", fail)
    with pytest.raises(error):
        run_acceptance(RunConfig(truncation=TruncationPolicy(n_max=120)), only=["pick"])
