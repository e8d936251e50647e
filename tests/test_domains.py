import math
import warnings

import numpy as np
import pytest

from indmom import (ExtensionParam, JacobiCoefficients, RootScanConfig,
                    SeqVector, TruncationPolicy,
                    build_measure, extension_generator, membership_DT,
                    membership_DTt, nev, nev_one, nevanlinna_line,
                    p_vector, pair_coefficient, q_vector, residues,
                    resolvent_combination, s_r_coefficients, xi_apply)
from indmom.domains import second_basepoint
from indmom.errors import BasepointError, InconclusiveMembershipError
from indmom.evaluation import evaluator_for

Z0 = 1j
TOL = 1e-7


@pytest.fixture(scope="module")
def measure_t1(src, pol):
    return build_measure(src, ExtensionParam.finite(1.0),
                         RootScanConfig(window=(-5.0, 5.0)), pol,
                         auto_window=True)


@pytest.fixture(scope="module")
def d_pair(src, pol):
    """Root-found (u, v) with D(u, v) = 0 and the coefficient B(u, v)."""
    v = 1.3
    zeros = nevanlinna_line(evaluator_for(src, pol), "D", v).nodes()
    cands = zeros[np.abs(zeros - v) > 1e-6]
    u = float(cands[np.argmin(np.abs(cands - v))])
    alpha = pair_coefficient(src, u, v, pol, "pp", tol=1e-6)
    assert alpha is not None
    return u, v, alpha


class TestResidues:
    def test_p_basepoint_gives_one_zero(self, src, pol):
        r = residues(src, p_vector(src, Z0, pol), Z0, pol)
        assert r.alpha == pytest.approx(1.0, abs=1e-10)
        assert abs(r.beta) < 1e-10

    def test_q_basepoint_beta_formula(self, src, pol):
        r = residues(src, q_vector(src, Z0, pol), Z0, pol)
        n2 = evaluator_for(src, pol).table(Z0).norm_p2
        assert r.beta == pytest.approx(-1.0 / (2j * n2), abs=1e-10)

    def test_xi_output_has_zero_residues(self, src, pol):
        rng = np.random.default_rng(31)
        c = SeqVector(np.concatenate([[0.0], rng.normal(size=20)
                                      + 1j * rng.normal(size=20)]))
        xi = xi_apply(src, c, Z0, pol)
        r = residues(src, xi, Z0, pol)
        assert max(abs(r.alpha), abs(r.beta)) < 1e-10

    def test_rejects_lower_half_plane(self, src, pol):
        with pytest.raises(BasepointError):
            residues(src, SeqVector.basis(0), -1j, pol)

    def test_linearity(self, src, pol):
        rng = np.random.default_rng(32)
        v = SeqVector(rng.normal(size=8) + 1j * rng.normal(size=8))
        w = SeqVector(rng.normal(size=12) + 1j * rng.normal(size=12))
        a, b = 1.3 - 0.2j, -0.7 + 1.1j
        combo = SeqVector(a * v.padded(12) + b * w.entries)
        rv = residues(src, v, Z0, pol)
        rw = residues(src, w, Z0, pol)
        rc = residues(src, combo, Z0, pol)
        assert rc.alpha == pytest.approx(a * rv.alpha + b * rw.alpha, abs=1e-12)
        assert rc.beta == pytest.approx(a * rv.beta + b * rw.beta, abs=1e-12)

    def test_conjugation_swaps_coefficients(self, src, pol):
        vec = p_vector(src, 0.8 + 0.6j, pol)
        r = residues(src, vec, Z0, pol)
        rbar = residues(src, SeqVector(np.conj(vec.entries)), Z0, pol)
        assert rbar.alpha == pytest.approx(np.conj(r.beta), abs=1e-12)
        assert rbar.beta == pytest.approx(np.conj(r.alpha), abs=1e-12)

    def test_real_lambda_has_conjugate_pair(self, src, pol):
        r = residues(src, p_vector(src, 0.9, pol), Z0, pol)
        assert abs(r.alpha) == pytest.approx(abs(r.beta), rel=1e-8)
        assert abs(r.alpha) > 1e-3


class TestSRCoefficients:
    def test_at_basepoint(self, src, pol):
        s_plus, s_minus, _, _ = s_r_coefficients(src, Z0, Z0, pol)
        assert s_plus == pytest.approx(1.0, abs=1e-12)
        assert abs(s_minus) < 1e-12

    def test_at_conjugate_basepoint(self, src, pol):
        s_plus, s_minus, _, _ = s_r_coefficients(src, -Z0, Z0, pol)
        assert abs(s_plus) < 1e-12
        assert s_minus == pytest.approx(1.0, abs=1e-12)

    def test_real_lambda_conjugate_symmetry(self, src, pol):
        s_plus, s_minus, _, _ = s_r_coefficients(src, 0.7, Z0, pol)
        assert s_minus == pytest.approx(np.conj(s_plus), abs=1e-12)
        assert abs(s_plus) > 0

    def test_matches_residues_of_truncations(self, src, pol):
        lam = 1.2 - 0.8j
        s_plus, s_minus, r_plus, r_minus = s_r_coefficients(src, lam, Z0, pol)
        rp = residues(src, p_vector(src, lam, pol), Z0, pol)
        rq = residues(src, q_vector(src, lam, pol), Z0, pol)
        assert rp.alpha == pytest.approx(s_plus, abs=1e-8)
        assert rp.beta == pytest.approx(s_minus, abs=1e-8)
        assert rq.alpha == pytest.approx(r_plus, abs=1e-8)
        assert rq.beta == pytest.approx(r_minus, abs=1e-8)


class TestMembershipDT:
    def test_finite_vectors_belong(self, src, pol):
        rng = np.random.default_rng(33)
        vec = SeqVector(rng.normal(size=30) + 1j * rng.normal(size=30))
        verdict = membership_DT(src, vec, Z0, TOL, pol)
        assert verdict.in_domain
        assert verdict.residual < 1e-12

    @pytest.mark.parametrize("lam", [0.7, 1 + 1j, -2.0])
    def test_eigen_sequences_do_not(self, src, pol, lam):
        assert not membership_DT(src, p_vector(src, lam, pol), Z0, TOL,
                                 pol).in_domain
        assert not membership_DT(src, q_vector(src, lam, pol), Z0, TOL,
                                 pol).in_domain

    def test_pair_combination_belongs(self, src, pol, d_pair):
        u, v, alpha = d_pair
        vec = SeqVector(p_vector(src, u, pol).entries
                        + alpha * p_vector(src, v, pol).entries)
        verdict = membership_DT(src, vec, Z0, TOL, pol)
        assert verdict.in_domain
        assert verdict.residual < 1e-10

    def test_detuned_pair_fails(self, src, pol, d_pair):
        u, v, alpha = d_pair
        vec = SeqVector(p_vector(src, u, pol).entries
                        + (alpha + 0.25) * p_vector(src, v, pol).entries)
        verdict = membership_DT(src, vec, Z0, TOL, pol)
        assert not verdict.in_domain
        assert verdict.residual > 1e-4

    def test_basepoint_choice_does_not_matter(self, src, pol, d_pair):
        u, v, alpha = d_pair
        vec = SeqVector(p_vector(src, u, pol).entries
                        + alpha * p_vector(src, v, pol).entries)
        for z0 in (Z0, 0.5 + 1.5j, 2j):
            assert membership_DT(src, vec, z0, TOL, pol).in_domain

    def test_tolerance_between_the_basepoints_is_inconclusive(self, src, pol):
        # p_0.7's scaled residuals read 0.2247 at 1j and 0.0791 at 1 + 2j
        vec = p_vector(src, 0.7, pol)
        with pytest.raises(InconclusiveMembershipError, match="inconclusive"):
            membership_DT(src, vec, Z0, 0.1, pol)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, src, pol, tol):
        vec = SeqVector(np.ones(5, dtype=complex))
        with pytest.raises(ValueError, match="finite and positive"):
            membership_DT(src, vec, Z0, tol, pol)
        with pytest.raises(ValueError, match="finite and positive"):
            membership_DTt(src, vec, ExtensionParam.finite(1.0), Z0, tol, pol)

    def test_negative_controls(self, src, pol):
        rng = np.random.default_rng(34)
        found = 0
        while found < 5:
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(nev(src, u, v, pol).D) <= 0.1:
                continue
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            vec = SeqVector(p_vector(src, u, pol).entries
                            + alpha * p_vector(src, v, pol).entries)
            r = residues(src, vec, Z0, pol)
            assert r.scaled() > 1e-4
            found += 1


class TestPairCoefficient:
    def test_diagonal_always_absent(self, src, pol):
        for case in ("pp", "qq", "pq"):
            assert pair_coefficient(src, 0.9, 0.9, pol, case) is None

    def test_pp_returns_positive_for_adjacent(self, src, pol, d_pair):
        u, v, alpha = d_pair
        assert alpha.real > 0
        assert abs(alpha.imag) < 1e-10

    def test_absent_when_gate_nonzero(self, src, pol):
        assert pair_coefficient(src, 0.5, 1.5, pol, "pp") is None

    def test_pq_case_value(self, src, pol):
        # find a real zero u of B(., v): then gamma = -D(u, v)
        v = 0.8
        zeros = nevanlinna_line(evaluator_for(src, pol), "B", v).nodes()
        u = float(zeros[np.argmin(np.abs(zeros - v))])
        gamma = pair_coefficient(src, u, v, pol, "pq", tol=1e-6)
        assert gamma is not None
        vec = SeqVector(p_vector(src, u, pol).entries
                        + gamma * q_vector(src, v, pol).entries)
        assert membership_DT(src, vec, Z0, TOL, pol).in_domain


class TestMembershipDTt:
    def test_p_enters_matching_extension(self, src, pol, measure_t1):
        lam = float(measure_t1.points[np.argmin(np.abs(measure_t1.points - 1.0))])
        vec = p_vector(src, lam, pol)
        t1 = ExtensionParam.finite(1.0)
        assert membership_DTt(src, vec, t1, Z0, TOL, pol).in_domain
        assert not membership_DTt(src, vec, ExtensionParam.finite(0.0),
                                  Z0, TOL, pol).in_domain
        assert not membership_DTt(src, vec, ExtensionParam.infinite(),
                                  Z0, TOL, pol).in_domain

    def test_q_enters_where_a_plus_tc_vanishes(self, src, pol):
        # A(x) + C(x) = 1 + x sum q_k(x) (q_k(0) + p_k(0)) at t = 1
        ev = evaluator_for(src, pol)
        f = nevanlinna_line(ev, "A") + nevanlinna_line(ev, "C")
        lam = float(f.zeros(RootScanConfig(window=(-10.0, 10.0))).zeros[0])
        t1 = ExtensionParam.finite(1.0)
        assert membership_DTt(src, q_vector(src, lam, pol), t1, Z0, TOL,
                              pol).in_domain
        # p and q never share an extension domain
        assert not membership_DTt(src, p_vector(src, lam, pol), t1, Z0, TOL,
                                  pol).in_domain

    def test_generator_belongs(self, src, pol):
        t = ExtensionParam.finite(0.5)
        gen = extension_generator(src, t, pol)
        assert membership_DTt(src, gen, t, Z0, TOL, pol).in_domain

    def test_generator_of_a_huge_t_is_finite_and_belongs(self, pol):
        # with b_0 = 3, q_0 + t p_0 itself overflows at t = 1e308
        src = JacobiCoefficients.explicit(
            [(1.0, 3.0)] + [((n + 1.0) ** 2, 0.0) for n in range(1, 600)])
        t = ExtensionParam.finite(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen = extension_generator(src, t, pol)
            assert np.isfinite(gen.entries).all()
            assert membership_DTt(src, gen, t, Z0, TOL, pol).in_domain


class TestResolventCombination:
    def test_full_chain(self, src, pol, measure_t1):
        t1 = ExtensionParam.finite(1.0)
        rc = resolvent_combination(src, t1, 1 + 1j, measure_t1, pol)
        assert rc.verdict.in_domain
        assert not rc.not_in_closure.in_domain
        assert rc.decomposition.in_domain
        assert rc.decomposition.residual < TOL
        A, B, C, D = nev_one(src, 1 + 1j, pol)
        assert rc.c_coeff == pytest.approx(-1.0 / (B + D), rel=1e-12)

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_huge_t_decomposes(self, src, pol, t):
        tt = ExtensionParam.finite(t)
        mu = build_measure(src, tt, RootScanConfig(window=(-5.0, 5.0)), pol,
                           auto_window=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = resolvent_combination(src, tt, 1 + 1j, mu, pol)
        assert rc.verdict.in_domain and not rc.not_in_closure.in_domain
        assert rc.decomposition.in_domain

    @pytest.mark.parametrize("t", [2.0, -3.5, 1e5, 1e300])
    def test_scaling_leaves_the_decomposition_bitwise(self, src, pol, measure_t1, t):
        # the remainder against one built from c = -1/(B + tD) and
        # q_0 + t p_0 unscaled: the powers of two cancel in c g_t
        rc = resolvent_combination(src, ExtensionParam.finite(t), 1 + 1j,
                                   measure_t1, pol)
        _, B, _, D = nev_one(src, 1 + 1j, pol)
        c = -1.0 / (B + t * D)
        tab = evaluator_for(src, pol).table(0.0)
        gen = np.array(tab.q + t * tab.p, dtype=complex)
        combo = (rc.w * p_vector(src, 1 + 1j, pol).entries
                 + q_vector(src, 1 + 1j, pol).entries)
        plain = membership_DT(src, SeqVector(combo - c * gen), Z0, TOL, pol)
        assert rc.c_coeff == math.ldexp(1.0, math.frexp(t)[1]) * c
        assert rc.decomposition.residual == plain.residual
        assert rc.decomposition.in_domain

    def test_w_uniqueness(self, src, pol, measure_t1):
        t1 = ExtensionParam.finite(1.0)
        rc = resolvent_combination(src, t1, 1 + 1j, measure_t1, pol)
        bad = SeqVector((rc.w + 0.01) * p_vector(src, 1 + 1j, pol).entries
                        + q_vector(src, 1 + 1j, pol).entries)
        assert not membership_DTt(src, bad, t1, Z0, TOL, pol).in_domain


def test_second_basepoint_rule():
    assert second_basepoint(1j) == 1 + 2j
    assert second_basepoint(1 + 2j) == 1j
    assert second_basepoint(0.3 + 0.4j) == 1 + 2j
