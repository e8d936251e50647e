import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmom import (ExtensionParam, F_eval, G_eval, RootScanConfig,
                    SeqVector, TruncationPolicy, bound_suite, build_measure,
                    coeff_matrix, diff_quotient_residual, kernel,
                    membership_DT, nev, p_vector, resolvent_residual,
                    xi_apply)
from indmom.errors import NonConvergenceError
from indmom.evaluation import evaluator_for
from indmom.sequences import apply_jacobi

Z0 = 0.4 + 1.1j


class TestFGEval:
    def test_e0(self, src, pol):
        e0 = SeqVector.basis(0)
        for z in (0.0, 1.7, -2 + 3j):
            assert F_eval(src, e0, z, pol) == 1.0
            assert G_eval(src, e0, z, pol) == 0.0

    def test_e1_is_linear(self, src, pol):
        e1 = SeqVector.basis(1)
        a0, b0 = src.coeffs(0)
        for z in (0.5, 2 - 1j):
            assert F_eval(src, e1, z, pol) == pytest.approx((z - b0) / a0)

    def test_truncated_p_gives_kernel(self, src, pol):
        u, v = 0.6 - 0.2j, -1.1 + 0.4j
        vec = p_vector(src, v, pol)
        k_direct = kernel(src, u, v, pol)
        assert F_eval(src, vec, u, pol) == pytest.approx(k_direct, abs=1e-4)


class TestKernel:
    def test_symmetry(self, src, pol):
        u, v = 0.3 + 0.1j, -1.2
        assert kernel(src, u, v, pol) == kernel(src, v, u, pol)

    def test_positive_on_diagonal(self, src, pol):
        for x in (-2.0, 0.0, 3.5):
            assert kernel(src, x, x, pol).real > 0

    def test_relates_to_d(self, src, pol):
        u, v = 1.4 - 0.7j, -0.2 + 0.9j
        q = nev(src, u, v, pol)
        assert abs(q.D - (u - v) * kernel(src, u, v, pol)) < 1e-10

    def test_unmet_tail_target_raises(self, src):
        with pytest.raises(NonConvergenceError, match="did not converge"):
            kernel(src, 0.5, 1j, TruncationPolicy(tail_tol=1e-30))

    def test_reproducing_over_measure(self, src, pol):
        m = build_measure(src, ExtensionParam.finite(0.0),
                          RootScanConfig(window=(-5.0, 5.0)), pol,
                          auto_window=True)
        rng = np.random.default_rng(41)
        c = SeqVector(rng.normal(size=6) + 1j * rng.normal(size=6))
        u = 0.8 + 0.5j
        acc = sum(mass * kernel(src, u, float(x), pol)
                  * F_eval(src, c, float(x), pol)
                  for x, mass in zip(m.points, m.masses))
        assert acc == pytest.approx(F_eval(src, c, u, pol), abs=1e-6)


class TestCoeffMatrix:
    def test_first_entry(self, src, pol):
        cm = coeff_matrix(src, 0.9 - 0.3j, 10, pol)
        assert cm.a[1, 0] == pytest.approx(1.0 / src.coeffs(0)[0])

    def test_entries_formula(self, src, pol):
        z0 = 1.2 + 0.4j
        cm = coeff_matrix(src, z0, 12, pol)
        p, q = evaluator_for(src, pol).pq_upto(z0, 12)
        for n in (3, 7, 12):
            for k in range(n):
                want = q[n] * p[k] - p[n] * q[k]
                assert cm.a[n, k] == pytest.approx(want, abs=1e-14)

    def test_conjugate_basepoint(self, src, pol):
        z0 = 0.5 + 0.8j
        cm = coeff_matrix(src, z0, 8, pol)
        cmc = coeff_matrix(src, np.conj(z0), 8, pol)
        assert np.allclose(cmc.a, np.conj(cm.a), atol=1e-14)

    def test_probe_residual_small(self, src, pol):
        cm = coeff_matrix(src, Z0, 40, pol)
        assert cm.probe_residual < 1e-9

    def test_row_bound(self, src, pol):
        z0 = Z0
        cm = coeff_matrix(src, z0, 30, pol)
        ev = evaluator_for(src, pol)
        tab = ev.table(z0)
        p, q = ev.pq_upto(z0, 30)
        pq_norm = tab.norm_p2 + tab.norm_q2
        for k in range(30):
            row = np.sum(np.abs(cm.a[k + 1:, k]) ** 2)
            bound = pq_norm * (abs(p[k]) ** 2 + abs(q[k]) ** 2)
            assert row <= bound * (1 + 1e-10)


class TestXiApply:
    def test_kernel_direction(self, src, pol):
        assert xi_apply(src, SeqVector.basis(0), Z0, pol).norm() == 0.0

    def test_basis_image(self, src, pol):
        n = 5
        xi = xi_apply(src, SeqVector.basis(n), Z0, pol)
        p, q = evaluator_for(src, pol).pq_upto(Z0, n)
        want = np.array([q[n] * p[k] - p[n] * q[k] for k in range(n)])
        assert np.allclose(xi.entries, want, atol=1e-14)

    def test_matches_the_coefficient_matrix(self, src, pol):
        # tail sums against the dense sum over n > k of c_n a_{n,k}
        rng = np.random.default_rng(7)
        c = SeqVector(rng.normal(size=61) + 1j * rng.normal(size=61))
        want = coeff_matrix(src, Z0, c.M, pol).a.T @ c.entries
        got = xi_apply(src, c, Z0, pol).entries
        assert np.allclose(got, want[: c.M], rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_linearity(self, src, pol):
        rng = np.random.default_rng(42)
        c = SeqVector(rng.normal(size=9) + 1j * rng.normal(size=9))
        d = SeqVector(rng.normal(size=9) + 1j * rng.normal(size=9))
        a, b = 0.3 - 1.1j, 2.0 + 0.5j
        lhs = xi_apply(src, SeqVector(a * c.entries + b * d.entries), Z0, pol)
        rhs = a * xi_apply(src, c, Z0, pol) + b * xi_apply(src, d, Z0, pol)
        assert np.allclose(lhs.entries, rhs.entries, atol=1e-12)


class TestResolventIdentity:
    def test_e0_exact(self, src, pol):
        assert resolvent_residual(src, SeqVector.basis(0), Z0, pol) == 0.0

    def test_e2_at_i(self, src, pol):
        assert resolvent_residual(src, SeqVector.basis(2), 1j, pol) < 1e-12

    def test_random_vectors(self, src, pol):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = int(rng.integers(1, 51))
            c = SeqVector(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
            assert resolvent_residual(src, c, Z0, pol) < 1e-10

    def test_round_trip_inverts_shifted_operator(self, src, pol):
        rng = np.random.default_rng(44)
        d = SeqVector(rng.normal(size=15) + 1j * rng.normal(size=15))
        w = xi_apply(src, d, Z0, pol)
        jw = apply_jacobi(src, w).entries
        c0 = jw.copy()
        c0[: w.entries.size] -= Z0 * w.entries
        recovered = xi_apply(src, SeqVector(c0), Z0, pol)
        n = w.entries.size
        assert np.allclose(recovered.entries[:n], w.entries, atol=1e-9)
        assert np.linalg.norm(recovered.entries[n:]) < 1e-9


class TestDiffQuotient:
    def test_e1_constant(self, src, pol):
        assert diff_quotient_residual(src, SeqVector.basis(1), Z0,
                                      -0.3 + 0.2j, pol) < 1e-14

    def test_random_vectors(self, src, pol):
        rng = np.random.default_rng(45)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            c = SeqVector(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert diff_quotient_residual(src, c, Z0, z, pol) < 1e-11

    def test_derivative_limit(self, src, pol):
        # z = z0 compares against a centered finite difference, so the
        # residual is limited by the difference scheme, not the operator
        c = SeqVector.from_entries([0.0, 1.0, 0.5, -0.25, 1.0j])
        assert diff_quotient_residual(src, c, Z0, Z0, pol) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(0, 2 ** 31 - 1))
def test_norm_bound_property(m, seed):
    from indmom import JacobiCoefficients

    src = JacobiCoefficients.power_law(2.0)
    pol = TruncationPolicy()
    rng = np.random.default_rng(seed)
    c = SeqVector(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
    tab = evaluator_for(src, pol).table(Z0)
    bound = c.norm() * (tab.norm_p2 + tab.norm_q2)
    assert xi_apply(src, c, Z0, pol).norm() <= bound * (1 + 1e-10)


class TestBoundSuite:
    def test_all_inequalities_hold(self, src, pol):
        checks = bound_suite(src, Z0, pol, seed=7, n_vectors=25)
        assert all(c.ok for c in checks)
        assert all(c.slack >= -1e-12 * max(1.0, abs(c.rhs)) for c in checks)

    def test_contains_expected_families(self, src, pol):
        names = [c.name for c in bound_suite(src, 1j, pol, n_vectors=5)]
        assert any(n.startswith("entry_bound") for n in names)
        assert any(n.startswith("row_bound") for n in names)
        assert any(n.startswith("diff_quotient_bound") for n in names)
        assert any(n.startswith("xi_norm_bound") for n in names)


class TestXiMembership:
    def test_outputs_pass_closure_test(self, src, pol):
        rng = np.random.default_rng(46)
        for _ in range(5):
            m = int(rng.integers(1, 60))
            c = SeqVector(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
            xi = xi_apply(src, c, Z0, pol)
            for z0 in (1j, 1 + 2j):
                assert membership_DT(src, xi, z0, 1e-7, pol).in_domain
