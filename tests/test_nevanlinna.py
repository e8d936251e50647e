import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from indmom import (ExtensionParam, JacobiCoefficients, RootScanConfig,
                    TruncationPolicy, build_measure, mobius, nev, nev_one,
                    nev_partial, partial_quad_arrays, reconstruct_two_var,
                    stieltjes, three_point_residual, tilde_relations_residual)
from indmom.errors import SupportPointError
from indmom.evaluation import EXTENDED_DPS, _mp_context, evaluator_for
from indmom.nevanlinna import SERIES_FORMS, composition_residuals

# mpmath dps=50 partial sums, frozen: (A, B, C, D) at (u, v) = (1, -1), n = 50
ORACLE_N50 = (2.4476339793768908, 1.7668524514546552,
              -1.7668524514546552, -0.8668647367575262)
# and the one-variable quadruple at u = 1 summed through N = 300
ORACLE_ONEVAR_300 = (1.4222738636614701, 0.46007008703702163,
                     0.86667151011657641, 0.98344606677295040)


def _series_gap(src, pol, q, n):
    """Largest |corner - series| over A..D of q, the series from
    partial_quad_arrays at index n."""
    ser, _ = partial_quad_arrays(src, q.u, q.v, n, pol)
    return np.max(np.abs(np.array(q.as_tuple()) - ser[:, n]))


class TestDiagonalAndTrivia:
    @pytest.mark.parametrize("u", [0.0, 1.5, -0.3 + 2j])
    def test_diagonal_values(self, src, pol, u):
        q = nev(src, u, u, pol)
        assert (q.A, q.B, q.C, q.D) == (0.0, -1.0, 1.0, 0.0)
        assert _series_gap(src, pol, q, pol.n_max) < 1e-12

    def test_b0_is_minus_one(self, src, pol):
        q = nev_partial(src, 0.9 - 0.2j, 1.4 + 0.8j, 0, pol)
        assert q.B == -1.0
        assert q.C == 1.0

    def test_origin(self, src, pol):
        assert nev_one(src, 0.0, pol) == (0.0, -1.0, 1.0, 0.0)


class TestOracles:
    def test_partial_quadruple_n50(self, src, pol):
        q = nev_partial(src, 1.0, -1.0, 50, pol)
        for got, want in zip(q.as_tuple(), ORACLE_N50):
            assert got.real == pytest.approx(want, rel=1e-12)
            assert abs(got.imag) < 1e-14
        assert _series_gap(src, pol, q, 50) < 1e-12

    def test_one_variable_at_level_300(self, src):
        pol = TruncationPolicy(n_max=300)
        got = nev_one(src, 1.0, pol)
        for g, want in zip(got, ORACLE_ONEVAR_300):
            assert g.real == pytest.approx(want, rel=1e-12)

    def test_conjugate_pair_is_norm_sum(self, src, pol):
        # A(i, -i) = 2i sum |q_k(i)|^2: pure imaginary with positive part
        q = nev(src, 1j, -1j, pol)
        tab = evaluator_for(src, pol).table(1j)
        assert q.A.real == pytest.approx(0.0, abs=1e-14)
        assert q.A.imag == pytest.approx(2 * tab.norm_q2, rel=1e-12)
        assert q.A.imag > 0


def _numpy_corners(ev, u, v, n):
    """(A, B, C, D) at index n by the corner form on the tables' complex128
    scalars; at u = v, the series' exact values."""
    if u == v:
        return [np.complex128(off) for *_, off in SERIES_FORMS.values()]
    tu, tv = ev.table(u), ev.table(v)
    rows = {"p": (tu.p, tv.p), "q": (tu.q, tv.q)}
    return [ev.a[n] * (rows[kind][0][n + 1] * rows[anchor][1][n]
                       - rows[kind][0][n] * rows[anchor][1][n + 1])
            for kind, anchor, _ in SERIES_FORMS.values()]


_REAL_POINTS = [complex(x, s) for x in (1.5, 0.0, -2.0) for s in (0.0, -0.0)]


class TestScalarReads:
    @pytest.mark.parametrize("source", [
        JacobiCoefficients.power_law(2.0),
        JacobiCoefficients.explicit([((k + 1.0) ** 2, 0.3 * (-1) ** k) for k in range(600)])])
    def test_values_are_the_corner_form_on_numpy_scalars(self, source, pol):
        ev = evaluator_for(source, pol)
        rng = np.random.default_rng(31)
        pts = list(2.5 * rng.uniform(-1, 1, 12) + 2.5j * rng.uniform(-1, 1, 12))
        pts += _REAL_POINTS
        for u, v in zip(pts, pts[3:] + pts[:3]):
            for n, q in ((pol.n_max, nev(source, u, v, pol)),
                         (37, nev_partial(source, u, v, 37, pol))):
                for got, want in zip(q.as_tuple(), _numpy_corners(ev, u, v, n)):
                    assert type(got) is np.complex128
                    assert got.tobytes() == want.tobytes(), (u, v, n)
        for u in pts[:3] + _REAL_POINTS[:2]:
            for got, want in zip(nev(source, u, u, pol).as_tuple(),
                                 _numpy_corners(ev, u, u, pol.n_max)):
                assert type(got) is np.complex128 and got.tobytes() == want.tobytes()

    def test_three_point_is_the_composition_of_nev_values(self, src, pol):
        ev = evaluator_for(src, pol)
        rng = np.random.default_rng(32)
        pts = list(2.5 * rng.uniform(-1, 1, 9) + 2.5j * rng.uniform(-1, 1, 9))
        pts += _REAL_POINTS
        for u, v, w in zip(pts, pts[1:] + pts[:1], pts[5:] + pts[:5]):
            want = max(abs(r) for r in composition_residuals(
                *(_numpy_corners(ev, x, y, pol.n_max) for x, y in ((u, v), (u, w), (w, v)))))
            assert three_point_residual(src, u, v, w, pol) == float(want), (u, v, w)


class TestIdentityWeb:
    def test_determinant_identity_grid(self, src, pol):
        rng = np.random.default_rng(21)
        pts = rng.uniform(-3, 3, (2, 6)) + 1j * rng.uniform(-3, 3, (2, 6))
        for u in pts[0]:
            for v in pts[1]:
                assert nev(src, u, v, pol).det_residual < 1e-9

    def test_dual_forms_to_200(self, src, pol):
        rng = np.random.default_rng(22)
        for _ in range(5):
            u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            ser, cas = partial_quad_arrays(src, u, v, 200, pol)
            assert np.max(np.abs(ser - cas) / (1 + np.abs(ser))) < 1e-12

    def test_antisymmetry(self, src, pol):
        u, v = 1.3 - 0.4j, -0.8 + 0.9j
        quv, qvu = nev(src, u, v, pol), nev(src, v, u, pol)
        assert abs(quv.A + qvu.A) < 1e-10
        assert abs(quv.D + qvu.D) < 1e-10
        assert abs(quv.B + qvu.C) < 1e-10

    def test_three_point_collapse(self, src, pol):
        u, v = 0.4 + 0.2j, -1.1
        assert three_point_residual(src, u, v, v, pol) < 1e-12
        assert three_point_residual(src, u, v, u, pol) < 1e-12

    def test_three_point_random(self, src, pol):
        rng = np.random.default_rng(23)
        for _ in range(10):
            u, v, w = (complex(a, b) for a, b in
                       zip(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)))
            assert three_point_residual(src, u, v, w, pol) < 1e-8

    def test_pick_property(self, src, pol):
        rng = np.random.default_rng(24)
        for z in rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.05, 3, 20):
            A, B, C, D = nev_one(src, z, pol)
            assert (B / D).imag > 0
            assert (A / C).imag > 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=16, max_size=16))
def test_double_determinant_lemma(vals):
    # |x y| |w z| - |x z| |w y| = |x w| |y z| for any 2-vectors
    x, y, z, w = (np.array([complex(vals[i], vals[i + 1]),
                            complex(vals[i + 2], vals[i + 3])])
                  for i in range(0, 16, 4))

    def d(p, q):
        return p[0] * q[1] - p[1] * q[0]

    lhs = d(x, y) * d(w, z) - d(x, z) * d(w, y)
    rhs = d(x, w) * d(y, z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2.0, 3.0]),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_corner_form_matches_the_series_at_level(c, u, v):
    src, pol = JacobiCoefficients.power_law(c), TruncationPolicy()
    q = nev(src, u, v, pol)
    ser, _ = partial_quad_arrays(src, u, v, pol.n_max, pol)
    ser = ser[:, -1]
    assert np.all(np.abs(np.array(q.as_tuple()) - ser)
                  <= 1e-12 * (1 + np.abs(ser)))


class TestExtendedPrecision:
    def test_extended_values_combine_at_their_precision(self):
        # the tables carry 32 digits; combined at 53 bits, |AD - BC - 1|
        # would be about 1e-13 here, as in standard precision
        src = JacobiCoefficients.power_law(1.2)
        pol = TruncationPolicy(n_max=500)
        u, v = 2.5 + 0.3j, -2.8 + 0.2j
        q = nev(src, u, v, pol, "extended")
        assert mp.prec == 53
        # the series from the same tables, u - v taken in mpmath: formed
        # in float64 it would hold the series to about 1e-16 relative
        tu, tv = evaluator_for(src, pol, "extended").tables([u, v])
        s = slice(0, pol.n_max + 1)
        with mp.workdps(32):
            d = mp.mpc(u) - mp.mpc(v)
            ser = [off + d * np.dot(getattr(tu, k)[s], getattr(tv, a)[s])
                   for k, a, off in SERIES_FORMS.values()]
            gap = max(abs(x - y) for x, y in zip(q.as_tuple(), ser))
        assert q.det_residual < 1e-25 and gap < 1e-25
        assert mp.prec == 53
        std = nev(src, u, v, pol)
        for x, y in zip(q.as_tuple(), std.as_tuple()):
            assert abs(complex(x) - y) < 1e-11 * (1 + abs(y))

    def test_extended_nev_reads_each_entry_once(self, monkeypatch):
        # an extended entry is rounded on every read, so the corner forms
        # and the tail test share the eight they need: p and q at u and v,
        # at L and L + 1
        from indmom import evaluation

        src, pol = JacobiCoefficients.power_law(1.2), TruncationPolicy(n_max=200)
        u, v = 0.3 + 0.4j, -0.7 + 0.2j
        tu, tv = evaluator_for(src, pol, "extended").tables([u, v])
        reads, getitem = [], evaluation.ExtendedRow.__getitem__

        def counted(self, k):
            reads.append((id(self), k))
            return getitem(self, k)

        monkeypatch.setattr(evaluation.ExtendedRow, "__getitem__", counted)
        q = nev(src, u, v, pol, "extended")
        L = pol.n_max
        rows = {id(r) for t in (tu, tv) for r in (t.p, t.q)}
        assert sorted(reads) == sorted((r, k) for r in rows for k in (L, L + 1))
        with mp.workdps(32):
            a = evaluator_for(src, pol, "extended").a[L]
            want = [a * (getattr(tu, k)[L + 1] * getattr(tv, s)[L]
                         - getattr(tu, k)[L] * getattr(tv, s)[L + 1])
                    for k, s, _ in SERIES_FORMS.values()]
        assert [x._mpc_ for x in q.as_tuple()] == [x._mpc_ for x in want]

    def test_extended_values_carry_their_precision(self):
        # arithmetic on extended values outside the package runs at their
        # digits: at mpmath's global 15 this residual reads 0.0
        src = JacobiCoefficients.power_law(1.2)
        q = nev(src, 1.3 + 0.7j, -2.1 + 0.4j, TruncationPolicy(n_max=500), "extended")
        residual = float(abs(q.A * q.D - q.B * q.C - 1))
        assert residual == q.det_residual and residual < 1e-25

    def test_nev_one_takes_precision(self, src, pol):
        one = nev_one(src, 0.4 + 1j, pol, "extended")
        assert one == nev(src, 0.4 + 1j, 0.0, pol, "extended").as_tuple()
        assert all(x.context.dps == EXTENDED_DPS for x in one)

    def test_extended_values_pickle(self, src, pol):
        a = nev(src, 1.3 + 0.7j, -2.1 + 0.4j, pol, "extended").A
        for x, parts in ((a, "_mpc_"), (abs(a), "_mpf_")):
            data = pickle.dumps(x)
            _mp_context.cache_clear()   # as in a process that made no context
            y = pickle.loads(data)
            assert getattr(y, parts) == getattr(x, parts)
            assert y.context.prec == x.context.prec


class TestReconstruction:
    def test_diagonal(self, src, pol):
        q = reconstruct_two_var(src, 0.7 - 0.1j, 0.7 - 0.1j, pol)
        assert abs(q.A) < 1e-12 and abs(q.B + 1) < 1e-12
        assert abs(q.C - 1) < 1e-12 and abs(q.D) < 1e-12

    def test_v_zero_reduces_to_one_variable(self, src, pol):
        u = 1.1 + 0.6j
        q = reconstruct_two_var(src, u, 0.0, pol)
        A, B, C, D = nev_one(src, u, pol)
        assert abs(q.A - A) < 1e-12 and abs(q.B - B) < 1e-12
        assert abs(q.C - C) < 1e-12 and abs(q.D - D) < 1e-12

    def test_matches_direct(self, src, pol):
        q = reconstruct_two_var(src, 1.0, -1.0, pol)
        assert _series_gap(src, pol, q, pol.n_max) < 1e-9


def _transfer(src, u, v, n, pol):
    """h_n(u, v) = [[C_n, A_n], [-D_n, -B_n]], moving polynomial data from v to u."""
    q = nev_partial(src, u, v, n, pol)
    return np.array([[q.C, q.A], [-q.D, -q.B]], dtype=complex)


class TestTransfer:
    def test_identity_at_equal_arguments(self, src, pol):
        h = _transfer(src, 0.7, 0.7, 30, pol)
        assert np.allclose(h, np.eye(2), atol=1e-13)

    def test_determinant_one(self, src, pol):
        rng = np.random.default_rng(25)
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for n in (0, 7, 50, 100):
            h = _transfer(src, u, v, n, pol)
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            assert abs(det - 1.0) < 1e-12 * (1 + abs(det))

    def test_moves_polynomial_data(self, src, pol):
        u, v, n = 0.9 - 0.5j, -1.4 + 0.3j, 40
        ev = evaluator_for(src, pol)
        tu, tv = ev.table(u), ev.table(v)
        mu = np.array([[tu.p[n], tu.q[n]], [tu.p[n + 1], tu.q[n + 1]]])
        mv = np.array([[tv.p[n], tv.q[n]], [tv.p[n + 1], tv.q[n + 1]]])
        h = _transfer(src, u, v, n, pol)
        assert np.max(np.abs(mu @ h - mv)) < 1e-10 * np.max(np.abs(mv))

    def test_cocycle_and_inverse(self, src, pol):
        u, v, w, n = 0.4 + 0.1j, -0.9, 1.2 - 0.7j, 60
        huw = _transfer(src, u, w, n, pol)
        hwv = _transfer(src, w, v, n, pol)
        huv = _transfer(src, u, v, n, pol)
        assert np.max(np.abs(huw @ hwv - huv)) < 1e-10
        hvu = _transfer(src, v, u, n, pol)
        assert np.max(np.abs(huv @ hvu - np.eye(2))) < 1e-10


class TestMobius:
    def test_identity_map(self, src, pol):
        z = 2 + 3j
        assert mobius(src, 0.5, 0.5, z, pol) == pytest.approx(z)

    def test_composition(self, src, pol):
        rng = np.random.default_rng(26)
        u, v, w = 0.3 + 0.4j, -1.1 + 0.2j, 0.9 - 0.6j
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            inner = mobius(src, w, v, z, pol)
            left = mobius(src, u, w, inner, pol)
            direct = mobius(src, u, v, z, pol)
            assert left == pytest.approx(direct, rel=1e-8, abs=1e-9)

    def test_real_arguments_stay_real(self, src, pol):
        out = mobius(src, 0.7, -1.2, 0.5, pol)
        assert abs(out.imag) < 1e-12

    def test_infinity_input(self, src, pol):
        q = nev(src, 0.7, -1.2, pol)
        out = mobius(src, 0.7, -1.2, ExtensionParam.infinite(), pol)
        assert out == pytest.approx(q.C / (-q.D))

    def test_pole_maps_to_infinity(self, src, pol):
        # at u = v the map is the identity, z -> z; fabricate a pole via
        # the diagonal exact values: denominator -D z - B = 1 for all z,
        # so use distinct points and solve for the pole location
        q = nev(src, 1.1, -0.4, pol)
        pole = -q.B / q.D
        # floating pole is not hit exactly; the value must be enormous
        try:
            size = abs(mobius(src, 1.1, -0.4, complex(pole), pol))
        except SupportPointError:   # an exact pole is refused
            size = np.inf
        assert size > 1e9

    def test_exact_pole_is_refused(self, src, pol):
        # D(0, 0) = 0 exactly, the denominator at t = infinity
        assert nev(src, 0.0, 0.0, pol).D == 0
        with pytest.raises(SupportPointError):
            mobius(src, 0.0, 0.0, ExtensionParam.infinite(), pol)

    @pytest.mark.parametrize("t", ["0", "1", "inf"])
    def test_is_the_stieltjes_parametrization(self, src, pol, t):
        t = ExtensionParam.parse(t)
        lam = 1 + 1j
        m = build_measure(src, t, RootScanConfig(window=(-5.0, 5.0)), pol)
        w = stieltjes(src, t, lam, m, pol).w_param
        # bitwise, signs of zero alike
        assert np.array(mobius(src, lam, 0.0, t, pol)).tobytes() == \
            np.array(w).tobytes()


class TestTildeRelations:
    def test_seeded_points(self, src, pol):
        rng = np.random.default_rng(27)
        for _ in range(5):
            u, v, z = (complex(a, b) for a, b in
                       zip(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)))
            assert tilde_relations_residual(src, u, v, pol, z=z) < 1e-8

    def test_diagonal_consistency(self, src, pol):
        assert tilde_relations_residual(src, 0.8, 0.8, pol, z=1j) < 1e-8

    def test_z_zero(self, src, pol):
        assert tilde_relations_residual(src, 1.2, -0.4, pol, z=0.0) < 1e-8
