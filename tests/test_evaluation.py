import math

import mpmath as mp
import numpy as np
import pytest

from indmom import (JacobiCoefficients, TruncationPolicy, acceptance, eval_pq,
                    evaluation, p_vector)
from indmom.config import default_config
from indmom.errors import CoefficientRangeError, EvaluationOverflowError
from indmom.evaluation import Evaluator, clear_evaluator_cache, evaluator_for

# Exact Gaussian-rational recurrence sums at z=i through index 200,
# computed once with Fraction arithmetic and frozen here.
CUM_P2_I_200 = 3.1831779991871457
CUM_Q2_I_200 = 1.7033426084896180


class TestInitialData:
    def test_p0_q0_q1(self, src, pol):
        pe = eval_pq(src, 0.3 + 0.7j, pol)
        assert pe.p[0] == 1.0
        assert pe.q[0] == 0.0
        assert pe.q[1] == 1.0 / src.coeffs(0)[0]

    def test_p1_q1_at_zero(self, src, pol):
        pe = eval_pq(src, 0.0, pol)
        assert pe.p[1] == 0.0
        assert pe.q[1] == 1.0

    def test_odd_p_vanish_at_zero(self, src, pol):
        pe = eval_pq(src, 0.0, pol)
        assert np.all(pe.p[1::2] == 0.0)


class TestStopRule:
    def test_rational_oracle_at_200(self, src):
        pol = TruncationPolicy(n_max=200)
        tab = evaluator_for(src, pol).table(1j)
        assert tab.cum_p2[200] == pytest.approx(CUM_P2_I_200, rel=1e-13)
        assert tab.cum_q2[200] == pytest.approx(CUM_Q2_I_200, rel=1e-13)

    def test_adaptive_index_is_smallest(self, src, pol):
        pe = eval_pq(src, 1j, pol)
        tab = evaluator_for(src, pol).table(1j)
        inc = np.abs(tab.p) ** 2 + np.abs(tab.q) ** 2
        cum = tab.cum_p2 + tab.cum_q2
        ok = pol.safety * inc[: pol.n_max + 1] < pol.tail_tol * cum[: pol.n_max + 1]
        expected = int(np.nonzero(ok[2:])[0][0]) + 2
        assert pe.N == expected
        assert pe.converged
        assert pe.tail_est == pytest.approx(inc[pe.N])

    @pytest.mark.parametrize("z", [0.0, 1.0, -3.5, 10.0, 1j, 5 + 5j, 10j, -7 - 4j])
    def test_converges_inside_radius_ten(self, src, pol, z):
        assert eval_pq(src, z, pol).converged

    def test_cums_nondecreasing(self, src, pol):
        tab = evaluator_for(src, pol).table(2.2 - 0.4j)
        assert np.all(np.diff(tab.cum_p2) >= 0)
        assert np.all(np.diff(tab.cum_q2) >= 0)

    def test_cap_hit_reports_unconverged(self, src):
        tight = TruncationPolicy(n_max=64, tail_tol=1e-12)
        pe = eval_pq(src, 1j, tight)
        assert not pe.converged
        assert pe.N == 64
        assert np.isfinite(pe.cum_p2)


class TestRecurrenceInvariants:
    def test_residual_per_index(self, src, pol):
        z = 1.7 - 0.6j
        tab = evaluator_for(src, pol).table(z)
        a, b = src.arrays(pol.n_max)
        eps = np.finfo(float).eps
        for seq in (tab.p, tab.q):
            for n in range(1, 200):
                res = z * seq[n] - a[n] * seq[n + 1] - b[n] * seq[n] \
                    - a[n - 1] * seq[n - 1]
                scale = abs(a[n] * seq[n + 1]) + abs(z * seq[n]) \
                    + abs(a[n - 1] * seq[n - 1])
                assert abs(res) <= 1e3 * eps * max(scale, 1.0)

    def test_wronskian(self, src, pol):
        rng = np.random.default_rng(5)
        for z in rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4):
            tab = evaluator_for(src, pol).table(z)
            a, _ = src.arrays(pol.n_max)
            for n in range(0, 101):
                w = a[n] * (tab.p[n + 1] * tab.q[n] - tab.p[n] * tab.q[n + 1])
                assert abs(w + 1.0) < 1e-10

    def test_parity_symmetry(self, src, pol):
        # b_n = 0 forces p_n(-z) = (-1)^n p_n(z)
        tab_plus = evaluator_for(src, pol).table(1.3)
        tab_minus = evaluator_for(src, pol).table(-1.3)
        signs = (-1.0) ** np.arange(len(tab_plus.p))
        assert np.allclose(tab_minus.p, signs * tab_plus.p, atol=1e-14)


class TestErrors:
    @pytest.mark.parametrize("precision,npts,bad", [
        pytest.param("standard", 1, 1e200, id="point_loop"),
        pytest.param("standard", evaluation._SCALAR_BATCH + 1, 1e200, id="array_loop"),
    ] + [pytest.param(precision, 1, bad, id=f"{precision}-{bad}")
         for precision in ("standard", "extended")
         for bad in (math.nan, math.inf, 1e300)])
    def test_overflow(self, src, pol, precision, npts, bad):
        zs = [0.1 * k + 0.5j for k in range(npts - 1)] + [bad]
        with pytest.raises(EvaluationOverflowError, match="overflow"):
            Evaluator(src, pol, precision).tables(zs)

    def test_cumulative_sum_beyond_float_range(self, src):
        ev = Evaluator(src, TruncationPolicy(n_max=10), "extended")
        P = np.full((ev.top + 1, 1), mp.mpc(1e154), dtype=object)  # |.|^2 finite
        with pytest.raises(EvaluationOverflowError, match="cumulative"):
            ev._finish_tables([0j], P, P)

    def test_extended_rejects_non_finite_coefficients(self):
        a = np.array([1.0, 4.0, math.inf, 16.0])
        with pytest.raises(EvaluationOverflowError, match="not finite"):
            evaluation.recurrence_mp(a, np.zeros(4), 0.5j, 4, 32)

    def test_explicit_list_too_short(self):
        j = JacobiCoefficients.explicit([(1.0, 0.0)] * 10)
        with pytest.raises(CoefficientRangeError):
            eval_pq(j, 1.0, TruncationPolicy(n_max=50))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(n_max=4)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(safety=0.5)


def _source(name):
    """"c=<exponent>" power law, or "alternating_b": a_n = (n+1)^2, b_n = 0.3(-1)^n."""
    if name == "alternating_b":
        return JacobiCoefficients.explicit(
            [((n + 1.0) ** 2, 0.3 * (-1) ** n) for n in range(1100)])
    return JacobiCoefficients.power_law(float(name[2:]))


def _disk_points(seed, n):
    """n points in |z| <= 2.5, then real points with imaginary part +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    zs = 2.5 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    reals = [complex(x, s) for x in (1.5, 0.0, -2.0) for s in (0.0, -0.0)]
    return np.concatenate([zs, reals])


def _mp_reference(a, b, z, upto, dps):
    """p/q lists at z from the recurrence in mpmath mpc arithmetic at dps digits."""
    with mp.workdps(dps):
        am = [mp.mpf(v) for v in a[:upto].tolist()]
        bm = [mp.mpf(v) for v in b[:upto].tolist()]
        zm = mp.mpc(complex(z))
        p, q = [mp.mpc(1)], [mp.mpc(0)]
        if upto >= 1:
            p.append((zm - bm[0]) / am[0])
            q.append(1 / am[0])
        for n in range(1, upto):
            p.append(((zm - bm[n]) * p[n] - am[n - 1] * p[n - 1]) / am[n])
            q.append(((zm - bm[n]) * q[n] - am[n - 1] * q[n - 1]) / am[n])
    return p, q


class TestRecurrenceKernel:
    @pytest.mark.parametrize("upto", [1, 2, 509, 1009])
    @pytest.mark.parametrize("source", ["c=2", "alternating_b"])
    def test_batch_columns_are_bytewise_one_point_tables(self, source, upto):
        a, b = _source(source).arrays(upto)
        zs = _disk_points(3, 58)                           # 64 points
        one = [evaluation.recurrence_batch(a, b, zs[j:j + 1], upto)
               for j in range(len(zs))]
        for chains in ("pq", "p", "q"):
            for size in (1, evaluation._SCALAR_BATCH, evaluation._SCALAR_BATCH + 1, 64):
                for lo in range(0, len(zs), size):
                    tabs = evaluation.recurrence_batch(a, b, zs[lo:lo + size], upto,
                                                       chains)
                    for k, T in enumerate(tabs):
                        if "pq"[k] not in chains:
                            assert T is None
                            continue
                        assert T.shape == (upto + 1, len(zs[lo:lo + size]))
                        assert T.flags.c_contiguous
                        for j in range(T.shape[1]):
                            assert T[:, j].tobytes() == one[lo + j][k][:, 0].tobytes(), \
                                (chains, size, lo + j)

    @pytest.mark.parametrize("source", ["c=2", "c=3", "alternating_b"])
    def test_agrees_with_mpmath(self, source):
        L = 1009
        a, b = _source(source).arrays(L)
        zs = _disk_points(9, 3)
        P, Q = evaluation.recurrence_batch(a, b, zs, L)
        for j, z in enumerate(zs):
            pm, qm = _mp_reference(a, b, z, L, 40)
            for std, ref in ((P[:, j], pm), (Q[:, j], qm)):
                ref = np.array([complex(v) for v in ref])
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(std - ref)) <= 1e-14 * scale, (z, source)

    @pytest.mark.parametrize("dps", [32, 40])
    @pytest.mark.parametrize("source", ["c=2", "c=3", "alternating_b"])
    def test_extended_kernel_holds_its_digits(self, source, dps):
        # each entry within 10^-(dps-1) of the larger of its reference and
        # the one before (the scale of the terms it is computed from)
        L = 1009
        a, b = _source(source).arrays(L)
        zs = list(_disk_points(4, 2)[:2]) + [complex(1.5, 0.0), complex(-2.0, -0.0),
                                               0.7 + 1e-12j, 40 + 3j]
        for z in zs:
            got = evaluation.recurrence_mp(a, b, z, L, dps)
            ref = _mp_reference(a, b, z, L, dps + 20)
            with mp.workdps(dps + 20):
                tol = mp.mpf(10) ** (1 - dps)
                for chain, g, r in zip("pq", got, ref):
                    assert g.dtype == object and len(g) == L + 1
                    assert all(isinstance(v, mp.mpc) for v in g)
                    mags = [abs(v) for v in r]
                    for n in range(L + 1):
                        scale = max(mags[n], mags[n - 1] if n else 0)
                        assert abs(g[n] - r[n]) <= tol * scale, (z, chain, n)

    @pytest.mark.parametrize("chains", ["p", "q"])
    def test_extended_chains_are_the_full_tables(self, src, chains):
        a, b = src.arrays(200)
        full = evaluation.recurrence_mp(a, b, 0.3 + 0.9j, 200, 32)
        one = evaluation.recurrence_mp(a, b, 0.3 + 0.9j, 200, 32, chains)
        for k in range(2):
            if "pq"[k] in chains:
                assert list(one[k]) == list(full[k])
            else:
                assert one[k] is None


class TestExtendedPrecision:
    def test_matches_rational_oracle(self, src):
        pol = TruncationPolicy(n_max=200)
        tab = evaluator_for(src, pol, precision="extended", dps=40).table(1j)
        assert float(tab.cum_p2[200]) == pytest.approx(CUM_P2_I_200, rel=1e-12)
        # p_2(i) = (i*p_1(i) - a_0)/a_1 = -1/2 exactly
        assert complex(tab.p[2]) == pytest.approx(-0.5, abs=1e-30)


def _same_table(t1, t2):
    """Bitwise equality of two point tables (complex128 or mpmath entries)."""
    def same(x, y):
        if x.dtype == object:
            return x.shape == y.shape and all(u == w for u, w in zip(x, y))
        return x.dtype == y.dtype and x.tobytes() == y.tobytes()
    return (t1.z == t2.z and t1.stop_index == t2.stop_index
            and t1.converged == t2.converged and t1.tail_est == t2.tail_est
            and all(same(getattr(t1, k), getattr(t2, k))
                    for k in ("p", "q", "cum_p2", "cum_q2")))


class TestTableCache:
    def test_batch_matches_one_point_tables(self, src, pol):
        rng = np.random.default_rng(8)
        zs = list(rng.uniform(-3, 3, 12) + 1j * rng.uniform(-3, 3, 12)) + [0.0, 1.5]
        ev = Evaluator(src, pol)
        ev.tables(zs[:4])                                  # later hits
        batch = zs[2:] + [zs[5], zs[0], zs[5]]             # hits, misses, duplicates
        tabs = ev.tables(batch)
        assert len(tabs) == len(batch)
        for z, tab in zip(batch, tabs):
            assert _same_table(tab, Evaluator(src, pol).table(z))
            assert len(tab.p) == pol.n_max + 9
            assert not tab.p.flags.writeable

    @pytest.mark.parametrize("precision,n_points,capacity",
                             [("standard", 300, 256), ("extended", 20, 16)])
    def test_cache_is_bounded(self, src, precision, n_points, capacity):
        pol = TruncationPolicy(n_max=40 if precision == "standard" else 10)
        ev = Evaluator(src, pol, precision)
        zs = 0.01 * np.arange(n_points) + 0.5j
        first = ev.table(zs[0])
        for z in zs[1:]:
            ev.table(z)
        assert len(ev._cache) <= capacity
        assert complex(zs[0]) not in ev._cache             # least recent went first
        again = ev.table(zs[0])
        assert again is not first and _same_table(again, first)

    def test_one_batch_larger_than_the_cache(self, src):
        ev = Evaluator(src, TruncationPolicy(n_max=20))
        zs = 0.01 * np.arange(300) + 0.5j
        tabs = ev.tables(zs)
        assert [t.z for t in tabs] == [complex(z) for z in zs]
        assert len(ev._cache) == 256

    def test_pq_upto_reads_cached_tables(self, src, monkeypatch):
        pol = TruncationPolicy(n_max=40)
        zs = list(0.2 * np.arange(16) - 1.5 + 0.7j) + [complex(1.5, -0.0)]
        cached = Evaluator(src, pol)
        cached.tables(zs)                          # one array-loop batch
        fresh = Evaluator(src, pol)
        calls = _counting(monkeypatch)
        uptos = (0, 1, 37, pol.n_max + 8)
        for z in zs:
            for upto in uptos:
                got, want = cached.pq_upto(z, upto), fresh.pq_upto(z, upto)
                for g, w in zip(got, want):
                    assert len(g) == upto + 1 and g.tobytes() == w.tobytes()
        assert len(calls) == len(zs) * len(uptos)  # the fresh evaluator's only
        cached.pq_upto(zs[0], pol.n_max + 9)       # past the table: computed
        assert len(calls) == len(zs) * len(uptos) + 1

    def test_evaluators_are_bounded(self, src):
        clear_evaluator_cache()
        for n_max in range(20, 30):
            evaluator_for(src, TruncationPolicy(n_max=n_max))
        assert len(evaluation._EVALUATORS) == 8
        clear_evaluator_cache()

    def test_explicit_source_must_reach_level_plus_eight(self):
        pol = TruncationPolicy(n_max=50)

        def source(top):
            return JacobiCoefficients.explicit(
                [((n + 1.0) ** 2, 0.0) for n in range(top + 1)])

        with pytest.raises(CoefficientRangeError):
            eval_pq(source(pol.n_max + 7), 0.5j, pol)
        vec = p_vector(source(pol.n_max + 8), 0.5j, pol)
        assert vec.M == pol.n_max + 8


def _counting(monkeypatch):
    calls = []
    kernel = evaluation.recurrence_batch

    def counted(a, b, zs, upto, chains="pq"):
        calls.append(len(zs))
        return kernel(a, b, zs, upto, chains)

    monkeypatch.setattr(evaluation, "recurrence_batch", counted)
    return calls


@pytest.mark.parametrize("check", ["_check_three_point", "_check_pick"])
def test_sampled_checks_batch_their_points(monkeypatch, check):
    config = default_config(truncation=TruncationPolicy(n_max=120))
    clear_evaluator_cache()
    calls = _counting(monkeypatch)
    results = getattr(acceptance, check)(config)
    assert all(r.passed for r in results)
    assert len(calls) <= 3, calls
