import itertools
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmom import (JacobiCoefficients, TruncationPolicy, acceptance, eval_pq,
                    evaluation, p_vector)
from indmom.config import RunConfig
from indmom.errors import CoefficientRangeError, EvaluationOverflowError
from indmom.evaluation import Evaluator, clear_evaluator_cache, evaluator_for
from indmom.zeros import line_values, nevanlinna_line

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
        assert _cum(tab, 0)[200] == pytest.approx(CUM_P2_I_200, rel=1e-13)
        assert _cum(tab, 1)[200] == pytest.approx(CUM_Q2_I_200, rel=1e-13)

    def test_adaptive_index_is_smallest(self, src, pol):
        pe = eval_pq(src, 1j, pol)
        tab = evaluator_for(src, pol).table(1j)
        inc = np.abs(tab.p) ** 2 + np.abs(tab.q) ** 2
        cum = _cum(tab, 0) + _cum(tab, 1)
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
        assert np.all(np.diff(_cum(tab, 0)) >= 0)
        assert np.all(np.diff(_cum(tab, 1)) >= 0)

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


def _backends(*values):
    """Each value on the backend that loads (its own id) and on the fallback.

    The fallback, the point and array loops, runs with the ztbsv loader
    patched to return None; its ids start with "fallback-".
    """
    return ([pytest.param(v, "default", id=str(v)) for v in values]
            + [pytest.param(v, "fallback", id=f"fallback-{v}") for v in values])


def _use_backend(monkeypatch, backend):
    if backend == "fallback":
        monkeypatch.setattr(evaluation, "_ztbsv", lambda: None)


def _counting_ztbsv(monkeypatch):
    """Calls to the bound ztbsv, recorded; skips where it does not load."""
    ztbsv = evaluation._ztbsv()
    if ztbsv is None:
        pytest.skip("numpy bundles no OpenBLAS with ztbsv")
    calls = []

    def counted(*args):
        calls.append(args)
        return ztbsv(*args)

    monkeypatch.setattr(evaluation, "_ztbsv", lambda: counted)
    return calls


_OVERFLOW_CASES = [
    # the ids name the batch sizes that the fallback runs on its two loops
    ("standard", 1, 1e200, "point_loop"),
    ("standard", evaluation._SCALAR_BATCH + 1, 1e200, "array_loop"),
] + [(precision, 1, bad, f"{precision}-{bad}")
     for precision in ("standard", "extended") for bad in (math.nan, math.inf, 1e300)]


class TestErrors:
    @pytest.mark.parametrize("precision,npts,bad,backend", [
        pytest.param(precision, npts, bad, "default", id=name)
        for precision, npts, bad, name in _OVERFLOW_CASES
    ] + [pytest.param(precision, npts, bad, "fallback", id=f"fallback-{name}")
         for precision, npts, bad, name in _OVERFLOW_CASES if precision == "standard"])
    def test_overflow(self, src, pol, precision, npts, bad, backend, monkeypatch):
        _use_backend(monkeypatch, backend)
        zs = [0.1 * k + 0.5j for k in range(npts - 1)] + [bad]
        ev = Evaluator(src, pol, precision)
        if precision == "extended" and bad == 1e300:
            # an extended table at a finite point is built; it raises where it is summed
            (tab,) = ev.tables(zs)
            with pytest.raises(EvaluationOverflowError, match="overflow"):
                tab.stop_index
            return
        with pytest.raises(EvaluationOverflowError, match="overflow"):
            ev.tables(zs)

    @pytest.mark.parametrize("bad", [math.nan, 1e200])
    def test_banded_solve_overflow(self, src, pol, bad, monkeypatch):
        # ztbsv never raises: the bound on the solved tables must
        calls = _counting_ztbsv(monkeypatch)
        with pytest.raises(EvaluationOverflowError, match="overflow"):
            Evaluator(src, pol).tables([0.5j, bad, 1.5])
        assert len(calls) == 6

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf),
                                     complex(1.0, -math.inf), complex(math.nan, 1.0)])
    @pytest.mark.parametrize("backend", ["default", "fallback"])
    def test_non_finite_points_raise_without_a_warning(self, src, bad, backend,
                                                       monkeypatch):
        # a non-finite point's rows turn non-finite inside the solve or the
        # loops, which raise no floating-point warning; the bound raises
        _use_backend(monkeypatch, backend)
        a, b = src.arrays(120)
        for zs in ([bad], [0.5j, bad, 1.5]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EvaluationOverflowError, match="overflow"):
                    evaluation.recurrence_batch(a, b, zs, 120)

    def test_cumulative_sum_beyond_float_range(self, src, monkeypatch):
        ev = Evaluator(src, TruncationPolicy(n_max=10), "extended")
        n, (m, e) = ev.top + 1, mp.mpf(1e154).man_exp            # |.|^2 finite
        row, squares = _extended_row([int(m)] * n, [0] * n, [int(e)] * n, mp.mp.prec)
        assert np.isfinite(squares).all()
        monkeypatch.setattr(ev, "rows", lambda zs, upto: [[row], [row]])
        (tab,) = ev.tables([0j])
        for read in (lambda: tab.stop_index, lambda: tab.norm_p2, lambda: tab.norm_q2,
                     lambda: _cum(tab, 0)):
            with pytest.raises(EvaluationOverflowError, match="cumulative"):
                read()
        # each chain's sums finite, the stop rule's total of both chains not
        one, _ = _extended_row([int(m)] + [0] * (n - 1), [0] * n, [int(e)] * n,
                               mp.mp.prec)
        monkeypatch.setattr(ev, "rows", lambda zs, upto: [[one], [one]])
        (tab,) = ev.tables([1j])
        assert tab.norm_p2 == tab.norm_q2 == squares[0]
        with pytest.raises(EvaluationOverflowError, match="cumulative"):
            tab.stop_index

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
        for bad in (math.inf, math.nan, 1e400):
            with pytest.raises(ValueError, match="tail_tol must be finite"):
                TruncationPolicy(tail_tol=bad)
            with pytest.raises(ValueError, match="safety must be finite"):
                TruncationPolicy(safety=bad)


def _source(name):
    """"c=<exponent>" power law, "alternating_b": a_n = (n+1)^2, b_n = 0.3(-1)^n,
    or "geometric": a_n = 1.5^n, b_n = 0."""
    if name == "alternating_b":
        return JacobiCoefficients.explicit(
            [((n + 1.0) ** 2, 0.3 * (-1) ** n) for n in range(1100)])
    if name == "geometric":
        return JacobiCoefficients.explicit([(1.5 ** n, 0.0) for n in range(1100)])
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


def _at_digits(v, dps=evaluation.EXTENDED_DPS):
    """v is a complex number of an mpmath context at dps digits."""
    return isinstance(v, v.context.mpc) and v.context.dps == dps


class _WholeSteps:
    """Step lists made whole beforehand, read as the kernel reads a point's
    ``evaluation._PointSteps``: ``Y``, ``upto`` and ``take(lo, hi)``."""

    def __init__(self, Y, X, *lists):
        self.Y, self.upto, self.lists = Y, len(X), (X,) + lists

    def take(self, lo, hi):
        return tuple(v[lo:hi] for v in self.lists)


def _reference_steps(a, b, z, width):
    """The integer kernel's steps at z, split from scratch at the point.

    Per step k: integers X and A for x - b_k and a_{k-1} (a_{-1} = 1) times
    2**-e0, for e0 the least exponent of z's parts and the coefficients,
    the odd mantissa d of a_k = d * 2**f, width + bits(d) and e0 - f.  A
    runs on to a_{n-1}, one entry past the last step, which the kernel
    does not read.
    """
    n = len(b)
    m, e = evaluation._dyadics(np.concatenate([[z.real, z.imag, 1.0], a, b]))
    e0 = int(e[m != 0].min())
    ints = [v << k for v, k in zip(m.tolist(), (e - e0).tolist())]
    x, y, A, B = ints[0], ints[1], ints[2: n + 3], ints[n + 3:]
    d = m[3: n + 3].tolist()
    return _WholeSteps(y, [x - bn for bn in B], A, d,
                       [width + v.bit_length() for v in d],
                       [e0 - f for f in e[3: n + 3].tolist()])


def _cum(tab, c):
    """Cumulative sums of |p_k|^2 (c = 0) or |q_k|^2 (c = 1) through each
    index of a table's whole row, by the package's two squared-sum helpers."""
    rows = [(tab.p, tab.q)[c]]
    with evaluation._summing(rows):
        return evaluation._running_sums(
            evaluation._squared_moduli(rows, 0, len(rows[0])))[0]


def _extended_row(RE, IM, E, prec):
    """The kernel's row of the values (RE[n] + i IM[n]) * 2**E[n] and its squares."""
    return (evaluation.ExtendedRow(RE, IM, E, prec),
            evaluation._squares(RE, IM, E, prec))


class TestRecurrenceKernel:
    @pytest.mark.parametrize("upto", [0, 1, 2, 509, 1009])
    @pytest.mark.parametrize("source,backend", _backends("c=2", "alternating_b"))
    def test_batch_columns_are_bytewise_one_point_tables(self, source, backend, upto,
                                                         monkeypatch):
        _use_backend(monkeypatch, backend)
        a, b = _source(source).arrays(max(upto, 1))
        zs = _disk_points(3, 58)                           # 64 points
        one = [evaluation.recurrence_batch(a, b, zs[j:j + 1], upto)
               for j in range(len(zs))]
        for chains in ("pq", "p", "q"):
            empty = evaluation.recurrence_batch(a, b, zs[:0], upto, chains)
            assert empty.shape == (len(chains), 0, upto + 1)
            for size in (1, evaluation._SCALAR_BATCH, evaluation._SCALAR_BATCH + 1, 64):
                for lo in range(0, len(zs), size):
                    R = evaluation.recurrence_batch(a, b, zs[lo:lo + size], upto, chains)
                    assert R.shape == (len(chains), len(zs[lo:lo + size]), upto + 1)
                    assert R.dtype == complex and R.flags.c_contiguous
                    for c, chain in enumerate(chains):
                        k = "pq".index(chain)
                        for j in range(R.shape[1]):
                            assert R[c, j].tobytes() == one[lo + j][k, 0].tobytes(), \
                                (chains, size, lo + j)

    @pytest.mark.parametrize("source,backend",
                             _backends("c=1.2", "c=2", "c=3", "alternating_b", "geometric"))
    def test_agrees_with_mpmath(self, source, backend, monkeypatch):
        _use_backend(monkeypatch, backend)
        zs = _disk_points(9, 3)
        for L in (0, 1, 2, 1009):
            a, b = _source(source).arrays(max(L, 1))
            P, Q = evaluation.recurrence_batch(a, b, zs, L)
            for j, z in enumerate(zs):
                pm, qm = _mp_reference(a, b, z, L, 40)
                for std, ref in ((P[j], pm), (Q[j], qm)):
                    ref = np.array([complex(v) for v in ref])
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(std - ref)) <= 1e-14 * scale, (z, source, L)

    @pytest.mark.parametrize("chains", ["pq", "p", "q"])
    def test_banded_solve_only_the_chains_asked_for(self, chains, monkeypatch):
        calls = _counting_ztbsv(monkeypatch)
        a, b = _source("c=2").arrays(200)
        zs = _disk_points(5, 14)                           # 20 points
        R = evaluation.recurrence_batch(a, b, zs, 200, chains)
        assert len(calls) == len(zs) * len(chains)
        assert R.shape == (len(chains), len(zs), 201)

    @pytest.mark.parametrize("chains", ["pq", "p"])
    def test_large_batches_are_banded(self, chains, monkeypatch):
        calls = _counting_ztbsv(monkeypatch)
        a, b = _source("c=2").arrays(120)
        # 384 // len(chains) + 1 points: one past the 384 (chain, point)
        # pairs above which the kernel once switched to the array loop
        npts = {"pq": 193, "p": 385}[chains]
        zs = _disk_points(6, npts - 6)
        big = evaluation.recurrence_batch(a, b, zs, 120, chains)
        assert len(calls) == npts * len(chains)            # one solve per pair
        one = [evaluation.recurrence_batch(a, b, zs[j:j + 1], 120, chains)
               for j in range(npts)]
        monkeypatch.setattr(evaluation, "_ztbsv", lambda: None)
        loop = evaluation.recurrence_batch(a, b, zs, 120, chains)
        assert big.shape == loop.shape == (len(chains), npts, 121)
        for c, (T, U) in enumerate(zip(big, loop)):
            for j in range(npts):
                assert T[j].tobytes() == one[j][c, 0].tobytes(), j
            scale = np.max(np.abs(T), axis=1)
            assert (np.max(np.abs(U - T), axis=1) <= 1e-14 * scale).all()

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
                    assert all(_at_digits(v, dps) for v in g)
                    mags = [abs(v) for v in r]
                    for n in range(L + 1):
                        scale = max(mags[n], mags[n - 1] if n else 0)
                        assert abs(g[n] - r[n]) <= tol * scale, (z, chain, n)

    def test_extended_entries_belong_to_a_context_at_their_digits(self, src):
        a, b = src.arrays(50)
        for row in evaluation.recurrence_mp(a, b, 0.3 + 0.9j, 50, dps=40):
            assert all(_at_digits(v, 40) and v.context is not mp.mp for v in row)
        assert mp.mp.dps == 15

    @pytest.mark.parametrize("chains", ["p", "q"])
    def test_extended_chains_are_the_full_tables(self, src, chains):
        a, b = src.arrays(200)
        full = evaluation.recurrence_mp(a, b, 0.3 + 0.9j, 200, 32)
        one = evaluation.recurrence_mp(a, b, 0.3 + 0.9j, 200, 32, chains)
        assert len(full) == 2 and len(one) == len(chains)
        for row, chain in zip(one, chains):
            assert list(row) == list(full["pq".index(chain)])


class TestExtendedPrecision:
    def test_matches_rational_oracle(self, src):
        pol = TruncationPolicy(n_max=200)
        tab = evaluator_for(src, pol, precision="extended").table(1j)
        assert float(_cum(tab, 0)[200]) == pytest.approx(CUM_P2_I_200, rel=1e-12)
        # p_2(i) = (i*p_1(i) - a_0)/a_1 = -1/2 exactly
        assert complex(tab.p[2]) == pytest.approx(-0.5, abs=1e-30)

    @pytest.mark.parametrize("source", ["c=2", "alternating_b"])
    def test_entries_are_rounded_once(self, source):
        # each part against mpmath's rounding of its unrounded chain value,
        # and its squared modulus against the exact square of those parts
        from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

        prec, L = dps_to_prec(evaluation.EXTENDED_DPS), 1009
        half = 1 << (prec - 1)                  # least mantissa of prec bits
        values = [                              # (Re, Im, e) at the rounding's edges
            (2 * (half + 2) + 1, -(2 * (half + 1) + 1), -7),   # ties to even
            ((1 << (prec + 1)) - 1, 0, 3),      # rounds up to 2**(prec+1): bc = 1
            (0, -(4 * half + 5), -200), (0, 0, 9), (-12, 40, 0),
            (-(1 << 500) - 1, 3, -900),
        ]
        a, b = _source(source).arrays(L)
        for z in (0.3 + 0.9j, -1.1 - 2.0j, complex(1.5, 0.0), 0j):   # real z: Im = 0
            steps = evaluation._IntegerCoefficients(a[:L], b[:L],
                                                    evaluation.EXTENDED_DPS).steps(z, L)
            for chain in "pq":                  # q_0 = 0
                values += zip(*evaluation._integer_chain(steps, chain))
        row, squares = _extended_row(*map(list, zip(*values)), prec)
        assert isinstance(row, evaluation.ExtendedRow)
        assert len(row) == len(squares) == len(values)
        for k, (re, im, e) in enumerate(values):
            parts = (from_man_exp(re, e, prec, round_nearest),
                     from_man_exp(im, e, prec, round_nearest))
            v = row[k]
            assert _at_digits(v) and v._mpc_ == parts, (re, im, e)
            exact = sum(Fraction((-1) ** s * m) ** 2 * Fraction(2) ** (2 * x)
                        for s, m, x, _ in parts)
            assert squares[k] == float(exact), (re, im, e)
        assert row[1]._mpc_[0] == (0, 1, prec + 4, 1)
        assert _extended_row([1], [1], [600], prec)[1] == [math.inf]

    @pytest.mark.parametrize("dps", [32, 40])
    def test_entries_agree_on_every_route(self, src, dps, monkeypatch):
        # an entry is the same mpc read by int index or by slice from a
        # cached table, from recurrence_mp, from the batch reader's rows and
        # from pq_upto beyond the cache
        monkeypatch.setattr(evaluation, "EXTENDED_DPS", dps)
        ev = Evaluator(src, TruncationPolicy(n_max=60), "extended")
        zs = [0.3 + 0.9j, -1.1 - 2.0j, complex(1.5, 0.0), 0j]
        tabs, batch = ev.tables(zs), ev.rows(zs, ev.level + 1)
        upto = ev.top + 3
        a, b = src.arrays(upto)
        for j, (z, tab) in enumerate(zip(zs, tabs)):
            fresh = evaluation.recurrence_mp(a, b, z, upto, dps)
            beyond = ev.pq_upto(z, upto)
            for row, T, F, U in zip((tab.p, tab.q), batch, fresh, beyond):
                assert isinstance(row, evaluation.ExtendedRow) and len(row) == ev.top + 1
                by_index = [row[k] for k in range(len(row))]
                assert all(_at_digits(v, dps) for v in by_index)
                want = [v._mpc_ for v in by_index]
                for got in (row[:], F[: ev.top + 1], U[: ev.top + 1]):
                    assert got.dtype == object and [v._mpc_ for v in got] == want
                assert len(T[j]) == ev.level + 2
                assert [T[j][k]._mpc_ for k in range(ev.level + 2)] == want[: ev.level + 2]
                assert [v._mpc_ for v in row[5:-3:7]] == want[5:-3:7]
                assert row[-1]._mpc_ == want[-1]
                assert row[np.int64(7)]._mpc_ == want[7]

    def test_extended_tables_leave_the_collector_idle(self, src):
        # an extended table keeps no Python object per entry, so building
        # many of them starts (almost) no cyclic garbage collection
        import gc

        ev = Evaluator(src, TruncationPolicy(n_max=500), "extended")
        ev.table(0.5j)                          # warm: imports and first allocations
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            for z in 0.05 * np.arange(32) + 0.3j:
                ev.table(z)
        finally:
            gc.callbacks.remove(count)
        assert len(started) <= 3, started

    def test_squares_fall_back_off_the_certificate(self, src, monkeypatch):
        # each squared modulus against the exact square of the rounded
        # parts, where the unrounded parts cannot certify it: within D of a
        # float rounding midpoint, subnormal, at the 2**-1075 edge, past the
        # float range and at 1000 bits or more; these all take the fallback
        from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

        prec = dps_to_prec(evaluation.EXTENDED_DPS)
        fallbacks, square_sum = [], evaluation._square_sum

        def counted(*parts):
            fallbacks.append(parts)
            return square_sum(*parts)

        monkeypatch.setattr(evaluation, "_square_sum", counted)

        def exact(re, im, e):
            parts = (from_man_exp(re, e, prec, round_nearest),
                     from_man_exp(im, e, prec, round_nearest))
            value = sum(Fraction(m) ** 2 * Fraction(2) ** (2 * x) for _, m, x, _ in parts)
            try:
                return float(value)
            except OverflowError:
                return math.inf

        # Re^2 + Im^2 within 2 Re + 1 < D of a midpoint between 53-bit floats
        mid = (2 * ((1 << 52) + 12345) + 1) << 213
        near = [(math.isqrt(mid - im * im), im, e)
                for im in (0, 3 << 128, -(1 << 120)) for e in (-90, 0, 7)]
        for re, im, e in near:
            s = re * re + im * im
            assert re.bit_length() > prec and abs(s - mid) < 1 << (s.bit_length() + 2 - prec)
        edge = [(2 ** 60 + 1, 2 ** 60, -598), (2 ** 60, 2 ** 60 + 1, -598)]
        falling = near + edge + [
            ((1 << 133) + 12345, -7, -660),     # subnormal
            (1 << 90, 3 << 60, -700),           # subnormal, parts of prec bits
            (1, 1, -538),                       # exactly 2**-1075: ties to even, 0
            (1, -1, 600), (1 << 520, 0, 0), (1, 0, 520),     # past the float range
            ((1 << 133) + 1, 0, 379),           # 2**1024 and a little more
            ((1 << 600) - 1, 5, -600),          # 1000 bits or more
        ]
        for k, (re, im, e) in enumerate(falling):
            got = evaluation._squares([re], [im], [e], prec)
            assert got == [exact(re, im, e)], (re, im, e)
            assert len(fallbacks) == k + 1, (re, im, e)
        assert [exact(*v) for v in edge] == [math.ulp(0.0)] * 2
        assert exact(1, 1, -538) == 0.0 and exact(1, 0, 520) == math.inf
        # the certificate serves values in the normal range, the largest too
        fallbacks.clear()
        certified = [((1 << 133) + 1, 0, 378), ((1 << 133) - 1, 1 << 120, -1),
                     (3 << 100, -(5 << 90), -520), ((1 << 200) + 3, 1 << 133, -500)]
        got = evaluation._squares(*map(list, zip(*certified)), prec)
        assert got == [exact(*v) for v in certified] and not fallbacks
        # parts of a few digits to 10**150, one zero part, and zero
        rng = np.random.default_rng(6)
        with mp.workdps(32):
            parts = [mp.mpf(float(x)) * mp.mpf(10) ** int(k) / 3
                     for x, k in zip(rng.normal(size=40), rng.integers(-150, 150, 40))]
            vals = [mp.mpc(re, im) for re, im in zip(parts[::2], parts[1::2])]
            vals += [mp.mpc(0, parts[0]), mp.mpc(parts[1], 0), mp.mpc(0),
                     mp.mpc(mp.mpf(2) ** 500 * 3, mp.mpf(2) ** -500)]
        values = []
        for v in vals:
            (m, x), (n, y) = v.real.man_exp, v.imag.man_exp
            f = min(x, y) if m and n else x if m else y
            values.append((int(m) << int(x - f), int(n) << int(y - f), int(f)))
        got = evaluation._squares(*map(list, zip(*values)), prec)
        assert got == [exact(*v) for v in values]
        # a table whose squares overflow, or a point that is not finite,
        # raises instead of returning what it cannot hold
        ev = Evaluator(src, TruncationPolicy(n_max=10), "extended")
        with pytest.raises(EvaluationOverflowError, match="squared modulus"):
            ev.norms_p2([0.5j, 1e300])
        for bad in (complex(math.inf, 1), complex(1, math.nan)):
            with pytest.raises(EvaluationOverflowError, match="not finite"):
                ev.norms_p2([0.5j, bad])

    @pytest.mark.parametrize("source", ["c=1.2", "c=2", "alternating_b"])
    def test_coefficients_split_once_give_the_entries_of_each_point(self, source):
        # the evaluator's one split, cut to each length and shifted for
        # points whose parts go below its least exponent, against a split
        # of that length at each point: the least exponents differ, the
        # entries do not
        from mpmath.libmp import dps_to_prec

        ev = Evaluator(_source(source), TruncationPolicy(n_max=200), "extended")
        width = dps_to_prec(evaluation.EXTENDED_DPS) + evaluation._GUARD_BITS
        zs = list(_disk_points(13, 20)) + [0j, 1e-300 + 0.5j, 2.0 ** -1074, 40 + 3j,
                                           complex(3.0, 2.0 ** 60)]
        for upto in (0, 1, ev.level, ev.top, ev.top + 40):
            a, b = (v[:upto] for v in ev.source.arrays(upto))
            coeffs = ev._coefficients(upto)
            for z in map(complex, zs):
                got = coeffs.steps(z, upto)
                want = _reference_steps(a, b, z, width)
                assert got.upto == upto and len(got.X) == 0
                for chain in "pq":
                    assert (evaluation._integer_chain(got, chain)
                            == evaluation._integer_chain(want, chain)), (upto, z, chain)
                    assert len(got.X) == upto       # made once, for both chains
        assert coeffs is ev._coefficients(ev.level) and coeffs.n == ev.top + 40

    @settings(max_examples=40, deadline=None)
    @given(z=st.one_of(
               st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
                         st.floats(0, 2.5), st.floats(0, 2 * math.pi)),
               st.builds(complex, st.floats(-40, 40), st.sampled_from([0.0, -0.0])),
               st.builds(lambda x, y, s: complex(x, s * y), st.floats(-40, 40),
                         st.floats(1e-300, 1e-8), st.sampled_from([1, -1]))),
           source=st.sampled_from(["c=1.2", "c=2", "c=3", "alternating_b"]),
           upto=st.integers(0, 300), cut=st.tuples(st.integers(-320, 320),
                                                   st.integers(-320, 320)))
    def test_entries_round_when_read(self, z, source, upto, cut):
        # every entry, read by index or by slice, is mpmath's rounding of
        # the chain's unrounded parts, and every square is the exact square
        # of those rounded parts, rounded once
        from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

        dps = evaluation.EXTENDED_DPS
        prec = dps_to_prec(dps)
        a, b = _source(source).arrays(max(upto, 1))
        coeffs = evaluation._IntegerCoefficients(a[:upto], b[:upto], dps)
        rows = evaluation._mp_block(coeffs, [z], upto, "pq")
        steps = coeffs.steps(z, upto)
        for c, chain in enumerate("pq"):
            row = rows[c][0]
            want = [(from_man_exp(re, e, prec, round_nearest),
                     from_man_exp(im, e, prec, round_nearest))
                    for re, im, e in zip(*evaluation._integer_chain(steps, chain))]
            assert len(row) == len(want) == upto + 1
            for _ in range(2):                  # each read rounds again, alike
                assert [row[k]._mpc_ for k in range(upto + 1)] == want
            assert [row[k]._mpc_ for k in range(-upto - 1, 0)] == want
            assert [v._mpc_ for v in row[:]] == want
            assert [v._mpc_ for v in row[cut[0]:cut[1]]] == want[cut[0]:cut[1]]
            assert [v._mpc_ for v in row[::-3]] == want[::-3]
            squares = [evaluation._square_sum(m, e, n, f)
                       for (_, m, e, _), (_, n, f, _) in want]
            assert row.squares(0, upto + 1).tolist() == squares
            lo, hi = sorted(k % (upto + 1) for k in cut)
            assert row.squares(lo, hi).tolist() == squares[lo:hi]


def _same_table(t1, t2):
    """Bitwise equality of two point tables (complex128 or extended rows)."""
    def same(x, y):
        if isinstance(x, evaluation.ExtendedRow):
            return (isinstance(y, evaluation.ExtendedRow) and len(x) == len(y)
                    and all(x[k]._mpc_ == y[k]._mpc_ for k in range(len(x))))
        return x.dtype == y.dtype and x.tobytes() == y.tobytes()
    return (t1.z == t2.z and t1.stop_index == t2.stop_index
            and t1.converged == t2.converged and t1.tail_est == t2.tail_est
            and same(t1.p, t2.p) and same(t1.q, t2.q)
            and all(same(_cum(t1, c), _cum(t2, c)) for c in (0, 1)))


# The field each table is first read by: the stop rule, the whole sums or a norm.
_READ_ORDERS = {"stop_index": lambda tab: tab.stop_index,
                "cum_q2": lambda tab: _cum(tab, 1),
                "norm_p2": lambda tab: tab.norm_p2}


def _assert_eager_fields(tab, pol):
    """Every lazy field of a table equals the whole-row formula on its rows.

    The squares are ``np.abs(row) ** 2`` or ``_squares`` of the whole row,
    the sums one sequential ``np.add.accumulate`` per chain, and the stop
    rule runs over indices 0..level with 0 and 1 excluded.
    """
    rows = (tab.p, tab.q)
    if isinstance(tab.p, evaluation.ExtendedRow):
        for r in rows:
            r[-1]                               # computes the whole row
        R2 = np.array([evaluation._squares(r._re, r._im, r._e, r._prec) for r in rows])
    else:
        R2 = np.abs(np.array(rows)) ** 2
    cums = np.add.accumulate(R2, axis=1)
    L = pol.n_max
    inc, total = R2[0, : L + 1] + R2[1, : L + 1], cums[0, : L + 1] + cums[1, : L + 1]
    ok = pol.safety * inc < pol.tail_tol * total
    ok[:2] = False
    stop = int(ok.argmax())
    converged = bool(ok[stop])
    stop = stop if converged else L
    assert (tab.stop_index, tab.converged, tab.tail_est) == (stop, converged,
                                                             float(inc[stop]))
    assert _cum(tab, 0).tobytes() == cums[0].tobytes()
    assert _cum(tab, 1).tobytes() == cums[1].tobytes()
    assert (tab.norm_p2, tab.norm_q2) == (float(cums[0, L]), float(cums[1, L]))
    return stop, cums


class TestLazyFields:
    @pytest.mark.parametrize("first", list(_READ_ORDERS) + ["eval_pq"])
    @pytest.mark.parametrize("n_max", [60, 500])
    @pytest.mark.parametrize("source", ["c=1.2", "c=2", "c=3", "alternating_b"])
    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_lazy_fields_are_the_eager_formulas(self, precision, source, n_max, first):
        src, pol = _source(source), TruncationPolicy(n_max=n_max)
        zs = [0j, complex(1.5, 0.0), complex(-2.0, -0.0), 0.3 + 0.4j, -1.1 - 2.0j]
        clear_evaluator_cache()
        ev = evaluator_for(src, pol, precision)
        for z in zs:
            if first == "eval_pq":
                pe = eval_pq(src, z, pol, precision)
            else:
                _READ_ORDERS[first](ev.table(z))
            tab = ev.table(z)
            N, cums = _assert_eager_fields(tab, pol)
            if first == "eval_pq":
                assert (pe.N, pe.converged, pe.tail_est) == (N, tab.converged, tab.tail_est)
                assert (pe.cum_p2, pe.cum_q2) == (float(cums[0, N]), float(cums[1, N]))
                for got, row in zip((pe.p, pe.q), (tab.p, tab.q)):
                    assert len(got) == N + 1
                    if precision == "standard":
                        assert got.tobytes() == row[: N + 1].tobytes()
                    else:
                        assert [v._mpc_ for v in got] == [row[k]._mpc_ for k in range(N + 1)]

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_the_stop_rule_keeps_the_initial_data(self, src, precision):
        # so loose a rule passes at index 0, but p_0..p_2 are always kept
        pol = TruncationPolicy(n_max=60, tail_tol=10.0, safety=1.0)
        for z in (0j, 0.3 + 0.4j):
            tab = Evaluator(src, pol, precision).table(z)
            assert tab.stop_index == 2 and tab.converged
            _assert_eager_fields(tab, pol)

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_a_fresh_table_squares_only_what_its_reader_needs(self, precision,
                                                              monkeypatch):
        from indmom import nev

        src, pol = _source("c=2"), TruncationPolicy(n_max=1000)
        L = pol.n_max
        counts = _counting_squares(monkeypatch)
        clear_evaluator_cache()
        ev = evaluator_for(src, pol, precision)
        nev(src, 0.3 + 0.4j, -1.1 + 0.2j, pol, precision)
        assert counts == []
        # eval_pq squares standard rows, whole when built, once each through
        # the level, and extended rows through the end of the chunk that holds N
        for z in (0.7 - 0.2j, 2.1 + 1.0j, 0j):
            counts.clear()
            N = eval_pq(src, z, pol, precision).N
            if precision == "standard":
                assert counts == [L + 1, L + 1], (z, N)
                continue
            end = _stop_chunk_end(N, L)
            assert end <= N + 1 + evaluation._STOP_CHUNK
            assert sum(counts) == 2 * end, (z, N, counts)
        # a norm squares its chain through the level, once
        counts.clear()
        tab = ev.table(-0.4 + 1.3j)
        assert tab.norm_p2 == tab.norm_p2
        assert counts == [L + 1]

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_standard_reads_enter_no_error_state(self, src, precision, monkeypatch):
        # complex128 squares and sums stay finite, so standard reads pay no
        # numpy error-state switch; extended reads turn overflow warnings off
        entered = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def errstate(self, **kwargs):
                entered.append(kwargs)
                return np.errstate(**kwargs)

        pol = TruncationPolicy(n_max=200)
        clear_evaluator_cache()
        ev = evaluator_for(src, pol, precision)
        monkeypatch.setattr(evaluation, "np", CountingNumpy())
        eval_pq(src, 0.3 + 0.4j, pol, precision)
        tab = ev.table(-0.4 + 1.3j)
        assert tab.norm_p2 > 0 and tab.norm_q2 > 0
        assert ev.norms_p2([0.5j, 1.5 + 0.2j]).shape == (2,)
        if precision == "standard":
            assert entered == []
        else:
            assert entered and all(kw == {"over": "ignore"} for kw in entered)

    def test_an_overflowing_table_raises_where_a_sum_is_read(self, src):
        # an extended table whose squared moduli leave the float range is
        # built and cached and its corner values read; each reader of a
        # square or a sum raises
        from indmom import nev

        pol = TruncationPolicy(n_max=500)
        z = 1e5 + 0.5j
        message = re.escape(
            "evaluation overflow: a squared modulus exceeds the float range")
        clear_evaluator_cache()
        ev = evaluator_for(src, pol, "extended")
        tab = ev.table(z)
        assert ev._cache[z] is tab
        q = nev(src, z, 0.5j, pol, "extended")
        assert all(_at_digits(getattr(q, f)) for f in "ABCD")
        reads = [lambda: eval_pq(src, z, pol, "extended"), lambda: tab.norm_p2,
                 lambda: tab.converged, lambda: ev.norms_p2([z])]
        for read in reads:
            with pytest.raises(EvaluationOverflowError, match=message):
                read()
        assert ev.table(z) is tab


def _stop_chunk_end(N, L):
    """End of the extended stop rule's chunk that holds index N, at most L + 1."""
    return min((N // evaluation._STOP_CHUNK + 1) * evaluation._STOP_CHUNK, L + 1)


# One read of an extended row: (chain, kind, ...) with kind "int", "slice" or
# "squares"; int indices as Python ints or np.int64, in range or not.
_ROW_READS = st.one_of(
    st.tuples(st.sampled_from([0, 1]), st.just("int"), st.integers(-320, 320),
              st.sampled_from([int, np.int64])),
    st.tuples(st.sampled_from([0, 1]), st.just("slice"),
              st.one_of(st.none(), st.integers(-320, 320)),
              st.one_of(st.none(), st.integers(-320, 320)),
              st.one_of(st.none(), st.integers(-7, 7).filter(bool))),
    st.tuples(st.sampled_from([0, 1]), st.just("squares"),
              st.floats(0, 1), st.floats(0, 1)))


class TestLazyExtendedRows:
    @settings(max_examples=60, deadline=None)
    @given(z=st.one_of(
               st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
                         st.floats(0, 2.5), st.floats(0, 2 * math.pi)),
               st.sampled_from([1e-300 + 0.5j, complex(2.0 ** -1074)])),
           source=st.sampled_from(["c=1.2", "c=2", "alternating_b"]),
           upto=st.integers(0, 300), reads=st.lists(_ROW_READS, max_size=10))
    def test_reads_in_any_order_are_the_whole_chain(self, z, source, upto, reads):
        # each read of a fresh row, whatever came before it on the p or the
        # q row of the point, is bitwise the same read of the whole chain's
        # lists: list indexing and slicing, mpmath's rounding of each part;
        # the point's shared step lists run no further than its rows have
        from mpmath.libmp import from_man_exp, round_nearest

        dps = evaluation.EXTENDED_DPS
        a, b = _source(source).arrays(max(upto, 1))
        coeffs = evaluation._IntegerCoefficients(a[:upto], b[:upto], dps)
        prec = coeffs.prec
        stats = evaluation.EvalStats()
        shared = coeffs.steps(z, upto)
        rows = [evaluation.ExtendedRow.computed(shared, chain, prec, stats)
                for chain in "pq"]
        whole = coeffs.steps(z, upto)
        eager = [evaluation._integer_chain(whole, chain) for chain in "pq"]
        made = ("X", "A", "de") if whole.A is not coeffs._A else ("X",)

        def rounded(re, im, e):
            return (from_man_exp(re, e, prec, round_nearest),
                    from_man_exp(im, e, prec, round_nearest))

        assert stats.extended_steps == 0 and [len(row) for row in rows] == [upto + 1] * 2
        for c, kind, *args in reads:
            row, (RE, IM, E) = rows[c], eager[c]
            if kind == "int":
                k = args[1](args[0])
                try:
                    want = rounded(RE[k], IM[k], E[k])
                except IndexError:
                    with pytest.raises(IndexError):
                        row[k]
                else:
                    assert row[k]._mpc_ == want, k
            elif kind == "slice":
                k = slice(*args)
                want = [rounded(*v) for v in zip(RE[k], IM[k], E[k])]
                assert [v._mpc_ for v in row[k]] == want, k
            else:
                lo, hi = sorted(int(f * (upto + 1)) for f in args)
                want = evaluation._squares(RE[lo:hi], IM[lo:hi], E[lo:hi], prec)
                assert row.squares(lo, hi).tolist() == want
            # held entries are a prefix of the chain; steps are counted once
            held = [(r._re, r._im, r._e) for r in rows]
            assert all(list(map(len, h)) == [len(h[2])] * 3 for h in held)
            assert all(h == tuple(lists[: len(h[2])] for lists in e)
                       for h, e in zip(held, eager))
            assert stats.extended_steps == sum(len(h[2]) - 1 for h in held)
            furthest = max(len(h[2]) for h in held) - 1
            for name in made:
                lists = getattr(shared, name), getattr(whole, name)
                assert lists[0] == lists[1][:furthest], name
        assert [[v._mpc_ for v in row[:]] for row in rows] == [
            [rounded(*v) for v in zip(*lists)] for lists in eager]
        assert stats.extended_steps == 2 * upto
        assert all(row._kernel is None for row in rows)

    def test_counters(self):
        # a fresh eval_pq runs the kernel through the stop rule's last chunk;
        # later reads run only the steps no read has run before
        from indmom import nev

        src, pol = _source("c=2"), TruncationPolicy(n_max=1000)
        clear_evaluator_cache()
        ev = evaluator_for(src, pol, "extended")
        z = 0.7 - 0.2j
        N = eval_pq(src, z, pol, "extended").N
        steps = 2 * (_stop_chunk_end(N, ev.level) - 1)
        assert N < 200 and steps < 2 * (N + evaluation._STOP_CHUNK)
        assert ev.stats == evaluation.EvalStats(batches=1, batch_points=1, tables_built=1,
                                                 table_hits=0, extended_steps=steps)
        eval_pq(src, z, pol, "extended")
        assert ev.stats.extended_steps == steps and ev.stats.table_hits == 1
        # nev reads entries L and L + 1; a prefix through top reads the rest
        for _ in range(2):
            nev(src, z, z, pol, "extended")
            assert ev.stats.extended_steps == 2 * (ev.level + 1)
        for _ in range(2):
            ev.pq_upto(z, ev.top)
            assert ev.stats.extended_steps == 2 * ev.top
        # eval_pq once, nev(z, z) twice per call, pq_upto once
        assert (ev.stats.tables_built, ev.stats.table_hits) == (1, 7)
        # a batch with a repeated point builds it once; standard tables run no step
        ev.tables([0.5j, 0.5j, z])
        assert (ev.stats.tables_built, ev.stats.table_hits) == (2, 9)
        assert ev.stats.extended_steps == 2 * ev.top
        assert (ev.stats.batches, ev.stats.batch_points) == (2, 2)
        std = evaluator_for(src, pol)
        std.tables([0.5j, 0.5j])
        assert std.stats == evaluation.EvalStats(batches=1, batch_points=1,
                                                 tables_built=1, table_hits=1)

    @pytest.mark.parametrize("source", ["c=1.2", "c=2", "c=3", "alternating_b"])
    def test_fresh_eval_pq_runs_one_chunk_past_its_stop(self, source):
        # extended stop-rule chunks do not double: a fresh eval_pq runs at
        # most _STOP_CHUNK - 1 steps per chain past its stop index, and its
        # stop rule is bitwise the rule run over rows computed whole
        src, pol = _source(source), TruncationPolicy(n_max=500)
        zs = list(_disk_points(28, 10)[:10]) + [0j, 0.3 + 0.4j]
        clear_evaluator_cache()
        ev = evaluator_for(src, pol, "extended")
        coeffs, converged = ev._coefficients(ev.top), []
        for z in map(complex, zs):
            before = ev.stats.extended_steps
            pe = eval_pq(src, z, pol, "extended")
            steps = ev.stats.extended_steps - before
            assert 0 < steps <= 2 * min(pe.N + evaluation._STOP_CHUNK, ev.top), (z, pe.N)
            point = coeffs.steps(z, ev.top)
            eager = evaluation.PointTable(z, *[evaluation.ExtendedRow(
                *evaluation._integer_chain(point, chain), coeffs.prec) for chain in "pq"],
                pol)
            assert (pe.N, pe.converged, pe.tail_est, pe.cum_p2, pe.cum_q2) == \
                eager._stop_rule(), z
            converged.append(pe.converged)
        assert any(converged)
        # at c = 1.2 the rule does not pass at 0.3 + 0.4i: every chunk is walked
        assert converged[-1] == (source != "c=1.2")

    @pytest.mark.parametrize("source", ["c=1.2", "c=2", "alternating_b"])
    def test_reads_after_a_partial_eval_pq_are_a_fresh_tables(self, source):
        # a table that eval_pq left partly computed serves every later reader
        # as a table computed whole before any read
        from indmom import nev

        src, pol = _source(source), TruncationPolicy(n_max=300)
        zs = [0.7 - 0.2j, 2.1 + 1.0j, complex(1.5, 0.0)]
        u = -1.1 + 0.2j
        clear_evaluator_cache()
        for z in zs:
            eval_pq(src, z, pol, "extended")
        ev = evaluator_for(src, pol, "extended")
        assert all(len(ev.table(z).p._e) < ev.top + 1 for z in zs)
        got = [(ev.pq_upto(z, ev.level + 3), nev(src, z, u, pol, "extended"),
                ev.table(z).norm_p2) for z in zs]
        for z, (pq, quad, norm) in zip(zs, got):
            fresh = Evaluator(src, pol, "extended").table(z)
            fresh.p[-1], fresh.q[-1]            # computed whole before any read
            assert _same_table(ev.table(z), fresh)
            for g, row in zip(pq, (fresh.p, fresh.q)):
                assert [v._mpc_ for v in g] == [v._mpc_ for v in row[: ev.level + 4]]
            assert norm == fresh.norm_p2
            clear_evaluator_cache()
            want = nev(src, z, u, pol, "extended")
            assert [getattr(quad, f)._mpc_ for f in "ABCD"] == [
                getattr(want, f)._mpc_ for f in "ABCD"]


def _counting_squares(monkeypatch):
    """Entries squared per call of the extended and the standard squares helper."""
    counts = []
    squares, abs_squares = evaluation._squares, evaluation._abs_squares
    monkeypatch.setattr(evaluation, "_squares", lambda RE, IM, E, prec: (
        counts.append(len(RE)) or squares(RE, IM, E, prec)))
    monkeypatch.setattr(evaluation, "_abs_squares", lambda x: (
        counts.append(len(x)) or abs_squares(x)))
    return counts


def _assert_batch_readers_are_one_point_calls(ev, zs, sizes):
    """norms_p2 and line_values on the first ``size`` points, for each size,
    are bitwise their values at each point alone; norms_p2 is bitwise the
    point tables' norm_p2 too.  Line functions are float64 only, so an
    extended evaluator checks norms_p2 alone."""
    lines = ([[nevanlinna_line(ev, n) for n in names] for names in ("BD", "AC")]
             if ev.precision == "standard" else [])
    alone = [np.concatenate([ev.norms_p2([z]) for z in zs])]
    alone += [np.concatenate([line_values(fs, [z]) for z in zs], axis=1) for fs in lines]
    tables = np.array([tab.norm_p2 for tab in ev.tables(zs)])
    assert alone[0].tobytes() == tables.tobytes()
    for size in sizes:
        batch = [ev.norms_p2(zs[:size])]
        batch += [line_values(fs, zs[:size]) for fs in lines]
        assert batch[0].shape == (size,)
        assert batch[0].tobytes() == alone[0][:size].tobytes(), size
        for got, want in zip(batch[1:], alone[1:]):
            assert got.tobytes() == want[:, :size].tobytes(), size


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

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_batches_count_reader_calls_and_their_points(self, src, precision):
        # every call of the one batch reader counts once, with the points it
        # computed; cache hits and repeated points compute nothing more
        ev = Evaluator(src, TruncationPolicy(n_max=20), precision)
        ev.tables([0.5j, 1 + 1j, 0.5j])
        ev.table(0.5j)
        ev.pq_upto(1 + 1j, ev.top)
        assert (ev.stats.batches, ev.stats.batch_points) == (1, 2)
        ev.norms_p2([0.1j, 0.2j, 0.3j])
        ev.pq_upto(0.5j, ev.top + 1)
        if precision == "standard":
            line = nevanlinna_line(ev, "B")     # a table at v = 0
        else:
            ev.table(0.0)                       # line functions are float64 only
        assert (ev.stats.batches, ev.stats.batch_points) == (4, 7)
        if precision == "standard":
            line_values([line], [2j, 3j, 2j, -3j])  # a conjugate is one point
            assert (ev.stats.batches, ev.stats.batch_points) == (5, 9)
        assert (ev.stats.tables_built, ev.stats.table_hits) == (3, 3)

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_hits_keep_counts_and_recency(self, src, precision):
        # a batch's points are most recent in the order of their last
        # occurrence, hits and misses alike; a point twice in a batch is one
        # table built, or two hits
        ev = Evaluator(src, TruncationPolicy(n_max=20), precision)
        first = ev.tables([1j, 2j, 3j, 4j])
        assert list(ev._cache) == [1j, 2j, 3j, 4j]
        tabs = ev.tables([2j, 5j, 1j, 2j, 5j, 6j])
        assert list(ev._cache) == [3j, 4j, 1j, 2j, 5j, 6j]
        assert (ev.stats.tables_built, ev.stats.table_hits) == (6, 4)
        assert tabs[0] is tabs[3] is first[1] and tabs[2] is first[0]
        assert tabs[1] is tabs[4] and [t.z for t in tabs] == [2j, 5j, 1j, 2j, 5j, 6j]
        assert ev.tables([3j, 3j]) == [first[2]] * 2 and ev.table(4j) is first[3]
        assert list(ev._cache) == [1j, 2j, 5j, 6j, 3j, 4j]
        assert (ev.stats.tables_built, ev.stats.table_hits) == (6, 7)
        assert ev.stats.batches == 2

    def test_evaluator_hits_keep_recency(self, src):
        clear_evaluator_cache()
        pols = [TruncationPolicy(n_max=n) for n in range(20, 29)]
        evs = [evaluator_for(src, pol) for pol in pols[:8]]

        def levels():
            return [key[1].n_max for key in evaluation._EVALUATORS]

        assert evaluator_for(src, pols[0]) is evs[0]       # a hit: now most recent
        assert levels() == list(range(21, 28)) + [20]
        evaluator_for(src, pols[8])                        # evicts the least recent
        assert levels() == list(range(22, 28)) + [20, 28]
        assert evaluator_for(src, pols[0]) is evs[0]
        assert evaluator_for(src, pols[1]) is not evs[1]   # evicted, made anew
        assert levels() == list(range(23, 28)) + [28, 20, 21]
        clear_evaluator_cache()

    def test_one_batch_larger_than_the_cache(self, src):
        ev = Evaluator(src, TruncationPolicy(n_max=20))
        zs = 0.01 * np.arange(300) + 0.5j
        tabs = ev.tables(zs)
        assert [t.z for t in tabs] == [complex(z) for z in zs]
        assert len(ev._cache) == 256

    def test_cached_tables_do_not_depend_on_the_batch(self, src, monkeypatch):
        pol = TruncationPolicy(n_max=30)
        zs = _disk_points(11, 389)[:389]
        sizes = (1, 2, 13, 300, 389)     # point loop, array loop on the fallback
        for backend in ("default", "fallback"):
            with monkeypatch.context() as patch:
                _use_backend(patch, backend)
                calls = _counting(patch)
                for first, size in itertools.product(_READ_ORDERS, sizes):
                    calls.clear()
                    tabs = Evaluator(src, pol).tables(zs[:size])
                    assert calls == [size]                 # all misses in one call
                    for z, tab in zip(zs, tabs):
                        _READ_ORDERS[first](tab)
                        _assert_eager_fields(tab, pol)
                        assert _same_table(tab, Evaluator(src, pol).table(z))
                        # each table owns its rows: none keeps a batch block alive
                        for x in (tab.p, tab.q):
                            assert x.flags.c_contiguous and x.flags.owndata
                            assert not x.flags.writeable
                _assert_batch_readers_are_one_point_calls(Evaluator(src, pol), zs, sizes)
        _assert_batch_readers_are_one_point_calls(Evaluator(src, pol, "extended"),
                                                  zs[:13], (1, 2, 13))

    def test_pq_upto_reads_cached_tables(self, src, monkeypatch):
        for backend in ("default", "fallback"):
            with monkeypatch.context() as patch:
                _use_backend(patch, backend)
                self._pq_upto_reads_cached_tables(src, patch)

    @staticmethod
    def _pq_upto_reads_cached_tables(src, monkeypatch):
        pol = TruncationPolicy(n_max=40)
        zs = list(0.2 * np.arange(16) - 1.5 + 0.7j) + [complex(1.5, -0.0)]
        cached = Evaluator(src, pol)
        cached.tables(zs)                          # one batch
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

    def test_one_evaluator_per_coefficient_file(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("".join(f"{(n + 1) ** 2} 0.5\n" for n in range(80)))
        first, second = (JacobiCoefficients.from_file(str(path)) for _ in range(2))
        pol = TruncationPolicy(n_max=50)
        assert first is not second and hash(first) == hash(second)
        assert evaluator_for(first, pol) is evaluator_for(second, pol)

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
    """Points of each standard kernel call, recorded."""
    calls = []
    kernel = evaluation.recurrence_batch

    def counted(a, b, zs, upto, *rest):
        calls.append(len(zs))
        return kernel(a, b, zs, upto, *rest)

    monkeypatch.setattr(evaluation, "recurrence_batch", counted)
    return calls


@pytest.mark.parametrize("check", ["_check_three_point", "_check_pick"])
def test_sampled_checks_batch_their_points(monkeypatch, check):
    config = RunConfig(truncation=TruncationPolicy(n_max=120))
    clear_evaluator_cache()
    calls = _counting(monkeypatch)
    results = getattr(acceptance, check)(config)
    assert all(r.passed for r in results)
    assert len(calls) <= 3, calls
