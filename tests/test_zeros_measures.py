import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from indmom import (DiscreteMeasure, ExtensionParam, JacobiCoefficients,
                    RootScanConfig, TruncationPolicy, adjacent_zero_sign,
                    build_measure, count_zeros_rect, evaluation,
                    export_measure_csv, mass_at, mobius, moment, nev, nevanlinna_line,
                    stieltjes, support_function, t_for_point, zeros)
from indmom.errors import (IndmomError, NonConvergenceError, SupportPointError,
                           ZeroOnContourError)
from indmom.evaluation import Evaluator, evaluator_for
from indmom.nevanlinna import SERIES_FORMS
from indmom.zeros import LineFunction, line_values


@pytest.fixture(scope="module")
def measure_t1(src, pol):
    cfg = RootScanConfig(window=(-5.0, 5.0))
    return build_measure(src, ExtensionParam.finite(1.0), cfg, pol,
                         n_check=6, auto_window=True)


@pytest.fixture(scope="module")
def measure_inf(src, pol):
    cfg = RootScanConfig(window=(-5.0, 5.0))
    return build_measure(src, ExtensionParam.infinite(), cfg, pol,
                         n_check=6, auto_window=True)


class TestRealZeros:
    def test_d_vanishes_at_origin(self, src, pol):
        cfg = RootScanConfig(window=(-2.0, 2.0))
        scan = support_function(evaluator_for(src, pol),
                                ExtensionParam.infinite()).zeros(cfg)
        assert np.min(np.abs(scan.zeros)) < 1e-9

    def test_d_zero_set_symmetric(self, src, pol):
        cfg = RootScanConfig(window=(-30.0, 30.0))
        z = support_function(evaluator_for(src, pol),
                             ExtensionParam.infinite()).zeros(cfg).zeros
        assert np.max(np.abs(np.sort(z) + np.sort(-z)[::-1])) < 1e-9

    def test_b_zeros_against_fine_extended_oracle(self, src):
        # same level-120 function scanned on a fine grid in mpmath
        import mpmath as mp

        pol = TruncationPolicy(n_max=120)
        cfg = RootScanConfig(window=(-6.0, 6.0))
        scan = support_function(evaluator_for(src, pol),
                                ExtensionParam.finite(0.0)).zeros(cfg)

        L = pol.n_max
        with mp.workdps(30):
            a = [mp.mpf((k + 1) ** 2) for k in range(L + 2)]

            def pq(x):
                p = [mp.mpf(1), x / a[0]]
                q = [mp.mpf(0), 1 / a[0]]
                for n in range(1, L + 1):
                    p.append((x * p[n] - a[n - 1] * p[n - 1]) / a[n])
                    q.append((x * q[n] - a[n - 1] * q[n - 1]) / a[n])
                return p, q

            p0, q0 = pq(mp.mpf(0))

            def bfun(x):
                px, _ = pq(mp.mpf(x))
                return float(-1 + x * mp.fsum(px[k] * q0[k] for k in range(L + 1)))

            xs = np.arange(-6.0, 6.0 + 0.01, 0.02)
            vals = np.array([bfun(x) for x in xs])
            roots = []
            for i in range(len(xs) - 1):
                if vals[i] * vals[i + 1] < 0:
                    lo, hi, flo = xs[i], xs[i + 1], vals[i]
                    for _ in range(50):
                        mid = 0.5 * (lo + hi)
                        fm = bfun(mid)
                        if flo * fm <= 0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    roots.append(0.5 * (lo + hi))
        assert len(scan.zeros) == len(roots)
        assert np.max(np.abs(scan.zeros - np.array(roots))) < 1e-8


# t = inf zeroes g_L at odd L (p_L(0) = 0) and t = 0 at even L
# (q_L(0) = 0); at even L, t = 1e-310 leaves g_L subnormal and the corner
# entry overflows
NODE_TS = ["inf", "0", "1", "1e-14", "-1e-14", "1e14", "-1e14", "1e-310"]


@pytest.fixture(scope="module", params=[300, 301])
def level_ev(request, src):
    return evaluator_for(src, TruncationPolicy(n_max=request.param))


def _line(ev, kind, t):
    """B + tD (P kind) or A + tC (Q kind) at the evaluator's level."""
    names = ("B", "D") if kind == "p" else ("A", "C")
    return t.combine(*(nevanlinna_line(ev, n) for n in names))


def _corner_form(ev, fs, xs):
    """a_L (T_{L+1} g_L - T_L g_{L+1}) of each line function, one row each."""
    L = ev.level
    (rows,) = ev.rows(xs, L + 1, fs[0].kind)
    T = rows.T.copy()                           # row k: index k at every point
    return np.array([ev.a[L] * (T[L + 1] * f.g[0] - T[L] * f.g[1]) for f in fs],
                    dtype=complex)


def _check_node_set(f, cfg):
    scan = f.zeros(cfg)
    nodes = f.nodes()
    assert not scan.warning
    assert len(scan.zeros) and np.all(np.diff(scan.zeros) > 0)
    tol = cfg.refine_tol
    assert np.all(np.sign(f.real(scan.zeros - tol))
                  * np.sign(f.real(scan.zeros + tol)) <= 0)
    # strip sides cross the axis midway between the nodes around each edge
    lo, hi = cfg.window
    xlo = 0.5 * (nodes[nodes < lo].max() + nodes[nodes >= lo].min())
    xhi = 0.5 * (nodes[nodes <= hi].max() + nodes[nodes > hi].min())
    assert count_zeros_rect(f, (xlo, xhi, -1.0, 1.0), 256) == len(scan.zeros)


class TestNodeSets:
    @pytest.mark.parametrize("kind", ["p", "q"])
    @pytest.mark.parametrize("t", NODE_TS)
    def test_nodes_are_verified_zeros(self, level_ev, kind, t):
        f = _line(level_ev, kind, ExtensionParam.parse(t))
        _check_node_set(f, RootScanConfig(window=(-30.0, 30.0)))

    @settings(max_examples=20, deadline=None)
    @given(level=st.sampled_from([300, 301]),
           t=st.floats(-1e15, 1e15, allow_nan=False))
    def test_drawn_t(self, src, level, t):
        ev = evaluator_for(src, TruncationPolicy(n_max=level))
        for kind in ("p", "q"):
            _check_node_set(_line(ev, kind, ExtensionParam.finite(t)),
                            RootScanConfig(window=(-30.0, 30.0)))

    def test_window_without_nodes(self, src, pol):
        f = nevanlinna_line(evaluator_for(src, pol), "D")
        scan = f.zeros(RootScanConfig(window=(0.1, 0.2)))
        assert len(scan.zeros) == 0
        assert scan.contour_count == 0 and not scan.warning

    def test_off_nodes_polished_bad_sets_flagged(
            self, src, pol, monkeypatch):
        f = nevanlinna_line(evaluator_for(src, pol), "D")
        cfg = RootScanConfig(window=(-30.0, 30.0))
        nodes = f.nodes()
        exact = f.zeros(cfg).zeros
        monkeypatch.setattr(f, "nodes", lambda: nodes + 1e-7)
        scan = f.zeros(cfg)
        assert not scan.warning
        assert np.max(np.abs(scan.zeros - exact)) < 2 * cfg.refine_tol
        spurious = np.sort(np.append(nodes, 0.5 * (exact[0] + exact[1])))
        monkeypatch.setattr(f, "nodes", lambda: spurious)
        with monkeypatch.context() as m:
            # a count that agrees with the nodes: the sign checks alone flag it
            m.setattr(zeros, "count_zeros_rect", lambda *a, **k: len(exact) + 1)
            assert f.zeros(cfg).warning
        # a missed zero passes every sign check; only the winding count sees it
        missing = np.delete(nodes, np.searchsorted(nodes, exact[0]))
        monkeypatch.setattr(f, "nodes", lambda: missing)
        with monkeypatch.context() as m:
            m.setattr(zeros, "count_zeros_rect", lambda *a, **k: len(exact) - 1)
            assert not f.zeros(cfg).warning
        scan = f.zeros(cfg)
        assert scan.warning and scan.contour_count == len(exact)

    def test_zero_on_the_contour_sets_the_warning(self, src, pol, monkeypatch):
        def on_contour(*args, **kwargs):
            raise ZeroOnContourError("zero on the contour")

        monkeypatch.setattr(zeros, "count_zeros_rect", on_contour)
        f = nevanlinna_line(evaluator_for(src, pol), "D")
        scan = f.zeros(RootScanConfig(window=(-5.0, 5.0)))
        assert scan.warning and scan.contour_count is None
        assert len(scan.zeros) > 0

    def test_one_eigensolve_per_line_function(self, src, pol, monkeypatch):
        solves = []
        solve = zeros._tridiagonal_eigvals
        monkeypatch.setattr(zeros, "_tridiagonal_eigvals",
                            lambda d, e: solves.append(len(d)) or solve(d, e))
        build_measure(src, ExtensionParam.finite(0.7),
                      RootScanConfig(window=(-5.0, 5.0)), pol, auto_window=True)
        assert len(solves) == 1
        f = nevanlinna_line(evaluator_for(src, pol), "D")
        mine = f.nodes()
        expected = mine.copy()
        mine[:] = 0.0                             # the caller's copy only
        assert np.array_equal(f.nodes(), expected)
        assert len(solves) == 2

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_values_compute_only_their_chain(self, level_ev, kind, monkeypatch):
        f = _line(level_ev, kind, ExtensionParam.finite(0.7))
        asked = []
        kernel = evaluation.recurrence_batch

        def counted(a, b, zs, upto, chains, *rest):
            asked.append(chains)
            return kernel(a, b, zs, upto, chains, *rest)

        monkeypatch.setattr(evaluation, "recurrence_batch", counted)
        xs = np.array([0.3 + 0.2j, 1.0, -2.5])
        with_kind = f(xs)
        monkeypatch.setattr(evaluation, "recurrence_batch", kernel)
        assert asked == [kind]
        assert with_kind.tobytes() == _corner_form(level_ev, [f], xs)[0].tobytes()

    def test_values_do_not_depend_on_the_batch(self, src, pol):
        # next to a node a value is a small remainder of large terms, so any
        # rounding that depends on the batch shows there
        f = support_function(evaluator_for(src, pol), ExtensionParam.finite(1.0))
        nodes = f.nodes()
        inside = nodes[(nodes > -40.0) & (nodes < 40.0)]
        xs = np.concatenate([inside - 1e-11, inside + 1e-11])
        assert len(xs) == 16
        alone = np.array([f([x])[0] for x in xs])
        assert f(xs).tobytes() == alone.tobytes()
        crowded = f(np.concatenate([xs, np.linspace(-100.0, 100.0, 400)]))[:16]
        assert crowded.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("names", [("B", "D"), ("A", "C")])
    def test_values_match_the_series_on_strip_points(self, src, pol, names):
        # the series off + (x - v) sum_{k<=L} g_k T_k(x) on the whole anchor
        # table is the reference for the corner-pair form
        ev = evaluator_for(src, pol)
        L = ev.level
        (kind, b_anchor, b_off), (_, d_anchor, d_off) = (SERIES_FORMS[n]
                                                         for n in names)
        zs = zeros._contour((-40.5, 40.5, -1.0, 1.0), 256)
        (rows,) = ev.rows(zs, L, kind)
        T = rows.T
        for v in (0.0, 0.7):
            tab = ev.table(v)
            for t in map(ExtensionParam.parse, ("0", "1", "-2.5", "inf")):
                f = t.combine(*(nevanlinna_line(ev, n, v) for n in names))
                g = t.combine(getattr(tab, b_anchor), getattr(tab, d_anchor))
                series = t.combine(b_off, d_off) + (zs - v) * (g[: L + 1] @ T)
                assert np.max(np.abs(f(zs) - series) / np.abs(series)) < 1e-12

    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_infinite_corner_drops_a_node(self, level_ev, kind):
        L = level_ev.level
        size = L + 1 if kind == "p" else L
        for t in NODE_TS:
            f = _line(level_ev, kind, ExtensionParam.parse(t))
            dropped = ((t == "inf" and L % 2)
                       or (t in ("0", "1e-310") and L % 2 == 0))
            assert (f.g[0] == 0) == (dropped and t != "1e-310")
            assert len(f.nodes()) == size - dropped


@pytest.fixture(scope="module")
def geometric_src(tmp_path_factory):
    path = tmp_path_factory.mktemp("geo") / "geometric.txt"
    path.write_text("".join(f"{2.0 ** n!r} 0.0\n" for n in range(320)))
    return JacobiCoefficients.from_file(str(path))


class TestTridiagonalEigvals:
    def test_lapack_found_where_numpy_bundles_it(self):
        # a numpy wheel built on 64-bit-integer scipy-openblas ships dsterf
        # and the BLAS ztbsv of the recurrence kernel
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        bundled = (lapack.get("name") == "scipy-openblas"
                   and "USE64BITINT" in lapack.get("openblas configuration", ""))
        assert (zeros._dsterf() is not None) == bundled
        assert (zeros._dstebz() is not None) == bundled
        assert (evaluation._ztbsv() is not None) == bundled

    # (L, t): a finite corner at both parities; t = 0 at even L and t = inf
    # at odd L zero g_L and drop the corner
    @pytest.mark.parametrize("L,t,dropped", [(300, "0.7", False),
                                             (301, "0.7", False),
                                             (300, "0", True),
                                             (301, "inf", True)])
    @pytest.mark.parametrize("kind", ["p", "q"])
    @pytest.mark.parametrize("source", ["c=2", "c=3", "2^n"])
    def test_backends_agree_on_line_functions(self, source, kind, L, t,
                                              dropped, geometric_src,
                                              monkeypatch):
        src = {"c=2": JacobiCoefficients.power_law(2.0),
               "c=3": JacobiCoefficients.power_law(3.0),
               "2^n": geometric_src}[source]
        f = _line(evaluator_for(src, TruncationPolicy(n_max=L)), kind,
                  ExtensionParam.parse(t))
        systems = []
        solve = zeros._tridiagonal_eigvals
        monkeypatch.setattr(zeros, "_tridiagonal_eigvals",
                            lambda d, e: systems.append((d, e)) or solve(d, e))
        f.nodes()
        monkeypatch.undo()
        (d, e), = systems
        assert len(d) == (L + 1 if kind == "p" else L) - dropped
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, -1))
        nodes = zeros._tridiagonal_eigvals(d, e)
        if source == "2^n":
            assert np.max(np.abs(nodes - dense) / np.abs(dense)) <= 1e-14
        else:
            assert nodes.tobytes() == dense.tobytes()
        monkeypatch.setattr(zeros, "_dsterf", lambda: None)
        assert zeros._tridiagonal_eigvals(d, e).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("route", ["dsterf", "eigvalsh", "dstebz"])
    def test_nan_diagonal_raises_non_convergence(self, route, monkeypatch):
        if route == "eigvalsh":
            monkeypatch.setattr(zeros, "_dsterf", lambda: None)
        d = np.array([1.0, np.nan, 2.0])
        with pytest.raises(NonConvergenceError):
            if route == "dstebz":
                zeros._tridiagonal_eigvals_near(d, np.ones(2), 0.0, 1)
            else:
                zeros._tridiagonal_eigvals(d, np.ones(2))

    # dstebz's arguments: 0 is RANGE (b"V" for the count, b"I" for the
    # slice), 10 M (eigenvalues found), 12 W, 17 INFO
    @pytest.mark.parametrize("call,failure", [(b"V", "info"), (b"I", "info"),
                                              (b"I", "short"), (b"I", "nan")])
    def test_failed_bisection_raises_non_convergence(self, call, failure,
                                                     monkeypatch):
        dstebz = zeros._dstebz()

        def broken(*args):
            dstebz(*args)
            if args[0] != call:
                return
            if failure == "info":
                args[17].value = 2
            elif failure == "short":
                args[10].value -= 1
            else:
                args[12][0] = np.nan

        monkeypatch.setattr(zeros, "_dstebz", lambda: broken)
        d, e = np.array([2.0, -1.0, 0.5, 3.0]), np.array([1.0, 3.0, 0.5])
        with pytest.raises(NonConvergenceError):
            zeros._tridiagonal_eigvals_near(d, e, 0.0, 1)

    def test_sturm_count_is_the_guarded_pivot_count(self, monkeypatch):
        # the loop dlarrc runs with JOBT = 'T', (d_i - x) - e_{i-1}^2 / q,
        # with dstebz's guard: a pivot below pivmin in size is -pivmin
        def reference(d, e, x, pivmin):
            count, q = 0, 1.0
            for i, di in enumerate(d.tolist()):
                q = di - x if i == 0 else (di - x) - e[i - 1] * e[i - 1] / q
                if abs(q) < pivmin:
                    q = -pivmin
                count += q <= 0.0
            return count

        # the count is M of the RANGE = 'V' call; |e_j| < 1 leaves it unscaled
        counts = []
        bisect = zeros._bisect

        def spy(dstebz, rng, *args):
            found = bisect(dstebz, rng, *args)
            if rng == b"V":
                counts.append(found)
            return found

        monkeypatch.setattr(zeros, "_bisect", spy)
        rng = np.random.default_rng(26)
        for trial in range(400):
            n = int(rng.integers(1, 120))
            d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            if trial % 3 == 0:
                d = np.round(d)         # integer pivots: exact zeros happen
            if trial % 5 == 0:
                d = np.zeros(n)         # every d_i - 0 is 0
            e = rng.uniform(0.01, 1.0, size=n - 1)
            xs = [float(rng.normal()), float(d[int(rng.integers(n))]), 0.0]
            if trial % 4 == 1:
                # exact zeros split the matrix into blocks that dstebz
                # counts one by one
                e[rng.random(n - 1) < 0.3] = 0.0
                xs += [1e300, -1e300]
            for x in xs:
                zeros._tridiagonal_eigvals_near(d, e, x, 1)
                assert counts.pop() == reference(d, e.tolist(), x, zeros._TINY), (
                    trial, x)

    def test_inputs_untouched_and_small_sizes(self):
        d, e = np.array([2.0, -1.0, 0.5]), np.array([1.0, 3.0])
        nodes = zeros._tridiagonal_eigvals(d, e)
        assert np.all(np.diff(nodes) > 0)
        assert d.tolist() == [2.0, -1.0, 0.5] and e.tolist() == [1.0, 3.0]
        assert zeros._tridiagonal_eigvals([4.0], []).tolist() == [4.0]
        assert len(zeros._tridiagonal_eigvals([], [])) == 0
        with pytest.raises(ValueError):
            zeros._tridiagonal_eigvals(d, d)

    def test_bisection_inputs_untouched_and_small_sizes(self):
        d, e = np.array([2.0, -1.0, 0.5]), np.array([1.0, 3.0])
        lo, nodes = zeros._tridiagonal_eigvals_near(d, e, 0.0, 1)
        full = zeros._tridiagonal_eigvals(d, e)
        m = int(np.sum(full <= 0.0))
        assert lo == m - 1
        assert np.allclose(nodes, full[m - 1: m + 1], rtol=1e-14, atol=0)
        assert d.tolist() == [2.0, -1.0, 0.5] and e.tolist() == [1.0, 3.0]
        assert zeros._tridiagonal_eigvals_near([4.0], [], 5.0, 2)[1].tolist() == [4.0]
        assert zeros._tridiagonal_eigvals_near([4.0], [], 3.0, 1)[1].tolist() == [4.0]
        assert len(zeros._tridiagonal_eigvals_near([], [], 0.0, 1)[1]) == 0
        with pytest.raises(ValueError):
            zeros._tridiagonal_eigvals_near(d, d, 0.0, 1)


@pytest.fixture(scope="module")
def alternating_src(tmp_path_factory):
    path = tmp_path_factory.mktemp("alt") / "alternating.txt"
    path.write_text("".join(f"{(n + 1) ** 2} {0.3 * (-1) ** n!r}\n"
                            for n in range(320)))
    return JacobiCoefficients.from_file(str(path))


# bisection and dsterf agree to a few ulp of each node (at most 1.4e-14
# relative seen at L = 300-500), and to a few ulp absolute inside [-1, 1],
# where the top rows of these matrices are O(1)
NEAR_REL = 1e-13


class TestNodesNear:
    @pytest.fixture(params=["c=2", "c=3", "alternating_b", "2^n"])
    def near_ev(self, request, alternating_src, geometric_src):
        src = {"c=2": JacobiCoefficients.power_law(2.0),
               "c=3": JacobiCoefficients.power_law(3.0),
               "alternating_b": alternating_src,
               "2^n": geometric_src}[request.param]
        return evaluator_for(src, TruncationPolicy(n_max=300))

    @staticmethod
    def _function(ev, name):
        if name in ("D", "A"):
            return nevanlinna_line(ev, name, 0.37)
        return _line(ev, "p" if name == "BtD" else "q",
                     ExtensionParam.finite(0.7))

    @pytest.mark.parametrize("name", ["D", "A", "BtD", "AtC"])
    def test_slices_match_the_full_spectrum(self, near_ev, name):
        f = self._function(near_ev, name)
        full = f.nodes()
        n = len(full)
        # D(., v) and A(., v) vanish at v = 0.37, snapped to a node
        at = np.flatnonzero(full == 0.37)[0] if name in ("D", "A") else n // 2
        # at x = b_0 (P kind) or b_1 (Q kind) the first pivot of T - x is 0
        b0, b1 = near_ev.b[0], near_ev.b[1]
        cases = [(full[at], 3), (0.5 * (full[at] + full[at + 1]), 2),
                 (full[0] - 1.0, 2), (full[-1] + 1.0, 2), (full[at], n + 5),
                 (b0, 2), (b1, 2), (-1e300, 2), (1e300, 2)]
        self._assert_slices(f, full, cases)
        # at v the slice reaches past v on both sides and snaps like nodes()
        if name in ("D", "A"):
            assert 0.37 in f.nodes_near(0.37, 1)
            # x = v = 0: with b_n = 0 every d_i - x is 0 up to the corner
            f0 = nevanlinna_line(near_ev, name, 0.0)
            self._assert_slices(f0, f0.nodes(), [(0.0, 1), (0.0, 2), (0.0, 3)])
            assert 0.0 in f0.nodes_near(0.0, 1)

    @staticmethod
    def _assert_slices(f, full, cases):
        """``f.nodes_near(x, k)`` is the slice of ``full`` around x for each case."""
        for x, k in cases:
            near = f.nodes_near(x, k)
            # the Sturm count of a node x may fall on either side of it
            counts = {int(np.sum(full < x)), int(np.sum(full <= x))}
            slices = [full[max(m - k, 0): m + k] for m in counts]
            assert any(len(ref) == len(near) and np.all(
                np.abs(near - ref) <= NEAR_REL * np.maximum(np.abs(ref), 1.0))
                and np.array_equal(near == f.v, ref == f.v)
                for ref in slices), (x, k)
            assert np.all(np.diff(near) > 0)

    def test_large_off_diagonals_keep_small_nodes_accurate(self, tmp_path):
        # dstebz's minimum pivot would be 6e-8 for the off-diagonal 2^499
        path = tmp_path / "geometric.txt"
        path.write_text("".join(f"{2.0 ** n!r} 0.0\n" for n in range(520)))
        ev = evaluator_for(JacobiCoefficients.from_file(str(path)),
                           TruncationPolicy(n_max=500))
        f = _line(ev, "p", ExtensionParam.finite(0.7))
        full = f.nodes()
        m = int(np.sum(full <= 0.37))
        near = f.nodes_near(0.37, 3)
        ref = full[m - 3: m + 3]
        assert np.all(np.abs(near - ref) <= NEAR_REL * np.abs(ref))

    @pytest.mark.parametrize("name", ["D", "BtD"])
    def test_fallback_is_the_slice_of_nodes(self, near_ev, name, monkeypatch):
        monkeypatch.setattr(zeros, "_dstebz", lambda: None)
        f = self._function(near_ev, name)
        full = f.nodes()
        for x, k in ((0.37, 2), (0.0, 1), (full[0] - 1.0, 3), (full[-1], 2),
                     (0.5, len(full) + 1)):
            m = int(np.searchsorted(full, x, side="right"))
            assert (f.nodes_near(x, k).tobytes()
                    == full[max(m - k, 0): m + k].tobytes())

    def test_k_must_be_positive(self, src, pol):
        with pytest.raises(ValueError):
            nevanlinna_line(evaluator_for(src, pol), "D").nodes_near(0.0, 0)

    @pytest.mark.parametrize("route", ["dstebz", "slice of nodes"])
    def test_x_must_be_finite(self, src, pol, route, monkeypatch):
        if route != "dstebz":
            monkeypatch.setattr(zeros, "_dstebz", lambda: None)
        f = nevanlinna_line(evaluator_for(src, pol), "D", 0.37)
        for x in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                f.nodes_near(x, 2)


class TestCountZerosRect:
    def test_polynomial_with_known_zeros(self):
        def F(z):
            return z ** 2 + 1.0

        assert count_zeros_rect(F, (-1.0, 1.0, 0.5, 1.5)) == 1
        assert count_zeros_rect(F, (-2.0, 2.0, -2.0, 2.0)) == 2
        assert count_zeros_rect(F, (3.0, 4.0, 3.0, 4.0)) == 0

    def test_zero_on_contour_detected(self):
        def F(z):
            return z ** 2 + 1.0

        with pytest.raises(ZeroOnContourError):
            count_zeros_rect(F, (-1.0, 1.0, 1.0, 2.0))

    def test_real_v_keeps_zeros_real(self, src, pol):
        ev = evaluator_for(src, pol)
        L = ev.level
        tv = ev.table(0.7)

        def F(zs):
            zs = np.atleast_1d(np.asarray(zs, dtype=complex))
            (P,) = ev.rows(zs, L, "p")
            return (zs - 0.7) * (tv.p[: L + 1] @ P.T)

        assert count_zeros_rect(F, (-4.0, 4.0, 0.3, 3.0)) == 0

    def test_upper_v_confines_zeros_to_upper_half_plane(self, src, pol):
        ev = evaluator_for(src, pol)
        L = ev.level
        v = 0.5 + 1.0j
        tv = ev.table(v)

        def F(zs):
            zs = np.atleast_1d(np.asarray(zs, dtype=complex))
            (P,) = ev.rows(zs, L, "p")
            return (zs - v) * (tv.p[: L + 1] @ P.T)

        assert count_zeros_rect(F, (-5.0, 5.0, -3.0, -0.2)) == 0

    def test_rows_refine_until_every_row_settles(self):
        # 120 windings need finer sampling than the default 64 per side
        def F(zs):
            return np.stack([zs - 0.1, zs ** 120])

        counts = count_zeros_rect(F, (-1.0, 1.0, -1.0, 1.0))
        assert counts.tolist() == [1, 120]
        assert count_zeros_rect(lambda zs: zs ** 120, (-1.0, 1.0, -1.0, 1.0)) == 120

    def test_rows_count_each_function(self, src, pol):
        # the support functions of check 06b on rectangles that straddle the
        # real axis, where each counts its nodes inside
        ev = evaluator_for(src, pol)
        fs = [support_function(ev, ExtensionParam.parse(t))
              for t in ("0", "1", "inf")]
        for rect in [(-3.1, 2.6, -1.0, 1.0), (0.4, 7.3, -0.5, 2.0)]:
            shared = count_zeros_rect(lambda zs: line_values(fs, zs), rect)
            alone = [count_zeros_rect(f, rect) for f in fs]
            inside = [int(np.sum((f.nodes() > rect[0]) & (f.nodes() < rect[1])))
                      for f in fs]
            assert shared.tolist() == alone == inside
            assert min(alone) > 0

    def test_line_values_rows_are_the_functions(self, src, pol):
        ev = evaluator_for(src, pol)
        fs = [support_function(ev, ExtensionParam.parse(t))
              for t in ("0", "1", "inf")]
        zs = np.array([0.3 + 0.2j, 1.0, -2.5 - 1j])
        rows = line_values(fs, zs)
        for row, f in zip(rows, fs):
            assert row.tobytes() == f(zs).tobytes()
        with pytest.raises(ValueError):
            line_values([fs[0], nevanlinna_line(ev, "A")], zs)

    @pytest.mark.parametrize("names", [("B", "D"), ("A", "C")])
    def test_line_values_conjugate_symmetric(self, monkeypatch, src, pol, names):
        # B + tD is of kind p, A + tC of kind q
        ev = evaluator_for(src, pol)
        fs = [ExtensionParam.parse(t).combine(*(nevanlinna_line(ev, n, v)
                                                for n in names))
              for t in ("0", "1", "inf") for v in (0.0, 0.7)]
        rng = np.random.default_rng(5)
        zs = rng.uniform(-6, 6, 40) + 1j * rng.uniform(-3, 3, 40)
        assert (line_values(fs, zs.conj()).tobytes()
                == line_values(fs, zs).conj().tobytes())
        # at real points, with Im = +0.0 or -0.0, the values are the
        # corner-pair formula's on a table of the same points
        xs = rng.uniform(-6, 6, 40)
        plain = _corner_form(ev, fs, xs)
        below = xs.astype(complex)
        below.imag = -0.0
        assert line_values(fs, xs).tobytes() == plain.tobytes()
        assert line_values(fs, below).tobytes() == plain.tobytes()
        # a conjugate pair is one row
        asked, batch = [], Evaluator.rows

        def counted(self, zs, upto, chains="pq"):
            asked.append(len(zs))
            return batch(self, zs, upto, chains)

        monkeypatch.setattr(Evaluator, "rows", counted)
        line_values(fs, np.concatenate([zs, xs, zs.conj(), below]))
        assert asked == [len(zs) + len(xs)]

    def test_line_function_coefficients_must_be_real(self, src, pol):
        ev = evaluator_for(src, pol)
        d = nevanlinna_line(ev, "D")
        with pytest.raises(ValueError, match="real"):
            LineFunction(ev, "p", d.g + 1e-30j, 0.0)
        with pytest.raises(ValueError, match="real"):
            LineFunction(ev, "p", d.g, 0.5j)
        with pytest.raises(ValueError, match="real"):
            1j * d
        with pytest.raises(ValueError, match="corner pair"):
            LineFunction(ev, "p", np.zeros(ev.level + 2), 0.0)
        # line functions are float64 only: an extended evaluator is refused
        ext = Evaluator(src, pol, "extended")
        with pytest.raises(ValueError, match="extended-precision"):
            LineFunction(ext, "p", d.g, 0.0)
        with pytest.raises(ValueError, match="extended-precision"):
            nevanlinna_line(ext, "D")

    def test_box_around_found_zero_counts_one(self, src, pol, measure_inf):
        x0 = measure_inf.points[np.argmin(np.abs(measure_inf.points - 2.5))]
        F = support_function(evaluator_for(src, pol), ExtensionParam.infinite())
        assert count_zeros_rect(F, (x0 - 0.5, x0 + 0.5, -0.5, 0.5)) == 1

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_per_side_below_one_rejected(self, samples):
        # 0 used to count 0 zeros here, -3 to fail inside np.linspace
        with pytest.raises(ValueError, match="samples_per_side"):
            count_zeros_rect(lambda zs: zs ** 2 + 1.0, (-2.0, 2.0, -2.0, 2.0),
                             samples)

    @pytest.mark.parametrize("rect", [(-1.0, 1.0, -np.inf, 1.0),
                                      (-np.inf, np.inf, -1.0, 1.0),
                                      (-1.0, np.nan, -1.0, 1.0),
                                      (-1e308, 1e308, -1.0, 1.0)])
    def test_non_finite_rectangle_rejected(self, rect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                count_zeros_rect(lambda zs: zs ** 2 + 1.0, rect)

    @pytest.mark.parametrize("rect, samples, sides", [
        ((-41.0, 41.0, -1.0, 1.0), 256, (256, 16)),  # a default scan strip
        ((0.0, 10.0, 0.0, 5.0), 64, (64, 32)),
        ((0.0, 1.0, 0.0, 10.0), 64, (16, 64)),
        ((0.0, 3.0, 0.0, 1.0), 64, (64, 22)),  # 21.33 rounded up
        ((0.0, 1.0, 0.0, 1.0), 8, (8, 8))])
    def test_sides_sampled_by_length(self, rect, samples, sides):
        # the longer sides get samples_per_side intervals, the others as many
        # in proportion, rounded up, and at least 16
        calls = []

        def F(zs):
            calls.append(np.array(zs))
            return zs - complex(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))

        assert count_zeros_rect(F, rect, samples) == 1
        nx, ny = sides
        zs = calls[0]
        assert len(calls) == 1 and len(zs) == 2 * (nx + ny) + 1
        assert zs[0] == zs[-1] == complex(rect[0], rect[2])
        assert np.sum(zs.imag == rect[2]) == nx + 2  # and both ends of the loop
        assert np.sum(zs.real == rect[1]) == ny + 1

    def test_symmetric_rectangle_samples_conjugate_pairs(self):
        # roots 0.02 inside and outside the top and bottom sides force
        # refinement; every sample, refined ones included, has its exact
        # conjugate sampled too
        calls = []
        roots = np.array([0.3, 1.04 + 0.68j, 1.04 - 0.68j, -1.5 + 0.72j, -1.5 - 0.72j])

        def F(zs):
            calls.append(np.array(zs))
            return np.prod(zs[:, None] - roots[None, :], axis=1)

        assert count_zeros_rect(F, (-2.0, 3.0, -0.7, 0.7)) == 3
        assert len(calls) > 1
        points = set(np.concatenate(calls).tolist())
        assert points == {z.conjugate() for z in points}

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_measure_strips_are_banded_batches(self, monkeypatch, c):
        # build_measure's contour strip has 545 samples (256 intervals on
        # each long side, 16 on each short one), and the first evaluation
        # asks for the 273 with Im >= 0 of the one chain it reads
        asked, strips = [], []
        batch, count = Evaluator.rows, zeros.count_zeros_rect

        def counted(self, zs, upto, chains="pq"):
            asked.append(len(zs))
            return batch(self, zs, upto, chains)

        def strip_count(F, rect, samples_per_side=64):
            start = len(asked)
            try:
                return count(F, rect, samples_per_side)
            finally:
                strips.append(asked[start:])

        monkeypatch.setattr(Evaluator, "rows", counted)
        monkeypatch.setattr(zeros, "count_zeros_rect", strip_count)
        cfg = RootScanConfig(window=(-40.0, 40.0))
        for t in ("0", "1", "inf"):
            build_measure(JacobiCoefficients.power_law(c), ExtensionParam.parse(t),
                          cfg, TruncationPolicy(), auto_window=True)
        assert [strip[0] for strip in strips] == [273] * 3


def _boundary_distance(z: complex, rect) -> float:
    re_lo, re_hi, im_lo, im_hi = rect
    dx = max(re_lo - z.real, 0.0, z.real - re_hi)
    dy = max(im_lo - z.imag, 0.0, z.imag - im_hi)
    if dx == dy == 0.0:
        return min(z.real - re_lo, re_hi - z.real, z.imag - im_lo, im_hi - z.imag)
    return float(np.hypot(dx, dy))


@st.composite
def _roots_and_rectangle(draw):
    """Real roots and conjugate pairs, and a rectangle symmetric or off-axis.

    No root is within 1e-2 of the rectangle's boundary, and no two roots are
    within 0.05 of each other: a cluster of roots, or a multiple root, that
    close to a side can turn the phase by more than 3 pi / 2 between two
    samples, which refinement cannot see (ROADMAP O11).  Without the
    separation, 11 of 20000 random draws miscount at 64 per side.
    """
    reals = draw(st.lists(st.floats(-4.0, 4.0), max_size=4))
    pairs = draw(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 3.0)),
                          max_size=3))
    roots = np.array(reals + [complex(x, s * y) for x, y in pairs for s in (1, -1)],
                     dtype=complex)
    re_lo, width = draw(st.floats(-4.0, 2.0)), draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        h = draw(st.floats(0.2, 2.5))
        rect = (re_lo, re_lo + width, -h, h)
    else:
        im_lo, height = draw(st.floats(-2.5, 2.0)), draw(st.floats(0.2, 2.5))
        rect = (re_lo, re_lo + width, im_lo, im_lo + height)
    assume(all(_boundary_distance(r, rect) >= 1e-2 for r in roots))
    i, j = np.triu_indices(len(roots), 1)
    assume(np.all(np.abs(roots[i] - roots[j]) >= 0.05))
    return roots, rect


@settings(max_examples=100, deadline=None)
@given(_roots_and_rectangle(), st.sampled_from([64, 256]))
def test_count_matches_roots_inside(problem, samples):
    roots, rect = problem
    inside = sum(rect[0] < r.real < rect[1] and rect[2] < r.imag < rect[3]
                 for r in roots)
    F = lambda zs: np.prod(zs[:, None] - roots[None, :], axis=1)  # noqa: E731
    assert count_zeros_rect(F, rect, samples) == inside


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP O11: three roots 0.05 apart, 0.01 outside the left side, turn "
    "the phase by more than 3 pi / 2 between two samples 0.136 apart, which "
    "the pi/2 refinement test cannot see"))
def test_count_at_16_per_side_misses_roots_near_the_boundary():
    # drawn by the property above and miscounted at 16 per side, before and
    # after the per-side grid; 32 per side and more count it right
    rect = (0.01, 0.6030181190333579, -0.911929864162949, 1.2583687161666397)

    def F(zs):
        return zs * (zs ** 2 + 0.0025)  # zeros 0 and +-0.05i

    assert count_zeros_rect(F, rect, 64) == 0
    assert count_zeros_rect(F, rect, 16) == 0


class TestSupports:
    def test_infinite_support_contains_origin(self, measure_inf):
        assert np.min(np.abs(measure_inf.points)) < 1e-9

    def test_disjoint_supports(self, src, pol):
        cfg = RootScanConfig(window=(-30.0, 30.0))
        s0, s1 = (support_function(evaluator_for(src, pol),
                                   ExtensionParam.finite(t)).zeros(cfg).zeros
                  for t in (0.0, 1.0))
        assert np.min(np.abs(s0[:, None] - s1[None, :])) > 10 * cfg.refine_tol

    def test_interlacing_with_infinite(self, src, pol):
        cfg = RootScanConfig(window=(-30.0, 30.0))
        s0, si = (support_function(evaluator_for(src, pol), t).zeros(cfg).zeros
                  for t in (ExtensionParam.finite(0.0), ExtensionParam.infinite()))
        merged = sorted([(x, 0) for x in s0] + [(x, 1) for x in si])
        labels = [lab for _, lab in merged]
        assert all(labels[i] != labels[i + 1] for i in range(len(labels) - 1))

    def test_golub_welsch_oracle(self, src, pol, measure_inf):
        # independent route: for even level the D zeros are eigenvalues of
        # the truncated matrix and the masses are squared first components
        L = evaluator_for(src, pol).level
        assert L % 2 == 0
        a, b = src.arrays(L)
        nodes, vecs = eigh_tridiagonal(b[: L + 1], a[:L])
        weights = vecs[0] ** 2
        lo, hi = measure_inf.window
        sel = (nodes >= lo) & (nodes <= hi)
        assert len(nodes[sel]) == len(measure_inf.points)
        order = np.argsort(nodes[sel])
        assert np.max(np.abs(nodes[sel][order] - measure_inf.points)) < 1e-8
        # eigh weights carry only absolute ~1e-16 accuracy at the far nodes
        assert np.allclose(weights[sel][order], measure_inf.masses,
                           rtol=1e-7, atol=1e-12)


    @pytest.mark.parametrize("t", [1e300, -1e300, 1e308, -1e308])
    def test_huge_t_gives_the_measure_of_infinity(self, src, pol, measure_inf, t):
        # B + tD is scaled by 2**-k, so it stays finite where tD alone is not
        cfg = RootScanConfig(window=(-5.0, 5.0))
        m = build_measure(src, ExtensionParam.finite(t), cfg, pol, n_check=6,
                          auto_window=True)
        assert not m.scan_warning and m.window == measure_inf.window
        assert len(m.points) == len(measure_inf.points)
        # relative to 1 at the node 0, which infinity's D sets exactly
        scale = np.maximum(np.abs(measure_inf.points), 1.0)
        assert (np.abs(m.points - measure_inf.points) <= 1e-12 * scale).all()
        np.testing.assert_allclose(m.masses, measure_inf.masses, rtol=1e-12, atol=0)
        ti = ExtensionParam.infinite()
        for u in (0.3 + 0.5j, 2.0 + 0.1j):
            assert mobius(src, u, 0.0, ExtensionParam.finite(t), pol) == \
                pytest.approx(mobius(src, u, 0.0, ti, pol), rel=1e-12)

    @pytest.mark.parametrize("t", [2.0, -3.5, 1.5, 7.0, 1e250])
    def test_scaled_support_function_keeps_the_nodes_bitwise(self, src, pol, t):
        ev = evaluator_for(src, pol)
        b, d = nevanlinna_line(ev, "B"), nevanlinna_line(ev, "D")
        f, plain = support_function(ev, ExtensionParam.finite(t)), b + t * d
        assert f.nodes().tobytes() == plain.nodes().tobytes()
        xs = np.array([0.25, -3.0 + 0.5j, 7.5 - 1j])
        assert (np.sign(f.real(xs.real)) == np.sign(plain.real(xs.real))).all()
        k = np.frexp(t)[1]
        assert (f(xs) * 2.0 ** k).tobytes() == plain(xs).tobytes()


class TestTForPoint:
    def test_origin_gives_infinity(self, src, pol):
        assert t_for_point(src, 0.0, pol).is_infinite

    def test_roundtrip_with_support(self, src, pol, measure_t1):
        x0 = measure_t1.points[np.argmin(np.abs(measure_t1.points - 1.0))]
        t = t_for_point(src, float(x0), pol)
        assert not t.is_infinite
        assert t.t == pytest.approx(1.0, abs=1e-8)

    def test_b_zero_gives_zero(self, src, pol):
        cfg = RootScanConfig(window=(0.5, 4.0))
        x0 = support_function(evaluator_for(src, pol),
                              ExtensionParam.finite(0.0)).zeros(cfg).zeros[0]
        t = t_for_point(src, float(x0), pol)
        assert not t.is_infinite
        assert abs(t.t) < 1e-8


class TestMasses:
    def test_positive_and_summing_below_one(self, measure_t1):
        assert np.all(measure_t1.masses > 0)
        assert measure_t1.captured_mass <= 1 + 1e-9

    def test_mass_monotone_under_window_growth(self, src, pol):
        caps = []
        for R in (5.0, 10.0, 20.0, 40.0):
            cfg = RootScanConfig(window=(-R, R))
            m = build_measure(src, ExtensionParam.infinite(), cfg, pol,
                              n_check=2)
            caps.append(m.captured_mass)
        assert all(b >= a - 1e-15 for a, b in zip(caps, caps[1:]))
        assert caps[-1] > 0.999999

    def test_second_moment(self, src, pol, measure_inf):
        s2 = np.sum(measure_inf.masses * measure_inf.points ** 2)
        assert s2 == pytest.approx(moment(src, 2), abs=1e-6)

    def test_mass_at_matches_measure(self, src, pol, measure_inf):
        x = float(measure_inf.points[np.argmin(np.abs(measure_inf.points - 3.0))])
        i = int(np.argmin(np.abs(measure_inf.points - x)))
        assert mass_at(src, x, pol) == pytest.approx(measure_inf.masses[i],
                                                     rel=1e-12)

    @pytest.mark.parametrize("source", ["c=1.5", "c=2", "alternating_b"])
    @pytest.mark.parametrize("precision", ["standard", "extended"])
    def test_a_mass_does_not_depend_on_its_batch(self, source, precision):
        # a node weighed alone, in a batch and by its point table (as
        # mass_at weighs it): the last bits show a summation order that
        # depends on the batch, such as a pairwise sum over one point and an
        # ordered one over more
        src = (JacobiCoefficients.explicit([((n + 1.0) ** 2, 0.3 * (-1) ** n)
                                            for n in range(600)])
               if source == "alternating_b"
               else JacobiCoefficients.power_law(float(source[2:])))
        pol = TruncationPolicy(n_max=500)
        ev = evaluator_for(src, pol, precision)
        nodes = _line(evaluator_for(src, pol), "p", ExtensionParam.finite(1.0)).nodes()
        xs = nodes[np.argsort(np.abs(nodes))[:12]]
        batch = 1.0 / ev.norms_p2(xs)
        alone = np.concatenate([1.0 / ev.norms_p2(xs[j: j + 1]) for j in range(len(xs))])
        tabled = np.array([1.0 / ev.table(x).norm_p2 for x in xs])
        assert batch.tobytes() == alone.tobytes() == tabled.tobytes()
        if precision == "standard":
            at = np.array([mass_at(src, x, pol) for x in xs])
            assert at.tobytes() == batch.tobytes()


class TestBuildMeasure:
    @pytest.mark.parametrize("label", ["0", "1", "inf"])
    def test_moment_residuals(self, src, pol, label):
        t = (ExtensionParam.infinite() if label == "inf"
             else ExtensionParam.finite(float(label)))
        cfg = RootScanConfig(window=(-5.0, 5.0))
        m = build_measure(src, t, cfg, pol, n_check=6, auto_window=True)
        assert abs(m.captured_mass - 1.0) < 1e-6
        assert np.max(m.moment_residuals) < 1e-6
        assert not m.scan_warning

    def test_window_holding_every_node_is_the_whole_quadrature(self, src):
        # the start window already holds every node, so the walk stops
        # there and the measure is the whole level-L rule
        pol = TruncationPolicy(n_max=20)
        t = ExtensionParam.finite(0.0)
        cfg = RootScanConfig(window=(-1e6, 1e6))
        m = build_measure(src, t, cfg, pol, n_check=6, auto_window=True)
        nodes = support_function(evaluator_for(src, pol), t).nodes()
        assert m.window == (-1e6, 1e6)
        assert len(m.points) == len(nodes)
        assert abs(m.captured_mass - 1.0) < 1e-12
        assert np.max(m.moment_residuals) < 1e-6

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(t=ExtensionParam.finite(0.0),
                            points=np.array([1.0, 0.5]),
                            masses=np.array([0.1, 0.1]),
                            window=(-2.0, 2.0), captured_mass=0.2,
                            moment_residuals=np.zeros(1), level=8,
                            scan_warning=False)
        with pytest.raises(ValueError):
            DiscreteMeasure(t=ExtensionParam.finite(0.0),
                            points=np.array([0.5]),
                            masses=np.array([-0.1]),
                            window=(-2.0, 2.0), captured_mass=-0.1,
                            moment_residuals=np.zeros(1), level=8,
                            scan_warning=False)


class TestExtendedReaders:
    """The extended readers of whole-row batches read only what they use."""

    @staticmethod
    def _evaluator():
        return Evaluator(JacobiCoefficients.power_law(1.2), TruncationPolicy(n_max=150),
                         "extended")

    def test_masses_are_the_whole_row_sums(self):
        ev = self._evaluator()
        nodes = _line(evaluator_for(ev.source, ev.policy), "p",
                      ExtensionParam.finite(1.0)).nodes()
        xs = np.concatenate([nodes[np.abs(nodes) < 60], [0.25, -3.5]])
        assert len(xs) > 10
        L = ev.level
        for pts in (xs, xs[:1], xs[3:5]):
            (rows,) = ev.rows(pts, L, "p")
            # the squared moduli of the entries, as abs2 took them from
            # object arrays: each exact and rounded once, and summed in
            # index order at every point
            S = np.array([[evaluation._square_sum(m, e, n, f)
                           for (_, m, e, _), (_, n, f, _) in (v._mpc_ for v in row[:])]
                          for row in rows])
            want = 1.0 / np.cumsum(S, axis=1)[:, -1]
            assert (1.0 / ev.norms_p2(pts)).tobytes() == want.tobytes()

    def test_extended_routes_leave_the_global_precision(self, monkeypatch):
        # extended values carry their own precision: nothing sets mpmath's
        # global one, which every thread shares
        from mpmath import mp

        def refuse(*args, **kwargs):
            raise AssertionError("mpmath's global precision was set")

        monkeypatch.setattr(mp, "workdps", refuse)
        monkeypatch.setattr(mp, "workprec", refuse)
        src, pol = JacobiCoefficients.power_law(1.2), TruncationPolicy(n_max=140)
        ev = Evaluator(src, pol, "extended")
        q = nev(src, 0.3 + 0.4j, -0.7 + 0.2j, pol, "extended")
        assert q.det_residual < 1e-25
        assert np.isfinite(ev.norms_p2([0.25, 2.0 + 1.0j])).all()
        assert mp.prec == 53


class TestStieltjes:
    def test_upper_half_plane_maps_up(self, src, pol, measure_t1):
        m0 = build_measure(src, ExtensionParam.finite(0.0),
                           RootScanConfig(window=(-5.0, 5.0)), pol,
                           auto_window=True)
        st = stieltjes(src, ExtensionParam.finite(0.0), 1j, m0, pol)
        assert st.w_param.imag > 0

    def test_three_routes_agree(self, src, pol, measure_t1):
        st = stieltjes(src, ExtensionParam.finite(1.0), 1 + 1j, measure_t1, pol)
        assert abs(st.w_param - st.w_twovar) < 1e-8
        assert st.per_point_spread < 1e-8
        assert st.sum_deviation < 1e-6

    def test_per_point_ratio_constant_on_support(self, src, pol, measure_t1):
        lam = 0.3 + 0.9j
        vals = []
        for x in measure_t1.points[np.argsort(np.abs(measure_t1.points))[:8]]:
            q = nev(src, lam, complex(x), pol)
            vals.append(-q.C / q.D)
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-8

    def test_support_point_rejected(self, src, pol, measure_t1):
        with pytest.raises(SupportPointError):
            stieltjes(src, ExtensionParam.finite(1.0),
                      complex(measure_t1.points[2]), measure_t1, pol)


class TestAdjacentZeroSign:
    def test_d_case_positive(self, src, pol):
        u, val = adjacent_zero_sign(src, 1.3, "D", pol)
        assert u < 1.3
        assert val > 0

    def test_a_case_negative(self, src, pol):
        u, val = adjacent_zero_sign(src, 1.3, "A", pol)
        assert u < 1.3
        assert val < 0

    def test_adjacent_support_point(self, src, pol, measure_t1):
        # for v in supp(mu_t), the next D(., v) zero below is the adjacent
        # support point of the same measure
        pts = measure_t1.points
        k = int(np.argmin(np.abs(pts - 2.0)))
        v = float(pts[k])
        u, _ = adjacent_zero_sign(src, v, "D", pol)
        assert u == pytest.approx(pts[k - 1], abs=1e-7)

    def test_zero_below_v_at_zero(self, src, pol):
        # every diagonal entry of D(., 0)'s matrix but the corner is 0 - v:
        # the Sturm count meets a zero pivot at once
        u, val = adjacent_zero_sign(src, 0.0, "D", pol)
        nodes = nevanlinna_line(evaluator_for(src, pol), "D", 0.0).nodes()
        assert u == pytest.approx(nodes[nodes < 0.0].max(), rel=NEAR_REL)
        assert val > 0

    def test_no_zero_below_v_raises(self, src):
        with pytest.raises(IndmomError, match="no zero below v"):
            adjacent_zero_sign(src, -1e6, "D", TruncationPolicy(n_max=8))


class TestExport:
    def test_csv_and_sidecar(self, measure_t1, tmp_path):
        path = tmp_path / "measure.csv"
        export_measure_csv(measure_t1, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,mass"
        assert len(lines) == len(measure_t1.points) + 1
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)
        # 17 significant digits round-trip
        assert float(lines[1].split(",")[1]) == measure_t1.masses[0]
        meta = (tmp_path / "measure.csv.meta").read_text()
        assert "captured_mass" in meta and "t = 1" in meta


class TestExtensionParam:
    def test_parse(self):
        assert ExtensionParam.parse("inf").is_infinite
        assert ExtensionParam.parse("-2.5").t == -2.5

    @pytest.mark.parametrize("t, value", [(0.5, 2.5), (1.0, 4.0), (-1.0, -2.0),
                                          (2.0, 1.75), (-3.5, -2.375)])
    def test_combine(self, t, value):
        # |t| > 1: 2**-k (B + tD) with t = m 2**k, 1/2 <= |m| < 1
        assert ExtensionParam.finite(t).combine(1.0, 3.0) == value
        assert ExtensionParam.infinite().combine(1.0, 3.0) == 3.0
        huge = ExtensionParam.finite(1e308).combine(1.0, 3.0)
        assert huge == 3.0 * np.frexp(1e308)[0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ExtensionParam.finite(float("nan"))
