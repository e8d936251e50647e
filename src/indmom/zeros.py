"""Real zero sets of line functions, and argument-principle zero counts.

Every function the package scans on the real line (A, B, C, D(., v),
B + tD and A + tC) is a *line function* at the shared level L,
f(x) = a_L (T_{L+1}(x) g_L - T_L(x) g_{L+1}) with T = p or q and g a real
solution of the three-term recurrence at the real point v: the
Christoffel-Darboux form of the series in ``nevanlinna``.  A line function
holds only the corner pair (g_L, g_{L+1}), and its values and its zero set
both come from that pair.  f is a quasi-orthogonal polynomial: its zeros
are simple and real, and they are the eigenvalues of one Jacobi matrix
with the corner entry b_L + a_L g_{L+1} / g_L (Golub-Welsch, Math. Comp.
23, 1969; Golub, SIAM Rev. 15, 1973).  That matrix is symmetric
tridiagonal, and one method builds it for both ways of reading its
spectrum:

* ``LineFunction.nodes`` returns the whole zero set, from LAPACK
  ``dsterf``, the Pal-Walker-Kahan QR iteration on the diagonal and
  off-diagonal alone, in O(L^2) time and O(L) memory (Parlett, *The
  Symmetric Eigenvalue Problem*, 1980, ch. 8).  The measures read it
  (``build_measure`` weighs the nodes of its window), as do
  ``LineFunction.zeros`` and the ``zeros`` command.
* ``LineFunction.nodes_near`` returns the k nodes on each side of a point,
  from one Sturm count (LAPACK ``dlarrc``) and bisection of that index
  range (``dstebz``; Barth, Martin & Wilkinson, Numer. Math. 9, 1967), in
  O(L) time per node.  The checks that read the zeros next to a point use
  it: the membership pairs, the adjacent-zero signs and the extension
  domains.

The routines are called through ctypes in the OpenBLAS that numpy's wheels
bundle.  Where numpy has no such library, ``nodes`` takes the dense
``numpy.linalg.eigvalsh`` of the same matrix and ``nodes_near`` the
matching slice of ``nodes``.

``count_zeros_rect`` counts zeros (with multiplicity) inside an axis
rectangle by accumulating phase increments of the function along the
boundary, refining adaptively until every increment is below pi/2.  It is
the one zero count computed independently of the eigensolve; given one row
of values per function, it counts the zeros of several functions on shared
contour points.  The longer sides get ``samples_per_side`` intervals and
the shorter ones as many in proportion to their length, at least 16.  The
grid is mirror-exact: the top side reuses the bottom side's x values and
the vertical sides' y values are mirrored about the horizontal midline,
so a rectangle symmetric about the real axis, as every scan strip is, is
sampled in exact conjugate pairs.  A line function has real coefficients,
so f(conj z) = conj f(z), and ``line_values`` evaluates each pair once.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _openblas
from ._openblas import CHAR, DOUBLES, INT, LEN
from .errors import NonConvergenceError, ZeroOnContourError
from .evaluation import Evaluator
from .nevanlinna import SERIES_FORMS

__all__ = ["RootScanConfig", "RootScan", "LineFunction", "nevanlinna_line",
           "line_values", "count_zeros_rect"]

_MAX_CONTOUR_POINTS = 200000  # contour samples count_zeros_rect may refine to
_MIN_SIDE_INTERVALS = 16  # fewest contour intervals on a side, before refinement
_TINY = float(np.finfo(np.float64).tiny)  # LAPACK's DLAMCH('S')


@dataclass(frozen=True)
class RootScanConfig:
    """Window and node tolerance for real zero sets.

    The window's bounds must be finite with lo < hi, and ``refine_tol``
    finite and positive; the constructor raises ValueError otherwise.
    """

    window: Tuple[float, float]
    refine_tol: float = 1e-11

    def __post_init__(self):
        lo, hi = self.window
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"window bounds must be finite, got {lo}:{hi}")
        if not lo < hi:
            raise ValueError("window must satisfy lo < hi")
        if not (math.isfinite(self.refine_tol) and self.refine_tol > 0):
            raise ValueError("refine_tol must be finite and positive, "
                             f"got {self.refine_tol}")


@dataclass(frozen=True)
class RootScan:
    """Sorted zeros in a window and the missed-zero diagnostics."""

    zeros: np.ndarray
    warning: bool
    contour_count: Optional[int]


class LineFunction:
    """x -> a_L (T_{L+1}(x) g_L - T_L(x) g_{L+1}) at the evaluator's level L.

    ``kind`` selects the table T, ``"p"`` or ``"q"``.  ``g`` is the corner
    pair (g_L, g_{L+1}) of a solution of the recurrence at the real point
    ``v``, and ``off`` = f(v) its Casorati constant, as every function built
    from :func:`nevanlinna_line` has; with ``off = 0`` the node nearest v is
    set to v exactly.  ``g`` and ``off`` must be real (a complex entry with
    a nonzero imaginary part raises ValueError), so f(conj z) = conj f(z).
    Sums of such functions and real multiples of one are again such
    functions, so ``t.combine(B, D)`` is B + tD.
    """

    def __init__(self, ev: Evaluator, kind: str, g: np.ndarray, off,
                 v: float = 0.0):
        if kind not in ("p", "q"):
            raise ValueError("kind must be 'p' or 'q'")
        if len(g) != 2:
            raise ValueError("g must be the corner pair (g_L, g_{L+1})")
        if not (_is_real(g) and _is_real(off)):
            raise ValueError("g and off must be real")
        self.ev, self.kind, self.g, self.off, self.v = ev, kind, g, off, float(v)
        self._nodes: Optional[np.ndarray] = None

    def __add__(self, other: "LineFunction") -> "LineFunction":
        if (other.ev, other.kind, other.v) != (self.ev, self.kind, self.v):
            raise ValueError("only line functions of one evaluator, kind and v add")
        return LineFunction(self.ev, self.kind, self.g + other.g, self.off + other.off,
                            self.v)

    def __rmul__(self, s: float) -> "LineFunction":
        return LineFunction(self.ev, self.kind, s * self.g, s * self.off, self.v)

    def __call__(self, zs) -> np.ndarray:
        """Values at real or complex points, at the evaluator's precision."""
        return line_values([self], zs)[0]

    def real(self, xs) -> np.ndarray:
        return self(np.asarray(xs, dtype=float)).real

    def nodes(self) -> np.ndarray:
        """All real zeros, ascending, from one tridiagonal eigensolve.

        The eigenvalues of :meth:`_jacobi`'s matrix come from LAPACK
        ``dsterf`` (Parlett 1980, ch. 8) on the diagonal and off-diagonal.
        With ``off = 0`` the node nearest v is set to v exactly.  The
        eigensolve runs once per line function and each call returns a copy.
        """
        if self._nodes is None:
            d, e = self._jacobi()
            self._nodes = self._snapped(_tridiagonal_eigvals(d, e), 0, len(d))
        return self._nodes.copy()

    def nodes_near(self, x: float, k: int) -> np.ndarray:
        """The k nodes on each side of x, ascending; fewer at either end.

        "Below" counts the nodes <= x by a Sturm count of :meth:`_jacobi`'s
        matrix, so with m of them the result holds nodes m-k..m+k-1 of
        :meth:`nodes`, by LAPACK ``dstebz`` bisection (O(L) per node).  At
        a node x the count may fall on either side of it, so a caller that
        reads j nodes per side asks for j + 1.  With ``off = 0`` the node
        nearest v is set to v where the result reaches past v, or to the
        end of the spectrum, on both sides, as it always does for x = v.
        Where numpy's OpenBLAS has no ``dstebz``, the same index slice of
        :meth:`nodes`.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        d, e = self._jacobi()
        near = _tridiagonal_eigvals_near(d, e, float(x), k)
        if near is None:
            nodes = self.nodes()
            m = int(np.searchsorted(nodes, x, side="right"))
            return nodes[max(m - k, 0): m + k]
        lo, nodes = near
        return self._snapped(nodes, lo, len(d))

    def _jacobi(self) -> Tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the matrix whose eigenvalues are the zeros.

        P kind: rows 0..L of the Jacobi matrix with last diagonal entry
        b_L + a_L g_{L+1} / g_L; Q kind: the once-stripped rows 1..L with
        the same corner.  When g_L = 0 (or the corner overflows) the zeros
        are those of T_L, and the last row and column are dropped.
        """
        ev, (g_L, g_next), L = self.ev, self.g, self.ev.level
        first = 0 if self.kind == "p" else 1
        diag = np.array(ev.b[first: L + 1], dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            diag[-1] += ev.a[L] * (np.float64(g_next.real) / np.float64(g_L.real))
        # an infinite corner sends one zero to infinity: drop its row and column
        n = len(diag) if np.isfinite(diag[-1]) else len(diag) - 1
        return diag[:n], np.array(ev.a[first: first + n - 1], dtype=float)

    def _snapped(self, nodes: np.ndarray, lo: int, n: int) -> np.ndarray:
        """Nodes lo.. of n, with the node nearest v set to v when off = 0.

        With off = f(v) = 0, v is an exact zero.  A slice surely holds the
        node nearest v when it reaches past v, or to the end of the
        spectrum, on both sides; otherwise it is left as it is.
        """
        hi = lo + len(nodes)
        if (self.off == 0 and len(nodes)
                and (lo == 0 or nodes[0] <= self.v)
                and (hi == n or nodes[-1] >= self.v)):
            nodes[np.argmin(np.abs(nodes - self.v))] = self.v
        return nodes

    def zeros(self, cfg: RootScanConfig, verify_count: bool = True) -> RootScan:
        """The nodes inside ``cfg.window``, each verified.

        A node must show a sign change across x +- refine_tol at the
        evaluator's own precision.  A node that does not is bisected inside
        the bracket reaching halfway to its neighbours; if that bracket has
        no sign change either, the warning is set.  With ``verify_count``
        (standard precision) the node count is cross-checked against the
        winding number over the window strip, whose sides cross the axis
        midway between nodes.
        """
        nodes = self.nodes()
        lo, hi = cfg.window
        inside = (nodes >= lo) & (nodes <= hi)
        zeros, ok = self._verified(nodes, inside, cfg.refine_tol)
        warning = not ok
        contour_count = None
        if verify_count and self.ev.precision == "standard":
            reach = 0.5 * (hi - lo)
            xlo = _crossing(nodes, lo, reach, "left")
            xhi = _crossing(nodes, hi, reach, "right")
            height = max(1.0, 0.01 * (hi - lo))
            try:
                contour_count = count_zeros_rect(
                    self, (xlo, xhi, -height, height), samples_per_side=256)
                warning = warning or contour_count != len(zeros)
            except ZeroOnContourError:
                warning = True
        return RootScan(zeros=zeros, warning=warning, contour_count=contour_count)

    def _verified(self, nodes: np.ndarray, inside: np.ndarray,
                  tol: float) -> Tuple[np.ndarray, bool]:
        xs = nodes[inside]
        bad = ~(self._sign(xs - tol) * self._sign(xs + tol) <= 0)
        if not np.any(bad):
            return xs, True
        gaps = np.diff(nodes)
        half = 0.5 * np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
        x = xs[bad]
        lo, hi = x - half[inside][bad], x + half[inside][bad]
        slo = self._sign(lo)
        bracketed = slo * self._sign(hi) <= 0
        steps = int(np.ceil(np.log2(max(np.max(hi - lo) / (2 * tol), 1.0))))
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            smid = self._sign(mid)
            left = slo * smid <= 0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            slo = np.where(left, slo, smid)
        xs[bad] = np.where(bracketed, 0.5 * (lo + hi), x)
        return xs, bool(np.all(bracketed))

    def _sign(self, xs: np.ndarray) -> np.ndarray:
        # signs, not products of values: those overflow for large |t|
        return np.sign(self.real(xs))


def _is_real(x) -> bool:
    """No entry of x has a nonzero imaginary part (mpmath entries included)."""
    x = np.asarray(x)
    if x.dtype == object:  # np.imag reads 0 for every object entry
        return all(v.imag == 0 for v in x.flat)
    return not np.any(np.imag(x))


def _dsterf():
    """LAPACK dsterf(n, d, e, info) from numpy's bundled OpenBLAS, or None."""
    return _openblas.symbol("dsterf", INT, DOUBLES, DOUBLES, INT)


def _tridiagonal_eigvals(d, e) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix (d, e).

    ``d`` is the diagonal (length n), ``e`` the off-diagonal (length n - 1).
    LAPACK ``dsterf`` when numpy's OpenBLAS provides it, otherwise the
    dense ``eigvalsh`` of the same matrix.  Raises NonConvergenceError when
    the solver fails or an eigenvalue is not finite, as a non-finite entry
    makes it.
    """
    d = np.array(d, dtype=np.float64)
    e = np.array(e, dtype=np.float64)
    if len(e) != max(len(d) - 1, 0):
        raise ValueError("the off-diagonal must be one shorter than the diagonal")
    dsterf = _dsterf()
    if dsterf is None:
        try:
            # eigvalsh reads the lower triangle only
            d = np.linalg.eigvalsh(np.diag(d) + np.diag(e, -1))
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"tridiagonal eigensolve failed: {exc}")
    else:
        info = ctypes.c_int64(0)
        # overwrites d with the eigenvalues, ascending, and destroys e
        dsterf(ctypes.c_int64(len(d)), d.ctypes.data_as(DOUBLES),
               e.ctypes.data_as(DOUBLES), info)
        if info.value != 0:
            raise NonConvergenceError(
                f"tridiagonal eigensolve failed (dsterf info = {info.value})")
    if not np.all(np.isfinite(d)):
        raise NonConvergenceError("tridiagonal eigensolve: non-finite eigenvalue")
    return d


def _bisection():
    """LAPACK dlarrc and dstebz from numpy's bundled OpenBLAS, or None.

    Both take Fortran character arguments, whose lengths trail the
    argument list.
    """
    dlarrc = _openblas.symbol("dlarrc", CHAR, INT, DOUBLES, DOUBLES, DOUBLES,
                              DOUBLES, DOUBLES, INT, INT, INT, INT, LEN)
    dstebz = _openblas.symbol("dstebz", CHAR, CHAR, INT, DOUBLES, DOUBLES,
                              INT, INT, DOUBLES, DOUBLES, DOUBLES, INT, INT,
                              DOUBLES, INT, INT, DOUBLES, INT, INT, LEN, LEN)
    return None if dlarrc is None or dstebz is None else (dlarrc, dstebz)


def _tridiagonal_eigvals_near(d, e, x: float,
                              k: int) -> Optional[Tuple[int, np.ndarray]]:
    """(lo, eigenvalues lo..hi-1) of the symmetric tridiagonal (d, e), ascending.

    With m eigenvalues <= x by the Sturm count of LAPACK ``dlarrc``,
    lo = max(m - k, 0) and hi = min(m + k, n).  ``dstebz`` bisects that
    index range to full accuracy (ABSTOL = 2 DLAMCH('S'), the smallest
    normal number doubled).  None where numpy's OpenBLAS lacks the
    routines.  Raises NonConvergenceError when an entry or an eigenvalue is
    not finite or the bisection fails.
    """
    routines = _bisection()
    if routines is None:
        return None
    dlarrc, dstebz = routines
    d = np.array(d, dtype=np.float64)
    # Fortran reads e(1..n-1); the pad keeps the pointer valid at n <= 1
    e = np.append(np.asarray(e, dtype=np.float64), 0.0)
    n = len(d)
    if len(e) != max(n, 1):
        raise ValueError("the off-diagonal must be one shorter than the diagonal")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise NonConvergenceError("tridiagonal bisection: non-finite matrix entry")
    if n == 0:
        return 0, d
    # dstebz bisects no finer than its minimum pivot DLAMCH('S') max(1, e_j^2):
    # 6e-8 for the off-diagonal 2^499 of a_n = 2^n at L = 500.  Scaling by a
    # power of two, which is exact, brings every |e_j| below 1.
    shift = max(int(np.frexp(np.max(np.abs(e)))[1]), 0)
    d, e = np.ldexp(d, -shift), np.ldexp(e, -shift)
    size, lo_count, hi_count, info = (ctypes.c_int64(n), ctypes.c_int64(0),
                                      ctypes.c_int64(0), ctypes.c_int64(0))
    at = ctypes.c_double(np.ldexp(x, -shift))
    pivmin = ctypes.c_double(_TINY)  # the minimum pivot, now that |e_j| < 1
    dlarrc(b"T", size, at, at, d.ctypes.data_as(DOUBLES),
           e.ctypes.data_as(DOUBLES), pivmin, ctypes.c_int64(0), lo_count,
           hi_count, info, 1)
    lo, hi = max(lo_count.value - k, 0), min(lo_count.value + k, n)
    found, nsplit = ctypes.c_int64(0), ctypes.c_int64(0)
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(m, dtype=np.int64) for m in (n, n, 3 * n))
    unused = ctypes.c_double(0.0)
    dstebz(b"I", b"E", size, unused, unused, ctypes.c_int64(lo + 1),
           ctypes.c_int64(hi), ctypes.c_double(2 * _TINY),
           d.ctypes.data_as(DOUBLES), e.ctypes.data_as(DOUBLES), found,
           nsplit, w.ctypes.data_as(DOUBLES), iblock.ctypes.data_as(INT),
           isplit.ctypes.data_as(INT), work.ctypes.data_as(DOUBLES),
           iwork.ctypes.data_as(INT), info, 1, 1)
    if info.value != 0 or found.value != hi - lo:
        raise NonConvergenceError(
            f"tridiagonal bisection failed (dstebz info = {info.value}, "
            f"{found.value} of {hi - lo} eigenvalues)")
    nodes = np.ldexp(w[: hi - lo], shift)
    if not np.all(np.isfinite(nodes)):
        raise NonConvergenceError("tridiagonal bisection: non-finite eigenvalue")
    return lo, nodes


def _crossing(nodes: np.ndarray, edge: float, reach: float, side: str) -> float:
    """Midpoint of the node gap holding ``edge``, moved at most ``reach`` away."""
    i = int(np.searchsorted(nodes, edge, side=side))
    below = nodes[i - 1] if i > 0 else -np.inf
    above = nodes[i] if i < len(nodes) else np.inf
    return float(np.clip(0.5 * (below + above), edge - reach, edge + reach))


def nevanlinna_line(ev: Evaluator, name: str, v: float = 0.0) -> LineFunction:
    """u -> A, B, C or D(u, v) at the shared level, for real v."""
    kind, anchor, off = SERIES_FORMS[name]
    g = getattr(ev.table(complex(v)), anchor)[ev.level: ev.level + 2]
    return LineFunction(ev, kind, g.copy(), off, v)


def line_values(fs: Sequence[LineFunction], zs) -> np.ndarray:
    """Values of line functions at real or complex points, one row each.

    The functions share one evaluator and kind, so entries L and L+1 of
    one row of that kind per point serve them all, and are the only
    entries read; a value depends only on its point and on the route
    (banded solves or the fallback), not on the other points.
    Their coefficients are real, so f(conj z) = conj f(z): each point is
    evaluated once, at the member of its conjugate pair with Im >= 0 (-0.0
    taken as +0.0), and a point below the axis gets the conjugate of that
    value.  Values are combined at the evaluator's precision and returned
    as complex128.
    """
    ev, kind = fs[0].ev, fs[0].kind
    if any((f.ev, f.kind) != (ev, kind) for f in fs):
        raise ValueError("only line functions of one evaluator and kind share a table")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    upper = zs.copy()
    upper.imag = np.abs(zs.imag)
    pts, back = np.unique(upper, return_inverse=True)
    L = ev.level
    (rows,) = ev.rows(pts, L + 1, kind)
    if ev.precision == "standard":
        T_L, T_next = rows[:, L:].T.copy()
    else:
        T_L, T_next = (np.array([row[k] for row in rows], dtype=object)
                       for k in (L, L + 1))
    vals = np.array([ev.a[L] * (T_next * f.g[0] - T_L * f.g[1]) for f in fs],
                    dtype=complex)
    vals = vals[:, back.reshape(-1)]
    return np.where(zs.imag < 0, vals.conj(), vals)


def _contour(rect: Tuple[float, float, float, float],
             samples_per_side: int) -> np.ndarray:
    """:func:`count_zeros_rect`'s first samples, counterclockwise from the
    lower left corner, which the last point repeats."""
    re_lo, re_hi, im_lo, im_hi = rect
    width, height = re_hi - re_lo, im_hi - im_lo
    longest = max(width, height)
    nx, ny = (samples_per_side if side == longest else
              max(_MIN_SIDE_INTERVALS, math.ceil(samples_per_side * side / longest))
              for side in (width, height))
    xs = np.linspace(re_lo, re_hi, nx + 1)
    s = np.linspace(-1.0, 1.0, ny + 1)
    s = 0.5 * (s - s[::-1])  # exactly odd: s[::-1] == -s
    ys = 0.5 * (im_lo + im_hi) + 0.5 * height * s
    ys[0], ys[-1] = im_lo, im_hi
    # bottom, right, top and left in turn, each from the corner after the last
    zs = np.empty(2 * (nx + ny) + 1, dtype=complex)
    zs.real = np.concatenate([xs, np.full(ny, re_hi), xs[-2::-1], np.full(ny, re_lo)])
    zs.imag = np.concatenate([np.full(nx + 1, im_lo), ys[1:], np.full(nx, im_hi),
                              ys[-2::-1]])
    return zs


def count_zeros_rect(F: Callable[[np.ndarray], np.ndarray],
                     rect: Tuple[float, float, float, float],
                     samples_per_side: int = 64):
    """Winding number of F along the rectangle boundary (counterclockwise).

    The longer sides get ``samples_per_side`` intervals and the shorter
    ones as many in proportion to their length, rounded up, and at least
    ``_MIN_SIDE_INTERVALS``.  The top side reuses the bottom side's x
    values, reversed, and the vertical sides' y values are mirrored about
    the horizontal midline, so a rectangle symmetric about the real axis is
    sampled in exact conjugate pairs.  Sampling refines adaptively, by
    interval midpoints, until every phase increment is below pi/2; an
    increment and its mirror image are computed alike, so refinement keeps
    the pairs.  Where F returns one row of values per function, the rows
    share the contour points, which refine until every row's increments are
    below pi/2, and the result is an integer array of one winding number
    per row.  Raises ValueError for a ``samples_per_side`` below 1 or a
    rectangle that is empty or not finite, and ZeroOnContourError when |F|
    on the contour is suspiciously small or refinement fails to settle.
    """
    if samples_per_side < 1:
        raise ValueError("samples_per_side must be at least 1")
    re_lo, re_hi, im_lo, im_hi = rect
    if not all(math.isfinite(r) for r in (*rect, re_hi - re_lo, im_hi - im_lo)):
        raise ValueError("rectangle bounds and side lengths must be finite")
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("rectangle must have positive width and height")

    zs = _contour(rect, samples_per_side)
    vals = np.asarray(F(zs), dtype=complex)
    rows = vals.ndim == 2
    vals = np.atleast_2d(vals)

    for _ in range(64):
        mags = np.abs(vals)
        if np.any(mags == 0):
            raise ZeroOnContourError("zero suspected on contour; perturb rectangle")
        # local dip test: |F| may legitimately span many orders of magnitude
        # along a long contour, so compare each sample to its neighbours only
        neigh = np.maximum(np.roll(mags, 1, axis=1), np.roll(mags, -1, axis=1))
        if np.any(mags < 1e-12 * neigh):
            raise ZeroOnContourError("zero suspected on contour; perturb rectangle")
        # arg(u1 conj(u0)) of unit values in real arithmetic: the mirror image
        # (conj u1, conj u0) of a step gives bitwise the same increment
        re, im = vals.real / mags, vals.imag / mags
        dphi = np.arctan2(re[:, :-1] * im[:, 1:] - im[:, :-1] * re[:, 1:],
                          re[:, :-1] * re[:, 1:] + im[:, :-1] * im[:, 1:])
        bad = np.any(np.abs(dphi) >= 0.5 * np.pi, axis=0)
        if not np.any(bad):
            winding = np.sum(dphi, axis=1) / (2.0 * np.pi)
            if np.any(np.abs(winding - np.round(winding)) > 0.25):
                raise ZeroOnContourError(
                    "winding number failed to settle; perturb rectangle")
            counts = np.round(winding).astype(int)
            return counts if rows else int(counts[0])
        if len(zs) > _MAX_CONTOUR_POINTS:
            raise ZeroOnContourError(
                "contour refinement exhausted; perturb rectangle")
        mids = 0.5 * (zs[:-1][bad] + zs[1:][bad])
        mid_vals = np.atleast_2d(np.asarray(F(mids), dtype=complex))
        insert_at = np.nonzero(bad)[0] + 1
        zs = np.insert(zs, insert_at, mids)
        vals = np.insert(vals, insert_at, mid_vals, axis=1)
    raise ZeroOnContourError("contour refinement did not converge")
