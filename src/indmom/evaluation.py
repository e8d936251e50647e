"""Three-term recurrence evaluation with controlled truncation.

Evaluates the orthonormal polynomials ``p_n(z)`` and the second-kind
polynomials ``q_n(z)`` (initial data ``p_0 = 1`` and ``q_0 = 0,
q_1 = 1/a_0``) for a coefficient source, together with the cumulative
squared sums that approximate the squared norms of the corresponding
square-summable sequences.

Truncation discipline
---------------------
Every cross-point formula in this package (Nevanlinna functions, kernels,
residues, measures) is evaluated at one *shared* level ``L = policy.n_max``.
The algebraic identity web between those quantities holds exactly at any
common truncation level, so sharing the level keeps identity residuals at
roundoff even when the underlying series converge slowly.  The adaptive
stop index prescribed by the policy (smallest N with
``safety * (|p_N|^2 + |q_N|^2) < tail_tol * (cum_p2 + cum_q2)``) is still
computed per point and reported as convergence metadata; ``eval_pq``
returns arrays sliced at that adaptive index, which is its contract.

Every cached point table comes from :meth:`Evaluator.tables`.  The
standard backend, :func:`recurrence_batch`, returns complex128 tables.
Where numpy's bundled OpenBLAS provides BLAS ``ztbsv``, each chain at each
point of every batch is one lower triangular banded solve of the
recurrence.  Where ``ztbsv`` does not load, the fallback runs the
recurrence in explicit real arithmetic, by a per-point loop on Python
floats for small batches and by the same operations as numpy ufuncs for
large ones; the two loops are bitwise equal.  On either route a point's
table depends only on the point, not on its batch; the two routes agree
to roundoff.  The extended backend,
:func:`recurrence_mp`, runs the same real-arithmetic recurrence one point
at a time on Python integers: the points and coefficients are float64, so
exact dyadic rationals, and each step keeps ``_GUARD_BITS`` bits beyond
mpmath's binary precision at ``dps`` digits, rounding to nearest after
each division by ``a_n``.  Its entries are mpmath ``mpc`` numbers, each
rounded once to that precision.  Evaluators run it at ``EXTENDED_DPS``
digits, and arithmetic on their entries runs at the same precision inside
:func:`working_precision`.  Either backend returns the p table, the q
table or both (``chains``); all but the fallback's point loop compute only
the tables returned.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import _openblas
from ._openblas import INT
from .coefficients import JacobiCoefficients
from .errors import EvaluationOverflowError

_OVERFLOW_LIMIT = 1e150
_TAIL_MARGIN = 8  # table indices past the shared level, for p/q truncations
_TABLE_CAPACITY = {"standard": 256, "extended": 16}  # tables per evaluator
_MAX_EVALUATORS = 8
# Largest batch that the fallback (no ztbsv) runs on its per-point loop;
# larger ones run the array loop.  Both give the same bits, so a table
# depends only on its point and the route, never on this choice.  The point
# loop costs about 0.5 ms per point and the array loop about 7 ms per batch
# at L = 1009, so they cross at 13-15 points (measured at L = 509 and 1009,
# 2-core Xeon VM).
_SCALAR_BATCH = 12
# Decimal digits of the extended backend's tables and of their arithmetic.
EXTENDED_DPS = 32
# Bits the extended kernel keeps beyond mpmath's precision at ``dps`` digits.
_GUARD_BITS = 24
_CHAINS = ("pq", "p", "q")
# ztbsv(uplo, trans, diag, n, k, band, lda, x, incx) with 64-bit integers
_ZTBSV_ARGS = (ctypes.c_char_p,) * 3 + (INT, INT, ctypes.c_void_p, INT,
                                         ctypes.c_void_p, INT)


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule for the recurrence partial sums.

    n_max: hard cap on the truncation index (also the shared evaluation
        level used by all cross-point formulas).
    tail_tol: target relative size of the last increment.
    safety: multiplier on the empirical tail estimate.
    """

    n_max: int = 500
    tail_tol: float = 1e-3
    safety: float = 10.0

    def __post_init__(self):
        if self.n_max < 8:
            raise ValueError("n_max must be at least 8")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        if not self.safety >= 1:
            raise ValueError("safety must be >= 1")


@dataclass(frozen=True)
class PolyEval:
    """Recurrence values at a point, truncated at the adaptive stop index.

    Arrays hold ``p_0..p_N`` and ``q_0..q_N``; ``cum_p2``/``cum_q2`` are the
    squared sums through index N; ``tail_est`` is the last increment
    ``|p_N|^2 + |q_N|^2``; ``converged`` records whether the stop rule was
    met before the cap.
    """

    z: complex
    p: np.ndarray
    q: np.ndarray
    cum_p2: float
    cum_q2: float
    N: int
    tail_est: float
    converged: bool


@dataclass
class PointTable:
    """Internal: full-level recurrence data at one point.

    Read-only arrays run through index ``level + 8``: the Casorati forms
    read index ``level + 1`` and the p/q truncations of the membership
    tests end at ``level + 8``.  ``cums`` are cumulative sums of
    ``|p_k|^2`` / ``|q_k|^2`` through each index.
    """

    z: complex
    p: np.ndarray
    q: np.ndarray
    cum_p2: np.ndarray
    cum_q2: np.ndarray
    stop_index: int
    converged: bool
    tail_est: float
    level: int

    @property
    def norm_p2(self) -> float:
        """Squared norm proxy at the shared level."""
        return float(self.cum_p2[self.level])

    @property
    def norm_q2(self) -> float:
        return float(self.cum_q2[self.level])


Pair = Tuple[Optional[np.ndarray], Optional[np.ndarray]]


def _pick(chains: str, tables) -> Pair:
    """(P, Q) from the tables computed for ``chains``; None for the other."""
    got = dict(zip(chains, tables))
    return got.get("p"), got.get("q")


def recurrence_batch(a: np.ndarray, b: np.ndarray, zs: np.ndarray,
                     upto: int, chains: str = "pq") -> Pair:
    """p/q tables: shape (upto+1, len(zs)), complex128, C-contiguous.

    ``chains`` ("pq", "p" or "q") selects the tables returned; the other is
    None, and only the chains asked for are computed.  Where numpy's
    OpenBLAS provides BLAS ``ztbsv``, each (chain, point) table is one lower
    banded triangular solve (:func:`_banded_solve`).  Otherwise the
    recurrence runs in explicit real arithmetic with the same IEEE
    operations in the same order, for example
    ``Re p_{n+1} = (xb*Re p_n + (-y)*Im p_n - a_{n-1}*Re p_{n-1}) / a_n``
    with ``xb = x - b_n``: batches of at most ``_SCALAR_BATCH`` points on
    Python floats per point, larger ones as in-place ufuncs over the batch.
    On a given route a point's table is bitwise the same whatever batch
    computed it and whichever chains were asked for; banded and
    real-arithmetic tables agree to roundoff, not bitwise.

    Raises EvaluationOverflowError if a real or imaginary part exceeds
    ``_OVERFLOW_LIMIT`` in size or is not finite.
    """
    if chains not in _CHAINS:
        raise ValueError("chains must be 'pq', 'p' or 'q'")
    zs = np.asarray(zs, dtype=complex)
    npts, k = zs.shape[0], len(chains)
    ztbsv = _ztbsv()
    # the banded solve needs zeroed right-hand sides; the loops write every entry
    R = (np.empty if ztbsv is None else np.zeros)((k, upto + 1, npts), dtype=complex)
    V = R.view(float).reshape(k, upto + 1, npts, 2)  # [chain, n, point, re|im]
    if ztbsv is not None:
        _banded_solve(ztbsv, a, b, zs, upto, R, chains)
    elif npts <= _SCALAR_BATCH:
        al, bl = a[:upto].tolist(), b[:upto].tolist()
        for j, z in enumerate(zs.tolist()):
            pr, pi, qr, qi = _point_loop(al, bl, z.real, z.imag, upto)
            for c, chain in enumerate(chains):
                V[c, :, j, 0], V[c, :, j, 1] = (pr, pi) if chain == "p" else (qr, qi)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            _array_loop(a, b, zs, upto, V, chains)
    if R.size and not (-_OVERFLOW_LIMIT <= V.min() and V.max() <= _OVERFLOW_LIMIT):
        raise EvaluationOverflowError(
            "evaluation overflow; reduce |z| or use higher precision")
    return _pick(chains, R)


def _ztbsv():
    """BLAS ztbsv from numpy's bundled OpenBLAS, or None."""
    return _openblas.symbol("ztbsv", *_ZTBSV_ARGS)


def _banded_solve(ztbsv, a: np.ndarray, b: np.ndarray, zs: np.ndarray,
                  upto: int, R: np.ndarray, chains: str) -> None:
    """Fill the zeroed ``R[chain, :, point]`` by one ``ztbsv`` call each.

    p and q solve the lower triangular system whose row 0 is ``v_0`` and
    whose row n+1 is ``a_n v_{n+1} + (b_n - z) v_n + a_{n-1} v_{n-1}``,
    with right-hand side e_0 for p (``p_0 = 1``) and e_1 for q
    (``a_0 q_1 = 1``).  Its band, stored column-major with leading
    dimension 3, holds ``(a_{j-1}, b_j - z, a_j)`` in column j (1 in place
    of ``a_{-1}``); only the middle row depends on z.  Each solution
    overwrites its right-hand side in place, read with stride ``len(zs)``.
    """
    n, npts = upto + 1, zs.shape[0]
    band = np.zeros((n, 3), dtype=complex)
    band[0, 0] = 1.0
    band[1:, 0] = a[:upto]
    band[: max(upto - 1, 0), 2] = a[: max(upto - 1, 0)]
    shift = band[:upto, 1]
    for c, chain in enumerate(chains):
        if chain == "p":
            R[c, 0] = 1.0
        elif upto >= 1:
            R[c, 1] = 1.0
    size, k, lda, inc = (ctypes.c_int64(v) for v in (n, 2, 3, npts))
    A, x0, step = band.ctypes.data, R.ctypes.data, R.itemsize
    for j, z in enumerate(zs.tolist()):
        np.subtract(b[:upto], z, out=shift)
        for c in range(len(chains)):
            ztbsv(b"L", b"N", b"N", size, k, A, lda, x0 + (c * n * npts + j) * step, inc)


def _point_loop(al: List[float], bl: List[float], x: float, y: float,
                upto: int) -> Tuple[List[float], ...]:
    """Re p, Im p, Re q, Im q through index upto at z = x + iy, on Python floats."""
    my = -y
    PR, PI, QR, QI = [1.0], [0.0], [0.0], [0.0]
    if upto >= 1:
        a0 = al[0]
        PR.append((x - bl[0]) / a0)
        PI.append(y / a0)
        QR.append(1.0 / a0)
        QI.append(0.0 / a0)
    pr, pi, qr, qi = PR[-1], PI[-1], QR[-1], QI[-1]
    prp, pip, qrp, qip = 1.0, 0.0, 0.0, 0.0
    for am, an, bn in zip(al[: upto - 1], al[1:upto], bl[1:upto]):
        xb = x - bn
        pr, pi, qr, qi, prp, pip, qrp, qip = (
            (xb * pr + my * pi - am * prp) / an,
            (xb * pi + y * pr - am * pip) / an,
            (xb * qr + my * qi - am * qrp) / an,
            (xb * qi + y * qr - am * qip) / an,
            pr, pi, qr, qi)
        PR.append(pr)
        PI.append(pi)
        QR.append(qr)
        QI.append(qi)
    return PR, PI, QR, QI


def _array_loop(a: np.ndarray, b: np.ndarray, zs: np.ndarray, upto: int,
                V: np.ndarray, chains: str) -> None:
    """The point loop's operations as in-place ufuncs over a batch.

    Rows are computed in three rolling (re|im, chain, point) buffers, where
    every operand is contiguous, and each new row is copied into ``V``.
    The real and imaginary parts are updated together: ``ys = [-y, y]``
    multiplies the swapped parts ``[Im, Re]``.
    """
    shape = (2, len(chains), zs.shape[0])
    x = np.ascontiguousarray(np.broadcast_to(zs.real, shape))
    ys = np.ascontiguousarray(np.broadcast_to(
        np.stack([-zs.imag, zs.imag])[:, None], shape))
    prev, cur, new = np.zeros((3,) + shape)
    for c, chain in enumerate(chains):
        if chain == "p":
            prev[0, c] = 1.0                          # p_0 = 1, q_0 = 0
            if upto >= 1:
                np.divide(zs.real - b[0], a[0], out=cur[0, c])
                np.divide(zs.imag, a[0], out=cur[1, c])
        elif upto >= 1:
            cur[0, c] = 1.0 / a[0]
            cur[1, c] = 0.0 / a[0]
    V[:, 0, :, 0], V[:, 0, :, 1] = prev
    if upto >= 1:
        V[:, 1, :, 0], V[:, 1, :, 1] = cur
    xb, t = np.empty(shape), np.empty(shape)
    for n in range(1, upto):
        np.subtract(x, b[n], out=xb)
        np.multiply(xb, cur, out=new)
        np.multiply(ys, cur[::-1], out=t)
        np.add(new, t, out=new)
        np.multiply(a[n - 1], prev, out=t)
        np.subtract(new, t, out=new)
        np.divide(new, a[n], out=new)
        V[:, n + 1, :, 0], V[:, n + 1, :, 1] = new
        prev, cur, new = cur, new, prev


def recurrence_mp(a: np.ndarray, b: np.ndarray, z, upto: int, dps: int,
                  chains: str = "pq") -> Pair:
    """Extended-precision p/q arrays at one point: object arrays of mpmath mpc.

    The point loop's recurrence, run on Python integers.  ``z`` and the
    coefficients are float64, so exact dyadic rationals; each value is an
    integer pair (Re, Im) times a power of two, and the current and
    previous values of a chain share that exponent.  A step computes
    ``a_n v_{n+1}`` exactly, divides by ``a_n`` keeping ``prec +
    _GUARD_BITS`` bits, where ``prec`` is mpmath's binary precision at
    ``dps`` digits, and rounds to nearest.  Each entry is rounded to
    nearest at ``prec`` bits once, when the ``mpc`` is made.  ``chains``
    works as in :func:`recurrence_batch`.

    Raises EvaluationOverflowError if z or a coefficient is not finite.
    """
    from mpmath import mp
    from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

    if chains not in _CHAINS:
        raise ValueError("chains must be 'pq', 'p' or 'q'")
    z, a, b = complex(z), a[:upto], b[:upto]
    if not (np.isfinite(z) and np.isfinite(a).all() and np.isfinite(b).all()):
        raise EvaluationOverflowError(
            "evaluation overflow: the point or a coefficient is not finite")
    prec = dps_to_prec(dps)
    steps = _integer_steps(a, b, z, prec + _GUARD_BITS)
    make, rnd = mp.make_mpc, round_nearest
    out = []
    for chain in chains:
        col = np.empty(upto + 1, dtype=object)
        col[:] = [make((from_man_exp(re, e, prec, rnd), from_man_exp(im, e, prec, rnd)))
                  for re, im, e in _integer_chain(steps, chain)]
        out.append(col)
    return _pick(chains, out)


def _dyadics(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(m, e) with v == m * 2**e exactly, m odd, or m = e = 0 where v == 0."""
    f, e = np.frexp(v)
    m = np.ldexp(f, 53).astype(np.int64)              # exact: |f| < 1
    t = np.maximum(np.frexp(m & -m)[1] - 1, 0)        # trailing zero bits
    return m >> t, np.where(m != 0, e - 53 + t, 0)


def _integer_steps(a: np.ndarray, b: np.ndarray, z: complex,
                   width: int) -> List[Tuple[int, ...]]:
    """The recurrence steps at z = x + iy as integers.

    Step n gives ``a_n v_{n+1} = (x - b_n + iy) v_n - a_{n-1} v_{n-1}``
    (with ``a_{-1} = 1``).  Every coefficient is a float64, so an integer
    times ``2**e0`` for the least exponent e0 among them.  A step's tuple
    holds those integers X, Y, A for ``x - b_n``, ``y`` and ``a_{n-1}``,
    the odd mantissa d of ``a_n = d * 2**f``, ``width + bits(d)`` and
    ``e0 - f``.
    """
    n = len(b)
    m, e = _dyadics(np.concatenate([[z.real, z.imag, 1.0], a, b]))
    e0 = int(e[m != 0].min())                         # <= 0: a_{-1} = 1
    ints = [v << k for v, k in zip(m.tolist(), (e - e0).tolist())]
    x, y, A, B = ints[0], ints[1], ints[2: n + 3], ints[n + 3:]
    return [(x - bn, y, am, d, width + d.bit_length(), e0 - f)
            for bn, am, d, f in zip(B, A, m[3: n + 3].tolist(), e[3: n + 3].tolist())]


def _integer_chain(steps: List[Tuple[int, ...]],
                   chain: str) -> List[Tuple[int, int, int]]:
    """(Re, Im, e) with v_n = (Re + i Im) * 2**e for v = p or q, n = 0..upto."""
    # v_{-1} = 0 for p and -1 for q, so the first step gives p_1 and q_1
    re, im, rep, imp, e = (1, 0, 0, 0, 0) if chain == "p" else (0, 0, -1, 0, 0)
    out = [(re, im, e)]
    for X, Y, A, d, bits, de in steps:
        nre = X * re - Y * im - A * rep
        nim = X * im + Y * re - A * imp
        nb = max(nre.bit_length(), nim.bit_length())
        if nb:
            s = bits - nb                       # the quotient keeps `width` bits
            if s >= 0:
                nre, nim = nre << s, nim << s
            else:
                d <<= -s
            h = d >> 1                          # round to nearest
            nre, nim = (nre + h) // d, (nim + h) // d
            k = s - de                          # the current value joins e - k
            e -= k
            if k >= 0:
                rep, imp = re << k, im << k
            else:
                h = 1 << (-k - 1)
                rep, imp = (re + h) >> -k, (im + h) >> -k
        else:                                   # v_{n+1} = 0 at the same e
            rep, imp = re, im
        re, im = nre, nim
        out.append((re, im, e))
    return out


def abs2(x: np.ndarray) -> np.ndarray:
    """Squared moduli as floats, for complex128 or mpmath (object) arrays.

    An ``mpc`` entry's squared modulus is computed exactly from its integer
    mantissas and exponents and rounded once to the nearest float.  Raises
    EvaluationOverflowError if one exceeds the float range (only an
    extended-precision table can reach it) or an entry is not finite.
    """
    if x.dtype == object:
        try:
            out = np.array([_mpc_abs2(v) for v in x.flat]).reshape(x.shape)
        except OverflowError:
            out = np.full(x.shape, np.inf)
    else:
        out = np.abs(x) ** 2
    if not np.isfinite(out).all():
        raise EvaluationOverflowError(
            "evaluation overflow: a squared modulus exceeds the float range")
    return out


def _mpc_abs2(v) -> float:
    """|v|^2 of an mpmath mpc, rounded once; nan for an infinite or nan part."""
    (_, m, e, _), (_, n, f, _) = v._mpc_
    if (not m and e) or (not n and f):                # mpmath's special values
        return math.nan
    if e > f:
        m, e, n, f = n, f, m, e
    s, k = m * m + (n * n << 2 * (f - e)), 2 * e      # |v|^2 = s * 2**k exactly
    return s / (1 << -k) if k < 0 else float(s << k)  # int division rounds once


def working_precision(precision: str):
    """Context for arithmetic on table entries of ``precision`` at that precision.

    Extended entries are mpmath numbers, whose arithmetic runs at mpmath's
    global precision: the context sets it to ``EXTENDED_DPS`` digits and
    restores it on exit.  Standard (complex128) entries need none.
    """
    if precision == "standard":
        return contextlib.nullcontext()
    from mpmath import mp
    return mp.workdps(EXTENDED_DPS)


class Evaluator:
    """Shared-level evaluation cache for one (source, policy, precision).

    Point tables reach index ``level + 8`` and are held in an LRU cache of
    ``capacity`` tables (256 in standard precision, 16 in extended, where
    one table is far larger).  ``precision`` is "standard" (complex128) or
    "extended" (mpmath with ``EXTENDED_DPS`` digits).
    """

    def __init__(self, source: JacobiCoefficients, policy: TruncationPolicy,
                 precision: str = "standard"):
        if precision not in ("standard", "extended"):
            raise ValueError("precision must be 'standard' or 'extended'")
        self.source = source
        self.policy = policy
        self.precision = precision
        self.level = policy.n_max
        self.top = self.level + _TAIL_MARGIN
        self.capacity = _TABLE_CAPACITY[precision]
        self.a, self.b = source.arrays(self.top)
        self._cache: "OrderedDict[complex, PointTable]" = OrderedDict()

    def _recurrence(self, zs, upto: int, chains: str = "pq") -> Pair:
        """(P, Q) tables of shape (upto+1, len(zs)) at the evaluator's precision.

        The one place that chooses between the complex128 batch kernel and
        the per-point integer kernel (object dtype of mpmath ``mpc``).
        ``chains`` selects the tables computed, as in
        :func:`recurrence_batch`.
        """
        a, b = self.source.arrays(max(upto, 1))
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        if self.precision == "standard":
            return recurrence_batch(a, b, zs, upto, chains)
        tabs = {c: np.empty((upto + 1, zs.size), dtype=object) for c in chains}
        for j, z in enumerate(zs):
            for c, col in zip("pq", recurrence_mp(a, b, z, upto, EXTENDED_DPS, chains)):
                if col is not None:
                    tabs[c][:, j] = col
        return tabs.get("p"), tabs.get("q")

    # -- point tables ------------------------------------------------------

    def table(self, z) -> PointTable:
        z = complex(z)
        tab = self._cache.get(z)
        if tab is None:
            return self.tables([z])[0]
        self._cache.move_to_end(z)
        return tab

    def tables(self, zs) -> List[PointTable]:
        """Point tables for every point of the sequence ``zs``, in order.

        Cached tables are looked up; the misses are computed in one
        recurrence call and enter the cache.
        """
        keys = [complex(z) for z in zs]
        cache = self._cache
        misses = list(dict.fromkeys(z for z in keys if z not in cache))
        if misses:
            P, Q = self._recurrence(misses, self.top)
            for tab in self._finish_tables(misses, P, Q):
                cache[tab.z] = tab
        for z in keys:
            cache.move_to_end(z)
        out = [cache[z] for z in keys]
        while len(cache) > self.capacity:
            cache.popitem(last=False)
        return out

    def tables_batch(self, zs, chains: str = "pq") -> Pair:
        """Uncached (P, Q) tables through index level + 1 for an array of points.

        ``chains`` selects the tables computed; the other is None.
        """
        return self._recurrence(zs, self.level + 1, chains)

    def _finish_tables(self, zs: List[complex], P: np.ndarray,
                       Q: np.ndarray) -> List[PointTable]:
        ab2, qb2 = abs2(P), abs2(Q)
        with np.errstate(over="ignore"):
            cum_p2, cum_q2 = np.cumsum(ab2, axis=0), np.cumsum(qb2, axis=0)
        if not (np.isfinite(cum_p2[-1]).all() and np.isfinite(cum_q2[-1]).all()):
            raise EvaluationOverflowError(
                "evaluation overflow: a cumulative sum exceeds the float range")
        inc = ab2 + qb2
        L, pol = self.level, self.policy
        ok = pol.safety * inc[: L + 1] < pol.tail_tol * (cum_p2 + cum_q2)[: L + 1]
        ok[:2] = False  # keep at least p_0..p_2 so the initial data is visible
        converged = ok.any(axis=0)
        stops = np.where(converged, ok.argmax(axis=0), L)
        out = []
        for j, z in enumerate(zs):
            # contiguous copies: reductions over strided views round differently
            cols = [np.ascontiguousarray(x[:, j]) for x in (P, Q, cum_p2, cum_q2)]
            for col in cols:
                col.flags.writeable = False
            out.append(PointTable(z, *cols, stop_index=int(stops[j]),
                                  converged=bool(converged[j]),
                                  tail_est=float(inc[stops[j], j]), level=L))
        return out

    # -- raw values beyond the shared level --------------------------------

    def pq_upto(self, z, upto: int) -> Tuple[np.ndarray, np.ndarray]:
        """p_0..p_upto, q_0..q_upto at z (exact finite-sum helpers).

        Independent of the shared level; used where the computation is a
        finite sum rather than a truncated series.  A cached table serves
        ``upto <= level + 8`` with read-only slices, bitwise equal to a
        fresh computation since a row depends only on earlier rows; other
        requests are computed and not cached.
        """
        z = complex(z)
        tab = self._cache.get(z)
        if tab is not None and upto <= self.top:
            self._cache.move_to_end(z)
            return tab.p[: upto + 1], tab.q[: upto + 1]
        P, Q = self._recurrence([z], upto)
        return P[:, 0], Q[:, 0]


_EVALUATORS: "OrderedDict[tuple, Evaluator]" = OrderedDict()


def evaluator_for(source: JacobiCoefficients, policy: TruncationPolicy,
                  precision: str = "standard") -> Evaluator:
    """Memoized Evaluator per (source, policy, precision), LRU-bounded."""
    key = (source, policy, precision)
    if key not in _EVALUATORS:
        _EVALUATORS[key] = Evaluator(source, policy, precision)
        while len(_EVALUATORS) > _MAX_EVALUATORS:
            _EVALUATORS.popitem(last=False)
    _EVALUATORS.move_to_end(key)
    return _EVALUATORS[key]


def clear_evaluator_cache() -> None:
    _EVALUATORS.clear()


def eval_pq(source: JacobiCoefficients, z, policy: TruncationPolicy,
            precision: str = "standard") -> PolyEval:
    """Evaluate p/q at z, truncating at the policy's adaptive stop index."""
    ev = evaluator_for(source, policy, precision)
    tab = ev.table(z)
    N = tab.stop_index
    return PolyEval(z=complex(z), p=tab.p[: N + 1].copy(), q=tab.q[: N + 1].copy(),
                    cum_p2=float(tab.cum_p2[N]), cum_q2=float(tab.cum_q2[N]),
                    N=N, tail_est=tab.tail_est, converged=tab.converged)
