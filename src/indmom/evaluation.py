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

Every cached point table comes from :meth:`Evaluator.tables`, which
computes all the points it misses in one recurrence call.  The standard
backend, :func:`recurrence_batch`, returns complex128 tables computed in
explicit real arithmetic, by a per-point loop on Python floats for small
batches and by the same operations as numpy ufuncs for large ones, so a
point's table does not depend on its batch.  The extended backend uses
mpmath with a configurable number of digits, one point at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .coefficients import JacobiCoefficients
from .errors import EvaluationOverflowError

_OVERFLOW_LIMIT = 1e150
_TAIL_MARGIN = 8  # table indices past the shared level, for p/q truncations
_TABLE_CAPACITY = {"standard": 256, "extended": 16}  # tables per evaluator
_MAX_EVALUATORS = 8
# Largest batch run by the per-point loop.  The point loop costs about
# 0.5 ms per point and the array loop about 7 ms per batch at L = 1009, so
# they cross at 13-15 points (measured at L = 509 and 1009, 2-core Xeon VM).
_SCALAR_BATCH = 12


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


def recurrence_batch(a: np.ndarray, b: np.ndarray, zs: np.ndarray,
                     upto: int) -> Tuple[np.ndarray, np.ndarray]:
    """p/q tables: shape (upto+1, len(zs)), complex128, C-contiguous.

    Each step computes the real and imaginary parts of p and q with the
    same IEEE operations in the same order, for example
    ``Re p_{n+1} = (xb*Re p_n + (-y)*Im p_n - a_{n-1}*Re p_{n-1}) / a_n``
    with ``xb = x - b_n``; no complex multiply, which numpy's SIMD loops
    may fuse.  Batches of at most ``_SCALAR_BATCH`` points run a loop on
    Python floats per point, larger ones the same operations as in-place
    ufuncs over the batch, so a point's table is bitwise the same whatever
    batch computed it.

    Raises EvaluationOverflowError if a real or imaginary part exceeds
    ``_OVERFLOW_LIMIT`` in size or is not finite.
    """
    zs = np.asarray(zs, dtype=complex)
    npts = zs.shape[0]
    R = np.empty((2, upto + 1, npts), dtype=complex)
    V = R.view(float).reshape(2, upto + 1, npts, 2)  # [P|Q, n, point, re|im]
    if npts <= _SCALAR_BATCH:
        al, bl = a[:upto].tolist(), b[:upto].tolist()
        for j, z in enumerate(zs.tolist()):
            (V[0, :, j, 0], V[0, :, j, 1],
             V[1, :, j, 0], V[1, :, j, 1]) = _point_loop(al, bl, z.real, z.imag, upto)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            _array_loop(a, b, zs, upto, V)
    if R.size and not (-_OVERFLOW_LIMIT <= V.min() and V.max() <= _OVERFLOW_LIMIT):
        raise EvaluationOverflowError(
            "evaluation overflow; reduce |z| or use higher precision")
    return R[0], R[1]


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
                V: np.ndarray) -> None:
    """The point loop's operations as in-place ufuncs over a batch.

    Rows are computed in three rolling (re|im, p|q, point) buffers, where
    every operand is contiguous, and each new row is copied into ``V``.
    The real and imaginary parts are updated together: ``ys = [-y, y]``
    multiplies the swapped parts ``[Im, Re]``.
    """
    shape = (2, 2, zs.shape[0])
    x = np.ascontiguousarray(np.broadcast_to(zs.real, shape))
    ys = np.ascontiguousarray(np.broadcast_to(
        np.stack([-zs.imag, zs.imag])[:, None], shape))
    prev, cur, new = np.zeros((3,) + shape)
    prev[0, 0] = 1.0                                  # p_0 = 1, q_0 = 0
    V[:, 0, :, 0], V[:, 0, :, 1] = prev
    if upto >= 1:
        np.divide(zs.real - b[0], a[0], out=cur[0, 0])
        np.divide(zs.imag, a[0], out=cur[1, 0])
        cur[0, 1] = 1.0 / a[0]
        cur[1, 1] = 0.0 / a[0]
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


def recurrence_mp(a: np.ndarray, b: np.ndarray, z, upto: int, dps: int):
    """mpmath p/q arrays (object dtype) at one point."""
    import mpmath as mp

    with mp.workdps(dps):
        am = [mp.mpf(v) for v in a[:upto].tolist()]
        bm = [mp.mpf(v) for v in b[:upto].tolist()]
        zm = mp.mpc(z)
        p = np.empty(upto + 1, dtype=object)
        q = np.empty(upto + 1, dtype=object)
        p[0], q[0] = mp.mpc(1), mp.mpc(0)
        if upto >= 1:
            p[1] = (zm - bm[0]) / am[0]
            q[1] = mp.mpc(1) / am[0]
        for n in range(1, upto):
            p[n + 1] = ((zm - bm[n]) * p[n] - am[n - 1] * p[n - 1]) / am[n]
            q[n + 1] = ((zm - bm[n]) * q[n] - am[n - 1] * q[n - 1]) / am[n]
    return p, q


def abs2(x: np.ndarray) -> np.ndarray:
    """Squared moduli as floats, for complex128 or mpmath (object) arrays."""
    return (np.abs(x) ** 2).astype(float, copy=False)


class Evaluator:
    """Shared-level evaluation cache for one (source, policy, precision).

    Point tables reach index ``level + 8`` and are held in an LRU cache of
    ``capacity`` tables (256 in standard precision, 16 in extended, where
    one table is far larger).  ``precision`` is "standard" (complex128) or
    "extended" (mpmath with ``dps`` digits).
    """

    def __init__(self, source: JacobiCoefficients, policy: TruncationPolicy,
                 precision: str = "standard", dps: int = 32):
        if precision not in ("standard", "extended"):
            raise ValueError("precision must be 'standard' or 'extended'")
        self.source = source
        self.policy = policy
        self.precision = precision
        self.dps = int(dps)
        self.level = policy.n_max
        self.top = self.level + _TAIL_MARGIN
        self.capacity = _TABLE_CAPACITY[precision]
        self.a, self.b = source.arrays(self.top)
        self._cache: "OrderedDict[complex, PointTable]" = OrderedDict()

    def _recurrence(self, zs, upto: int) -> Tuple[np.ndarray, np.ndarray]:
        """(P, Q) tables of shape (upto+1, len(zs)) at the evaluator's precision.

        The one place that chooses between the complex128 batch kernel and
        the per-point mpmath kernel (object dtype).
        """
        a, b = self.source.arrays(max(upto, 1))
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        if self.precision == "standard":
            return recurrence_batch(a, b, zs, upto)
        P, Q = (np.empty((upto + 1, zs.size), dtype=object) for _ in range(2))
        for j, z in enumerate(zs):
            P[:, j], Q[:, j] = recurrence_mp(a, b, complex(z), upto, self.dps)
        return P, Q

    # -- point tables ------------------------------------------------------

    def table(self, z) -> PointTable:
        return self.tables([z])[0]

    def tables(self, zs) -> List[PointTable]:
        """Point tables for every point of the sequence ``zs``, in order.

        Cached tables are looked up; all misses are computed in one
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

    def tables_batch(self, zs) -> Tuple[np.ndarray, np.ndarray]:
        """Uncached (P, Q) tables through index level + 1 for an array of points."""
        return self._recurrence(zs, self.level + 1)

    def _finish_tables(self, zs: List[complex], P: np.ndarray,
                       Q: np.ndarray) -> List[PointTable]:
        ab2, qb2 = abs2(P), abs2(Q)
        cum_p2, cum_q2 = np.cumsum(ab2, axis=0), np.cumsum(qb2, axis=0)
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

        Independent of the shared level and uncached; used where the
        computation is a finite sum rather than a truncated series.
        """
        P, Q = self._recurrence([z], upto)
        return P[:, 0], Q[:, 0]


_EVALUATORS: "OrderedDict[tuple, Evaluator]" = OrderedDict()


def evaluator_for(source: JacobiCoefficients, policy: TruncationPolicy,
                  precision: str = "standard", dps: int = 32) -> Evaluator:
    """Memoized Evaluator per (source, policy, precision, dps), LRU-bounded."""
    key = (source, policy, precision, dps)
    if key not in _EVALUATORS:
        _EVALUATORS[key] = Evaluator(source, policy, precision, dps)
        while len(_EVALUATORS) > _MAX_EVALUATORS:
            _EVALUATORS.popitem(last=False)
    _EVALUATORS.move_to_end(key)
    return _EVALUATORS[key]


def clear_evaluator_cache() -> None:
    _EVALUATORS.clear()


def eval_pq(source: JacobiCoefficients, z, policy: TruncationPolicy,
            precision: str = "standard", dps: int = 32) -> PolyEval:
    """Evaluate p/q at z, truncating at the policy's adaptive stop index."""
    ev = evaluator_for(source, policy, precision, dps)
    tab = ev.table(z)
    N = tab.stop_index
    return PolyEval(z=complex(z), p=tab.p[: N + 1].copy(), q=tab.q[: N + 1].copy(),
                    cum_p2=float(tab.cum_p2[N]), cum_q2=float(tab.cum_q2[N]),
                    N=N, tail_est=tab.tail_est, converged=tab.converged)
