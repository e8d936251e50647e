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

Layout
------
Every batch is read in one layout, a point-major block of shape
``(chains, points, upto+1)``: each chain at each point is one contiguous
row.  The standard backend, :func:`recurrence_batch`, returns it filled
with complex128 values.  Where numpy's bundled OpenBLAS provides BLAS
``ztbsv``, each row is one lower triangular banded solve of the
recurrence at unit stride, on a band that keeps its diagonal ``a_n``
(:func:`_banded_solve` says why).  Where ``ztbsv`` does not load, the fallback
runs the recurrence in explicit real arithmetic, by a per-point loop on
Python floats for small batches and by the same operations as numpy
ufuncs for large ones; the two loops are bitwise equal.  The ufunc loop
computes one index for the whole batch at a time, so it fills
chain-major scratch rows, contiguous across the batch, and copies them
into the block once; no other layout is made.  On either route a row
depends only on its point, not on its batch; the two routes agree to
roundoff.
The extended backend, :func:`_mp_block`, runs the same real-arithmetic
recurrence one point at a time on Python integers: the points and
coefficients are float64, so exact dyadic rationals, and each step keeps
``_GUARD_BITS`` bits beyond mpmath's binary precision at ``dps`` digits,
rounding to nearest after each division by ``a_n``.  Each point has one
kernel, :func:`_point_kernel`, which runs p and q together and only as far
as the reads of the point's two :class:`ExtendedRow` have needed: a read
of entry n of either row first runs both chains through step n, so a
table that is read no further than its first hundred entries runs about a
hundred steps per chain, and its entries are bitwise those of the whole
chains whatever the order of reads.  A row holds the values as the
kernel left them, integer parts and a shared exponent, and rounds an
entry to that precision, by mpmath's ``normalize`` inlined, each time it
is read: an entry becomes a complex number of :func:`_mp_context` at that
precision then.  A row keeps no Python object per entry, so only what is
read is computed, rounded or squared.  An entry's squared modulus is that
of the kernel's own value, whose integers carry ``_GUARD_BITS`` more bits
than the entry as read: the exact ``RE^2 + IM^2`` times ``2**(2 E)``,
rounded once to a float (:meth:`ExtendedRow.squares`, :func:`_squares`),
so it does not depend on the precision entries are rounded to.  The
coefficients are split into the kernel's integers once per evaluator
(:class:`_IntegerCoefficients`); only ``y``, ``x - b_n`` and, where the
point's parts go lower, a shift are made per point, and ``x - b_n`` and
the shift once per chunk of steps the kernel runs, for both chains.
Evaluators run the kernel at ``EXTENDED_DPS`` digits.  An entry's
context carries its precision, so arithmetic on it runs at that precision
wherever it happens, in this package or a caller's code, and mpmath's
global precision is neither read nor set.  The standard backend computes
the p rows, the q rows or both (``chains``), and all but the fallback's
point loop compute only the rows returned; the extended backend computes
both, and :meth:`Evaluator.rows` returns the chains asked for.

Squared sums
------------
Every squared sum is the in-order sum of the squared moduli of a row's
entries: the stop rule's totals, the norms ``norm_p2`` and ``norm_q2``
(the domain tests divide by ``norm_p2``) and the N-extremal masses,
``1 / norm_p2``.  A complex128 entry's squared modulus is ``abs(v)**2``;
an extended entry's is the exact square of the kernel's unrounded value,
rounded once to a float.  One pair of helpers takes them all.
:func:`_squared_moduli` squares a range of entries of some rows, and
:func:`_running_sums` sums them in index order, continued from a carry;
sums taken chunk by chunk are then bitwise the sums of the whole row.
Overflow is raised by the read that needs the square or the sum: an
extended square, or the last running sum of a row, past the float range
raises EvaluationOverflowError.  A complex128 square is at most 2e300, so
standard squares are not checked and standard reads run in numpy's
default error state (:func:`_summing`).  An extended table whose squares
overflow is still built and cached, and its corner entries still read.

:meth:`Evaluator.rows` is the one reader of a batch, of the standard
block or an :class:`ExtendedRow` per chain and point: point tables,
:meth:`Evaluator.pq_upto`, :meth:`Evaluator.norms_p2` and
:func:`indmom.zeros.line_values` read it.  A point table holds its two
rows, copied out of the block in standard precision and the two
:class:`ExtendedRow` as they are in extended, and nothing else when it is
built.  It squares only what a read needs: the A, B, C, D corner values
read no square, the stop rule squares both chains, and a norm squares
one chain through the shared level (:func:`_level_sums`).  The stop rule
takes complex128 rows, whole from the start, in one pass through the
level (a fresh standard ``eval_pq`` at c = 2, L = 1000 takes about 0.14
ms, ``BENCH_31.json``), and extended rows in ``_STOP_CHUNK``-entry chunks
through the one that holds its first passing index.  An extended table
computes only what a read needs too: its rows run the kernel through the
corner entries for A, B, C, D, through the stop rule's last chunk for
``eval_pq``, at most ``_STOP_CHUNK - 1`` steps past its stop index, and
through the level for a norm.  :attr:`Evaluator.stats` counts the batches
read, the tables built, the cache hits and the extended kernel steps run.
:meth:`Evaluator.rows` looks :func:`recurrence_batch` up by its module
name on every call, so a function bound in its place, as the traced
bench binds one, sees every standard batch.  :func:`recurrence_mp` gives
the whole extended rows at one point, one object array per chain.
"""

from __future__ import annotations

import contextlib
import copyreg
import ctypes
import functools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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
# Below this a scaled float can round twice; squared moduli there divide exactly.
_NORMAL_EDGE = 2.0 ** -1021
# Entries per stop-rule chunk on extended rows, whose entries are computed as
# read; complex128 rows take the rule in one pass (:meth:`PointTable._find_stop`).
_STOP_CHUNK = 32
_CHAINS = ("pq", "p", "q")
# ztbsv(uplo, trans, diag, n, k, band, lda, x, incx) with 64-bit integers
_ZTBSV_ARGS = (ctypes.c_char_p,) * 3 + (INT, INT, ctypes.c_void_p, INT,
                                         ctypes.c_void_p, INT)
# the arguments every solve shares, made once: UPLO 'L', TRANS 'N', DIAG 'N',
# two subdiagonals, leading dimension 3, stride 1
_UPLO, _TRANS, _DIAG = (ctypes.c_char_p(v) for v in (b"L", b"N", b"N"))
_SUBDIAGONALS, _LDA, _INC = (ctypes.c_int64(v) for v in (2, 3, 1))


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule for the recurrence partial sums.

    n_max: hard cap on the truncation index (also the shared evaluation
        level used by all cross-point formulas).
    tail_tol: target relative size of the last increment.
    safety: multiplier on the empirical tail estimate.

    ``n_max`` must be at least 8, ``tail_tol`` finite and positive and
    ``safety`` finite and at least 1; the constructor raises ValueError
    otherwise.
    """

    n_max: int = 500
    tail_tol: float = 1e-3
    safety: float = 10.0

    def __post_init__(self):
        if self.n_max < 8:
            raise ValueError("n_max must be at least 8")
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0):
            raise ValueError("tail_tol must be finite and positive, "
                             f"got {self.tail_tol}")
        if not (math.isfinite(self.safety) and self.safety >= 1):
            raise ValueError(f"safety must be finite and >= 1, got {self.safety}")


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
class EvalStats:
    """Counters of an :class:`Evaluator`'s work since it was made.

    batches: calls of :meth:`Evaluator.rows`, the one batch reader.
    batch_points: the points those calls computed, summed over calls.
    tables_built: point tables computed into its cache.
    table_hits: point tables read from its cache (a point asked for twice
        in one batch is one table built and one hit).
    extended_steps: integer kernel steps run for its extended rows, summed
        over the two chains, which a point's kernel runs together and only
        as far as the entries of either row are read.
    """

    batches: int = 0
    batch_points: int = 0
    tables_built: int = 0
    table_hits: int = 0
    extended_steps: int = 0


class PointTable:
    """Internal: full-level recurrence data at one point.

    Read-only rows ``p`` and ``q``, each owning its data, run through index
    ``level + 8``: the Casorati forms read index ``level + 1`` and the p/q
    truncations of the membership tests end at ``level + 8``.  In standard
    precision they are complex128 arrays; in extended precision they are
    :class:`ExtendedRow`, which read as complex numbers of
    :func:`_mp_context` by index and as object arrays of them by slice, and
    compute their entries as far as they are read: a new extended table
    has run no recurrence step.  Reading the rows squares nothing.

    Squared sums are taken on read, as "Squared sums" above says: an
    extended entry is squared from the kernel's unrounded value, not from
    the entry as read.  A read that meets a square or a sum past the float
    range raises EvaluationOverflowError.  Two are kept once read:

    - ``stop_index``, ``converged`` and ``tail_est`` run the policy's stop
      rule over both chains from index 0: complex128 rows in one pass
      through the shared level, extended rows in ``_STOP_CHUNK``-entry
      chunks, carrying each chain's running sum from chunk to chunk, and
      stopping at the chunk that holds the first passing index, or at the
      shared level;
    - ``norm_p2`` and ``norm_q2`` sum one chain through the shared level.
    """

    __slots__ = ("z", "p", "q", "level", "_policy", "_stop", "_norms")

    def __init__(self, z: complex, p: Union[np.ndarray, "ExtendedRow"],
                 q: Union[np.ndarray, "ExtendedRow"], policy: TruncationPolicy):
        self.z, self.p, self.q = z, p, q
        self.level = policy.n_max
        self._policy = policy
        self._stop: Optional[Tuple[int, bool, float, float, float]] = None
        self._norms: List[Optional[float]] = [None, None]

    @property
    def stop_index(self) -> int:
        return self._stop_rule()[0]

    @property
    def converged(self) -> bool:
        return self._stop_rule()[1]

    @property
    def tail_est(self) -> float:
        return self._stop_rule()[2]

    @property
    def norm_p2(self) -> float:
        """Squared norm proxy at the shared level."""
        return self._norm(0)

    @property
    def norm_q2(self) -> float:
        return self._norm(1)

    def _norm(self, c: int) -> float:
        """sum_{k<=level} |v_k|^2 for chain c (p or q), kept on first read."""
        if self._norms[c] is None:
            self._norms[c] = float(_level_sums([(self.p, self.q)[c]], self.level)[0])
        return self._norms[c]

    def _stop_rule(self) -> Tuple[int, bool, float, float, float]:
        """(stop_index, converged, tail_est, cum_p2[N], cum_q2[N]) at N = stop_index.

        Found on the first read and kept.

        The rule ``safety * inc < tail_tol * total`` with ``inc = |p_n|^2 +
        |q_n|^2`` and ``total = cum_p2[n] + cum_q2[n]`` runs chunk by chunk
        over n = 2..level; p_0..p_2 are always kept, so the initial data is
        visible.  Without a passing index the level is the stop index and
        the table has not converged.
        """
        if self._stop is None:
            rows = (self.p, self.q)
            with _summing(rows):
                self._stop = self._find_stop(rows)
        return self._stop

    def _find_stop(self, rows) -> Tuple[int, bool, float, float, float]:
        """The stop rule over ``rows``, ``(p, q)``, chunk by chunk: one chunk
        through the level for complex128 rows, ``_STOP_CHUNK`` entries each
        for :class:`ExtendedRow`, whose entries are computed as read."""
        L, pol = self.level, self._policy
        size = _STOP_CHUNK if isinstance(rows[0], ExtendedRow) else L + 1
        lo, carry = 0, None
        while True:
            hi = min(lo + size, L + 1)
            S = _squared_moduli(rows, lo, hi)
            inc = S[0] + S[1]
            cp, cq = _running_sums(S, carry)
            total = cp + cq
            _finite_sum(total[-1])
            ok = pol.safety * inc < pol.tail_tol * total
            if lo < 2:
                ok[: 2 - lo] = False
            k = int(ok.argmax())
            if ok[k] or hi > L:
                n = lo + k if ok[k] else L
                return (n, bool(ok[k]), float(inc[n - lo]), float(cp[n - lo]),
                        float(cq[n - lo]))
            lo, carry = hi, S[:, -1]


class ExtendedRow:
    """Internal: a read-only row of extended-precision entries.

    Entry n is ``(RE[n] + i IM[n]) * 2**E[n]``, the integer kernel's value
    before rounding, and reads as that value with each part rounded to
    nearest at ``prec`` bits (:func:`_round_mpf`).  Reading an int index
    gives a complex number of ``_mp_context(prec)``, and reading a slice an
    object ndarray of them; only the entries read are rounded, on each
    read.  The row keeps no object per entry.

    A row made with a ``kernel`` holds ``size`` entries but computes them
    as they are read: each read (an index, a slice or :meth:`squares`)
    first runs its point's :func:`_point_kernel` through the highest index
    it needs, which computes the point's other row as far too, so the
    entries are bitwise those of the whole chain whatever the order of
    reads on either row.  A kernel that has run its last step has returned
    and holds nothing.  Reads run the kernel, so a point's rows are not to
    be read from two threads at once.
    """

    __slots__ = ("_re", "_im", "_e", "_prec", "_make", "_size", "_kernel")

    def __init__(self, RE: List[int], IM: List[int], E: List[int], prec: int,
                 size: Optional[int] = None, kernel=None):
        self._re, self._im, self._e, self._prec = RE, IM, E, prec
        self._make = _mp_context(prec).make_mpc
        self._size = len(E) if size is None else size
        self._kernel = kernel

    def __len__(self) -> int:
        return self._size

    def _fill(self, n: int) -> None:
        """Run the kernel until the row holds entries 0..n, for n < len(self)."""
        if n >= len(self._e):
            with contextlib.suppress(StopIteration):   # raised after the last step
                self._kernel.send(n)

    def _span(self, k: slice) -> slice:
        """The entries of ``k`` as a slice of the held lists, once computed."""
        r = range(*k.indices(self._size))
        if not r:
            return slice(0, 0)
        self._fill(max(r[0], r[-1]))
        # held lists can be shorter than the row: no index counts from their end
        return slice(r.start, None if r.stop < 0 else r.stop, r.step)

    def __getitem__(self, k):
        prec = self._prec
        if isinstance(k, slice):
            k = self._span(k)
            vals = [self._make((_round_mpf(re, e, prec), _round_mpf(im, e, prec)))
                    for re, im, e in zip(self._re[k], self._im[k], self._e[k])]
            out = np.empty(len(vals), dtype=object)
            out[:] = vals
            return out
        n = operator.index(k)
        if n < 0:
            n += self._size
        if not 0 <= n < self._size:
            raise IndexError("row index out of range")
        self._fill(n)
        e = self._e[n]
        return self._make((_round_mpf(self._re[n], e, prec),
                           _round_mpf(self._im[n], e, prec)))

    def squares(self, lo: int, hi: int) -> np.ndarray:
        """Squared moduli of entries lo..hi-1, by :func:`_squares`: those of
        the kernel's unrounded values, each exact and rounded once to a float.

        Floats, inf beyond the float range; no entry is built or rounded.
        """
        k = self._span(slice(lo, hi))
        return np.array(_squares(self._re[k], self._im[k], self._e[k]), dtype=float)


@functools.lru_cache(maxsize=8)
def _mp_context(prec: int):
    """A private mpmath context at ``prec`` bits, made once per precision.

    Extended entries are its numbers, so arithmetic on them runs at
    ``prec`` bits wherever it happens, as mpmath runs an operation at the
    precision of its left operand's context.  mpmath's global context, whose
    precision every thread shares, is left as it is.  The context's own
    ``mpc`` and ``mpf`` classes pickle by their raw parts and ``prec``
    (:func:`_mpc_at`, :func:`_mpf_at`), since pickle cannot find them by
    name.
    """
    from mpmath import MPContext

    ctx = MPContext()
    ctx.prec = prec
    copyreg.pickle(ctx.mpc, lambda x: (_mpc_at, (prec, x._mpc_)))
    copyreg.pickle(ctx.mpf, lambda x: (_mpf_at, (prec, x._mpf_)))
    return ctx


def _mpc_at(prec: int, parts):
    """The complex number of ``_mp_context(prec)`` with raw parts ``parts``."""
    return _mp_context(prec).make_mpc(parts)


def _mpf_at(prec: int, parts):
    """The real number of ``_mp_context(prec)`` with raw parts ``parts``."""
    return _mp_context(prec).make_mpf(parts)


def _abs_squares(x: np.ndarray) -> np.ndarray:
    """Squared moduli of a complex128 array: ``np.abs(x) ** 2``."""
    return np.abs(x) ** 2


def _squared_moduli(rows, lo: int, hi: int) -> np.ndarray:
    """Squared moduli of entries lo..hi-1 of each row: shape (len(rows), hi - lo).

    ``rows`` is a sequence of table rows, complex128 arrays or
    :class:`ExtendedRow`, or a 2-D complex128 block of them.  Complex128
    entries are squared by :func:`_abs_squares`; their parts are at most
    ``_OVERFLOW_LIMIT`` (:func:`recurrence_batch`), so each square is finite.
    Extended entries are squared by :meth:`ExtendedRow.squares`, which
    builds no entry, and can leave the float range.

    Raises EvaluationOverflowError if an extended square is not finite.
    """
    if isinstance(rows, np.ndarray):
        return _abs_squares(rows[:, lo:hi])
    S = np.empty((len(rows), hi - lo))
    for k, row in enumerate(rows):
        if not isinstance(row, ExtendedRow):
            S[k] = _abs_squares(row[lo:hi])
            continue
        S[k] = row.squares(lo, hi)
        if not np.isfinite(S[k]).all():
            raise EvaluationOverflowError(
                "evaluation overflow: a squared modulus exceeds the float range")
    return S


def _running_sums(squares: np.ndarray, carry=None) -> np.ndarray:
    """In-order cumulative sums along each row of ``squares``, from ``carry``.

    Entry k of a row becomes ``carry + s_0 + ... + s_k``, added left to
    right, so sums taken chunk by chunk, each chunk carrying the last sums
    of the one before, are bitwise the sums of the whole row.  ``carry``,
    where given, is a float or one per row.  The sums overwrite
    ``squares``, which are finite and nonnegative (:func:`_squared_moduli`).

    Raises EvaluationOverflowError if a sum is not finite.  A row's sums
    do not decrease, so only its last is checked.
    """
    if carry is not None:
        squares[:, 0] += carry
    np.add.accumulate(squares, axis=1, out=squares)
    _finite_sum(max(squares[:, -1].tolist(), default=0.0))
    return squares


def _finite_sum(total: float) -> None:
    """Raise EvaluationOverflowError unless ``total``, a sum of squares, is finite."""
    if not total < math.inf:
        raise EvaluationOverflowError(
            "evaluation overflow: a cumulative sum exceeds the float range")


def _summing(rows):
    """The numpy error state for squaring and summing entries of ``rows``.

    Extended squares and sums can leave the float range, where the helpers
    above raise, so numpy's overflow warning is off for them.  Complex128
    squares are at most 2e300, so their sums stay finite short of some
    10**8 entries, and standard rows enter no error state.
    """
    if len(rows) and isinstance(rows[0], ExtendedRow):
        return np.errstate(over="ignore")
    return contextlib.nullcontext()


def _level_sums(rows, level: int) -> np.ndarray:
    """sum_{k<=level} |v_k|^2 for each row of ``rows``, in index order."""
    with _summing(rows):
        return _running_sums(_squared_moduli(rows, 0, level + 1))[:, -1]


def recurrence_batch(a: np.ndarray, b: np.ndarray, zs: np.ndarray, upto: int,
                     chains: str = "pq") -> np.ndarray:
    """p/q values as a point-major block: shape (len(chains), len(zs), upto+1).

    The standard kernel: every standard table, norm, line value and
    ``pq_upto`` runs it, through :meth:`Evaluator.rows`.  Row ``[c, j]``
    is chain ``chains[c]`` ("pq", "p" or "q") at ``zs[j]``, contiguous,
    complex128, and only the chains asked for are computed; ``a`` and
    ``b`` hold at least ``upto`` coefficients.  Where numpy's OpenBLAS
    provides BLAS ``ztbsv``, each row is one lower banded triangular
    solve on a band that keeps its diagonal ``a_n`` (:func:`_banded_solve`).
    Otherwise the recurrence runs in explicit real arithmetic with the same
    IEEE operations in the same order, for example
    ``Re p_{n+1} = (xb*Re p_n + (-y)*Im p_n - a_{n-1}*Re p_{n-1}) / a_n``
    with ``xb = x - b_n``: batches of at most ``_SCALAR_BATCH`` points on
    Python floats per point, larger ones as in-place ufuncs over the batch.
    The ufunc loop fills chain-major scratch rows, each contiguous across
    the batch, and the block is one copy of them: written straight into
    the block, one scattered row per step, it ran about 2.5 times slower.
    On a given route a point's row is bitwise the same whatever batch
    computed it and whichever chains were asked for; banded and
    real-arithmetic rows agree to roundoff, not bitwise.

    Raises ValueError if ``a`` or ``b`` is too short, and
    EvaluationOverflowError if a real or imaginary part exceeds
    ``_OVERFLOW_LIMIT`` in size or is not finite, as every entry past
    index 1 is at a point ±inf or nan; no route warns on the way.
    """
    if chains not in _CHAINS:
        raise ValueError("chains must be 'pq', 'p' or 'q'")
    _check_lengths(a, b, upto)
    zs = np.asarray(zs, dtype=complex)
    npts, k, n = zs.shape[0], len(chains), upto + 1
    ztbsv = _ztbsv()
    if ztbsv is not None:
        R = np.zeros((k, npts, n), dtype=complex)   # zeroed right-hand sides
        _banded_solve(ztbsv, a, b, zs, upto, R, chains)
    elif npts <= _SCALAR_BATCH:
        R = np.empty((k, npts, n), dtype=complex)
        V = R.view(float).reshape(k, npts, n, 2)      # [chain, point, n, re|im]
        al, bl = a[:upto].tolist(), b[:upto].tolist()
        for j, z in enumerate(zs.tolist()):
            pr, pi, qr, qi = _point_loop(al, bl, z.real, z.imag, upto)
            for c, chain in enumerate(chains):
                V[c, j, :, 0], V[c, j, :, 1] = (pr, pi) if chain == "p" else (qr, qi)
    else:
        T = np.empty((k, n, npts), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            _array_loop(a, b, zs, upto, T.view(float).reshape(k, n, npts, 2), chains)
        R = np.ascontiguousarray(T.transpose(0, 2, 1))
    V = R.view(float)
    if V.size and not (-_OVERFLOW_LIMIT <= V.min() and V.max() <= _OVERFLOW_LIMIT):
        raise EvaluationOverflowError(
            "evaluation overflow; reduce |z| or use higher precision")
    return R


def _check_lengths(a: np.ndarray, b: np.ndarray, upto: int) -> None:
    """Raise ValueError unless ``a`` and ``b`` hold ``upto`` coefficients each."""
    if min(len(a), len(b)) < upto:
        raise ValueError(f"upto = {upto} needs {upto} coefficients, "
                         f"got len(a) = {len(a)} and len(b) = {len(b)}")


def _ztbsv():
    """BLAS ztbsv from numpy's bundled OpenBLAS, or None."""
    return _openblas.symbol("ztbsv", *_ZTBSV_ARGS)


def _banded_solve(ztbsv, a: np.ndarray, b: np.ndarray, zs: np.ndarray,
                  upto: int, R: np.ndarray, chains: str) -> None:
    """Fill the zeroed rows ``R[chain, point]`` by one ``ztbsv`` call each.

    p and q solve the lower triangular system whose row 0 is ``v_0`` and
    whose row n+1 is ``a_n v_{n+1} + (b_n - z) v_n + a_{n-1} v_{n-1}``,
    with right-hand side e_0 for p (``p_0 = 1``) and e_1 for q
    (``a_0 q_1 = 1``).  Its band, stored column-major with leading
    dimension 3, holds ``(a_{j-1}, b_j - z, a_j)`` in column j (1 in place
    of ``a_{-1}``); only the middle row depends on z, and a non-finite
    point leaves it non-finite without a floating-point warning.  Each
    solution overwrites its right-hand side, a contiguous row, in place.

    ztbsv divides by the diagonal at every step.  The unit-diagonal form,
    each row divided by ``a_n`` (band ``(1, (b_j - z)/a_j, a_j/a_{j+1})``,
    DIAG 'U', right-hand side e_1/a_0 for q), halves the time of the
    solves, but its rows round differently, within 1e-14 of an mpmath
    recurrence as these are, and on the ``a_n = 1.5^n`` file that moved
    the acceptance suite's series-versus-corner check past its 1e-12
    bound; so the band keeps its diagonal.
    """
    n, npts = upto + 1, zs.shape[0]
    band = np.zeros((n, 3), dtype=complex)
    band[0, 0] = 1.0
    band[1:, 0] = a[:upto]
    band[: max(upto - 1, 0), 2] = a[: max(upto - 1, 0)]
    shift = band[:upto, 1]
    for c, chain in enumerate(chains):
        if chain == "p":
            R[c, :, 0] = 1.0
        elif upto >= 1:
            R[c, :, 1] = 1.0
    size, A, x0, step = ctypes.c_int64(n), band.ctypes.data, R.ctypes.data, n * R.itemsize
    b = b[:upto]
    for j, z in enumerate(zs.tolist()):
        np.subtract(b, z, out=shift)
        for c in range(len(chains)):
            ztbsv(_UPLO, _TRANS, _DIAG, size, _SUBDIAGONALS, A, _LDA,
                  x0 + (c * npts + j) * step, _INC)


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
    every operand is contiguous, and each new row is copied into ``V``,
    indexed [chain, n, point, re|im].  The real and imaginary parts are
    updated together: ``ys = [-y, y]`` multiplies the swapped parts
    ``[Im, Re]``.
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


def recurrence_mp(a: np.ndarray, b: np.ndarray, z, upto: int, dps: int) -> List[np.ndarray]:
    """Extended-precision rows at one point, in the context at ``dps`` digits.

    The p and q rows, each an object array of upto+1 complex numbers of
    :func:`_mp_context`: the whole rows of :func:`_mp_block` at the one
    point ``z``.  ``a`` and ``b`` hold at least ``upto`` coefficients.
    ``bench/`` times one extended table through it.

    Raises ValueError if ``a`` or ``b`` is too short, and
    EvaluationOverflowError if z or a coefficient is not finite.
    """
    _check_lengths(a, b, upto)
    rows = _mp_block(_IntegerCoefficients(a[:upto], b[:upto], dps), [complex(z)], upto)
    return [chain[0][:] for chain in rows]


def _mp_block(coeffs: "_IntegerCoefficients", zs, upto: int,
              stats: Optional[EvalStats] = None) -> List[List["ExtendedRow"]]:
    """Extended-precision p and q rows, point by point, computed as they are read.

    ``rows[0][j]`` and ``rows[1][j]`` are p and q at ``zs[j]``, each an
    :class:`ExtendedRow` of upto+1 entries for the first ``upto`` steps of
    ``coeffs`` (at least ``upto`` long).  The two rows of a point share its
    :func:`_point_kernel`, which runs both chains as far as either row's
    reads need and adds the steps it runs to ``stats.extended_steps``,
    where ``stats`` is given.

    Raises EvaluationOverflowError if a point is not finite.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    if not np.isfinite(zs).all():
        raise EvaluationOverflowError(
            "evaluation overflow: the point or a coefficient is not finite")
    if stats is None:
        stats = EvalStats()
    rows = [[], []]
    for z in zs.tolist():
        kernel = _point_kernel(coeffs, z, upto, stats)
        for chain, lists in zip(rows, next(kernel)):
            chain.append(ExtendedRow(*lists, coeffs.prec, upto + 1, kernel))
    return rows


def _dyadics(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(m, e) with v == m * 2**e exactly, m odd, or m = e = 0 where v == 0."""
    f, e = np.frexp(v)
    m = np.ldexp(f, 53).astype(np.int64)              # exact: |f| < 1
    t = np.maximum(np.frexp(m & -m)[1] - 1, 0)        # trailing zero bits
    return m >> t, np.where(m != 0, e - 53 + t, 0)


class _IntegerCoefficients:
    """Internal: a_0..a_{n-1} and b_0..b_{n-1} split once for the integer kernel.

    ``a`` and ``b`` hold ``n`` coefficients each.

    Step k of the recurrence at z = x + iy gives ``a_k v_{k+1} = (x - b_k
    + iy) v_k - a_{k-1} v_{k-1}`` (with ``a_{-1} = 1``).  Every coefficient
    and part of z is a float64, so an integer times ``2**e0`` for the least
    exponent e0 among the nonzero ones (:func:`_dyadics`).  The
    coefficients are split here once and kept as integers at their own
    least exponent; a point whose parts go lower shifts them to its e0.
    Only ``y``, ``x - b_k`` and that shift are made per point, and the last
    two chunk by chunk as the point's kernel runs (:func:`_point_kernel`).

    The kernel's values do not depend on e0 otherwise: lowering it by D
    scales X, Y and A, so every numerator, by ``2**D``, and lowers ``e0 -
    f`` by D, which leaves each step's exponent shift ``k = s - (e0 - f)``
    and its rounded quotient as they were (d is odd, so rounding a shifted
    numerator and dividing by a shifted d agree).  So one split of n
    coefficients serves every ``upto <= n`` steps, bitwise as a split of
    ``upto`` would.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, dps: int):
        from mpmath.libmp import dps_to_prec

        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise EvaluationOverflowError(
                "evaluation overflow: the point or a coefficient is not finite")
        n = self.n = len(b)
        self.prec = dps_to_prec(dps)
        m, e = _dyadics(np.concatenate([[1.0], a, b]))
        e0 = self._e0 = int(e[m != 0].min())          # <= 0: a_{-1} = 1
        ints = [v << k for v, k in zip(m.tolist(), (e - e0).tolist())]
        self._A, self._B = ints[:n], ints[n + 1:]
        self._d = m[1: n + 1].tolist()
        self._bits = [self.prec + _GUARD_BITS + v.bit_length() for v in self._d]
        self._de = [e0 - f for f in e[1: n + 1].tolist()]


def _point_kernel(coeffs: _IntegerCoefficients, z: complex, upto: int,
                  stats: EvalStats):
    """The integer kernel of p and q at z, as a generator run as far as asked.

    ``next`` yields the p and q lists ``(RE, IM, E)``, holding v_0, and
    each ``send(n)`` then runs both chains through index n, or ``upto``,
    appending v_k = (RE[k] + i IM[k]) * 2**E[k] for each new k; it returns
    after step ``upto``.  A chain's current and previous values share
    their exponent; a step computes ``a_k v_{k+1}`` exactly, divides it by
    ``a_k`` keeping ``width`` bits and rounds to nearest.  A send makes its
    steps' integers once for the two chains: X for ``x - b_k``, and A for
    ``a_{k-1}`` and ``e0 - f`` for ``a_k = d * 2**f`` shifted where the
    point's parts go below the coefficients' exponent; d and ``width +
    bits(d)``, where width is ``prec + _GUARD_BITS``, are the
    coefficients' own.  Each part has at most ``width + 2`` bits: a step
    divides a numerator of ``width + bits(d)`` bits by ``d`` or by ``d``
    shifted as far as the numerator falls short, so the rounded quotient
    is at most ``2**(width + 1)`` in size.  The kernel holds the lists,
    not the rows that read them, so a row and its kernel form no
    reference cycle.
    """
    m, e = (v.tolist() for v in _dyadics(np.array([z.real, z.imag])))
    e0 = min([coeffs._e0] + [k for v, k in zip(m, e) if v])
    x, Y = (v << (k - e0) for v, k in zip(m, e))
    shift = coeffs._e0 - e0
    # v_{-1} = 0 for p and -1 for q, so the first step gives p_1 and q_1
    states = [(1, 0, 0, 0, 0), (0, 0, -1, 0, 0)]
    lists = [([re], [im], [e]) for re, im, _, _, e in states]
    lo, hi = 0, (yield lists)
    while True:
        hi = min(hi, upto)
        B, As, des = coeffs._B[lo:hi], coeffs._A[lo:hi], coeffs._de[lo:hi]
        if shift:
            B, As = [v << shift for v in B], [v << shift for v in As]
            des = [v - shift for v in des]
        steps = [x - v for v in B], As, coeffs._d[lo:hi], coeffs._bits[lo:hi], des
        for c, (RE, IM, E) in enumerate(lists):
            re, im, rep, imp, e = states[c]
            for X, A, d, bits, de in zip(*steps):
                nre = X * re - Y * im - A * rep
                nim = X * im + Y * re - A * imp
                nb, t = nre.bit_length(), nim.bit_length()
                if t > nb:
                    nb = t
                if nb:
                    s = bits - nb                   # the quotient keeps `width` bits
                    if s >= 0:
                        nre, nim = nre << s, nim << s
                    else:
                        d <<= -s
                    h = d >> 1                      # round to nearest
                    nre, nim = (nre + h) // d, (nim + h) // d
                    k = s - de                      # the current value joins e - k
                    e -= k
                    if k >= 0:
                        rep, imp = re << k, im << k
                    else:
                        h = 1 << (-k - 1)
                        rep, imp = (re + h) >> -k, (im + h) >> -k
                else:                               # v_{n+1} = 0 at the same e
                    rep, imp = re, im
                re, im = nre, nim
                RE.append(re)
                IM.append(im)
                E.append(e)
            states[c] = re, im, rep, imp, e
        stats.extended_steps += 2 * (hi - lo)
        if hi == upto:
            return
        lo, hi = hi, (yield)


def _round_mpf(v: int, e: int, prec: int) -> tuple:
    """mpmath's raw mpf of ``from_man_exp(v, e, prec, round_nearest)``.

    v * 2**e rounded to nearest at ``prec`` bits, ties to even, with
    trailing zero bits stripped: mpmath's ``normalize``, inlined.
    """
    m = -v if v < 0 else v
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)                        # the kept bits and the half bit
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m != t << (n - 1)) else t >> 1
        e += n
    if not m:
        return (0, 0, 0, 0)                     # mpmath's zero
    t = (m & -m).bit_length() - 1               # trailing zero bits
    m >>= t
    return (1 if v < 0 else 0, m, e + t, m.bit_length())


def _squares(RE: List[int], IM: List[int], E: List[int]) -> List[float]:
    """Squared moduli of the kernel's values (RE[n] + i IM[n]) * 2**E[n]: each
    the exact ``RE^2 + IM^2`` times ``2**(2 E)`` rounded once (:func:`_scaled`)."""
    return [_scaled(re * re + im * im, 2 * e) for re, im, e in zip(RE, IM, E)]


def _scaled(s: int, k: int) -> float:
    """s * 2**k, for an int s >= 0, rounded once to a float; inf beyond its range.

    ``float(s)`` rounds once, and scaling it by 2**k is exact where the
    result is normal; elsewhere (a subnormal result, or s of 1000 bits or
    more) int division or conversion rounds once.
    """
    try:
        if s.bit_length() < 1000:
            x = math.ldexp(float(s), k)
            if x >= _NORMAL_EDGE or not s:
                return x
        return s / (1 << -k) if k < 0 else float(s << k)
    except OverflowError:
        return math.inf


class Evaluator:
    """Shared-level evaluation cache for one (source, policy, precision).

    Point tables reach index ``level + 8`` and are held in an LRU cache of
    ``capacity`` tables (256 in standard precision, 16 in extended, where
    one table is far larger).  ``precision`` is "standard" (complex128) or
    "extended" (mpmath numbers at ``EXTENDED_DPS`` digits).  ``stats``
    counts its batches, the tables it builds, its cache hits and its
    extended kernel steps (:class:`EvalStats`).
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
        self._split: Optional[_IntegerCoefficients] = None
        self.stats = EvalStats()

    def rows(self, zs, upto: int, chains: str = "pq"):
        """The rows through index upto at each point: the one batch reader.

        The one place that chooses between the complex128 batch kernel
        (:func:`recurrence_batch`, called by its module name) and the
        per-point integer kernel (:func:`_mp_block`).  ``R[c][j]`` is chain
        ``chains[c]`` at ``zs[j]``: a row of the complex128 block of shape
        (len(chains), len(zs), upto+1), or an :class:`ExtendedRow` picked out
        of the point's p and q rows, which the integer kernel runs together.
        """
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        self.stats.batches += 1
        self.stats.batch_points += zs.size
        if self.precision == "standard":
            a, b = self.source.arrays(max(upto, 1))
            return recurrence_batch(a, b, zs, upto, chains)
        if chains not in _CHAINS:
            raise ValueError("chains must be 'pq', 'p' or 'q'")
        pair = _mp_block(self._coefficients(upto), zs, upto, self.stats)
        return [pair["pq".index(c)] for c in chains]

    def _coefficients(self, upto: int) -> _IntegerCoefficients:
        """The integer kernel's coefficients for at least ``upto`` steps.

        One split serves every shorter run (:class:`_IntegerCoefficients`),
        so it is made once, for the tables' ``top`` steps, and again only
        where a longer run is asked for.
        """
        if self._split is None or self._split.n < upto:
            n = max(upto, self.top)
            a, b = self.source.arrays(n)
            self._split = _IntegerCoefficients(a[:n], b[:n], EXTENDED_DPS)
        return self._split

    # -- point tables ------------------------------------------------------

    def table(self, z) -> PointTable:
        z = complex(z)
        tab = self._cache.get(z)
        if tab is None:
            return self.tables([z])[0]
        self._cache.move_to_end(z)
        self.stats.table_hits += 1
        return tab

    def tables(self, zs) -> List[PointTable]:
        """Point tables for every point of the sequence ``zs``, in order.

        Each point is looked up once; the misses are computed in one
        recurrence call and enter the cache, and then every point of the
        batch becomes most recent, in the order of its last occurrence.
        A new table holds its rows only (see :class:`PointTable`).

        Raises EvaluationOverflowError if a standard value of a new table
        is too large (:func:`recurrence_batch`) or a point is not finite.
        """
        keys = [complex(z) for z in zs]
        cache = self._cache
        out = [cache.get(z) for z in keys]              # one lookup per hit
        built = 0
        if None in out:
            misses = list(dict.fromkeys(z for z, tab in zip(keys, out) if tab is None))
            R = self.rows(misses, self.top)
            for j, z in enumerate(misses):
                cache[z] = PointTable(z, _own(R[0][j]), _own(R[1][j]), self.policy)
            out, built = [cache[z] for z in keys], len(misses)
        self.stats.tables_built += built
        self.stats.table_hits += len(keys) - built
        for z in keys:
            cache.move_to_end(z)
        while len(cache) > self.capacity:
            cache.popitem(last=False)
        return out

    def norms_p2(self, zs) -> np.ndarray:
        """:attr:`PointTable.norm_p2` at each point, bitwise, whatever the batch.

        The p rows through the level are one batch read (:meth:`rows`);
        no table is built.  Raises EvaluationOverflowError as the norm does.
        """
        (rows,) = self.rows(zs, self.level, "p")
        return _level_sums(rows, self.level)

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
            self.stats.table_hits += 1
            return tab.p[: upto + 1], tab.q[: upto + 1]
        R = self.rows([z], upto)
        return R[0][0][:], R[1][0][:]           # an extended row's slice is an array


def _own(row):
    """A read-only copy of an array row; an :class:`ExtendedRow` is one already."""
    if isinstance(row, ExtendedRow):
        return row
    row = row.copy()
    row.flags.writeable = False
    return row


_EVALUATORS: "OrderedDict[tuple, Evaluator]" = OrderedDict()


def evaluator_for(source: JacobiCoefficients, policy: TruncationPolicy,
                  precision: str = "standard") -> Evaluator:
    """Memoized Evaluator per (source, policy, precision), LRU-bounded."""
    key = (source, policy, precision)
    ev = _EVALUATORS.get(key)
    if ev is None:
        ev = _EVALUATORS[key] = Evaluator(source, policy, precision)
        while len(_EVALUATORS) > _MAX_EVALUATORS:
            _EVALUATORS.popitem(last=False)
    else:
        _EVALUATORS.move_to_end(key)
    return ev


def clear_evaluator_cache() -> None:
    _EVALUATORS.clear()


def eval_pq(source: JacobiCoefficients, z, policy: TruncationPolicy,
            precision: str = "standard") -> PolyEval:
    """Evaluate p/q at z, truncating at the policy's adaptive stop index."""
    ev = evaluator_for(source, policy, precision)
    tab = ev.table(z)
    N, converged, tail_est, cum_p2, cum_q2 = tab._stop_rule()
    return PolyEval(z=complex(z), p=tab.p[: N + 1].copy(), q=tab.q[: N + 1].copy(),
                    cum_p2=cum_p2, cum_q2=cum_q2, N=N, tail_est=tail_est,
                    converged=converged)
