"""Sources of Jacobi recurrence coefficients (a_n > 0, b_n real).

A :class:`JacobiCoefficients` answers ``coeffs(n) -> (a_n, b_n)`` for the
tridiagonal matrix with diagonal ``b_n`` and off-diagonal ``a_n``.  The
power-law preset ``a_n = (n+1)**c, b_n = 0`` is unbounded and grows its
arrays on demand; an explicit source (a list of pairs, or a plain-text
file) is two read-only float64 arrays, validated once when it is built.
Sources are immutable and deterministic: the same index always returns
the same values.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import CoefficientFileError, CoefficientRangeError

Pair = Tuple[float, float]


class JacobiCoefficients:
    """Immutable source of three-term recurrence coefficients.

    ``exponent`` set means the power law at index offset ``shift``, whose
    arrays start empty; otherwise ``a`` and ``b`` are the whole source.
    """

    def __init__(self, description: str, a: np.ndarray, b: np.ndarray, *,
                 exponent: Optional[float] = None, shift: int = 0):
        self.description = description
        self._a, self._b = a, b
        self._exponent, self._shift = exponent, shift
        self._truncated: Optional[JacobiCoefficients] = None
        # hashed once: evaluator lookups hash the source on every call
        self._key = (exponent, shift, a.tobytes(), b.tobytes())
        self._hash = hash(self._key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def power_law(cls, exponent: float = 2.0) -> "JacobiCoefficients":
        """Preset ``a_n = (n+1)**exponent, b_n = 0`` (indeterminate for exponent > 1).

        The exponent must be a finite real > 1 (ValueError otherwise).  The
        description and the range error name it as :func:`_spelled` writes it.
        """
        exponent = float(exponent)
        if not 1 < exponent < math.inf:
            raise ValueError("power-law exponent must be a finite real > 1")
        return cls(f"power_law(c={_spelled(exponent)})", *_read_only(np.empty((0, 2))),
                   exponent=exponent)

    @classmethod
    def explicit(cls, pairs: Sequence[Pair],
                 description: str = "explicit") -> "JacobiCoefficients":
        """Explicit list of (a_n, b_n); indices past the list are out of range."""
        ab = np.array(pairs, dtype=float)
        if ab.ndim != 2 or ab.shape[1] != 2 or not len(ab):
            raise ValueError("explicit source needs at least one (a, b) pair")
        return cls(description, *_read_only(ab, lambda i: f"pair {i}"))

    @classmethod
    def from_file(cls, path) -> "JacobiCoefficients":
        """Parse a coefficient file: one ``a_n b_n`` line per index, ``#`` comments."""
        rows, linenos = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                fields = raw.split("#", 1)[0].split()
                if not fields:
                    continue
                if len(fields) != 2:
                    raise CoefficientFileError(
                        f"{path}:{lineno}: expected two fields 'a_n b_n', got {len(fields)}")
                try:
                    rows.append((float(fields[0]), float(fields[1])))
                except ValueError as exc:
                    raise CoefficientFileError(f"{path}:{lineno}: {exc}") from None
                linenos.append(lineno)
        if not rows:
            raise CoefficientFileError(f"{path}: no coefficient lines found")
        try:
            arrays = _read_only(np.array(rows), lambda i: f"{path}:{linenos[i]}")
        except ValueError as exc:
            raise CoefficientFileError(str(exc)) from None
        return cls(f"file({path})", *arrays)

    # -- queries -----------------------------------------------------------

    def coeffs(self, n: int) -> Pair:
        """Return ``(a_n, b_n)``; raises if n is beyond the declared range.

        A power-law a_n past the float range raises CoefficientRangeError.
        """
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if self._exponent is not None:
            try:
                return float(n + self._shift + 1) ** self._exponent, 0.0
            except OverflowError:
                raise CoefficientRangeError(
                    f"power-law coefficient a_{n} = {n + self._shift + 1}^"
                    f"{_spelled(self._exponent)} exceeds the float range") from None
        a, b = self.arrays(n)
        return float(a[n]), float(b[n])

    def max_index(self) -> Optional[int]:
        """Highest valid index, or None when the source is unbounded."""
        return None if self._exponent is not None else len(self._a) - 1

    def arrays(self, upto: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (a_0..a_upto, b_0..b_upto)."""
        if upto >= len(self._a):
            if self._exponent is None:
                raise CoefficientRangeError(
                    f"coefficient range exhausted: need index {upto}, "
                    f"have {len(self._a) - 1}")
            # coeffs(n) values, not np.power: the two differ in the last bit
            new = [self.coeffs(n) for n in range(len(self._a), upto + 1)]
            self._a, self._b = _read_only(np.concatenate(
                [np.column_stack([self._a, self._b]), new]))
        return self._a[: upto + 1], self._b[: upto + 1]

    def truncate_once(self) -> "JacobiCoefficients":
        """Source of the once-stripped matrix: a~_n = a_{n+1}, b~_n = b_{n+1}.

        Built once; an explicit source hands over views of its arrays.
        """
        if self._truncated is None:
            if self.max_index() == 0:
                raise CoefficientRangeError("cannot truncate: no coefficients would remain")
            # the power law's arrays start empty again at the next offset
            first = 1 if self._exponent is None else len(self._a)
            self._truncated = JacobiCoefficients(
                self.description + "^(1)", self._a[first:], self._b[first:],
                exponent=self._exponent, shift=self._shift + 1)
        return self._truncated

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, JacobiCoefficients) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"JacobiCoefficients({self.description})"


def _spelled(x: float) -> str:
    """``x`` in ``:g`` form where that reads back as ``x`` exactly, else ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _read_only(ab: np.ndarray, where: Optional[Callable[[int], str]] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only a and b columns of an (n, 2) array.  ``where`` names row i
    in the error when some a_n is not finite and > 0 or some b_n not finite."""
    a, b = np.ascontiguousarray(ab[:, 0]), np.ascontiguousarray(ab[:, 1])
    bad = np.flatnonzero(~(np.isfinite(ab).all(axis=1) & (a > 0)))
    if where is not None and bad.size:
        raise ValueError(f"{where(bad[0])}: a_n must be finite and > 0 and b_n "
                         f"finite, got {ab[bad[0]].tolist()}")
    a.flags.writeable = b.flags.writeable = False
    return a, b
