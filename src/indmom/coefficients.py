"""Sources of Jacobi recurrence coefficients (a_n > 0, b_n real).

A :class:`JacobiCoefficients` answers ``coeffs(n) -> (a_n, b_n)`` for the
tridiagonal matrix with diagonal ``b_n`` and off-diagonal ``a_n``.  Three
kinds exist: the power-law preset ``a_n = (n+1)**c, b_n = 0``, explicit
user-supplied pairs (with an optional tail rule for indices beyond the
list), and pairs parsed from a plain-text file.  Sources are immutable and
deterministic: the same index always returns the same values.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import CoefficientFileError, CoefficientRangeError

Pair = Tuple[float, float]


class JacobiCoefficients:
    """Immutable source of three-term recurrence coefficients."""

    def __init__(self, kind: str, description: str, *,
                 exponent: Optional[float] = None,
                 pairs: Optional[Sequence[Pair]] = None,
                 tail: Optional[Callable[[int], Pair]] = None,
                 shift: int = 0):
        self.kind = kind
        self.description = description
        self._exponent = exponent
        self._pairs = tuple(tuple(p) for p in pairs) if pairs is not None else None
        self._tail = tail
        self._shift = shift
        self._a = self._b = np.empty(0)
        # computed once: evaluator lookups hash the source on every call
        self._key = (kind, exponent, self._pairs,
                     id(tail) if tail is not None else None, shift)
        self._hash = hash(self._key)
        if kind == "power_law":
            if exponent is None or not exponent > 1:
                raise ValueError("power-law exponent must be a real > 1")
        elif kind == "explicit":
            if not self._pairs:
                raise ValueError("explicit source needs at least one (a, b) pair")
            for i, (a, b) in enumerate(self._pairs):
                _check_pair(a, b, where=f"pair {i}")
        else:
            raise ValueError(f"unknown coefficient kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def power_law(cls, exponent: float = 2.0) -> "JacobiCoefficients":
        """Preset ``a_n = (n+1)**exponent, b_n = 0`` (indeterminate for exponent > 1)."""
        return cls("power_law", f"power_law(c={exponent:g})", exponent=float(exponent))

    @classmethod
    def explicit(cls, pairs: Sequence[Pair],
                 tail: Optional[Callable[[int], Pair]] = None,
                 description: str = "explicit") -> "JacobiCoefficients":
        """Explicit list of (a_n, b_n); ``tail(n)`` extends past the list if given."""
        return cls("explicit", description, pairs=pairs, tail=tail)

    @classmethod
    def from_file(cls, path) -> "JacobiCoefficients":
        """Parse a coefficient file: one ``a_n b_n`` line per index, ``#`` comments."""
        pairs = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise CoefficientFileError(
                        f"{path}:{lineno}: expected two fields 'a_n b_n', got {len(fields)}")
                try:
                    a, b = float(fields[0]), float(fields[1])
                except ValueError as exc:
                    raise CoefficientFileError(f"{path}:{lineno}: {exc}") from None
                try:
                    _check_pair(a, b, where=f"{path}:{lineno}")
                except ValueError as exc:
                    raise CoefficientFileError(str(exc)) from None
                pairs.append((a, b))
        if not pairs:
            raise CoefficientFileError(f"{path}: no coefficient lines found")
        return cls("explicit", f"file({path})", pairs=pairs)

    # -- queries -----------------------------------------------------------

    def coeffs(self, n: int) -> Pair:
        """Return ``(a_n, b_n)``; raises if n is beyond the declared range."""
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        m = n + self._shift
        if self.kind == "power_law":
            return float(m + 1) ** self._exponent, 0.0
        if m < len(self._pairs):
            return self._pairs[m]
        if self._tail is not None:
            a, b = self._tail(m)
            _check_pair(a, b, where=f"tail({m})")
            return float(a), float(b)
        raise CoefficientRangeError(
            f"coefficient range exhausted: index {n} beyond explicit data "
            f"({len(self._pairs) - self._shift} entries, no tail rule)")

    def max_index(self) -> Optional[int]:
        """Highest valid index, or None when the source is unbounded."""
        if self.kind == "power_law" or self._tail is not None:
            return None
        return len(self._pairs) - 1 - self._shift

    def arrays(self, upto: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (a_0..a_upto, b_0..b_upto), built once and extended on demand."""
        mx = self.max_index()
        if mx is not None and upto > mx:
            raise CoefficientRangeError(
                f"coefficient range exhausted: need index {upto}, have {mx}")
        if upto >= len(self._a):
            # coeffs(n) values, not np.power: the two differ in the last bit
            new = np.array([self.coeffs(n) for n in range(len(self._a), upto + 1)],
                           dtype=float)
            self._a = np.concatenate([self._a, new[:, 0]])
            self._b = np.concatenate([self._b, new[:, 1]])
            self._a.flags.writeable = self._b.flags.writeable = False
        return self._a[: upto + 1], self._b[: upto + 1]

    def truncate_once(self) -> "JacobiCoefficients":
        """Source of the once-stripped matrix: a~_n = a_{n+1}, b~_n = b_{n+1}."""
        if self.kind == "power_law":
            return JacobiCoefficients(
                "power_law", self.description + "^(1)",
                exponent=self._exponent, shift=self._shift + 1)
        if self._tail is None and len(self._pairs) - self._shift <= 1:
            raise CoefficientRangeError("cannot truncate: no coefficients would remain")
        return JacobiCoefficients(
            "explicit", self.description + "^(1)",
            pairs=self._pairs, tail=self._tail, shift=self._shift + 1)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, JacobiCoefficients) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"JacobiCoefficients({self.description})"


def _check_pair(a: float, b: float, where: str) -> None:
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"{where}: a_n must be finite and > 0, got {a!r}")
    if not math.isfinite(b):
        raise ValueError(f"{where}: b_n must be finite, got {b!r}")
