"""Finitely supported vectors and the banded action of the Jacobi matrix."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coefficients import JacobiCoefficients


@dataclass(frozen=True)
class SeqVector:
    """Complex sequence c_0..c_M with an implied zero tail."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("SeqVector needs a nonempty 1-d entry list")
        object.__setattr__(self, "entries", arr)

    @property
    def M(self) -> int:
        return self.entries.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    @classmethod
    def basis(cls, n: int) -> "SeqVector":
        """Standard basis vector e_n."""
        e = np.zeros(n + 1, dtype=complex)
        e[n] = 1.0
        return cls(e)

    @classmethod
    def from_entries(cls, entries: Sequence[complex]) -> "SeqVector":
        return cls(np.asarray(list(entries), dtype=complex))

    def padded(self, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=complex)
        out[: self.entries.size] = self.entries
        return out

    def __add__(self, other: "SeqVector") -> "SeqVector":
        size = max(self.entries.size, other.entries.size)
        return SeqVector(self.padded(size) + other.padded(size))

    def __rmul__(self, scalar) -> "SeqVector":
        return SeqVector(complex(scalar) * self.entries)


def apply_jacobi(source: JacobiCoefficients, c: SeqVector) -> SeqVector:
    """Banded product (Jc)_n = a_{n-1} c_{n-1} + b_n c_n + a_n c_{n+1}.

    Exact for the band; the output has indices 0..M+1.
    """
    M = c.M
    a, b = source.arrays(M)
    v = c.entries
    out = np.zeros(M + 2, dtype=complex)
    out[: M + 1] += b[: M + 1] * v
    out[1:] += a[: M + 1] * v          # a_n c_n contributes at n+1
    out[: M] += a[: M] * v[1:]         # a_n c_{n+1} contributes at n
    return SeqVector(out)


def moment(source: JacobiCoefficients, n: int) -> float:
    """Moment s_n = <J^n e_0, e_0> by n banded applications to e_0.

    s_0 = 1 by normalization; only coefficients with index < n enter.
    """
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    v = SeqVector.basis(0)
    for _ in range(n):
        v = apply_jacobi(source, v)
    return float(v.entries[0].real)
