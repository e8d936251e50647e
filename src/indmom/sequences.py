"""Finitely supported vectors and the banded action of the Jacobi matrix.

:func:`jacobi_product` is the one banded product of the package, on
arrays: :func:`apply_jacobi`, the domain tests' residues and the
resolvent residual all call it.  :func:`vector_norm` is the 2-norm that
:meth:`SeqVector.norm`, the residues and the resolvent residual report.
"""

from __future__ import annotations

import math
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
        """The 2-norm, bitwise ``np.linalg.norm`` of the entries (:func:`vector_norm`)."""
        return vector_norm(self.entries)

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


def vector_norm(x: np.ndarray) -> float:
    """||x||_2 of a 1-d complex128 array, bitwise ``np.linalg.norm(x)``.

    The same two ``dot`` calls on the real and imaginary views, summed and
    square-rooted (both roots are correctly rounded), without its dispatch.
    """
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def jacobi_product(source: JacobiCoefficients, v: np.ndarray) -> np.ndarray:
    """(J v)_n = a_{n-1} v_{n-1} + b_n v_n + a_n v_{n+1} for v = v_0..v_M.

    Exact for the band; the result is a new complex128 array with indices
    0..M+1.  It is zeroed, then ``b_n v_n``, ``a_n v_n`` shifted up by one
    and ``a_n v_{n+1}`` are added in that order, each product through one
    scratch array.
    """
    M = v.size - 1
    a, b = source.arrays(M)                        # M + 1 of each
    out = np.zeros(M + 2, dtype=complex)
    at = out[:-1]
    t = np.multiply(b, v)
    np.add(at, t, at)
    at = out[1:]                                   # a_n v_n lands at n + 1
    np.add(at, np.multiply(a, v, t), at)
    at, t = out[:-2], t[:-1]                       # a_n v_{n+1} lands at n
    np.add(at, np.multiply(a[:-1], v[1:], t), at)
    return out


def apply_jacobi(source: JacobiCoefficients, c: SeqVector) -> SeqVector:
    """Banded product Jc (:func:`jacobi_product`); indices 0..M+1."""
    return SeqVector(jacobi_product(source, c.entries))


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
