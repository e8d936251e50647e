"""Function-space side: F/G evaluation, reproducing kernel, and the
difference-quotient operator.

For a finitely supported coefficient vector c the entire functions
``F_c(z) = sum c_n p_n(z)`` and ``G_c(z) = sum c_n q_n(z)`` are exact
finite sums.  The lower-triangular coefficients

    a_{n,k}(z0) = q_n(z0) p_k(z0) - p_n(z0) q_k(z0),   k < n,

expand the polynomial difference quotients, and the operator
``xi(c, z0)_k = sum_{n>k} c_n a_{n,k}(z0)`` realizes the difference
quotient on the function space: (F_c(z) - F_c(z0))/(z - z0) equals
F_{xi(c,z0)}(z), and (J - z0) xi(c, z0) + F_c(z0) e_0 = c identically.
Both facts are exact for finite c and serve as the module's self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .coefficients import JacobiCoefficients
from .errors import NonConvergenceError
from .evaluation import TruncationPolicy, evaluator_for
from .sequences import SeqVector, jacobi_product, vector_norm

__all__ = [
    "CoeffMatrix", "BoundCheck", "F_eval", "G_eval", "kernel",
    "coeff_matrix", "xi_apply", "resolvent_residual",
    "diff_quotient_residual", "bound_suite",
]


@dataclass(frozen=True)
class CoeffMatrix:
    """Lower-triangular difference-quotient coefficients at a basepoint."""

    z0: complex
    N: int
    a: np.ndarray
    probe_residual: float


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    ok: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def F_eval(source: JacobiCoefficients, c: SeqVector, z,
           policy: TruncationPolicy) -> complex:
    """F_c(z) = sum c_n p_n(z); exact finite sum."""
    ev = evaluator_for(source, policy)
    p, _ = ev.pq_upto(complex(z), c.M)
    return complex(np.sum(c.entries * p[: c.M + 1]))


def G_eval(source: JacobiCoefficients, c: SeqVector, z,
           policy: TruncationPolicy) -> complex:
    """G_c(z) = sum c_n q_n(z); exact finite sum."""
    ev = evaluator_for(source, policy)
    _, q = ev.pq_upto(complex(z), c.M)
    return complex(np.sum(c.entries * q[: c.M + 1]))


def kernel(source: JacobiCoefficients, u, v, policy: TruncationPolicy) -> complex:
    """Reproducing kernel K(u,v) = sum_{k<=L} p_k(u) p_k(v)."""
    ev = evaluator_for(source, policy)
    tu, tv = ev.table(complex(u)), ev.table(complex(v))
    if not (tu.converged and tv.converged):
        raise NonConvergenceError("kernel series did not converge within n_max")
    L = ev.level
    return complex(np.dot(tu.p[: L + 1], tv.p[: L + 1]))


def _ank_matrix(p: np.ndarray, q: np.ndarray, N: int) -> np.ndarray:
    """Dense lower-triangular a_{n,k} for 0 <= k < n <= N."""
    a = np.outer(q[: N + 1], p[: N + 1]) - np.outer(p[: N + 1], q[: N + 1])
    return np.tril(a, k=-1)


def coeff_matrix(source: JacobiCoefficients, z0, N: int,
                 policy: TruncationPolicy) -> CoeffMatrix:
    """Difference-quotient coefficients a_{n,k}(z0) for n <= N.

    Validates the Cauchy-Schwarz entry bound and the expansion
    (p_n(z) - p_n(z0))/(z - z0) = sum_{k<n} a_{n,k} p_k(z) at a probe
    point; raises on violation.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    z0 = complex(z0)
    ev = evaluator_for(source, policy)
    p, q = ev.pq_upto(z0, N)
    a = _ank_matrix(p, q, N)

    weights = np.abs(p[: N + 1]) ** 2 + np.abs(q[: N + 1]) ** 2
    bound = np.sqrt(np.outer(weights, weights))
    mask = np.tril(np.ones((N + 1, N + 1), dtype=bool), k=-1)
    if np.any(np.abs(a)[mask] > bound[mask] * (1 + 1e-12) + 1e-300):
        raise AssertionError("entry bound violated in coeff_matrix")

    z = z0 + (0.61 - 0.43j) * (1.0 + abs(z0)) * 0.5
    pz, _ = ev.pq_upto(z, N)
    lhs = (pz[: N + 1] - p[: N + 1]) / (z - z0)
    rhs = a[:, : N + 1] @ pz[: N + 1]
    resid = float(np.max(np.abs(lhs[1:] - rhs[1:])))
    if resid > 1e-9:
        raise AssertionError(f"expansion check failed: residual {resid:.3e}")
    return CoeffMatrix(z0=z0, N=N, a=a, probe_residual=resid)


def xi_apply(source: JacobiCoefficients, c: SeqVector, z0,
             policy: TruncationPolicy) -> SeqVector:
    """Difference-quotient operator: xi_k = sum_{n>k} c_n a_{n,k}(z0).

    Exact finite computation; the output has indices 0..M-1 (a single
    zero entry when c is supported on index 0 alone).  Computed as
    xi_k = p_k sum_{n>k} c_n q_n - q_k sum_{n>k} c_n p_n from two
    sequential tail sums, in O(M) and in a fixed order.
    """
    z0 = complex(z0)
    if c.M == 0:
        return SeqVector(np.zeros(1, dtype=complex))
    p, q = evaluator_for(source, policy).pq_upto(z0, c.M)
    return SeqVector(_xi(c.entries, p, q, c.entries * p))


def _xi(x: np.ndarray, p: np.ndarray, q: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """:func:`xi_apply`'s entries for x = c_0..c_M, M >= 1, given ``xp = x * p``.

    ``xp`` is overwritten.  Each tail sum runs in place, from index M
    down, over the products ``c_n q_n`` or ``c_n p_n``, and each product
    with p_k or q_k is written over its tail sum.
    """
    M = x.size - 1
    xq = x * q
    # tail[k] = sum_{n=k+1}^{M}, for k = 0..M-1, summed from n = M down
    np.add.accumulate(xq[:0:-1], out=xq[:0:-1])
    np.add.accumulate(xp[:0:-1], out=xp[:0:-1])
    tail_q, tail_p = xq[1:], xp[1:]
    np.multiply(p[:M], tail_q, out=tail_q)
    np.multiply(q[:M], tail_p, out=tail_p)
    return np.subtract(tail_q, tail_p, out=tail_q)


def resolvent_residual(source: JacobiCoefficients, c: SeqVector, z0,
                       policy: TruncationPolicy) -> float:
    """Residual of (J - z0) xi(c, z0) + F_c(z0) e_0 = c, scaled by max(1, ||c||).

    One read of p and q at z0 serves both xi (:func:`xi_apply`'s
    arithmetic) and F_c(z0) (:func:`F_eval`'s).  The left side minus c is
    formed in one array: J xi (:func:`indmom.sequences.jacobi_product`),
    then minus z0 xi, plus F_c(z0) at index 0, minus c; its 2-norm is
    :func:`indmom.sequences.vector_norm`'s.
    """
    z0 = complex(z0)
    x, M = c.entries, c.M
    p, q = evaluator_for(source, policy).pq_upto(z0, M)
    xp = x * p
    F = complex(np.add.reduce(xp))                # np.sum's reduction
    xi = _xi(x, p, q, xp) if M else np.zeros(1, dtype=complex)
    acc = jacobi_product(source, xi)               # indices 0..M, or 0..1 at M = 0
    head = acc[: xi.size]
    np.subtract(head, z0 * xi, out=head)
    acc[0] += F
    head = acc[: M + 1]
    np.subtract(head, x, out=head)
    return vector_norm(acc) / max(1.0, vector_norm(x))


def diff_quotient_residual(source: JacobiCoefficients, c: SeqVector, z0, z,
                           policy: TruncationPolicy) -> float:
    """|(F_c(z) - F_c(z0))/(z - z0) - F_{xi(c,z0)}(z)|.

    At z = z0 the left side is replaced by a centered finite difference
    for F_c'(z0) with step 1e-5 (1 + |z0|).
    """
    z0, z = complex(z0), complex(z)
    xi = xi_apply(source, c, z0, policy)
    rhs = F_eval(source, xi, z, policy)
    if abs(z - z0) <= 1e-12 * (1.0 + abs(z0)):
        h = 1e-5 * (1.0 + abs(z0))
        lhs = (F_eval(source, c, z0 + h, policy)
               - F_eval(source, c, z0 - h, policy)) / (2 * h)
    else:
        lhs = (F_eval(source, c, z, policy) - F_eval(source, c, z0, policy)) / (z - z0)
    return float(abs(lhs - rhs))


def bound_suite(source: JacobiCoefficients, z0, policy: TruncationPolicy,
                seed: int = 0, n_vectors: int = 100) -> List[BoundCheck]:
    """Evaluate the coefficient and norm inequalities at sampled data.

    Checks, with truncated norms at the shared level:
      * entry bound |a_{n,k}|^2 <= (|p_n|^2+|q_n|^2)(|p_k|^2+|q_k|^2);
      * row bound sum_{n>k} |a_{n,k}|^2 <= (P+Q)(|p_k|^2+|q_k|^2)
        where P, Q are the squared norms at z0;
      * difference-quotient sum bound with constant (P+Q)^2;
      * operator norm bound ||xi(c, z0)|| <= ||c|| (P+Q) on random unit c.
    """
    z0 = complex(z0)
    ev = evaluator_for(source, policy)
    L = ev.level
    tab = ev.table(z0)
    P2, Q2 = tab.norm_p2, tab.norm_q2
    PQ = P2 + Q2
    growth = 1.0 + 1e-10
    checks: List[BoundCheck] = []

    a = _ank_matrix(tab.p[: L + 1], tab.q[: L + 1], L)
    weights = np.abs(tab.p[: L + 1]) ** 2 + np.abs(tab.q[: L + 1]) ** 2
    mask = np.tril(np.ones((L + 1, L + 1), dtype=bool), k=-1)
    ratios = np.abs(a) ** 2 / np.maximum(np.outer(weights, weights), 1e-300)
    lhs_entry = float(np.max(ratios[mask]))
    checks.append(BoundCheck("entry_bound_max_ratio", lhs_entry, 1.0,
                             lhs_entry <= growth))

    row_sums = np.sum(np.abs(a) ** 2, axis=0)      # sum over n > k for column k
    rhs_rows = PQ * weights
    worst = int(np.argmax(row_sums - rhs_rows))
    checks.append(BoundCheck(f"row_bound_k={worst}", float(row_sums[worst]),
                             float(rhs_rows[worst]),
                             bool(np.all(row_sums <= rhs_rows * growth))))

    rng = np.random.default_rng(seed)
    for dz in (0.1, 0.7 + 0.3j, -1.1 + 0.9j):
        z = z0 + dz
        tz = ev.table(z)
        dq = (tz.p[: L + 1] - tab.p[: L + 1]) / (z - z0)
        lhs = float(np.sum(np.abs(dq) ** 2))
        rhs = float(tz.norm_p2 * PQ ** 2)
        checks.append(BoundCheck(f"diff_quotient_bound_z={z:.3g}", lhs, rhs,
                                 lhs <= rhs * growth))

    worst_ratio = 0.0
    for _ in range(n_vectors):
        m = int(rng.integers(1, 40))  # unit vectors of 2 to 40 entries
        c = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        c = c / np.linalg.norm(c)
        xi = xi_apply(source, SeqVector(c), z0, policy)
        worst_ratio = max(worst_ratio, xi.norm() / PQ)
    checks.append(BoundCheck(f"xi_norm_bound_{n_vectors}_vectors",
                             worst_ratio, 1.0, worst_ratio <= growth))
    return checks
