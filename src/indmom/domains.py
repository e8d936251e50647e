"""Numerical membership tests for the Jacobi operator domain and its extensions.

A vector of the adjoint domain splits uniquely into a closure-domain part
plus components along the two deficiency directions at a basepoint z0 in
the open upper half-plane.  The deficiency coefficients ("residues" here)
are computed from banded inner products:

    alpha = <(J - conj(z0)) v, p_{z0}> / (2i Im(z0) ||p_{z0}||^2)
    beta  = <(J - z0) v, p_{conj(z0)}> / (-2i Im(z0) ||p_{z0}||^2)

with sums truncated at the shared evaluation level L.  Genuinely finite
vectors (top index below L) get complete sums, which telescope to exactly
zero: the finitely supported space sits inside the domain.  Truncations of
the square-summable eigen-sequences p/q are built with top index L + 8 so
the recurrence boundary terms fall outside the truncated sums and the
computed coefficients match the two-variable Nevanlinna formulas.
Membership is decided by residues being below tolerance at two distinct
basepoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .coefficients import JacobiCoefficients
from .errors import BasepointError, InconclusiveMembershipError
from .evaluation import Evaluator, TruncationPolicy, evaluator_for
from .measures import (DiscreteMeasure, ExtensionParam, _require_off_support,
                       mobius)
from .nevanlinna import nev, nev_one
from .sequences import SeqVector, apply_jacobi

__all__ = [
    "Residues", "MembershipVerdict", "ResolventCombination",
    "DEFAULT_MEMBERSHIP_TOL", "second_basepoint", "p_vector", "q_vector",
    "extension_generator", "residues", "s_r_coefficients", "membership_DT",
    "pair_coefficient", "membership_DTt", "resolvent_combination",
]

DEFAULT_MEMBERSHIP_TOL = 1e-7


@dataclass(frozen=True)
class Residues:
    """Deficiency-space coefficients of a vector at basepoint z0."""

    z0: complex
    alpha: complex
    beta: complex
    norm_input: float
    N: int

    def scaled(self) -> float:
        return max(abs(self.alpha), abs(self.beta)) / max(1.0, self.norm_input)


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a numerical domain-membership test."""

    in_domain: bool
    residual: float
    tol: float
    domain_tag: str


@dataclass(frozen=True)
class ResolventCombination:
    """Diagnostics for w p_lambda + q_lambda relative to one extension."""

    w: complex
    verdict: MembershipVerdict
    c_coeff: complex
    not_in_closure: MembershipVerdict
    decomposition: MembershipVerdict


def second_basepoint(z0: complex) -> complex:
    """Deterministic partner basepoint for the two-basepoint agreement test."""
    default = 1.0 + 2.0j
    return default if complex(z0) != default else 1.0j


def _require_upper(z0: complex) -> complex:
    z0 = complex(z0)
    if not z0.imag > 0:
        raise BasepointError(f"basepoint {z0} must lie in the open upper half-plane")
    return z0


def p_vector(source: JacobiCoefficients, lam, policy: TruncationPolicy) -> SeqVector:
    """Truncation of the sequence (p_n(lam)) with top index L + 8."""
    return SeqVector(np.array(evaluator_for(source, policy).table(lam).p,
                              dtype=complex))


def q_vector(source: JacobiCoefficients, lam, policy: TruncationPolicy) -> SeqVector:
    """Truncation of the sequence (q_n(lam)) with top index L + 8."""
    return SeqVector(np.array(evaluator_for(source, policy).table(lam).q,
                              dtype=complex))


def extension_generator(source: JacobiCoefficients, t: ExtensionParam,
                        policy: TruncationPolicy) -> SeqVector:
    """Generator of D(T_t) over the closure domain: q_0 + t p_0, or p_0 at infinity."""
    tab = evaluator_for(source, policy).table(0.0)
    return SeqVector(np.array(t.combine(tab.q, tab.p), dtype=complex))


def residues(source: JacobiCoefficients, v: SeqVector, z0,
             policy: TruncationPolicy) -> Residues:
    """Deficiency coefficients of v at basepoint z0 (Im z0 > 0)."""
    z0 = _require_upper(z0)
    return _residues(evaluator_for(source, policy), _applied(source, v), z0)


def _applied(source: JacobiCoefficients,
             v: SeqVector) -> Tuple[np.ndarray, np.ndarray, float]:
    """(J v, v zero-padded to the length of J v, ||v||): what residues read of v."""
    jv = apply_jacobi(source, v).entries          # indices 0..M+1
    return jv, v.padded(jv.size), v.norm()


def _residues(ev: Evaluator, applied: Tuple[np.ndarray, np.ndarray, float],
              z0: complex) -> Residues:
    """:func:`residues` of a vector given as :func:`_applied`, z0 checked."""
    jv, vv, norm_input = applied
    L = ev.level
    tab = ev.table(z0)
    cut = min(jv.size, L + 1)
    jv, vv, p = jv[:cut], vv[:cut], tab.p[:cut]

    denom = 2j * z0.imag * tab.norm_p2
    w_plus = jv - np.conj(z0) * vv
    alpha = np.sum(w_plus * np.conj(p)) / denom    # p_n(conj z0) = conj p_n(z0)
    w_minus = jv - z0 * vv
    beta = np.sum(w_minus * p) / (-denom)
    # + 0j turns a -0 part (a zero sum over -denom) into +0; any other
    # part keeps its bits
    return Residues(z0=z0, alpha=complex(alpha) + 0j, beta=complex(beta) + 0j,
                    norm_input=norm_input, N=L)


def s_r_coefficients(source: JacobiCoefficients, lam, z0,
                     policy: TruncationPolicy
                     ) -> Tuple[complex, complex, complex, complex]:
    """(s+, s-, r+, r-): deficiency coefficients of p_lam and q_lam.

    s+ = D(lam, conj z0) / (2i Im z0 ||p_{z0}||^2), s- with -D(lam, z0);
    r+/r- carry C in place of D.
    """
    z0 = _require_upper(z0)
    denom = 2j * z0.imag * evaluator_for(source, policy).table(z0).norm_p2
    q_conj = nev(source, lam, np.conj(z0), policy)
    q_plain = nev(source, lam, z0, policy)
    s_plus = q_conj.D / denom
    s_minus = -q_plain.D / denom
    r_plus = q_conj.C / denom
    r_minus = -q_plain.C / denom
    return s_plus, s_minus, r_plus, r_minus


def membership_DT(source: JacobiCoefficients, v: SeqVector, z0, tol: float,
                  policy: TruncationPolicy) -> MembershipVerdict:
    """Test membership in the closure domain via residues at two basepoints."""
    z0 = _require_upper(z0)
    ev, applied = evaluator_for(source, policy), _applied(source, v)
    return _verdict([_residues(ev, applied, bp).scaled()
                     for bp in (z0, second_basepoint(z0))], tol, "DT")


def _verdict(scaled, tol: float, tag: str) -> MembershipVerdict:
    """The verdict of two basepoints' scaled residuals, which must agree."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("membership tolerance must be finite and positive, "
                         f"got {tol}")
    in0, in1 = scaled[0] < tol, scaled[1] < tol
    if in0 != in1:
        raise InconclusiveMembershipError(
            f"inconclusive: tighten truncation (residuals {scaled[0]:.3e} "
            f"vs {scaled[1]:.3e})")
    return MembershipVerdict(in_domain=in0, residual=max(scaled), tol=tol,
                             domain_tag=tag)


def pair_coefficient(source: JacobiCoefficients, u, v,
                     policy: TruncationPolicy, case: str,
                     tol: float = 1e-8) -> Optional[complex]:
    """Coefficient making a two-point combination land in the closure domain.

    case "pp": p_u + alpha p_v needs D(u,v) = 0, alpha = B(u,v);
    case "qq": q_u + beta q_v needs A(u,v) = 0, beta = -C(u,v);
    case "pq": p_u + gamma q_v needs B(u,v) = 0, gamma = -D(u,v).
    Returns None when the gating function is not zero at tolerance.  The
    diagonal u = v is always absent: for "pq" because B(u,u) = -1, for
    "pp"/"qq" because the formula coefficient -1 collapses the combination
    to the zero vector (a convention, documented).
    """
    if case not in ("pp", "qq", "pq"):
        raise ValueError("case must be one of 'pp', 'qq', 'pq'")
    u, v = complex(u), complex(v)
    if abs(u - v) <= 1e-14 * (1.0 + abs(u)):
        return None
    q = nev(source, u, v, policy)
    if case == "pp":
        return q.B if abs(q.D) < tol else None
    if case == "qq":
        return -q.C if abs(q.A) < tol else None
    return -q.D if abs(q.B) < tol else None


def _cross_residual(r: Residues, g: Residues, norm_v: float) -> float:
    cross = abs(r.alpha * g.beta - r.beta * g.alpha)
    gscale = max(abs(g.alpha), abs(g.beta))
    return cross / (max(1.0, norm_v) * max(gscale, 1e-300))


def membership_DTt(source: JacobiCoefficients, v: SeqVector, t: ExtensionParam,
                   z0, tol: float, policy: TruncationPolicy) -> MembershipVerdict:
    """Test membership in the domain of the self-adjoint extension T_t.

    The extension domain adds one direction, spanned by the generator
    g_t = q_0 + t p_0 (p_0 at infinity): v belongs iff its residue pair is
    a complex multiple of the generator's, i.e. the 2x2 cross-determinant
    of (alpha, beta) pairs vanishes.  Verified at two basepoints.
    """
    z0 = _require_upper(z0)
    ev = evaluator_for(source, policy)
    av = _applied(source, v)
    ag = _applied(source, extension_generator(source, t, policy))
    scaled = [_cross_residual(_residues(ev, av, bp), _residues(ev, ag, bp), av[2])
              for bp in (z0, second_basepoint(z0))]
    return _verdict(scaled, tol, f"DTt({t})")


def resolvent_combination(source: JacobiCoefficients, t: ExtensionParam,
                          lam: complex, measure: DiscreteMeasure,
                          policy: TruncationPolicy,
                          z0: complex = 1.0j,
                          tol: float = DEFAULT_MEMBERSHIP_TOL
                          ) -> ResolventCombination:
    """Build w p_lam + q_lam and verify its place in the domain lattice.

    w is :func:`mobius` of t at (lam, 0); lam on the measure's support is
    refused.  The combination lies in D(T_t) but not in the closure
    domain; its component along the generator g_t has coefficient
    c = -1/(B(lam) + t D(lam)) (or -1/D(lam) at infinity), so subtracting
    c g_t must pass the closure-domain test.
    """
    lam = complex(lam)
    _require_off_support(measure.points, lam)
    w = mobius(source, lam, 0.0, t, policy)
    vp = p_vector(source, lam, policy)
    vq = q_vector(source, lam, policy)
    combo = SeqVector(w * vp.entries + vq.entries)
    verdict = membership_DTt(source, combo, t, z0, tol, policy)
    not_in = membership_DT(source, combo, z0, tol, policy)
    A, B, C, D = nev_one(source, lam, policy)
    c_coeff = -1.0 / t.combine(B, D)
    gen = extension_generator(source, t, policy)
    remainder = SeqVector(combo.entries - c_coeff * gen.entries)
    decomposition = membership_DT(source, remainder, z0, tol, policy)
    return ResolventCombination(w=w, verdict=verdict, c_coeff=complex(c_coeff),
                                not_in_closure=not_in,
                                decomposition=decomposition)
