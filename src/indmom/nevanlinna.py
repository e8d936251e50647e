"""The Nevanlinna functions A, B, C, D of one and two variables.

Every value is the Casorati ("corner") form at its truncation index n, a
2x2 determinant in consecutive p/q values scaled by a_n, e.g.
``D_n(u,v) = a_n (p_{n+1}(u) p_n(v) - p_n(u) p_{n+1}(v))``: four table
entries per function.  The series form ``A_n(u,v) = (u-v) sum_{k<=n}
q_k(u) q_k(v)`` and its three companions (the B/C series carry the
constants -1 and +1) agree with it identically in exact arithmetic; it is
summed only by :func:`partial_quad_arrays`, the reference the acceptance
suite compares the corner form with.  All full evaluations are taken at
the shared level L = policy.n_max so that the determinant identity
A D - B C = 1, the three-point composition formulas, the one-variable
reconstruction and the transfer-matrix cocycle hold to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .coefficients import JacobiCoefficients
from .evaluation import Evaluator, PointTable, TruncationPolicy, evaluator_for

__all__ = [
    "NevQuad", "nev", "nev_partial", "nev_one", "partial_quad_arrays",
    "reconstruct_two_var", "three_point_residual", "tilde_relations_residual",
]


@dataclass(frozen=True)
class NevQuad:
    """Values of (A, B, C, D) at a point pair with truncation metadata."""

    u: complex
    v: complex
    A: complex
    B: complex
    C: complex
    D: complex
    N: int
    converged: bool

    def as_tuple(self) -> Tuple[complex, complex, complex, complex]:
        return (self.A, self.B, self.C, self.D)

    @property
    def det_residual(self) -> float:
        return float(abs(self.A * self.D - self.B * self.C - 1.0))


# name -> (kind, anchor, offset): the corner form
#   X_n(u, v) = a_n (T_{n+1}(u) S_n(v) - T_n(u) S_{n+1}(v))
# and the series form
#   X_n(u, v) = offset + (u - v) sum_{k<=n} T_k(u) S_k(v),
# with T the kind table at u and S the anchor table at v.
SERIES_FORMS = {"A": ("q", "q", 0.0), "B": ("p", "q", -1.0),
                "C": ("q", "p", 1.0), "D": ("p", "p", 0.0)}


def _forms(tu: PointTable, tv: PointTable, n, n1) -> list:
    """(T_n, T_{n1}, S_n, S_{n1}, offset) for A, B, C, D in turn.

    T is the kind table at u and S the anchor table at v; n and n1 are
    indices or slices.  Each of the eight entries (p and q at u and v, at
    n and n1) is read once and shared by the forms that use it.
    """
    at_u = {"p": (tu.p[n], tu.p[n1]), "q": (tu.q[n], tu.q[n1])}
    at_v = {"p": (tv.p[n], tv.p[n1]), "q": (tv.q[n], tv.q[n1])}
    return [(*at_u[kind], *at_v[anchor], off)
            for kind, anchor, off in SERIES_FORMS.values()]


def _corners(a_n, forms: list) -> list:
    """Corner values of A, B, C, D from :func:`_forms` at n, with a_n = a[n]."""
    return [a_n * (T1 * S0 - T0 * S1) for T0, T1, S0, S1, _ in forms]


def partial_quad_arrays(source: JacobiCoefficients, u, v, upto: int,
                        policy: TruncationPolicy
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Series and corner partial values for every n <= upto.

    Returns two arrays of shape (4, upto+1) ordered (A_n, B_n, C_n, D_n):
    the series summed with np.cumsum, then the corner form.  This is the
    one place the series is summed; :func:`nev` returns the corner form.
    """
    ev = evaluator_for(source, policy)
    if not 0 <= upto <= ev.level:
        raise ValueError(f"upto={upto} outside 0..{ev.level}")
    u, v = complex(u), complex(v)
    s = slice(0, upto + 1)
    forms = _forms(*ev.tables([u, v]), s, slice(1, upto + 2))
    ser = []
    for T, _, S, _, off in forms:
        val = (u - v) * np.cumsum(T * S)
        # A and D carry no constant: adding 0.0 would flip a zero's sign
        ser.append(off + val if off else val)
    return np.stack(ser), np.stack(_corners(ev.a[s], forms))


def nev_partial(source: JacobiCoefficients, u, v, n: int,
                policy: TruncationPolicy) -> NevQuad:
    """Partial functions A_n..D_n in the corner form."""
    ev = evaluator_for(source, policy)
    if not 0 <= n <= ev.level:
        raise ValueError(f"partial index n={n} outside 0..{ev.level}")
    return _nev_quad(ev, complex(u), complex(v), n, flag=False)


def nev(source: JacobiCoefficients, u, v, policy: TruncationPolicy,
        precision: str = "standard") -> NevQuad:
    """Two-variable quadruple at the shared level L = policy.n_max.

    Values are the corner form at L, four table entries per function.
    ``converged`` reports whether all four series increments
    ``|u - v| |T_L(u) S_L(v)|`` fell below ``tail_tol * (1 + |value|)``;
    the values are the level-L ones either way.  With
    ``precision="extended"`` the values are the extended tables' mpmath
    numbers, which carry their precision into any arithmetic on them.
    """
    ev = evaluator_for(source, policy, precision)
    return _nev_quad(ev, complex(u), complex(v), ev.level, flag=True)


def _nev_quad(ev: Evaluator, u: complex, v: complex, n: int,
              flag: bool) -> NevQuad:
    """The corner quadruple at index n; ``flag`` runs :func:`nev`'s tail test."""
    forms = _forms(*ev.tables([u, v]), n, n + 1)
    if u != v:
        vals = _corners(ev.a[n], forms)
    else:
        # the series' exact values, in the entries' type: (u - v) times its
        # sum vanishes
        vals = [type(T0)(off) for T0, *_, off in forms]
    w, tol = abs(u - v), ev.policy.tail_tol
    conv = not flag or all(w * abs(T * S) < tol * (1.0 + abs(val))
                           for (T, _, S, _, _), val in zip(forms, vals))
    return NevQuad(u=u, v=v, A=vals[0], B=vals[1], C=vals[2], D=vals[3],
                   N=n, converged=bool(conv))


def nev_one(source: JacobiCoefficients, u, policy: TruncationPolicy,
            precision: str = "standard"
            ) -> Tuple[complex, complex, complex, complex]:
    """One-variable quadruple (A(u), B(u), C(u), D(u)), second variable 0."""
    return nev(source, u, 0.0, policy, precision).as_tuple()


def reconstruct_two_var(source: JacobiCoefficients, u, v,
                        policy: TruncationPolicy) -> NevQuad:
    """Two-variable quadruple rebuilt from one-variable values.

    Independent cross-check of :func:`nev`:
    A(u,v) = A(u)C(v) - A(v)C(u), B(u,v) = B(u)C(v) - A(v)D(u),
    C(u,v) = A(u)D(v) - B(v)C(u), D(u,v) = B(u)D(v) - B(v)D(u).
    ``converged`` holds when both one-variable quadruples converged.
    """
    u, v = complex(u), complex(v)
    qu, qv = nev(source, u, 0.0, policy), nev(source, v, 0.0, policy)
    Au, Bu, Cu, Du = qu.as_tuple()
    Av, Bv, Cv, Dv = qv.as_tuple()
    return NevQuad(u=u, v=v, A=Au * Cv - Av * Cu, B=Bu * Cv - Av * Du,
                   C=Au * Dv - Bv * Cu, D=Bu * Dv - Bv * Du, N=policy.n_max,
                   converged=qu.converged and qv.converged)


def three_point_residual(source: JacobiCoefficients, u, v, w,
                         policy: TruncationPolicy) -> float:
    """Max residual of the four composition formulas through a waypoint w.

    e.g. D(u,v) = D(u,w)C(w,v) - B(u,w)D(w,v).
    """
    quv = nev(source, u, v, policy)
    quw = nev(source, u, w, policy)
    qwv = nev(source, w, v, policy)
    res = composition_residuals(quv.as_tuple(), quw.as_tuple(), qwv.as_tuple())
    return float(max(abs(r) for r in res))


def composition_residuals(uv, uw, wv) -> list:
    """(A, B, C, D)(u, v) minus its composition through w, for scalars or arrays."""
    A1, B1, C1, D1 = uw
    A2, B2, C2, D2 = wv
    A3, B3, C3, D3 = uv
    return [A3 - (C1 * A2 - A1 * B2), B3 - (D1 * A2 - B1 * B2),
            C3 - (C1 * C2 - A1 * D2), D3 - (D1 * C2 - B1 * D2)]


def truncated_policy(policy: TruncationPolicy) -> TruncationPolicy:
    """The policy :func:`tilde_relations_residual` reads the truncated problem at.

    Level L - 1, so that its tables end at the truncated index L + 7, the
    original's L + 8, as far as the original's own tables reach.  At L = 8
    it is ``policy`` itself, since no level is below 8.
    """
    return replace(policy, n_max=policy.n_max - 1) if policy.n_max > 8 else policy


def tilde_relations_residual(source: JacobiCoefficients, u, v,
                             policy: TruncationPolicy, z=None) -> float:
    """Residuals linking the once-truncated problem to the original.

    Checks, at matched truncation (original level L, truncated level L-1,
    matching the one-step index shift of the truncated problem):
    A(z) = a_0^{-2} D~(z); C(z) = -b_0 a_0^{-2} D~(z) - B~(z);
    D~(u,v) = a_0^2 A(u,v); B~(u,v) = (v - b_0) A(u,v) - C(u,v).
    The truncated problem is read through :func:`truncated_policy`.
    """
    trunc = source.truncate_once()
    a0, b0 = source.coeffs(0)
    u, v = complex(u), complex(v)
    zz = complex(z) if z is not None else u
    Lm1, tpol = policy.n_max - 1, truncated_policy(policy)

    qz = nev(source, zz, 0.0, policy)
    qzt = nev_partial(trunc, zz, 0.0, Lm1, tpol)
    res = [
        abs(qz.A - qzt.D / a0 ** 2),
        abs(qz.C + b0 / a0 ** 2 * qzt.D + qzt.B),
    ]
    q2 = nev(source, u, v, policy)
    q2t = nev_partial(trunc, u, v, Lm1, tpol)
    res.append(abs(q2t.D - a0 ** 2 * q2.A))
    res.append(abs(q2t.B - ((v - b0) * q2.A - q2.C)))
    return float(max(res))
