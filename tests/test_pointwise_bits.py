"""The pointwise checks are bitwise their plain composition.

Residues, the membership residuals and the resolvent residual are each
written out below as numpy expressions: the banded product as three
shifted ``+=``, zero padding, ``np.vdot``/``np.dot`` sums, ``np.cumsum``
tail sums, ``np.sum`` and ``np.linalg.norm``.  The library computes them
with fewer calls and temporaries; its results must equal these bit for bit.
"""

import numpy as np
import pytest

from indmom import (ExtensionParam, JacobiCoefficients, SeqVector,
                    TruncationPolicy, apply_jacobi, extension_generator,
                    membership_DT, membership_DTt, residues,
                    resolvent_residual, xi_apply)
from indmom.domains import second_basepoint
from indmom.evaluation import evaluator_for

L = 120
POL = TruncationPolicy(n_max=L)
TOL = 1e-7
# M = L + 8 reaches past the residues' cut at index L
TOPS = (0, 1, 50, L - 1, L + 8)


def _alternating():
    return JacobiCoefficients.explicit(
        [((n + 1.0) ** 2, 0.3 * (-1.0) ** n) for n in range(L + 40)],
        "alternating b")


@pytest.fixture(params=["c=2", "alternating_b"], scope="module")
def source(request):
    if request.param == "c=2":
        return JacobiCoefficients.power_law(2.0)
    return _alternating()


def _bits(*values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def _jacobi(source, x):
    M = x.size - 1
    a, b = source.arrays(M)
    out = np.zeros(M + 2, dtype=complex)
    out[: M + 1] += b[: M + 1] * x
    out[1:] += a[: M + 1] * x
    out[:M] += a[:M] * x[1:]
    return out


def _residues(source, x, z0):
    ev = evaluator_for(source, POL)
    jv = _jacobi(source, x)
    vv = SeqVector(x).padded(jv.size)
    tab = ev.table(z0)
    cut = min(jv.size, L + 1)
    jv, vv, p = jv[:cut], vv[:cut], tab.p[:cut]
    denom = 2j * z0.imag * tab.norm_p2
    alpha = (np.vdot(p, jv).item() - z0.conjugate() * np.vdot(p, vv).item()) / denom
    beta = (np.dot(p, jv).item() - z0 * np.dot(p, vv).item()) / (-denom)
    return alpha + 0j, beta + 0j


def _scaled(pair, x):
    return max(abs(pair[0]), abs(pair[1])) / max(1.0, float(np.linalg.norm(x)))


def _cross(r, g, x):
    cross = abs(r[0] * g[1] - r[1] * g[0])
    return cross / (max(1.0, float(np.linalg.norm(x)))
                    * max(max(abs(g[0]), abs(g[1])), 1e-300))


def _xi(source, x, z0):
    M = x.size - 1
    if M == 0:
        return np.zeros(1, dtype=complex)
    p, q = evaluator_for(source, POL).pq_upto(z0, M)
    tail_q = np.cumsum((x * q)[:0:-1])[::-1]
    tail_p = np.cumsum((x * p)[:0:-1])[::-1]
    return p[:M] * tail_q - q[:M] * tail_p


def _resolvent(source, x, z0):
    M = x.size - 1
    xi = _xi(source, x, z0)
    jxi = _jacobi(source, xi)
    acc = np.zeros(max(jxi.size, M + 1), dtype=complex)
    acc[: jxi.size] = jxi
    acc[: xi.size] -= z0 * xi
    p, _ = evaluator_for(source, POL).pq_upto(z0, M)
    acc[0] += complex(np.sum(x * p[: M + 1]))
    acc[: M + 1] -= x
    return float(np.linalg.norm(acc)) / max(1.0, float(np.linalg.norm(x)))


@pytest.mark.parametrize("M", TOPS)
def test_residues_and_membership_match_the_composition(source, M):
    rng = np.random.default_rng([41, M])
    x = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    v = SeqVector(x)
    assert apply_jacobi(source, v).entries.tobytes() == _jacobi(source, x).tobytes()
    assert _bits(v.norm()) == _bits(float(np.linalg.norm(x)))
    for z0 in (1j, 0.4 + 0.7j):
        r = residues(source, v, z0, POL)
        assert _bits(r.alpha, r.beta) == _bits(*_residues(source, x, z0))
        assert _bits(r.norm_input) == _bits(float(np.linalg.norm(x)))
        pairs = [_residues(source, x, bp) for bp in (z0, second_basepoint(z0))]
        got = membership_DT(source, v, z0, TOL, POL)
        assert _bits(got.residual) == _bits(max(_scaled(r, x) for r in pairs))
        for t in (ExtensionParam.finite(0.7), ExtensionParam.infinite()):
            g = extension_generator(source, t, POL).entries
            ref = max(_cross(_residues(source, x, bp), _residues(source, g, bp), x)
                      for bp in (z0, second_basepoint(z0)))
            got = membership_DTt(source, v, t, z0, TOL, POL)
            assert _bits(got.residual) == _bits(ref)


@pytest.mark.parametrize("M", TOPS)
def test_resolvent_and_xi_match_the_composition(source, M):
    rng = np.random.default_rng([42, M])
    x = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    v = SeqVector(x)
    for z0 in (0.3 + 0.9j, -1.1 - 0.2j, 0.5):
        xi = xi_apply(source, v, z0, POL)
        assert xi.entries.tobytes() == _xi(source, x, z0).tobytes()
        assert _bits(xi.norm()) == _bits(float(np.linalg.norm(xi.entries)))
        assert (_bits(resolvent_residual(source, v, z0, POL))
                == _bits(_resolvent(source, x, z0)))
