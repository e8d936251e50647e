"""The acceptance suite: every library invariant as a named, seeded check.

Each check returns :class:`CheckResult` rows with the measured quantity
and its tolerance; ``run_acceptance`` executes the full list and is the
backend of both ``indmom verify`` and the pytest acceptance module.  All
randomness is drawn from per-check streams seeded off the run seed, so
reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .config import RunConfig
from .debranges import diff_quotient_residual, resolvent_residual, xi_apply
from .domains import (DEFAULT_MEMBERSHIP_TOL, membership_DT, membership_DTt,
                      p_vector, pair_coefficient, q_vector, residues,
                      resolvent_combination, second_basepoint)
from .errors import (BasepointError, CoefficientFileError, CoefficientRangeError,
                     IndmomError, NonConvergenceError, SpecStringError)
from .evaluation import evaluator_for
from .measures import (DiscreteMeasure, ExtensionParam, adjacent_zero_sign,
                       build_measure, stieltjes, support_function)
from .nevanlinna import (SERIES_FORMS, composition_residuals, nev, nev_one,
                         partial_quad_arrays, three_point_residual,
                         tilde_relations_residual, truncated_policy)
from .sequences import SeqVector
from .zeros import count_zeros_rect, line_values, nevanlinna_line

__all__ = ["CheckResult", "run_acceptance"]


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; ``precision`` is the precision it computed at.

    Only checks 01 and 05 compute at ``config.precision``; the others run
    in standard precision (06a, 07 and 10 read the measures of check 05).
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    precision: str = "standard"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (f"{status} {self.name}: measured={self.measured:.3e} "
                f"tol={self.tolerance:.3e}{extra}")


def _disk(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * th)


def _upper(rng: np.random.Generator, n: int,
           im_lo: float = 0.05, im_hi: float = 3.0) -> np.ndarray:
    return rng.uniform(-3, 3, n) + 1j * rng.uniform(im_lo, im_hi, n)


def _prefetch(config: RunConfig, *points, source=None, policy=None,
              precision: str = "standard") -> None:
    """Fill the shared table cache for all of a check's points in one batch."""
    evaluator_for(source or config.problem, policy or config.truncation,
                  precision).tables(np.concatenate([np.ravel(p) for p in points]))


# --- criteria ---------------------------------------------------------------

def _check_determinant(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 1)
    us, vs = _disk(rng, 3.0, 10), _disk(rng, 3.0, 10)
    # the v tables first: they stay resident while the loop builds each u
    # once, also in an extended cache that holds fewer tables than points
    _prefetch(config, vs, precision=config.precision)
    worst = 0.0
    for u in us:
        for v in vs:
            q = nev(config.problem, u, v, config.truncation, config.precision)
            worst = max(worst, q.det_residual)
    return [CheckResult("01_determinant_identity", worst < 1e-9, worst, 1e-9,
                        "|AD-BC-1| on 10x10 grid, |u|,|v|<=3", config.precision)]


def _check_dual_form(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 2)
    upto = min(200, config.truncation.n_max - 1)
    us, vs = _disk(rng, 3.0, 20), _disk(rng, 3.0, 20)
    _prefetch(config, us, vs)
    worst = 0.0
    for u, v in zip(us, vs):
        ser, cas = partial_quad_arrays(config.problem, u, v, upto,
                                       config.truncation)
        dev = np.abs(ser - cas) / (1.0 + np.abs(ser))
        worst = max(worst, float(np.max(dev)))
    return [CheckResult("02_series_vs_casorati", worst < 1e-12, worst, 1e-12,
                        f"relative, n<={upto}, 20 seeded (u,v)")]


def _check_three_point(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 3)
    triples = [_disk(rng, 2.0, 50) for _ in range(3)]
    cocycle = [_disk(rng, 2.0, 5) for _ in range(3)]
    _prefetch(config, triples, cocycle)
    worst = 0.0
    for u, v, w in zip(*triples):
        worst = max(worst, three_point_residual(config.problem, u, v, w,
                                                config.truncation))
    out = [CheckResult("03a_three_point_residual", worst < 1e-8, worst, 1e-8,
                       "50 seeded triples, |.|<=2")]

    upto = min(100, config.truncation.n_max - 1)
    worst_c = 0.0
    for u, v, w in zip(*cocycle):
        suw, _ = partial_quad_arrays(config.problem, u, w, upto, config.truncation)
        swv, _ = partial_quad_arrays(config.problem, w, v, upto, config.truncation)
        suv, _ = partial_quad_arrays(config.problem, u, v, upto, config.truncation)
        dev = np.max(np.abs(np.stack(composition_residuals(suv, suw, swv))))
        worst_c = max(worst_c, float(dev))
    out.append(CheckResult("03b_transfer_cocycle", worst_c < 1e-10, worst_c,
                           1e-10, f"h_n(u,w)h_n(w,v)=h_n(u,v), n<={upto}"))
    return out


def _check_pick(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 4)
    zs = _upper(rng, 100)
    _prefetch(config, zs, 0.0)
    margin = np.inf
    for z in zs:
        A, B, C, D = nev_one(config.problem, z, config.truncation)
        margin = min(margin, (B / D).imag, (A / C).imag)
    return [CheckResult("04_pick_property", margin > 0, float(margin), 0.0,
                        "min Im(B/D), Im(A/C) at 100 seeded UHP points")]


def _measures_for(config: RunConfig) -> Dict[str, DiscreteMeasure]:
    out = {}
    for label, t in (("0", ExtensionParam.finite(0.0)),
                     ("1", ExtensionParam.finite(1.0)),
                     ("inf", ExtensionParam.infinite())):
        out[label] = build_measure(config.problem, t, config.scan,
                                   config.truncation,
                                   n_check=6, auto_window=True,
                                   precision=config.precision)
    return out


def _check_measures(config: RunConfig,
                    measures: Dict[str, DiscreteMeasure]) -> List[CheckResult]:
    results = []
    for label, m in measures.items():
        worst = max(float(np.max(m.moment_residuals)), abs(m.captured_mass - 1.0))
        results.append(CheckResult(
            f"05_moment_reconstruction_t={label}", worst < 1e-6, worst, 1e-6,
            f"window={m.window[0]:g}:{m.window[1]:g}, "
            f"{len(m.points)} points, n<=6", config.precision))
    return results


def _check_supports(config: RunConfig,
                    measures: Dict[str, DiscreteMeasure]) -> List[CheckResult]:
    p0 = measures["0"].points
    p1 = measures["1"].points
    sep = float(np.min(np.abs(p0[:, None] - p1[None, :])))
    bound = 10 * config.scan.refine_tol
    out = [CheckResult("06a_support_disjointness", sep > bound, sep, bound,
                       "min distance between t=0 and t=1 supports")]

    ev = evaluator_for(config.problem, config.truncation)
    fs = [support_function(ev, m.t) for m in measures.values()]
    rects = [(0.5, 5.5, 0.4, 3.0), (-7.0, -1.0, -2.5, -0.3), (-3.0, 2.0, 1.0, 4.0)]
    worst = 0
    for rect in rects:
        # every B + tD is of kind p: one table per contour point serves all
        counts = count_zeros_rect(lambda zs: line_values(fs, zs), rect)
        worst = max(worst, int(np.max(np.abs(counts))))
    out.append(CheckResult("06b_offaxis_zero_counts", worst == 0,
                           float(worst), 0.0,
                           "B+tD winding counts in off-axis rectangles"))
    return out


def _check_stieltjes(config: RunConfig,
                     measures: Dict[str, DiscreteMeasure]) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 7)
    worst = 0.0
    for m in measures.values():
        lams = rng.uniform(-3, 3, 10) + 1j * rng.uniform(0.3, 2.5, 10)
        for lam in lams:
            st = stieltjes(config.problem, m.t, lam, m, config.truncation)
            worst = max(worst, abs(st.w_param - st.w_twovar), st.per_point_spread)
    return [CheckResult("07_stieltjes_consistency", worst < 1e-8, worst, 1e-8,
                        "param vs two-variable routes, 10 seeded lambda per t")]


def _membership_pairs(config: RunConfig, rng: np.random.Generator,
                      kind: str, count: int = 5):
    """Root-found (u, v, coefficient) triples for one combination case.

    u runs over the two zeros of D, A or B(., v) nearest v, besides v.
    """
    case = {"D": "pp", "A": "qq", "B": "pq"}[kind]
    ev = evaluator_for(config.problem, config.truncation)
    pairs = []
    vs = rng.uniform(-2.5, 2.5, 16)
    for v in vs:
        # v is a node itself: three per side hold the two nearest besides it
        zeros = nevanlinna_line(ev, kind, float(v)).nodes_near(v, 3)
        zeros = zeros[np.abs(zeros - v) > 1e-6]
        for u in zeros[np.argsort(np.abs(zeros - v))][:2]:
            coef = pair_coefficient(config.problem, complex(u), complex(v),
                                    config.truncation, case, tol=1e-6)
            if coef is not None:
                pairs.append((complex(u), complex(v), coef))
            if len(pairs) >= count:
                return pairs
    return pairs


def _check_membership(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 8)
    pol = config.truncation
    src = config.problem
    basepoints = (1.0j, second_basepoint(1.0j))
    ev = evaluator_for(src, pol)

    worst_pos = 0.0
    made = 0
    for kind in ("D", "A", "B"):
        # D, A, B pairs combine p_u + c p_v, q_u + c q_v, p_u + c q_v: the
        # (kind, anchor) tables of each function's series form
        kind_u, kind_v, _ = SERIES_FORMS[kind]
        for u, v, coef in _membership_pairs(config, rng, kind):
            tu, tv = ev.tables([u, v])
            vec = SeqVector(getattr(tu, kind_u) + coef * getattr(tv, kind_v))
            for bp in basepoints:
                worst_pos = max(worst_pos,
                                residues(src, vec, bp, pol).scaled())
            made += 1
    out = [CheckResult("08a_membership_positives", worst_pos < DEFAULT_MEMBERSHIP_TOL
                       and made >= 15, worst_pos, DEFAULT_MEMBERSHIP_TOL,
                       f"{made} root-found pairs across pp/qq/pq cases")]

    worst_neg = np.inf
    n_neg = 0
    while n_neg < 20:
        u, v = _disk(rng, 2.0, 1)[0], _disk(rng, 2.0, 1)[0]
        q = nev(src, u, v, pol)
        if abs(q.D) <= 0.1:
            continue
        alpha = _disk(rng, 2.0, 1)[0]
        tu, tv = ev.tables([u, v])
        vec = SeqVector(tu.p + alpha * tv.p)
        worst_neg = min(worst_neg, residues(src, vec, 1.0j, pol).scaled())
        n_neg += 1
    out.append(CheckResult("08b_membership_negatives", worst_neg > 1e-3,
                           float(worst_neg), 1e-3,
                           "20 seeded combinations with |D(u,v)| > 0.1"))
    return out


def _check_signs(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 9)
    min_b, max_c = np.inf, -np.inf
    for v in rng.uniform(-2.0, 2.5, 5):
        _, bval = adjacent_zero_sign(config.problem, float(v), "D",
                                     config.truncation)
        _, cval = adjacent_zero_sign(config.problem, float(v), "A",
                                     config.truncation)
        min_b = min(min_b, bval)
        max_c = max(max_c, cval)
    ok = min_b > 0 and max_c < 0
    return [CheckResult("09_adjacent_zero_signs", ok,
                        float(min(min_b, -max_c)), 0.0,
                        "B(u,v)>0 (D case) and C(u,v)<0 (A case), 5 pairs")]


def _check_extensions(config: RunConfig,
                      measures: Dict[str, DiscreteMeasure]) -> List[CheckResult]:
    src, pol = config.problem, config.truncation
    out = []

    m1 = measures["1"]
    lam0 = float(m1.points[np.argmin(np.abs(m1.points - 0.5))])
    vp = p_vector(src, lam0, pol)
    t1 = m1.t
    v_in, v_out0, v_outi = (
        membership_DTt(src, vp, measures[k].t, 1.0j, DEFAULT_MEMBERSHIP_TOL, pol)
        for k in ("1", "0", "inf"))
    ok_p = v_in.in_domain and not v_out0.in_domain and not v_outi.in_domain

    # second-kind vector: lambda with A + tC = 0 enters D(T_t), and the
    # first-kind vector at that lambda must stay out
    ev = evaluator_for(src, pol)
    # the nearest node is one of the two around 0.5, even at a node 0.5
    zeros = t1.combine(nevanlinna_line(ev, "A"),
                       nevanlinna_line(ev, "C")).nodes_near(0.5, 1)
    lamq = float(zeros[np.argmin(np.abs(zeros - 0.5))])
    vq = q_vector(src, lamq, pol)
    vq_in = membership_DTt(src, vq, t1, 1.0j, DEFAULT_MEMBERSHIP_TOL, pol)
    vp_at_lamq = membership_DTt(src, p_vector(src, lamq, pol), t1, 1.0j,
                                DEFAULT_MEMBERSHIP_TOL, pol)
    ok_q = vq_in.in_domain and not vp_at_lamq.in_domain
    q_residual = vq_in.residual
    out.append(CheckResult(
        "10a_extension_domain_selects_t", ok_p and ok_q,
        max(v_in.residual, q_residual), DEFAULT_MEMBERSHIP_TOL,
        "p/q vectors enter exactly the matching D(T_t)"))

    rng = np.random.default_rng(config.seed + 10)
    worst = 0.0
    ok_all = True
    for label, m in measures.items():
        lam = complex(rng.uniform(0.5, 2.0) + 1j * rng.uniform(0.5, 2.0))
        rc = resolvent_combination(src, m.t, lam, m, pol)
        ok_all = ok_all and rc.verdict.in_domain and \
            not rc.not_in_closure.in_domain and rc.decomposition.in_domain
        worst = max(worst, rc.verdict.residual, rc.decomposition.residual)
    out.append(CheckResult(
        "10b_resolvent_combination", ok_all and worst < DEFAULT_MEMBERSHIP_TOL,
        worst, DEFAULT_MEMBERSHIP_TOL,
        "w p + q in D(T_t) \\ D(T); c-coefficient split passes"))
    return out


def _check_xi(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 11)
    src, pol = config.problem, config.truncation
    z0 = 0.4 + 1.1j
    ev = evaluator_for(src, pol)
    tab = ev.table(z0)
    pq_norm = tab.norm_p2 + tab.norm_q2

    worst_res, worst_dq, worst_bound = 0.0, 0.0, 0.0
    vectors = []
    # top indices the level's complete residue sums can judge (see domains)
    top = min(100, pol.n_max)
    for _ in range(50):
        m = int(rng.integers(1, top + 1))
        c = SeqVector(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
        vectors.append(c)
        worst_res = max(worst_res, resolvent_residual(src, c, z0, pol))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        worst_dq = max(worst_dq, diff_quotient_residual(src, c, z0, z, pol))
        xi = xi_apply(src, c, z0, pol)
        worst_bound = max(worst_bound, xi.norm() / (c.norm() * pq_norm))

    out = [CheckResult("11a_resolvent_identity", worst_res < 1e-10,
                       worst_res, 1e-10, f"50 seeded finite vectors, M<={top}"),
           CheckResult("11b_difference_quotient", worst_dq < 1e-11,
                       worst_dq, 1e-11, "same vectors, seeded z")]

    e0_norm = xi_apply(src, SeqVector.basis(0), z0, pol).norm()
    out.append(CheckResult("11c_kernel_and_norm_bound",
                           e0_norm == 0.0 and worst_bound <= 1.0 + 1e-10,
                           max(e0_norm, worst_bound), 1.0 + 1e-10,
                           "xi(e_0)=0; ||xi(c)|| <= ||c||(P+Q)"))

    worst_mem = 0.0
    ok_mem = True
    for c in vectors[:10]:
        xi = xi_apply(src, c, z0, pol)
        verdict = membership_DT(src, xi, 1.0j, DEFAULT_MEMBERSHIP_TOL, pol)
        ok_mem = ok_mem and verdict.in_domain
        worst_mem = max(worst_mem, verdict.residual)
    out.append(CheckResult("11d_xi_range_in_domain", ok_mem, worst_mem,
                           DEFAULT_MEMBERSHIP_TOL,
                           "xi outputs pass the closure-domain test"))
    return out


def _check_tilde(config: RunConfig) -> List[CheckResult]:
    rng = np.random.default_rng(config.seed + 12)
    points = [_disk(rng, 2.5, 10) for _ in range(3)]
    _prefetch(config, points, 0.0)
    _prefetch(config, points, 0.0, source=config.problem.truncate_once(),
              policy=truncated_policy(config.truncation))
    worst = 0.0
    for u, v, z in zip(*points):
        worst = max(worst, tilde_relations_residual(config.problem, u, v,
                                                    config.truncation, z=z))
    return [CheckResult("12_truncated_problem_relations", worst < 1e-8,
                        worst, 1e-8, "10 seeded points")]


def _checks() -> List[tuple]:
    """(name, check, takes the shared measures) in report order; built per
    run, so a rebound ``_check_*`` module attribute is the one that runs."""
    return [
        ("determinant", _check_determinant, False),
        ("dual_form", _check_dual_form, False),
        ("three_point", _check_three_point, False),
        ("pick", _check_pick, False),
        ("measures", _check_measures, True),
        ("supports", _check_supports, True),
        ("stieltjes", _check_stieltjes, True),
        ("membership", _check_membership, False),
        ("signs", _check_signs, False),
        ("extensions", _check_extensions, True),
        ("xi", _check_xi, False),
        ("tilde", _check_tilde, False),
    ]


# Errors that end a run (the CLI's usage and non-convergence exits).
_ENDS_RUN = (BasepointError, CoefficientFileError, CoefficientRangeError,
             NonConvergenceError, SpecStringError)


def run_acceptance(config: RunConfig,
                   only: Optional[List[str]] = None) -> List[CheckResult]:
    """Run the acceptance checks; the checks that take measures share one set.

    A group that raises an IndmomError other than those of ``_ENDS_RUN``,
    or takes the measures where building them raised one, gives one FAIL
    row ``<group>_raised`` in place of its rows; the other groups still run.
    """
    checks = [(name, check, shared) for name, check, shared in _checks()
              if not only or name in only]
    measures = None
    if any(shared for _, _, shared in checks):
        try:
            measures = _measures_for(config)
        except _ENDS_RUN:
            raise
        except IndmomError as exc:
            measures = exc
    results: List[CheckResult] = []
    for name, check, shared in checks:
        try:
            if shared and isinstance(measures, IndmomError):
                raise measures
            results.extend(check(config, measures) if shared else check(config))
        except _ENDS_RUN:
            raise
        except IndmomError as exc:
            results.append(CheckResult(f"{name}_raised", False, math.nan, math.nan,
                                       f"{type(exc).__name__}: {exc}"))
    return results
