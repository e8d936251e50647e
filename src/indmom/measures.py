"""N-extremal measures: supports, masses, moments, Stieltjes transforms.

The measure attached to an extension parameter t is discrete; its support
is the real zero set of B + tD (of D alone for t = infinity) and the mass
at a support point x is 1 / sum_k p_k(x)^2.  At the shared truncation
level these are exactly the nodes and Christoffel weights of a
quasi-orthogonal quadrature rule, so truncated moments reproduce the
Hamburger moments to roundoff once the window is wide enough.  The
measure's Stieltjes transform at lambda is the Moebius map of t,
w = -(A + tC)/(B + tD) at (lambda, 0) (Nevanlinna's parametrization),
which :func:`mobius` alone computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .coefficients import JacobiCoefficients
from .errors import IndmomError, NonConvergenceError, SupportPointError
from .evaluation import Evaluator, TruncationPolicy, evaluator_for
from .nevanlinna import nev, nev_one
from .sequences import moment
from .zeros import LineFunction, RootScan, RootScanConfig, nevanlinna_line

__all__ = [
    "ExtensionParam", "DiscreteMeasure", "StieltjesResult",
    "support_function", "nextremal_support", "t_for_point", "mass_at",
    "build_measure", "mobius", "stieltjes", "adjacent_zero_sign",
    "export_measure_csv",
]

_TAIL_TOL = 1e-8  # auto_window stops at an annulus adding less to each moment
_N_NEAREST = 5  # support points nearest lambda that w_twovar averages over
_AGREEMENT_TOL = 1e-6  # relative spread allowed among their ratios


@dataclass(frozen=True)
class ExtensionParam:
    """Extension parameter t on the extended real line (finite or infinity)."""

    t: Optional[float]  # None encodes infinity

    def __post_init__(self):
        if self.t is not None and not math.isfinite(self.t):
            raise ValueError("finite extension parameter must be a finite real")

    @classmethod
    def finite(cls, t: float) -> "ExtensionParam":
        return cls(float(t))

    @classmethod
    def infinite(cls) -> "ExtensionParam":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "ExtensionParam":
        s = text.strip().lower()
        if s in ("inf", "infinity", "oo"):
            return cls.infinite()
        return cls.finite(float(s))

    @property
    def is_infinite(self) -> bool:
        return self.t is None

    def combine(self, b, d):
        """B + tD for finite t, D for infinity."""
        return d if self.is_infinite else b + self.t * d

    def __str__(self):
        return "inf" if self.is_infinite else f"{self.t:.17g}"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Window-restricted N-extremal measure with reconstruction diagnostics."""

    t: ExtensionParam
    points: np.ndarray
    masses: np.ndarray
    window: Tuple[float, float]
    captured_mass: float
    moment_residuals: np.ndarray
    level: int
    scan_warning: bool

    def __post_init__(self):
        pts, ms = self.points, self.masses
        if len(pts) != len(ms):
            raise ValueError("points and masses must have equal length")
        if len(pts) and np.any(np.diff(pts) <= 0):
            raise ValueError("support points must be strictly increasing")
        if np.any(ms <= 0):
            raise ValueError("masses must be positive")
        if self.captured_mass > 1.0 + 1e-9:
            raise ValueError("captured mass exceeds 1 beyond tolerance")


@dataclass(frozen=True)
class StieltjesResult:
    """Three routes to the Stieltjes transform of an N-extremal measure."""

    w_param: complex
    w_twovar: complex
    w_sum: complex
    spread: float
    per_point_spread: float
    sum_deviation: float


def support_function(ev: Evaluator, t: ExtensionParam) -> LineFunction:
    """x -> (B + tD)(x) (D(x) for infinite t) at the shared level."""
    return t.combine(nevanlinna_line(ev, "B"), nevanlinna_line(ev, "D"))


def nextremal_support(source: JacobiCoefficients, t: ExtensionParam,
                      cfg: RootScanConfig, policy: TruncationPolicy,
                      precision: str = "standard",
                      verify_count: bool = True) -> RootScan:
    """Real zeros of B + tD (D for infinity) inside the window."""
    ev = evaluator_for(source, policy, precision)
    return support_function(ev, t).zeros(cfg, verify_count)


def t_for_point(source: JacobiCoefficients, x0: float,
                policy: TruncationPolicy) -> ExtensionParam:
    """The unique t whose measure carries the point x0.

    Returns finite(-B(x0)/D(x0)) unless D(x0) is degenerate at the local
    scale, in which case the point belongs to the t = infinity measure.
    """
    h = 1e-6 * (1.0 + abs(x0))
    A, B, C, D = nev_one(source, complex(x0), policy)
    _, _, _, Dp = nev_one(source, complex(x0 + h), policy)
    _, _, _, Dm = nev_one(source, complex(x0 - h), policy)
    dslope = abs(Dp - Dm) / (2 * h)
    degeneracy_tol = 1e-9 * (abs(B) + dslope * h)
    if abs(D) <= degeneracy_tol:
        return ExtensionParam.infinite()
    return ExtensionParam.finite(float((-B / D).real))


def mass_at(source: JacobiCoefficients, x: float, policy: TruncationPolicy,
            precision: str = "standard") -> float:
    """Mass 1 / sum_{k<=L} p_k(x)^2 of the N-extremal measure through x."""
    tab = evaluator_for(source, policy, precision).table(x)
    if not tab.converged:
        raise NonConvergenceError(
            f"norm series at x={x} did not converge within n_max={policy.n_max}")
    return 1.0 / tab.norm_p2


def build_measure(source: JacobiCoefficients, t: ExtensionParam,
                  cfg: RootScanConfig, policy: TruncationPolicy,
                  n_check: int = 6, auto_window: bool = False,
                  precision: str = "standard") -> DiscreteMeasure:
    """Construct the window-restricted N-extremal measure for t.

    With ``auto_window`` the window, symmetrized, doubles outward from
    ``cfg.window`` until its newest annulus holds a support point and adds
    less than ``_TAIL_TOL`` to every moment sum n <= n_check (n = 0 is the
    mass), or until it holds every node of B + tD: then the measure is the
    whole level-L quadrature rule, whose captured mass and moment residuals
    report its quality.  Only the nodes of each new annulus are weighed.
    Moment residuals compare the measure's power sums against the
    Hamburger moments.  Raises ValueError for a negative ``n_check``.
    """
    if n_check < 0:
        raise ValueError(f"n_check must be at least 0, got {n_check}")
    ev = evaluator_for(source, policy, precision)
    f = support_function(ev, t)
    window = cfg.window

    if auto_window:
        nodes = f.nodes()
        radius = max(abs(window[0]), abs(window[1]), 1.0)
        inside = np.abs(nodes) <= radius
        while not np.all(inside):
            radius *= 2.0
            new = (np.abs(nodes) <= radius) & ~inside
            inside |= new
            if np.any(new):
                pts = nodes[new]
                ms = 1.0 / ev.norms_p2(pts)
                if max(float(np.abs(np.sum(ms * pts ** n)))
                       for n in range(n_check + 1)) < _TAIL_TOL:
                    break
        window = (-radius, radius)

    scan = f.zeros(RootScanConfig(window=window, refine_tol=cfg.refine_tol))
    points = scan.zeros
    masses = 1.0 / ev.norms_p2(points)
    captured = float(np.sum(masses))
    residuals = np.array([
        abs(float(np.sum(masses * points ** n)) - moment(source, n))
        for n in range(n_check + 1)])
    return DiscreteMeasure(t=t, points=points, masses=masses, window=window,
                           captured_mass=captured, moment_residuals=residuals,
                           level=ev.level, scan_warning=scan.warning)


def _require_off_support(points: np.ndarray, lam: complex) -> None:
    """Raise SupportPointError where lam lies within 1e-9 (1 + |lam|) of a point."""
    if len(points) and \
            float(np.min(np.abs(points - lam))) < 1e-9 * (1.0 + abs(lam)):
        raise SupportPointError(f"lambda={lam} lies on the support")


def mobius(source: JacobiCoefficients, u, v, t,
           policy: TruncationPolicy) -> complex:
    """Moebius map t -> -(A(u,v) + tC(u,v)) / (B(u,v) + tD(u,v)).

    ``t`` is an :class:`ExtensionParam` (infinity maps to -C/D) or a
    complex number.  At v = 0 and a real t, the image is the Stieltjes
    transform at u of the N-extremal measure of t.  Raises
    SupportPointError where the denominator is exactly zero.
    """
    q = nev(source, u, v, policy)
    if isinstance(t, ExtensionParam):
        num, den = t.combine(q.A, q.C), t.combine(q.B, q.D)
    else:
        t = complex(t)
        num, den = q.A + t * q.C, q.B + t * q.D
    if den == 0:
        raise SupportPointError(f"t={t} is a pole of the map at "
                                f"({complex(u)}, {complex(v)})")
    return complex(-num / den)


def stieltjes(source: JacobiCoefficients, t: ExtensionParam, lam: complex,
              measure: DiscreteMeasure,
              policy: TruncationPolicy) -> StieltjesResult:
    """Stieltjes transform w(lam) = integral of 1/(x - lam) three ways.

    w_param is :func:`mobius` of t at (lam, 0);
    w_twovar averages -C(lam, x)/D(lam, x) over the ``_N_NEAREST`` support
    points nearest lam (their mutual agreement is verified first); w_sum is
    the window-limited mass sum, reported with its own deviation.
    """
    lam = complex(lam)
    pts = measure.points
    _require_off_support(pts, lam)
    nearest = pts[np.argsort(np.abs(pts - lam))[: _N_NEAREST]]
    evaluator_for(source, policy).tables(np.concatenate([[lam, 0.0], nearest]))
    w_param = mobius(source, lam, 0.0, t, policy)

    if not len(pts):
        raise IndmomError("measure has no support points in window")
    vals = []
    for x in nearest:
        q = nev(source, lam, complex(x), policy)
        vals.append(-q.C / q.D)
    vals = np.array(vals)
    pp_spread = float(np.max(np.abs(vals[:, None] - vals[None, :])))
    if pp_spread > _AGREEMENT_TOL * (1.0 + abs(w_param)):
        raise IndmomError(
            f"per-point ratios disagree (spread {pp_spread:.3e}); "
            "support or truncation suspect")
    w_twovar = complex(np.mean(vals))
    w_sum = complex(np.sum(measure.masses / (pts - lam)))
    spread = max(abs(w_param - w_twovar), pp_spread)
    return StieltjesResult(w_param=w_param, w_twovar=w_twovar, w_sum=w_sum,
                           spread=float(spread), per_point_spread=pp_spread,
                           sum_deviation=float(abs(w_sum - w_param)))


def adjacent_zero_sign(source: JacobiCoefficients, v: float, which: str,
                       policy: TruncationPolicy) -> Tuple[float, float]:
    """Adjacent zero below v of D(., v) (case "D") or A(., v) (case "A").

    u is the nearest node below v.  Returns
    (u, B(u, v)) for the D case and (u, C(u, v)) for the A case; the sign
    of the returned value is asserted (positive resp. negative).
    """
    if which not in ("D", "A"):
        raise ValueError("which must be 'D' (p-pairs) or 'A' (q-pairs)")
    v = float(v)
    ev = evaluator_for(source, policy)
    # v itself is an exact node: two per side hold the one below it
    zeros = nevanlinna_line(ev, which, v).nodes_near(v, 2)
    below = zeros[zeros < v]
    if not len(below):
        raise IndmomError(f"no zero below v={v}")
    u = float(below.max())
    q = nev(source, complex(u), complex(v), policy)
    value = float(q.B.real) if which == "D" else float(q.C.real)
    if which == "D" and not value > 0:
        raise IndmomError(f"sign postcondition failed: B({u},{v}) = {value}")
    if which == "A" and not value < 0:
        raise IndmomError(f"sign postcondition failed: C({u},{v}) = {value}")
    return u, value


def export_measure_csv(measure: DiscreteMeasure, path: str) -> None:
    """Write `x,mass` rows (17 significant digits) plus a metadata sidecar."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,mass\n")
        for x, m in zip(measure.points, measure.masses):
            fh.write(f"{x:.17g},{m:.17g}\n")
    meta = path + ".meta"
    with open(meta, "w", encoding="utf-8") as fh:
        fh.write(f"t = {measure.t}\n")
        fh.write(f"window_lo = {measure.window[0]:.17g}\n")
        fh.write(f"window_hi = {measure.window[1]:.17g}\n")
        fh.write(f"captured_mass = {measure.captured_mass:.17g}\n")
        fh.write(f"level = {measure.level}\n")
        fh.write(f"scan_warning = {measure.scan_warning}\n")
        for n, r in enumerate(measure.moment_residuals):
            fh.write(f"moment_residual_{n} = {r:.17g}\n")
