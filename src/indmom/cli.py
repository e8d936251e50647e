"""Command-line front end.

Subcommands: eval, support, membership, zeros, xi, verify.  A config file
(INI sections: problem, truncation, scan, run) overrides RunConfig's
defaults and flags override it, key by key; an unknown section or key is
a usage error.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .combos import parse_combination
from .config import (RunConfig, load_config_file, merge_settings,
                     parse_complex, parse_window)
from .debranges import resolvent_residual, xi_apply
from .domains import (DEFAULT_MEMBERSHIP_TOL, membership_DT, membership_DTt,
                      residues)
from .errors import (BasepointError, CoefficientFileError,
                     CoefficientRangeError, IndmomError, NonConvergenceError,
                     SpecStringError)
from .evaluation import eval_pq, evaluator_for
from .measures import (ExtensionParam, _require_off_support, build_measure,
                       export_measure_csv, mobius, support_function)
from .nevanlinna import nev, nev_one
from .report import Report, fmt_complex, fmt_float
from .sequences import SeqVector
from .zeros import count_zeros_rect, nevanlinna_line

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="indmom",
        description="Indeterminate moment problem numerics: Nevanlinna "
                    "functions, N-extremal measures, operator domain tests.")
    ap.add_argument("--version", action="version", version=f"indmom {__version__}")
    ap.add_argument("--config", help="INI config file (sections: problem, "
                                     "truncation, scan, run)")
    ap.add_argument("--problem", default=None,
                    help="'preset' (power law) or a coefficient file path")
    ap.add_argument("--c", type=float, default=None,
                    help="power-law exponent (default 2)")
    ap.add_argument("--nmax", type=int, default=None, help="truncation cap")
    ap.add_argument("--tail-tol", type=float, default=None,
                    help="relative tail target for the stop rule")
    ap.add_argument("--window", default=None, help="scan window lo:hi")
    ap.add_argument("--t", default=None, help="extension parameter (real or 'inf')")
    ap.add_argument("--z0", default=None, help="deficiency basepoint a+bi")
    ap.add_argument("--seed", type=int, default=None, help="report seed")
    ap.add_argument("--precision", choices=("standard", "extended"), default=None)
    ap.add_argument("--out", default=None, help="output path ('-' for stdout)")
    ap.add_argument("--format", choices=("csv", "text"), default=None)

    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="tabulate norms and Nevanlinna values")
    p_eval.add_argument("points", nargs="+", help="complex points a+bi")

    p_sup = sub.add_parser("support", help="N-extremal support, masses, residuals")
    p_sup.add_argument("--n-check", type=int, default=6,
                       help="highest moment residual to report")
    p_sup.add_argument("--no-auto-window", action="store_true",
                       help="use the window as given, no doubling")

    p_mem = sub.add_parser("membership", help="membership of a combination spec")
    p_mem.add_argument("spec", help="e.g. 'p(0.5)+(2+1i)*p(1.5)' or "
                                    "'w*p(1+1i)+q(1+1i)@0.5'")
    p_mem.add_argument("--tol", type=float, default=DEFAULT_MEMBERSHIP_TOL)

    p_zer = sub.add_parser("zeros", help="real zeros and rectangle counts")
    p_zer.add_argument("function", choices=("B", "D", "BtD", "AtC"),
                       help="one-variable function to scan (BtD = B + tD)")
    p_zer.add_argument("--rect", default=None,
                       help="count zeros in re_lo:re_hi:im_lo:im_hi instead")

    p_xi = sub.add_parser("xi", help="apply the difference-quotient operator")
    p_xi.add_argument("vector_file",
                      help="text file, one complex entry per line")

    sub.add_parser("verify", help="run the acceptance suite")
    return ap


def _flag_settings(args) -> dict:
    """The settings the flags give, by name (see ``config.SETTINGS``)."""
    flags = {"c": args.c, "n_max": args.nmax, "tail_tol": args.tail_tol,
             "window": args.window, "precision": args.precision,
             "seed": args.seed, "out": args.out, "format": args.format}
    out = {key: value for key, value in flags.items() if value is not None}
    if "window" in out:
        out["window"] = parse_window(out["window"])
    if args.problem not in (None, "preset"):
        if args.c is not None:
            raise ValueError("--c names the power law's exponent; it cannot "
                             "go with a coefficient file")
        out.update(kind="file", path=args.problem)
    elif args.problem == "preset" or args.c is not None:
        out["kind"] = "power_law"
    return out


def _config_from_args(args) -> RunConfig:
    """The config file's settings, then the flags', over RunConfig's defaults."""
    from_file = load_config_file(args.config) if args.config else {}
    return merge_settings(from_file, _flag_settings(args))


def _emit(report: Report, cfg: RunConfig) -> None:
    if cfg.out in (None, "-"):
        report.write(sys.stdout, cfg.format)
    else:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            report.write(fh, cfg.format)


def _new_report(title: str, cfg: RunConfig) -> Report:
    return Report(title, cfg.describe(), cfg.config_hash(), cfg.seed)


def _cmd_eval(args, cfg: RunConfig) -> int:
    rep = _new_report("eval", cfg)
    pol, prec = cfg.truncation, cfg.precision
    points = [parse_complex(text) for text in args.points]
    for z in points:
        pe = eval_pq(cfg.problem, z, pol, prec)
        key = fmt_complex(z)
        rep.add(f"cum_p2({key})", pe.cum_p2, N=pe.N, tol=pol.tail_tol)
        rep.add(f"cum_q2({key})", pe.cum_q2, N=pe.N, tol=pol.tail_tol)
        rep.add(f"converged({key})", pe.converged, N=pe.N)
        quad1 = nev_one(cfg.problem, z, pol, prec)
        for name, val in zip("ABCD", quad1):
            rep.add(f"{name}({key})", complex(val), N=pol.n_max, tol=pol.tail_tol)
        q2 = nev(cfg.problem, z, np.conj(z), pol, prec)
        rep.add(f"det_residual({key})", q2.det_residual, N=q2.N)
    for u, v in zip(points, points[1:]):
        q = nev(cfg.problem, u, v, pol, prec)
        pair = f"{fmt_complex(u)},{fmt_complex(v)}"
        for name, val in zip("ABCD", q.as_tuple()):
            rep.add(f"{name}({pair})", complex(val), N=q.N, tol=pol.tail_tol)
    _emit(rep, cfg)
    return EXIT_OK


def _cmd_support(args, cfg: RunConfig) -> int:
    t = ExtensionParam.parse(args.t if args.t is not None else "0")
    measure = build_measure(cfg.problem, t, cfg.scan, cfg.truncation,
                            n_check=args.n_check,
                            auto_window=not args.no_auto_window,
                            precision=cfg.precision)
    if cfg.format == "csv" and cfg.out not in (None, "-"):
        export_measure_csv(measure, cfg.out)
        return EXIT_OK
    rep = _new_report("support", cfg)
    rep.add("t", str(t))
    rep.add("window", f"{fmt_float(measure.window[0])}:{fmt_float(measure.window[1])}")
    rep.add("points", len(measure.points), N=measure.level)
    rep.add("captured_mass", measure.captured_mass, N=measure.level)
    rep.add("scan_warning", measure.scan_warning)
    for x, m in zip(measure.points, measure.masses):
        rep.add(f"x={fmt_float(x)}", m, N=measure.level)
    for n, r in enumerate(measure.moment_residuals):
        rep.add(f"moment_residual_{n}", float(r), N=measure.level, tol=1e-6)
    _emit(rep, cfg)
    return EXIT_OK


def _cmd_membership(args, cfg: RunConfig) -> int:
    parsed = parse_combination(args.spec)
    pol = cfg.truncation
    src = cfg.problem
    z0 = parse_complex(args.z0) if args.z0 is not None else 1.0j

    ev = evaluator_for(src, pol)
    w_value: Optional[complex] = None
    if parsed.uses_w:
        if parsed.t is None:
            raise SpecStringError("w coefficient needs an '@t' extension suffix",
                                  len(args.spec))
        lam = next(t.argument for t in parsed.terms if t.coefficient == "w")
        # the support node nearest lam is one of the two around Re lam
        _require_off_support(
            support_function(ev, parsed.t).nodes_near(lam.real, 1), lam)
        w_value = mobius(src, lam, 0.0, parsed.t, pol)

    vec: Optional[SeqVector] = None
    tabs = ev.tables([t.argument for t in parsed.terms])
    for term, tab in zip(parsed.terms, tabs):
        coef = w_value if term.coefficient == "w" else term.coefficient
        piece = SeqVector(coef * getattr(tab, term.kind))
        vec = piece if vec is None else vec + piece

    rep = _new_report("membership", cfg)
    rep.add("spec", args.spec)
    if w_value is not None:
        rep.add("w", w_value, N=pol.n_max)
    rep.add("degenerate_zero_vector", vec.norm() == 0.0)
    r = residues(src, vec, z0, pol)
    rep.add("residue_alpha", r.alpha, N=r.N)
    rep.add("residue_beta", r.beta, N=r.N)
    verdict = membership_DT(src, vec, z0, args.tol, pol)
    rep.add("in_DT", verdict.in_domain, N=pol.n_max, tol=args.tol)
    rep.add("DT_residual", verdict.residual, N=pol.n_max, tol=args.tol)
    if parsed.t is not None:
        vt = membership_DTt(src, vec, parsed.t, z0, args.tol, pol)
        rep.add(f"in_DTt({parsed.t})", vt.in_domain, N=pol.n_max, tol=args.tol)
        rep.add(f"DTt_residual({parsed.t})", vt.residual, N=pol.n_max, tol=args.tol)
    _emit(rep, cfg)
    return EXIT_OK


def _cmd_zeros(args, cfg: RunConfig) -> int:
    ev = evaluator_for(cfg.problem, cfg.truncation, cfg.precision)
    L = ev.level
    name = args.function
    pair = {"BtD": ("B", "D"), "AtC": ("A", "C")}.get(name)
    if pair is None:
        f = nevanlinna_line(ev, name)
    elif args.t is None:
        raise ValueError(f"{name} needs --t")
    else:
        t = ExtensionParam.parse(args.t)
        f = t.combine(*(nevanlinna_line(ev, n) for n in pair))
        name += f"@{t}"

    rep = _new_report("zeros", cfg)
    rep.add("function", name)
    if args.rect:
        parts = args.rect.split(":")
        if len(parts) != 4:
            raise ValueError("--rect needs re_lo:re_hi:im_lo:im_hi")
        rect = tuple(float(p) for p in parts)
        count = count_zeros_rect(f, rect)
        rep.add("rect", args.rect)
        rep.add("zero_count", count, N=L)
    else:
        scan = f.zeros(cfg.scan)
        rep.add("window", f"{fmt_float(cfg.scan.window[0])}:{fmt_float(cfg.scan.window[1])}")
        rep.add("count", len(scan.zeros), N=L)
        rep.add("suspected_missed", scan.warning)
        if scan.contour_count is not None:
            rep.add("contour_count", scan.contour_count, N=L)
        for z in scan.zeros:
            rep.add("zero", float(z), N=L, tol=cfg.scan.refine_tol)
    _emit(rep, cfg)
    return EXIT_OK


def _cmd_xi(args, cfg: RunConfig) -> int:
    entries = []
    with open(args.vector_file, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                entries.append(parse_complex(line))
            except ValueError as exc:
                print(f"error: {args.vector_file}:{lineno}: {exc}", file=sys.stderr)
                return EXIT_USAGE
    if not entries:
        print("error: empty vector file", file=sys.stderr)
        return EXIT_USAGE
    c = SeqVector.from_entries(entries)
    z0 = parse_complex(args.z0) if args.z0 is not None else 1.0j
    pol = cfg.truncation
    if c.M > pol.n_max:     # the residues sum to n_max: a longer vector is not judged
        print(f"error: the vector's top index {c.M} exceeds n_max = {pol.n_max}",
              file=sys.stderr)
        return EXIT_USAGE

    xi = xi_apply(cfg.problem, c, z0, pol)
    res = resolvent_residual(cfg.problem, c, z0, pol)
    verdict = membership_DT(cfg.problem, xi, 1.0j if z0.imag <= 0 else z0,
                            DEFAULT_MEMBERSHIP_TOL, pol)
    rep = _new_report("xi", cfg)
    rep.add("input_norm", c.norm())
    rep.add("xi_norm", xi.norm(), N=pol.n_max)
    rep.add("resolvent_residual", res, N=pol.n_max, tol=1e-10)
    rep.add("xi_in_DT", verdict.in_domain, N=pol.n_max, tol=verdict.tol)
    for k, val in enumerate(xi.entries):
        rep.add(f"xi_{k}", complex(val), N=pol.n_max)
    _emit(rep, cfg)
    return EXIT_OK


def _cmd_verify(args, cfg: RunConfig) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(cfg)
    rep = _new_report("verify", cfg)
    if cfg.precision != "standard":     # the header's precision reaches only these
        rep.add(f"{cfg.precision}_precision_checks",
                " ".join(r.name for r in results if r.precision == cfg.precision))
    all_pass = True
    for r in results:
        rep.add(r.name, "PASS" if r.passed else "FAIL",
                N=cfg.truncation.n_max, tol=r.tolerance)
        rep.add(r.name + ".measured", r.measured, N=cfg.truncation.n_max,
                tol=r.tolerance)
        all_pass = all_pass and r.passed
    rep.add("all_checks", "PASS" if all_pass else "FAIL")
    _emit(rep, cfg)
    for r in results:
        print(r.line(), file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILURE


def _join_negative_values(argv: List[str]) -> List[str]:
    """Turn `--window -8:8` into `--window=-8:8` so argparse accepts it."""
    joined: List[str] = []
    needs_value = {"--window", "--t", "--z0", "--rect"}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in needs_value and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        cfg = _config_from_args(args)
        handler = {
            "eval": _cmd_eval,
            "support": _cmd_support,
            "membership": _cmd_membership,
            "zeros": _cmd_zeros,
            "xi": _cmd_xi,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args, cfg)
    except (ValueError, FileNotFoundError, SpecStringError, BasepointError,
            CoefficientFileError, CoefficientRangeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except IndmomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
