"""Which indmom functions the traced run wraps, and the per-layer metrics.

Every metric is named after the module in ``src/indmom/`` whose functions
produce it.  The spans come from :mod:`tracer`; counts that spans cannot
give (tables resident in the evaluator caches, the kernel timings) are
passed in by the workload as ``extra``.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

ACCEPTANCE_GROUPS = ("determinant", "dual_form", "three_point", "pick",
                     "measures", "supports", "stieltjes", "membership",
                     "signs", "extensions", "xi", "tilde")

RECURRENCE = "evaluation.recurrence_batch"
MP = "evaluation.recurrence_mp"
TABLE = "evaluation.Evaluator.table"
REAL_ZEROS = "zeros.real_zeros"
FALLBACK = "zeros.fallback"


def install(tracer):
    """Wrap the traced functions; returns the names that could not be found."""
    import indmom.coefficients as coefficients
    import indmom.evaluation as evaluation
    import indmom.acceptance  # noqa: F401  (loads acceptance and cli so
    import indmom.cli         # noqa: F401   their bindings get rebound)

    def count_points(args, kwargs):
        zs = args[2] if len(args) > 2 else kwargs["zs"]
        return args, kwargs, int(np.size(zs))

    def trace_fallback(args, kwargs):
        # the high-precision retry is handed to real_zeros as an argument
        if kwargs.get("fallback") is not None:
            kwargs = dict(kwargs, fallback=tracer.wrap(FALLBACK, kwargs["fallback"]))
        elif len(args) > 3 and args[3] is not None:
            args = args[:3] + (tracer.wrap(FALLBACK, args[3]),) + args[4:]
        return args, kwargs, None

    tracer.patch_method(coefficients.JacobiCoefficients, "arrays",
                        "coefficients.JacobiCoefficients.arrays")
    tracer.patch_method(evaluation.Evaluator, "table", TABLE)
    plan = [
        ("indmom.evaluation", "recurrence_batch", dict(before=count_points)),
        ("indmom.evaluation", "recurrence_mp", {}),
        ("indmom.nevanlinna", "nev", {}),
        ("indmom.nevanlinna", "partial_quad_arrays", {}),
        ("indmom.zeros", "real_zeros",
         dict(before=trace_fallback,
              after=lambda scan: (len(scan.zeros), bool(scan.warning)))),
        ("indmom.zeros", "count_zeros_rect", {}),
        ("indmom.measures", "build_measure", {}),
        ("indmom.measures", "nextremal_support", {}),
        ("indmom.measures", "stieltjes", {}),
        ("indmom.measures", "adjacent_zero_sign", {}),
        ("indmom.domains", "residues", {}),
        ("indmom.domains", "membership_DT", {}),
        ("indmom.domains", "membership_DTt", {}),
        ("indmom.domains", "p_vector", {}),
        ("indmom.domains", "q_vector", {}),
        ("indmom.domains", "pair_coefficient",
         dict(after=lambda coef: coef is not None)),
        ("indmom.debranges", "xi_apply", {}),
        ("indmom.sequences", "apply_jacobi", {}),
        ("indmom.sequences", "moment", {}),
        ("indmom.acceptance", "run_acceptance", {}),
        ("indmom.acceptance", "_measures_for", {}),
        ("indmom.cli", "main", {}),
    ] + [("indmom.acceptance", f"_check_{g}", {}) for g in ACCEPTANCE_GROUPS]
    missing = []
    for module, attr, hooks in plan:
        if not hasattr(sys.modules[module], attr):
            missing.append(f"{module}.{attr}")
            continue
        tracer.patch_function(module, attr, **hooks)
    return missing


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(ix, extra):
    """Per-layer metric values from a :class:`tracer.SpanIndex`."""
    spans = ix.spans
    m = {}

    m["coefficients.arrays_calls"] = ix.calls("coefficients.JacobiCoefficients.arrays")
    m["coefficients.arrays_s"] = ix.total("coefficients.JacobiCoefficients.arrays")

    tables = ix.of(TABLE)
    misses = sum(1 for i in tables
                 if any(spans[c][0] in (RECURRENCE, MP) for c in ix.children[i]))
    m["evaluation.table_calls"] = len(tables)
    m["evaluation.table_hit_ratio"] = _ratio(len(tables) - misses, len(tables))
    m["evaluation.tables_cached"] = extra["tables_cached"]

    batches = [spans[i][5] for i in ix.of(RECURRENCE)]
    m["evaluation.recurrence_calls"] = len(batches)
    m["evaluation.recurrence_points"] = sum(batches)
    m["evaluation.recurrence_batch_p50"] = statistics.median(batches) if batches else 0
    m["evaluation.scalar_recurrences"] = sum(1 for b in batches if b == 1)
    m["evaluation.recurrence_s"] = ix.total(RECURRENCE)
    for key in ("us_per_point_b1", "us_per_point_b256", "us_per_point_b4096",
                "mp_table_ms"):
        m[f"evaluation.{key}"] = extra[key]
    m["evaluation.mp_tables"] = ix.calls(MP)
    m["evaluation.mp_s"] = ix.total(MP)

    m["nevanlinna.nev_calls"] = ix.calls("nevanlinna.nev")
    m["nevanlinna.nev_self_s"] = ix.self_total("nevanlinna.nev")
    m["nevanlinna.partial_quad_s"] = ix.total("nevanlinna.partial_quad_arrays")

    scans = ix.of(REAL_ZEROS)
    scan_points = sum(s[5] if s[0] == RECURRENCE else 1
                      for i, s in enumerate(spans)
                      if s[0] in (RECURRENCE, MP) and REAL_ZEROS in ix.ancestors[i])
    roots = sum(spans[i][5][0] for i in scans if spans[i][5] is not None)
    m["zeros.real_zeros_calls"] = len(scans)
    m["zeros.real_zeros_self_s"] = ix.self_total(REAL_ZEROS)
    m["zeros.scan_points"] = scan_points
    m["zeros.roots_per_kpoint"] = 1000.0 * _ratio(roots, scan_points)
    m["zeros.fallback_calls"] = ix.calls(FALLBACK)
    m["zeros.scan_warnings"] = sum(1 for i in scans
                                   if spans[i][5] is not None and spans[i][5][1])
    m["zeros.contour_calls"] = ix.calls("zeros.count_zeros_rect")
    m["zeros.contour_s"] = ix.total("zeros.count_zeros_rect")

    builds = ix.of("measures.build_measure")
    support_scans = sum(1 for i in ix.of("measures.nextremal_support")
                        if "measures.build_measure" in ix.ancestors[i])
    m["measures.build_calls"] = len(builds)
    m["measures.build_s"] = ix.total("measures.build_measure")
    m["measures.scans_per_build"] = _ratio(support_scans, len(builds))
    m["measures.stieltjes_s"] = ix.total("measures.stieltjes")
    m["measures.adjacent_zero_s"] = ix.total("measures.adjacent_zero_sign")

    pairs = ix.of("domains.pair_coefficient")
    m["domains.residues_calls"] = ix.calls("domains.residues")
    m["domains.residues_s"] = ix.total("domains.residues")
    m["domains.membership_s"] = ix.total("domains.membership_DT", "domains.membership_DTt")
    m["domains.vector_s"] = ix.total("domains.p_vector", "domains.q_vector")
    m["domains.pair_coefficient_yield"] = _ratio(
        sum(1 for i in pairs if spans[i][5]), len(pairs))

    m["debranges.xi_apply_calls"] = ix.calls("debranges.xi_apply")
    m["debranges.xi_apply_s"] = ix.total("debranges.xi_apply")
    m["sequences.apply_jacobi_calls"] = ix.calls("sequences.apply_jacobi")
    m["sequences.apply_jacobi_s"] = ix.total("sequences.apply_jacobi")
    m["sequences.moment_s"] = ix.total("sequences.moment")

    m["acceptance.measure_build_s"] = ix.total("acceptance._measures_for")
    for group in ACCEPTANCE_GROUPS:
        m[f"acceptance.{group}_s"] = ix.total(f"acceptance._check_{group}")
    m["cli.overhead_s"] = ix.total("cli.main") - ix.total("acceptance.run_acceptance")

    m["trace.overhead_s"] = extra["trace_overhead_s"]
    m["trace.spans"] = len(spans)
    return m
