"""One workload process: set up, signal ready, run, report.

Started by ``run.py`` in a fresh interpreter.  Prints ``READY <setup_s>``
once set-up is done (importing indmom, generating the inputs, writing the
coefficient file, constructing the evaluators), where ``setup_s`` counts
from ``--t0``, the parent's launch stamp.  Unless ``--mode setup`` it then
prints one ``RESULT <json>`` line at the end.  All reported times are in
reference seconds (see ``speed.py``); raw wall times go alongside.

Modes:
  setup  set up and exit (a set-up time sample);
  run    run the workload with tracing off;
  trace  run the first ``trace_base`` tasks untraced, then ``trace_tasks``
         tasks traced from empty caches; report the per-layer metrics and
         the tracing overhead (traced minus untraced time of the shared
         tasks).
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")   # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    probe = speed.SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, default=T_START)
    args = ap.parse_args()

    if not (SRC / "indmom" / "__init__.py").is_file():
        sys.exit(f"indmom sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import indmom
    if Path(indmom.__file__).resolve().parent != SRC / "indmom":
        sys.exit(f"imported indmom from {indmom.__file__}, not from {SRC}")

    import workloads
    workdir = workloads.make_workdir(str(ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        ready = time.perf_counter()
        clock = probe.clock()
        print(f"READY {float(clock(ready) - clock(args.t0))!r}", flush=True)
        if args.mode == "setup":
            probe.stop()
            return
        if args.mode == "run":
            result = run(wl, args, probe)
        else:
            result = trace(wl, args, probe)
    finally:
        workloads.remove_workdir(workdir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["speed"] = probe.summary()
    print("RESULT " + json.dumps(result), flush=True)


def summary(wl, passes):
    attempted = sum(p["checks"].attempted for p in passes)
    failed = sum(p["checks"].failed for p in passes)
    failures, errors = {}, {}
    for p in passes:
        for kind, n in p["checks"].failures.items():
            failures[kind] = failures.get(kind, 0) + n
        for kind, e in p["checks"].errors.items():
            errors.setdefault(kind, e)
    return {"correct": wl.correct(failed),
            "attempted": attempted, "failed": failed, "failures": failures,
            "errors": errors, "problems": wl.problems, "details": wl.details()}


def durations(clock, stamps):
    """Reference-second durations of (start, end) stamp pairs."""
    st = np.asarray(stamps, dtype=float).reshape(-1, 2)
    return (clock(st[:, 1]) - clock(st[:, 0])).tolist()


def run(wl, args, probe):
    import workloads
    p = workloads.run_pass(wl, seconds=args.seconds, ntasks=wl.tasks, now=probe.now)
    probe.stop()
    clock = probe.clock()
    out = summary(wl, [p])
    out.update(wall_s=durations(clock, [(p["start"], p["end"])])[0],
               raw_wall_s=p["end"] - p["start"],
               latencies_s=durations(clock, p["stamps"]),
               tables_cached=wl.tables_cached())
    return out


def trace(wl, args, probe):
    import statistics

    import indmom.evaluation
    import layers
    import tracer as tracing
    import workloads

    base = workloads.run_pass(wl, ntasks=wl.trace_base)
    indmom.evaluation.clear_evaluator_cache()
    wl.prepare()
    tr = tracing.Tracer()
    try:
        missing = layers.install(tr)
        traced = workloads.run_pass(wl, ntasks=wl.trace_tasks, tracer=tr)
        cached = wl.tables_cached()
    finally:
        tr.restore()
    kernels = workloads.kernel_timings(wl.level, args.seed)
    probe.stop()
    clock = probe.clock()

    n = wl.trace_base
    base_s = sum(durations(clock, base["stamps"]))
    traced_s = sum(durations(clock, traced["stamps"][:n]))
    extra = {"tables_cached": cached, "trace_overhead_s": traced_s - base_s}
    for key, (stamps, unit) in kernels.items():
        extra[key] = statistics.median(durations(clock, stamps)) / unit
    tr.to_clock(clock)
    per_layer = layers.metrics(tracing.SpanIndex(tr.spans), extra)
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write(spans_path)

    out = summary(wl, [base, traced])
    out.update(per_layer=per_layer, missing_hooks=missing,
               spans_file=str(spans_path.relative_to(ROOT)),
               overhead_tasks=n, untraced_s=base_s, traced_s=traced_s,
               tasks=wl.trace_tasks)
    return out


if __name__ == "__main__":
    main()
