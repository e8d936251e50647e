"""indmom benchmark: one command that runs a workload, checks it, prints metrics.

    python3 bench/run.py --workload {verify,pointwise,supports} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program under test is imported
from the checkout's ``src/``.  Each workload runs in fresh worker processes
(``worker.py``) with BLAS/OpenMP pinned to one thread.  With ``--trace 0``
the last stdout line carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics.
The line before it holds the environment and run details, which are also
written to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "pointwise", "supports")
SETUP_SAMPLES = 3      # fresh processes whose set-up is timed; median reported
DEADLINE_S = 170.0     # the whole command stays under three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": 1, "platform": platform.platform()}


def _lines(proc, deadline):
    """Yield the worker's stdout lines, failing once the deadline passes."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("worker exceeded the time limit")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            if buf:
                yield buf.decode()
            return
        buf += chunk


def run_worker(args, mode, deadline):
    """Start one worker; return (set-up time, raw set-up wall time, result dict).

    The set-up time runs from the launch to the worker's READY, in the
    worker's reference seconds.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE)
    ready_s, raw_s, result = None, None, None
    try:
        for line in _lines(proc, deadline):
            if line.startswith("READY "):
                raw_s = time.perf_counter() - t0
                ready_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or (mode != "setup" and result is None):
        raise BenchError(f"worker ({mode}) failed with exit code {code}")
    return ready_s, raw_s, result


def tail(latencies):
    """Highest percentile with at least 10 samples above it (the max below 11)."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "indmom" / "__init__.py").is_file():
        print(f"error: no indmom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S

    try:
        samples = [] if args.trace else [run_worker(args, "setup", deadline)
                                         for _ in range(SETUP_SAMPLES - 1)]
        samples.append(run_worker(args, "trace" if args.trace else "run", deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup = [s[0] for s in samples]
    res = samples[-1][2]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "setup_samples_s": setup, "raw_setup_samples_s": [s[1] for s in samples],
              "fail_ratio": res["failed"] / res["attempted"] if res["attempted"] else 1.0}
    if args.trace:
        values = res.pop("per_layer")
        wanted = spec["per_layer"]
    else:
        lat = res.pop("latencies_s")
        tail_s, tail_pct = tail(lat)
        values = {"setup_s": statistics.median(setup),
                  "wall_s": res["wall_s"],
                  "tasks_per_s": len(lat) / res["wall_s"],
                  "task_p50_ms": 1e3 * statistics.median(lat),
                  "task_tail_ms": 1e3 * tail_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
        detail.update(tasks=len(lat), task_tail_percentile=tail_pct,
                      task_tail_samples_beyond=10 if len(lat) > 10 else 0)
    detail.update(res)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1),
                      encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
