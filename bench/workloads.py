"""The benchmark workloads: ``verify``, ``pointwise`` and ``supports``.

Each workload is set up from a seed (inputs, coefficient file, evaluators)
and then runs numbered tasks, one at a time, from a single caller: a closed
loop.  Every task records its checks in a :class:`Checks`; a check that
raises counts as failed, and no check is skipped.  The workloads call the
library only through the attributes of the ``indmom`` modules, looked up at
call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import tempfile
import time

import numpy as np

import indmom
import indmom.cli
import indmom.evaluation

MEMBERSHIP_TOL = 1e-7


class Checks:
    """Attempted and failed checks, per kind, with the first error of each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.errors = {}

    def record(self, kind, ok, error=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[kind] = self.failures.get(kind, 0) + 1
            if error is not None:
                self.errors.setdefault(kind, error)

    def attempt(self, kind, compute, passes):
        """Run ``compute``; the check passes when ``passes(value)`` holds.

        Returns the value, or None when ``compute`` raised.
        """
        try:
            value = compute()
            ok = bool(passes(value))
        except Exception as exc:  # a raising task counts as a failed check
            self.record(kind, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(kind, ok)
        return value


def disk(rng, n, radius):
    """n seeded points, uniform in the disk |z| <= radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def tables_resident():
    """Point tables held by all cached evaluators (an internal count)."""
    evs = getattr(indmom.evaluation, "_EVALUATORS", {})
    return sum(len(getattr(ev, "_cache", ())) for ev in evs.values())


class Workload:
    tasks = None      # fixed task count of a run; None runs for --seconds
    trace_tasks = 1   # task count of the traced pass of the traced run
    trace_base = 1    # leading tasks also run untraced, for the tracing overhead
    level = 500       # shared truncation level n_max

    def __init__(self, seed, workdir):
        self.checks = Checks()
        self.problems = []   # benchmark-side consistency failures

    def prepare(self):
        """Construct the evaluators the tasks use (part of set-up)."""

    def start_pass(self):
        self.checks = Checks()

    def task(self, i):
        raise NotImplementedError

    def tables_cached(self):
        return tables_resident()

    def correct(self, failed):
        """Whether the outputs checked out, given the failed check count."""
        return not self.problems and failed == 0

    def details(self):
        return {}


class Verify(Workload):
    """The acceptance suite through ``indmom.cli.main``, c=2 then c=3."""

    SUITES = (("c=2", ("verify",)), ("c=3", ("--c", "3", "verify")))
    tasks = trace_tasks = 2
    trace_base = 1    # the c=2 suite: keeps the traced run within its time limit

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reports = {}
        self.runs = {label: 0 for label, _ in self.SUITES}
        self.resident = 0

    def start_pass(self):
        super().start_pass()
        self.resident = 0

    def task(self, i):
        label, argv = self.SUITES[i % len(self.SUITES)]
        # each suite starts from empty caches, as one `indmom verify` process does
        indmom.evaluation.clear_evaluator_cache()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = indmom.cli.main(list(argv))
        except Exception as exc:  # a raising suite counts as one failed check
            self.checks.record(f"{label}/suite", False, f"{type(exc).__name__}: {exc}")
            self.problems.append(f"{label}: suite raised {type(exc).__name__}")
            return
        self.runs[label] += 1
        self.resident = max(self.resident, tables_resident())

        report = out.getvalue()
        verdicts = {name: v for name, v in
                    re.findall(r"^(\S+) = (PASS|FAIL)\b", report, re.M)
                    if name != "all_checks"}
        lines = {name: v for v, name in
                 re.findall(r"^(PASS|FAIL) (\S+?):", err.getvalue(), re.M)}
        for name, verdict in verdicts.items():
            self.checks.record(f"{label}/{name}", verdict == "PASS")

        all_pass = all(v == "PASS" for v in verdicts.values())
        summary = re.search(r"^all_checks = (PASS|FAIL)$", report, re.M)
        if not verdicts:
            self.problems.append(f"{label}: report lists no criteria")
        if lines != verdicts:
            self.problems.append(f"{label}: stderr verdicts differ from the report")
        if summary is None or (summary.group(1) == "PASS") != all_pass:
            self.problems.append(f"{label}: all_checks line disagrees with the criteria")
        if code != (0 if all_pass else 1):
            self.problems.append(f"{label}: exit code {code} with all_pass={all_pass}")
        first = self.reports.setdefault(label, report)
        if report != first:
            self.problems.append(f"{label}: report bytes differ between repeats")

    def tables_cached(self):
        return self.resident

    def correct(self, failed):
        # criterion verdicts are what the suite outputs; a FAIL is counted
        # in `failed`, and the output is correct when it is consistent
        return not self.problems

    def details(self):
        return {"suite_runs": self.runs}


class Pointwise(Workload):
    """Seeded point triples through the identity web and the domain tests."""

    level = 1000
    trace_tasks = trace_base = 256
    ANCHORS = 64
    RADIUS = 2.5
    EXTENDED_EVERY = 16   # one task in 16 also builds an mpmath table

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.src = indmom.JacobiCoefficients.power_law(2.0)
        self.pol = indmom.TruncationPolicy(n_max=self.level)
        self.rng = np.random.default_rng([seed, 2])
        self.anchors = disk(self.rng, self.ANCHORS, self.RADIUS)
        self.one_fresh_slot = int(self.rng.integers(4))
        # the mpmath tasks all fall on one-fresh-point tasks, so they differ
        # little among themselves and the tail percentile lands among them
        self.extended_slot = self.one_fresh_slot + 4 * int(self.rng.integers(4))
        self.inputs = []
        self._extend(4096)

    def _extend(self, n):
        rng = self.rng
        first = len(self.inputs)
        fresh = disk(rng, 3 * n, self.RADIUS).reshape(n, 3)
        pooled = self.anchors[rng.integers(self.ANCHORS, size=(n, 3))]
        # Two of (u, v, w) are fresh points in three tasks of four and one in
        # the fourth, so 42 % of the points repeat from the (pre-warmed)
        # anchor pool.  A fixed mix keeps the median task inside the
        # two-miss group instead of on the edge between groups.
        n_fresh = np.where((first + np.arange(n)) % 4 == self.one_fresh_slot, 1, 2)
        rank = rng.permuted(np.tile(np.arange(3), (n, 1)), axis=1)
        pts = np.where(rank < n_fresh[:, None], fresh, pooled)
        alphas = disk(rng, n, 2.0)
        z_ext = disk(rng, n, self.RADIUS)
        tops = rng.integers(1, 101, size=n)
        for k in range(n):
            c = rng.normal(size=tops[k] + 1) + 1j * rng.normal(size=tops[k] + 1)
            self.inputs.append((*pts[k], c, alphas[k], z_ext[k]))

    def prepare(self):
        ev = indmom.evaluation.evaluator_for(self.src, self.pol)
        for z in self.anchors:
            ev.table(z)
        indmom.evaluation.evaluator_for(self.src, self.pol, "extended")

    def task(self, i):
        if i >= len(self.inputs):
            self._extend(4096)
        u, v, w, c, alpha, z_ext = self.inputs[i]
        src, pol, ck = self.src, self.pol, self.checks
        vec = indmom.SeqVector(c)

        quad = ck.attempt("det", lambda: indmom.nev(src, u, v, pol),
                          lambda q: q.det_residual < 1e-9)
        ck.attempt("three_point",
                   lambda: indmom.three_point_residual(src, u, v, w, pol),
                   lambda r: r < 1e-8)
        ck.attempt("resolvent", lambda: indmom.resolvent_residual(src, vec, w, pol),
                   lambda r: r < 1e-10)
        ck.attempt("membership_in",
                   lambda: indmom.membership_DT(src, vec, 1j, MEMBERSHIP_TOL, pol),
                   lambda m: m.in_domain)
        if quad is None or abs(quad.D) > 0.1:
            def combination():
                pu = indmom.p_vector(src, u, pol).entries
                pv = indmom.p_vector(src, v, pol).entries
                return indmom.membership_DT(src, indmom.SeqVector(pu + alpha * pv),
                                            1j, MEMBERSHIP_TOL, pol)
            ck.attempt("membership_out", combination, lambda m: not m.in_domain)
        if i % self.EXTENDED_EVERY == self.extended_slot:
            ck.attempt("extended",
                       lambda: (indmom.eval_pq(src, z_ext, pol, precision="extended"),
                                indmom.eval_pq(src, z_ext, pol)),
                       lambda pair: abs(pair[0].cum_p2 - pair[1].cum_p2)
                       <= 1e-9 * abs(pair[1].cum_p2))


class Supports(Workload):
    """Auto-window N-extremal measures and Stieltjes transforms."""

    # two rounds over the sources: a round at t = infinity, then one at
    # seeded t.  A fixed count keeps every run at two builds per source;
    # cutting seconds-long builds at a deadline would change the mix.
    tasks = trace_tasks = 6
    trace_base = 3
    LAMBDAS = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        path = os.path.join(workdir, "alternating.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# a_n = (n+1)^2, b_n = 0.3(-1)^n\n")
            for n in range(self.level + 64):
                fh.write(f"{float(n + 1) ** 2:.17g} {0.3 * (-1) ** n:.17g}\n")
        self.sources = (indmom.JacobiCoefficients.power_law(1.5),
                        indmom.JacobiCoefficients.power_law(3.0),
                        indmom.JacobiCoefficients.from_file(path))
        self.pol = indmom.TruncationPolicy(n_max=self.level)
        self.start = indmom.RootScanConfig(window=(-5.0, 5.0))
        self.rng = np.random.default_rng([seed, 3])
        self.inputs = []
        self._extend(96)

    def _extend(self, n):
        rng = self.rng
        for _ in range(n):
            i = len(self.inputs)
            if i < len(self.sources):   # the first round sweeps t = infinity
                t = indmom.ExtensionParam.infinite()
            else:                       # then t spread over the real line
                t = indmom.ExtensionParam.finite(np.tan(np.pi * (rng.uniform() - 0.5)))
            lams = (rng.uniform(-3.0, 3.0, self.LAMBDAS)
                    + 1j * rng.uniform(0.3, 2.5, self.LAMBDAS))
            self.inputs.append((t, lams))

    def prepare(self):
        for src in self.sources:
            indmom.evaluation.evaluator_for(src, self.pol)

    def task(self, i):
        if i >= len(self.inputs):
            self._extend(96)
        src = self.sources[i % len(self.sources)]
        t, lams = self.inputs[i]
        pol, ck = self.pol, self.checks
        try:
            m = indmom.build_measure(src, t, self.start, pol, n_check=6,
                                     auto_window=True)
        except Exception as exc:  # every check of the task fails
            err = f"{type(exc).__name__}: {exc}"
            for kind in ("moments", "mass", "scan_warning"):
                ck.record(kind, False, err)
            for _ in lams:
                ck.record("stieltjes", False, err)
            return
        ck.record("moments", float(np.max(m.moment_residuals)) < 1e-6)
        ck.record("mass", abs(m.captured_mass - 1.0) <= 1e-6)
        ck.record("scan_warning", not m.scan_warning)
        for lam in lams:
            ck.attempt("stieltjes", lambda: indmom.stieltjes(src, t, lam, m, pol),
                       lambda st: st.spread <= 1e-8)


WORKLOADS = {"verify": Verify, "pointwise": Pointwise, "supports": Supports}


def run_pass(wl, seconds=None, ntasks=None, tracer=None, now=time.perf_counter):
    """Run ``ntasks`` tasks, or tasks until ``seconds`` have passed on ``now``.

    Returns raw perf_counter stamps: the pass's start and end and each
    task's (start, end).
    """
    wl.start_pass()
    stamps = []
    start = time.perf_counter()
    begun = now()
    i = 0
    while True:
        if ntasks is not None:
            if i >= ntasks:
                break
        elif i and now() - begun >= seconds:
            break
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        wl.task(i)
        stamps.append((t0, time.perf_counter()))
        i += 1
    return {"start": start, "end": time.perf_counter(), "stamps": stamps,
            "checks": wl.checks}


def kernel_timings(level, seed):
    """Direct recurrence calls at the workload's level (ROADMAP layer numbers).

    Returns, per metric, the raw (start, end) stamps of each repeat and the
    divisor that turns one repeat's duration into the metric's unit.
    """
    rng = np.random.default_rng([seed, 4])
    a, b = indmom.JacobiCoefficients.power_law(2.0).arrays(level + 1)
    out = {}
    for npts, reps in ((1, 50), (256, 5), (4096, 3)):
        zs = disk(rng, npts, 2.5)
        stamps = []
        for _ in range(reps):
            t0 = time.perf_counter()
            indmom.evaluation.recurrence_batch(a, b, zs, level + 1)
            stamps.append((t0, time.perf_counter()))
        out[f"us_per_point_b{npts}"] = (stamps, 1e-6 * npts)
    z = complex(disk(rng, 1, 2.5)[0])
    stamps = []
    for _ in range(3):
        t0 = time.perf_counter()
        indmom.evaluation.recurrence_mp(a, b, z, level + 1, 32)
        stamps.append((t0, time.perf_counter()))
    out["mp_table_ms"] = (stamps, 1e-3)
    return out


def make_workdir(root):
    base = os.path.join(root, ".bench_out")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=base)


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
