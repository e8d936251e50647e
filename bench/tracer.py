"""Span tracer that wraps indmom's public functions from outside the package.

Modules bind imported names at import time (``real_zeros`` lives in
``zeros`` and is also bound in ``measures``, ``acceptance`` and ``cli``), so
patching one module is not enough: :meth:`Tracer.patch_function` rebinds the
name in every loaded ``indmom`` module that holds the original object, and
:meth:`Tracer.restore` puts every original back.

A span is ``[name, start, end, parent, task, info]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``task`` the benchmark task
id current when the span opened, and ``info`` an optional note taken by a
hook (batch size, roots found, ...).  Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "indmom"


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args, kwargs) -> (args, kwargs, info)`` may rewrite the call
        and note something about it; ``after(result) -> info`` notes
        something about the result (it replaces the ``before`` note).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if before is not None:
                args, kwargs, info = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                rec[5] = after(out)
            return out

        return traced

    def patch_function(self, module, attr, name=None, before=None, after=None):
        """Rebind ``module.attr`` in every loaded indmom module that holds it."""
        original = getattr(sys.modules[module], attr)
        wrapped = self.wrap(name or f"{module.split('.')[-1]}.{attr}", original,
                            before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, before, after))
        self._patches.append((cls, attr, original))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def to_clock(self, clock):
        """Re-express span stamps through ``clock`` (vectorized stamp mapping)."""
        if not self.spans:
            return
        starts = clock([rec[1] for rec in self.spans])
        ends = clock([rec[2] for rec in self.spans])
        for rec, a, b in zip(self.spans, starts, ends):
            rec[1], rec[2] = float(a), float(b)

    def write(self, path):
        """Dump the spans as JSON lines: name, start, end, parent, task, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str) + "\n")


class SpanIndex:
    """Derived per-span facts: duration, self time, ancestry flags."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * n
        self.children = [[] for _ in range(n)]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += self.dur[i]
                self.children[s[3]].append(i)
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]
        # names of all ancestors, for "outermost span of its name" and
        # "evaluated under a real_zeros span" questions
        self.ancestors = [frozenset()] * n
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                self.ancestors[i] = self.ancestors[p] | {spans[p][0]}

    def of(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, *names):
        """Wall time inside spans of these names, nested repeats counted once."""
        names = set(names)
        return sum(self.dur[i] for i, s in enumerate(self.spans)
                   if s[0] in names and not (self.ancestors[i] & names))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.of(name))
