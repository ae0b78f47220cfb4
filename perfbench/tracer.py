"""Spans around calls into topotype's public functions, recorded from outside.

``Tracer`` replaces every public module-level function of the package with a
timing wrapper, in every ``topotype.*`` namespace that binds it: a module
that did ``from .residues import part_wz`` holds its own reference, which
must be wrapped too.  It keeps per-function totals (calls, inclusive and
self seconds), call-graph edge counts and, up to a cap, the spans
themselves (name, start, end, parent, command), all in memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "topotype"
SPAN_CAP = 50_000  # spans kept in memory; the rest are only counted


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] or PACKAGE


class Tracer:
    """Install with ``with Tracer() as tracer:``; the wrappers are removed
    again on exit."""

    def __init__(self):
        self.stats: dict = {}  # name -> [calls, inclusive s, self s]
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.spans: list = []  # (id, name, command, start, end, parent id)
        self.dropped = 0
        self.command = 0  # index of the command being run; set by the caller
        self._stack: list = []  # [name, seconds covered by children, span id]
        self._next_id = 0
        self._patched: list = []  # (module, attribute, original)

    def __enter__(self):
        targets = {}
        for module in _modules():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(value)):
                    targets[id(value)] = (value, f"{_short(module.__name__)}.{attr}")
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for _, name in targets.values():
            self.stats.setdefault(name, [0, 0.0, 0.0])
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        totals = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                self.edges[(parent[0] if parent else None, name)] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, self.command, start, end,
                                       parent[2] if parent else None))
                else:
                    self.dropped += 1

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def write(self, path, extra: dict) -> None:
        """Write totals, edges and the kept spans as JSON."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc.update({
            "stats": {n: {"calls": c, "inclusive_s": i, "self_s": s}
                      for n, (c, i, s) in sorted(self.stats.items())},
            "edges": [[p, c, k] for (p, c), k in sorted(self.edges.items(), key=str)],
            "span_fields": ["id", "name", "command", "start_s", "end_s", "parent"],
            "span_names": names,
            "spans": [[i, index[n], cmd, round(s, 7), round(e, 7), par]
                      for i, n, cmd, s, e, par in self.spans],
            "spans_dropped": self.dropped,
        })
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
