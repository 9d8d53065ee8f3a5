"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from outside the library, on the module attribute
(or class attribute) that the calling code looks up at run time, so the
library itself stays unmodified. Each call records a span
``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span (-1 for none). Standard library only: this module is
imported before the timed ``import cbdf``.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Recorder:
    """Spans and extra counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = [-1]

    def wrap(self, fn, name, count=None):
        """A function that records a span named ``name`` around ``fn``.

        ``count(args)``, when given, returns ``{counter: increment}`` added
        to ``self.counters`` on every call.
        """
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, inc in count(args).items():
                    counters[key] += inc
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr, name, count=None) -> bool:
        """Replace ``owner.attr`` with its traced version; False if absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        setattr(owner, attr, self.wrap(fn, name, count))
        return True

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of its own and return the result."""
        return self.wrap(fn, name)(*args)

    def clear(self):
        self.spans.clear()
        self.counters.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Per-span duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children never overlap
    and their summed durations are exactly the part of the parent's
    interval that they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """``{name: {"calls": n, "self_s": seconds}}`` over all spans."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name]["calls"] += 1
        out[name]["self_s"] += own
    return dict(out)


def count_with_child(spans, parent_name, child_name) -> int:
    """Number of ``parent_name`` spans with at least one direct ``child_name`` child."""
    parents = {s[3] for s in spans if s[0] == child_name and s[3] >= 0}
    return sum(1 for i in parents if spans[i][0] == parent_name)


def count_children_of(spans, parent_name, child_name) -> int:
    """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(1 for s in spans if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name)
