"""In-memory span tracer for the benchmark's traced runs.

A wrapper is installed on a module or class attribute, so every call made
through that name records a span: name, start, end and the index of the
enclosing span. Patching the name in the module that imports it catches the
calls that cross a module boundary; patching a module's own global catches
the calls a module makes to itself (``evolve_walk`` -> ``qw_step``). Spans
and counters stay in memory; the caller writes them out when the run ends.
Everything here assumes one thread, which is how the benchmark runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

MARK = "__perfbench_span__"

# span record fields
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``on_call(tracer, args, kwargs)`` may return a tag stored with the
        span; ``on_return(tracer, result)`` sees the result. Both run inside
        the span, so their cost is part of the traced time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = tracer.clock()
            try:
                if on_call is not None:
                    rec[TAG] = on_call(tracer, args, kwargs)
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(tracer, result)
                return result
            finally:
                rec[END] = tracer.clock()
                stack.pop()

        setattr(wrapper, MARK, name)
        return wrapper

    def patch(self, owner, attr: str, name: str, on_call=None, on_return=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = vars(owner)[attr]
        if getattr(original, MARK, None) is not None:
            raise RuntimeError(f"{owner.__name__}.{attr} is already wrapped")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call, on_return))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        original = vars(owner)[attr]
        counts = self.counts

        @functools.wraps(original)
        def counter(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(counter, MARK, key)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, counter)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def durations(self) -> list[float]:
        return [s[END] - s[START] for s in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one span run one after another in a single thread, so
        they cover disjoint parts of the parent's interval.
        """
        dur = self.durations()
        own = list(dur)
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        return own

    def by_name(self) -> dict[str, dict]:
        """calls, total seconds and self seconds per span name."""
        out: dict[str, dict] = {}
        for s, d, own in zip(self.spans, self.durations(), self.self_times()):
            agg = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += d
            agg["self_s"] += own
        return out

    def by_module(self) -> dict[str, dict]:
        """Inclusive and self seconds per module (the name's first part).

        A module's inclusive time sums its outermost spans only: a span with
        an ancestor from the same module is already inside that ancestor.
        """
        out: dict[str, dict] = {}
        mods = [s[NAME].split(".", 1)[0] for s in self.spans]
        for i, (d, own) in enumerate(zip(self.durations(), self.self_times())):
            agg = out.setdefault(mods[i], {"incl_s": 0.0, "self_s": 0.0})
            agg["self_s"] += own
            p = self.spans[i][PARENT]
            while p >= 0 and mods[p] != mods[i]:
                p = self.spans[p][PARENT]
            if p < 0:
                agg["incl_s"] += d
        return out


def wrapped_attributes(owners) -> list[str]:
    """Names of the attributes of ``owners`` that carry a benchmark wrapper."""
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{owner.__name__}.{attr}")
    return found
