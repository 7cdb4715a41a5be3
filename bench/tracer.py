"""Layer spans recorded from outside the program, and the arithmetic on them.

The tracer replaces each traced function at the name its callers look up
(a module attribute, a classmethod or a method) with a wrapper that records
one span per call: name, start, end, parent span, pass id and whether the
call raised.  Spans stay in memory until the run ends.  Only the calling
process is traced.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple, Optional

# Candidate percentiles for a tail latency, lowest first.
TAIL_CANDIDATES = (50, 90, 99, 99.9)


class Span(NamedTuple):
    sid: int
    name: str
    start: float      # perf_counter seconds
    end: float
    parent: Optional[int]
    pass_id: Optional[int]
    error: bool


class Target(NamedTuple):
    """One traced function: the span name, where callers look it up, and an
    optional counter `count(args, kwargs, result) -> (counter_name, n)`."""

    name: str
    owner: object
    attr: str
    count: Optional[object] = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.pass_id = None
        self.missing = []
        self._stack = []
        self._serial = 0
        self._patches = []

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._serial += 1
            sid = tracer._serial
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, tracer.pass_id, error))
            if count is not None:
                key, n = count(args, kwargs, result)
                tracer.counts[key] += n
            return result

        return traced

    def install(self, targets):
        """Wrap every target that exists; record the names of those that do not."""
        for t in targets:
            raw = vars(t.owner).get(t.attr) if t.owner is not None else None
            if raw is None:
                self.missing.append(t.name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(t.name, raw.__func__, t.count))
            else:
                new = self.wrap(t.name, raw, t.count)
            self._patches.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# arithmetic on spans


def tail_percentile(n, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in candidates:
        if n * (100 - Fraction(str(p))) >= 1000:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end)
            for s in spans}


def layer_stats(spans):
    """Per span name: calls, busy seconds, self seconds and errors.

    Busy time sums the durations of calls not nested in a call of the same
    name, so recursion is not counted twice."""
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "errors": 0})
    for s in spans:
        st = stats[s.name]
        st["calls"] += 1
        st["self_s"] += own[s.sid]
        st["errors"] += s.error
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            st["busy_s"] += s.end - s.start
    return dict(stats)


def parallel_efficiency(busy_s, jobs, wall_s):
    """Busy time of the work over the time `jobs` workers had for it."""
    return busy_s / (jobs * wall_s) if wall_s > 0 else 0.0


def unattributed(windows, spans):
    """Time inside the timed windows that no top-level span covers."""
    tops = [(s.start, s.end) for s in spans if s.parent is None]
    return sum((hi - lo) - covered(tops, lo, hi) for lo, hi in windows)
