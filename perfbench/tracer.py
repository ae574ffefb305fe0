"""Host-time spans recorded from outside the program.

A :class:`Tracer` replaces a layer's public entry points (module
functions or class methods) with wrappers that record one span per call:
name, start, end, the enclosing span on the same thread, the thread, and
the job id where the call's arguments or result name one. Spans stay in
memory and are written out when the run ends. :meth:`Tracer.uninstall`
restores every original, so untraced and traced rounds can alternate in
one process.

The analysis helpers compute per-name self time (duration minus the
direct children's durations) and the coverage of a set of end-to-end
windows by the union of all spans across threads, naming the largest
uncovered gaps by the spans on either side of them.
"""

import bisect
import functools
import itertools
import json
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "job",
                 "info")

    def __init__(self, span_id, name, start, end, parent, thread, job, info):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.job = job
        self.info = info

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, origin):
        return {
            "id": self.id, "name": self.name,
            "start": self.start - origin, "end": self.end - origin,
            "parent": self.parent, "thread": self.thread, "job": self.job,
        }


class Tracer:
    """Wraps entry points and records a :class:`Span` per call."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, *, job=None, info=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``job(args, result)`` returns the job id (or ids) of a call and
        ``info(args, result)`` any per-call data the metrics need; both
        run only when the call returned normally.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            returned = False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, name, start, end, parent,
                    threading.current_thread().name,
                    job(args, result) if returned and job else None,
                    info(args, result) if returned and info else None,
                ))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans recorded so far; recording starts afresh."""
        spans, self.spans = self.spans, []
        return spans

    def write(self, path, spans):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.as_dict(self.origin) for s in spans], handle)


def by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


def self_times(spans):
    """``{name: (calls, total_s, self_s)}``; a span's self time is its
    duration minus its direct children's (children nest on one thread,
    so they never overlap each other)."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.duration
            )
    table = {}
    for span in spans:
        calls, total, own = table.get(span.name, (0, 0.0, 0.0))
        table[span.name] = (
            calls + 1, total + span.duration,
            own + span.duration - child_time.get(span.id, 0.0),
        )
    return table


def _union(spans):
    merged = []
    for start, end in sorted((s.start, s.end) for s in spans):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def coverage(spans, windows, top=3):
    """Share of the end-to-end ``windows`` (``[(start, end), ...]``)
    covered by the union of ``spans`` over all threads, and the largest
    uncovered gaps as ``[(label, seconds, share), ...]`` where the label
    names the span that ended before the gap and the one that started
    after it."""
    merged = _union(spans)
    starts = [m[0] for m in merged]
    by_end = sorted(spans, key=lambda s: s.end)
    ends = [s.end for s in by_end]
    by_start = sorted(spans, key=lambda s: s.start)
    begins = [s.start for s in by_start]
    total = covered = 0.0
    gaps = {}
    for w0, w1 in windows:
        total += w1 - w0
        cursor = w0
        i = max(0, bisect.bisect_right(starts, w0) - 1)
        while cursor < w1:
            if i < len(merged) and merged[i][0] <= cursor:
                end = min(merged[i][1], w1)
                if end > cursor:
                    covered += end - cursor
                    cursor = end
                i += 1
                continue
            gap_end = min(merged[i][0], w1) if i < len(merged) else w1
            k = bisect.bisect_right(ends, cursor) - 1
            before = by_end[k].name if k >= 0 and ends[k] >= w0 else "start"
            k = bisect.bisect_left(begins, gap_end)
            after = (by_start[k].name
                     if k < len(begins) and begins[k] <= w1 else "end")
            label = f"{before} -> {after}"
            gaps[label] = gaps.get(label, 0.0) + gap_end - cursor
            cursor = gap_end
    share = covered / total if total else 0.0
    ranked = sorted(gaps.items(), key=lambda item: -item[1])[:top]
    return share, [(label, secs, secs / total) for label, secs in ranked]
