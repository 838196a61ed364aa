"""Span recorder: times calls *into* each layer from outside the program.

The recorder patches public entry points (class methods, or a function name
in the module that imported it) for the duration of one traced leg and
restores them afterwards.  Each span is ``(name, start, end, parent,
group)``: ``parent`` is the index of the enclosing span on the same thread
(-1 for a root) and ``group`` is the id shared by all spans of one training
step or one request.  Spans stay in memory; :meth:`chrome_trace` renders
them at exit.  Self time of a span is its duration minus the part covered
by its child spans.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class _ThreadSpans:
    __slots__ = ("tid", "spans", "stack")

    def __init__(self, tid: int):
        self.tid = tid
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []


class Totals:
    """Aggregate of all spans sharing one name."""

    __slots__ = ("count", "total_s", "self_s", "durations")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []


class SpanRecorder:
    def __init__(self):
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        #: id shared by every span of the current step / request
        self.group = 0

    # -- recording -----------------------------------------------------------
    def _state(self) -> _ThreadSpans:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadSpans(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span; yields its index in this thread's span list."""
        st = self._state()
        idx = len(st.spans)
        st.spans.append(None)          # keeps spans in start order
        parent = st.stack[-1] if st.stack else -1
        st.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.spans[idx] = (name, t0, t1, parent, self.group)

    def add(self, name: str, t0: float, t1: float, group: int) -> None:
        """Record a span measured elsewhere (a request: submit -> t_done)."""
        self._state().spans.append((name, t0, t1, -1, group))

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable[[], None]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after()
            return result

        self._patch(owner, attr, wrapper)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Time every ``next()`` of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            it = iter(original(*args, **kwargs))

            def timed_iter():
                while True:
                    ended = False
                    with recorder.span(name) as idx:
                        try:
                            item = next(it)
                        except StopIteration:
                            ended = True
                    if ended:
                        # the exhausted call produced no batch: drop its span
                        # (by index: it may have recorded children after it)
                        recorder._state().spans[idx] = None
                        return
                    yield item

            return timed_iter()

        self._patch(owner, attr, wrapper)

    def next_group(self) -> None:
        self.group += 1

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def totals(self) -> Dict[str, Totals]:
        out: Dict[str, Totals] = {}
        for st in self._threads:
            child_s = [0.0] * len(st.spans)
            for span in st.spans:
                if span is not None and span[3] >= 0:
                    child_s[span[3]] += span[2] - span[1]
            for i, span in enumerate(st.spans):
                if span is None:
                    continue
                dur = span[2] - span[1]
                tot = out.setdefault(span[0], Totals())
                tot.count += 1
                tot.total_s += dur
                tot.self_s += dur - child_s[i]
                tot.durations.append(dur)
        return out

    def gaps_after(self, parent: str, children: Tuple[str, ...]) -> float:
        """Self time of ``parent`` spans that directly follows a child named
        in ``children`` (up to the next child or the parent's end)."""
        seconds = 0.0
        for st in self._threads:
            kids: Dict[int, List[Span]] = {}
            for span in st.spans:
                if span is not None and span[3] >= 0:
                    kids.setdefault(span[3], []).append(span)
            for idx, group in kids.items():
                top = st.spans[idx]
                if top is None or top[0] != parent:
                    continue
                group.sort(key=lambda s: s[1])
                ends = [s[1] for s in group[1:]] + [top[2]]
                seconds += sum(max(nxt - s[2], 0.0)
                               for s, nxt in zip(group, ends)
                               if s[0] in children)
        return seconds

    def named(self, name: str) -> List[Span]:
        return [s for st in self._threads for s in st.spans
                if s is not None and s[0] == name]

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome ``about://tracing`` / Perfetto JSON (complete events)."""
        events = []
        origin = min((s[1] for st in self._threads for s in st.spans
                      if s is not None), default=0.0)
        for st in self._threads:
            for span in st.spans:
                if span is None:
                    continue
                name, t0, t1, parent, group = span
                events.append({"name": name, "ph": "X", "pid": 0,
                               "tid": st.tid,
                               "ts": round((t0 - origin) * 1e6, 1),
                               "dur": round((t1 - t0) * 1e6, 1),
                               "args": {"group": group, "parent": parent}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over the bare call, measured on an
    empty method: times the span count of a leg it gives the recorder's
    overhead to a resolution the comparison of two whole legs cannot reach
    on a noisy host."""

    class Nop:
        def call(self):
            pass

    def loop(obj) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            obj.call()
        return time.perf_counter() - t0

    bare = loop(Nop())
    rec = SpanRecorder()
    rec.wrap(Nop, "call", "nop")
    try:
        wrapped = loop(Nop())
    finally:
        rec.uninstall()
    return max(wrapped - bare, 0.0) / calls
