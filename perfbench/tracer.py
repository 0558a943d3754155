"""In-memory span tracer that wraps calls into the program from outside.

The tracer never edits the program's files: it replaces a function or
method at the binding its caller looks up (a module global, or a class
attribute) with a wrapper that records a span, and puts the original back
on :meth:`Tracer.uninstall`.  Wrapping a target that no longer exists
returns False instead of failing, so the benchmark keeps running when a
later change removes or renames a layer.

Every span has a name, a start, an end, the span that caused it and the
operation it belongs to; spans of one operation (one call into the public
API, opened with :meth:`Tracer.op`) share an operation id.  High-frequency
spans can be *aggregated*: all calls with the same name under the same
parent merge into one span that keeps the first start, the last end, the
summed duration and the call count.

A span's self time is its duration minus the time its direct children
cover.  Because calls are single-threaded and children lie inside their
parent, the self times of an operation's spans (the root's self time being
the explicit unattributed remainder) add up to the operation's wall time;
:meth:`Tracer.check` verifies that and the nesting.
"""

from __future__ import annotations

import importlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Counter names ending in this suffix keep their maximum instead of a sum.
MAX_SUFFIX = "_max"


def merge_counters(target: Dict[str, float], values: Dict[str, float]) -> None:
    """Add ``values`` into ``target``; keys ending in ``MAX_SUFFIX`` keep the maximum."""
    for key, value in values.items():
        if key.endswith(MAX_SUFFIX):
            target[key] = max(target.get(key, value), value)
        else:
            target[key] = target.get(key, 0.0) + value


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    sid: int
    op: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    total: float = 0.0  # summed duration of the calls merged into this span
    child: float = 0.0  # time covered by direct children
    calls: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.total - self.child


CountFn = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Records spans around wrapped calls made inside :meth:`op` blocks.

    Calls of a wrapped target made outside any operation pass through
    untraced, so the same process can run traced and untraced passes.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Tuple[Span, float]] = []
        self._merged: Dict[Tuple[int, str], Span] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._ops = 0

    # -- recording -----------------------------------------------------
    def _enter(self, name: str, aggregate: bool) -> Tuple[Span, float]:
        parent = self._stack[-1][0] if self._stack else None
        start = self.clock()
        span = self._merged.get((parent.sid, name)) if aggregate and parent else None
        if span is None:
            span = Span(
                sid=len(self.spans),
                op=self._ops,
                parent=parent.sid if parent else None,
                name=name,
                start=start,
            )
            self.spans.append(span)
            if aggregate and parent:
                self._merged[(parent.sid, name)] = span
        frame = (span, start)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: Tuple[Span, float]) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0].name!r} closed out of order")
        span, start = frame
        duration = end - start
        span.end = end
        span.total += duration
        span.calls += 1
        if self._stack:
            self._stack[-1][0].child += duration

    def op(self, name: str) -> "_OpContext":
        """Context manager for one call into the public API (a root span)."""
        if self._stack:
            raise RuntimeError(f"operation {name!r} opened inside {self._stack[-1][0].name!r}")
        self._ops += 1
        return _OpContext(self, name)

    def iterate(
        self,
        name: str,
        iterable: Iterable,
        count: Optional[Callable[[object], Dict[str, float]]] = None,
    ) -> Iterator:
        """Yield from ``iterable``, timing each ``next()`` as an aggregated span."""
        iterator = iter(iterable)
        while True:
            if not self._stack:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                yield item
                continue
            frame = self._enter(name, aggregate=True)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            if count is not None:
                merge_counters(frame[0].counters, count(item))
            yield item

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        module: str,
        qualname: str,
        name: str,
        *,
        aggregate: bool = False,
        count: Optional[CountFn] = None,
        rss: bool = False,
        result_hook: Optional[Callable[[object], object]] = None,
    ) -> bool:
        """Wrap ``module.qualname`` where callers look it up.

        ``qualname`` is a module attribute (``"msp_compress"``) or a class
        attribute (``"Word2Vec.train"``); class methods and static methods
        keep their kind.  ``count(args, kwargs, result)`` adds counters to
        the span; ``rss`` adds ``rss_growth_mb_max``, the growth of the
        process's peak RSS across the call; ``result_hook`` may replace the
        result.  Returns False, wrapping nothing, when the module or the
        attribute does not exist.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            before = peak_rss_mb() if rss else 0.0
            frame = tracer._enter(name, aggregate)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if count is not None:
                merge_counters(frame[0].counters, count(args, kwargs, result))
            if rss:
                growth = {"rss_growth_mb" + MAX_SUFFIX: peak_rss_mb() - before}
                merge_counters(frame[0].counters, growth)
            return result_hook(result) if result_hook is not None else result

        traced.__wrapped__ = func
        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))
        return True

    def uninstall(self) -> None:
        """Put every wrapped target back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------
    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]

    def check(self, tolerance: float = 1e-6) -> List[str]:
        """Problems with nesting or accounting; an empty list means none.

        Checks that every child span lies inside its parent and that, per
        operation, the self times of all its spans add up to the root's
        wall time.
        """
        problems: List[str] = []
        if self._stack:
            problems.append(f"{len(self._stack)} span(s) still open")
        by_id = {span.sid: span for span in self.spans}
        self_sum: Dict[int, float] = {}
        for span in self.spans:
            self_sum[span.op] = self_sum.get(span.op, 0.0) + span.self_s
            if span.self_s < -tolerance:
                problems.append(f"span {span.name!r} has negative self time {span.self_s:.3g}")
            if span.parent is None:
                continue
            parent = by_id[span.parent]
            if span.start < parent.start - tolerance or span.end > parent.end + tolerance:
                problems.append(f"span {span.name!r} lies outside its parent {parent.name!r}")
            if span.op != parent.op:
                problems.append(f"span {span.name!r} and its parent belong to different ops")
        for root in self.roots():
            gap = self_sum.get(root.op, 0.0) - root.total
            if abs(gap) > tolerance * max(1.0, root.total):
                problems.append(
                    f"op {root.name!r} #{root.op}: self times sum to {self_sum[root.op]:.9f} s "
                    f"but the wall time is {root.total:.9f} s"
                )
        return problems

    def by_name(self) -> Dict[str, Dict[str, object]]:
        """Per span name: calls, summed self and inclusive seconds, counters."""
        table: Dict[str, Dict[str, object]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counters": {}}
            )
            row["calls"] += span.calls
            row["self_s"] += span.self_s
            row["incl_s"] += span.total
            merge_counters(row["counters"], span.counters)
        return table

    def incl_under(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of spans ``name`` with an ancestor named ``ancestor``."""
        by_id = {span.sid: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None:
                if by_id[parent].name == ancestor:
                    total += span.total
                    break
                parent = by_id[parent].parent
        return total

    def by_op(self) -> Dict[str, Dict[str, object]]:
        """Per operation name: count, wall seconds and self seconds per span name.

        The root's own self time appears as ``"unattributed"``; the self
        entries of one operation name add up to its wall time.
        """
        table: Dict[str, Dict[str, object]] = {}
        root_names = {span.op: span.name for span in self.roots()}
        for span in self.spans:
            op_name = root_names[span.op]
            row = table.setdefault(op_name, {"ops": 0, "wall_s": 0.0, "self_s": {}})
            key = "unattributed" if span.parent is None else span.name
            if span.parent is None:
                row["ops"] += 1
                row["wall_s"] += span.total
            row["self_s"][key] = row["self_s"].get(key, 0.0) + span.self_s
        return table


class _OpContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._frame: Optional[Tuple[Span, float]] = None

    def __enter__(self) -> Span:
        self._frame = self._tracer._enter(self._name, aggregate=False)
        return self._frame[0]

    def __exit__(self, *exc) -> None:
        self._tracer._exit(self._frame)
