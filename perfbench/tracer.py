"""Per-layer tracing by wrapping the program's functions from outside.

The program carries no tracing for this benchmark.  :class:`Tracer`
replaces attributes of the program's modules, classes and objects with
timing wrappers while installed, and restores the originals on
:meth:`Tracer.uninstall`, so an untraced phase runs the program's own
code objects.

Each wrapper opens a span on a per-thread stack.  A span's *self time*
(its duration minus the spans it directly encloses) is charged to its
layer, so the layers of one thread partition the time of its outermost
spans.  Outermost spans that carry a job key (serve entry points) are
also appended to a per-job timeline; :func:`job_waits` turns the gaps
between a job's outermost spans into wait times.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Pseudo-layer for the wrappers' own bookkeeping (count hooks).
TRACE_LAYER = "trace"

Hook = Callable[[dict, tuple, dict, Any], None]
KeyFn = Callable[[tuple, Any], str]


class _ThreadState:
    __slots__ = ("stack", "times", "counts")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)


class Tracer:
    """Install/uninstall timing wrappers; accumulate self time per layer."""

    def __init__(self) -> None:
        self._targets: list[tuple[Any, str, Callable[[Any], Any]]] = []
        self._saved: list[tuple[Any, str, Any, bool]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        #: job key -> [(layer, t0, t1)] of outermost keyed spans
        self.timeline: defaultdict[str, list[tuple[str, float, float]]] = (
            defaultdict(list)
        )
        self.installed = False

    # -- registration ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        *,
        count: Hook | None = None,
        key: KeyFn | None = None,
    ) -> None:
        """Time calls to ``owner.name`` as ``layer``.

        ``count(counts, args, kwargs, result)`` adds to the count
        accumulators after the call; ``key(args, result)`` names the job
        an outermost span belongs to.
        """
        self._targets.append(
            (owner, name, lambda fn: self._wrapper(fn, layer, count, key))
        )

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        if self.installed:
            return
        for owner, name, make in self._targets:
            in_dict = isinstance(owner, type) or name in getattr(owner, "__dict__", {})
            original = owner.__dict__[name] if in_dict else getattr(owner, name)
            fn = getattr(owner, name) if not isinstance(owner, type) else original
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot wrap {type(original).__name__} {name}")
            self._saved.append((owner, name, original, in_dict))
            setattr(owner, name, make(fn))
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, name, original, in_dict in reversed(self._saved):
            if in_dict:
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # instance attribute shadowed a method
        self._saved.clear()
        self.installed = False

    # -- accumulation ------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrapper(
        self, fn: Callable, layer: str, count: Hook | None, key: KeyFn | None
    ) -> Callable:
        timeline = self.timeline

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = self._state()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                st.times[layer] += (t1 - t0) - frame[0]
                if count is not None:
                    count(st.counts, args, kwargs, result)
                    t2 = time.perf_counter()
                    st.times[TRACE_LAYER] += t2 - t1
                    t1 = t2
                if stack:
                    stack[-1][0] += t1 - t0
                elif key is not None:
                    timeline[key(args, result)].append((layer, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Cumulative (self seconds per layer, counts) over all threads.

        Read only while no traced call is in flight.
        """
        times: defaultdict[str, float] = defaultdict(float)
        counts: defaultdict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.times.items():
                times[k] += v
            for k, v in st.counts.items():
                counts[k] += v
        return dict(times), dict(counts)


def job_waits(
    spans: Iterable[tuple[str, float, float]],
    start: float,
    end: float,
    *,
    admit_layer: str,
) -> dict[str, float]:
    """Split one job's ``[start, end]`` into waits between its spans.

    ``spans`` are the job's outermost spans.  Gaps are signed (spans on
    different threads may overlap by a hair) so that, with the spans'
    durations, they partition ``[start, end]`` exactly:

    * ``lead`` — ``start`` to the first span (client-side overhead);
    * ``queue_wait`` — gaps up to the start of the ``admit_layer`` span;
    * ``slice_wait`` — gaps after it, between the job's later spans;
    * ``handoff`` — from the end of the last span to ``end``.
    """
    ordered = sorted(spans, key=lambda s: s[1])
    out = {"lead": end - start, "queue_wait": 0.0, "slice_wait": 0.0,
           "handoff": 0.0}
    if not ordered:
        return out
    out["lead"] = ordered[0][1] - start
    out["handoff"] = end - ordered[-1][2]
    admitted = ordered[0][0] == admit_layer
    for prev, cur in zip(ordered, ordered[1:]):
        out["slice_wait" if admitted else "queue_wait"] += cur[1] - prev[2]
        admitted = admitted or cur[0] == admit_layer
    return out


def assign_spans(
    spans: list[tuple[str, float, float]], starts: list[float]
) -> list[list[tuple[str, float, float]]]:
    """Split one key's spans among jobs that reused the key.

    ``starts`` are the jobs' start times in increasing order; a span
    belongs to the latest job that started at or before it.
    """
    groups: list[list[tuple[str, float, float]]] = [[] for _ in starts]
    for span in spans:
        idx = 0
        for i, s in enumerate(starts):
            if s <= span[1]:
                idx = i
        groups[idx].append(span)
    return groups
