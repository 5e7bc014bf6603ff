"""In-memory span tracing around corrbern's public functions.

Spans are recorded only from the benchmark's side: `Tracer.patch`
replaces a traced function in the namespace its caller looks it up in,
and `Tracer.uninstall` puts the originals back.  A span is (id, name, start, end,
parent, call id, thread).  A span opened in a thread with nothing open
on it (a pool worker) takes as parent the innermost span open on the
thread that runs the CLI call, so replicate rows hang under
run_experiment.

Self time is computed as spans close: a span's duration minus the time
its children cover.  Children on the span's own thread nest and are
summed; children on other threads may overlap, so their union is taken.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict

SETUP_CALL = -1


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_ns", "foreign")

    def __init__(self, span_id, name, start):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_ns = 0
        self.foreign = None


def _union_ns(intervals) -> int:
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tracer:
    """Records spans and counters, split between set-up and operations.

    Spans closed while `call_id` is SETUP_CALL count as set-up; the caller
    sets `call_id` to the operation's index around each traced operation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self._ids = itertools.count()
        self._thread_ids = itertools.count()
        self._root = self._thread_state()
        # id, name, start_ns, end_ns, parent_id, call_id, thread
        self.spans = array("q")
        self.call_id = SETUP_CALL
        # Per name index: [self_ns, total_ns, calls], for set-up and for operations.
        self._agg = {False: [], True: []}
        self._counters = {False: defaultdict(int), True: defaultdict(int)}
        self._patches: list[tuple[object, str, object]] = []
        # Whether patches are in place.
        self.active = False

    # --- recording -------------------------------------------------------

    def _thread_state(self):
        """(stack, thread index) of the calling thread."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], next(self._thread_ids))
        return state

    def name_index(self, name: str) -> int:
        with self._lock:
            idx = self._name_idx.get(name)
            if idx is None:
                idx = self._name_idx[name] = len(self._names)
                self._names.append(name)
                for agg in self._agg.values():
                    agg.append([0, 0, 0])
            return idx

    def _open(self, idx: int, stack) -> _Frame:
        frame = _Frame(next(self._ids), idx, time.perf_counter_ns())
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame, stack, thread: int) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        dur = end - frame.start
        covered = frame.child_ns
        if frame.foreign:
            covered += _union_ns(frame.foreign)
        parent = None
        if stack:
            parent = stack[-1]
            parent.child_ns += dur
        elif stack is not self._root[0] and self._root[0]:
            parent = self._root[0][-1]
        call_id = self.call_id
        with self._lock:
            if parent is not None and not stack:
                if parent.foreign is None:
                    parent.foreign = []
                parent.foreign.append((frame.start, end))
            agg = self._agg[call_id != SETUP_CALL][frame.name]
            agg[0] += dur - covered
            agg[1] += dur
            agg[2] += 1
            self.spans.extend(
                (
                    frame.span_id,
                    frame.name,
                    frame.start,
                    end,
                    -1 if parent is None else parent.span_id,
                    call_id,
                    thread,
                )
            )

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self._counters[self.call_id != SETUP_CALL][name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        stack, thread = self._thread_state()
        frame = self._open(self.name_index(name), stack)
        try:
            yield
        finally:
            self._close(frame, stack, thread)

    def wrap(self, fn, name: str, count=None, rename=None):
        """`fn` traced as `name`.

        count(args, kwargs, result) returns counter increments; rename(result)
        may give the span another name once the result is known.
        """
        tracer = self
        idx = self.name_index(name)

        def traced(*args, **kwargs):
            stack, thread = tracer._thread_state()
            frame = tracer._open(idx, stack)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, stack, thread)
                raise
            if rename is not None:
                frame.name = tracer.name_index(rename(result))
            tracer._close(frame, stack, thread)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.count(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- patching --------------------------------------------------------

    def patch(self, module, attr: str, name: str, count=None, rename=None) -> None:
        """Trace `module.attr`, a function or a corrbern Statistic.

        A missing attribute raises: a layer that cannot be wrapped would
        otherwise report 0 and read as a gain."""
        original = getattr(module, attr, None)
        if original is None:
            raise AttributeError(f"cannot trace {module.__name__}.{attr}: not found")
        if dataclasses.is_dataclass(original) and hasattr(original, "fn"):
            replacement = dataclasses.replace(
                original, fn=self.wrap(original.fn, name, count, rename)
            )
        else:
            replacement = self.wrap(original, name, count, rename)
        self._patches.append((module, attr, original))
        setattr(module, attr, replacement)
        self.active = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.active = False

    # --- output ----------------------------------------------------------

    def _total(self, name: str, field: int, scope: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            return 0
        total = self._agg[True][idx][field]
        if scope == "all":
            total += self._agg[False][idx][field]
        return total

    def self_ms(self, name: str, scope: str = "ops") -> float:
        """Self time of the spans named `name`; scope "ops" or "all"."""
        return self._total(name, 0, scope) / 1e6

    def total_ms(self, name: str, scope: str = "ops") -> float:
        return self._total(name, 1, scope) / 1e6

    def calls(self, name: str, scope: str = "ops") -> int:
        return self._total(name, 2, scope)

    def counter(self, name: str, scope: str = "ops") -> int:
        total = self._counters[True].get(name, 0)
        if scope == "all":
            total += self._counters[False].get(name, 0)
        return total

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header with the name table, then one
        [id, name, start_ns, end_ns, parent, call, thread] row per span."""
        fields = 7
        with open(path, "w") as fh:
            header = {
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "call", "thread"],
                "names": self._names,
            }
            fh.write(json.dumps(header) + "\n")
            for k in range(0, len(self.spans), fields):
                fh.write(json.dumps(self.spans[k : k + fields].tolist()) + "\n")
