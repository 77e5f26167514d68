"""In-memory spans recorded around calls into valueset's modules.

The benchmark patches module attributes of the imported package at run
time, so nothing under src/ changes.  A span is (name, start, end, parent,
job, thread); spans opened on a worker thread with no open span of their
own take the main thread's innermost span as parent, so table builds that
happen inside the thread pool still nest under the counting call that
caused them.
"""

from __future__ import annotations

import functools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # index and append must not interleave

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent, self.job,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(args, kwargs, result) runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced


class Patcher:
    """Replace a function everywhere the package's modules bind it; undo later."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo: list[tuple] = []

    def replace(self, original, replacement) -> None:
        hits = 0
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
                    self._undo.append((mod, name, original))
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is not bound in any module")

    def replace_attr(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def union_ns(intervals) -> int:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return covered if cur_hi is None else covered + cur_hi - cur_lo


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals (ns)."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(idx)
    return [end - start - union_ns((max(spans[c][1], start), min(spans[c][2], end))
                                   for c in children.get(idx, ()))
            for idx, (_, start, end, *_rest) in enumerate(spans)]
