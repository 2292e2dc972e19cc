"""Spans recorded from outside the program.

Tracer.install replaces a module attribute with a wrapper, so a call is
traced when its caller looks the name up at call time: solver.solve looks
up solver.sweep, and oracle.simulate looks up exprlang.evaluate.  Spans
stay in memory and are written out once, at the end of the run.  A span's
self time is its duration minus the durations of the spans it directly
contains; calls run on one thread, so nested spans never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from contextlib import contextmanager


class _Stats:
    def __init__(self):
        self.durations = array("d")
        self.self_times = array("d")
        self.counters = {}


class Tracer:
    """Span recorder.  `hot` names keep per-call durations but no span rows,
    because they are called hundreds of thousands of times per run."""

    def __init__(self):
        self.stats: dict[str, _Stats] = {}
        self.rows: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, child_time, row id]
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 0

    def stat(self, name: str) -> _Stats:
        if name not in self.stats:
            self.stats[name] = _Stats()
        return self.stats[name]

    def count(self, name: str, key: str, value: float = 1):
        counters = self.stat(name).counters
        counters[key] = counters.get(key, 0) + value

    def peak(self, name: str, key: str, value: float):
        counters = self.stat(name).counters
        counters[key] = max(counters.get(key, value), value)

    @contextmanager
    def span(self, name: str, hot: bool = False):
        parent = self._stack[-1][3] if self._stack else -1
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            s = self.stat(name)
            s.durations.append(duration)
            s.self_times.append(duration - frame[2])
            if not hot:
                self.rows.append((frame[3], name, frame[1], end, parent))

    def install(self, module, attr: str, name: str, hot: bool = False, on_call=None):
        """Wrap module.attr in a span; on_call(args, result) may add counters."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name, hot):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def median_s(self, name: str) -> float:
        s = self.stats.get(name)
        return statistics.median(s.durations) if s and s.durations else 0.0

    def median_self_s(self, name: str) -> float:
        s = self.stats.get(name)
        return statistics.median(s.self_times) if s and s.self_times else 0.0

    def total_s(self, name: str) -> float:
        s = self.stats.get(name)
        return float(sum(s.durations)) if s else 0.0

    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return len(s.durations) if s else 0

    def total(self, name: str, key: str) -> float:
        s = self.stats.get(name)
        return s.counters.get(key, 0) if s else 0

    def write(self, path):
        """One JSON object per span row, then one summary row per name."""
        with open(path, "w", encoding="utf-8") as out:
            for row_id, name, start, end, parent in self.rows:
                out.write(
                    json.dumps(
                        {"id": row_id, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )
            for name, s in sorted(self.stats.items()):
                out.write(
                    json.dumps(
                        {"summary": name, "calls": len(s.durations),
                         "total_s": float(sum(s.durations)),
                         "self_s": float(sum(s.self_times)), "counters": s.counters}
                    )
                    + "\n"
                )
