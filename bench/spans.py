"""Spans around the benchmark's calls into the library, kept in memory.

An operation runs its library calls through ``call(name, fn, *args)``.
Untraced runs pass ``plain_call``, which only calls ``fn``.  A traced run
passes ``Tracer.call``, which records (name, start, end, parent) for each
call; the benchmark opens an ``op.<kind>`` span around each operation,
so library spans are its children.  Span names start with the module
they enter, such as ``cantor.hausdorff_content``.
"""

from __future__ import annotations

import json
from time import perf_counter


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread, so children of one parent do not
        overlap and their durations add up.
        """
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self time and call count per span name, op spans included."""
        totals: dict[str, list] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(span[0], [0.0, 0])
            entry[0] += own
            entry[1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name, round(s - t0, 9), round(e - t0, 9), parent]
                        for name, s, e, parent in self.spans
                    ],
                },
                fh,
            )
