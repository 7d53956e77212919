"""In-memory span recorder for the traced benchmark run.

A span is recorded around each call the benchmark makes into a zonec layer:
(id, parent id, instance id, name, start, end), times from
``time.perf_counter``. Spans stay in memory and are written once, as Chrome
trace-event JSON, when the run ends.
"""

from __future__ import annotations

import json
import time


class NullTracer:
    """Calls straight through; used for the untraced passes."""

    def __init__(self):
        self.instance = 0

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.instance = 0  # id shared by every span of one instance
        self._stack: list[int] = []
        self._next_id = 1

    def call(self, name, fn, *args):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.instance, name, start, end))

    def write_chrome(self, path, labels: dict[int, str]) -> None:
        """Write the spans as complete ("X") trace events, in microseconds
        from the first span, viewable in Perfetto or chrome://tracing."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent, "instance": inst,
                         "label": labels.get(inst, "")},
            }
            for sid, parent, inst, name, start, end in sorted(self.spans, key=lambda s: s[4])
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer: a span's duration minus the part its children
    cover, summed by the layer prefix of its name (``rewrite.pipeline`` ->
    ``rewrite``). Root ``instance`` spans count as the benchmark's own
    ``bench`` layer. Children of one span never overlap here, so the covered
    part is the sum of their durations."""
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, _, _, name, start, end in spans:
        layer = "bench" if name == "instance" else name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return out
