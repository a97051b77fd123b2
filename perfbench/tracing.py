"""In-memory spans and values recorded around the benchmark's calls into phs_kit.

Spans live in the benchmark, not in the library: each one wraps a call the
benchmark makes into a module's public functions.  A disabled tracer records
nothing and hands out one shared no-op context, so untraced operations pay
only an attribute lookup per call site.
"""

import statistics
import time
from contextlib import contextmanager, nullcontext

# Operation ids other than the integer index of a timed operation.
SETUP = "setup"  # the last set-up of the run
SWEEP = "sweep"  # the one-off pass over the layers an operation bypasses


class Tracer:
    """Records spans (name, start, end, parent, op) and per-operation values."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.op = None
        self.spans = []
        self.values = []
        self._stack = []
        self._null = nullcontext()

    def span(self, name):
        return self._record(name) if self.enabled else self._null

    def value(self, name, value):
        if self.enabled:
            self.values.append({"name": name, "op": self.op, "value": float(value)})

    @contextmanager
    def _record(self, name):
        span = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def figures(self):
        """One figure per layer metric name.

        A span named ``layer.call`` gives ``layer.call_s``: its duration,
        summed within an operation, median over operations.  A recorded value
        keeps its name; values ending in ``_s`` are times and take the median,
        the others (counts and certificate values) the maximum.  Timed
        operations take precedence over the set-up, and the set-up over the
        sweep, which calls each layer once on the workload's own system.
        """
        per_name = {}
        for span in self.spans:
            per_op = per_name.setdefault(span["name"] + "_s", {})
            per_op[span["op"]] = per_op.get(span["op"], 0.0) + span["end"] - span["start"]
        figures = {name: statistics.median(_preferred(per_op)) for name, per_op in per_name.items()}
        per_name = {}
        for item in self.values:
            per_name.setdefault(item["name"], {}).setdefault(item["op"], []).append(item["value"])
        for name, per_op in per_name.items():
            samples = [v for values in _preferred(per_op) for v in values]
            figures[name] = statistics.median(samples) if name.endswith("_s") else max(samples)
        return figures


def _rank(op):
    return 0 if isinstance(op, int) else (1 if op == SETUP else 2)


def _preferred(per_op):
    best = min(_rank(op) for op in per_op)
    return [v for op, v in per_op.items() if _rank(op) == best]
