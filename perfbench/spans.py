"""In-memory span tracer that wraps refarm's public functions from outside.

A wrapper is installed at the name the caller looks up (for instance
``refarm.experiments.mmse_sinr_exact``, which is what
``empirical_cdma_sinr`` resolves at call time), so the program itself is
not edited.  Each call records one span: name, start and end in integer
nanoseconds, the index of the enclosing span, and whether it raised.
Spans stay in a list until the run ends.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans.  Integer nanoseconds keep the
arithmetic exact, so the self times of one pass sum to the root span's
duration exactly when every child lies inside its parent.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# A percentile is reported only from at least this many samples.
P99_MIN_SAMPLES = 1000


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    error: bool = False
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Wrap:
    """One wrapped name and the layer metrics derived from its spans.

    ``target`` is ``module:attribute`` at the caller's lookup site;
    ``layer`` is the metric prefix.  ``split(args, kwargs)`` may return a
    suffix that splits the layer by an input property; ``observe(result,
    args, kwargs)`` may return domain counts for the span.
    """

    target: str
    layer: str
    split: object = None
    observe: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name):
        """Record one span around the block; yields its index in ``spans``."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name=name, start=time.perf_counter_ns(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield index
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self.spans[index].end = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, wrap: Wrap, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = wrap.layer
            if wrap.split is not None:
                name = f"{name}.{wrap.split(args, kwargs)}"
            with tracer.span(name) as index:
                result = fn(*args, **kwargs)
                if wrap.observe is not None:
                    tracer.spans[index].counts = wrap.observe(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, wraps):
        """Wrap every target for the duration of the block, then restore.

        A target whose module or attribute no longer exists is skipped and
        listed in ``missing``; its layer then reports zero calls.
        """
        restore = []
        try:
            for wrap in wraps:
                module_name, attr = wrap.target.split(":")
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    if wrap.target not in self.missing:
                        self.missing.append(wrap.target)
                    continue
                setattr(module, attr, self._wrapper(wrap, original))
                restore.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)


def self_times(spans, root):
    """Self time in ns of ``root`` and every span below it, by span index."""
    children: dict[int, list[int]] = {}
    for index in range(root + 1, len(spans)):
        children.setdefault(spans[index].parent, []).append(index)
    out = {}
    pending = [root]
    while pending:
        index = pending.pop()
        kids = children.get(index, [])
        span = spans[index]
        covered, reach = 0, span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[index] = (span.end - span.start) - covered
        pending.extend(kids)
    return out


def _percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, roots, layers):
    """Per-layer statistics over the traced passes rooted at ``roots``.

    ``layers`` maps a layer name to the stats reported for it.  Counts are
    per pass (the passes repeat the same inputs); self_s is the median
    over passes of the layer's summed self time; p50_ms/p99_ms pool the
    inclusive call durations of all passes, and p99_ms reads 0 when fewer
    than P99_MIN_SAMPLES calls were seen.
    """
    n_pass = len(roots)
    self_per_pass = {name: [0] * n_pass for name in layers}
    durations = {name: [] for name in layers}
    totals = {name: {} for name in layers}
    for p, root in enumerate(roots):
        selfs = self_times(spans, root)
        for index, self_ns in selfs.items():
            span = spans[index]
            if span.name not in layers:
                continue
            self_per_pass[span.name][p] += self_ns
            durations[span.name].append((span.end - span.start) / 1e6)
            acc = totals[span.name]
            acc["calls"] = acc.get("calls", 0) + 1
            acc["errors"] = acc.get("errors", 0) + int(span.error)
            for key, value in span.counts.items():
                if key.startswith("max_"):
                    acc[key] = max(acc.get(key, value), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    out = {}
    for name, stats in layers.items():
        samples = durations[name]
        for stat in stats:
            if stat == "self_s":
                value = statistics.median(self_per_pass[name]) / 1e9 if n_pass else 0.0
            elif stat == "p50_ms":
                value = statistics.median(samples) if samples else 0.0
            elif stat == "p99_ms":
                value = _percentile(samples, 99) if len(samples) >= P99_MIN_SAMPLES else 0.0
            elif stat.startswith("max_"):
                value = float(totals[name].get(stat, 0.0))
            else:
                value = totals[name].get(stat, 0) / max(n_pass, 1)
            out[f"{name}.{stat}"] = value
    return out


def notice(message):
    print(f"notice: {message}", file=sys.stderr)
