"""Per-query trace spans: explain where one request's latency went.

A :class:`Trace` is created when a request enters the serving layer and
finished when its future resolves; in between, :class:`Span` records —
wall time via ``time.perf_counter()``, CPU time via
``time.thread_time()`` — accumulate in the trace's bounded span list.
Completed traces land in a bounded ring buffer
(:class:`TraceBuffer`), so tracing a long-lived server holds a constant
amount of memory no matter how many queries flow through.

Propagation is by thread-local activation rather than call-signature
threading: the worker that serves a batch activates the batch leader's
trace (:func:`activate` / :func:`deactivate`), and any code below it —
the answer cache lookup, the store's retry loop, the batched
evaluator — opens spans with the module-level :func:`span` context
manager, which silently no-ops when no trace is active.  That keeps
deep layers (``repro.serve.store``, ``repro.core.batched``) free of
serving-layer plumbing while their work still shows up, correctly
nested, in the query's trace.

Tracing is off unless a ring buffer is installed
(:func:`enable_tracing`); the serving layer checks
:func:`trace_buffer` once per submit, so the disabled path costs one
global read per query.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "Span",
    "Trace",
    "TraceBuffer",
    "activate",
    "current_trace",
    "deactivate",
    "disable_tracing",
    "enable_tracing",
    "span",
    "trace_buffer",
]

#: Spans kept per trace; later spans are counted in ``dropped`` instead
#: of growing the list (a trace must stay bounded even for a query that
#: retries a store read hundreds of times).
MAX_SPANS = 64


class Span:
    """One timed hop inside a trace."""

    __slots__ = ("name", "start", "wall_s", "cpu_s", "depth")

    def __init__(
        self, name: str, start: float, wall_s: float, cpu_s: float, depth: int
    ) -> None:
        self.name = name
        self.start = start  # seconds since the trace began
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.depth = depth

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "depth": self.depth,
        }


class Trace:
    """The spans of one query, bounded to :data:`MAX_SPANS`.

    Unsynchronised by design: a trace is only ever written by one
    thread at a time (the submitting thread creates it, then exactly
    one batch worker activates it, records spans, and finishes it), so
    the hot ``add_span`` path stays at a list append — per-trace locks
    measurably showed up in the serving overhead floor
    (``benchmarks/bench_serving.py::test_serving_observability_overhead``).
    """

    __slots__ = (
        "name", "t0", "wall_s", "outcome", "spans", "dropped",
        "spans_bound", "_depth",
    )

    def __init__(self, name: str, max_spans: int = MAX_SPANS) -> None:
        self.name = name
        self.t0 = time.perf_counter()
        self.wall_s: float | None = None  # set by finish()
        self.outcome: str | None = None  # "model" / "cache" / "shed" / ...
        self.spans: list[Span] = []
        self.dropped = 0
        self.spans_bound = max_spans
        self._depth = 1  # 0 is the root query span

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        cpu_s: float = 0.0,
        depth: int = 1,
    ) -> None:
        """Record a pre-measured span (absolute perf_counter endpoints)."""
        if len(self.spans) >= self.spans_bound:
            self.dropped += 1
            return
        self.spans.append(
            Span(name, start - self.t0, end - start, cpu_s, depth)
        )

    def finish(self, end: float | None = None) -> None:
        self.wall_s = (
            time.perf_counter() if end is None else end
        ) - self.t0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "outcome": self.outcome,
            "dropped": self.dropped,
            "spans": [record.as_dict() for record in self.spans],
        }

    def render(self) -> str:
        """Human-readable hop-by-hop breakdown of this trace."""
        wall = self.wall_s if self.wall_s is not None else 0.0
        outcome = f" [{self.outcome}]" if self.outcome else ""
        lines = [f"{self.name}{outcome}  wall={wall * 1e3:.3f}ms"]
        for record in sorted(self.spans, key=lambda s: (s.start, s.depth)):
            indent = "  " * record.depth
            lines.append(
                f"{indent}{record.name}  wall={record.wall_s * 1e3:.3f}ms "
                f"cpu={record.cpu_s * 1e3:.3f}ms "
                f"@+{record.start * 1e3:.3f}ms"
            )
        if self.dropped:
            lines.append(f"  ... {self.dropped} span(s) dropped (bound)")
        return "\n".join(lines)


class TraceBuffer:
    """Bounded ring of completed traces (oldest evicted first)."""

    def __init__(self, maxlen: int = 256) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._ring: deque[Trace] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._completed = 0

    def add(self, trace: Trace) -> None:
        with self._lock:
            self._ring.append(trace)
            self._completed += 1

    def traces(self) -> list[Trace]:
        with self._lock:
            return list(self._ring)

    def slowest(self, n: int = 1) -> list[Trace]:
        """The ``n`` highest-wall-time completed traces, slowest first."""
        return sorted(
            self.traces(), key=lambda t: t.wall_s or 0.0, reverse=True
        )[:n]

    def snapshot(self) -> dict:
        with self._lock:
            ring = list(self._ring)
            completed = self._completed
        return {
            "completed": completed,
            "buffered": len(ring),
            "maxlen": self.maxlen,
            "traces": [trace.as_dict() for trace in ring],
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


# -- thread-local propagation ------------------------------------------------

_local = threading.local()
_buffer: TraceBuffer | None = None


def trace_buffer() -> TraceBuffer | None:
    """The installed ring buffer, or None when tracing is off."""
    return _buffer


def enable_tracing(maxlen: int = 256) -> TraceBuffer:
    """Install a fresh ring buffer; traces start recording."""
    global _buffer
    _buffer = TraceBuffer(maxlen=maxlen)
    return _buffer


def disable_tracing() -> None:
    global _buffer
    _buffer = None


def activate(trace: Trace | None) -> None:
    """Make ``trace`` the current thread's span target (None clears)."""
    _local.trace = trace


def deactivate() -> None:
    _local.trace = None


def current_trace() -> Trace | None:
    return getattr(_local, "trace", None)


class _SpanContext:
    """Context manager measuring one span into the active trace."""

    __slots__ = ("name", "trace", "_t0", "_cpu0")

    def __init__(self, name: str, trace: Trace) -> None:
        self.name = name
        self.trace = trace

    def __enter__(self) -> "_SpanContext":
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        trace = self.trace
        trace._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        trace = self.trace
        trace._depth -= 1
        end = time.perf_counter()
        trace.add_span(
            self.name,
            self._t0,
            end,
            cpu_s=time.thread_time() - self._cpu0,
            depth=trace._depth,
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str):
    """Open a span on the current thread's trace (no-op when inactive)."""
    trace = getattr(_local, "trace", None)
    if trace is None:
        return _NULL_SPAN
    return _SpanContext(name, trace)
