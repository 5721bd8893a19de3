"""Observability substrate: metrics registry, trace spans, exposition.

Every layer of the serving stack — the query server's admission /
coalescing / degrade machinery, the model store's retry and LRU
accounting, the batched kernels' pass timings, the streaming-ingest
refresh path, and the fault injector — reports into one process-global
:class:`MetricsRegistry` and, per query, into bounded
:class:`~repro.obs.trace.Trace` span buffers.  Both are off by default
and cost one global read plus a no-op call when disabled, so the hot
paths stay within their budgets: ``tests/test_observability.py::
TestServingObservability`` pins the instrument operations and spans a
served query may cost with everything enabled (and that a disabled pass
touches only the shared no-ops), and the slow-marked
``benchmarks/bench_serving.py::test_serving_observability_overhead``
holds the timed serving overhead under 5%.

Enable and read back::

    from repro.obs import enable_metrics, render_prometheus
    from repro.obs.trace import enable_tracing

    registry = enable_metrics()
    traces = enable_tracing(maxlen=256)
    ...  # serve traffic
    print(render_prometheus(registry))      # Prometheus text format
    snapshot = registry.snapshot()          # JSON-able dict
    print(traces.slowest(1)[0].render())    # hop-by-hop latency

The same data is reachable without writing Python: ``python -m repro
stats`` prints one exposition for a store (optionally after replaying a
workload), and ``serve --metrics-every N`` streams JSON snapshots while
serving.

Exposition format
-----------------

:func:`render_prometheus` emits the Prometheus *text exposition format*
(version 0.0.4), one metric family at a time:

* a ``# TYPE <name> <counter|gauge|histogram>`` line introduces each
  family;
* each sample is ``name{label="value",...} <number>`` — label values
  are escaped (``\\``, ``"``, newline), numbers are integers where
  exact, ``repr`` floats otherwise, and ``+Inf`` spells infinity;
* histograms expand into cumulative ``<name>_bucket`` series carrying
  the ``le`` upper-bound label (``+Inf`` last, equal to
  ``<name>_count``), plus ``<name>_sum`` and ``<name>_count``.

Metric names follow Prometheus conventions: the ``repro_`` namespace
prefix, ``_total`` suffixes on counters, base units in seconds/bytes
(``repro_serve_batch_seconds``, ``repro_store_resident_bytes``).  The
JSON snapshot (:meth:`MetricsRegistry.snapshot`) carries the same
series keyed by ``name{labels}`` with histograms as bucket arrays plus
interpolated p50/p95/p99 estimates.
"""

from repro.obs.registry import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    register_global_collector,
    render_prometheus,
    set_registry,
)
from repro.obs.trace import (
    Span,
    Trace,
    TraceBuffer,
    disable_tracing,
    enable_tracing,
    span,
    trace_buffer,
)

__all__ = [
    "LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "RATIO_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "Trace",
    "TraceBuffer",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "get_registry",
    "register_global_collector",
    "render_prometheus",
    "set_registry",
    "span",
    "trace_buffer",
]
