"""Observability substrate: registry, histograms, traces, exposition.

Covers the PR-10 acceptance criteria directly: counters and histograms
stay exact under concurrent writers (a merged snapshot equals the
sequential total), span buffers never outgrow their ring bounds, the
Prometheus text exposition parses line by line against the 0.0.4
grammar, and one served query's top-level trace spans sum to its
observed wall time.
"""

from __future__ import annotations

import json
import math
import re
import threading

import numpy as np
import pytest

from repro.core import DBEst, DBEstConfig
from repro.obs import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    render_prometheus,
    set_registry,
)
from repro.obs.trace import (
    MAX_SPANS,
    Trace,
    TraceBuffer,
    activate,
    deactivate,
    disable_tracing,
    enable_tracing,
    span,
    trace_buffer,
)
from repro.serve import QueryServer
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _metrics_off_after():
    """Every test leaves the process-global registry/tracer disabled."""
    yield
    disable_metrics()
    disable_tracing()


# -- instruments under concurrency -------------------------------------------


class TestConcurrentInstruments:
    def test_counter_concurrent_increments_all_land(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        n_threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("t_total").inc(-1.0)

    def test_histogram_concurrent_equals_sequential(self):
        """Concurrent observes produce the snapshot sequential ones do."""
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 2.0, size=8 * 2000)
        sequential = Histogram()
        for v in values:
            sequential.observe(float(v))

        concurrent = Histogram()
        chunks = np.array_split(values, 8)

        def hammer(chunk):
            for v in chunk:
                concurrent.observe(float(v))

        threads = [
            threading.Thread(target=hammer, args=(chunk,))
            for chunk in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        got, want = concurrent.snapshot(), sequential.snapshot()
        assert got["counts"] == want["counts"]
        assert got["count"] == want["count"]
        assert got["sum"] == pytest.approx(want["sum"])

    def test_histogram_merge_equals_single_writer(self):
        """Per-thread histograms merged == one histogram fed everything."""
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, size=4 * 1000)
        whole = Histogram()
        for v in values:
            whole.observe(float(v))
        shards = [Histogram() for _ in range(4)]
        for shard, chunk in zip(shards, np.array_split(values, 4)):
            for v in chunk:
                shard.observe(float(v))
        merged = shards[0].snapshot()
        for shard in shards[1:]:
            merged = Histogram.merge(merged, shard.snapshot())
        want = whole.snapshot()
        assert merged["counts"] == want["counts"]
        assert merged["count"] == want["count"]
        assert merged["sum"] == pytest.approx(want["sum"])
        assert merged["p50"] == pytest.approx(want["p50"])

    def test_histogram_merge_rejects_mismatched_buckets(self):
        left = Histogram(buckets=(1.0, 2.0)).snapshot()
        right = Histogram(buckets=(1.0, 3.0)).snapshot()
        with pytest.raises(ValueError):
            Histogram.merge(left, right)

    def test_histogram_quantiles_interpolate(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert 0.0 < snap["p50"] <= 2.0
        assert snap["p99"] <= 4.0
        # The +Inf bucket reports the last finite boundary.
        tail = Histogram(buckets=(1.0,))
        tail.observe(50.0)
        assert tail.quantile(0.99) == 1.0

    def test_labels_address_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("t_total", {"site": "a"}).inc()
        registry.counter("t_total", {"site": "b"}).inc(2)
        assert registry.counter("t_total", {"site": "a"}).value == 1
        assert registry.counter("t_total", {"site": "b"}).value == 2
        # Label order must not mint a new instrument.
        registry.counter("m", {"x": 1, "y": 2}).inc()
        assert registry.counter("m", {"y": 2, "x": 1}).value == 1


# -- the process-global switch ------------------------------------------------


class TestGlobalRegistry:
    def test_disabled_by_default_and_noop(self):
        registry = get_registry()
        assert registry is NULL_REGISTRY
        assert not registry.enabled
        registry.counter("x_total").inc()
        registry.gauge("x").set(5.0)
        registry.histogram("x_seconds").observe(0.1)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_enable_disable_roundtrip(self):
        live = enable_metrics()
        assert get_registry() is live
        assert live.enabled
        live.counter("x_total").inc()
        assert live.snapshot()["counters"]["x_total"] == 1
        disable_metrics()
        assert get_registry() is NULL_REGISTRY

    def test_collector_registered_while_disabled_survives_enable(self):
        """A stats() source built before enable_metrics still reports."""
        calls = []
        get_registry().collect(lambda reg: calls.append(reg))
        live = enable_metrics()
        live.snapshot()
        assert calls and calls[-1] is live


# -- traces -------------------------------------------------------------------


class TestTraces:
    def test_trace_span_bound_counts_dropped(self):
        trace = Trace("q", max_spans=4)
        for i in range(10):
            trace.add_span(f"s{i}", float(i), float(i) + 0.5)
        assert len(trace.spans) == 4
        assert trace.dropped == 6
        trace.finish()
        assert trace.as_dict()["dropped"] == 6

    def test_buffer_is_a_bounded_ring(self):
        buffer = TraceBuffer(maxlen=8)
        for i in range(100):
            trace = Trace(f"q{i}")
            trace.finish()
            buffer.add(trace)
        assert len(buffer) == 8
        names = [t.name for t in buffer.traces()]
        assert names == [f"q{i}" for i in range(92, 100)]
        snap = buffer.snapshot()
        assert snap["completed"] == 100
        assert snap["buffered"] == 8

    def test_span_noop_without_active_trace(self):
        with span("orphan"):
            pass  # must not raise, must not record anywhere

    def test_spans_nest_and_measure(self):
        trace = Trace("q")
        activate(trace)
        try:
            with span("outer"):
                with span("inner"):
                    pass
        finally:
            deactivate()
        trace.finish()
        by_name = {s.name: s for s in trace.spans}
        assert by_name["inner"].depth == by_name["outer"].depth + 1
        assert by_name["outer"].wall_s >= by_name["inner"].wall_s >= 0.0
        assert "outer" in trace.render()

    def test_enable_tracing_installs_buffer(self):
        assert trace_buffer() is None
        buffer = enable_tracing(maxlen=16)
        assert trace_buffer() is buffer
        disable_tracing()
        assert trace_buffer() is None


# -- Prometheus text exposition ----------------------------------------------

_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                      r"(counter|gauge|histogram)$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\")*\})? "
    r"(?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf)|NaN)$"
)


def _assert_valid_exposition(text: str) -> None:
    """Line-by-line grammar check of the 0.0.4 text format."""
    assert text.endswith("\n")
    for line in text.splitlines():
        assert _TYPE_RE.match(line) or _SAMPLE_RE.match(line), (
            f"invalid exposition line: {line!r}"
        )


class TestExposition:
    def test_render_parses_and_is_consistent(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        registry.counter("repro_x_total", {"site": 'we"ird\\'}).inc()
        registry.gauge("repro_g").set(2.5)
        hist = registry.histogram("repro_h_seconds")
        for v in (0.0002, 0.003, 0.04, 20.0):
            hist.observe(v)
        text = render_prometheus(registry)
        _assert_valid_exposition(text)
        lines = text.splitlines()
        # Cumulative buckets end at +Inf == _count.
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_h_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert bucket_values[-1] == 4
        assert 'le="+Inf"' in text
        assert "repro_h_seconds_count 4" in lines
        assert len(bucket_values) == len(LATENCY_BUCKETS) + 1
        # Escaped label survives.
        assert 'site="we\\"ird\\\\"' in text

    def test_snapshot_matches_rendered_values(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(7)
        registry.gauge("b").set(-1.5)
        snap = registry.snapshot()
        assert snap["counters"]["a_total"] == 7
        assert snap["gauges"]["b"] == -1.5
        json.dumps(snap["counters"])  # counters/gauges are JSON-able


# -- end-to-end: a served query explains its own latency ----------------------


@pytest.fixture(scope="module")
def obs_engine():
    rng = np.random.default_rng(5)
    n_groups, rows = 6, 200
    n = n_groups * rows
    g = np.repeat(np.arange(n_groups), rows).astype(np.float64)
    x = rng.uniform(0.0, 100.0, size=n)
    y = (1.0 + 0.1 * g) * x + rng.normal(0.0, 1.0, size=n)
    engine = DBEst(config=DBEstConfig(
        regressor="plr", integration_points=65, min_group_rows=30,
        random_seed=5,
    ))
    engine.register_table(Table({"x": x, "y": y, "g": g}, name="obs"))
    engine.build_model("obs", x="x", y="y", sample_size=n, group_by="g")
    return engine


class _LoggedInstrument:
    """A live instrument whose writes land in the registry's op log."""

    def __init__(self, inner, name: str, log: list) -> None:
        self._inner, self._name, self._log = inner, name, log

    def _logged(self, op: str, *args) -> None:
        self._log.append((op, self._name))
        getattr(self._inner, op)(*args)

    def inc(self, amount: float = 1.0) -> None:
        self._logged("inc", amount)

    def dec(self, amount: float = 1.0) -> None:
        self._logged("dec", amount)

    def set(self, value: float) -> None:
        self._logged("set", value)

    def observe(self, value: float) -> None:
        self._logged("observe", value)


class _CountingRegistry(MetricsRegistry):
    """Logs every instrument lookup and write as ``(op, metric name)``.

    ``list.append`` is atomic and a one-worker server makes every
    serving-path operation on that one thread, so the log is the exact
    per-query sequence.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[str, str]] = []

    def _lookup(self, kind: str, name: str, *args, **kwargs):
        self.log.append((kind, name))
        inner = getattr(super(), kind)(name, *args, **kwargs)
        return _LoggedInstrument(inner, name, self.log)

    def counter(self, name, *args, **kwargs):
        return self._lookup("counter", name, *args, **kwargs)

    def gauge(self, name, *args, **kwargs):
        return self._lookup("gauge", name, *args, **kwargs)

    def histogram(self, name, *args, **kwargs):
        return self._lookup("histogram", name, *args, **kwargs)


#: Bounds no other test in this module uses, so the module-scoped
#: engine's pdf-grid memo is cold for each of them.
_BUDGET_WORKLOAD = [
    f"SELECT AVG(y) FROM obs WHERE x BETWEEN {lo} AND {lo + 27} GROUP BY g;"
    for lo in (11, 22, 33, 44)
]


def _serve_one_at_a_time(engine, workload) -> None:
    """Every query through a one-worker server, each resolved before the
    next is submitted — nothing can coalesce, whatever the scheduler does."""
    with QueryServer(engine, n_workers=1) as server:
        for sql in workload:
            server.submit(sql).result()


class TestServingObservability:
    def test_trace_spans_sum_to_observed_wall(self, obs_engine):
        """Top-level spans of every served trace account for its wall
        time within 10% (the PR acceptance criterion)."""
        buffer = enable_tracing()
        workload = [
            f"SELECT AVG(y) FROM obs WHERE x BETWEEN {lo} AND {lo + 30} "
            "GROUP BY g;"
            for lo in (10, 20, 30, 40)
        ]
        with QueryServer(obs_engine, n_workers=2) as server:
            server.run(workload * 2)
        traces = buffer.traces()
        assert len(traces) == len(workload) * 2
        for trace in traces:
            assert trace.wall_s is not None and trace.wall_s > 0.0
            assert trace.outcome in ("model", "cache", "degraded")
            top = [s for s in trace.spans if s.depth == 1]
            covered = sum(s.wall_s for s in top)
            assert covered == pytest.approx(trace.wall_s, rel=0.10)
            assert len(trace.spans) <= MAX_SPANS

    def test_served_metrics_populate_registry(self, obs_engine):
        registry = enable_metrics()
        enable_tracing()  # per-query latency is recorded at trace finish
        workload = [
            "SELECT SUM(y) FROM obs WHERE x BETWEEN 15 AND 65 GROUP BY g;",
            "SELECT AVG(y) FROM obs WHERE x BETWEEN 15 AND 65 GROUP BY g;",
        ]
        with QueryServer(obs_engine, n_workers=2) as server:
            server.run(workload * 3)
            text = render_prometheus(registry)
            snap = registry.snapshot()
        _assert_valid_exposition(text)
        assert snap["histograms"]["repro_serve_query_seconds"]["count"] == 6
        assert snap["counters"]["repro_serve_batch_requests_total"] == 6
        # Kernel hooks fired underneath the serving layer.
        assert snap["histograms"]["repro_kernel_answer_seconds"]["count"] > 0
        # The server's pull collector published its stats() surface.
        assert snap["gauges"]["repro_serve_queries"] == 6
        assert "repro_plan_cache_hits" in snap["gauges"]
        assert "repro_answer_cache_entries" in snap["gauges"]
        p99 = snap["histograms"]["repro_serve_query_seconds"]["p99"]
        assert math.isfinite(p99) and p99 > 0.0

    def test_stats_shapes_are_normalized(self, obs_engine):
        with QueryServer(obs_engine, n_workers=1) as server:
            server.run([
                "SELECT AVG(y) FROM obs WHERE x BETWEEN 5 AND 95 GROUP BY g;"
            ])
            stats = server.stats()
        for cache in (stats["plan_cache"], stats["answer_cache"]):
            for key in ("entries", "max_entries", "hits", "misses",
                        "evictions"):
                assert key in cache, f"missing normalized key {key}"
        # One schema, no per-cache aliases.
        assert set(stats["plan_cache"]) == set(stats["answer_cache"])
        # Mutating the returned dicts must not leak into the server.
        stats["plan_cache"]["hits"] = -1
        assert server.stats()["plan_cache"]["hits"] != -1

    #: What one served GROUP BY query costs with metrics + tracing on,
    #: as (instrument operations = lookups + writes, spans).  A miss on
    #: this ``plr`` fixture is 7 lookups + 7 writes: grid-cache miss,
    #: closed-form moments seconds, answer seconds, groups total, batch
    #: seconds, batch requests, query seconds (the three pdf instruments
    #: and the Simpson timer belong to the grid path, which ``plr`` no
    #: longer takes).  Budgets, not targets: lower passes, raising one
    #: needs a reason.  With metrics off every call site branches on
    #: ``registry.enabled`` first, so a pass makes no lookup at all.
    MISS_BUDGET = (14, 6)
    HIT_BUDGET = (6, 3)
    DISABLED_LOOKUPS = 0

    def test_enabled_instrumentation_stays_within_its_budget(self, obs_engine):
        registry = _CountingRegistry()
        set_registry(registry)
        buffer = enable_tracing()
        _serve_one_at_a_time(obs_engine, _BUDGET_WORKLOAD * 2)
        # The per-query latency observation is a query's last operation.
        per_query, current = [], []
        for op in registry.log:
            current.append(op)
            if op == ("observe", "repro_serve_query_seconds"):
                per_query.append(current)
                current = []
        assert current == []
        traces = buffer.traces()
        k = len(_BUDGET_WORKLOAD)
        assert [t.outcome for t in traces] == ["model"] * k + ["cache"] * k
        assert len(per_query) == 2 * k
        for ops, trace in zip(per_query, traces):
            max_ops, max_spans = (
                self.MISS_BUDGET if trace.outcome == "model"
                else self.HIT_BUDGET
            )
            assert len(ops) <= max_ops, ops
            spans = len(trace.spans) + trace.dropped
            assert spans <= max_spans <= MAX_SPANS, trace.render()

    def test_overhead_disabled_instrumentation_is_cheap(
        self, obs_engine, monkeypatch
    ):
        """With metrics off a served pass (misses, then cache hits) sees
        only NULL_REGISTRY and its shared no-op instruments, records no
        trace, and mints nothing a later enable_metrics() would show."""
        assert get_registry() is NULL_REGISTRY and trace_buffer() is None
        shared = [
            getattr(NULL_REGISTRY, kind)("x")
            for kind in ("counter", "gauge", "histogram")
        ]
        lookups = []
        for cls in (NullRegistry, MetricsRegistry):
            for kind in ("counter", "gauge", "histogram"):
                def spy(self, *args, _real=getattr(cls, kind), **kwargs):
                    instrument = _real(self, *args, **kwargs)
                    lookups.append((self, instrument))
                    return instrument
                monkeypatch.setattr(cls, kind, spy)
        _serve_one_at_a_time(obs_engine, _BUDGET_WORKLOAD * 2)
        monkeypatch.undo()
        for registry, instrument in lookups:
            assert registry is NULL_REGISTRY
            assert any(instrument is noop for noop in shared)
        assert len(lookups) <= self.DISABLED_LOOKUPS
        assert get_registry() is NULL_REGISTRY and trace_buffer() is None
        snapshot = enable_metrics().snapshot()
        assert snapshot["histograms"] == {} and snapshot["counters"] == {}
