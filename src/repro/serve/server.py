"""Thread-safe query server with micro-batched, coalesced execution.

``DBEst.execute`` serves one blocking query at a time.  Under real
traffic — many dashboard users firing near-identical queries — that
wastes the engine's own sharing machinery: every query re-parses its
SQL, re-resolves its model, and re-runs a full batched pass even when
an identical query sits right behind it in line.  :class:`QueryServer`
layers the missing serving loop on top of an engine:

* **Plan cache** — queries parse through a normalised-template cache
  (:class:`~repro.serve.plan_cache.PlanCache`), so repeated shapes skip
  the recursive-descent parser.
* **Coalescing** — queued requests that hit the same model set with the
  identical bounds template (same resolved table, merged ranges,
  equality predicates, and GROUP BY) are drained *together* by one
  worker: each distinct aggregate across the batch is computed exactly
  once and fanned out to every caller's future.  Distinct aggregates of
  one batch run back-to-back on the same evaluator, sharing its
  bounds-keyed moment memo (one kernel pass serves SUM, AVG and
  VARIANCE).
* **Answer cache** — computed answers memoise by
  ``(resolved ModelKey, aggregate, bounds)``
  (:class:`~repro.serve.answer_cache.AnswerCache`); an identical query
  arriving after its twin completed never reaches the engine at all.
  A catalog version bump evicts only the entries whose resolved model
  changed (:meth:`~repro.core.catalog.ModelCatalog.changed_keys_since`),
  keeping every other memoised answer warm.
* **Single flight** — an identical aggregate already *in flight* is not
  recomputed: followers wait on the leader's future instead of queueing
  behind the model lock to redo the same work.
* **Worker pool** — ``n_workers`` threads drain the queue; per-resolved-
  model locks serialise evaluation on any single model set (its lazily
  built evaluator and grid cache are not safe under concurrent
  mutation) while different model sets evaluate genuinely in parallel.
* **Model store** — serving from a
  :class:`~repro.serve.store.ModelStore` catalog loads records lazily
  under an LRU byte budget; with mapped (``store_format="mmap"``)
  records a group-by set's stacked CSR arrays are memory-mapped
  zero-copy, so cold start is an mmap + header check and forked
  evaluation pools share pages instead of pickled arrays.

Fault tolerance (all knobs default from ``engine.config``):

* **Deadlines** — a per-request deadline (``deadline_ms``) is enforced
  when a worker dequeues the batch (expired requests fail fast with
  :class:`~repro.errors.DeadlineExceededError`, the engine is never
  touched) and *predictively* inside the batch: when the per-model EWMA
  latency says the model path cannot finish in the time left, the
  request degrades instead of missing its deadline.
* **Admission control** — ``max_queue`` bounds queued requests; the
  ``shed_policy`` decides who pays: ``"reject"`` refuses the new
  arrival, ``"drop-oldest"`` evicts the longest-queued request (both
  via :class:`~repro.errors.ServerOverloadedError`).
* **Circuit breaker** — ``breaker_threshold`` consecutive infrastructure
  failures (store/catalog errors, ``OSError``) on one resolved model
  key open its breaker: queries stop touching the failing model until
  ``breaker_reset_ms`` elapses, then one half-open probe decides
  whether to close it again.
* **Graceful degradation** — when the breaker is open or the deadline
  is near, ``degrade=True`` routes the aggregate through
  :meth:`~repro.core.engine.DBEst.answer_degraded` (exact scan or
  stratified/uniform AQP picked by the advisor); the result is tagged
  ``degraded`` with the reason.  With ``degrade=False`` callers see
  :class:`~repro.errors.CircuitOpenError` instead.
* **Fault injection** — a :class:`~repro.serve.faults.FaultInjector`
  passed as ``faults`` exercises the worker seams (dequeue latency,
  worker death with respawn); the default :data:`NO_FAULTS` makes the
  hooks no-ops.

Usage::

    server = QueryServer(engine, n_workers=4, deadline_ms=250.0)
    futures = [server.submit(sql) for sql in workload]
    answers = [future.result() for future in futures]
    server.close()          # or: with QueryServer(engine) as server: ...

``submit`` raises parse/validation errors synchronously (the caller's
thread parses via the plan cache); execution-time errors surface from
``Future.result()`` exactly as ``DBEst.execute`` would raise them.
Queries no model can answer fall back to ``engine.execute`` — and from
there to the engine's configured fallback engine — uncoalesced.

Answer parity: a served answer is the same ``answer_one`` evaluation a
sequential ``engine.execute`` performs (coalescing only dedupes and
reorders calls), so results agree to the last bit modulo the engine's
own documented batched/scalar tolerance.  Degraded answers are the
exception: they are approximate within the advisor's quoted error
bound, and always flagged as such on the result.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.core.catalog import ModelKey
from repro.core.engine import DBEst
from repro.core.result import QueryResult
from repro.errors import (
    CatalogError,
    CircuitOpenError,
    DeadlineExceededError,
    InvalidParameterError,
    QueryExecutionError,
    ServerOverloadedError,
)
from repro.obs import RATIO_BUCKETS, get_registry
from repro.obs.trace import Trace, activate, deactivate
from repro.obs.trace import span as _span
from repro.obs.trace import trace_buffer
from repro.serve.answer_cache import AnswerCache, answer_key
from repro.serve.faults import (
    NO_FAULTS,
    SERVER_DEQUEUE,
    SERVER_WORKER,
    FaultInjector,
)
from repro.serve.plan_cache import PlanCache
from repro.serve.store import ModelStore
from repro.sql.ast import AggregateCall, Query, merged_ranges
from repro.sql.validator import validate_query

#: Failures that mean the *infrastructure* under a model misbehaved
#: (store read failed, record corrupt, catalog inconsistent) — these
#: count against the model's circuit breaker and are eligible for
#: graceful degradation.  Anything else (e.g. a KeyError for an unseen
#: group value) is a property of the query, not the model path, and
#: keeps the legacy routing: fall back or surface to the caller.
_INFRA_ERRORS = (CatalogError, OSError)

_SHED_POLICIES = ("reject", "drop-oldest")

#: Errors produced by serving *policy* (deadline, breaker, shedding).
#: They must reach the caller as-is — retrying via ``engine.execute``
#: would defeat the very mechanism that raised them.
_POLICY_ERRORS = (CircuitOpenError, DeadlineExceededError, ServerOverloadedError)


class _Request:
    """One submitted query waiting on its future."""

    __slots__ = (
        "sql", "query", "table", "ranges", "future", "deadline",
        "deadline_ms", "trace",
    )

    def __init__(
        self,
        sql: str,
        query: Query,
        table: str,
        ranges: dict[str, tuple[float, float]],
        future: Future,
        deadline: float | None,
        deadline_ms: float | None,
        trace: Trace | None = None,
    ) -> None:
        self.sql = sql
        self.query = query
        self.table = table
        self.ranges = ranges
        self.future = future
        self.deadline = deadline  # absolute time.monotonic() cutoff
        self.deadline_ms = deadline_ms
        self.trace = trace  # per-query span record (None when tracing is off)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class _Breaker:
    """Per-model-key circuit breaker state (guarded by the server)."""

    __slots__ = ("failures", "open_since", "probing")

    def __init__(self) -> None:
        self.failures = 0
        self.open_since: float | None = None  # None = closed
        self.probing = False  # a half-open probe is in flight


class QueryServer:
    """Serve queries from a :class:`~repro.core.engine.DBEst` engine."""

    def __init__(
        self,
        engine: DBEst,
        n_workers: int = 4,
        plan_cache_size: int = 256,
        answer_cache_size: int = 4096,
        coalesce: bool = True,
        deadline_ms: float | None = None,
        max_queue: int | None = None,
        shed_policy: str | None = None,
        degrade: bool | None = None,
        breaker_threshold: int | None = None,
        breaker_reset_ms: float | None = None,
        faults: FaultInjector = NO_FAULTS,
    ) -> None:
        """Fault-tolerance knobs default from ``engine.config``
        (``serve_deadline_ms``, ``serve_max_queue``, ``serve_shed_policy``,
        ``serve_degrade``, ``serve_breaker_threshold``,
        ``serve_breaker_reset_ms``).  ``deadline_ms``/``max_queue`` values
        of ``0`` disable the deadline / queue bound explicitly even when
        the config sets one.
        """
        if n_workers < 1:
            raise QueryExecutionError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        config = engine.config
        self.engine = engine
        self.coalesce = coalesce
        self.deadline_ms = (
            config.serve_deadline_ms if deadline_ms is None else deadline_ms
        )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            self.deadline_ms = None
        self.max_queue = (
            config.serve_max_queue if max_queue is None else max_queue
        )
        self.shed_policy = (
            config.serve_shed_policy if shed_policy is None else shed_policy
        )
        if self.shed_policy not in _SHED_POLICIES:
            raise InvalidParameterError(
                f"shed_policy must be one of {_SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        self.degrade = config.serve_degrade if degrade is None else degrade
        self.breaker_threshold = (
            config.serve_breaker_threshold
            if breaker_threshold is None
            else breaker_threshold
        )
        self.breaker_reset_ms = (
            config.serve_breaker_reset_ms
            if breaker_reset_ms is None
            else breaker_reset_ms
        )
        self.plan_cache = PlanCache(max_plans=plan_cache_size)
        self.answer_cache = AnswerCache(max_entries=answer_cache_size)
        self._faults = faults
        self._cond = threading.Condition()
        self._pending: OrderedDict[tuple, list[_Request]] = OrderedDict()
        self._queued = 0
        self._closed = False
        self._unique = itertools.count()
        # Per-resolved-model locks: one model set's lazily built
        # evaluator and moment memo must not be mutated from two
        # threads; distinct model sets evaluate in parallel.
        self._model_locks: dict[ModelKey, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._fallback_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._catalog_version = getattr(engine.catalog, "version", 0)
        # Identical aggregates already being computed: followers wait on
        # the leader's future instead of redoing the work.
        self._inflight: dict[tuple, Future] = {}
        self._inflight_guard = threading.Lock()
        self._breakers: dict[ModelKey, _Breaker] = {}
        self._breaker_guard = threading.Lock()
        self._breaker_opens = 0
        # EWMA of model-path latency per resolved key, for the
        # deadline-near degradation decision (guarded by _stats_lock).
        self._latency: dict[ModelKey, float] = {}
        self._queries = 0
        self._batches = 0
        self._coalesced = 0
        self._engine_calls = 0
        self._fallbacks = 0
        self._shed = 0
        self._deadline_missed = 0
        self._degraded = 0
        self._single_flight = 0
        self._worker_deaths = 0
        self._invalidated = 0
        self._worker_ids = itertools.count(n_workers)
        self._workers_guard = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        # Pull-style metrics: the active registry harvests stats() at
        # snapshot time (weakly referenced — a dropped server detaches
        # itself).  A no-op when metrics are disabled.
        get_registry().collect(self.publish_metrics)
        # Snapshot before starting: an injected worker death can respawn
        # a replacement (already started) into self._workers while this
        # loop is still running.
        for worker in tuple(self._workers):
            worker.start()

    # -- submission ---------------------------------------------------------

    def submit(self, sql: str | Query, deadline_ms: float | None = None) -> Future:
        """Queue one query; returns a future resolving to a
        :class:`~repro.core.result.QueryResult`.

        Parse and validation errors raise here, synchronously, as does
        :class:`~repro.errors.ServerOverloadedError` under the
        ``"reject"`` shed policy when the queue is full.  ``deadline_ms``
        overrides the server default for this request (``0`` disables).
        """
        if isinstance(sql, str):
            query = self.plan_cache.parse(sql)
            text = sql
        else:
            query = sql
            validate_query(query)
            text = query.to_sql()
        table = DBEst._resolve_table_name(query)
        ranges = merged_ranges(query.ranges)
        if self.coalesce:
            key = (
                table,
                query.group_by,
                tuple(sorted(ranges.items())),
                tuple((eq.column, eq.value) for eq in query.equalities),
            )
        else:
            key = (next(self._unique),)
        effective_ms = self.deadline_ms if deadline_ms is None else deadline_ms
        if effective_ms is not None and effective_ms <= 0:
            effective_ms = None
        deadline = (
            time.monotonic() + effective_ms / 1000.0
            if effective_ms is not None
            else None
        )
        future: Future = Future()
        buffer = trace_buffer()
        trace = Trace(text) if buffer is not None else None
        request = _Request(
            text, query, table, ranges, future, deadline, effective_ms,
            trace=trace,
        )
        shed_request = None
        rejected = False
        with self._cond:
            if self._closed:
                raise QueryExecutionError("query server is closed")
            if self.max_queue and self._queued >= self.max_queue:
                if self.shed_policy == "reject":
                    rejected = True
                else:
                    shed_request = self._pop_oldest_locked()
            if not rejected:
                self._pending.setdefault(key, []).append(request)
                self._queued += 1
                self._cond.notify()
        if rejected:
            with self._stats_lock:
                self._shed += 1
            raise ServerOverloadedError(
                f"admission queue is full ({self.max_queue} queued); "
                "shed policy 'reject' refuses new queries"
            )
        with self._stats_lock:
            self._queries += 1
        if shed_request is not None:
            with self._stats_lock:
                self._shed += 1
            if not shed_request.future.done():
                shed_request.future.set_exception(
                    ServerOverloadedError(
                        f"admission queue is full ({self.max_queue} queued); "
                        "shed policy 'drop-oldest' evicted this query to "
                        "admit a newer one"
                    )
                )
            self._finish_trace(shed_request, outcome="shed")
        return future

    def _pop_oldest_locked(self) -> _Request:
        """Evict the longest-queued request (caller holds ``_cond``)."""
        key, requests = next(iter(self._pending.items()))
        oldest = requests.pop(0)
        if not requests:
            del self._pending[key]
        self._queued -= 1
        return oldest

    def execute(
        self, sql: str | Query, deadline_ms: float | None = None
    ) -> QueryResult:
        """Submit and block for the answer (sequential convenience)."""
        return self.submit(sql, deadline_ms=deadline_ms).result()

    def run(self, sqls: Sequence[str | Query]) -> list[QueryResult]:
        """Submit a whole workload up front, then gather in order.

        Queueing everything before waiting is what lets concurrent
        lookalike queries coalesce into shared engine passes.
        """
        futures = [self.submit(sql) for sql in sqls]
        return [future.result() for future in futures]

    # -- worker side --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            # Fault seam: checked between batches, never while holding a
            # batch — a killed worker strands no futures.
            plan = self._faults.plan(SERVER_WORKER)
            if plan.sleep_s:
                time.sleep(plan.sleep_s)
            if plan.kill_worker:
                self._on_worker_death()
                return
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:  # closed and drained
                    return
                _key, requests = self._pending.popitem(last=False)
                self._queued -= len(requests)
            try:
                self._serve_batch(requests)
            except BaseException as exc:  # keep the worker alive
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _on_worker_death(self) -> None:
        """Record an injected worker death and respawn a replacement."""
        with self._stats_lock:
            self._worker_deaths += 1
        with self._cond:
            if self._closed and not self._pending:
                return  # nothing left to serve
        replacement = threading.Thread(
            target=self._worker_loop,
            name=f"repro-serve-{next(self._worker_ids)}",
            daemon=True,
        )
        with self._workers_guard:
            self._workers.append(replacement)
        replacement.start()

    def _serve_batch(self, requests: list[_Request]) -> None:
        """Answer one coalition batch: every distinct aggregate once."""
        start = time.perf_counter()
        plan = self._faults.plan(SERVER_DEQUEUE)
        if plan.sleep_s:  # injected slow worker
            time.sleep(plan.sleep_s)
        # A catalog mutation (build_model re-registering a key) makes
        # the affected memoised answers stale; sweep just those.
        self._sweep_stale_answers()
        now = time.monotonic()
        live = []
        expired = []
        for request in requests:
            (expired if request.expired(now) else live).append(request)
        for request in expired:
            if not request.future.done():
                request.future.set_exception(
                    DeadlineExceededError(
                        f"deadline of {request.deadline_ms:g} ms expired "
                        "before execution began"
                    )
                )
            self._finish_trace(request, outcome="deadline_missed")
        if expired:
            with self._stats_lock:
                self._deadline_missed += len(expired)
        if not live:
            return
        requests = live
        first = requests[0]
        deadlines = [r.deadline for r in requests if r.deadline is not None]
        batch_deadline = min(deadlines) if deadlines else None
        equalities = tuple(
            (eq.column, eq.value) for eq in first.query.equalities
        )
        unique: dict[str, AggregateCall] = {}
        for request in requests:
            for aggregate in request.query.aggregates:
                unique.setdefault(str(aggregate), aggregate)
        outcomes: dict[str, tuple[bool, object, bool, str | None]] = {}
        # Deep layers (store retry loop, batched evaluator) record spans
        # into the batch leader's trace via the thread-local hookup;
        # coalesced followers share the leader's computation, so their
        # traces carry the admission/serve envelope only.
        leader_trace = first.trace
        if leader_trace is not None:
            leader_trace._depth = 2  # children of the "serve" span
            activate(leader_trace)
        try:
            for label, aggregate in unique.items():
                try:
                    value, cached, degraded_reason = self._answer_aggregate(
                        first.table,
                        aggregate,
                        first.ranges,
                        first.query,
                        equalities,
                        batch_deadline,
                    )
                    outcomes[label] = (True, value, cached, degraded_reason)
                except Exception as exc:
                    # Any failure — ReproError or not (e.g. KeyError for
                    # an unseen group value) — must reach the caller's
                    # future, never kill the worker thread.
                    outcomes[label] = (False, exc, False, None)
        finally:
            if leader_trace is not None:
                deactivate()
                leader_trace._depth = 1
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self._batches += 1
            self._coalesced += len(requests) - 1
        registry = get_registry()
        if registry.enabled:
            registry.histogram("repro_serve_batch_seconds").observe(elapsed)
            registry.counter("repro_serve_batch_requests_total").inc(
                len(requests)
            )
        for request in requests:
            try:
                self._resolve_request(request, outcomes, elapsed)
            except BaseException as exc:  # never strand a caller
                if not request.future.done():
                    request.future.set_exception(exc)
            self._finish_trace(request, batch_start=start)

    def _finish_trace(
        self,
        request: _Request,
        outcome: str | None = None,
        batch_start: float | None = None,
    ) -> None:
        """Close a request's trace and push it into the ring buffer.

        ``batch_start`` is the worker-side processing start: the trace
        gets an ``admission.wait`` span (submit to dequeue) and a
        ``serve`` span (dequeue to resolution) whose endpoints are
        shared with the root, so the top-level spans sum to the trace's
        wall time exactly.  Requests that never reached a worker (shed,
        deadline-expired) record only the wait.
        """
        trace = request.trace
        if trace is None:
            return
        end = time.perf_counter()
        wait_end = batch_start if batch_start is not None else end
        trace.add_span("admission.wait", trace.t0, wait_end, depth=1)
        if batch_start is not None:
            trace.add_span("serve", batch_start, end, depth=1)
        if outcome is None:
            future = request.future
            if future.done():
                error = future.exception()
                if error is not None:
                    outcome = f"error:{type(error).__name__}"
                else:
                    outcome = future.result().source
        trace.outcome = outcome
        trace.finish(end)
        registry = get_registry()
        if registry.enabled:
            registry.histogram("repro_serve_query_seconds").observe(
                trace.wall_s
            )
        buffer = trace_buffer()
        if buffer is not None:
            buffer.add(trace)

    def _sweep_stale_answers(self) -> None:
        """Evict answer-cache entries whose models changed.

        Uses the catalog's change-log for per-key eviction; a catalog
        without one (or one truncated below our horizon) forces a full
        clear.  Surviving entries are re-tagged to the new version so
        later lookups still hit.  A :class:`~repro.serve.ModelStore`
        speaks the same ``version`` / ``changed_keys_since`` protocol
        (bumped by ``write_refresh``), so a server fronting a store
        invalidates exactly the republished keys on streaming refresh —
        and because cache hits require the entry's version tag to match
        (see :mod:`repro.serve.answer_cache`), an answer computed
        against the superseded generation can never be served after the
        sweep, even if its ``put`` races the republish.
        """
        current = getattr(self.engine.catalog, "version", 0)
        if current == self._catalog_version:
            return
        with self._stats_lock:
            if current == self._catalog_version:
                return
            changed_since = getattr(
                self.engine.catalog, "changed_keys_since", None
            )
            changed = (
                changed_since(self._catalog_version)
                if changed_since is not None
                else None
            )
            if changed is None:
                self.answer_cache.clear()
            else:
                self._invalidated += self.answer_cache.invalidate(
                    changed, current
                )
            self._catalog_version = current

    def _resolve_request(
        self,
        request: _Request,
        outcomes: dict[str, tuple[bool, object, bool, str | None]],
        elapsed: float,
    ) -> None:
        labels = [str(aggregate) for aggregate in request.query.aggregates]
        failed = [label for label in labels if not outcomes[label][0]]
        if failed:
            # Serving-policy errors (deadline, breaker, shedding) reach
            # the caller as-is: a fallback retry through engine.execute
            # would defeat the mechanism that raised them.
            policy = next(
                (
                    outcomes[label][1]
                    for label in failed
                    if isinstance(outcomes[label][1], _POLICY_ERRORS)
                ),
                None,
            )
            if policy is not None:
                request.future.set_exception(policy)
                return
            # Some aggregate could not be answered from models: route the
            # whole request through engine.execute, which applies the
            # fallback engine or raises exactly as sequential execution.
            with self._stats_lock:
                self._fallbacks += 1
            trace = request.trace
            if trace is not None:
                fallback_start = time.perf_counter()
                trace._depth = 3  # children of the fallback span
                activate(trace)
            try:
                with self._fallback_locks(request):
                    result = self.engine.execute(request.query)
                result.sql = request.sql
                request.future.set_result(result)
            except Exception as exc:
                request.future.set_exception(exc)
            finally:
                if trace is not None:
                    deactivate()
                    trace._depth = 1
                    trace.add_span(
                        "fallback.execute",
                        fallback_start,
                        time.perf_counter(),
                        depth=2,
                    )
            return
        # Coalesced batch-mates must not share mutable group-by dicts:
        # one caller mutating its QueryResult would corrupt the others'.
        values = {
            label: (
                dict(outcomes[label][1])
                if isinstance(outcomes[label][1], dict)
                else outcomes[label][1]
            )
            for label in labels
        }
        all_cached = all(outcomes[label][2] for label in labels)
        reasons = [outcomes[label][3] for label in labels if outcomes[label][3]]
        degraded = bool(reasons)
        if degraded:
            source = "degraded"
        elif all_cached:
            source = "cache"
        else:
            source = "model"
        request.future.set_result(
            QueryResult(
                values=values,
                source=source,
                elapsed_seconds=elapsed,
                sql=request.sql,
                degraded=degraded,
                degraded_reason="; ".join(dict.fromkeys(reasons)),
            )
        )

    def _answer_aggregate(
        self,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
        equalities: tuple,
        deadline: float | None,
    ) -> tuple[object, bool, str | None]:
        """One aggregate's answer: ``(value, cached, degraded_reason)``."""
        model_key = self.engine.model_key_for(table, aggregate, ranges, query)
        if model_key is None:
            # Degenerate (contradictory ranges) or unanswerable from the
            # catalog: no stable model identity to cache or lock on.
            with self._fallback_lock:
                return (
                    self.engine.answer_one(table, aggregate, ranges, query),
                    False,
                    None,
                )
        key = answer_key(model_key, aggregate, ranges, equalities)
        # Entries are tagged with the catalog version observed *before*
        # computing: if a model is swapped mid-computation, the tag is
        # already stale and the entry is never served (callers each
        # copy dicts per consumer, so copy=False skips a double copy).
        version = getattr(self.engine.catalog, "version", 0)
        with _span("answer_cache.lookup"):
            value = self.answer_cache.get(key, version=version, copy=False)
        if not AnswerCache.missing(value):
            return value, True, None
        if not self._breaker_allows(model_key):
            return self._degrade(
                table,
                aggregate,
                ranges,
                query,
                reason=(
                    "circuit breaker open for model "
                    f"{model_key.table}/{','.join(model_key.x_columns)}"
                ),
                original=None,
            )
        if deadline is not None:
            remaining = deadline - time.monotonic()
            with self._stats_lock:
                estimate = self._latency.get(model_key)
            if estimate is not None and remaining < estimate:
                try:
                    return self._degrade(
                        table,
                        aggregate,
                        ranges,
                        query,
                        reason=(
                            f"deadline near ({remaining * 1e3:.1f} ms left < "
                            f"{estimate * 1e3:.1f} ms model-path estimate)"
                        ),
                        original=None,
                    )
                except Exception:
                    pass  # no degraded capacity; a late answer beats none
        return self._model_path(
            table, aggregate, ranges, query, model_key, key, version, deadline
        )

    def _model_path(
        self,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
        model_key: ModelKey,
        key: tuple,
        version: int,
        deadline: float | None,
    ) -> tuple[object, bool, str | None]:
        """Compute through the model, with single-flight deduplication."""
        with self._inflight_guard:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = Future()
                self._inflight[key] = flight
        if not leader:
            return self._follow_flight(
                flight, table, aggregate, ranges, query, deadline
            )
        try:
            with _span("model_lock.wait"):
                lock = self._model_lock(model_key)
                lock.acquire()
            try:
                # A worker serving a lookalike batch may have filled the
                # entry while this one waited for the model lock.
                with _span("answer_cache.lookup"):
                    value = self.answer_cache.get(
                        key, version=version, record=False, copy=False
                    )
                cached = not AnswerCache.missing(value)
                if not cached:
                    started = time.perf_counter()
                    with _span("evaluator.answer"):
                        value = self.engine.answer_one(
                            table, aggregate, ranges, query
                        )
                    self._note_latency(
                        model_key, time.perf_counter() - started
                    )
                    self.answer_cache.put(key, value, version=version)
            finally:
                lock.release()
        except BaseException as exc:
            with self._inflight_guard:
                self._inflight.pop(key, None)
            if not flight.done():
                flight.set_exception(exc)
            if isinstance(exc, _INFRA_ERRORS):
                self._breaker_record(model_key, ok=False)
                return self._degrade(
                    table,
                    aggregate,
                    ranges,
                    query,
                    reason=f"model path failed ({exc})",
                    original=exc,
                )
            raise
        with self._inflight_guard:
            self._inflight.pop(key, None)
        flight.set_result(value)
        self._breaker_record(model_key, ok=True)
        if not cached:
            with self._stats_lock:
                self._engine_calls += 1
        return value, cached, None

    def _follow_flight(
        self,
        flight: Future,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
        deadline: float | None,
    ) -> tuple[object, bool, str | None]:
        """Wait on an identical in-flight computation instead of redoing it."""
        with self._stats_lock:
            self._single_flight += 1
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        try:
            with _span("single_flight.wait"):
                value = flight.result(timeout=timeout)
        except _FutureTimeout:
            raise DeadlineExceededError(
                "deadline expired while waiting on an identical in-flight "
                "computation"
            ) from None
        except _INFRA_ERRORS as exc:
            # The leader already recorded the breaker failure; this
            # follower degrades independently (no double-counting).
            return self._degrade(
                table,
                aggregate,
                ranges,
                query,
                reason=f"in-flight model computation failed ({exc})",
                original=exc,
            )
        return value, False, None

    def _degrade(
        self,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
        reason: str,
        original: BaseException | None,
    ) -> tuple[object, bool, str | None]:
        """Serve one aggregate without the model path, or re-raise.

        ``original`` is the model-path failure that triggered this (None
        for pre-emptive degradation); it is re-raised when degradation
        is disabled or itself fails, so callers never see a degradation
        artefact masking the underlying fault.
        """
        if not self.degrade:
            if original is not None:
                raise original
            raise CircuitOpenError(
                f"{reason}; degraded answering is disabled (degrade=False)"
            )
        try:
            with _span("degrade.answer"):
                value, route = self.engine.answer_degraded(
                    table, aggregate, ranges, query
                )
        except Exception as degrade_exc:
            if original is not None:
                raise original from degrade_exc
            raise
        with self._stats_lock:
            self._degraded += 1
        registry = get_registry()
        if registry.enabled:
            # The accuracy contract of a degraded answer: how large an
            # error bound was quoted each time the advisor took over.
            registry.counter(
                "repro_serve_degraded_total", {"engine": route.engine}
            ).inc()
            registry.histogram(
                "repro_serve_degraded_error_bound",
                buckets=RATIO_BUCKETS,
            ).observe(float(route.error_bound or 0.0))
        detail = f"{reason}; served by {route.engine}"
        if route.error_bound:
            detail += f" (relative error bound ~{route.error_bound:.3f})"
        return value, False, detail

    # -- circuit breaker ----------------------------------------------------

    def _breaker_allows(self, model_key: ModelKey) -> bool:
        """Whether the model path may be attempted for this key.

        Closed breakers always allow.  An open breaker allows exactly
        one caller through after ``breaker_reset_ms`` — the half-open
        probe — whose outcome closes or re-opens it.
        """
        if self.breaker_threshold <= 0:
            return True  # breaker disabled
        with self._breaker_guard:
            breaker = self._breakers.get(model_key)
            if breaker is None or breaker.open_since is None:
                return True
            if breaker.probing:
                return False
            elapsed = time.monotonic() - breaker.open_since
            if elapsed >= self.breaker_reset_ms / 1000.0:
                breaker.probing = True  # this caller is the probe
                return True
            return False

    def _breaker_record(self, model_key: ModelKey, ok: bool) -> None:
        """Record a model-path outcome against the key's breaker."""
        if self.breaker_threshold <= 0:
            return
        with self._breaker_guard:
            breaker = self._breakers.get(model_key)
            if ok:
                if breaker is not None:
                    breaker.failures = 0
                    breaker.open_since = None
                    breaker.probing = False
                return
            if breaker is None:
                breaker = self._breakers[model_key] = _Breaker()
            breaker.failures += 1
            was_open = breaker.open_since is not None
            if breaker.probing or breaker.failures >= self.breaker_threshold:
                breaker.open_since = time.monotonic()
                breaker.probing = False
                if not was_open:
                    self._breaker_opens += 1
                    registry = get_registry()
                    if registry.enabled:
                        registry.counter(
                            "repro_serve_breaker_opens_total"
                        ).inc()

    def _note_latency(self, model_key: ModelKey, elapsed: float) -> None:
        """Fold one model-path latency into the key's EWMA."""
        with self._stats_lock:
            previous = self._latency.get(model_key)
            self._latency[model_key] = (
                elapsed if previous is None else 0.7 * previous + 0.3 * elapsed
            )

    def _fallback_locks(self, request: _Request) -> contextlib.ExitStack:
        """The fallback lock plus every model lock the request may touch.

        ``engine.execute`` on a partially-answerable request still
        evaluates its model-resolvable aggregates before failing over,
        so those models need the same serialisation the coalesced path
        gives them.  Locks acquire in a deterministic order (fallback
        first, then keys sorted) so two fallback requests cannot
        deadlock; compute workers only ever hold a single model lock.
        """
        keys = set()
        for aggregate in request.query.aggregates:
            model_key = self.engine.model_key_for(
                request.table, aggregate, request.ranges, request.query
            )
            if model_key is not None:
                keys.add(model_key)
        stack = contextlib.ExitStack()
        stack.enter_context(self._fallback_lock)
        for model_key in sorted(keys, key=repr):
            stack.enter_context(self._model_lock(model_key))
        return stack

    def _model_lock(self, model_key: ModelKey) -> threading.Lock:
        with self._locks_guard:
            lock = self._model_locks.get(model_key)
            if lock is None:
                lock = self._model_locks[model_key] = threading.Lock()
            return lock

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the workers and join them.

        ``drain=True`` (the default) serves every queued request first;
        ``drain=False`` fails queued-but-unstarted requests immediately
        with :class:`~repro.errors.QueryExecutionError` (in-flight
        batches still finish).  Safe to call twice; submissions after
        close raise.
        """
        dropped: list[_Request] = []
        with self._cond:
            self._closed = True
            if not drain:
                for requests in self._pending.values():
                    dropped.extend(requests)
                self._pending.clear()
                self._queued = 0
            self._cond.notify_all()
        for request in dropped:
            if not request.future.done():
                request.future.set_exception(
                    QueryExecutionError(
                        "query server closed with drain=False before this "
                        "query ran"
                    )
                )
        # Injected worker deaths may respawn replacements while we join;
        # snapshot until the list stops growing.
        joined = 0
        while True:
            with self._workers_guard:
                workers = list(self._workers)
            if joined >= len(workers):
                break
            for worker in workers[joined:]:
                worker.join()
            joined = len(workers)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Serving counters plus per-layer cache statistics."""
        with self._stats_lock:
            stats = {
                "queries": self._queries,
                "batches": self._batches,
                "coalesced": self._coalesced,
                "engine_calls": self._engine_calls,
                "fallbacks": self._fallbacks,
                "shed": self._shed,
                "deadline_missed": self._deadline_missed,
                "degraded": self._degraded,
                "single_flight": self._single_flight,
                "worker_deaths": self._worker_deaths,
                "invalidated": self._invalidated,
            }
        with self._cond:
            stats["queued"] = self._queued
        with self._breaker_guard:
            stats["breaker"] = {
                "threshold": self.breaker_threshold,
                "opens": self._breaker_opens,
                "open": sum(
                    1
                    for breaker in self._breakers.values()
                    if breaker.open_since is not None
                ),
            }
        stats["plan_cache"] = self.plan_cache.stats()
        stats["answer_cache"] = self.answer_cache.stats()
        if isinstance(self.engine.catalog, ModelStore):
            stats["store"] = self.engine.catalog.stats()
            stats["retried"] = stats["store"].get("retries", 0)
        if self._faults is not NO_FAULTS:
            stats["faults"] = self._faults.stats()
        return stats

    def publish_metrics(self, registry) -> None:
        """Copy the serving counters into ``registry`` as gauges.

        Registered as a pull collector (see :mod:`repro.obs`): runs at
        snapshot/exposition time, so the hot serving paths pay nothing
        for the retrofit of the pre-registry ``stats()`` counters.
        """
        stats = self.stats()
        for key in (
            "queries", "batches", "coalesced", "engine_calls", "fallbacks",
            "shed", "deadline_missed", "degraded", "single_flight",
            "worker_deaths", "invalidated", "queued",
        ):
            registry.gauge(f"repro_serve_{key}").set(stats[key])
        registry.gauge("repro_serve_breaker_opens").set(
            stats["breaker"]["opens"]
        )
        registry.gauge("repro_serve_breaker_open").set(
            stats["breaker"]["open"]
        )
        for layer in ("plan_cache", "answer_cache"):
            for key in ("entries", "max_entries", "hits", "misses",
                        "evictions"):
                registry.gauge(f"repro_{layer}_{key}").set(stats[layer][key])
        if "store" in stats:
            for key, value in stats["store"].items():
                registry.gauge(f"repro_store_{key}").set(value)
        with self._stats_lock:
            latency = dict(self._latency)
        for model_key, ewma in latency.items():
            label = f"{model_key.table}/{','.join(model_key.x_columns)}"
            if model_key.y_column:
                label += f"->{model_key.y_column}"
            registry.gauge(
                "repro_serve_model_latency_ewma_seconds", {"model": label}
            ).set(ewma)
