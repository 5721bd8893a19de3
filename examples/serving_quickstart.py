"""Serving quickstart: build models, pack a lazy store, serve traffic.

The offline side trains models and packs them into an on-disk
:class:`repro.ModelStore` (per-model records, loaded on first touch,
evicted LRU under a byte budget).  The online side serves concurrent
SQL through a :class:`repro.QueryServer`, which parses each query shape
once, coalesces queued lookalike queries into shared engine passes, and
memoises answers.

A fault-drill section re-serves the same traffic through a deliberately
broken store — injected latency spikes, transient read errors, and one
corrupted record — to show the fault-tolerance machinery: store reads
retry with backoff, the corrupt record is quarantined, the per-model
circuit breaker trips, and affected queries degrade to a sampling/exact
AQP answer (tagged ``degraded``) instead of failing.

The final section appends rows *while serving*: the table delta flows
through ``engine.append_rows`` — per-group reservoirs decide which rows
enter the standing sample, only the touched groups re-fit, and the
refreshed model is republished to the store as a new record generation
(``write_refresh``).  The query server invalidates exactly the
refreshed keys' cached answers, in-flight readers keep the old
generation until they finish, and ``store.prune()`` reclaims the
superseded record files.

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import repro


def main() -> None:
    # 1. Offline: train one group-by model set over synthetic sales data.
    sales = repro.generate_store_sales(150_000, seed=7)
    builder = repro.DBEst(config=repro.DBEstConfig(random_seed=1))
    builder.register_table(sales)
    builder.build_model(
        "store_sales",
        x="ss_list_price",
        y="ss_wholesale_cost",
        sample_size=10_000,
        group_by="ss_store_sk",
        streaming=True,  # keep reservoir state: section 6 appends rows
    )
    builder.build_model(
        "store_sales",
        x="ss_list_price",
        y="ss_wholesale_cost",
        sample_size=10_000,
    )

    # 2. Pack the catalog as a store: per-model records + manifest.
    store_dir = Path(tempfile.mkdtemp()) / "sales.store"
    repro.ModelStore.write(builder.catalog, store_dir)

    # 3. Online: a fresh engine serves from the store under a byte
    #    budget — models load lazily and evict LRU, so a warehouse of
    #    thousands of models runs in bounded memory.
    store = repro.ModelStore(store_dir, cache_bytes=64 << 20)
    engine = repro.DBEst()
    engine.catalog = store

    # 4. Dashboard-style traffic: many near-identical queries.  Submit
    #    everything up front; lookalikes coalesce into one engine pass.
    templates = [
        ("SELECT AVG(ss_wholesale_cost) FROM store_sales "
         "WHERE ss_list_price BETWEEN {lo} AND {hi} GROUP BY ss_store_sk;"),
        ("SELECT COUNT(ss_list_price) FROM store_sales "
         "WHERE ss_list_price BETWEEN {lo} AND {hi} GROUP BY ss_store_sk;"),
        ("SELECT SUM(ss_wholesale_cost) FROM store_sales "
         "WHERE ss_list_price BETWEEN {lo} AND {hi};"),
    ]
    workload = [
        template.format(lo=lo, hi=lo + 25)
        for template in templates
        for lo in (10, 35, 60)
        for _ in range(10)  # each user asks the same question
    ]

    start = time.perf_counter()
    with repro.QueryServer(engine, n_workers=4) as server:
        futures = [server.submit(sql) for sql in workload]
        results = [future.result() for future in futures]
        stats = server.stats()
    elapsed = time.perf_counter() - start

    sample = results[0]
    label, groups = next(iter(sample.values.items()))
    print(f"first answer ({label}): {len(groups)} groups, "
          f"e.g. {dict(list(sorted(groups.items()))[:3])}")
    print(f"\nserved {stats['queries']} queries in {elapsed * 1e3:.0f} ms "
          f"({stats['queries'] / elapsed:.0f} q/s)")
    print(f"  engine batches:    {stats['batches']} "
          f"({stats['coalesced']} queries coalesced into shared passes)")
    print(f"  engine calls:      {stats['engine_calls']}")
    print(f"  answer-cache hits: {stats['answer_cache']['hits']}")
    print(f"  plan-cache hits:   {stats['plan_cache']['hits']} "
          f"over {stats['plan_cache']['entries']} distinct shapes")
    store_stats = stats["store"]
    print(f"  store:             {store_stats['resident']}/"
          f"{store_stats['models']} models resident "
          f"({store_stats['resident_bytes'] / 1e6:.2f} MB of "
          f"{store_stats['budget_bytes'] / 1e6:.0f} MB budget), "
          f"{store_stats['loads']} lazy loads")

    # 5. Fault tolerance: same traffic, hostile store.  The injector is
    #    seeded, so this schedule of faults replays identically: 20% of
    #    record loads stall, 10% fail transiently (absorbed by retry +
    #    backoff), and one returns corrupted bytes — that record is
    #    quarantined, its circuit breaker opens, and queries that needed
    #    it come back as degraded AQP answers instead of errors.
    faults = repro.FaultInjector(seed=7)
    faults.inject(repro.STORE_LOAD, probability=0.20, latency_s=0.002)
    faults.inject(repro.STORE_LOAD, probability=0.10, error=OSError)
    faults.inject(repro.STORE_LOAD, corrupt=True, times=1)
    # Degraded answering scans/samples the base table, so the serving
    # engine needs it registered (the happy path above did not).
    engine.register_table(sales)
    engine.catalog = repro.ModelStore(
        store_dir, cache_bytes=1, faults=faults, retries=2,
        retry_backoff_ms=1,
    )
    with repro.QueryServer(
        engine, n_workers=4, coalesce=False, answer_cache_size=1,
        deadline_ms=5_000, max_queue=256, shed_policy="drop-oldest",
        degrade=True,
    ) as server:
        futures = [server.submit(sql) for sql in workload]
        outcomes = [future.result(timeout=30) for future in futures]
        stats = server.stats()

    degraded = [result for result in outcomes if result.degraded]
    print(f"\nfault drill: {len(outcomes)} queries answered under "
          f"{faults.fired()} injected faults — none hung, none lost")
    print(f"  store retries:     {stats['retried']}")
    print(f"  quarantined:       {stats['store']['quarantined']} record(s)")
    print(f"  breaker opens:     {stats['breaker']['opens']}")
    print(f"  degraded answers:  {len(degraded)}")
    if degraded:
        print(f"  e.g. {degraded[0].degraded_reason}")

    # 6. Streaming ingest: append rows while serving.  The group-by
    #    model was trained with streaming=True, so the delta flows
    #    through its per-group reservoirs and only the touched groups
    #    re-fit; the refreshed model is republished to the store as a
    #    new record generation and the server drops exactly the
    #    refreshed keys' cached answers — no restart, no full retrain.
    #    (The drill above quarantined a record, so repack a clean store.)
    store_dir = store_dir.with_name("sales-live.store")
    repro.ModelStore.write(builder.catalog, store_dir)
    store = repro.ModelStore(store_dir)
    engine.catalog = store
    probe = ("SELECT COUNT(ss_list_price) FROM store_sales "
             "WHERE ss_list_price BETWEEN 10 AND 35 GROUP BY ss_store_sk;")
    delta = repro.generate_store_sales(7_500, seed=8)
    with repro.QueryServer(engine, n_workers=4) as server:
        stale = server.submit(probe).result(timeout=30)
        version = store.version
        report = engine.append_rows("store_sales", delta)
        fresh = server.submit(probe).result(timeout=30)
    refreshed = next(iter(report["refreshed"].items()))
    print(f"\nstreaming ingest: appended {report['rows']} rows while "
          f"serving")
    print(f"  refreshed:         {len(refreshed[1])} group(s) of "
          f"{refreshed[0].table}/{refreshed[0].x_columns[0]} "
          f"(store v{version} -> v{store.version})")
    print(f"  left stale:        {len(report['skipped'])} non-streaming "
          f"model(s) (retrain via build_model to pick up the delta)")
    moved = sum(
        1 for group, before in stale.values["COUNT(ss_list_price)"].items()
        if abs(fresh.values["COUNT(ss_list_price)"][group] - before) > 1e-9
    )
    print(f"  answers moved:     {moved} of "
          f"{len(stale.values['COUNT(ss_list_price)'])} groups "
          f"(cache swept for exactly the refreshed key)")
    print(f"  pruned:            {len(store.prune())} superseded record "
          f"generation(s)")

    # 7. Observing the server: flip on the process-global metrics
    #    registry and the per-query trace ring, re-serve the dashboard
    #    traffic, and read back where the time went.  Both switches are
    #    off by default and cost a no-op call per touch when off
    #    (tests/test_observability.py pins the instrument operations
    #    and spans per served query when on; the slow-marked
    #    benchmarks/bench_serving.py floor holds the timed overhead
    #    under 5%).
    registry = repro.enable_metrics()
    traces = repro.enable_tracing(maxlen=256)
    with repro.QueryServer(engine, n_workers=4) as server:
        futures = [server.submit(sql) for sql in workload]
        for future in futures:
            future.result(timeout=30)
        snapshot = registry.snapshot()  # server collector is alive here
    served = snapshot["histograms"]["repro_serve_query_seconds"]
    print(f"\nobserving the server: {int(snapshot['gauges']['repro_serve_queries'])} "
          f"queries instrumented")
    print(f"  latency:           p50={served['p50'] * 1e3:.2f} ms "
          f"p99={served['p99'] * 1e3:.2f} ms")
    print(f"  answer-cache hits: "
          f"{int(snapshot['gauges']['repro_answer_cache_hits'])}")
    print(f"  degraded:          "
          f"{int(snapshot['gauges']['repro_serve_degraded'])}")
    slowest = traces.slowest(1)[0]
    print("  slowest query, hop by hop:")
    for line in slowest.render().splitlines():
        print(f"    {line}")
    # The same registry renders as Prometheus text exposition — this is
    # what `python -m repro stats` prints and what a scraper would pull:
    exposition = repro.render_prometheus(registry)
    print(f"  exposition:        {len(exposition.splitlines())} lines, e.g. "
          f"{next(l for l in exposition.splitlines() if '_bucket' in l)!r}")
    repro.disable_metrics()
    repro.disable_tracing()


if __name__ == "__main__":
    main()
