"""Serving throughput: coalescing query server vs naive sequential execute.

Not a paper figure: this benchmarks the repo's own serving subsystem
(:mod:`repro.serve`) against the one-blocking-query-at-a-time
``DBEst.execute`` loop it layers over.  The workload models dashboard
traffic against a 200-group model set: 400 queries drawn from 16
templates mixing COUNT/SUM/AVG group-by aggregates and scalar AVG over
four bounds templates — many users asking near-identical questions.
The sequential baseline answers them one by one on a warm engine (so it
keeps the engine's own memoised pdf grids); the server additionally
parses each template once, coalesces queued lookalikes into shared
engine passes, and memoises per-aggregate answers.

Results are asserted (the server must clear ``SPEEDUP_FLOOR`` queries/s
over sequential with every answer within 1e-9 relative).  Run as a
script, the legs are also recorded to ``BENCH_serving.json`` at the repo
root so the performance trajectory is tracked across PRs; under pytest
the same floors are asserted on the returned records and nothing is
written.

A *cold-start* leg writes the same catalog to disk in both store
formats and measures store-open to first GROUP BY answer: the pickle
format unpickles and restacks every CSR array up front, the mmap format
maps the persisted arrays in place (``coldstart`` record; the mapped
path must clear ``COLDSTART_FLOOR`` with bit-identical answers and
pickle worker segments as path references, not arrays).

An *observability* leg measures serving CPU time with metrics +
tracing off vs fully on (paired alternating runs; must stay under
``OVERHEAD_BOUND``).  It is the only timed check of that budget: tier-1
pins the deterministic side — instrument operations and spans per
served query — in ``tests/test_observability.py``.

A *chaos* leg re-serves a 500-query workload from an on-disk
model store under injected faults — 10% of record loads suffer a
latency spike, 1% return corrupted bytes, and one worker thread is
killed mid-run — with bounded admission (drop-oldest).  Every future
must resolve (answered, degraded, or shed — never hung), non-degraded
answers must match the fault-free oracle exactly, and degraded answers
must stay within a loose AQP tolerance of it; shed/degraded rates are
recorded alongside the throughput numbers.

Run directly (``python benchmarks/bench_serving.py``) or through pytest
(``pytest benchmarks/bench_serving.py``; marked slow).
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import DBEst, DBEstConfig
from repro.sql.ast import AggregateCall
from repro.errors import ServerOverloadedError
from repro.obs import disable_metrics, enable_metrics
from repro.obs.trace import disable_tracing, enable_tracing
from repro.serve import (
    SERVER_WORKER,
    STORE_LOAD,
    FaultInjector,
    ModelStore,
    QueryServer,
)
from repro.storage.table import Table

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

N_GROUPS = 200
ROWS_PER_GROUP = 40
N_QUERIES = 400
N_WORKERS = 4
SPEEDUP_FLOOR = 3.0
PARITY_BOUND = 1e-9
SEED = 7

N_COLDSTART_REPEATS = 5
COLDSTART_FLOOR = 3.0

N_CHAOS_QUERIES = 500
CHAOS_MAX_QUEUE = 256
#: Degraded answers are judged against exact ground truth (not the
#: model's estimate): an exact-scan route must match it, a sampling
#: route must land within the advisor's CLT-style bound.  Loose enough
#: to cover either route on this fixture.
DEGRADED_BOUND = 0.25
FUTURE_TIMEOUT_S = 60.0


def _serving_fixture(
    groups: int, rows: int, seed: int, sample_size: int | None = None
):
    """A DBEst engine with one group-by and one scalar model, plus a
    mixed serving workload (shared by every leg of this file)."""
    rng = np.random.default_rng(seed)
    n = groups * rows
    g = np.repeat(np.arange(groups), rows).astype(np.float64)
    x = rng.uniform(0.0, 100.0, size=n)
    y = (1.0 + g * 0.05) * x + rng.normal(0.0, 1.0, size=n)
    config = DBEstConfig(
        regressor="plr", min_group_rows=min(30, rows),
        integration_points=65, random_seed=seed,
    )
    engine = DBEst(config=config)
    engine.register_table(Table({"x": x, "y": y, "g": g}, name="served"))
    size = sample_size or n
    engine.build_model("served", x="x", y="y", sample_size=size, group_by="g")
    engine.build_model("served", x="x", y="y", sample_size=size)
    bounds = [(20.0, 60.0), (10.0, 45.0), (55.0, 90.0), (30.0, 75.0)]
    distinct = []
    for lo, hi in bounds:
        for func, column in (("COUNT", "x"), ("SUM", "y"), ("AVG", "y")):
            distinct.append(
                f"SELECT {func}({column}) FROM served "
                f"WHERE x BETWEEN {lo} AND {hi} GROUP BY g;"
            )
        distinct.append(
            f"SELECT AVG(y) FROM served WHERE x BETWEEN {lo} AND {hi};"
        )
    return engine, distinct


def _serving_divergence(sequential, served) -> float:
    """Worst relative divergence between two lists of QueryResults."""
    worst = 0.0
    for seq_result, served_result in zip(sequential, served):
        for label, expected in seq_result.values.items():
            got = served_result.values[label]
            if isinstance(expected, dict):
                pairs = [(expected[value], got[value]) for value in expected]
            else:
                pairs = [(expected, got)]
            for want, have in pairs:
                if math.isnan(want) or math.isnan(have):
                    if math.isnan(want) != math.isnan(have):
                        worst = float("inf")
                    continue
                worst = max(worst, abs(have - want) / max(1.0, abs(want)))
    return worst


def measure_observability_overhead(
    groups: int, rows: int, seed: int, repeats: int = 9
) -> dict:
    """Serving CPU time with instrumentation off vs fully on.

    Runs the fixture's workload through a fresh query server per
    measurement and estimates the relative cost of enabling metrics +
    tracing.  Methodology, chosen for stability on noisy shared boxes:

    * **CPU time** (``time.process_time``), not wall time — the
      instrumentation cost is pure CPU work, and wall time of a
      threaded server run carries multi-millisecond scheduler jitter
      that dwarfs a 5% budget.
    * **Representative per-query work** — the fixture is clamped to
      20 groups and at least 1000 rows/group regardless of
      ``groups``/``rows``; at toy sizes every answer costs
      microseconds and the fixed per-trace cost is measured against
      near-zero serving cost.
    * **Paired alternating runs** — ``repeats`` adjacent off/on pairs
      (order flipped each pair) after warm-up, combined as the smaller
      of the median per-pair ratio and the min-vs-min ratio.  Noise
      only ever inflates either estimator, so taking the lower of the
      two tightens the upper estimate of the true overhead.

    Returns ``{"off_s", "on_s", "overhead"}``: median CPU seconds per
    arm plus the overhead estimate (clamped at 0).
    """
    engine, distinct = _serving_fixture(20, max(rows, 1000), seed)
    workload = distinct * 3
    engine.execute(workload[0])  # warm-up (evaluator stacking)

    def _run() -> float:
        with QueryServer(engine, n_workers=2) as server:
            start = time.process_time()
            server.run(workload)
            return time.process_time() - start

    _run()
    _run()  # warm both allocator and thread machinery before pairing
    samples: dict[bool, list[float]] = {False: [], True: []}
    for index in range(repeats):
        order = (True, False) if index % 2 else (False, True)
        for instrumented in order:
            if instrumented:
                enable_metrics()
                enable_tracing()
            else:
                disable_metrics()
                disable_tracing()
            try:
                samples[instrumented].append(_run())
            finally:
                disable_metrics()
                disable_tracing()
    paired = statistics.median(
        on / off for on, off in zip(samples[True], samples[False])
    )
    mins = min(samples[True]) / min(samples[False])
    overhead = max(0.0, min(paired, mins) - 1.0)
    return {
        "off_s": statistics.median(samples[False]),
        "on_s": statistics.median(samples[True]),
        "overhead": overhead,
    }


def run_benchmark() -> dict:
    engine, distinct = _serving_fixture(N_GROUPS, ROWS_PER_GROUP, SEED)
    rng = np.random.default_rng(SEED)
    workload = [
        distinct[i] for i in rng.integers(0, len(distinct), N_QUERIES)
    ]
    engine.execute(workload[0])  # warm-up: evaluator stacking, imports

    start = time.perf_counter()
    sequential = [engine.execute(sql) for sql in workload]
    sequential_s = time.perf_counter() - start

    with QueryServer(engine, n_workers=N_WORKERS) as server:
        start = time.perf_counter()
        served = server.run(workload)
        served_s = time.perf_counter() - start
        stats = server.stats()

    record = {
        "bench": "serving",
        "n_groups": N_GROUPS,
        "rows_per_group": ROWS_PER_GROUP,
        "n_queries": N_QUERIES,
        "n_templates": len(distinct),
        "n_workers": N_WORKERS,
        "sequential_seconds": sequential_s,
        "served_seconds": served_s,
        "sequential_qps": N_QUERIES / sequential_s,
        "served_qps": N_QUERIES / served_s,
        "speedup": sequential_s / served_s,
        "max_divergence": _serving_divergence(sequential, served),
        "batches": stats["batches"],
        "coalesced": stats["coalesced"],
        "engine_calls": stats["engine_calls"],
        "answer_cache": stats["answer_cache"],
        "plan_cache": stats["plan_cache"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return record


def _pool_worker_rss_kb(workers: int) -> float | None:
    """Mean resident set size (kB) of the persistent process pool's
    workers, from /proc; None where unsupported.  Informational — the
    asserted no-copy signal is the pickled-segment payload size."""
    from repro.core.parallel import _POOLS

    pool = _POOLS.get(("process", workers))
    if pool is None:
        return None
    try:
        sizes = []
        for pid in list(getattr(pool, "_processes", {})):
            status = Path(f"/proc/{pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmRSS:"):
                    sizes.append(float(line.split()[1]))
                    break
        return float(np.mean(sizes)) if sizes else None
    except OSError:
        return None


def run_coldstart_benchmark() -> dict:
    """Cold start (store open -> first GROUP BY answer), pickle vs mmap.

    The pickle path unpickles the whole group-by set and restacks its
    CSR arrays; the mapped path is an mmap + header check with the
    derived arrays persisted.  Answers must be bit-identical.  Also
    records the pickled-payload size of one worker-pool segment under
    each format (mapped segments pickle as path references) and the
    pool workers' RSS after a fanned-out pass.
    """
    engine, distinct = _serving_fixture(N_GROUPS, ROWS_PER_GROUP, SEED)
    gb_queries = [sql for sql in distinct if "GROUP BY" in sql]
    group_key = next(k for k in engine.catalog.keys() if k.group_by)
    first_aggregate = AggregateCall("COUNT", "x")
    first_ranges = {"x": (20.0, 60.0)}
    serving_config = dataclasses.replace(engine.config, n_workers=N_WORKERS)

    legs: dict[str, dict] = {}
    answers: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            fmt: Path(tmp) / f"{fmt}.store" for fmt in ("mmap", "pickle")
        }
        for fmt, store_path in paths.items():
            ModelStore.write(engine.catalog, store_path, store_format=fmt)
        # The mmap leg runs first so the persistent process pool's RSS
        # reading cannot be inflated by pickle-leg allocations.
        for fmt, store_path in paths.items():
            times = []
            # Timed region: store open -> group-by model load -> first
            # batched answer.  That is exactly what the record format
            # changes (unpickle + restack vs mmap + header check); the
            # SQL layer above it is format-independent and is parity-
            # checked separately below.  One warm-up repeat absorbs
            # first-touch costs shared by both legs (imports, page
            # cache for the record file); min over the rest is the
            # noise-robust cold-start statistic.
            for repeat in range(N_COLDSTART_REPEATS + 1):
                start = time.perf_counter()
                cold = ModelStore(store_path)
                cold.get(group_key).answer(first_aggregate, first_ranges)
                if repeat > 0:
                    times.append(time.perf_counter() - start)
            # Warm handle for parity answers + worker fan-out metrics.
            serving = DBEst(config=serving_config)
            serving.catalog = ModelStore(store_path)
            answers[fmt] = [serving.execute(sql) for sql in gb_queries]
            evaluator = serving.catalog.get(group_key).batched_evaluator()
            segment_bytes = max(
                len(pickle.dumps(segment))
                for segment in evaluator.split(N_WORKERS)
            )
            legs[fmt] = {
                "first_answer_seconds": float(np.min(times)),
                "segment_pickle_bytes": segment_bytes,
                "worker_rss_kb": _pool_worker_rss_kb(N_WORKERS),
            }

    coldstart = {
        "n_groups": N_GROUPS,
        "repeats": N_COLDSTART_REPEATS,
        "n_workers": N_WORKERS,
        "pickle": legs["pickle"],
        "mmap": legs["mmap"],
        "speedup": (
            legs["pickle"]["first_answer_seconds"]
            / legs["mmap"]["first_answer_seconds"]
        ),
        "divergence": _serving_divergence(answers["pickle"], answers["mmap"]),
    }
    return coldstart


OVERHEAD_BOUND = 0.05


def run_overhead_benchmark() -> dict:
    """Instrumentation overhead (metrics + tracing fully on) on the
    serving workload.  Must stay under ``OVERHEAD_BOUND``."""
    result = measure_observability_overhead(N_GROUPS, ROWS_PER_GROUP, SEED)
    overhead = {
        "baseline_s": result["off_s"],
        "instrumented_s": result["on_s"],
        "relative": result["overhead"],
        "bound": OVERHEAD_BOUND,
    }
    return overhead


def run_chaos_benchmark() -> dict:
    """The fault-injected leg."""
    engine, distinct = _serving_fixture(N_GROUPS, ROWS_PER_GROUP, SEED)
    rng = np.random.default_rng(SEED + 1)
    workload = [
        distinct[i] for i in rng.integers(0, len(distinct), N_CHAOS_QUERIES)
    ]
    engine.execute(workload[0])  # warm-up
    oracle = [engine.execute(sql) for sql in workload]
    # Ground truth for judging degraded answers: the advisor's error
    # bound is relative to the true aggregate, not to the model's own
    # estimate (which carries its KDE/regression approximation error).
    from repro.engines import ExactEngine

    exact_engine = ExactEngine()
    exact_engine.register_table(engine.tables["served"])
    truth = [exact_engine.execute(sql) for sql in workload]

    faults = FaultInjector(seed=SEED)
    faults.inject(STORE_LOAD, probability=0.10, latency_s=0.002)
    faults.inject(STORE_LOAD, probability=0.01, corrupt=True)
    # One guaranteed corruption so the quarantine -> breaker -> degrade
    # chain is always exercised (the 1% draw alone may never fire).
    faults.inject(STORE_LOAD, corrupt=True, times=1)
    faults.inject(SERVER_WORKER, kill_worker=True, times=1)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "models.store"
        ModelStore.write(engine.catalog, store_path)
        # cache_bytes=1 evicts each record after use, a 1-entry answer
        # cache keeps thrashing, and coalescing is off, so every query
        # re-crosses the faulty store.load seam instead of hiding
        # behind warm caches or batch-mates.
        engine.catalog = ModelStore(store_path, cache_bytes=1, faults=faults)
        start = time.perf_counter()
        with QueryServer(
            engine,
            n_workers=N_WORKERS,
            answer_cache_size=1,
            coalesce=False,
            max_queue=CHAOS_MAX_QUEUE,
            shed_policy="drop-oldest",
            degrade=True,
            faults=faults,
        ) as server:
            futures = []
            for sql in workload:
                try:
                    futures.append(server.submit(sql))
                except ServerOverloadedError:
                    futures.append(None)
            served = []
            shed = 0
            hung = 0
            for future in futures:
                if future is None:
                    shed += 1
                    served.append(None)
                    continue
                try:
                    served.append(future.result(timeout=FUTURE_TIMEOUT_S))
                except ServerOverloadedError:
                    shed += 1
                    served.append(None)
                except TimeoutError:
                    hung += 1
                    served.append(None)
            chaos_s = time.perf_counter() - start
            stats = server.stats()

    answered = [
        (want, true, got)
        for want, true, got in zip(oracle, truth, served)
        if got is not None
    ]
    exact = [(want, got) for want, _, got in answered if not got.degraded]
    degraded = [(true, got) for _, true, got in answered if got.degraded]
    chaos = {
        "n_queries": N_CHAOS_QUERIES,
        "n_workers": N_WORKERS,
        "max_queue": CHAOS_MAX_QUEUE,
        "seconds": chaos_s,
        "qps": N_CHAOS_QUERIES / chaos_s,
        "answered": len(answered),
        "hung": hung,
        "shed": shed,
        "shed_rate": shed / N_CHAOS_QUERIES,
        "degraded": len(degraded),
        "degraded_rate": len(degraded) / N_CHAOS_QUERIES,
        "exact_divergence": _serving_divergence(
            [want for want, _ in exact], [got for _, got in exact]
        ),
        "degraded_divergence": _serving_divergence(
            [want for want, _ in degraded], [got for _, got in degraded]
        ),
        "faults_fired": faults.stats()["fired"],
        "store_retries": stats.get("retried", 0),
        "breaker_opens": stats["breaker"]["opens"],
        "worker_deaths": stats["worker_deaths"],
    }
    return chaos


@pytest.mark.slow
def test_serving_throughput_and_parity():
    record = run_benchmark()
    assert record["max_divergence"] <= PARITY_BOUND
    assert record["speedup"] >= SPEEDUP_FLOOR, (
        f"query server only {record['speedup']:.1f}x over sequential "
        f"execute; need >= {SPEEDUP_FLOOR}x "
        f"({record['sequential_qps']:.0f} -> {record['served_qps']:.0f} q/s, "
        f"{record['engine_calls']} engine calls for "
        f"{record['n_queries']} queries)"
    )


@pytest.mark.slow
def test_serving_coldstart():
    coldstart = run_coldstart_benchmark()
    assert coldstart["divergence"] <= PARITY_BOUND, (
        "mmap answers diverged from the pickle oracle: "
        f"{coldstart['divergence']:.2e}"
    )
    assert coldstart["speedup"] >= COLDSTART_FLOOR, (
        f"mmap cold start only {coldstart['speedup']:.1f}x over pickle "
        f"({coldstart['pickle']['first_answer_seconds'] * 1e3:.1f}ms -> "
        f"{coldstart['mmap']['first_answer_seconds'] * 1e3:.1f}ms); "
        f"need >= {COLDSTART_FLOOR}x"
    )
    # Mapped worker segments must pickle as path references, never as
    # the stacked arrays themselves.
    assert coldstart["mmap"]["segment_pickle_bytes"] < 4096
    assert (
        coldstart["pickle"]["segment_pickle_bytes"]
        > 10 * coldstart["mmap"]["segment_pickle_bytes"]
    )


@pytest.mark.slow
def test_serving_observability_overhead():
    overhead = run_overhead_benchmark()
    assert overhead["relative"] < OVERHEAD_BOUND, (
        f"metrics + tracing cost {overhead['relative']:.1%} of serving "
        f"throughput; budget is {OVERHEAD_BOUND:.0%} "
        f"({overhead['baseline_s'] * 1e3:.1f}ms -> "
        f"{overhead['instrumented_s'] * 1e3:.1f}ms)"
    )


@pytest.mark.slow
def test_serving_chaos_availability():
    chaos = run_chaos_benchmark()
    assert chaos["hung"] == 0, f"{chaos['hung']} futures never resolved"
    assert chaos["answered"] + chaos["shed"] == chaos["n_queries"]
    assert chaos["exact_divergence"] <= PARITY_BOUND, (
        "non-degraded answers diverged from the fault-free oracle: "
        f"{chaos['exact_divergence']:.2e}"
    )
    assert chaos["degraded_divergence"] <= DEGRADED_BOUND, (
        "degraded answers strayed beyond the AQP tolerance: "
        f"{chaos['degraded_divergence']:.2e}"
    )
    assert chaos["worker_deaths"] == 1  # the injected kill was absorbed


def main() -> int:
    record = run_benchmark()
    print(f"serving benchmark ({record['n_queries']} queries, "
          f"{record['n_templates']} templates, {record['n_groups']} groups, "
          f"{record['n_workers']} workers)")
    print(f"  sequential execute {record['sequential_seconds']:8.3f}s "
          f"({record['sequential_qps']:8.0f} q/s)")
    print(f"  query server       {record['served_seconds']:8.3f}s "
          f"({record['served_qps']:8.0f} q/s)   "
          f"{record['speedup']:.1f}x")
    print(f"  {record['batches']} batches, {record['coalesced']} coalesced, "
          f"{record['engine_calls']} engine calls, "
          f"max divergence {record['max_divergence']:.2e}")
    coldstart = run_coldstart_benchmark()
    print(f"cold-start leg ({coldstart['n_groups']} groups, "
          f"best of {coldstart['repeats']})")
    for fmt in ("pickle", "mmap"):
        leg = coldstart[fmt]
        rss = (f"{leg['worker_rss_kb'] / 1024:7.1f} MB worker rss"
               if leg["worker_rss_kb"] else "worker rss n/a")
        print(f"  {fmt:6s} first answer {leg['first_answer_seconds'] * 1e3:8.1f}ms, "
              f"{leg['segment_pickle_bytes']:8d} B segment pickle, {rss}")
    print(f"  {coldstart['speedup']:.1f}x cold-start speedup, "
          f"divergence {coldstart['divergence']:.2e}")
    overhead = run_overhead_benchmark()
    print(f"observability leg (metrics + tracing fully enabled)")
    print(f"  {overhead['baseline_s'] * 1e3:8.1f}ms off -> "
          f"{overhead['instrumented_s'] * 1e3:8.1f}ms on "
          f"({overhead['relative']:.1%} overhead, "
          f"budget {overhead['bound']:.0%})")
    chaos = run_chaos_benchmark()
    print(f"chaos leg ({chaos['n_queries']} queries, faulty store, "
          f"one worker kill)")
    print(f"  {chaos['seconds']:8.3f}s ({chaos['qps']:8.0f} q/s), "
          f"{chaos['answered']} answered / {chaos['shed']} shed / "
          f"{chaos['hung']} hung")
    print(f"  {chaos['degraded']} degraded "
          f"(rate {chaos['degraded_rate']:.1%}), "
          f"exact divergence {chaos['exact_divergence']:.2e}, "
          f"degraded divergence {chaos['degraded_divergence']:.2e}")
    print(f"  faults fired {chaos['faults_fired']}, "
          f"{chaos['store_retries']} store retries, "
          f"{chaos['breaker_opens']} breaker opens, "
          f"{chaos['worker_deaths']} worker deaths")
    record.update(coldstart=coldstart, overhead=overhead, chaos=chaos)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record written to {RESULT_PATH}")
    return 0 if (
        record["speedup"] >= SPEEDUP_FLOOR
        and record["max_divergence"] <= PARITY_BOUND
        and coldstart["speedup"] >= COLDSTART_FLOOR
        and coldstart["divergence"] <= PARITY_BOUND
        and overhead["relative"] < OVERHEAD_BOUND
        and chaos["hung"] == 0
        and chaos["exact_divergence"] <= PARITY_BOUND
        and chaos["degraded_divergence"] <= DEGRADED_BOUND
    ) else 1


if __name__ == "__main__":
    raise SystemExit(main())
