"""Streaming ingest: dirty-group refresh vs full retrain, plus a
serving-through-republish chaos leg.

Not a paper figure: this benchmarks the repo's incremental maintenance
path (PR 9) against the rebuild it replaces.  The workload models a
200-group streaming table taking a ~5% append that lands in at most 10%
of the groups — the situation the refresh path exists for: most groups'
models (and their CSR segments in the stacked evaluator) are untouched,
so absorbing the delta should cost a small fraction of retraining every
group from scratch.

The refresh leg times ``GroupByModelSet.refresh`` (reservoir decisions,
incremental partition merge, dirty-group re-fit through the batched
trainer's ``group_mask``, and the evaluator splice) on pickled clones of
the trained set, against a full ``train`` + evaluator stack on exactly
the final sample arrays the refresh produced.  Results are asserted —
the refresh must clear ``SPEEDUP_FLOOR`` over the retrain with every
COUNT/SUM/AVG group answer within ``PARITY_BOUND`` relative of the
retrain oracle.

A *chaos* leg serves a query workload through a :class:`QueryServer`
backed by an on-disk :class:`ModelStore` while a writer thread keeps
republishing refreshed generations via ``write_refresh``: every future
must resolve (zero hung), and every answer returned after a republish
must match the generation that was live when it was answered — the
version-tagged answer cache may never serve a stale entry.

Run directly (``python benchmarks/bench_ingest.py``) both legs are also
recorded to ``BENCH_ingest.json`` at the repo root so the trajectory is
tracked across PRs; through pytest (``pytest benchmarks/bench_ingest.py``;
marked slow) the same floors are asserted and nothing is written.
"""

from __future__ import annotations

import json
import pickle
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DBEstConfig
from repro.core.engine import DBEst
from repro.core.groupby import GroupByModelSet
from repro.sql.ast import AggregateCall
from repro.storage.table import Table

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"

N_GROUPS = 200
ROWS_PER_GROUP = 2000  # full-table rows; the sample is 40x smaller
SAMPLE_SIZE = 10_000
DIRTY_GROUPS = 20  # <= 10% of the groups take the append
DELTA_ROWS = N_GROUPS * ROWS_PER_GROUP // 20  # a ~5% append
N_REPEATS = 5
SPEEDUP_FLOOR = 5.0
PARITY_BOUND = 1e-9
SEED = 7

N_CHAOS_QUERIES = 120
N_REPUBLISHES = 6
FUTURE_TIMEOUT_S = 60.0


def _make_data(rng, n, groups):
    g = rng.integers(0, groups, size=n).astype(np.float64)
    x = rng.uniform(0.0, 100.0, size=n)
    y = (1.0 + g * 0.05) * x + rng.normal(0.0, 1.0, size=n)
    return g, x, y


def _config():
    return DBEstConfig(
        regressor="plr", min_group_rows=30, integration_points=65,
        random_seed=SEED,
    )


def _train_kwargs(g, x, y):
    return dict(
        full_groups=g, full_x=x, full_y=y,
        table_name="ingest", x_columns=("x",), y_column="y",
        group_column="g", config=_config(),
    )


def _answers(model_set):
    ranges = {"x": (20.0, 60.0)}
    return {
        func: model_set.answer(AggregateCall(func, "y"), ranges, batched=True)
        for func in ("COUNT", "SUM", "AVG")
    }


def _divergence(got, expected) -> float:
    import math

    worst = 0.0
    for func in expected:
        for value, want in expected[func].items():
            have = got[func][value]
            if math.isnan(want) or math.isnan(have):
                if math.isnan(want) != math.isnan(have):
                    worst = float("inf")
                continue
            worst = max(worst, abs(have - want) / max(1.0, abs(want)))
    return worst


def run_benchmark() -> dict:
    rng = np.random.default_rng(SEED)
    n = N_GROUPS * ROWS_PER_GROUP
    g, x, y = _make_data(rng, n, N_GROUPS)
    # The paper's setting: the models train on a uniform sample an
    # order of magnitude smaller than the table, so a full rebuild
    # pays both the sample-wide re-fit and the full-table group census.
    idx = np.sort(rng.choice(n, size=SAMPLE_SIZE, replace=False))
    base = GroupByModelSet.train(
        sample_x=x[idx], sample_y=y[idx], sample_groups=g[idx],
        streaming=True, **_train_kwargs(g, x, y),
    )
    assert base.batched_evaluator() is not None
    frozen = pickle.dumps(base)

    dg = rng.integers(0, DIRTY_GROUPS, size=DELTA_ROWS).astype(np.float64)
    dx = rng.uniform(0.0, 100.0, size=DELTA_ROWS)
    dy = (1.0 + dg * 0.05) * dx + rng.normal(0.0, 1.0, size=DELTA_ROWS)

    # Refresh leg: each repeat refreshes a pristine clone (refresh
    # mutates streaming state, so repeats cannot share one set).  The
    # timed region is exactly what an ingest tick costs: reservoir
    # decisions, partition merge, dirty re-fit, evaluator splice.  The
    # evaluator is stacked before the clock starts (a serving set is
    # warm) so the timed refresh includes the splice, symmetric with
    # the retrain leg timing its stack.
    refresh_times = []
    refreshed = None
    for _ in range(N_REPEATS):
        clone = pickle.loads(frozen)
        assert clone.batched_evaluator() is not None
        start = time.perf_counter()
        dirty = clone.refresh(dx, dy, dg)
        refresh_times.append(time.perf_counter() - start)
        refreshed = clone
    assert refreshed._batched_built, (
        "refresh fell back to a lazy evaluator rebuild — the splice "
        "should have kept it warm"
    )

    # Retrain leg: a from-scratch train on the same final sample arrays
    # plus evaluator stacking — the cost refresh replaces.
    stream = refreshed._stream
    full = _train_kwargs(
        np.concatenate([g, dg]), np.concatenate([x, dx]),
        np.concatenate([y, dy]),
    )
    retrain_times = []
    oracle = None
    for _ in range(N_REPEATS):
        start = time.perf_counter()
        oracle = GroupByModelSet.train(
            sample_x=stream.sample_x, sample_y=stream.sample_y,
            sample_groups=stream.sample_groups, **full,
        )
        assert oracle.batched_evaluator() is not None
        retrain_times.append(time.perf_counter() - start)

    refresh_s = float(np.min(refresh_times))
    retrain_s = float(np.min(retrain_times))
    record = {
        "bench": "ingest",
        "n_groups": N_GROUPS,
        "rows_per_group": ROWS_PER_GROUP,
        "delta_rows": DELTA_ROWS,
        "dirty_groups": len(dirty),
        "repeats": N_REPEATS,
        "refresh_seconds": refresh_s,
        "retrain_seconds": retrain_s,
        "speedup": retrain_s / refresh_s,
        "max_divergence": _divergence(_answers(refreshed), _answers(oracle)),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return record


def run_chaos_benchmark() -> dict:
    """Serve through repeated store republishes."""
    from repro.serve import ModelStore, QueryServer

    rng = np.random.default_rng(SEED + 1)
    n = 40 * ROWS_PER_GROUP
    g, x, y = _make_data(rng, n, 40)
    engine = DBEst(config=_config())
    engine.register_table(Table({"x": x, "y": y, "g": g}, name="ingest"))
    key = engine.build_model(
        "ingest", x="x", y="y", group_by="g", streaming=True
    )
    sql = "SELECT COUNT(x) FROM ingest WHERE x BETWEEN 20 AND 60 GROUP BY g;"
    aggregate, ranges = AggregateCall("COUNT", "x"), {"x": (20.0, 60.0)}

    hung = 0
    stale_hits = 0
    publishes = []  # (version, oracle per-group answers) in publish order
    with tempfile.TemporaryDirectory() as tmp:
        store = engine.pack_store(Path(tmp) / "models.store")
        engine.catalog = store
        model = store.get(key)
        publishes.append((store.version, model.answer(aggregate, ranges)))
        stop = threading.Event()

        def writer():
            w_rng = np.random.default_rng(SEED + 2)
            for _ in range(N_REPUBLISHES):
                if stop.is_set():
                    return
                m = DELTA_ROWS // 4
                wg = w_rng.integers(0, 4, size=m).astype(np.float64)
                wx = w_rng.uniform(0.0, 100.0, size=m)
                wy = (1.0 + wg * 0.05) * wx \
                    + w_rng.normal(0.0, 1.0, size=m)
                model.refresh(wx, wy, wg)
                store.write_refresh(key, model)
                publishes.append(
                    (store.version, model.answer(aggregate, ranges))
                )
                time.sleep(0.005)

        start = time.perf_counter()
        with QueryServer(engine, n_workers=4) as server:
            thread = threading.Thread(target=writer)
            thread.start()
            futures = []
            for _ in range(N_CHAOS_QUERIES):
                futures.append((store.version, server.submit(sql)))
                time.sleep(0.001)
            results = []
            for version_at_submit, future in futures:
                try:
                    results.append(
                        (version_at_submit,
                         future.result(timeout=FUTURE_TIMEOUT_S))
                    )
                except TimeoutError:
                    hung += 1
            stop.set()
            thread.join()
        chaos_s = time.perf_counter() - start
        pruned = len(store.prune())

    # Every answer must match SOME generation no older than the one
    # live at submit time — matching an older generation would mean a
    # stale cache entry survived an invalidation sweep.
    worst = 0.0
    for version_at_submit, result in results:
        got = result.values["COUNT(x)"]
        best = None
        best_version = None
        for version, oracle in publishes:
            div = max(
                abs(got[value] - want) / max(1.0, abs(want))
                for value, want in oracle.items()
            )
            if best is None or div < best:
                best, best_version = div, version
        worst = max(worst, best)
        if best <= PARITY_BOUND and best_version < version_at_submit:
            stale_hits += 1

    chaos = {
        "n_queries": N_CHAOS_QUERIES,
        "republishes": N_REPUBLISHES,
        "seconds": chaos_s,
        "answered": len(results),
        "hung": hung,
        "stale_hits": stale_hits,
        "pruned": pruned,
        "generation_divergence": worst,
    }
    return chaos


@pytest.mark.slow
def test_refresh_speedup_and_parity():
    record = run_benchmark()
    assert record["max_divergence"] <= PARITY_BOUND, (
        "refreshed answers diverged from the from-scratch retrain: "
        f"{record['max_divergence']:.2e}"
    )
    assert record["dirty_groups"] <= N_GROUPS // 10
    assert record["speedup"] >= SPEEDUP_FLOOR, (
        f"dirty-group refresh only {record['speedup']:.1f}x over a full "
        f"retrain ({record['retrain_seconds'] * 1e3:.1f}ms -> "
        f"{record['refresh_seconds'] * 1e3:.1f}ms for "
        f"{record['dirty_groups']}/{record['n_groups']} dirty groups); "
        f"need >= {SPEEDUP_FLOOR}x"
    )


@pytest.mark.slow
def test_serving_through_republish():
    chaos = run_chaos_benchmark()
    assert chaos["hung"] == 0, f"{chaos['hung']} futures never resolved"
    assert chaos["answered"] == chaos["n_queries"]
    assert chaos["stale_hits"] == 0, (
        f"{chaos['stale_hits']} answers matched a generation older than "
        "the one live at submit time (stale cache hits)"
    )
    assert chaos["generation_divergence"] <= PARITY_BOUND, (
        "some answer matched no published generation: "
        f"{chaos['generation_divergence']:.2e}"
    )


def main() -> int:
    record = run_benchmark()
    print(f"ingest benchmark ({record['n_groups']} groups, "
          f"{record['delta_rows']} delta rows into "
          f"{record['dirty_groups']} groups)")
    print(f"  full retrain        {record['retrain_seconds'] * 1e3:8.2f}ms")
    print(f"  dirty-group refresh {record['refresh_seconds'] * 1e3:8.2f}ms   "
          f"{record['speedup']:.1f}x")
    print(f"  max divergence vs retrain: {record['max_divergence']:.2e}")
    chaos = run_chaos_benchmark()
    print(f"chaos: {chaos['answered']}/{chaos['n_queries']} answered through "
          f"{chaos['republishes']} republishes in {chaos['seconds']:.2f}s; "
          f"{chaos['hung']} hung, {chaos['stale_hits']} stale cache hits, "
          f"{chaos['pruned']} generations pruned")
    record["chaos"] = chaos
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    ok = (
        record["max_divergence"] <= PARITY_BOUND
        and record["speedup"] >= SPEEDUP_FLOOR
        and chaos["hung"] == 0
        and chaos["stale_hits"] == 0
        and chaos["generation_divergence"] <= PARITY_BOUND
    )
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
