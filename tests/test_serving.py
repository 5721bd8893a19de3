"""Tests for the serving subsystem: store, plan/answer caches, server.

The parity suite asserts the acceptance criterion directly: coalesced,
cached, concurrently-served answers equal sequential ``DBEst.execute``
answers to 1e-9 across COUNT/SUM/AVG/VARIANCE/PERCENTILE, scalar and
group-by workloads, with and without the lazy store underneath — and
store eviction must be transparent (evicted models reload and answer
bit-identically).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import DBEst, DBEstConfig, ModelCatalog, ModelKey
from repro.core.engine import parse_cache_clear, parse_cache_info
from repro.engines import ExactEngine
from repro.errors import (
    CatalogError,
    ModelNotFoundError,
    QueryExecutionError,
    SQLSyntaxError,
    UnsupportedQueryError,
)
from repro.serve import AnswerCache, ModelStore, PlanCache, QueryServer, answer_key
from repro.sql.ast import AggregateCall
from repro.sql.parser import parse_query
from repro.storage.table import Table


@pytest.fixture(scope="module")
def served_engine():
    """An engine with scalar, group-by, multivariate, and raw-group
    state — every model type the serving layer must round-trip."""
    rng = np.random.default_rng(31)
    n_groups, rows = 12, 300
    n = n_groups * rows
    g = np.repeat(np.arange(n_groups), rows).astype(np.float64)
    # Group 0 is tiny so the model set keeps a RawGroup.
    keep = (g != 0) | (np.arange(n) % rows < 10)
    g = g[keep]
    x = rng.uniform(0.0, 100.0, size=g.size)
    z = rng.uniform(-5.0, 5.0, size=g.size)
    y = (1.0 + 0.1 * g) * x + 0.5 * z + rng.normal(0.0, 1.0, size=g.size)
    table = Table({"x": x, "z": z, "y": y, "g": g}, name="traffic")
    config = DBEstConfig(
        regressor="plr", integration_points=65, min_group_rows=30,
        random_seed=31,
    )
    engine = DBEst(config=config)
    engine.register_table(table)
    engine.build_model("traffic", x="x", y="y", sample_size=g.size,
                       group_by="g")
    engine.build_model("traffic", x="x", y="y", sample_size=g.size)
    # Multivariate predicate sets need a non-piecewise regressor; build
    # through a second engine sharing the catalog.
    multi = DBEst(config=DBEstConfig(
        regressor="linear", integration_points=65, min_group_rows=30,
        random_seed=31,
    ))
    multi.register_table(table)
    multi.catalog = engine.catalog
    multi.build_model("traffic", x=("x", "z"), y="y", sample_size=g.size)
    return engine


WORKLOAD = [
    "SELECT COUNT(x) FROM traffic WHERE x BETWEEN 20 AND 60 GROUP BY g;",
    "SELECT SUM(y) FROM traffic WHERE x BETWEEN 20 AND 60 GROUP BY g;",
    "SELECT AVG(y) FROM traffic WHERE x BETWEEN 20 AND 60 GROUP BY g;",
    "SELECT VARIANCE(y) FROM traffic WHERE x BETWEEN 10 AND 80 GROUP BY g;",
    "SELECT AVG(y), COUNT(x) FROM traffic WHERE x BETWEEN 25 AND 45 GROUP BY g;",
    "SELECT AVG(y) FROM traffic WHERE x BETWEEN 10 AND 80;",
    "SELECT PERCENTILE(x, 0.5) FROM traffic WHERE x BETWEEN 10 AND 80;",
    "SELECT SUM(y) FROM traffic WHERE x BETWEEN 30 AND 70 AND z BETWEEN -2 AND 2;",
    "SELECT AVG(y) FROM traffic WHERE x BETWEEN 20 AND 60 AND g = 3;",
    # Contradictory one-sided bounds merge to an empty interval.
    "SELECT COUNT(x) FROM traffic WHERE x >= 70 AND x <= 40 GROUP BY g;",
]


def _model_answer(model, aggregate, ranges):
    """Answer through GroupByModelSet.answer or the scalar dispatcher."""
    from repro.core import answer_aggregate

    if hasattr(model, "answer"):
        return model.answer(aggregate, ranges)
    return answer_aggregate(model, aggregate, ranges)


def _assert_results_match(sequential, served, bound=1e-9):
    for seq_result, served_result in zip(sequential, served):
        assert set(seq_result.values) == set(served_result.values)
        for label, expected in seq_result.values.items():
            got = served_result.values[label]
            if isinstance(expected, dict):
                assert set(expected) == set(got)
                for value in expected:
                    assert got[value] == pytest.approx(
                        expected[value], abs=bound, rel=bound, nan_ok=True
                    )
            else:
                assert got == pytest.approx(
                    expected, abs=bound, rel=bound, nan_ok=True
                )


class TestModelStore:
    def test_lazy_roundtrip_and_catalog_api(self, served_engine, tmp_path):
        store = ModelStore.write(
            served_engine.catalog, tmp_path / "s", cache_bytes=0
        )
        assert len(store) == len(served_engine.catalog)
        assert store.loaded_keys() == []          # nothing resident yet
        key = ModelKey.make("traffic", ("x",), "y", "g")
        assert key in store
        model = store.get(key)
        assert store.loaded_keys() == [key]
        original = served_engine.catalog.get(key)
        aggregate = AggregateCall("AVG", "y")
        ranges = {"x": (20.0, 60.0)}
        assert model.answer(aggregate, ranges) == original.answer(
            aggregate, ranges
        )
        # find resolves through the manifest, including supersets.
        assert store.find("traffic", ("x",), "y", "g") is model
        superset = store.resolve("traffic", ("z",), "y", None)
        assert superset.x_columns == ("x", "z")
        rows = store.summary()
        assert {row["type"] for row in rows} == {
            "GroupByModelSet", "ColumnSetModel",
        }

    def test_eviction_under_budget_reloads_bit_identically(
        self, served_engine, tmp_path
    ):
        catalog = served_engine.catalog
        # A budget smaller than the whole catalog forces eviction cycles.
        store = ModelStore.write(catalog, tmp_path / "s")
        store.cache_bytes = max(store.total_size_bytes() // 2, 1)
        aggregate = AggregateCall("AVG", "y")
        ranges = {"x": (20.0, 60.0)}
        expected = {
            key: _model_answer(catalog.get(key), aggregate, ranges)
            for key in catalog.keys()
        }
        for _ in range(3):  # cycle keys through the LRU repeatedly
            for key in catalog.keys():
                got = _model_answer(store.get(key), aggregate, ranges)
                assert got == expected[key]  # bit-identical
        stats = store.stats()
        assert stats["evictions"] > 0
        assert stats["loads"] > len(catalog)  # some key reloaded
        assert stats["resident_bytes"] <= store.cache_bytes

    def test_evict_all_then_transparent_reload(self, served_engine, tmp_path):
        store = ModelStore.write(served_engine.catalog, tmp_path / "s")
        key = store.keys()[0]
        first = store.get(key)
        store.evict_all()
        assert store.loaded_keys() == []
        assert store.get(key) is not first  # genuinely reloaded
        assert store.stats()["loads"] == 2

    def test_missing_key(self, served_engine, tmp_path):
        store = ModelStore.write(served_engine.catalog, tmp_path / "s")
        with pytest.raises(ModelNotFoundError):
            store.get(ModelKey.make("nope", ("x",), "y"))
        with pytest.raises(ModelNotFoundError):
            store.find("nope", ("x",), "y")

    def test_not_a_store(self, tmp_path):
        with pytest.raises(CatalogError, match="MANIFEST"):
            ModelStore(tmp_path)

    def test_corrupt_manifest_magic(self, served_engine, tmp_path):
        ModelStore.write(served_engine.catalog, tmp_path / "s")
        manifest = tmp_path / "s" / "MANIFEST"
        manifest.write_bytes(b"garbage" + manifest.read_bytes())
        with pytest.raises(CatalogError, match="magic header"):
            ModelStore(tmp_path / "s")

    def test_record_version_mismatch_names_versions(
        self, served_engine, tmp_path
    ):
        from repro.core.catalog import pack_header
        from repro.serve.store import RECORD_MAGIC

        store = ModelStore.write(served_engine.catalog, tmp_path / "s")
        record = store._records[store.keys()[0]]
        record_path = tmp_path / "s" / "records" / record.filename
        body = record_path.read_bytes()[len(pack_header(RECORD_MAGIC, 1)):]
        record_path.write_bytes(pack_header(RECORD_MAGIC, 99) + body)
        with pytest.raises(CatalogError, match="version 99"):
            store.get(store.keys()[0])

    def test_missing_record_file(self, served_engine, tmp_path):
        store = ModelStore.write(served_engine.catalog, tmp_path / "s")
        record = store._records[store.keys()[0]]
        (tmp_path / "s" / "records" / record.filename).unlink()
        with pytest.raises(CatalogError, match="missing"):
            store.get(store.keys()[0])

    def test_write_from_mapping_and_overwrite_prunes(
        self, served_engine, tmp_path
    ):
        keys = served_engine.catalog.keys()
        full = {key: served_engine.catalog.get(key) for key in keys}
        ModelStore.write(full, tmp_path / "s")
        first_gen = set((tmp_path / "s" / "records").glob("*.model"))
        assert len(first_gen) == len(full)
        # Rewriting with fewer models prunes the stale record files.
        store = ModelStore.write({keys[0]: full[keys[0]]}, tmp_path / "s")
        assert len(store) == 1
        assert len(set((tmp_path / "s" / "records").glob("*.model"))) == 1

    def test_negative_budget_rejected(self, served_engine, tmp_path):
        ModelStore.write(served_engine.catalog, tmp_path / "s")
        with pytest.raises(CatalogError):
            ModelStore(tmp_path / "s", cache_bytes=-1)


class TestPlanCache:
    TEMPLATED = [
        ("SELECT AVG(y) FROM t WHERE x BETWEEN 10 AND 20;",
         "SELECT AVG(y) FROM t WHERE x BETWEEN -3.5 AND 4e2;"),
        ("SELECT COUNT(*) FROM t WHERE x >= 7;",
         "SELECT COUNT(*) FROM t WHERE x >= .25;"),
        ("SELECT PERCENTILE(x, 0.5) FROM t WHERE x <= 10;",
         "SELECT PERCENTILE(x, 0.99) FROM t WHERE x <= 88;"),
        ("SELECT SUM(y) FROM t WHERE x BETWEEN 1 AND 2 AND g = 4 GROUP BY h;",
         "SELECT SUM(y) FROM t WHERE x BETWEEN 3 AND 9 AND g = 7.5 GROUP BY h;"),
        ("SELECT AVG(y) FROM t JOIN u ON a = b WHERE x BETWEEN 0 AND 1;",
         "SELECT AVG(y) FROM t JOIN u ON a = b WHERE x BETWEEN 5 AND 6;"),
        ("SELECT COUNT(x) FROM t WHERE g = 'red';",
         "SELECT COUNT(x) FROM t WHERE g = 'blue';"),
    ]

    def test_bound_queries_equal_direct_parse(self):
        cache = PlanCache()
        for first, second in self.TEMPLATED:
            assert cache.parse(first, validate=False) == parse_query(first)
            assert cache.parse(second, validate=False) == parse_query(second)

    def test_template_sharing_and_stats(self):
        cache = PlanCache()
        cache.parse("SELECT AVG(y) FROM t WHERE x BETWEEN 10 AND 20;",
                    validate=False)
        cache.parse("SELECT AVG(y) FROM t WHERE x BETWEEN 33 AND 44;",
                    validate=False)
        stats = cache.stats()
        assert stats == {
            "entries": 1, "max_entries": 256, "hits": 1, "misses": 1,
            "evictions": 0,
        }
        # A different shape (string literal vs number) is its own plan.
        cache.parse("SELECT AVG(y) FROM t WHERE x BETWEEN 10 AND 20 AND "
                    "g = 'a';", validate=False)
        assert cache.stats()["entries"] == 2

    def test_reversed_between_raises_on_bind(self):
        cache = PlanCache()
        cache.parse("SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2;",
                    validate=False)
        with pytest.raises(SQLSyntaxError, match="reversed"):
            cache.parse("SELECT AVG(y) FROM t WHERE x BETWEEN 9 AND 2;",
                        validate=False)

    def test_validation_depends_on_literals(self):
        cache = PlanCache()
        cache.parse("SELECT PERCENTILE(x, 0.5) FROM t WHERE x <= 1;")
        with pytest.raises(UnsupportedQueryError):
            cache.parse("SELECT PERCENTILE(x, 1.5) FROM t WHERE x <= 1;")

    def test_bound_queries_are_independent(self):
        cache = PlanCache()
        sql = "SELECT AVG(y) FROM t WHERE x BETWEEN 10 AND 20;"
        first = cache.parse(sql, validate=False)
        second = cache.parse(sql, validate=False)
        assert first == second and first is not second
        first.ranges.clear()  # caller mutation must not poison the plan
        assert cache.parse(sql, validate=False) == second

    def test_lru_eviction(self):
        cache = PlanCache(max_plans=2)
        for column in ("a", "b", "c"):
            cache.parse(f"SELECT AVG({column}) FROM t WHERE {column} <= 1;",
                        validate=False)
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1

    def test_syntax_errors_propagate(self):
        cache = PlanCache()
        with pytest.raises(SQLSyntaxError):
            cache.parse("SELECT FROM t;")


class TestAnswerCache:
    def test_hit_miss_and_eviction(self):
        cache = AnswerCache(max_entries=2)
        key = ModelKey.make("t", ("x",), "y")
        aggregate = AggregateCall("AVG", "y")
        k1 = answer_key(key, aggregate, {"x": (1.0, 2.0)})
        k2 = answer_key(key, aggregate, {"x": (3.0, 4.0)})
        k3 = answer_key(key, AggregateCall("SUM", "y"), {"x": (1.0, 2.0)})
        assert AnswerCache.missing(cache.get(k1))
        cache.put(k1, 1.0)
        cache.put(k2, 2.0)
        assert cache.get(k1) == 1.0
        cache.put(k3, 3.0)  # evicts k2 (least recently touched)
        assert AnswerCache.missing(cache.get(k2))
        assert cache.stats() == {
            "entries": 2, "max_entries": 2, "hits": 1, "misses": 2,
            "evictions": 1,
        }

    def test_equalities_distinguish_entries(self):
        key = ModelKey.make("t", ("x",), "y", "g")
        aggregate = AggregateCall("AVG", "y")
        ranges = {"x": (1.0, 2.0)}
        assert answer_key(key, aggregate, ranges, (("g", 1),)) != answer_key(
            key, aggregate, ranges, (("g", 2),)
        )

    def test_version_mismatch_treated_as_missing(self):
        cache = AnswerCache()
        cache.put(("k",), 1.0, version=1)
        assert cache.get(("k",), version=1) == 1.0
        assert AnswerCache.missing(cache.get(("k",), version=2))
        assert len(cache) == 0  # the stale entry is dropped, not kept
        # A put that raced past an invalidation sweep stays unservable:
        # its tag is older than the version any later reader presents.
        cache.put(("k",), 1.0, version=1)
        assert AnswerCache.missing(cache.get(("k",), version=2))

    def test_copy_false_returns_stored_object(self):
        cache = AnswerCache()
        cache.put(("k",), {1: 1.0})
        assert cache.get(("k",), copy=False) is cache.get(("k",), copy=False)
        assert cache.get(("k",)) is not cache.get(("k",), copy=False)

    def test_dict_values_are_copied(self):
        cache = AnswerCache()
        key = ("k",)
        original = {1: 1.0}
        cache.put(key, original)
        original[1] = 99.0           # writer's later mutation is invisible
        got = cache.get(key)
        assert got == {1: 1.0}
        got[1] = -1.0                # reader's mutation does not poison
        assert cache.get(key) == {1: 1.0}


class TestParseCache:
    def test_execute_hits_parse_cache_for_repeated_strings(
        self, served_engine
    ):
        parse_cache_clear()
        sql = "SELECT AVG(y) FROM traffic WHERE x BETWEEN 12 AND 34;"
        served_engine.execute(sql)
        before = parse_cache_info()
        served_engine.execute(sql)
        served_engine.execute(sql)
        after = parse_cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_query_objects_bypass_the_cache(self, served_engine):
        parse_cache_clear()
        query = parse_query(
            "SELECT AVG(y) FROM traffic WHERE x BETWEEN 12 AND 34;"
        )
        served_engine.execute(query)
        assert parse_cache_info().currsize == 0


class TestQueryServer:
    def test_parity_with_sequential_execute(self, served_engine):
        sequential = [served_engine.execute(sql) for sql in WORKLOAD]
        with QueryServer(served_engine, n_workers=3) as server:
            served = server.run(WORKLOAD * 2)
        _assert_results_match(sequential, served[: len(WORKLOAD)])
        _assert_results_match(sequential, served[len(WORKLOAD):])

    def test_parity_served_from_store_under_eviction(
        self, served_engine, tmp_path
    ):
        sequential = [served_engine.execute(sql) for sql in WORKLOAD]
        store = ModelStore.write(served_engine.catalog, tmp_path / "s")
        # Budget below the total record size forces mid-workload eviction.
        store.cache_bytes = max(store.total_size_bytes() // 2, 1)
        serving = DBEst(config=served_engine.config)
        serving.catalog = store
        with QueryServer(serving, n_workers=3) as server:
            served = server.run(WORKLOAD * 3)
        for offset in range(0, len(served), len(WORKLOAD)):
            _assert_results_match(
                sequential, served[offset : offset + len(WORKLOAD)]
            )
        assert store.stats()["evictions"] > 0

    def test_coalescing_and_caching_reduce_engine_calls(self, served_engine):
        with QueryServer(served_engine, n_workers=2) as server:
            server.run(WORKLOAD * 5)
            stats = server.stats()
        assert stats["queries"] == len(WORKLOAD) * 5
        # Fewer engine calls than queries: duplicates coalesced or cached.
        assert stats["engine_calls"] < stats["queries"]
        assert stats["coalesced"] + stats["answer_cache"]["hits"] > 0
        assert stats["plan_cache"]["hits"] > 0

    def test_concurrent_submitters(self, served_engine):
        sequential = {
            sql: served_engine.execute(sql) for sql in WORKLOAD
        }
        results: dict[int, list] = {}
        with QueryServer(served_engine, n_workers=4) as server:
            def client(worker_id: int) -> None:
                futures = [server.submit(sql) for sql in WORKLOAD]
                results[worker_id] = [future.result() for future in futures]

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for worker_id in range(4):
            _assert_results_match(
                [sequential[sql] for sql in WORKLOAD], results[worker_id]
            )

    def test_unanswerable_query_raises_from_future(self, served_engine):
        with QueryServer(served_engine, n_workers=1) as server:
            future = server.submit(
                "SELECT AVG(nope) FROM traffic WHERE q BETWEEN 1 AND 2;"
            )
            with pytest.raises(ModelNotFoundError):
                future.result()

    def test_fallback_engine_is_used(self, served_engine):
        fallback = ExactEngine()
        fallback.register_table(served_engine.tables["traffic"])
        engine = DBEst(config=served_engine.config, fallback=fallback)
        engine.catalog = served_engine.catalog
        engine.register_table(served_engine.tables["traffic"])
        sql = "SELECT AVG(y) FROM traffic WHERE g BETWEEN 2 AND 5;"
        expected = engine.execute(sql)
        assert expected.source == "fallback"
        with QueryServer(engine, n_workers=1) as server:
            result = server.execute(sql)
        assert result.source == "fallback"
        assert result.values == expected.values
        assert server.stats()["fallbacks"] == 1

    def test_equality_with_group_by_routes_to_fallback(self, served_engine):
        fallback = ExactEngine()
        fallback.register_table(served_engine.tables["traffic"])
        engine = DBEst(config=served_engine.config, fallback=fallback)
        engine.catalog = served_engine.catalog
        engine.register_table(served_engine.tables["traffic"])
        # Group-by models cannot apply the categorical filter; silently
        # ignoring it returned unfiltered per-group answers before.
        sql = ("SELECT COUNT(x) FROM traffic "
               "WHERE x BETWEEN 20 AND 60 AND g = 3 GROUP BY g;")
        expected = engine.execute(sql)
        assert expected.source == "fallback"
        assert set(expected.values["COUNT(x)"]) == {3.0}
        with QueryServer(engine, n_workers=1) as server:
            served = server.execute(sql)
        assert served.source == "fallback"
        assert served.values == expected.values
        with pytest.raises(UnsupportedQueryError):
            served_engine.execute(sql)  # no fallback engine: loud, not wrong

    def test_answer_cache_invalidated_on_model_rebuild(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 10.0, size=2000)
        y = 3.0 * x + rng.normal(0.0, 0.5, size=2000)
        engine = DBEst(config=DBEstConfig(
            regressor="plr", integration_points=65, random_seed=5,
        ))
        engine.register_table(Table({"x": x, "y": y}, name="live"))
        engine.build_model("live", x="x", y="y", sample_size=500)
        sql = "SELECT AVG(y) FROM live WHERE x BETWEEN 2 AND 8;"
        with QueryServer(engine, n_workers=1) as server:
            first = server.execute(sql)
            assert server.execute(sql).source == "cache"
            # Rebuild in place: a different sample gives a (slightly)
            # different model; the served answer must track it.
            engine.build_model("live", x="x", y="y", sample_size=1500)
            expected = engine.execute(sql)
            served = server.execute(sql)
        assert served.values == expected.values
        assert served.source == "model"  # stale entry was dropped
        assert first.values != expected.values

    def test_non_repro_error_reaches_future_and_worker_survives(
        self, served_engine
    ):
        with QueryServer(served_engine, n_workers=1) as server:
            # Unseen group value: answer_group raises a plain KeyError.
            bad = server.submit(
                "SELECT AVG(y) FROM traffic "
                "WHERE x BETWEEN 10 AND 20 AND g = 999;"
            )
            with pytest.raises(KeyError):
                bad.result(timeout=30)
            # The lone worker must survive and keep serving.
            good = server.submit(WORKLOAD[0])
            assert good.result(timeout=30).values

    def test_coalesced_results_are_independent_objects(self, served_engine):
        with QueryServer(served_engine, n_workers=1) as server:
            futures = [server.submit(WORKLOAD[0]) for _ in range(6)]
            results = [future.result() for future in futures]
            label = next(iter(results[0].values))
            first = results[0].values[label]
            second = results[1].values[label]
            assert first == second and first is not second
            first.clear()  # one caller's mutation must not leak
            assert second
            assert server.execute(WORKLOAD[0]).values[label] == second

    def test_parse_errors_raise_synchronously(self, served_engine):
        with QueryServer(served_engine, n_workers=1) as server:
            with pytest.raises(SQLSyntaxError):
                server.submit("SELECT FROM traffic;")

    def test_submit_after_close_raises(self, served_engine):
        server = QueryServer(served_engine, n_workers=1)
        server.close()
        with pytest.raises(QueryExecutionError):
            server.submit("SELECT AVG(y) FROM traffic WHERE x <= 1;")
        server.close()  # idempotent

    def test_query_object_submission(self, served_engine):
        query = parse_query(WORKLOAD[0])
        expected = served_engine.execute(query)
        with QueryServer(served_engine, n_workers=1) as server:
            result = server.execute(query)
        _assert_results_match([expected], [result])

    def test_uncoalesced_mode(self, served_engine):
        with QueryServer(served_engine, n_workers=2, coalesce=False) as server:
            served = server.run([WORKLOAD[0]] * 6)
            stats = server.stats()
        assert stats["coalesced"] == 0
        assert stats["batches"] == 6
        # The answer cache still dedupes the work.
        assert stats["engine_calls"] == 1
        sequential = served_engine.execute(WORKLOAD[0])
        _assert_results_match([sequential] * 6, served)

    def test_cache_source_marking(self, served_engine):
        with QueryServer(served_engine, n_workers=1) as server:
            first = server.execute(WORKLOAD[0])
            second = server.execute(WORKLOAD[0])
        assert first.source == "model"
        assert second.source == "cache"


class TestGridCacheStats:
    def test_served_aggregates_share_one_kernel_pass(self, served_engine):
        """SUM, AVG and VARIANCE over one range run the mixture kernel
        once: the first computes each group's cumulative moments at the
        two range ends (this ``plr`` set integrates in closed form) and
        memoises them by bounds, the others read that entry."""
        model_set = served_engine.catalog.get(
            ModelKey.make("traffic", ("x",), "y", "g")
        )
        evaluator = model_set.batched_evaluator()
        assert evaluator is not None
        before = evaluator.grid_cache_stats()
        ranges = {"x": (41.0, 59.0)}
        for func in ("SUM", "AVG", "VARIANCE"):
            model_set.answer(AggregateCall(func, "y"), ranges)
        after = evaluator.grid_cache_stats()
        # One kernel pass, shared: a single miss, the rest hits.
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] > before["hits"]
