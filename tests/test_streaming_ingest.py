"""Streaming ingest: online reservoirs, incremental partitions, refresh.

Covers the end-to-end append path — :class:`StreamingReservoir` decision
parity with the one-shot Algorithm-L pass, :meth:`GroupPartition.merge`
bit-parity with a from-scratch partition, ``GroupByModelSet.refresh``
against a full retrain on the same final sample, evaluator splicing,
store record generations (``write_refresh`` / ``prune`` /
``changed_keys_since``), engine ``append_rows``, serving through a
republish without stale cache hits, and the new CLI subcommands.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro import reference
from repro.core.batched import BatchedGroupEvaluator
from repro.core.batched_train import GroupPartition
from repro.core.config import DBEstConfig
from repro.core.engine import DBEst
from repro.core.groupby import GroupByModelSet
from repro.errors import InvalidParameterError, ModelTrainingError
from repro.sampling import StreamingReservoir, reservoir_sample_stream
from repro.sql.ast import AggregateCall
from repro.storage.table import Table


class _ScriptedRNG:
    """Duck-typed generator replaying a scripted ``random()`` sequence.

    Falls back to a real generator once the script is exhausted;
    ``integers`` always delegates (slot choice does not matter for the
    guard tests).
    """

    def __init__(self, script):
        self._script = list(script)
        self._real = np.random.default_rng(99)

    def random(self):
        if self._script:
            return self._script.pop(0)
        return self._real.random()

    def integers(self, low, high):
        return self._real.integers(low, high)


class TestReservoirGuards:
    def test_zero_uniform_draw_is_redrawn(self):
        # rng.random() may return exactly 0.0; math.log(0.0) raised
        # before the _log_uniform guard.  The scripted zero lands on the
        # very first draw (Algorithm L's w initialisation).
        rng = _ScriptedRNG([0.0, 0.0, 0.5])
        sample = reservoir_sample_stream(range(100), 2, rng=rng)
        assert len(sample) == 2

    def test_w_rounding_to_one_is_clamped(self):
        # With u one ulp below 1.0 and k >= 4, exp(log(u)/k) rounds to
        # exactly 1.0; unclamped, math.log1p(-1.0) raises ValueError in
        # the skip draw.
        near_one = math.nextafter(1.0, 0.0)
        rng = _ScriptedRNG([near_one] * 8)
        sample = reservoir_sample_stream(range(50), 4, rng=rng)
        assert len(sample) == 4
        assert set(sample) <= set(range(50))

    def test_seeded_pass_is_deterministic(self):
        a = reservoir_sample_stream(range(1000), 16,
                                    rng=np.random.default_rng(42))
        b = reservoir_sample_stream(range(1000), 16,
                                    rng=np.random.default_rng(42))
        assert a == b
        assert len(a) == 16
        assert set(a) <= set(range(1000))

    def test_short_stream_returns_everything(self):
        assert reservoir_sample_stream(range(3), 8) == [0, 1, 2]


def _apply_decisions(sample, batch, decisions):
    """Apply StreamingReservoir edit decisions to a caller-owned list."""
    size_before = len(sample)
    pending = []
    for pos, slot in decisions:
        if slot == -1:
            pending.append(batch[pos])
        elif slot < size_before:
            sample[slot] = batch[pos]
        else:
            pending[slot - size_before] = batch[pos]
    sample.extend(pending)


class TestStreamingReservoir:
    def test_batch_splits_replay_the_one_shot_pass(self):
        # Absorbing a stream in arbitrary batch splits must make exactly
        # the decisions of one sequential Algorithm-L pass with the same
        # generator.
        stream = list(range(1000))
        k = 16
        expected = reservoir_sample_stream(
            stream, k, rng=np.random.default_rng(42)
        )
        for splits in ([1000], [1, 999], [16, 4, 480, 500],
                       [3] * 300 + [100]):
            res = StreamingReservoir(k, seed=42)
            sample: list = []
            start = 0
            for width in splits:
                batch = stream[start:start + width]
                _apply_decisions(sample, batch, res.absorb("g", len(batch)))
                start += width
            assert start == len(stream)
            assert sample == expected, f"split {splits[:4]}... diverged"
            assert res.seen("g") == len(stream)
            assert res.size("g") == k

    def test_seeded_group_bookkeeping(self):
        res = StreamingReservoir(8, seed=1)
        res.seed_group("a", size=8, seen=100)
        sample = list(range(8))
        _apply_decisions(sample, list(range(100, 150)), res.absorb("a", 50))
        assert len(sample) == 8  # full stratum: replacements only
        assert res.seen("a") == 150
        # A growing stratum accepts its first capacity-size rows outright.
        res.seed_group("b", size=4, seen=4, capacity=8)
        sample_b = [0, 1, 2, 3]
        _apply_decisions(sample_b, [10, 11, 12], res.absorb("b", 3))
        assert sample_b == [0, 1, 2, 3, 10, 11, 12]

    def test_seed_group_validation(self):
        res = StreamingReservoir(8)
        with pytest.raises(InvalidParameterError):
            res.seed_group("a", size=8, seen=4)  # seen < size
        with pytest.raises(InvalidParameterError):
            res.seed_group("a", size=8, seen=10, capacity=4)  # cap < size
        res.seed_group("a", size=8, seen=10)
        with pytest.raises(InvalidParameterError):
            res.seed_group("a", size=8, seen=10)  # duplicate

    def test_pickle_roundtrip_continues_identically(self):
        res = StreamingReservoir(8, seed=5)
        res.absorb("g", 200)
        clone = pickle.loads(pickle.dumps(res))
        assert clone.absorb("g", 100) == res.absorb("g", 100)


class TestGroupPartitionMerge:
    def test_from_groups_accepts_unsorted_superset_values(self):
        groups = np.asarray([3, 1, 3, 2, 1])
        clean = GroupPartition.from_groups(
            groups, values=np.asarray([1, 2, 3, 4])
        )
        messy = GroupPartition.from_groups(
            groups, values=np.asarray([4, 2, 1, 3, 2])
        )
        assert np.array_equal(messy.values, clean.values)
        assert np.array_equal(messy.offsets, clean.offsets)
        assert np.array_equal(messy.order, clean.order)

    @staticmethod
    def _assert_merge_matches_rebuild(old_groups, new_groups, values=None):
        part = GroupPartition.from_groups(old_groups, values=values)
        merged, dirty = part.merge(new_groups)
        # A superset `values` persists through merge, so hand the
        # rebuild oracle the same superset (unioned with the delta).
        rebuilt = GroupPartition.from_groups(
            np.concatenate([old_groups, new_groups]),
            values=None if values is None
            else np.union1d(values, new_groups),
        )
        assert np.array_equal(merged.values, rebuilt.values)
        assert np.array_equal(merged.offsets, rebuilt.offsets)
        assert np.array_equal(merged.order, rebuilt.order)
        expect_dirty = np.searchsorted(merged.values, np.unique(new_groups))
        assert np.array_equal(np.sort(dirty), expect_dirty)

    def test_merge_bit_parity_with_rebuild(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            old = rng.integers(0, 20, size=rng.integers(1, 200))
            new = rng.integers(0, 30, size=rng.integers(1, 50))
            self._assert_merge_matches_rebuild(old, new)

    def test_merge_empty_delta_is_identity(self):
        part = GroupPartition.from_groups(np.asarray([2, 1, 2, 0]))
        merged, dirty = part.merge(np.asarray([], dtype=np.int64))
        assert dirty.size == 0
        assert np.array_equal(merged.order, part.order)
        assert np.array_equal(merged.offsets, part.offsets)

    def test_merge_all_new_groups(self):
        self._assert_merge_matches_rebuild(
            np.asarray([0, 0, 1]), np.asarray([5, 4, 5, 4, 4])
        )

    def test_merge_interleaved_duplicates_and_superset(self):
        self._assert_merge_matches_rebuild(
            np.asarray([2, 2, 0, 2, 0]),
            np.asarray([1, 2, 1, 0, 3, 2]),
            values=np.asarray([0, 1, 2, 3, 4]),
        )

    def test_repeated_merges_stay_bit_identical(self):
        rng = np.random.default_rng(11)
        groups = rng.integers(0, 8, size=40)
        part = GroupPartition.from_groups(groups)
        flat = groups
        for _ in range(5):
            delta = rng.integers(0, 12, size=rng.integers(1, 25))
            part, _ = part.merge(delta)
            flat = np.concatenate([flat, delta])
            rebuilt = GroupPartition.from_groups(flat)
            assert np.array_equal(part.order, rebuilt.order)
            assert np.array_equal(part.offsets, rebuilt.offsets)
            assert np.array_equal(part.values, rebuilt.values)


def _ingest_fixture(seed=11, groups=12, rows=300):
    rng = np.random.default_rng(seed)
    n = groups * rows
    g = rng.integers(0, groups, size=n).astype(np.float64)
    x = rng.uniform(0.0, 100.0, size=n)
    y = (1.0 + g * 0.05) * x + rng.normal(0.0, 1.0, size=n)
    config = DBEstConfig(
        regressor="plr", min_group_rows=30, integration_points=65,
        random_seed=seed,
    )
    return rng, g, x, y, config


def _train_kwargs(g, x, y, config):
    return dict(
        full_groups=g, full_x=x, full_y=y,
        table_name="stream", x_columns=("x",), y_column="y",
        group_column="g", config=config,
    )


def _delta(rng, groups, m, lo=0):
    dg = rng.integers(lo, groups, size=m).astype(np.float64)
    dx = rng.uniform(0.0, 100.0, size=m)
    dy = (1.0 + dg * 0.05) * dx + rng.normal(0.0, 1.0, size=m)
    return dg, dx, dy


def _answers(model_set, batched=True):
    ranges = {"x": (20.0, 60.0)}
    out = {}
    for func in ("COUNT", "SUM", "AVG"):
        out[func] = model_set.answer(
            AggregateCall(func, "y"), ranges, batched=batched
        )
    return out


def _assert_answers_close(got, expected, tol=1e-9):
    assert got.keys() == expected.keys()
    for func in expected:
        assert got[func].keys() == expected[func].keys()
        for value, want in expected[func].items():
            have = got[func][value]
            if math.isnan(want) or math.isnan(have):
                assert math.isnan(want) == math.isnan(have)
                continue
            assert abs(have - want) <= tol * max(1.0, abs(want)), (
                func, value, have, want
            )


class TestRefreshParity:
    @pytest.mark.parametrize(
        "retrain", [GroupByModelSet.train, reference.train_set],
        ids=["batched", "row_wise"],
    )
    def test_refresh_matches_full_retrain(self, retrain):
        # The acceptance oracle: after any sequence of refreshes, the
        # set must answer exactly like a from-scratch train on the same
        # final sample arrays and full data, by the batched trainer and
        # by the row-wise loop.
        rng, g, x, y, config = _ingest_fixture()
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=g,
            streaming=True, **_train_kwargs(g, x, y, config),
        )
        for round_no in range(3):
            # Round 2 introduces brand-new groups 12..14.
            hi = 12 if round_no < 2 else 15
            dg, dx, dy = _delta(rng, hi, 150)
            dirty = model_set.refresh(dx, dy, dg)
            assert dirty == sorted(np.unique(dg).tolist())
            g = np.concatenate([g, dg])
            x = np.concatenate([x, dx])
            y = np.concatenate([y, dy])
        stream = model_set._stream
        oracle = retrain(
            sample_x=stream.sample_x.squeeze(axis=1),
            sample_y=stream.sample_y,
            sample_groups=stream.sample_groups,
            **_train_kwargs(g, x, y, config),
        )
        assert set(model_set.models) == set(oracle.models)
        assert set(model_set.raw_groups) == set(oracle.raw_groups)
        for batched in (True, False):
            _assert_answers_close(
                _answers(model_set, batched=batched),
                _answers(oracle, batched=batched),
            )

    def test_raw_group_promotion(self):
        # A group kept raw (undersampled) must promote to a fitted model
        # once appended rows push its sample over min_group_rows.
        rng, g, x, y, config = _ingest_fixture()
        tiny = np.full(5, 50.0)
        g = np.concatenate([g, tiny])
        x = np.concatenate([x, rng.uniform(0.0, 100.0, size=5)])
        y = np.concatenate([y, x[-5:] * 2.0])
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=g,
            streaming=True, **_train_kwargs(g, x, y, config),
        )
        assert 50.0 in model_set.raw_groups
        dg = np.full(100, 50.0)
        dx = rng.uniform(0.0, 100.0, size=100)
        dy = dx * 2.0 + rng.normal(0.0, 0.5, size=100)
        model_set.refresh(dx, dy, dg)
        assert 50.0 not in model_set.raw_groups
        assert 50.0 in model_set.models

    def test_refresh_guards(self):
        rng, g, x, y, config = _ingest_fixture(groups=4, rows=100)
        plain = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=g,
            **_train_kwargs(g, x, y, config),
        )
        assert not plain.is_streaming
        with pytest.raises(ModelTrainingError):
            plain.refresh(x[:3], y[:3], g[:3])
        streaming = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=g,
            streaming=True, **_train_kwargs(g, x, y, config),
        )
        assert streaming.is_streaming
        assert streaming.refresh(x[:0], y[:0], g[:0]) == []
        with pytest.raises(ModelTrainingError):
            streaming.refresh(x[:3], None, g[:3])  # y went missing
        with pytest.raises(ModelTrainingError):
            streaming.refresh(x[:3], y[:3], g[:2])  # row-count mismatch

    def test_refresh_survives_pickle(self):
        rng, g, x, y, config = _ingest_fixture(groups=6, rows=150)
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=g,
            streaming=True, **_train_kwargs(g, x, y, config),
        )
        clone = pickle.loads(pickle.dumps(model_set))
        dg, dx, dy = _delta(rng, 6, 60)
        assert clone.refresh(dx, dy, dg) == model_set.refresh(dx, dy, dg)
        _assert_answers_close(_answers(clone), _answers(model_set), tol=0.0)

    def test_spliced_evaluator_matches_fresh_build(self):
        # Clean groups keep their CSR segments; the spliced stacked
        # state must still be bit-identical to a from-scratch stack.
        rng, g, x, y, config = _ingest_fixture()
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=g,
            streaming=True, **_train_kwargs(g, x, y, config),
        )
        assert model_set.batched_evaluator() is not None  # stack eagerly
        dg, dx, dy = _delta(rng, 12, 120)
        model_set.refresh(dx, dy, dg)
        spliced = model_set.batched_evaluator()
        fresh = BatchedGroupEvaluator.build(model_set)

        def arrays_equal(a, b):
            equal_nan = np.issubdtype(np.asarray(b).dtype, np.floating)
            return np.array_equal(a, b, equal_nan=equal_nan)

        for name in ("_m", "_r"):
            got, want = getattr(spliced, name), getattr(fresh, name)
            if got is None or want is None:
                assert got is want
                continue
            assert set(got) == set(want), name
            for field in want:
                a, b = got[field], want[field]
                if isinstance(b, np.ndarray):
                    assert arrays_equal(a, b), (name, field)
                elif isinstance(b, dict):
                    assert set(a) == set(b)
                    for sub in b:
                        assert arrays_equal(a[sub], b[sub]), (
                            name, field, sub
                        )
                else:
                    assert a == b, (name, field)


def _store_fixture(tmp_path, streaming=True, store_format=None):
    rng, g, x, y, config = _ingest_fixture(groups=8, rows=200)
    engine = DBEst(config=config)
    engine.register_table(Table({"x": x, "y": y, "g": g}, name="stream"))
    key = engine.build_model(
        "stream", x="x", y="y", group_by="g", streaming=streaming
    )
    from repro.serve import ModelStore

    store = ModelStore.write(
        engine.catalog, tmp_path / "models.store", store_format=store_format
    )
    return rng, engine, store, key


class TestStoreGenerations:
    def test_write_refresh_publishes_a_new_generation(self, tmp_path):
        rng, engine, store, key = _store_fixture(tmp_path)
        old_names = {p.name for p in (store.path / "records").iterdir()}
        assert store.version == 0
        model = store.get(key)
        dg, dx, dy = _delta(rng, 8, 80)
        model.refresh(dx[:, None], dy, dg)
        record = store.write_refresh(key, model)
        assert store.version == 1
        assert store.changed_keys_since(0) == {key}
        assert store.changed_keys_since(1) == set()
        names = {p.name for p in (store.path / "records").iterdir()}
        assert record.filename in names
        assert old_names <= names  # superseded generation left on disk
        inventory = store.generations()
        assert [row["filename"] for row in inventory["live"]] \
            == [record.filename]
        assert {row["filename"] for row in inventory["dead"]} == old_names
        # A fresh handle reads the new generation.
        from repro.serve import ModelStore

        reread = ModelStore(store.path).get(key)
        _assert_answers_close(_answers(reread), _answers(model), tol=0.0)

    def test_prune_reclaims_dead_generations(self, tmp_path):
        rng, engine, store, key = _store_fixture(tmp_path)
        model = store.get(key)
        for _ in range(2):
            dg, dx, dy = _delta(rng, 8, 40)
            model.refresh(dx[:, None], dy, dg)
            store.write_refresh(key, model)
        records = store.path / "records"
        assert len(list(records.iterdir())) == 3
        removed = store.prune()
        assert len(removed) == 2
        live = [p.name for p in records.iterdir()]
        assert live == [store.generations()["live"][0]["filename"]]
        # Idempotent.
        assert store.prune() == []

    def test_refresh_roundtrips_through_mmap_records(self, tmp_path):
        # write_refresh of a streaming set into an mmap-format store
        # must keep answering identically (whether it repacks mapped or
        # falls back to pickle is a layout detail).
        rng, engine, store, key = _store_fixture(
            tmp_path, store_format="mmap"
        )
        model = store.get(key)
        hydrate = getattr(model, "_hydrated", None)
        if hydrate is not None:
            model = hydrate()
        dg, dx, dy = _delta(rng, 8, 80)
        model.refresh(dx[:, None], dy, dg)
        store.write_refresh(key, model)
        from repro.serve import ModelStore

        reread = ModelStore(store.path).get(key)
        hydrate = getattr(reread, "_hydrated", None)
        if hydrate is not None:
            reread = hydrate()
        _assert_answers_close(_answers(reread), _answers(model), tol=0.0)


class TestEngineAppendRows:
    def test_append_rows_refreshes_streaming_models(self):
        rng, g, x, y, config = _ingest_fixture(groups=8, rows=200)
        engine = DBEst(config=config)
        engine.register_table(Table({"x": x, "y": y, "g": g}, name="stream"))
        gb_key = engine.build_model(
            "stream", x="x", y="y", group_by="g", streaming=True
        )
        scalar_key = engine.build_model("stream", x="x", y="y")
        n_before = engine.tables["stream"].n_rows
        dg, dx, dy = _delta(rng, 3, 120)  # touch only groups 0..2
        report = engine.append_rows(
            "stream", Table({"x": dx, "y": dy, "g": dg}, name="stream")
        )
        assert report["rows"] == 120
        assert report["skipped"] == [scalar_key]
        assert set(report["refreshed"]) == {gb_key}
        assert report["refreshed"][gb_key] == sorted(np.unique(dg).tolist())
        assert engine.tables["stream"].n_rows == n_before + 120
        # The refreshed model answers like a from-scratch retrain on the
        # same final sample.
        model = engine.catalog.get(gb_key)
        stream = model._stream
        oracle = GroupByModelSet.train(
            sample_x=stream.sample_x.squeeze(axis=1),
            sample_y=stream.sample_y,
            sample_groups=stream.sample_groups,
            **_train_kwargs(
                np.concatenate([g, dg]), np.concatenate([x, dx]),
                np.concatenate([y, dy]), config,
            ),
        )
        _assert_answers_close(_answers(model), _answers(oracle))

    def test_streaming_requires_group_by(self):
        _, g, x, y, config = _ingest_fixture(groups=4, rows=100)
        engine = DBEst(config=config)
        engine.register_table(Table({"x": x, "y": y, "g": g}, name="stream"))
        with pytest.raises(InvalidParameterError):
            engine.build_model("stream", x="x", y="y", streaming=True)


class TestServingThroughRepublish:
    def test_no_stale_answers_and_no_hung_futures(self, tmp_path):
        # The chaos bar: queries racing a store republish must all
        # resolve, and post-republish answers must reflect the refreshed
        # model, never a stale cache entry.
        from repro.serve import ModelStore, QueryServer

        rng, engine, store, key = _store_fixture(tmp_path)
        engine.catalog = store
        sql = ("SELECT COUNT(x) FROM stream "
               "WHERE x BETWEEN 20 AND 60 GROUP BY g;")
        with QueryServer(engine, n_workers=2) as server:
            before = server.run([sql] * 4)  # populate the answer cache
            model = store.get(key)
            dg, dx, dy = _delta(rng, 3, 400)
            model.refresh(dx[:, None], dy, dg)
            futures = [server.submit(sql) for _ in range(3)]
            store.write_refresh(key, model)
            in_flight = [f.result(timeout=30.0) for f in futures]
            after = [f.result(timeout=30.0)
                     for f in [server.submit(sql) for _ in range(4)]]
        assert all(r is not None for r in in_flight)  # zero hung futures
        expected = model.answer(
            AggregateCall("COUNT", "x"), {"x": (20.0, 60.0)}
        )
        for result in after:
            got = result.values["COUNT(x)"]
            for value, want in expected.items():
                assert abs(got[value] - want) <= 1e-9 * max(1.0, abs(want))
        # The refresh visibly moved the touched groups — so matching the
        # refreshed model above proves no stale cache hit survived.
        stale = before[0].values["COUNT(x)"]
        assert any(
            abs(stale[v] - expected[v]) > 1e-6 for v in np.unique(dg)
        )


class TestStreamingCLI:
    def test_refresh_store_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.storage.csvio import write_csv

        rng, g, x, y, _ = _ingest_fixture(groups=8, rows=200)
        write_csv(Table({"x": x, "y": y, "g": g}, name="base"),
                  tmp_path / "base.csv")
        dg, dx, dy = _delta(rng, 3, 100)
        write_csv(Table({"x": dx, "y": dy, "g": dg}, name="base"),
                  tmp_path / "delta.csv")
        catalog = tmp_path / "models.pkl"
        store = tmp_path / "models.store"
        assert main([
            "build", "--csv", str(tmp_path / "base.csv"), "--table", "base",
            "--x", "x", "--y", "y", "--group-by", "g", "--regressor", "plr",
            "--seed", "3", "--streaming", "--catalog", str(catalog),
        ]) == 0
        assert main([
            "pack-store", "--catalog", str(catalog), "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main([
            "refresh-store", "--store", str(store),
            "--csv", str(tmp_path / "delta.csv"), "--table", "base",
        ]) == 0
        out = capsys.readouterr().out
        assert "refreshed base/x->y by g: 3 dirty group(s)" in out
        assert "1 model(s) refreshed" in out
        assert main([
            "store-info", "--store", str(store), "--generations",
        ]) == 0
        out = capsys.readouterr().out
        assert "generations: 1 live, 1 dead" in out
        assert "(reclaimable)" in out
        assert main([
            "refresh-store", "--store", str(store),
            "--csv", str(tmp_path / "delta.csv"), "--table", "base",
            "--prune",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 superseded record file(s)" in out
        assert len(list((store / "records").iterdir())) == 1

    def test_refresh_store_skips_non_streaming_models(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.storage.csvio import write_csv

        rng, g, x, y, _ = _ingest_fixture(groups=4, rows=100)
        write_csv(Table({"x": x, "y": y, "g": g}, name="base"),
                  tmp_path / "base.csv")
        catalog = tmp_path / "models.pkl"
        store = tmp_path / "models.store"
        assert main([
            "build", "--csv", str(tmp_path / "base.csv"), "--table", "base",
            "--x", "x", "--y", "y", "--group-by", "g", "--regressor", "plr",
            "--catalog", str(catalog),
        ]) == 0
        assert main([
            "pack-store", "--catalog", str(catalog), "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main([
            "refresh-store", "--store", str(store),
            "--csv", str(tmp_path / "base.csv"), "--table", "base",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 model(s) refreshed, 1 left stale" in out
