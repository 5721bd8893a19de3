"""train_refresh - the write side, run beside reads.

(1) ``build_model(..., group_by, streaming=True)`` with ``plr`` on 2000
groups x 400 rows (200k-row sample); (2) the same with ``gboost`` on 200
groups x 400 rows (20k sample); (3) cold opens of the live mmap store;
(4) deltas of 5 % new rows touching 10 % of the groups through
``DBEst.append_rows`` on a store-backed engine, each followed by one
read of every read template through a live ``QueryServer`` - the first
read of that template on the new generation, so every read must be
recomputed.  The four, and the repeats of the set-up, are taken in turns
(``ROUNDS``), not one after the other: this box's speed wanders on a
scale of ten seconds, and a leg measured in one stretch would see one
mood of it.  Why: it uses
``sampling``, ``core.batched_train``, ``core.batched_forest``,
``core.batched.build`` and ``serve.store`` - layers the three query
workloads touch only in set-up - so a query gain bought with slower
training, a larger state or a slower refresh is visible.

A read answered from a superseded generation is a failure (the read
templates repeat from delta to delta, so a stale cache entry would be
served if invalidation failed), and the final refreshed answers must
equal a from-scratch retrain on the same standing sample.
"""

from __future__ import annotations

import shutil
import time
from types import SimpleNamespace

import numpy as np

from repro.core.batched_forest import fit_forest_regressors
from repro.core.batched_train import GroupPartition
from repro.core.engine import DBEst
from repro.core.groupby import GroupByModelSet
from repro.sampling.reservoir import reservoir_sample_indices
from repro.serve import ModelStore, QueryServer
from repro.sql.ast import AggregateCall

from benchmarks.e2e import fixtures as fx
from benchmarks.e2e import harness as h

NAME = "train_refresh"
BIG = "events"  # the plr training leg
TABLE = "stream"  # gboost leg, store, refresh and reads
READ_CALLS = ("COUNT(x)", "AVG(y)", "SUM(y)", "VARIANCE(y)")


ROUNDS = 4


def sizes(seconds: float) -> dict:
    """Seed code: plr build ~0.4 s, gboost ~1.2 s, append ~30 ms, read
    ~6 ms (COUNT) to ~30 ms."""
    deltas = max(10, round(2 * seconds))
    return {
        "plr_groups": 2000,
        "plr_rows_per_group": 400,
        "plr_sample": 200_000,
        "plr_repeats": max(ROUNDS, round(0.5 * seconds)),
        "groups": 200,
        "rows_per_group": 400,
        "sample": 40_000,
        "gboost_sample": 20_000,
        "gboost_repeats": max(ROUNDS, round(0.4 * seconds)),
        "deltas": deltas,
        "delta_share": 0.05,
        "dirty_share": 0.10,
        # x deltas = 260 reads: 13 beyond the p95
        "read_templates": -(-260 // deltas),
        "setup_repeats": 7,
        "cold_repeats": 20,
    }


TOY = {
    "plr_groups": 40,
    "plr_rows_per_group": 100,
    "plr_sample": 2_000,
    "plr_repeats": 1,
    "groups": 20,
    "rows_per_group": 100,
    "sample": 1_200,
    "gboost_sample": 1_200,
    "gboost_repeats": 1,
    "deltas": 4,
    "delta_share": 0.05,
    "dirty_share": 0.10,
    "read_templates": 2,
    "setup_repeats": 2,
    "cold_repeats": 4,
}


def _build(seed: int, sz: dict, store_dir) -> SimpleNamespace:
    big = fx.grouped_table(seed, sz["plr_groups"], sz["plr_rows_per_group"], BIG)
    table = fx.grouped_table(seed + 1, sz["groups"], sz["rows_per_group"], TABLE)
    engine = DBEst(config=fx.grouped_config(seed))
    engine.register_table(table)
    key = engine.build_model(
        TABLE, x="x", y="y", group_by="g", sample_size=sz["sample"], streaming=True
    )
    start = time.perf_counter()
    store = ModelStore.write(
        engine.catalog, store_dir, config=engine.config, store_format="mmap"
    )
    write_s = time.perf_counter() - start
    return SimpleNamespace(
        big=big, table=table, engine=engine, key=key, store_dir=store_dir,
        write_s=write_s, packed_bytes=store.total_size_bytes(),
    )


class TrainLeg:
    """Timed ``build_model(group_by, streaming=True)`` repeats of one
    regressor on one table, taken a few at a time."""

    def __init__(self, phase: h.Phase, table, regressor: str, seed: int,
                 sample: int) -> None:
        self.phase, self.table, self.sample = phase, table, sample
        self.engine = DBEst(config=fx.grouped_config(seed, regressor))
        self.engine.register_table(table)
        self.n_groups = len(table.distinct("g"))
        self.rows, self.seconds = 0, 0.0

    def build(self, times: int) -> None:
        for _ in range(times):
            self.phase.attempted += 1
            start = time.perf_counter()
            key = self.engine.build_model(
                self.table.name, x="x", y="y", group_by="g",
                sample_size=self.sample, streaming=True,
            )
            self.seconds += time.perf_counter() - start
            self.rows += self.engine.build_stats[key]["sample_size"]
            if self.engine.catalog.get(key).n_groups != self.n_groups:
                self.phase.fail(f"build on {self.table.name} lost groups")


def _deltas(seed: int, sz: dict) -> list:
    rng = np.random.default_rng(seed + 2)
    n_rows = round(sz["groups"] * sz["rows_per_group"] * sz["delta_share"])
    n_dirty = max(1, round(sz["groups"] * sz["dirty_share"]))
    return [
        fx.grouped_delta(
            rng, n_rows, rng.choice(sz["groups"], size=n_dirty, replace=False), TABLE
        )
        for _ in range(sz["deltas"])
    ]


def _read_sqls(seed: int, sz: dict) -> list[str]:
    """The read templates, the same after every delta."""
    bounds = fx.unique_bounds(np.random.default_rng(seed + 3), sz["read_templates"])
    return [
        fx.range_sql(TABLE, READ_CALLS[i % len(READ_CALLS)], b, "g")
        for i, b in enumerate(bounds)
    ]


def _store_engine(fixture, store_dir) -> DBEst:
    engine = DBEst(config=fixture.engine.config)
    engine.register_table(fixture.table)
    engine.catalog = ModelStore(store_dir, config=fixture.engine.config)
    return engine


class RefreshLoop:
    """Writes beside reads: a delta is appended and republished through
    ``DBEst.append_rows``, then every read template is read back through
    the live server and compared with the generation just published."""

    def __init__(self, fixture, store_dir, sqls: list[str], tracer) -> None:
        self.key, self.sqls, self.tracer = fixture.key, sqls, tracer
        self.serving = _store_engine(fixture, store_dir)
        self.staged_engine = None
        if tracer is not None:  # the staged pipeline republishes its own copy
            staged_dir = h.scratch_dir(NAME + "-staged")
            shutil.copytree(store_dir, staged_dir, dirs_exist_ok=True)
            self.staged_engine = _store_engine(fixture, staged_dir)
        self.appends = h.Phase("appends")
        self.reads = h.Phase("reads")
        self.staged = h.Phase("staged_appends")
        self.append_s: list[float] = []
        self.staged_s: list[float] = []
        self.read_latency: list[float] = []
        self.delta_rows = 0

    def _stage(self, delta) -> None:
        self.staged_s.append(
            _staged_append(self.staged_engine, self.key, delta, self.tracer)
        )

    def apply(self, server, turn: int, delta) -> None:
        serving, sqls, traced = self.serving, self.sqls, self.tracer is not None
        self.appends.attempted += 1
        # The second of two appends of one delta finds it in cache: take
        # turns, so neither side of the overhead ratio keeps that edge.
        staged_first = traced and turn % 2 == 1
        if staged_first:
            self._stage(delta)
        start = time.perf_counter()
        try:
            report = serving.append_rows(TABLE, delta)
        except Exception as exc:  # noqa: BLE001 - a failed write is a data point
            self.appends.fail(f"append_rows raised {exc!r}")
            return
        self.append_s.append(time.perf_counter() - start)
        self.delta_rows += report["rows"]
        if report["skipped"] or self.key not in report["refreshed"]:
            self.appends.fail("append_rows refreshed nothing")
        if traced and not staged_first:
            self._stage(delta)

        latencies, results, _ = h.closed_loop(server.execute, sqls)
        self.read_latency += latencies
        self.reads.attempted += len(results)
        # The generation just published, read without any cache.
        current = {sql: serving.execute(sql).values for sql in sqls}
        for i in h.count_failures(self.reads, results):
            if not h.values_divergence(results[i].values, current[sqls[i]]) <= h.PARITY_TOL:
                self.reads.fail(f"stale or wrong read after a republish: {sqls[i]}")
        if traced:
            self.staged.attempted += len(sqls)
            for sql in sqls:
                if not h.bit_identical(
                    self.staged_engine.execute(sql).values, current[sql]
                ):
                    self.staged.fail("staged append published a different model")
            self.staged_engine.catalog.prune()
        # As `refresh-store --prune` does: superseded generations left on
        # disk pile up dirty pages until writes stall.
        serving.catalog.prune()


def run(seed: int, sz: dict, trace: bool) -> h.Outcome:
    setups = h.Setups(
        lambda store_dir: _build(seed, sz, store_dir), NAME,
        1 if trace else sz["setup_repeats"],
    )
    fixture = setups.first()
    store_dir = fixture.store_dir
    tracer = h.Tracer() if trace else None
    layers: dict[str, float] = {}

    training = h.Phase("training")
    plr = TrainLeg(training, fixture.big, "plr", seed, sz["plr_sample"])
    gboost = TrainLeg(training, fixture.table, "gboost", seed, sz["gboost_sample"])
    plr_repeats, gboost_repeats = (
        (1, 1) if trace else (sz["plr_repeats"], sz["gboost_repeats"])
    )
    cold = h.ColdStarts(
        store_dir, fixture.engine.config,
        fx.range_sql(TABLE, "AVG(y)", (20.0, 60.0), "g"), sz["cold_repeats"],
        ROUNDS,
    )

    loop = RefreshLoop(fixture, store_dir, _read_sqls(seed, sz), tracer)
    deltas = _deltas(seed, sz)
    with QueryServer(loop.serving, n_workers=h.SERVER_WORKERS) as server:
        for k in range(ROUNDS):
            cold.sample()
            cold_want = loop.serving.execute(cold.sql).values  # this generation's
            plr.build(h.share(plr_repeats, k, ROUNDS))
            gboost.build(h.share(gboost_repeats, k, ROUNDS))
            for turn in range(len(deltas) * k // ROUNDS, len(deltas) * (k + 1) // ROUNDS):
                loop.apply(server, turn, deltas[turn])
            setups.again(k, ROUNDS)
        server_stats = server.stats()
    reads, append_s, read_latency = loop.reads, loop.append_s, loop.read_latency
    reads.samples = len(read_latency)
    retrain = h.Phase("retrain_oracle", attempted=1)
    _check_against_retrain(retrain, loop.serving, fixture.key)

    phases = [training, cold.check(cold_want), loop.appends, reads, retrain]
    outcome = h.Outcome(sz, phases)
    state_bytes = loop.serving.catalog.total_size_bytes()
    outcome.exact = {
        "state_bytes": state_bytes,
        "packed_bytes": fixture.packed_bytes,
        "delta_rows": loop.delta_rows,
    }
    outcome.e2e = {
        "setup_s": h.median(setups.seconds),
        "query_p50_ms": h.percentile(read_latency, 50) * 1e3,
        "query_p95_ms": h.steady_percentile(read_latency, 95) * 1e3,
        "throughput_qps": (reads.attempted - reads.failed)
        / (sum(append_s) + sum(read_latency)),
        "state_bytes": state_bytes,
        "peak_rss_mb": h.peak_rss_mb(),
        "train_rows_per_s": (plr.rows + gboost.rows) / (plr.seconds + gboost.seconds),
        "cold_first_answer_ms": cold.median_ms(2),
    }
    if not trace:
        return outcome

    phases.append(loop.staged)
    _staged_training(seed, sz, fixture, tracer, layers, phases)
    store_stats = server_stats["store"]
    seconds = tracer.layer_seconds()
    traced_wall = sum(
        end - start for _n, _q, parent, start, end in tracer.spans if parent is None
    )
    layers.update({
        "refresh_rows_per_s": loop.delta_rows / sum(append_s),
        "serve.plan_cache.hit_ratio": h.hit_ratio(server_stats["plan_cache"]),
        "serve.answer_cache.hit_ratio": h.hit_ratio(server_stats["answer_cache"]),
        "serve.server.engine_calls_per_query": (
            server_stats["engine_calls"] / max(1, server_stats["queries"])
        ),
        "serve.server.shed": server_stats["shed"],
        "serve.server.degraded": server_stats["degraded"],
        "serve.server.deadline_missed": server_stats["deadline_missed"],
        "serve.store.write_s": fixture.write_s,
        "serve.store.open_ms": cold.median_ms(0),
        "serve.store.get_ms": tracer.mean_self("serve.store:get") * 1e3,
        "serve.store.write_refresh_ms": (
            tracer.mean_self("serve.store:write_refresh") * 1e3
        ),
        "serve.store.disk_bytes": sum(
            p.stat().st_size for p in store_dir.rglob("*") if p.is_file()
        ),
        "serve.store.loads": store_stats["loads"],
        "serve.store.hit_ratio": h.hit_ratio(store_stats),
        "serve.store.retries": store_stats["retries"],
        "core.engine.append_rows_ms": h.median(append_s) * 1e3,
        "core.groupby.refresh_ms": tracer.mean_self("core.groupby:refresh") * 1e3,
        "core.batched.share": seconds.get("core.batched", 0.0) / traced_wall,
        "driver.layer_cover_share": sum(seconds.values()) / traced_wall,
        "driver.trace_overhead_share": sum(loop.staged_s) / sum(append_s) - 1.0,
        "driver.samples": len(read_latency),
    })
    tracer.write(NAME, {"seed": seed, "workload": NAME})
    outcome.layers = layers
    return outcome


def _staged_append(engine: DBEst, key, delta, tracer: h.Tracer) -> float:
    """``DBEst.append_rows`` from its public parts, one span per layer."""
    start = time.perf_counter()
    with tracer.span("core.engine:append_rows"):
        engine.tables[TABLE] = engine.tables[TABLE].concat(delta)
        with tracer.span("serve.store:get"):
            model = engine.catalog.get(key)
        delta_x = delta["x"].astype(np.float64)[:, None]
        delta_y = delta["y"].astype(np.float64)
        with tracer.span("core.groupby:refresh"):
            model.refresh(delta_x, delta_y, delta["g"])
        with tracer.span("serve.store:write_refresh"):
            engine.catalog.write_refresh(key, model)
    return time.perf_counter() - start


def _check_against_retrain(phase: h.Phase, serving: DBEst, key) -> None:
    """The refreshed set must answer like a from-scratch train on its own
    standing sample.  ``_hydrated()._stream`` is the one private read of
    the benchmark: nothing public hands out that sample."""
    model = serving.catalog.get(key)
    stream = model._hydrated()._stream
    table = serving.tables[TABLE]
    oracle = GroupByModelSet.train(
        stream.sample_x, stream.sample_y, sample_groups=stream.sample_groups,
        full_groups=table["g"], full_x=table["x"][:, None], full_y=table["y"],
        table_name=TABLE, x_columns=("x",), y_column="y", group_column="g",
        config=serving.config,
    )
    ranges = {"x": (20.0, 60.0)}
    for func in ("COUNT", "SUM", "AVG"):
        aggregate = AggregateCall(func, "y")
        d = h.divergence(model.answer(aggregate, ranges), oracle.answer(aggregate, ranges))
        if not d <= h.PARITY_TOL:
            phase.fail(f"refreshed {func}(y) is {d:.3g} from a retrain")


def _staged_training(seed, sz, fixture, tracer, layers, phases) -> None:
    """The plr leg staged from ``build_model``'s public parts, then the
    forest kernel alone on the gboost leg's sample."""
    config = fx.grouped_config(seed)
    reference = DBEst(config=config)
    reference.register_table(fixture.big)
    key = reference.build_model(
        BIG, x="x", y="y", group_by="g", sample_size=sz["plr_sample"], streaming=True
    )
    phase, trained = h.staged_groupby_training(
        tracer, fixture.big, sz["plr_sample"], config, seed,
        streaming=True, reference=reference.catalog.get(key),
    )
    phases.append(phase)
    layers.update(trained)

    small = fixture.table
    indices = reservoir_sample_indices(
        small.n_rows, sz["gboost_sample"], rng=np.random.default_rng(seed)
    )
    partition = GroupPartition.from_groups(small["g"][indices])
    rows = indices[partition.order]
    with tracer.span("core.batched_forest:fit"):
        fit_forest_regressors(
            small["x"][rows].astype(np.float64)[:, None],
            small["y"][rows].astype(np.float64),
            partition.offsets,
            fx.grouped_config(seed, "gboost"),
        )
    fit_s = tracer.mean_self("core.batched_forest:fit")
    layers["core.batched_forest.fit_s"] = fit_s
    layers["core.batched_forest.rows_per_s"] = len(rows) / fit_s
