"""groupby_fresh - GROUP BY with bounds nobody asked before.

``groups`` x ``rows_per_group`` rows (the shape every existing fixture of
the repo uses, 10x the rows), ``plr``, 65 integration points; queries
cycle COUNT(x), AVG(x), AVG(y), SUM(y), VARIANCE(y), each with unique
bounds, one closed-loop caller of ``DBEst.execute``.  Why: kernel-bound -
``core.batched`` (cdf, pdf grid, Simpson, predict grid) does > 80 % of
the wall and no cache can help, so every kernel optimisation must show
here and nowhere else.

The closed loop runs 2.3x ``--seconds``.  Every query is pure compute,
so this workload follows the box's speed more closely than any other;
with 200 queries (9 s, one mood of the box) the p95 of ten runs spread
0.1-0.3 of its median, with 540 (23 s, several moods in every run) and
``harness.steady_percentile`` 0.05-0.15.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro.core.engine import DBEst
from repro.sql.ast import AggregateCall

from benchmarks.e2e import fixtures as fx
from benchmarks.e2e import harness as h

NAME = "groupby_fresh"
TABLE = "fresh"
CALLS = ("COUNT(x)", "AVG(x)", "AVG(y)", "SUM(y)", "VARIANCE(y)")
COLD_SQL = fx.range_sql(TABLE, "AVG(y)", (20.0, 60.0), group_by="g")

#: Mean per-group relative error vs ExactEngine may not exceed these
#: ("ALL" is rel_error_mean): the worst mean over seeds 1-10 at the
#: reference sizes, plus 20 % (the means move < 10 % between seeds).
ERROR_CEILINGS = {
    "COUNT(x)": 0.051,
    "AVG(x)": 0.022,
    "AVG(y)": 0.023,
    "SUM(y)": 0.055,
    "VARIANCE(y)": 0.105,
    "ALL": 0.049,
}


def sizes(seconds: float) -> dict:
    """Seed code: COUNT ~10 ms, the others 50-65 ms on 300 x 200."""
    return {
        "groups": 300,
        "rows_per_group": 200,
        "queries": max(h.MIN_LATENCY_SAMPLES, round(54 * seconds)),
        "loop_seconds": 2.3 * seconds,
        "rounds": 6,
        "setup_repeats": 7,
        "cold_repeats": 35,
        "ceilings": ERROR_CEILINGS,
    }


TOY = {
    "groups": 20,
    "rows_per_group": 60,
    "queries": 40,
    "loop_seconds": 1.0,
    "rounds": 3,
    "setup_repeats": 2,
    "cold_repeats": 4,
    "ceilings": dict.fromkeys(CALLS + ("ALL",), 5.0),
}


def _build(seed: int, sz: dict, store_dir) -> SimpleNamespace:
    table = fx.grouped_table(seed, sz["groups"], sz["rows_per_group"], TABLE)
    engine = DBEst(config=fx.grouped_config(seed))
    engine.register_table(table)
    key = engine.build_model(
        TABLE, x="x", y="y", group_by="g", sample_size=table.n_rows
    )
    engine.pack_store(store_dir, store_format="mmap")
    return SimpleNamespace(table=table, engine=engine, key=key, store_dir=store_dir)


def _queries(seed: int, n: int):
    bounds = fx.unique_bounds(np.random.default_rng(seed + 1), n + 1)
    calls = [CALLS[i % len(CALLS)] for i in range(n + 1)]
    sqls = [fx.range_sql(TABLE, c, b, group_by="g") for c, b in zip(calls, bounds)]
    return sqls[:n], calls[:n], sqls[n]


def run(seed: int, sz: dict, trace: bool) -> h.Outcome:
    setups = h.Setups(
        lambda store_dir: _build(seed, sz, store_dir), NAME,
        1 if trace else sz["setup_repeats"],
    )
    fixture = setups.first()
    n = sz["queries"] // 2 if trace else sz["queries"]
    sqls, calls, warm_sql = _queries(seed, n)
    outcome, tracer = h.run_query_workload(
        sz, setups, fixture, sqls, calls, warm_sql, COLD_SQL, trace
    )
    if trace:
        _add_layers(seed, fixture, calls, outcome, tracer)
    return outcome


def _add_layers(seed, fixture, calls, outcome, tracer) -> None:
    layers = outcome.layers
    layers.update(h.kernel_answer_metrics(tracer, calls))
    layers["core.batched.pdf_simpson_ms"] = (
        layers["core.batched.answer_avg_x_ms"]
        - layers["core.batched.answer_count_x_ms"]
    )
    layers["core.batched.predict_ms"] = (
        layers["core.batched.answer_avg_y_ms"]
        - layers["core.batched.answer_avg_x_ms"]
    )

    # Same bounds again: what the memoised pdf grid saves.
    engine = fixture.engine
    model_set = engine.catalog.get(fixture.key)
    evaluator = model_set.batched_evaluator()
    before = evaluator.grid_cache_stats()
    rng = np.random.default_rng(seed + 3)
    repeats = []
    for bounds in fx.unique_bounds(rng, 10):
        ranges = {"x": bounds}
        evaluator.answer(AggregateCall("SUM", "y"), ranges)
        start = time.perf_counter()
        evaluator.answer(AggregateCall("AVG", "y"), ranges)
        repeats.append(time.perf_counter() - start)
    after = evaluator.grid_cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    layers["core.batched.answer_repeat_avg_y_ms"] = h.median(repeats) * 1e3
    layers["core.batched.grid_hit_ratio"] = hits / max(1, hits + misses)

    phase, trained = h.staged_groupby_training(
        tracer, fixture.table, fixture.table.n_rows, engine.config, seed,
        streaming=False, reference=model_set,
    )
    outcome.phases.append(phase)
    layers.update(trained)
    tracer.write(NAME, {"seed": seed, "workload": NAME})
