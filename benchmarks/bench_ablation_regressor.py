"""Ablation: regression-model choice (paper §3 "Regression Model Selection").

The paper motivates its classifier-routed ensemble by noting "different
models work better for different data regions".  This bench builds one
column-set model per backend on the same sample and reports
accuracy/latency/size, plus how often the ensemble's selector picks each
constituent.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SAMPLE_100K, make_dbest, write_figure
from repro.harness import run_workload
from repro.ml.ensemble import EnsembleRegressor
from repro.workloads import generate_range_queries

PAIR = ("ss_list_price", "ss_net_profit")
BACKENDS = ("ensemble", "gboost", "xgboost", "plr", "linear", "tree")


@pytest.fixture(scope="module")
def ablation(store_sales, tpcds_truth):
    workload = generate_range_queries(
        store_sales, [PAIR], n_per_aggregate=8, aggregates=("AVG", "SUM"),
        range_fraction=[0.02, 0.1], seed=131, anchor="data",
    )
    rows = []
    engines = {}
    for backend in BACKENDS:
        engine = make_dbest(store_sales, regressor=backend, seed=13)
        key = engine.build_model(
            "store_sales", x=PAIR[0], y=PAIR[1], sample_size=SAMPLE_100K
        )
        run = run_workload(engine, workload, tpcds_truth, engine_name=backend)
        stats = engine.build_stats[key]
        rows.append(
            {
                "regressor": backend,
                "AVG_error": run.mean_relative_error("AVG"),
                "SUM_error": run.mean_relative_error("SUM"),
                "latency_s": run.mean_latency(),
                "train_s": stats["training_seconds"],
                "model_MB": engine.catalog.get(key).size_bytes() / 1e6,
            }
        )
        engines[backend] = engine
    write_figure(
        "Ablation regressor", "regression backend trade-offs", rows,
        notes="paper picks the classifier-routed ensemble; boosted trees "
        "should beat plain linear on nonlinear pairs",
    )
    return rows, engines


def test_boosted_trees_beat_linear(benchmark, ablation):
    rows, engines = ablation
    by_name = {r["regressor"]: r for r in rows}
    best_tree = min(
        by_name["gboost"]["AVG_error"], by_name["xgboost"]["AVG_error"]
    )
    assert best_tree <= by_name["linear"]["AVG_error"] * 1.5
    sql = (
        "SELECT AVG(ss_net_profit) FROM store_sales "
        "WHERE ss_list_price BETWEEN 20 AND 40;"
    )
    benchmark(engines["gboost"].execute, sql)


def test_ensemble_is_competitive(benchmark, ablation):
    rows, engines = ablation
    by_name = {r["regressor"]: r for r in rows}
    single_best = min(
        by_name[b]["AVG_error"] for b in ("gboost", "xgboost", "plr")
    )
    # The routed ensemble should track its best constituent.
    assert by_name["ensemble"]["AVG_error"] <= single_best * 2.0 + 0.01
    sql = (
        "SELECT AVG(ss_net_profit) FROM store_sales "
        "WHERE ss_list_price BETWEEN 20 AND 40;"
    )
    benchmark(engines["ensemble"].execute, sql)


def test_selector_routes_by_range(benchmark, store_sales):
    """The ensemble's classifier actually differentiates query ranges."""
    x = store_sales["ss_list_price"][:20_000].astype(float)
    y = store_sales["ss_net_profit"][:20_000].astype(float)
    ensemble = EnsembleRegressor(n_eval_queries=60, random_state=13).fit(x, y)
    picks = {
        ensemble.select(float(a), float(a) + 10.0)
        for a in np.linspace(x.min(), x.max() - 10.0, 25)
    }
    assert picks <= set(ensemble.constituent_names)
    benchmark(ensemble.predict, np.linspace(5, 50, 257), 5.0, 50.0)
