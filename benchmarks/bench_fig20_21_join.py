"""Figures 20 & 21: join query processing.

Paper setup (§4.8): store_sales ⋈ store on ss_store_sk; 42 queries over
[s_number_of_employees -> ss_net_profit] and [... -> ss_wholesale_cost];
DBEst trained on 10k/100k/1m samples of the *precomputed* join, VerdictDB
joining a 10m-row fact sample with the 60-row dimension table at query
time.

Paper shape: DBEst error 4.48% (10k) to 2.24% (1m) vs VerdictDB 1.66%
(with a 100x larger sample); DBEst answers in 0.028-0.82s vs 6.7s and
needs 0.37-1.12MB vs >270MB — speedups up to >200x, space 100-250x.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import (
    SAMPLE_1M,
    SAMPLE_10K,
    SAMPLE_100K,
    make_dbest,
    write_figure,
)
from repro import UniformAQPEngine
from repro.harness import run_workload
from repro.workloads.queries import generate_join_queries

AFS = ("COUNT", "SUM", "AVG")
Y_COLUMNS = ["ss_net_profit", "ss_wholesale_cost"]
JOIN_SQL = (
    "SELECT AVG(ss_net_profit) FROM store_sales JOIN store "
    "ON ss_store_sk = s_store_sk "
    "WHERE s_number_of_employees BETWEEN 220 AND 260;"
)


@pytest.fixture(scope="module")
def workload(store):
    domain = (
        float(store["s_number_of_employees"].min()),
        float(store["s_number_of_employees"].max()),
    )
    return generate_join_queries(
        "store_sales", "store", "ss_store_sk", "s_store_sk",
        "s_number_of_employees", domain, Y_COLUMNS,
        n_per_aggregate=3, aggregates=AFS, range_fraction=0.4, seed=117,
    )


@pytest.fixture(scope="module")
def comparison(store_sales, store, tpcds_truth, workload):
    sizes = {"10k": SAMPLE_10K, "100k": SAMPLE_100K, "1m": SAMPLE_1M}
    engines = {}
    model_bytes = {}
    for label, size in sizes.items():
        dbest = make_dbest(store_sales, store, regressor="xgboost", seed=13)
        key = dbest.build_join_model(
            "store_sales", "store", "ss_store_sk", "s_store_sk",
            x="s_number_of_employees", y=None, sample_size=size,
        )
        # One model per y column (the paper's 2 column pairs).
        for y in Y_COLUMNS:
            key = dbest.build_join_model(
                "store_sales", "store", "ss_store_sk", "s_store_sk",
                x="s_number_of_employees", y=y, sample_size=size,
            )
        engines[f"DBEst_{label}"] = dbest
        model_bytes[f"DBEst_{label}"] = dbest.catalog.get(key).size_bytes()

    # The paper's VerdictDB joins a *fixed 10m-row* fact sample with the
    # 60-row dimension table at query time; at repo scale that sample is
    # most of the population — which is exactly why its query-time join
    # is so much more expensive than DBEst's model evaluation.
    verdict_sample = 100_000
    verdict = UniformAQPEngine(sample_size=verdict_sample, random_seed=13)
    verdict.register_table(store_sales)
    verdict.register_table(store)
    verdict.prepare_table("store_sales", sample_size=verdict_sample)
    engines["VerdictDB_10m"] = verdict

    error_rows, perf_rows = [], []
    for name, engine in engines.items():
        run = run_workload(engine, workload, tpcds_truth, engine_name=name)
        row = {"engine": name}
        for af in AFS:
            row[af] = run.mean_relative_error(af)
        row["OVERALL"] = run.mean_relative_error()
        error_rows.append(row)
        if name.startswith("DBEst"):
            space = model_bytes[name] / 1e6
        else:
            space = verdict.state_size_bytes() / 1e6
        perf_rows.append(
            {
                "engine": name,
                "mean_latency_s": run.mean_latency(),
                "space_MB": space,
            }
        )
    write_figure(
        "Fig 20", "join accuracy comparison", error_rows,
        notes="paper: DBEst 4.48% (10k) - 2.24% (1m); VerdictDB 1.66% with "
        "a 100x larger sample",
    )
    write_figure(
        "Fig 21", "join response time and space overhead", perf_rows,
        notes="paper: DBEst 0.028-0.82s / 0.37-1.12MB vs VerdictDB 6.7s / >270MB",
    )
    return engines, error_rows, perf_rows


def test_fig20_join_accuracy(benchmark, comparison):
    engines, error_rows, _ = comparison
    by_name = {row["engine"]: row["OVERALL"] for row in error_rows}
    assert by_name["DBEst_1m"] < 0.15
    # Bigger training samples should not hurt accuracy.
    assert by_name["DBEst_1m"] <= by_name["DBEst_10k"] * 1.5 + 0.02
    result = benchmark(engines["DBEst_10k"].execute, JOIN_SQL)
    assert result.source == "model"


def test_fig21_space_advantage(benchmark, comparison):
    engines, _, perf_rows = comparison
    dbest_space = next(
        r["space_MB"] for r in perf_rows if r["engine"] == "DBEst_10k"
    )
    verdict_space = next(
        r["space_MB"] for r in perf_rows if r["engine"] == "VerdictDB_10m"
    )
    assert dbest_space < verdict_space
    benchmark(engines["VerdictDB_10m"].execute, JOIN_SQL)


def test_fig21_dbest_faster_than_sample_join(comparison, benchmark):
    engines, _, perf_rows = comparison
    times = {r["engine"]: r["mean_latency_s"] for r in perf_rows}
    # DBEst avoids the query-time join entirely; it must win on latency.
    assert times["DBEst_10k"] < times["VerdictDB_10m"]
    result = benchmark(engines["DBEst_1m"].execute, JOIN_SQL)
    assert not np.isnan(result.scalar())
