"""Ablation: integration method — ``"simpson"`` vs adaptive QUADPACK.

The paper integrates with SciPy's QUADPACK (adaptive Gauss–Kronrod).  Our
default, ``integration_method="simpson"``, takes every 1-D integral
analytically (:mod:`repro.integrate.moments`): each regressor the engine
builds is piecewise linear or constant, so its ``"simpson"`` leg *is* the
closed form - sums of ``ndtr`` and ``exp`` at the range ends and the
breakpoints (spline knots here, ``plr``; split thresholds for forests
and ensembles) against many adaptive point-wise calls, with
``integration_points`` having no effect.  The vectorised Simpson grid
is left to multivariate boxes and regressors that export no pieces.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SAMPLE_100K, make_dbest, write_figure
from repro.harness import run_workload
from repro.workloads import generate_range_queries

PAIR = ("ss_list_price", "ss_wholesale_cost")


@pytest.fixture(scope="module")
def ablation(store_sales, tpcds_truth):
    workload = generate_range_queries(
        store_sales, [PAIR], n_per_aggregate=6, aggregates=("AVG", "SUM"),
        range_fraction=0.05, seed=137, anchor="data",
    )
    rows = []
    engines = {}
    for method in ("simpson", "quad"):
        engine = make_dbest(
            store_sales, regressor="plr", seed=13, integration_method=method
        )
        engine.build_model(
            "store_sales", x=PAIR[0], y=PAIR[1], sample_size=SAMPLE_100K
        )
        run = run_workload(engine, workload, tpcds_truth, engine_name=method)
        rows.append(
            {
                "method": method,
                "AVG_error": run.mean_relative_error("AVG"),
                "SUM_error": run.mean_relative_error("SUM"),
                "mean_latency_s": run.mean_latency(),
            }
        )
        engines[method] = engine
    write_figure(
        "Ablation integration", "closed form (plr) vs adaptive QUADPACK", rows,
        notes="'simpson' on plr is the closed form; accuracies should agree "
        "to ~1e-2 and it should be much faster",
    )
    return rows, engines


def test_methods_agree(benchmark, ablation):
    rows, engines = ablation
    by_method = {r["method"]: r for r in rows}
    assert by_method["simpson"]["AVG_error"] == pytest.approx(
        by_method["quad"]["AVG_error"], abs=0.02
    )
    sql = (
        "SELECT AVG(ss_wholesale_cost) FROM store_sales "
        "WHERE ss_list_price BETWEEN 10 AND 40;"
    )
    benchmark(engines["simpson"].execute, sql)


def test_simpson_faster(benchmark, ablation):
    rows, engines = ablation
    by_method = {r["method"]: r for r in rows}
    assert (
        by_method["simpson"]["mean_latency_s"]
        <= by_method["quad"]["mean_latency_s"]
    )
    sql = (
        "SELECT AVG(ss_wholesale_cost) FROM store_sales "
        "WHERE ss_list_price BETWEEN 10 AND 40;"
    )
    benchmark(engines["quad"].execute, sql)


def test_count_identical_between_methods(benchmark, ablation):
    """COUNT uses the analytic CDF under simpson and quadrature under quad;
    both must agree closely."""
    _rows, engines = ablation
    sql = (
        "SELECT COUNT(ss_wholesale_cost) FROM store_sales "
        "WHERE ss_list_price BETWEEN 10 AND 40;"
    )
    simpson = engines["simpson"].execute(sql).scalar()
    quad = engines["quad"].execute(sql).scalar()
    assert simpson == pytest.approx(quad, rel=0.02)
    benchmark(engines["simpson"].execute, sql)


def test_grid_resolution_convergence(benchmark, store_sales, tpcds_truth):
    """The grid size cannot move a ``plr`` answer: it is closed-form."""
    answers = {}
    for points in (65, 257):
        engine = make_dbest(
            store_sales, regressor="plr", seed=13, integration_points=points
        )
        engine.build_model(
            "store_sales", x=PAIR[0], y=PAIR[1], sample_size=SAMPLE_100K
        )
        sql = (
            "SELECT AVG(ss_wholesale_cost) FROM store_sales "
            "WHERE ss_list_price BETWEEN 10 AND 40;"
        )
        answers[points] = engine.execute(sql).scalar()
        if points == 257:
            benchmark(engine.execute, sql)
    assert answers[65] == pytest.approx(answers[257], rel=0.01)
