"""Ablation: integration method — the engine's closed form vs adaptive QUADPACK.

The paper integrates with SciPy's QUADPACK (adaptive Gauss–Kronrod).
The engine takes every 1-D integral analytically
(:mod:`repro.integrate.moments`): each regressor it builds is piecewise
linear or constant, so an answer is a sum of ``ndtr`` and ``exp`` terms
at the range ends and the breakpoints (spline knots here, ``plr``; split
thresholds for forests and ensembles), where QUADPACK makes many
adaptive point-wise calls.  Both legs answer the same queries from the
same trained model: the engine through ``DBEst.execute``, QUADPACK
through :func:`repro.reference.answer`.  ``integration_points`` has no
effect on a 1-D answer.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import SAMPLE_100K, make_dbest, write_figure
from repro import reference
from repro.core import QueryResult
from repro.harness import run_workload
from repro.sql import parse_query
from repro.sql.ast import merged_ranges
from repro.workloads import generate_range_queries

PAIR = ("ss_list_price", "ss_wholesale_cost")
SQL = (
    "SELECT {}(ss_wholesale_cost) FROM store_sales "
    "WHERE ss_list_price BETWEEN 10 AND 40;"
)


class QuadEngine:
    """``execute`` that answers from a model by adaptive quadrature."""

    def __init__(self, model) -> None:
        self.model = model

    def execute(self, sql: str) -> QueryResult:
        query = parse_query(sql)
        ranges = merged_ranges(query.ranges)
        start = time.perf_counter()
        values = {
            str(call): reference.answer(self.model, call, ranges)
            for call in query.aggregates
        }
        return QueryResult(
            values=values, elapsed_seconds=time.perf_counter() - start, sql=sql
        )


@pytest.fixture(scope="module")
def ablation(store_sales, tpcds_truth):
    workload = generate_range_queries(
        store_sales, [PAIR], n_per_aggregate=6, aggregates=("AVG", "SUM"),
        range_fraction=0.05, seed=137, anchor="data",
    )
    engine = make_dbest(store_sales, regressor="plr", seed=13)
    key = engine.build_model(
        "store_sales", x=PAIR[0], y=PAIR[1], sample_size=SAMPLE_100K
    )
    engines = {"closed form": engine, "quad": QuadEngine(engine.catalog.get(key))}
    rows = []
    for method, leg in engines.items():
        run = run_workload(leg, workload, tpcds_truth, engine_name=method)
        rows.append(
            {
                "method": method,
                "AVG_error": run.mean_relative_error("AVG"),
                "SUM_error": run.mean_relative_error("SUM"),
                "mean_latency_s": run.mean_latency(),
            }
        )
    write_figure(
        "Ablation integration", "closed form (plr) vs adaptive QUADPACK", rows,
        notes="both legs answer from the same model; accuracies should "
        "agree to ~1e-2 and the closed form should be much faster",
    )
    return {row["method"]: row for row in rows}, engines


def test_methods_agree(benchmark, ablation):
    by_method, engines = ablation
    assert by_method["closed form"]["AVG_error"] == pytest.approx(
        by_method["quad"]["AVG_error"], abs=0.02
    )
    benchmark(engines["closed form"].execute, SQL.format("AVG"))


def test_closed_form_faster(benchmark, ablation):
    by_method, engines = ablation
    assert (
        by_method["closed form"]["mean_latency_s"]
        <= by_method["quad"]["mean_latency_s"]
    )
    benchmark(engines["quad"].execute, SQL.format("AVG"))


def test_count_agrees_between_methods(benchmark, ablation):
    """COUNT is the closed-form CDF mass on one leg and a quadrature of
    the pdf on the other; both must agree closely."""
    _by_method, engines = ablation
    sql = SQL.format("COUNT")
    closed = engines["closed form"].execute(sql).scalar()
    quad = engines["quad"].execute(sql).scalar()
    assert closed == pytest.approx(quad, rel=0.02)
    benchmark(engines["closed form"].execute, sql)


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
        answers[points] = engine.execute(SQL.format("AVG")).scalar()
        if points == 257:
            benchmark(engine.execute, SQL.format("AVG"))
    assert answers[65] == pytest.approx(answers[257], rel=0.01)
