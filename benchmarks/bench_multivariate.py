"""Batched vs per-group-loop *multivariate* GROUP BY on 200 groups.

Not a paper figure: this benchmarks the repo's own multivariate batching
(product-kernel KDEs through :mod:`repro.core.batched_train` and
:mod:`repro.core.batched`) against the per-group scalar loop it replaced
as the default for multi-column predicates.  The workload mirrors
``bench_training.py`` — one model set over [(a, b) -> y] with 200 groups
— and times both sides of the engine: model-set *training* (per-dimension
bandwidth reductions, the vectorised d-dimensional binning pass, stacked
OLS solves) and *query answering* (stacked box integrals for COUNT, the
shared tensor-Simpson pdf pass for SUM/AVG/VARIANCE).

Results are asserted (batched must be >= 3x faster overall with every
model parameter within 1e-12 of the loop-trained oracle and every answer
within 1e-9 of the scalar loop).  Run directly
(``python benchmarks/bench_multivariate.py``) the record is also written
to ``BENCH_multivariate.json`` at the repo root so the performance
trajectory is tracked across PRs; through pytest
(``pytest benchmarks/bench_multivariate.py``; marked slow) the same
floors are asserted and nothing is written.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DBEstConfig
from repro.core.groupby import GroupByModelSet
from repro.sql.ast import AggregateCall

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_multivariate.json"

N_GROUPS = 200
ROWS_PER_GROUP = 40
SPEEDUP_FLOOR = 3.0
PARAM_PARITY_BOUND = 1e-12
ANSWER_PARITY_BOUND = 1e-9
REPEATS = 3

RANGES = {"a": (20.0, 60.0), "b": (-3.0, 3.0)}
AGGREGATES = (
    AggregateCall("COUNT", None),
    AggregateCall("SUM", "y"),
    AggregateCall("AVG", "y"),
    AggregateCall("VARIANCE", "y"),
)


def _make_workload(seed: int = 7):
    rng = np.random.default_rng(seed)
    n = N_GROUPS * ROWS_PER_GROUP
    groups = np.repeat(np.arange(N_GROUPS), ROWS_PER_GROUP)
    x = np.column_stack([
        rng.uniform(0.0, 100.0, size=n),
        rng.uniform(-5.0, 5.0, size=n),
    ])
    y = (1.0 + groups * 0.05) * x[:, 0] + 2.0 * x[:, 1] \
        + rng.normal(0.0, 1.0, size=n)
    return x, y, groups


def _train(batched: bool, seed: int = 7) -> GroupByModelSet:
    x, y, groups = _make_workload(seed)
    # "linear" joins the stacked normal-equation solve; piecewise-linear
    # splines are 1-D only and tree ensembles fit per group identically
    # on either path, so linear isolates the batching gain.
    config = DBEstConfig(
        regressor="linear", min_group_rows=30,
        integration_points=65, random_seed=seed,
    )
    return GroupByModelSet.train(
        sample_x=x, sample_y=y, sample_groups=groups,
        full_groups=groups, full_x=x, full_y=y,
        table_name="bench", x_columns=("a", "b"), y_column="y",
        group_column="g", config=config, batched=batched,
    )


def _time_training(batched: bool) -> float:
    """Best-of-REPEATS wall seconds for one full model-set build."""
    _train(batched)  # warm-up (imports, allocator, BLAS)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _train(batched)
        best = min(best, time.perf_counter() - start)
    return best


def _time_answers(model_set: GroupByModelSet, batched: bool) -> float:
    """Best-of-REPEATS wall seconds for all benchmark aggregates."""
    for aggregate in AGGREGATES:  # warm-up (also primes the grid cache
        model_set.answer(aggregate, RANGES, batched=batched)
    best = float("inf")
    for _ in range(REPEATS):
        if batched:
            # Time cold evaluations: drop the memoised pdf grids so the
            # batched side re-does its real work each repeat.
            model_set.batched_evaluator()._grid_cache.clear()
        start = time.perf_counter()
        for aggregate in AGGREGATES:
            model_set.answer(aggregate, RANGES, batched=batched)
        best = min(best, time.perf_counter() - start)
    return best


def _divergence(got, expected) -> float:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return float("inf")
    scale = np.maximum(1.0, np.abs(expected))
    return float(np.max(np.abs(got - expected) / scale, initial=0.0))


def max_param_divergence(
    batched: GroupByModelSet, scalar: GroupByModelSet
) -> float:
    if set(batched.models) != set(scalar.models):
        return float("inf")
    worst = 0.0
    for value, expected in scalar.models.items():
        got = batched.models[value]
        for got_arr, expected_arr in (
            (got.density._centres, expected.density._centres),
            (got.density._weights, expected.density._weights),
            (got.density._h, expected.density._h),
            (np.asarray(got.density._norm), np.asarray(expected.density._norm)),
            (got.regressor._coef, expected.regressor._coef),
        ):
            worst = max(worst, _divergence(got_arr, expected_arr))
    return worst


def max_answer_divergence(model_set: GroupByModelSet) -> float:
    worst = 0.0
    for aggregate in AGGREGATES:
        got = model_set.answer(aggregate, RANGES, batched=True)
        expected = model_set.answer(aggregate, RANGES, batched=False)
        if set(got) != set(expected):
            return float("inf")
        for value, answer in expected.items():
            if np.isnan(answer) or np.isnan(got[value]):
                if np.isnan(answer) != np.isnan(got[value]):
                    return float("inf")
                continue
            worst = max(worst, _divergence(got[value], answer))
    return worst


def run_benchmark() -> dict:
    loop_train = _time_training(batched=False)
    batched_train = _time_training(batched=True)
    model_set = _train(batched=True)
    loop_query = _time_answers(model_set, batched=False)
    batched_query = _time_answers(model_set, batched=True)
    param_divergence = max_param_divergence(
        _train(batched=True), _train(batched=False)
    )
    answer_divergence = max_answer_divergence(model_set)
    loop_total = loop_train + loop_query
    batched_total = batched_train + batched_query
    record = {
        "bench": "batched_multivariate",
        "n_groups": N_GROUPS,
        "rows_per_group": ROWS_PER_GROUP,
        "n_dims": 2,
        "repeats": REPEATS,
        "train": {
            "loop_seconds": loop_train,
            "batched_seconds": batched_train,
            "speedup": loop_train / batched_train,
        },
        "query": {
            "loop_seconds": loop_query,
            "batched_seconds": batched_query,
            "speedup": loop_query / batched_query,
        },
        "loop_seconds": loop_total,
        "batched_seconds": batched_total,
        "overall_speedup": loop_total / batched_total,
        "max_param_divergence": param_divergence,
        "max_answer_divergence": answer_divergence,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return record


@pytest.mark.slow
def test_batched_multivariate_speedup_and_parity():
    record = run_benchmark()
    assert record["max_param_divergence"] <= PARAM_PARITY_BOUND
    assert record["max_answer_divergence"] <= ANSWER_PARITY_BOUND
    assert record["overall_speedup"] >= SPEEDUP_FLOOR, (
        f"batched multivariate only {record['overall_speedup']:.1f}x faster; "
        f"need >= {SPEEDUP_FLOOR}x (train "
        f"{record['train']['speedup']:.1f}x, query "
        f"{record['query']['speedup']:.1f}x)"
    )


def main() -> int:
    record = run_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"batched multivariate benchmark ({N_GROUPS} groups, "
          f"{ROWS_PER_GROUP} rows/group, 2 dims, best of {REPEATS})")
    for leg in ("train", "query"):
        row = record[leg]
        print(
            f"  {leg:<6} loop {row['loop_seconds'] * 1e3:8.2f} ms   "
            f"batched {row['batched_seconds'] * 1e3:7.2f} ms   "
            f"{row['speedup']:5.1f}x"
        )
    print(f"overall speedup: {record['overall_speedup']:.1f}x "
          f"(floor {SPEEDUP_FLOOR}x); param/answer divergence "
          f"{record['max_param_divergence']:.1e}/"
          f"{record['max_answer_divergence']:.1e}; "
          f"record written to {RESULT_PATH}")
    return 0 if record["overall_speedup"] >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
