"""Batched vs scalar GROUP BY evaluation on a 200-group workload.

Not a paper figure: this benchmarks the repo's own batched evaluation
engine (:mod:`repro.core.batched`) against the per-group scalar loop the
paper's §4.7 identifies as its Python bottleneck.  The workload is the
fig15/17/22 shape — one model set over [x -> y] with a couple of hundred
groups, answered for the paper's aggregate functions over random range
predicates — scaled so the whole comparison runs in seconds.

Results are asserted (batched must be >= 5x faster overall and agree to
1e-9).  Run directly (``python benchmarks/bench_batched_groupby.py``)
the record is also written to ``BENCH_groupby.json`` at the repo root so
the performance trajectory is tracked across PRs; through pytest
(``pytest benchmarks/bench_batched_groupby.py``; marked slow) the same
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

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_groupby.json"

N_GROUPS = 200
ROWS_PER_GROUP = 40
INTEGRATION_POINTS = 65
SPEEDUP_FLOOR = 5.0
PARITY_BOUND = 1e-9

# The paper's GROUP BY experiments sweep COUNT/SUM/AVG; VARIANCE and
# PERCENTILE exercise the residual-variance pass and the lock-step
# root solve respectively.
AGGREGATES = (
    AggregateCall("COUNT", "y"),
    AggregateCall("SUM", "y"),
    AggregateCall("AVG", "y"),
    AggregateCall("VARIANCE", "y"),
    AggregateCall("PERCENTILE", "x", 0.5),
)
QUERY_RANGES = [{"x": (a, a + 25.0)} for a in (5.0, 20.0, 35.0, 50.0, 65.0)]


def build_model_set(seed: int = 7) -> GroupByModelSet:
    """200 modelled groups with distinct linear relations over x."""
    rng = np.random.default_rng(seed)
    n = N_GROUPS * ROWS_PER_GROUP
    groups = np.repeat(np.arange(N_GROUPS), ROWS_PER_GROUP)
    x = rng.uniform(0.0, 100.0, size=n)
    y = (1.0 + groups * 0.05) * x + rng.normal(0.0, 1.0, size=n)
    config = DBEstConfig(
        regressor="plr",
        min_group_rows=30,
        integration_points=INTEGRATION_POINTS,
        random_seed=seed,
    )
    return GroupByModelSet.train(
        sample_x=x, sample_y=y, sample_groups=groups,
        full_groups=groups, full_x=x, full_y=y,
        table_name="bench", x_columns=("x",), y_column="y", group_column="g",
        config=config,
    )


def _time_path(model_set: GroupByModelSet, aggregate, batched: bool) -> float:
    """Mean seconds per GROUP BY query over the range workload."""
    model_set.answer(aggregate, QUERY_RANGES[0], batched=batched)  # warm-up
    start = time.perf_counter()
    for ranges in QUERY_RANGES:
        model_set.answer(aggregate, ranges, batched=batched)
    return (time.perf_counter() - start) / len(QUERY_RANGES)


def _max_divergence(model_set: GroupByModelSet, aggregate) -> float:
    worst = 0.0
    for ranges in QUERY_RANGES:
        batched = model_set.answer(aggregate, ranges, batched=True)
        scalar = model_set.answer(aggregate, ranges, batched=False)
        for value, expected in scalar.items():
            got = batched[value]
            if np.isnan(expected) or np.isnan(got):
                if np.isnan(expected) != np.isnan(got):
                    return float("inf")  # one-sided NaN is a divergence
                continue
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    return worst


def run_benchmark() -> dict:
    model_set = build_model_set()
    model_set.batched_evaluator()  # build outside the timed region
    per_aggregate = {}
    scalar_total = batched_total = 0.0
    max_divergence = 0.0
    for aggregate in AGGREGATES:
        scalar_s = _time_path(model_set, aggregate, batched=False)
        batched_s = _time_path(model_set, aggregate, batched=True)
        divergence = _max_divergence(model_set, aggregate)
        max_divergence = max(max_divergence, divergence)
        scalar_total += scalar_s
        batched_total += batched_s
        per_aggregate[str(aggregate)] = {
            "scalar_seconds": scalar_s,
            "batched_seconds": batched_s,
            "speedup": scalar_s / batched_s,
            "max_rel_divergence": divergence,
        }
    record = {
        "bench": "batched_groupby",
        "n_groups": N_GROUPS,
        "rows_per_group": ROWS_PER_GROUP,
        "integration_points": INTEGRATION_POINTS,
        "n_queries_per_aggregate": len(QUERY_RANGES),
        "per_aggregate": per_aggregate,
        "scalar_seconds_per_query": scalar_total,
        "batched_seconds_per_query": batched_total,
        "overall_speedup": scalar_total / batched_total,
        "max_rel_divergence": max_divergence,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return record


@pytest.mark.slow
def test_batched_speedup_and_parity():
    record = run_benchmark()
    assert record["max_rel_divergence"] <= PARITY_BOUND
    assert record["overall_speedup"] >= SPEEDUP_FLOOR, (
        f"batched path only {record['overall_speedup']:.1f}x faster; "
        f"need >= {SPEEDUP_FLOOR}x (per-aggregate: "
        + ", ".join(
            f"{name}: {row['speedup']:.1f}x"
            for name, row in record["per_aggregate"].items()
        )
        + ")"
    )


def main() -> int:
    record = run_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"batched group-by benchmark ({N_GROUPS} groups, "
          f"{len(QUERY_RANGES)} queries/AF)")
    for name, row in record["per_aggregate"].items():
        print(
            f"  {name:<22} scalar {row['scalar_seconds'] * 1e3:8.2f} ms   "
            f"batched {row['batched_seconds'] * 1e3:7.2f} ms   "
            f"{row['speedup']:5.1f}x   max divergence {row['max_rel_divergence']:.1e}"
        )
    print(f"overall speedup: {record['overall_speedup']:.1f}x "
          f"(floor {SPEEDUP_FLOOR}x); record written to {RESULT_PATH}")
    return 0 if record["overall_speedup"] >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
