"""Batched vs per-group-loop GROUP BY *training* on a 200-group workload.

Not a paper figure: this benchmarks the repo's own batched trainer
(:mod:`repro.core.batched_train`) against the per-group training loop it
replaced, kept as the oracle ``repro.reference.train_set``.  The workload is
the same shape as ``bench_batched_groupby.py`` — one model set over
[x -> y] with 200 groups — but here the timed region is model
*construction* (partition, KDE fits, regressor solves, residual state),
the side that dominates end-to-end latency when models are rebuilt on
every sample refresh.

Results are asserted (batched must be >= 5x faster with every model
parameter — KDE centres/weights/bandwidth/support, regressor
coefficients and knots — within 1e-12 of the loop-trained oracle, and
the derived residual-variance bins within 1e-9: they square residuals,
which amplifies coefficient rounding by the data's magnitude).

The nonlinear legs (tree / gboost / xgboost) time the batched forest
kernel (:mod:`repro.core.batched_forest`; this workload is 1-D, so it
searches splits on the per-(group, bin) table) against the same
per-group loop of row-wise fits: each must be >= 3x faster, with every
tree's structure identical (booster base, feature / threshold / left /
right across every boosting round, bit for bit) and its values within
1e-12 of the tree's largest ``|value|``.  The kernel sums node labels in
the loop's order, so the value divergence reads 0 unless the structure
already differs.

Run directly (``python benchmarks/bench_training.py``) the record is
also written to ``BENCH_training.json`` at the repo root so the
performance trajectory is tracked across PRs; through pytest
(``pytest benchmarks/bench_training.py``; marked slow) the same floors
are asserted and nothing is written.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import reference
from repro.core.config import DBEstConfig
from repro.core.groupby import GroupByModelSet

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_training.json"

N_GROUPS = 200
ROWS_PER_GROUP = 40
SPEEDUP_FLOOR = 5.0
FOREST_SPEEDUP_FLOOR = 3.0
PARITY_BOUND = 1e-12
RESIDUAL_PARITY_BOUND = 1e-9
REPEATS = 3
FOREST_REPEATS = 1  # loop-path booster fits run seconds per build

# plr exercises the full stacked pipeline (segmented quantile knots,
# bucketed normal-equation solves, batched residual state); linear is the
# minimal stacked design.
REGRESSORS = ("plr", "linear")
# Nonlinear legs time the forest kernel against the per-group row-wise
# fits; tree structure must match exactly, values to PARITY_BOUND.
FOREST_REGRESSORS = ("tree", "gboost", "xgboost")
NODE_KEYS = ("feature", "threshold", "left", "right", "value")


def _make_workload(seed: int = 7):
    rng = np.random.default_rng(seed)
    n = N_GROUPS * ROWS_PER_GROUP
    groups = np.repeat(np.arange(N_GROUPS), ROWS_PER_GROUP)
    x = rng.uniform(0.0, 100.0, size=n)
    y = (1.0 + groups * 0.05) * x + rng.normal(0.0, 1.0, size=n)
    return x, y, groups


def _train(regressor: str, batched: bool, seed: int = 7) -> GroupByModelSet:
    x, y, groups = _make_workload(seed)
    config = DBEstConfig(
        regressor=regressor, min_group_rows=30,
        integration_points=65, random_seed=seed,
    )
    trainer = GroupByModelSet.train if batched else reference.train_set
    return trainer(
        sample_x=x, sample_y=y, sample_groups=groups,
        full_groups=groups, full_x=x, full_y=y,
        table_name="bench", x_columns=("x",), y_column="y", group_column="g",
        config=config,
    )


def _time_training(regressor: str, batched: bool, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall seconds for one full model-set build."""
    _train(regressor, batched)  # warm-up (imports, allocator, BLAS)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _train(regressor, batched)
        best = min(best, time.perf_counter() - start)
    return best


def _divergence(got, expected) -> float:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return float("inf")
    scale = np.maximum(1.0, np.abs(expected))
    return float(np.max(np.abs(got - expected) / scale, initial=0.0))


def max_divergences(
    batched: GroupByModelSet, scalar: GroupByModelSet
) -> tuple[float, float]:
    """Worst relative divergence over (primary params, residual state).

    Primary parameters (density mixture state, regressor coefficients
    and knots) must match to 1e-12.  The residual-variance bins are mean
    *squared* residuals, so a 1e-13 coefficient difference scaled by
    x-values in the hundreds lands them near 1e-12–1e-11; they are
    tracked separately against the 1e-9 answer-oracle bound.
    """
    if set(batched.models) != set(scalar.models):
        return float("inf"), float("inf")
    worst = residual_worst = 0.0
    for value, expected in scalar.models.items():
        got = batched.models[value]
        pairs = [
            (got.density._centres, expected.density._centres),
            (got.density._weights, expected.density._weights),
            (got.density._h, expected.density._h),
            (got.density._support, expected.density._support),
        ]
        for attr in ("_coef", "_knots"):
            if getattr(expected.regressor, attr, None) is not None:
                pairs.append(
                    (getattr(got.regressor, attr),
                     getattr(expected.regressor, attr))
                )
        for got_arr, expected_arr in pairs:
            worst = max(worst, _divergence(got_arr, expected_arr))
        residual_pairs = [
            (got._residual_var_global, expected._residual_var_global),
        ]
        if expected._residual_edges is not None:
            residual_pairs.append(
                (got._residual_edges, expected._residual_edges)
            )
            residual_pairs.append((got._residual_var, expected._residual_var))
        for got_arr, expected_arr in residual_pairs:
            residual_worst = max(
                residual_worst, _divergence(got_arr, expected_arr)
            )
    return worst, residual_worst


def _trees(regressor) -> list[dict]:
    """Every fitted tree of a tree / booster, as ``NODE_KEYS`` arrays."""
    if hasattr(regressor, "_nodes"):  # DecisionTreeRegressor
        return [regressor._nodes]
    return [
        tree._nodes if hasattr(tree, "_nodes")  # gboost stages
        else {key: getattr(tree, f"_{key}_arr") for key in NODE_KEYS}
        for tree in regressor._trees
    ]


def forest_node_parity(
    batched: GroupByModelSet, scalar: GroupByModelSet
) -> tuple[bool, float]:
    """(structure identical, max value divergence) over every group.

    Structure is the booster base and each tree's feature / threshold /
    left / right, compared bitwise with dtypes.  A tree's value
    divergence is its largest ``|difference|`` over its largest
    ``|value|``.
    """
    if set(batched.models) != set(scalar.models):
        return False, float("inf")
    identical, worst = True, 0.0
    for value, expected in scalar.models.items():
        got = batched.models[value].regressor
        identical &= getattr(got, "_base", None) == getattr(
            expected.regressor, "_base", None
        )
        got_trees, exp_trees = _trees(got), _trees(expected.regressor)
        if len(got_trees) != len(exp_trees):
            return False, float("inf")
        for got_tree, exp_tree in zip(got_trees, exp_trees):
            for key in NODE_KEYS[:-1]:
                identical &= (
                    got_tree[key].dtype == exp_tree[key].dtype
                    and np.array_equal(got_tree[key], exp_tree[key])
                )
            if not identical:
                return False, float("inf")
            diff = np.abs(got_tree["value"] - exp_tree["value"]).max()
            scale = np.abs(exp_tree["value"]).max()
            worst = max(worst, float(diff / scale) if scale else float(diff))
    return identical, worst


def run_benchmark() -> dict:
    per_regressor = {}
    loop_total = batched_total = 0.0
    max_divergence = max_residual = 0.0
    for regressor in REGRESSORS:
        loop_s = _time_training(regressor, batched=False)
        batched_s = _time_training(regressor, batched=True)
        divergence, residual_divergence = max_divergences(
            _train(regressor, batched=True), _train(regressor, batched=False)
        )
        loop_total += loop_s
        batched_total += batched_s
        max_divergence = max(max_divergence, divergence)
        max_residual = max(max_residual, residual_divergence)
        per_regressor[regressor] = {
            "loop_seconds": loop_s,
            "batched_seconds": batched_s,
            "speedup": loop_s / batched_s,
            "max_param_divergence": divergence,
            "max_residual_divergence": residual_divergence,
        }
    for regressor in FOREST_REGRESSORS:
        loop_s = _time_training(regressor, batched=False,
                                repeats=FOREST_REPEATS)
        batched_s = _time_training(regressor, batched=True,
                                   repeats=FOREST_REPEATS)
        batched_set = _train(regressor, batched=True)
        scalar_set = _train(regressor, batched=False)
        divergence, residual_divergence = max_divergences(
            batched_set, scalar_set
        )
        max_divergence = max(max_divergence, divergence)
        max_residual = max(max_residual, residual_divergence)
        structure_identical, value_divergence = forest_node_parity(
            batched_set, scalar_set
        )
        per_regressor[regressor] = {
            "loop_seconds": loop_s,
            "batched_seconds": batched_s,
            "speedup": loop_s / batched_s,
            "structure_identical": structure_identical,
            "max_value_divergence": value_divergence,
            "max_param_divergence": divergence,
            "max_residual_divergence": residual_divergence,
        }
    record = {
        "bench": "batched_training",
        "n_groups": N_GROUPS,
        "rows_per_group": ROWS_PER_GROUP,
        "repeats": REPEATS,
        "per_regressor": per_regressor,
        "loop_seconds": loop_total,
        "batched_seconds": batched_total,
        "overall_speedup": loop_total / batched_total,
        "max_param_divergence": max_divergence,
        "max_residual_divergence": max_residual,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return record


@pytest.mark.slow
def test_batched_training_speedup_and_parity():
    record = run_benchmark()
    assert record["max_param_divergence"] <= PARITY_BOUND
    assert record["max_residual_divergence"] <= RESIDUAL_PARITY_BOUND
    assert record["overall_speedup"] >= SPEEDUP_FLOOR, (
        f"batched training only {record['overall_speedup']:.1f}x faster; "
        f"need >= {SPEEDUP_FLOOR}x (per-regressor: "
        + ", ".join(
            f"{name}: {row['speedup']:.1f}x"
            for name, row in record["per_regressor"].items()
        )
        + ")"
    )
    for name in FOREST_REGRESSORS:
        row = record["per_regressor"][name]
        assert row["structure_identical"], f"{name}: tree structure diverged"
        assert row["max_value_divergence"] <= PARITY_BOUND, (
            f"{name}: node values diverged by {row['max_value_divergence']:.1e}"
        )
        assert row["speedup"] >= FOREST_SPEEDUP_FLOOR, (
            f"forest kernel only {row['speedup']:.1f}x faster for {name}; "
            f"need >= {FOREST_SPEEDUP_FLOOR}x"
        )


def main() -> int:
    record = run_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"batched training benchmark ({N_GROUPS} groups, "
          f"{ROWS_PER_GROUP} rows/group, best of {REPEATS}; "
          f"forest legs best of {FOREST_REPEATS})")
    for name, row in record["per_regressor"].items():
        nodes = ""
        if "structure_identical" in row:
            nodes = (f"   structure identical, values "
                     f"{row['max_value_divergence']:.1e}"
                     if row["structure_identical"]
                     else "   STRUCTURE DIVERGED")
        print(
            f"  {name:<8} loop {row['loop_seconds'] * 1e3:8.2f} ms   "
            f"batched {row['batched_seconds'] * 1e3:7.2f} ms   "
            f"{row['speedup']:5.1f}x   param/residual divergence "
            f"{row['max_param_divergence']:.1e}/"
            f"{row['max_residual_divergence']:.1e}{nodes}"
        )
    print(f"overall speedup: {record['overall_speedup']:.1f}x "
          f"(floor {SPEEDUP_FLOOR}x, forest legs {FOREST_SPEEDUP_FLOOR}x); "
          f"record written to {RESULT_PATH}")
    ok = record["overall_speedup"] >= SPEEDUP_FLOOR and all(
        record["per_regressor"][name]["structure_identical"]
        and record["per_regressor"][name]["max_value_divergence"]
        <= PARITY_BOUND
        and record["per_regressor"][name]["speedup"] >= FOREST_SPEEDUP_FLOOR
        for name in FOREST_REGRESSORS
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
