"""Shared fixtures.

Tests favour small tables and the cheap piecewise-linear regressor so the
suite stays fast; dedicated tests exercise the boosted/ensemble models
explicitly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import DBEstConfig, Table
from repro.engines import ExactEngine


def _tracked_record_hashes() -> dict[str, str]:
    root = Path(__file__).resolve().parents[1]
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in [*root.glob("BENCH_*.json"), root / "BENCHMARK.json"]
    }


@pytest.fixture(scope="session", autouse=True)
def _tracked_records_stay_untouched():
    """The suite is read-only: no test may rewrite (or add) a benchmark
    record at the repo root; only ``python benchmarks/bench_x.py`` and
    the e2e harness record."""
    before = _tracked_record_hashes()
    yield
    assert _tracked_record_hashes() == before


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_table() -> Table:
    """A deterministic 8-row table used by storage tests."""
    return Table(
        {
            "x": np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            "y": np.asarray([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]),
            "g": np.asarray([1, 1, 2, 2, 3, 3, 3, 3], dtype=np.int64),
        },
        name="small",
    )


@pytest.fixture
def linear_table(rng) -> Table:
    """5k rows with y = 3x + 7 + noise — a known regression target."""
    x = rng.uniform(0.0, 100.0, size=5000)
    y = 3.0 * x + 7.0 + rng.normal(0.0, 2.0, size=5000)
    g = rng.integers(0, 5, size=5000).astype(np.int64)
    return Table({"x": x, "y": y, "g": g}, name="linear")


@pytest.fixture
def fast_config() -> DBEstConfig:
    """Cheap-but-accurate engine config for end-to-end tests."""
    return DBEstConfig(
        regressor="plr",
        integration_points=129,
        min_group_rows=20,
        random_seed=99,
    )


@pytest.fixture
def truth_engine(linear_table) -> ExactEngine:
    engine = ExactEngine()
    engine.register_table(linear_table)
    return engine
