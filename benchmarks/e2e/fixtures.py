"""Seeded tables and SQL lists.  The program under test only ever sees
what these return: a ``Table`` and SQL strings."""

from __future__ import annotations

import numpy as np

from repro.core.config import DBEstConfig
from repro.storage.table import Table

#: x is uniform on this domain in every grouped table.
X_DOMAIN = (0.0, 100.0)


def grouped_table(seed: int, n_groups: int, rows_per_group: int, name: str) -> Table:
    """``n_groups`` x ``rows_per_group`` rows of ``y = (1 + 0.05 g) x +
    noise`` - the shape every existing fixture of the repo uses."""
    rng = np.random.default_rng(seed)
    n = n_groups * rows_per_group
    g = np.repeat(np.arange(n_groups), rows_per_group).astype(np.float64)
    x = rng.uniform(*X_DOMAIN, size=n)
    y = (1.0 + g * 0.05) * x + rng.normal(0.0, 1.0, size=n)
    return Table({"x": x, "y": y, "g": g}, name=name)


def grouped_delta(rng: np.random.Generator, n_rows: int, groups: np.ndarray,
                  name: str) -> Table:
    """``n_rows`` new rows landing only in ``groups``."""
    g = rng.choice(groups, size=n_rows).astype(np.float64)
    x = rng.uniform(*X_DOMAIN, size=n_rows)
    y = (1.0 + g * 0.05) * x + rng.normal(0.0, 1.0, size=n_rows)
    return Table({"x": x, "y": y, "g": g}, name=name)


def grouped_config(seed: int, regressor: str = "plr") -> DBEstConfig:
    return DBEstConfig(
        regressor=regressor,
        min_group_rows=30,
        integration_points=65,
        random_seed=seed,
    )


def unique_bounds(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    """``n`` distinct (lb, ub) pairs inside X_DOMAIN, 20-50 wide: no two
    queries built from them can share a cached grid or answer."""
    lows = rng.uniform(5.0, 45.0, size=n)
    widths = rng.uniform(20.0, 50.0, size=n)
    return [(float(lb), float(lb + w)) for lb, w in zip(lows, widths)]


def range_sql(table: str, call: str, bounds: tuple[float, float],
              group_by: str | None = None) -> str:
    lb, ub = bounds
    select = f"{group_by}, {call}" if group_by else call
    sql = f"SELECT {select} FROM {table} WHERE x BETWEEN {lb!r} AND {ub!r}"
    if group_by:
        sql += f" GROUP BY {group_by}"
    return sql + ";"
