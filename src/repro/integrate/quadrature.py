"""Composite Simpson quadrature on a fixed grid.

The integrand is evaluated once, vectorised, over all nodes: KDE and
tree-ensemble evaluation are far cheaper in one batch than in many
adaptive point-wise calls.  The adaptive QUADPACK method the paper names
is an oracle only and lives in :mod:`repro.reference`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

import numpy as np

from repro.errors import InvalidParameterError


def _check_interval(lb: float, ub: float) -> None:
    if not np.isfinite(lb) or not np.isfinite(ub):
        raise InvalidParameterError(f"integration bounds must be finite: [{lb}, {ub}]")
    if ub < lb:
        raise InvalidParameterError(f"integration bounds reversed: [{lb}, {ub}]")


@lru_cache(maxsize=64)
def _simpson_weights_cached(n_points: int) -> np.ndarray:
    weights = np.ones(n_points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights.setflags(write=False)
    return weights


def simpson_weights(n_points: int) -> np.ndarray:
    """Composite-Simpson weights for ``n_points`` equally spaced nodes.

    ``n_points`` must be odd and >= 3; weights sum to ``n_points - 1`` and
    must be multiplied by ``h / 3`` where ``h`` is the node spacing.  The
    returned array is cached and read-only; copy before mutating.
    """
    if n_points < 3 or n_points % 2 == 0:
        raise InvalidParameterError(
            f"Simpson's rule needs an odd number of nodes >= 3, got {n_points}"
        )
    return _simpson_weights_cached(int(n_points))


def simpson_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lb: float,
    ub: float,
    n_points: int = 257,
) -> float:
    """Integrate a vectorised function over ``[lb, ub]`` with Simpson's rule."""
    _check_interval(lb, ub)
    if ub == lb:
        return 0.0
    nodes = np.linspace(lb, ub, n_points)
    values = np.asarray(f(nodes), dtype=np.float64)
    h = (ub - lb) / (n_points - 1)
    return float(h / 3.0 * np.dot(simpson_weights(n_points), values))


def integrate_product(
    density: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray] | None,
    lb: float,
    ub: float,
    n_points: int = 257,
) -> float:
    """Integrate ``density(x) * weight(x)`` (or just the density) on a grid.

    Evaluates both factors on a shared Simpson grid so tree ensembles and
    the KDE are each called exactly once.
    """
    _check_interval(lb, ub)
    if ub == lb:
        return 0.0
    nodes = np.linspace(lb, ub, n_points)
    values = np.asarray(density(nodes), dtype=np.float64)
    if weight is not None:
        values = values * np.asarray(weight(nodes), dtype=np.float64)
    h = (ub - lb) / (n_points - 1)
    return float(h / 3.0 * np.dot(simpson_weights(n_points), values))
