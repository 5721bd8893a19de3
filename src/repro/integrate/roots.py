"""Root finding for percentile queries.

PERCENTILE(x, p) asks for the value ``a`` with ``F(a) = p`` where ``F`` is
the KDE's cumulative distribution function.  There is no closed form for
``F^{-1}``, so — exactly as in the paper — we solve ``F(a) - p = 0`` with
the naive bisection method, one root per GROUP BY group in lock-step.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import InvalidParameterError, QueryExecutionError


def bisect_many(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> np.ndarray:
    """Bisection on every bracket ``[lo[k], hi[k]]`` at once, each taking
    the steps it would alone; ``f`` maps one point per bracket to that
    bracket's function value, which must change sign over the bracket."""
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    if np.any(hi < lo):
        k = int(np.flatnonzero(hi < lo)[0])
        raise InvalidParameterError(f"bisection interval reversed: [{lo[k]}, {hi[k]}]")
    f_lo, f_hi = f(lo), f(hi)
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    done = (f_lo == 0.0) | (f_hi == 0.0)
    bad = ~done & ((f_lo > 0) == (f_hi > 0))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise QueryExecutionError(
            f"bisection interval [{lo[k]}, {hi[k]}] does not bracket a root "
            f"(f(lo)={f_lo[k]:.3g}, f(hi)={f_hi[k]:.3g})"
        )
    for _ in range(max_iter):
        if done.all():
            return root
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        newly = ~done & ((f_mid == 0.0) | ((hi - lo) < tol))
        root[newly] = mid[newly]
        done |= newly
        left = (f_mid > 0) == (f_hi > 0)
        hi, f_hi = np.where(left, mid, hi), np.where(left, f_mid, f_hi)
        lo = np.where(left, lo, mid)
    return np.where(done, root, 0.5 * (lo + hi))
