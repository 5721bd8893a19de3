"""Root finding for percentile queries.

PERCENTILE(x, p) asks for the value ``a`` with ``F(a) = p`` where ``F`` is
the KDE's cumulative distribution function (the paper's Equations 4-5).
There is no closed form for ``F^{-1}``, so we solve ``F(a) - p = 0`` on a
bracket, one root per GROUP BY group in lock-step.

The paper bisects.  Here a step is the Illinois variant of regula falsi:
the secant point of the current bracket replaces the end whose ``f`` has
its sign, and when the same end is kept twice in a row that end's stored
``f`` is halved, so the bracket closes from both sides.  Three safeguards
take over where a secant would crawl:

* the secant point is clipped to ``[lo + tol/2, hi - tol/2]``: near a
  root the clipped point steps over it and the bracket collapses below
  ``tol``.  Without the clip a root at a large magnitude (a date key
  ~2.45e6, where 1e-9 is two ulps) is approached an ulp at a time;
* a point that is not finite or not strictly inside the bracket is
  replaced by the midpoint;
* the next step is a midpoint when the new point, the kept end and the
  dropped end fail Chandrupatla's test, i.e. when the inverse quadratic
  through them is not monotone on the bracket.  That happens on a CDF
  that is flat between narrow modes or close to a step, where bare
  Illinois steps took up to 4x bisection's evaluations.

These are measured, not proven, bounds: on the engine's CDFs a solve
takes a median of 6-8 evaluations (at most ~13) against ~38 for
bisection to the same ``tol``, and on the tests' fixtures, a cube root
and a jump included, no solve takes more calls than bisection.  Unlike
bisection's, the number of steps a bracket needs is not fixed by its
width: a clipped step only promises ``tol/2`` of progress, so a bracket
still wider than ``tol`` after ``max_iter`` steps is possible in
principle, and answers its midpoint like bisection's would.  The
paper's plain bisection survives as the oracle
:func:`repro.reference.bisect`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import InvalidParameterError, QueryExecutionError


def bracketed_roots(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    f_lo,
    f_hi,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> np.ndarray:
    """A root in every bracket ``[lo[k], hi[k]]`` at once, each taking the
    steps it would alone; ``f`` maps one point per bracket to that
    bracket's function value, which must change sign over the bracket.

    The caller hands in ``f_lo = f(lo)`` and ``f_hi = f(hi)`` (the engine
    holds them before the solve), so ``f`` is only called inside the
    brackets.  A root is returned when ``f`` is exactly 0 at a point, or
    as the midpoint of a bracket narrower than ``tol``; brackets still
    open after ``max_iter`` steps give their midpoint.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    if np.any(hi < lo):
        k = int(np.flatnonzero(hi < lo)[0])
        raise InvalidParameterError(f"root bracket reversed: [{lo[k]}, {hi[k]}]")
    f_lo, f_hi = np.array(f_lo, dtype=np.float64), np.array(f_hi, dtype=np.float64)
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    done = (f_lo == 0.0) | (f_hi == 0.0)
    hi_positive = f_hi > 0
    bad = ~done & ((f_lo > 0) == hi_positive)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise QueryExecutionError(
            f"interval [{lo[k]}, {hi[k]}] does not bracket a root "
            f"(f(lo)={f_lo[k]:.3g}, f(hi)={f_hi[k]:.3g})"
        )
    # True f at the ends (f_lo / f_hi are the Illinois-scaled copies the
    # secant uses), the end the last step kept (+1 lo, -1 hi, 0 none
    # yet), and whether the next step must be a midpoint.
    g_lo, g_hi = f_lo, f_hi
    kept = np.zeros(lo.shape, dtype=int)
    bisect_next = np.zeros(lo.shape, dtype=bool)
    for _ in range(max_iter):
        narrow = ~done & ((hi - lo) < tol)
        root[narrow] = 0.5 * (lo[narrow] + hi[narrow])
        done |= narrow
        if done.all():
            return root
        mid = 0.5 * (lo + hi)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            x = np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol)
        secant = ~bisect_next & np.isfinite(x) & (lo < x) & (x < hi)
        x = np.where(secant, x, mid)
        f_x = f(x)
        hit = ~done & (f_x == 0.0)
        root[hit] = x[hit]
        done |= hit
        # f(x) with f(hi)'s sign replaces hi.  The halving keeps the
        # stored values' signs, so each end's sign is fixed from the start.
        keep_lo = (f_x > 0) == hi_positive
        dropped, f_dropped = np.where(keep_lo, hi, lo), np.where(keep_lo, g_hi, g_lo)
        f_lo = np.where(keep_lo, np.where(kept == 1, 0.5 * f_lo, f_lo), f_x)
        f_hi = np.where(keep_lo, f_x, np.where(kept == -1, 0.5 * f_hi, f_hi))
        g_lo, g_hi = np.where(keep_lo, g_lo, f_x), np.where(keep_lo, f_x, g_hi)
        lo, hi = np.where(keep_lo, lo, x), np.where(keep_lo, x, hi)
        kept = np.where(keep_lo, 1, -1)
        # Chandrupatla's test on (new point, kept end, dropped end): an
        # interpolant through them that is not monotone on the bracket
        # means a flat or step-like f, where a secant crawls.
        b, f_b = np.where(keep_lo, lo, hi), np.where(keep_lo, g_lo, g_hi)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            xi = (x - b) / (dropped - b)
            phi = (f_x - f_b) / (f_dropped - f_b)
            bisect_next = ~((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi))
    return np.where(done, root, 0.5 * (lo + hi))
