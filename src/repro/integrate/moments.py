"""Closed-form moment integrals of a Gaussian mixture.

DBEst answers COUNT / SUM / AVG / VARIANCE as ``∫D``, ``∫R·D`` and
``∫R²·D`` over the query range (paper §2.3, Eq. 1-9).  A 1-D KDE is a
Gaussian mixture — boundary reflection only adds mirrored centres — and
every regressor the engine builds is piecewise linear in x: ``linear``
and ``plr`` between their knots, ``tree`` / ``gboost`` / ``xgboost``
constant between their distinct split thresholds, an ``ensemble``
whichever its range selector picks.  So those integrals need no
quadrature: they are finite sums of ``ndtr`` and ``exp`` at the range
ends and the breakpoints.  The same holds for the identity integrand
(``AVG(x)``, ``VARIANCE(x)``), for ``E[Var(y|x)]``, whose integrand is
constant between the residual-variance bin edges, and for the CDF that
PERCENTILE inverts.  :class:`~repro.core.batched.BatchedGroupEvaluator`
takes that route for every 1-D model, a GROUP BY set's or a single
:class:`~repro.core.model.ColumnSetModel`'s; only multivariate boxes keep
a quadrature (:mod:`repro.integrate.quadrature`).

Everything works in a mixture's *unit-bandwidth coordinate*
``u = (x - x0) / h`` with ``x0`` the support midpoint, so that kernel
``i`` is ``N(u; g_i, 1)``.  Centres are ascending, so those within
``_WINDOW`` bandwidths of a point are one run found by binary search,
and only they need ``ndtr`` / ``exp`` (the truncation of the fast Gauss
transform, Greengard & Strain 1991, with the cutoff past the last bit).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Beyond this many bandwidths a kernel's terms are constants in double
# precision: Φ(9) rounds to 1, Φ(-9) ≈ 1.1e-19 and φ(9) ≈ 1.0e-18.
_WINDOW = 9.0

# Windowed kernel terms evaluated per block: small enough that the block
# and its temporaries stay cache-resident.
_BLOCK = 1 << 15


def left_terms(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(3, N + 1)``: each centre's ``w``, ``w·g`` and ``w·(g² + 1)``,
    the moments of a kernel wholly left of a point, then a zero column
    (a run of centres may end one past the last)."""
    n = w.shape[0]
    out = np.empty((3, n + 1))
    out[:, n] = 0.0
    out[0, :n] = w
    np.multiply(w, g, out=out[1, :n])
    np.multiply(out[1, :n], g, out=out[2, :n])
    out[2, :n] += w
    return out


def cumulative_moments(
    g: np.ndarray,
    w: np.ndarray,
    offsets: np.ndarray,
    group: np.ndarray,
    t: np.ndarray,
    degree: int = 2,
    left: np.ndarray | None = None,
) -> np.ndarray:
    """``(M0, M1, M2)(t) = ∫_{-inf}^{t} (1, u, u²) · Σ_i w_i N(u; g_i, 1) du``.

    ``g`` / ``w`` hold every group's kernel centres and weights flat,
    group ``k`` owning rows ``offsets[k]:offsets[k + 1]`` (non-empty,
    ``g`` ascending within them); the result has one row per
    ``(group[p], t[p])`` pair holding ``M0`` to ``M{degree}`` —
    ``degree=0`` is the mass alone and skips ``exp``.  With
    ``z_i = t - g_i``::

        M0 = Σ w_i Φ(z_i)
        M1 = Σ w_i [g_i Φ(z_i) - φ(z_i)]
        M2 = Σ w_i [(g_i² + 1) Φ(z_i) - (t + g_i) φ(z_i)]

    Only centres with ``|z_i| <= _WINDOW`` are evaluated; those further
    left add ``w_i``, ``w_i g_i`` and ``w_i (g_i² + 1)``, those further
    right add 0.  Each pair finds its window by position inside its own
    group's rows and reduces over them only, so a value is bit-identical
    whether it is computed alone, inside a larger batch, or on a slice
    of the stacked arrays — callers may memoise rows freely.  ``left``
    is :func:`left_terms` of ``g`` and ``w``, which callers evaluating
    the same mixture many times may keep.
    """
    n_pairs = group.shape[0]
    out = np.zeros((n_pairs, degree + 1))
    if n_pairs == 0:
        return out
    if left is None:
        left = left_terms(g, w)
    start = offsets[:-1][group]
    first, last = _window(g, start, offsets[1:][group], t)
    # Each pair's centres left of its window, start:first, summed in
    # place.  Taken in order of `first`, the runs between two pairs'
    # runs are single cells or cover each centre at most once.
    order = np.argsort(first, kind="stable")
    run_start, run_end = start[order], first[order]
    runs = np.empty(2 * n_pairs, dtype=np.intp)
    runs[::2], runs[1::2] = run_start, run_end
    sums = np.add.reduceat(left[: degree + 1, : run_end[-1] + 1], runs, axis=1)
    out[order] = np.where(run_end > run_start, sums[:, ::2], 0.0).T
    # Whole pairs are packed into cache-sized blocks of windowed terms.
    ends = np.cumsum(last - first)
    cuts = [0, n_pairs]
    if ends[-1] > _BLOCK:
        cuts = np.unique(np.concatenate((
            [0],
            np.searchsorted(ends, np.arange(_BLOCK, int(ends[-1]), _BLOCK), "right"),
            [n_pairs],
        ))).tolist()
    for p0, p1 in zip(cuts[:-1], cuts[1:]):
        pairs, counts, rows, at = gather_ranges(first[p0:p1], last[p0:p1])
        if rows.size == 0:
            continue
        pairs += p0
        wi = w[rows]
        gi = g[rows]
        tt = np.repeat(t[pairs], counts)
        z = tt - gi
        cdf = ndtr(z)
        out[pairs, 0] += np.add.reduceat(wi * cdf, at)
        if not degree:
            continue
        np.square(z, out=z)
        z *= -0.5
        pdf = np.exp(z, out=z)
        pdf /= _SQRT_2PI
        m1 = gi * cdf
        m1 -= pdf
        m1 *= wi
        out[pairs, 1] += np.add.reduceat(m1, at)
        tt += gi
        tt *= pdf
        m2 = np.square(gi, out=gi)
        m2 += 1.0
        m2 *= cdf
        m2 -= tt
        m2 *= wi
        out[pairs, 2] += np.add.reduceat(m2, at)
    return out


def _window(
    g: np.ndarray, start: np.ndarray, end: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``[first, last)``: the rows of ``start:end`` with ``|t - g| <= _WINDOW``.

    One ``np.searchsorted`` when every pair is in one group, else a
    lock-step binary search over all of them; both find the same rows.
    """
    n = t.shape[0]
    keys = np.concatenate((t - _WINDOW, np.nextafter(t + _WINDOW, np.inf)))
    if (start == start[0]).all():
        s = int(start[0])
        found = s + np.searchsorted(g[s:int(end[0])], keys)
        return found[:n], found[n:]
    lo = np.concatenate((start, start))
    hi = np.concatenate((end, end))
    top = g.shape[0] - 1
    for _ in range(int((end - start).max()).bit_length()):
        mid = (lo + hi) >> 1
        right = g[np.minimum(mid, top)] < keys
        right &= lo < hi
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo[:n], lo[n:]


def gather_ranges(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(pairs, counts, rows, at)`` of the non-empty row ranges ``lo:hi``:
    ``rows`` holds them flat, each starting at ``at`` (``reduceat``'s
    segment starts)."""
    pairs = np.flatnonzero(hi > lo)
    counts = (hi - lo)[pairs]
    ends = np.cumsum(counts)
    at = ends - counts
    rows = np.arange(int(ends[-1]) if ends.size else 0)
    rows += np.repeat(lo[pairs] - at, counts)
    return pairs, counts, rows, at


def affine_piece_integrals(
    d: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(∫D, ∫R·D, ∫R²·D)`` of a piecewise-linear ``R`` over a range.

    ``d[..., p, :]`` is the difference of :func:`cumulative_moments`
    between the ends of piece ``p`` and ``R(u) = alpha[..., p]·u +
    beta[..., p]`` on it; pieces sum over the last axis.
    """
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    return (
        ordered_sum(d0),
        ordered_sum(alpha * d1 + beta * d0),
        ordered_sum(alpha * alpha * d2 + 2.0 * alpha * beta * d1 + beta * beta * d0),
    )


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right.

    Unlike NumPy's pairwise ``sum``, the result does not depend on how
    many empty (zero) pieces pad a row, so a group's answer has the same
    bits in any batch whatever the other groups' piece counts.
    """
    return np.cumsum(x, axis=-1)[..., -1]
