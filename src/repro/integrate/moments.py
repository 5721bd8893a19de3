"""Closed-form moment integrals of a Gaussian mixture.

DBEst answers SUM / AVG / VARIANCE as ``∫R·D`` and ``∫R²·D`` over the
query range (paper §2.3, Eq. 6-9).  A 1-D KDE is a Gaussian mixture —
boundary reflection only adds mirrored centres — and every regressor the
engine builds is piecewise linear in x: ``linear`` and ``plr`` between
their knots, ``tree`` / ``gboost`` / ``xgboost`` constant between their
distinct split thresholds, an ``ensemble`` whichever its range selector
picks.  So those integrals need no quadrature: they are finite sums of
``ndtr`` and ``exp`` at the range ends and the breakpoints.  The same
holds for the identity integrand (``AVG(x)``, ``VARIANCE(x)``) and for
``E[Var(y|x)]``, whose integrand is constant between the
residual-variance bin edges.  Both :class:`~repro.core.model.ColumnSetModel`
and :class:`~repro.core.batched.BatchedGroupEvaluator` take that route
for 1-D ``integration_method="simpson"`` models; the moments at the
breakpoints are query-independent, so each is computed once.  Only
regressors that export no pieces, multivariate boxes and ``"quad"``
keep a quadrature (:mod:`repro.integrate.quadrature`).

Everything works in a mixture's *unit-bandwidth coordinate*
``u = (x - x0) / h`` with ``x0`` the support midpoint, so that kernel
``i`` is ``N(u; g_i, 1)`` and ``g_i²`` stays small.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Kernel terms (one per centre of a pair's group) evaluated per block:
# small enough that the block and its temporaries stay cache-resident.
_BLOCK = 1 << 15


def cumulative_moments(
    g: np.ndarray,
    w: np.ndarray,
    offsets: np.ndarray,
    group: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """``(M0, M1, M2)(t) = ∫_{-inf}^{t} (1, u, u²) · Σ_i w_i N(u; g_i, 1) du``.

    ``g`` / ``w`` hold every group's kernel centres and weights flat,
    group ``k`` owning rows ``offsets[k]:offsets[k + 1]`` (non-empty);
    the result has one ``(M0, M1, M2)`` row per ``(group[p], t[p])``
    pair.  With ``z_i = t - g_i``::

        M0 = Σ w_i Φ(z_i)
        M1 = Σ w_i [g_i Φ(z_i) - φ(z_i)]
        M2 = Σ w_i [(g_i² + 1) Φ(z_i) - (t + g_i) φ(z_i)]

    Each pair reduces over its own group's contiguous rows only, so a
    value is bit-identical whether it is computed alone, inside a larger
    batch, or on a slice of the stacked arrays — callers may memoise
    rows freely.
    """
    counts = (offsets[1:] - offsets[:-1])[group]
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = offsets[:-1][group] - starts
    n_pairs = group.shape[0]
    out = np.empty((n_pairs, 3))
    if n_pairs == 0:
        return out
    # Whole pairs are packed into cache-sized blocks of kernel terms.
    cuts = np.unique(np.concatenate((
        [0],
        np.searchsorted(ends, np.arange(_BLOCK, int(ends[-1]), _BLOCK), "right"),
        [n_pairs],
    )))
    for p0, p1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        first = starts[p0]
        block_counts = counts[p0:p1]
        rows = np.arange(first, ends[p1 - 1]) + np.repeat(
            shift[p0:p1], block_counts
        )
        segments = starts[p0:p1] - first
        gi = g[rows]
        wi = w[rows]
        tt = np.repeat(t[p0:p1], block_counts)
        z = tt - gi
        cdf = ndtr(z)
        np.square(z, out=z)
        z *= -0.5
        pdf = np.exp(z, out=z)
        pdf /= _SQRT_2PI
        out[p0:p1, 0] = np.add.reduceat(wi * cdf, segments)
        m1 = gi * cdf
        m1 -= pdf
        m1 *= wi
        out[p0:p1, 1] = np.add.reduceat(m1, segments)
        tt += gi
        tt *= pdf
        m2 = np.square(gi, out=gi)
        m2 += 1.0
        m2 *= cdf
        m2 -= tt
        m2 *= wi
        out[p0:p1, 2] = np.add.reduceat(m2, segments)
    return out


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
