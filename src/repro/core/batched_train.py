"""Batched training: build every group's model in shared vectorised passes.

The row-wise way to train a GROUP BY set fits one KDE and one regressor
per group through many small numpy calls.  This module fits all groups
at once instead, and it is the only trainer: a scalar
:class:`~repro.core.model.ColumnSetModel` is trained as a set of one
group (paper §2.3 treats each group value as a separate data set).

* **Partition once** — a single stable ``np.argsort`` over the group
  column plus ``np.searchsorted`` boundaries yields every group's rows as
  a contiguous slice (:class:`GroupPartition`).  The trainer and the
  ``RawGroup`` collection share it, so no path re-masks the table per
  group.
* **All KDEs in one pass** — per-group Scott/Silverman bandwidths come
  from segmented moment reductions (``np.add.reduceat`` sums, vectorised
  quantiles over a within-group sort); the binned fast path histograms
  every large group at once with a single 2-D ``np.bincount`` over
  (group, bin) codes that replicates ``np.histogram``'s uniform-bin index
  arithmetic bit for bit.
* **All OLS / piecewise-linear fits in one solve** — stacked normal
  equations: batched Gram matrices (``np.einsum`` over equal-sized
  groups, blocked outer-product reductions otherwise) solved with one
  ``np.linalg.solve`` over a ``(G, k, k)`` stack plus two iterative
  refinement sweeps against the least-squares residual.  Groups with
  fewer rows than coefficients, or whose Gram matrix is ill-conditioned
  (ties, degenerate features), take the row-wise fit's own
  ``np.linalg.lstsq`` on their design slice, which keeps coefficients
  bit-identical exactly where stacked solves would drift.
* **Residual-variance state in bulk** — the law-of-total-variance bins of
  :meth:`ColumnSetModel._fit_residual_variance` are rebuilt with the same
  segmented quantiles and one global ``np.bincount``.
* **Multivariate predicates batch too** — product-kernel KDEs
  (:class:`~repro.ml.kde.MultivariateKDE`) get per-dimension bandwidths
  from the same segmented moment reductions and one vectorised
  d-dimensional binning pass: per-group bin codes from blocked
  edge comparisons (replicating ``np.histogramdd``'s
  searchsorted-with-right-edge-fold arithmetic bit for bit), flattened
  into a multi-index and counted with a single global ``np.bincount``.
  Multivariate OLS regressors join the stacked normal-equation solve with
  a ``d + 1``-wide design.
* **Nonlinear regressors** (tree / gboost / xgboost / ensemble) cannot be
  stacked into a linear solve; they grow through the level-synchronous
  forest kernel (:mod:`repro.core.batched_forest`), all groups' trees one
  depth level at a time.

Contract
========

:func:`train_batched_models` returns the per-group ``models`` dict of a
:class:`~repro.core.groupby.GroupByModelSet` — 1-D and multivariate
predicate sets alike — and ``ColumnSetModel.train``'s one model.  There
is no opt-out.  The row-wise fits are kept as the parity oracle in the
``reference`` module (``train_model`` per sample, ``train_groups`` per
set): models trained here match them to ~1e-12 in every parameter
(centres, weights and knots bit for bit; solver-touched coefficients to
1e-12 relative; forest node arrays bit for bit) and answer queries
identically to 1e-9.  Multivariate ``plr`` is refused, as the row-wise
spline fit refuses it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.batched import _chunk_by_budget, _csr_take_rows
from repro.core.config import DBEstConfig
from repro.core.batched_forest import fit_forest_regressors
from repro.core.model import ColumnSetModel
from repro.errors import InvalidParameterError, ModelTrainingError
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.kde import KernelDensityEstimator, MultivariateKDE
from repro.ml.linear import LinearRegressor, PiecewiseLinearRegressor
from repro.obs import get_registry


def _record_train_metrics(t0: float, n_rows: int, n_groups: int) -> None:
    """Push one training pass's volume and wall time (no-op when off)."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.histogram("repro_train_seconds").observe(perf_counter() - t0)
    registry.counter("repro_train_rows_total").inc(n_rows)
    registry.counter("repro_train_groups_total").inc(n_groups)

# Relative size of the iterative-refinement correction above which a
# group leaves the stacked normal-equation solve for a per-group lstsq.
# The first refinement step's magnitude is a direct estimate of the
# normal-equation error (~cond(Gram) * eps), so a large step marks an
# ill-conditioned group whose lstsq minimum-norm answer the stacked solve
# cannot reproduce; a small step certifies the refined solution is within
# ~1e-13 of lstsq.
_REFINE_LIMIT = 1e-9

# Element budget for blocked outer-product (Gram) and edge-comparison
# passes: bounds temporary matrices to a few MB.
_BLOCK_ELEMENTS = 1 << 22

_STACKED_REGRESSORS = ("linear", "plr")


class GroupPartition:
    """Sorted view of a group column: one argsort, O(1) per-group slices.

    ``order`` is a *stable* permutation sorting the rows by group value,
    so ``order[offsets[g]:offsets[g + 1]]`` lists group ``g``'s row
    indices in their original order — gathering with them reproduces the
    arrays a boolean mask would produce, without the per-group O(N) scan.
    """

    def __init__(
        self, order: np.ndarray, offsets: np.ndarray, values: np.ndarray
    ) -> None:
        self.order = order
        self.offsets = offsets
        self.values = values

    @classmethod
    def from_groups(
        cls, groups: np.ndarray, values: np.ndarray | None = None
    ) -> "GroupPartition":
        """Partition ``groups`` by the sorted distinct ``values``.

        ``values`` may be a superset of the values present (the sample
        partition is aligned to the full table's group values); absent
        groups get empty slices.  When omitted, the distinct values are
        derived from the sort's own change points — one O(N log N) pass
        total, where ``np.unique`` would sort the column a second time.
        """
        groups = np.asarray(groups)
        order = np.argsort(groups, kind="stable")
        sorted_groups = groups[order]
        if values is None:
            if sorted_groups.shape[0]:
                change = np.concatenate(
                    ([True], sorted_groups[1:] != sorted_groups[:-1])
                )
                values = sorted_groups[change]
                starts = np.flatnonzero(change)
            else:
                values = sorted_groups
                starts = np.zeros(0, dtype=np.int64)
        else:
            values = np.asarray(values)
            if values.shape[0] > 1 and not np.all(values[1:] > values[:-1]):
                # searchsorted silently returns garbage starts for an
                # unsorted (or duplicated) superset, mis-sizing every
                # slice after the first inversion.
                values = np.unique(values)
            starts = np.searchsorted(sorted_groups, values, side="left")
        offsets = np.concatenate(
            (starts, [groups.shape[0]])
        ).astype(np.int64)
        return cls(order=order, offsets=offsets, values=values)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def rows(self, g: int) -> np.ndarray:
        """Original row indices of group ``g``, in original order."""
        return self.order[self.offsets[g]:self.offsets[g + 1]]

    def merge(
        self, new_groups: np.ndarray, base: int | None = None
    ) -> "tuple[GroupPartition, np.ndarray]":
        """Merge appended rows into the partition without re-sorting all N.

        ``new_groups`` are the group values of rows appended after the
        partitioned array; their row indices are ``base + arange(m)``
        (``base`` defaults to the current row count).  Only the delta is
        argsorted — the existing ``order`` is interleaved into the merged
        permutation with two vectorised scatters, so the cost is
        O(m log m + N copy) instead of O((N + m) log (N + m)).

        Returns ``(merged, dirty)`` where ``dirty`` holds the indices
        (into ``merged.values``) of groups that received rows.  The
        merged partition is bit-identical to ``from_groups`` on the
        concatenated group column: stable sort keeps old rows before new
        rows within a group, and both were internally ordered already.
        """
        new_groups = np.asarray(new_groups)
        m = new_groups.shape[0]
        n_old = self.order.shape[0]
        if base is None:
            base = n_old
        if m == 0:
            return (
                GroupPartition(
                    order=self.order, offsets=self.offsets, values=self.values
                ),
                np.zeros(0, dtype=np.int64),
            )
        new_local = np.argsort(new_groups, kind="stable")
        sorted_new = new_groups[new_local]
        values = np.union1d(self.values, sorted_new)
        counts_old = np.zeros(values.shape[0], dtype=np.int64)
        old_pos = np.searchsorted(values, self.values)
        counts_old[old_pos] = self.counts
        new_starts = np.searchsorted(sorted_new, values, side="left")
        counts_new = np.diff(np.concatenate((new_starts, [m])))
        offsets = np.zeros(values.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts_old + counts_new, out=offsets[1:])
        order = np.empty(n_old + m, dtype=self.order.dtype)
        if n_old:
            # Old row i of group g lands at the group's merged start plus
            # its rank within the group (old rows precede new ones).
            within_old = np.arange(n_old) - np.repeat(
                self.offsets[:-1], self.counts
            )
            dest_old = (
                np.repeat(offsets[:-1][old_pos], self.counts) + within_old
            )
            order[dest_old] = self.order
        within_new = np.arange(m) - np.repeat(new_starts, counts_new)
        dest_new = (
            np.repeat(offsets[:-1] + counts_old, counts_new) + within_new
        )
        order[dest_new] = new_local + base
        dirty = np.flatnonzero(counts_new > 0)
        return GroupPartition(order=order, offsets=offsets, values=values), dirty


def segmented_quantiles(
    sorted_flat: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    qs: np.ndarray,
) -> np.ndarray:
    """``np.quantile(x_g, qs)`` for many groups in one pass, bit-exact.

    ``sorted_flat`` holds each group's values ascending, group ``g``
    occupying ``sorted_flat[starts[g]:starts[g] + counts[g]]``.  The
    virtual index, gamma and two-branch lerp replicate numpy's ``linear``
    interpolation operation for operation, so results match per-group
    ``np.quantile`` calls bitwise — which keeps downstream ``np.unique``
    knot deduplication in agreement with the row-wise fit even when
    quantiles tie.
    """
    qs = np.asarray(qs, dtype=np.float64)
    virtual = (counts.astype(np.float64) - 1.0)[:, None] * qs[None, :]
    prev = np.floor(virtual)
    gamma = virtual - prev
    prev_idx = prev.astype(np.int64)
    next_idx = np.minimum(prev_idx + 1, (counts - 1)[:, None])
    base = starts[:, None]
    a = sorted_flat[base + prev_idx]
    b = sorted_flat[base + next_idx]
    diff = b - a
    out = a + diff * gamma
    np.copyto(out, b - diff * (1.0 - gamma), where=gamma >= 0.5)
    return out


def _dedup_sorted_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row keep mask and kept counts for row-wise sorted matrices.

    Equivalent to ``np.unique`` per row (quantile vectors are already
    non-decreasing, so deduplication is consecutive).
    """
    keep = np.ones(matrix.shape, dtype=bool)
    keep[:, 1:] = matrix[:, 1:] != matrix[:, :-1]
    return keep, keep.sum(axis=1)


# -- density fitting ---------------------------------------------------------


def _fit_densities(
    xs: np.ndarray,
    offsets: np.ndarray,
    xs_sorted: np.ndarray | None,
    config: DBEstConfig,
    template: KernelDensityEstimator,
) -> dict:
    """Fit every modelled group's 1-D KDE in shared vectorised passes.

    Returns per-group arrays (``h``, support, point-mass flags) plus the
    ragged centre/weight arrays, all replicating
    :meth:`KernelDensityEstimator.fit` on each group's slice.
    """
    counts = np.diff(offsets)
    starts = offsets[:-1]
    m = counts.shape[0]
    if not np.all(np.isfinite(xs)):
        raise ModelTrainingError("KDE training data contains non-finite values")
    lo = np.minimum.reduceat(xs, starts)
    hi = np.maximum.reduceat(xs, starts)
    nf = counts.astype(np.float64)

    # Bandwidths: Scott / Silverman via segmented moments, or a shared
    # fixed float.  The degenerate-spread fallback mirrors the row-wise
    # rules (max(|x[0]|, 1) * 1e-3).
    if isinstance(config.kde_bandwidth, str):
        mean = np.add.reduceat(xs, starts) / nf
        dev2 = xs - np.repeat(mean, counts)
        dev2 *= dev2
        sigma = np.sqrt(np.add.reduceat(dev2, starts) / nf)
        first_abs = np.maximum(np.abs(xs[starts]), 1.0) * 1e-3
        if config.kde_bandwidth == "scott":
            spread = np.where(sigma == 0.0, first_abs, sigma)
            h = spread * nf ** (-1.0 / 5.0)
        else:  # silverman
            quant = segmented_quantiles(
                xs_sorted, starts, counts, np.asarray([0.75, 0.25])
            )
            iqr = quant[:, 0] - quant[:, 1]
            spread = np.where(iqr > 0, np.minimum(sigma, iqr / 1.349), sigma)
            spread = np.where(spread == 0.0, first_abs, spread)
            h = 0.9 * spread * nf ** (-1.0 / 5.0)
    else:
        h = np.full(m, float(config.kde_bandwidth))

    # Binned compression for large groups: one 2-D bincount over
    # (group, bin) codes, replicating np.histogram's uniform-bin index
    # arithmetic (including the edge-rounding corrections) bit for bit.
    centres_2d = weights_2d = None
    binned_sel = np.empty(0, dtype=np.int64)
    binned_pos = np.full(m, -1, dtype=np.int64)
    if config.kde_binned:
        binned_sel = np.flatnonzero(counts > template.bin_threshold)
    if binned_sel.size:
        bin_t0 = perf_counter()
        binned_pos[binned_sel] = np.arange(binned_sel.size)
        n_bins = config.kde_bins
        first = lo[binned_sel].copy()
        last = hi[binned_sel].copy()
        flat_range = first == last
        first[flat_range] -= 0.5
        last[flat_range] += 0.5
        step = (last - first) / n_bins
        edges = np.arange(n_bins + 1)[None, :] * step[:, None] + first[:, None]
        edges[:, -1] = last
        rows = _csr_take_rows(offsets, binned_sel)
        xb = xs[rows]
        local_g = np.repeat(np.arange(binned_sel.size), counts[binned_sel])
        f_idx = ((xb - first[local_g]) / (last - first)[local_g]) * n_bins
        idx = f_idx.astype(np.intp)
        idx[idx == n_bins] -= 1
        idx[xb < edges[local_g, idx]] -= 1
        increment = (xb >= edges[local_g, idx + 1]) & (idx != n_bins - 1)
        idx[increment] += 1
        bin_counts = np.bincount(
            local_g * n_bins + idx, minlength=binned_sel.size * n_bins
        ).reshape(binned_sel.size, n_bins)
        centres_2d = 0.5 * (edges[:, :-1] + edges[:, 1:])
        weights_2d = bin_counts.astype(np.float64) / nf[binned_sel][:, None]
        keep_2d = bin_counts > 0
        registry = get_registry()
        if registry.enabled:
            registry.histogram("repro_train_bincount_seconds").observe(
                perf_counter() - bin_t0
            )
            registry.counter("repro_train_binned_rows_total").inc(
                int(counts[binned_sel].sum())
            )

    # Degenerate (constant) columns become point masses; everyone else
    # reflects kernels at the observed domain, exactly as KDE.fit does.
    span = hi - lo
    degenerate = span <= 1e-12 * np.maximum(
        1.0, np.maximum(np.abs(lo), np.abs(hi))
    )
    reflect = ~degenerate
    pad = 4.0 * h
    sup_lo = np.where(reflect, lo, lo - pad)
    sup_hi = np.where(reflect, hi, hi + pad)

    # Uniform per-point weights for all unbinned groups in one pass.
    flat_weights = np.repeat(1.0 / nf, counts)
    centres_list: list[np.ndarray] = []
    weights_list: list[np.ndarray] = []
    for g in range(m):
        b = binned_pos[g]
        if b >= 0:
            keep = keep_2d[b]
            centres_list.append(centres_2d[b][keep])
            weights_list.append(weights_2d[b][keep])
        else:
            # Ascending, as KDE.fit stores them.
            seg = slice(starts[g], starts[g] + counts[g])
            centres_list.append(
                np.sort(xs[seg]) if xs_sorted is None else xs_sorted[seg].copy()
            )
            weights_list.append(flat_weights[seg].copy())
    return {
        "centres": centres_list,
        "weights": weights_list,
        "h": h,
        "lo": lo,
        "hi": hi,
        "sup_lo": sup_lo,
        "sup_hi": sup_hi,
        "reflect": reflect,
        "degenerate": degenerate,
    }


def _fit_multivariate_densities(
    xmat: np.ndarray,
    offsets: np.ndarray,
    config: DBEstConfig,
    template: MultivariateKDE,
) -> dict:
    """Fit every modelled group's product-kernel KDE in shared passes.

    Replicates :meth:`MultivariateKDE.fit` on each group's ``(n_g, d)``
    slice: per-dimension Scott/Silverman bandwidths from segmented moment
    reductions, and — for groups above the binning threshold — the
    ``np.histogramdd`` compression via one vectorised binning pass whose
    edge arithmetic (``np.linspace`` edges, searchsorted-right bin codes
    with the right-edge fold) matches numpy's bit for bit.  Returns the
    ragged per-group centre/weight arrays plus the ``(G, d)`` bandwidth
    and domain arrays.
    """
    counts = np.diff(offsets)
    starts = offsets[:-1]
    m = counts.shape[0]
    d = xmat.shape[1]
    nf = counts.astype(np.float64)
    lo = np.minimum.reduceat(xmat, starts, axis=0)
    hi = np.maximum.reduceat(xmat, starts, axis=0)

    # Per-dimension bandwidths; constant dimensions are detected from
    # the range (min == max, bit-robust where sigma == 0.0 depends on
    # summation order) and take the rules' degenerate-spread fallback
    # (max(|x[0]|, 1) * 1e-3), exactly as MultivariateKDE.fit does; the
    # fit's 1e-12 floor is applied at the end.
    degenerate = lo == hi
    mean = np.add.reduceat(xmat, starts, axis=0) / nf[:, None]
    dev2 = xmat - np.repeat(mean, counts, axis=0)
    dev2 *= dev2
    sigma = np.sqrt(np.add.reduceat(dev2, starts, axis=0) / nf[:, None])
    first_abs = np.maximum(np.abs(xmat[starts, :]), 1.0) * 1e-3
    if config.kde_bandwidth == "scott":
        spread = np.where(degenerate | (sigma == 0.0), first_abs, sigma)
        h = spread * nf[:, None] ** (-1.0 / 5.0)
    else:  # silverman
        group_ids = np.repeat(np.arange(m), counts)
        spread = np.empty((m, d))
        for j in range(d):
            xsj = xmat[:, j]
            xsj_sorted = xsj[np.lexsort((xsj, group_ids))]
            quant = segmented_quantiles(
                xsj_sorted, starts, counts, np.asarray([0.75, 0.25])
            )
            iqr = quant[:, 0] - quant[:, 1]
            sj = np.where(
                iqr > 0, np.minimum(sigma[:, j], iqr / 1.349), sigma[:, j]
            )
            spread[:, j] = np.where(
                degenerate[:, j] | (sj == 0.0), first_abs[:, j], sj
            )
        h = 0.9 * spread * nf[:, None] ** (-1.0 / 5.0)
    h = np.maximum(h, 1e-12)

    # Binned compression: np.histogramdd per group becomes bincounts over
    # (group, flattened d-dimensional bin) codes, with groups chunked so
    # the dense cell array stays inside the element budget (bins**d grows
    # fast with d; one group per bincount is the row-wise fit's footprint).
    binned_centres: dict[int, np.ndarray] = {}
    binned_weights: dict[int, np.ndarray] = {}
    binned_sel = np.empty(0, dtype=np.int64)
    if config.kde_binned:
        binned_sel = np.flatnonzero(counts > template.bin_threshold)
    if binned_sel.size:
        n_bins = template.bins_per_dim
        first = lo[binned_sel].copy()
        last = hi[binned_sel].copy()
        flat_range = first == last
        first[flat_range] -= 0.5
        last[flat_range] += 0.5
        edges = np.linspace(first, last, n_bins + 1, axis=-1)  # (B, d, bins+1)
        rows = _csr_take_rows(offsets, binned_sel)
        xb = xmat[rows]
        local_g = np.repeat(np.arange(binned_sel.size), counts[binned_sel])
        row_offsets = np.concatenate(
            ([0], np.cumsum(counts[binned_sel]))
        ).astype(np.int64)
        # histogramdd bin codes: one searchsorted per (group, dim) on the
        # group's own edges — the very operation np.histogramdd performs,
        # hence bit-exact — with values on the rightmost edge folded into
        # the last bin.  Binned groups are few and large, so the per-group
        # loop costs nothing next to the searches themselves.
        flat = np.zeros(xb.shape[0], dtype=np.int64)
        for j in range(d):
            cnt = np.empty(xb.shape[0], dtype=np.int64)
            for b in range(binned_sel.size):
                r0, r1 = row_offsets[b], row_offsets[b + 1]
                cnt[r0:r1] = np.searchsorted(
                    edges[b, j], xb[r0:r1, j], side="right"
                )
            flat = flat * n_bins + np.clip(cnt - 1, 0, n_bins - 1)
        n_cells = n_bins ** d
        centres_axes = 0.5 * (edges[:, :, :-1] + edges[:, :, 1:])
        digit_strides = [n_bins ** (d - 1 - j) for j in range(d)]
        per_chunk = max(1, int(_BLOCK_ELEMENTS // n_cells))
        for b0 in range(0, binned_sel.size, per_chunk):
            b1 = min(b0 + per_chunk, binned_sel.size)
            r0, r1 = row_offsets[b0], row_offsets[b1]
            chunk_counts = np.bincount(
                (local_g[r0:r1] - b0) * n_cells + flat[r0:r1],
                minlength=(b1 - b0) * n_cells,
            ).reshape(b1 - b0, n_cells)
            for b in range(b0, b1):
                g = int(binned_sel[b])
                cell_counts = chunk_counts[b - b0]
                kept = np.flatnonzero(cell_counts)
                # C-order flat index -> per-dimension digit, exactly the
                # meshgrid-ravel layout MultivariateKDE.fit keeps.
                binned_centres[g] = np.stack(
                    [
                        centres_axes[b, j, (kept // digit_strides[j]) % n_bins]
                        for j in range(d)
                    ],
                    axis=1,
                )
                binned_weights[g] = (
                    cell_counts[kept].astype(np.float64) / nf[g]
                )

    flat_weights = np.repeat(1.0 / nf, counts)
    centres_list: list[np.ndarray] = []
    weights_list: list[np.ndarray] = []
    for g in range(m):
        if g in binned_centres:
            centres_list.append(binned_centres[g])
            weights_list.append(binned_weights[g])
        else:
            seg = slice(starts[g], starts[g] + counts[g])
            centres_list.append(xmat[seg].copy())
            weights_list.append(flat_weights[seg].copy())
    return {
        "centres": centres_list,
        "weights": weights_list,
        "h": h,
        "lo": lo,
        "hi": hi,
    }


# -- stacked linear-algebra regressors ---------------------------------------


def _batched_gram(
    design: np.ndarray, y: np.ndarray, local_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group Gram matrices and right-hand sides from a flat design.

    Equal-sized groups reshape into a ``(G, n, k)`` stack and go through
    one ``np.einsum``; ragged groups take blocked outer products reduced
    with ``np.add.reduceat`` under a fixed element budget.
    """
    counts = np.diff(local_offsets)
    k = design.shape[1]
    if counts.size and np.all(counts == counts[0]):
        stacked = design.reshape(counts.size, counts[0], k)
        gram = np.einsum("gni,gnj->gij", stacked, stacked)
        rhs = np.einsum("gni,gn->gi", stacked, y.reshape(counts.size, counts[0]))
        return gram, rhs
    gram = np.empty((counts.size, k, k))
    rhs = np.add.reduceat(design * y[:, None], local_offsets[:-1], axis=0)
    chunk_starts = _chunk_by_budget(counts * (k * k), _BLOCK_ELEMENTS)
    for g0, g1 in zip(chunk_starts[:-1], chunk_starts[1:]):
        r0, r1 = local_offsets[g0], local_offsets[g1]
        block = design[r0:r1]
        products = block[:, :, None] * block[:, None, :]
        gram[g0:g1] = np.add.reduceat(
            products, local_offsets[g0:g1] - r0, axis=0
        )
    return gram, rhs


def _solve_stacked(
    design: np.ndarray,
    y: np.ndarray,
    local_offsets: np.ndarray,
) -> np.ndarray:
    """Least-squares coefficients for every group sharing one design width.

    Well-conditioned groups: one stacked ``np.linalg.solve`` of the
    normal equations plus two iterative-refinement sweeps against the
    least-squares residual (empirically within ~1e-13 of lstsq).  Groups
    with fewer rows than coefficients (always rank-deficient: the
    refinement can settle on a solution that is not lstsq's minimum-norm
    one), and groups whose refinement step is large or non-finite —
    ill-conditioned designs — take per-group ``np.linalg.lstsq`` on the
    same design rows, bit-identical to the row-wise fit.
    """
    counts = np.diff(local_offsets)
    nb = counts.size
    k = design.shape[1]
    gram, rhs = _batched_gram(design, y, local_offsets)
    solvable = counts >= k
    try:
        refined = np.linalg.solve(gram[solvable], rhs[solvable][..., None])
    except np.linalg.LinAlgError:
        # Some group is exactly singular (LU hit a zero pivot): identify
        # the positive-definite subset and solve only it.  Rare path.
        solvable &= np.linalg.eigvalsh(gram)[:, 0] > 0
        refined = np.linalg.solve(gram[solvable], rhs[solvable][..., None])
    refined = refined[..., 0]

    coef = np.empty((nb, k))
    good = np.zeros(nb, dtype=bool)
    if solvable.any():
        si = np.flatnonzero(solvable)
        local_group = np.repeat(np.arange(nb), counts)
        if solvable.all():
            design_s, y_s = design, y
            offsets_s = local_offsets
            row_map = local_group
        else:
            rows_mask = solvable[local_group]
            design_s = design[rows_mask]
            y_s = y[rows_mask]
            offsets_s = np.concatenate(([0], np.cumsum(counts[si])))
            inverse = np.empty(nb, dtype=np.int64)
            inverse[si] = np.arange(si.size)
            row_map = inverse[local_group[rows_mask]]
        # Two refinement sweeps: the first recovers most of the
        # normal-equation error, the second polishes well-conditioned
        # groups to ~1e-13 of lstsq; the final step size certifies it.
        step = np.zeros(si.size)
        for _ in range(2):
            residual = y_s - np.einsum("nk,nk->n", design_s, refined[row_map])
            correction = np.add.reduceat(
                design_s * residual[:, None], offsets_s[:-1], axis=0
            )
            delta = np.linalg.solve(gram[si], correction[..., None])[..., 0]
            refined = refined + delta
            with np.errstate(invalid="ignore"):
                step = np.abs(delta).max(axis=1) / np.maximum(
                    np.abs(refined).max(axis=1), 1.0
                )
        accepted = np.isfinite(refined).all(axis=1) & np.isfinite(step)
        accepted &= step <= _REFINE_LIMIT
        good[si[accepted]] = True
        coef[si[accepted]] = refined[accepted]
    for g in np.flatnonzero(~good).tolist():
        seg = slice(local_offsets[g], local_offsets[g + 1])
        coef[g], *_ = np.linalg.lstsq(design[seg], y[seg], rcond=None)
    return coef


def _fit_stacked_regressors(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    xs_sorted: np.ndarray,
    kind: str,
    n_knots: int,
) -> tuple[list[np.ndarray], list[np.ndarray] | None, np.ndarray]:
    """Fit all groups' OLS / piecewise-linear regressors in stacked solves.

    Returns per-group coefficient arrays, per-group knot arrays (PLR
    only), and the flat in-sample predictions the residual-variance pass
    reuses.  Groups are bucketed by design width ``k`` (quantile-knot
    collisions shrink some groups' bases), each bucket solved as one
    ``(G_k, k, k)`` stack.
    """
    counts = np.diff(offsets)
    starts = offsets[:-1]
    m = counts.shape[0]
    if kind == "plr":
        qs = np.linspace(0.0, 1.0, n_knots + 2)[1:-1]
        quantile_knots = segmented_quantiles(xs_sorted, starts, counts, qs)
        keep, kept_counts = _dedup_sorted_rows(quantile_knots)
        widths = kept_counts + 2
    else:
        widths = np.full(m, 2, dtype=np.int64)

    coefs: list[np.ndarray] = [None] * m  # type: ignore[list-item]
    knots_out: list[np.ndarray] | None = [None] * m if kind == "plr" else None
    pred = np.empty_like(xs)
    for k in np.unique(widths).tolist():
        sel = np.flatnonzero(widths == k)
        rows = _csr_take_rows(offsets, sel)
        xk = xs[rows]
        yk = ys[rows]
        ck = counts[sel]
        local_offsets = np.concatenate(([0], np.cumsum(ck)))
        design = np.empty((xk.shape[0], k))
        design[:, 0] = 1.0
        design[:, 1] = xk
        if kind == "plr":
            kept = quantile_knots[sel][keep[sel]].reshape(sel.size, k - 2)
            knot_rows = np.repeat(kept, ck, axis=0)
            np.maximum(0.0, xk[:, None] - knot_rows, out=design[:, 2:])
        coef = _solve_stacked(design, yk, local_offsets)
        coef_rows = coef[np.repeat(np.arange(sel.size), ck)]
        pred[rows] = np.einsum("nk,nk->n", design, coef_rows)
        for i, g in enumerate(sel.tolist()):
            coefs[g] = coef[i]
            if knots_out is not None:
                knots_out[g] = kept[i]
    return coefs, knots_out, pred


# -- residual-variance state -------------------------------------------------


def _fit_residual_states(
    xs: np.ndarray,
    offsets: np.ndarray,
    xs_sorted: np.ndarray,
    residual_sq: np.ndarray,
) -> tuple[list, list, np.ndarray]:
    """Var(y|x) bins for every group, batched.

    Replicates :meth:`ColumnSetModel._fit_residual_variance`: quantile
    bin edges (deduplicated), per-bin residual second moments via one
    global ``np.bincount``, global fallback for empty bins.
    """
    counts = np.diff(offsets)
    starts = offsets[:-1]
    m = counts.shape[0]
    global_var = np.add.reduceat(residual_sq, starts) / counts
    bin_counts = np.maximum(4, np.minimum(64, counts // 50))
    edges_out: list = [None] * m
    var_out: list = [None] * m
    for n_bins in np.unique(bin_counts).tolist():
        sel = np.flatnonzero(bin_counts == n_bins)
        qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        quant = segmented_quantiles(xs_sorted, starts[sel], counts[sel], qs)
        keep, kept_counts = _dedup_sorted_rows(quant)
        for n_edges in np.unique(kept_counts).tolist():
            inner = kept_counts == n_edges
            ssel = sel[inner]
            edges = quant[inner][keep[inner]].reshape(ssel.size, n_edges)
            rows = _csr_take_rows(offsets, ssel)
            xr = xs[rows]
            rr = residual_sq[rows]
            local_g = np.repeat(np.arange(ssel.size), counts[ssel])
            # The row-wise pass's searchsorted(edges_g, x, side="left"),
            # one call per group: gathering every row's edge vector costs
            # rows x n_edges (up to 63) floats of memory and comparisons.
            row_off = np.concatenate(([0], np.cumsum(counts[ssel])))
            codes = np.concatenate([
                np.searchsorted(edges[i], xr[row_off[i]:row_off[i + 1]])
                for i in range(ssel.size)
            ])
            flat_codes = local_g * (n_edges + 1) + codes
            length = ssel.size * (n_edges + 1)
            counts_bins = np.bincount(flat_codes, minlength=length)
            sums_bins = np.bincount(flat_codes, weights=rr, minlength=length)
            counts_bins = counts_bins.reshape(ssel.size, n_edges + 1)
            sums_bins = sums_bins.reshape(ssel.size, n_edges + 1)
            with np.errstate(invalid="ignore"):
                per_bin = np.where(
                    counts_bins > 0,
                    sums_bins / np.maximum(counts_bins, 1),
                    global_var[ssel][:, None],
                )
            for i, g in enumerate(ssel.tolist()):
                edges_out[g] = edges[i]
                var_out[g] = per_bin[i]
    return edges_out, var_out, global_var


# -- orchestration -----------------------------------------------------------


def _train_batched_models_nd(
    sample_x: np.ndarray,
    sample_y: np.ndarray | None,
    sample_part: GroupPartition,
    modelled_mask: np.ndarray,
    table_name: str,
    x_columns: tuple[str, ...],
    y_column: str | None,
    population: dict,
    config: DBEstConfig,
) -> dict:
    """Multivariate leg of :func:`train_batched_models`.

    Densities are product-kernel KDEs built from the shared vectorised
    passes of :func:`_fit_multivariate_densities`; OLS regressors join a
    ``d + 1``-wide stacked normal-equation solve; tree / boosted /
    ensemble regressors grow through the forest kernel.  Piecewise-linear
    splines are 1-D only.
    """
    d = sample_x.shape[1]
    modelled = np.flatnonzero(modelled_mask)
    if modelled.size == 0:
        # All-raw sets never construct a density or a regressor, so
        # neither check below applies to them.
        return {}
    if not isinstance(config.kde_bandwidth, str):
        raise InvalidParameterError(
            f"multivariate predicates need a bandwidth rule name, "
            f"got the fixed bandwidth {config.kde_bandwidth!r}; "
            f"the product-kernel KDE has one bandwidth per dimension"
        )
    fit_regressors = sample_y is not None and y_column is not None
    if fit_regressors and config.regressor == "plr":
        raise ModelTrainingError(
            "PiecewiseLinearRegressor supports 1-D features only"
        )
    # Validates the KDE configuration once and supplies the defaults the
    # trainer mirrors, exactly as the 1-D leg does.
    template = MultivariateKDE(
        bandwidth=config.kde_bandwidth,
        binned=config.kde_binned,
        bins_per_dim=config.kde_bins_per_dim,
        bin_threshold=config.kde_bin_threshold,
    )

    source_rows = sample_part.order[
        _csr_take_rows(sample_part.offsets, modelled)
    ]
    xmat = sample_x[source_rows, :]
    offsets = np.concatenate(
        ([0], np.cumsum(sample_part.counts[modelled]))
    ).astype(np.int64)
    counts = np.diff(offsets)

    density_state = _fit_multivariate_densities(xmat, offsets, config, template)

    ys = None
    regressors: list = [None] * modelled.size
    residual_global = np.zeros(modelled.size)
    if fit_regressors:
        ys = np.asarray(sample_y, dtype=np.float64).ravel()[source_rows]
        if config.regressor == "linear":
            design = np.empty((xmat.shape[0], d + 1))
            design[:, 0] = 1.0
            design[:, 1:] = xmat
            coefs = _solve_stacked(design, ys, offsets)
            regressors = [
                LinearRegressor.from_coef(coefs[g])
                for g in range(modelled.size)
            ]
            coef_rows = coefs[np.repeat(np.arange(modelled.size), counts)]
            residual_sq = ys - np.einsum("nk,nk->n", design, coef_rows)
            residual_sq *= residual_sq
            residual_global = np.add.reduceat(residual_sq, offsets[:-1]) / counts
        else:
            regressors, forest_pred = fit_forest_regressors(
                xmat, ys, offsets, config
            )
            if forest_pred is not None:
                # Multivariate models keep only the global residual
                # scalar; the kernel's in-sample predictions are
                # bit-identical to regressor.predict on each slice.
                residual_sq = ys - forest_pred
                residual_sq *= residual_sq
                for i in range(modelled.size):
                    residual_global[i] = float(
                        np.mean(residual_sq[offsets[i]:offsets[i + 1]])
                    )

    models: dict = {}
    values = (
        sample_part.values.tolist()
        if hasattr(sample_part.values, "tolist")
        else list(sample_part.values)
    )
    for i, g in enumerate(modelled.tolist()):
        value = values[g]
        density = MultivariateKDE.from_fit_state(
            centres=density_state["centres"][i],
            weights=density_state["weights"][i],
            h=density_state["h"][i],
            domain_low=density_state["lo"][i],
            domain_high=density_state["hi"][i],
            n_train=int(counts[i]),
            bandwidth=config.kde_bandwidth,
            binned=config.kde_binned,
            bins_per_dim=config.kde_bins_per_dim,
            bin_threshold=template.bin_threshold,
        )
        model = ColumnSetModel.from_fitted_parts(
            table_name=table_name,
            x_columns=tuple(x_columns),
            y_column=y_column,
            population_size=population[value],
            density=density,
            regressor=regressors[i],
            x_domain=[
                (float(density_state["lo"][i][j]),
                 float(density_state["hi"][i][j]))
                for j in range(d)
            ],
            n_sample=int(counts[i]),
            config=config,
            residual_var_global=float(residual_global[i]),
        )
        if isinstance(regressors[i], EnsembleRegressor):
            # Ensembles predict through a selected constituent, so there
            # is no in-sample prediction to reuse: the model's own
            # residual pass on the same rows (global scalar only —
            # multivariate models keep no residual bins).
            seg = slice(offsets[i], offsets[i + 1])
            model._fit_residual_variance(xmat[seg], ys[seg])
        models[value] = model
    return models


def train_batched_models(
    sample_x: np.ndarray,
    sample_y: np.ndarray | None,
    sample_part: GroupPartition,
    modelled_mask: np.ndarray,
    table_name: str,
    x_columns: tuple[str, ...],
    y_column: str | None,
    population: dict,
    config: DBEstConfig,
    group_mask: np.ndarray | None = None,
) -> dict:
    """Build the ``models`` dict of a GroupByModelSet in batched passes.

    Handles 1-D and multivariate predicate sets alike (the latter
    through :func:`_train_batched_models_nd`).  ``sample_x`` must already
    be a float64 ``(n, d)`` matrix and ``sample_part`` the sample's
    :class:`GroupPartition` aligned to the full table's group values;
    ``modelled_mask`` flags the groups whose sample is large enough to
    model (the rest stay raw).  ``group_mask`` further restricts the fit
    to a subset of groups (the streaming-refresh dirty set): only the
    masked groups' models are built and returned, from exactly the same
    vectorised passes — a full train is the ``group_mask=None``
    (everything dirty) case.
    """
    t0 = perf_counter()
    if group_mask is not None:
        modelled_mask = np.logical_and(modelled_mask, group_mask)
    if sample_x.shape[1] != 1:
        models = _train_batched_models_nd(
            sample_x, sample_y, sample_part, modelled_mask,
            table_name, x_columns, y_column, population, config,
        )
        _record_train_metrics(
            t0,
            int(sample_part.counts[modelled_mask].sum()),
            len(models),
        )
        return models
    modelled = np.flatnonzero(modelled_mask)
    if modelled.size == 0:
        return {}
    # Validates the KDE configuration once and supplies the class
    # defaults the trainer mirrors.
    template = KernelDensityEstimator(
        bandwidth=config.kde_bandwidth,
        binned=config.kde_binned,
        n_bins=config.kde_bins,
        bin_threshold=config.kde_bin_threshold,
    )

    # One gather collects all modelled rows in group-major original order.
    source_rows = sample_part.order[
        _csr_take_rows(sample_part.offsets, modelled)
    ]
    xs = sample_x[:, 0][source_rows]
    offsets = np.concatenate(
        ([0], np.cumsum(sample_part.counts[modelled]))
    ).astype(np.int64)
    counts = np.diff(offsets)

    fit_regressors = sample_y is not None and y_column is not None
    stacked = fit_regressors and config.regressor in _STACKED_REGRESSORS
    needs_sorted = stacked or config.kde_bandwidth == "silverman"
    xs_sorted = None
    if needs_sorted:
        group_ids = np.repeat(np.arange(modelled.size), counts)
        xs_sorted = xs[np.lexsort((xs, group_ids))]

    density_state = _fit_densities(xs, offsets, xs_sorted, config, template)

    ys = None
    regressors: list = [None] * modelled.size
    residual_edges: list = [None] * modelled.size
    residual_var: list = [None] * modelled.size
    residual_global = np.zeros(modelled.size)
    if fit_regressors:
        ys = np.asarray(sample_y, dtype=np.float64).ravel()[source_rows]
        if stacked:
            n_knots = PiecewiseLinearRegressor().n_knots
            coefs, knots, pred = _fit_stacked_regressors(
                xs, ys, offsets, xs_sorted, config.regressor, n_knots
            )
            if config.regressor == "plr":
                regressors = [
                    PiecewiseLinearRegressor.from_state(
                        knots[g], coefs[g], n_knots=n_knots
                    )
                    for g in range(modelled.size)
                ]
            else:
                regressors = [
                    LinearRegressor.from_coef(coefs[g])
                    for g in range(modelled.size)
                ]
            residual_sq = ys - pred
            residual_sq *= residual_sq
            residual_edges, residual_var, residual_global = (
                _fit_residual_states(xs, offsets, xs_sorted, residual_sq)
            )
        else:
            regressors, forest_pred = fit_forest_regressors(
                xs[:, None], ys, offsets, config
            )
            if forest_pred is not None:
                # The kernel's in-sample predictions are bit-identical
                # to regressor.predict on each group slice, so the
                # stacked residual pass applies as-is.
                residual_sq = ys - forest_pred
                residual_sq *= residual_sq
                if xs_sorted is None:
                    group_ids = np.repeat(np.arange(modelled.size), counts)
                    xs_sorted = xs[np.lexsort((xs, group_ids))]
                residual_edges, residual_var, residual_global = (
                    _fit_residual_states(xs, offsets, xs_sorted, residual_sq)
                )

    models: dict = {}
    values = (
        sample_part.values.tolist()
        if hasattr(sample_part.values, "tolist")
        else list(sample_part.values)
    )
    for i, g in enumerate(modelled.tolist()):
        value = values[g]
        density = KernelDensityEstimator.from_fit_state(
            centres=density_state["centres"][i],
            weights=density_state["weights"][i],
            h=density_state["h"][i],
            support=(density_state["sup_lo"][i], density_state["sup_hi"][i]),
            reflect=bool(density_state["reflect"][i]),
            point_mass=(
                float(density_state["lo"][i])
                if density_state["degenerate"][i]
                else None
            ),
            n_train=int(counts[i]),
            bandwidth=config.kde_bandwidth,
            binned=config.kde_binned,
            n_bins=config.kde_bins,
            bin_threshold=template.bin_threshold,
        )
        model = ColumnSetModel.from_fitted_parts(
            table_name=table_name,
            x_columns=tuple(x_columns),
            y_column=y_column,
            population_size=population[value],
            density=density,
            regressor=regressors[i],
            x_domain=[
                (float(density_state["lo"][i]), float(density_state["hi"][i]))
            ],
            n_sample=int(counts[i]),
            config=config,
            residual_edges=residual_edges[i],
            residual_var=residual_var[i],
            residual_var_global=float(residual_global[i]),
        )
        if isinstance(regressors[i], EnsembleRegressor):
            # Ensembles predict through a selected constituent: the
            # model's own residual pass on the same rows.
            seg = slice(offsets[i], offsets[i + 1])
            model._fit_residual_variance(xs[seg][:, None], ys[seg])
        models[value] = model
    _record_train_metrics(t0, int(xs.size), int(modelled.size))
    return models


def export_group_state(model_set) -> tuple[dict, dict] | None:
    """Flattened evaluator state of a trained group-by set, or None.

    The train-side export hook for the zero-copy model store: builds (or
    reuses) the set's :class:`~repro.core.batched.BatchedGroupEvaluator`
    and returns its ``(meta, segments)`` pair with every segment made
    contiguous, ready to be written as memory-mappable buffers.  Returns
    None when the set cannot be stacked (mixed regressors, non-Simpson
    integration, ...) or when any stacked array holds Python objects —
    those sets stay on the pickle record format.
    """
    evaluator = model_set.batched_evaluator()
    if evaluator is None:
        return None
    meta, segments = evaluator.export_mapped_state()
    packed = {}
    for name, arr in segments.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.hasobject:
            return None
        packed[name] = arr
    return meta, packed
