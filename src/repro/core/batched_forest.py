"""Forest training across all groups at once.

Nonlinear regressors (tree, gboost, xgboost, ensemble) fitted row-wise
take one recursive fit per group.  This module grows **every group's
tree simultaneously**: a fixed number of whole-forest array passes per
depth level replaces per-group recursion, and the node arrays come out
in the scalar fits' layout and DFS order; the row-wise fits survive only
as the parity oracle (:mod:`repro.reference`).

Binning
-------

All groups' rows live in one flat group-major array (the trainer's
``GroupPartition`` layout, original within-group order).  Each feature
is discretised once per group with the segmented-quantile machinery from
:mod:`repro.core.batched_train` — bit-identical to the scalar
:class:`~repro.ml._histogram.BinnedFeatures` edges (consecutive dedup of
the per-group quantile vector, edges at the group maximum dropped) —
giving an ``(R, d)`` code matrix and a ``(G, d, W)`` edge tensor padded
with ``+inf``.

1-D: growth on the (group, bin) table
-------------------------------------

In one dimension every node is a contiguous range of its group's bins,
so split search runs on a per-(group, bin) table rather than on rows
(:func:`_grow_table`).  The table keeps only occupied bins: a split
after an empty bin cuts the rows where the split after the occupied
bin before it does, both score the same to the bit, and the scalar
argmax takes the lower bin.  Per fit the table holds each cell's
running row count; per tree one ``bincount`` of the labels gives each
cell's label sum (its rows added in row order, as the scalar histograms
add them) and one ``cumsum`` along each group's cells its running sum.
Each level then:

1. takes every node's row count from the running counts and its label
   sum from one ``bincount`` of the rows by node — the rows added in row
   order, as the scalar fitters' sequential sums add them — so value and
   stop test (``min_samples_split`` / ``2 * min_child_weight``) are the
   scalar fit's bits;
2. bounds each node's valid split cells with two ``searchsorted`` calls
   on the running counts (``min_samples_leaf`` / ``min_child_weight``
   rows on each side), and reads every candidate's left count and sum as
   a difference of two table entries;
3. scores CART variance reduction or the XGB regularised gain for every
   candidate and takes each node's first maximum with two segmented
   ``reduceat`` calls;
4. sets retiring nodes aside; after the last level the leaves, which
   partition every group's cells, map each row to its leaf value (the
   in-sample prediction) in one pass.

The split search costs O(candidate cells) whatever the row count; the
rows are read once per level, by the node-sum ``bincount``.  A
candidate's left sum is a difference of running sums where the scalar
fit restarts its cumsum at the node's first bin, so two splits whose
scores tie to within rounding could be ordered differently; the parity
suites hold the node arrays bit-identical to the scalar fits on every
fixture.

d >= 2: level-synchronous growth on rows
----------------------------------------

Nodes are not bin ranges, so :func:`_grow_forest` grows on rows, one
depth level at a time over *all* trees:

1. **Node statistics.**  Active rows are kept contiguous per node; one
   ``np.bincount`` over the node slot vector yields every node's label
   sum, every node's value, and the stop test, for all groups in one
   call.
2. **Histograms.**  For the splittable nodes a single flattened
   multi-index bincount builds the per-(node, feature, bin) count and
   label-sum tensor: ``flat = (slot * d + feature) * B + code``.  Nodes
   are chunked so the tensor stays inside a fixed element budget.
3. **Split search.**  Left/right statistics are prefix sums over the bin
   axis (one ``cumsum``); scores and gains are evaluated for every
   (node, feature, bin) at once, invalid bins (child-size bounds,
   per-group bin padding) masked to ``-inf``.
4. **Reassignment.**  Rows of splitting nodes route left/right by one
   gather of their split-feature code; a stable argsort on
   ``2 * node + side`` keeps children contiguous *and* preserves each
   row's original relative order, so the next level's bincounts
   accumulate in the same order the scalar recursion would.  Rows of
   retiring nodes write the node value into the flat in-sample
   prediction.

Node sums are accumulated with ``np.bincount`` — strictly sequential in
input order — and the scalar fitters were aligned to the same order (see
:func:`repro.ml._histogram.sequential_sum`), so whole fitted forests
match the scalar fits **bit for bit**.

Both kernels
------------

Boosting is the same kernel run ``n_estimators`` times with labels
rebound between rounds — residuals ``y - prediction`` for gboost,
gradients ``prediction - y`` for xgboost (unit hessians make the hessian
sums the row counts) — and the per-round in-sample prediction update
comes free from the leaf assignment, bitwise equal to ``predict`` on the
training rows because training-time code partition and post-fit
threshold traversal agree (``code <= s`` iff ``x <= edges[s]``).

Every reduction runs per group or per node, never across groups, so a
group's node arrays and predictions are the same bits whether it trains
alone, in the full set or in a refresh's dirty subset.

Tie-breaking follows the scalar fitters: per feature ``np.argmax`` over
bin scores (first maximum wins), then the first feature that *strictly*
improves the running best gain — initialised to ``1e-12`` for CART and
``0.0`` for XGB.  Child-size floors must be positive so no empty child
can be created.

Node numbering.  Levels create nodes breadth-first, but the scalar
recursion numbers them depth-first (each split allocates its two
children consecutively, splits execute in preorder).  The BFS arrays are
renumbered without any per-node loop: subtree sizes by one bottom-up
pass per level, preorder indices by one top-down pass per level, then
``newid(child) = 1 + 2 * preorder-rank-among-internal(parent) + side``
reproduces the scalar allocation order exactly, and one scatter writes
the per-group ``feature/threshold/left/right/value`` arrays in the
layout :meth:`repro.ml.tree._FlatTree.finalize` produces.  Both kernels
emit each level's nodes in the same order (group, then parent, then
side) and share this pass.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.config import DBEstConfig
from repro.errors import ModelTrainingError
from repro.ml.ensemble import EnsembleRegressor, default_constituents
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import PiecewiseLinearRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.xgb import XGBRegressor
from repro.obs import get_registry

# Element budget for the per-level histogram tensor and blocked
# comparisons; matches the batched trainer's chunking budget.
_BLOCK_ELEMENTS = 1 << 22

# Regressor families the level-synchronous kernel can train.
_FOREST_REGRESSORS = ("tree", "gboost", "xgboost", "ensemble")


class _GroupBins:
    """Per-group quantile binning of the flat feature matrix.

    ``codes``: ``(R, d)`` int32 bin codes on each row's own group edges.
    ``n_bins``: ``(G, d)`` bins per group and feature (edges + 1).
    ``edges``: ``(G, d, W)`` edge tensor, ``+inf`` beyond a group's real
    edges — ``edges[g, f, b]`` is the raw threshold of split bin ``b``.
    ``table``: the :class:`_BinTable` when ``d == 1``, else None.
    """

    __slots__ = ("codes", "n_bins", "edges", "table")

    def __init__(
        self, codes: np.ndarray, n_bins: np.ndarray, edges: np.ndarray
    ) -> None:
        self.codes = codes
        self.n_bins = n_bins
        self.edges = edges
        self.table: _BinTable | None = None


class _BinTable:
    """The 1-D fit's ``(group, bin)`` table, over occupied bins only.

    A split after an empty bin cuts a group's rows exactly where one
    after the occupied bin before it does; the two score the same to the
    bit (the running sums add 0.0) and the first maximum takes the lower
    bin, so empty bins are never split points and the table drops them.

    ``cell``: ``(R,)`` each row's flat cell ``g * width + k``, ``k`` the
    rank of its bin among its group's occupied bins.
    ``n_cells``: ``(G,)`` occupied bins per group.
    ``rows_to``: ``(G * width,)`` rows in every cell up to and including
    each one, counted across groups (exact integers, non-decreasing, so
    ``searchsorted`` finds child-size bounds).
    ``threshold``: ``(G * width,)`` the raw threshold of a split after
    each cell (its bin's edge).
    """

    __slots__ = ("cell", "n_cells", "width", "rows_to", "threshold")

    def __init__(
        self,
        group_ids: np.ndarray,
        codes: np.ndarray,
        edges: np.ndarray,
        n_bins: np.ndarray,
    ) -> None:
        n_groups = n_bins.shape[0]
        wide = int(n_bins.max())
        raw = group_ids * wide + codes
        occupied = np.bincount(raw, minlength=n_groups * wide) > 0
        occupied = occupied.reshape(n_groups, wide)
        rank = np.cumsum(occupied, axis=1) - 1
        self.n_cells = occupied.sum(axis=1)
        self.width = width = int(self.n_cells.max())
        self.cell = group_ids * width + rank.ravel()[raw]
        self.rows_to = np.cumsum(
            np.bincount(self.cell, minlength=n_groups * width)
        ).astype(np.float64)
        # A group's last bin has no edge; no split ever follows it.
        last = np.full((n_groups, 1), np.inf)
        gi, bi = np.nonzero(occupied)
        self.threshold = np.full(n_groups * width, np.inf)
        self.threshold[gi * width + rank[gi, bi]] = np.concatenate(
            (edges, last), axis=1
        )[gi, bi]


def _compute_bins(
    x2d: np.ndarray, offsets: np.ndarray, max_bins: int
) -> _GroupBins:
    """Bin every group's features; bit-identical to per-group
    :class:`~repro.ml._histogram.BinnedFeatures` on each slice."""
    from repro.core.batched_train import _dedup_sorted_rows, segmented_quantiles

    n_rows, d = x2d.shape
    counts = np.diff(offsets)
    starts = offsets[:-1]
    n_groups = counts.shape[0]
    if not np.all(np.isfinite(x2d)):
        raise ModelTrainingError("feature matrix contains non-finite values")
    qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    group_ids = np.repeat(np.arange(n_groups), counts)
    quant_all: list[np.ndarray] = []
    keep_all: list[np.ndarray] = []
    edge_counts = np.empty((n_groups, d), dtype=np.int64)
    for j in range(d):
        xj = np.ascontiguousarray(x2d[:, j])
        xj_sorted = xj[np.lexsort((xj, group_ids))]
        quant = segmented_quantiles(xj_sorted, starts, counts, qs)
        keep, _ = _dedup_sorted_rows(quant)
        # Edges at the group maximum separate nothing; dropping them makes
        # constant features unsplittable (same rule as compute_bin_edges).
        keep &= quant < np.maximum.reduceat(xj, starts)[:, None]
        edge_counts[:, j] = keep.sum(axis=1)
        quant_all.append(quant)
        keep_all.append(keep)
    width = int(edge_counts.max())
    edges = np.full((n_groups, d, width), np.inf)
    for j in range(d):
        keep = keep_all[j]
        quant = quant_all[j]
        pos = np.cumsum(keep, axis=1) - 1
        gi, qi = np.nonzero(keep)
        edges[gi, j, pos[gi, qi]] = quant[gi, qi]
    # searchsorted(side="left") counts the edges strictly below x: the
    # scalar path's #{edges < x}, ties included; the +inf padding never
    # counts.  One call per (group, feature) keeps the temporaries at
    # one group's rows, where gathering every row's edge vector would
    # hold rows x width floats at once.
    codes = np.empty((n_rows, d), dtype=np.int32)
    for g in range(n_groups):
        seg = slice(starts[g], starts[g] + counts[g])
        for j in range(d):
            codes[seg, j] = np.searchsorted(edges[g, j], x2d[seg, j])
    bins = _GroupBins(codes, edge_counts + 1, edges)
    if d == 1:
        bins.table = _BinTable(
            group_ids, codes[:, 0], edges[:, 0, :], bins.n_bins[:, 0]
        )
    return bins


def _grow(
    bins: _GroupBins, labels: np.ndarray, offsets: np.ndarray, **params
) -> dict[str, np.ndarray]:
    """One tree per group: on the bin table at ``d == 1``, else on rows."""
    if bins.table is not None:
        return _grow_table(bins.table, labels, **params)
    return _grow_forest(bins, labels, offsets, **params)


def _grow_forest(
    bins: _GroupBins,
    labels: np.ndarray,
    offsets: np.ndarray,
    *,
    kind: str,
    max_depth: int,
    min_samples_leaf: int = 1,
    min_samples_split: int = 2,
    min_child_weight: float = 1.0,
    reg_lambda: float = 0.0,
    gamma: float = 0.0,
    leaf_pred: np.ndarray,
) -> dict[str, np.ndarray]:
    """Grow one tree per group, all levels in lock-step.

    ``kind`` is ``"cart"`` (variance-reduction splits on ``labels``) or
    ``"xgb"`` (regularised gain on gradients ``labels`` with unit
    hessians).  ``leaf_pred`` receives every row's leaf value.  Returns
    the per-group node arrays in scalar DFS order plus ``offsets`` into
    them.  Child-size floors must be positive (``min_samples_leaf`` for
    CART, ``min_child_weight`` for XGB) so no empty child can be created.
    """
    t0 = perf_counter()
    codes = bins.codes
    n_groups = offsets.shape[0] - 1
    d = codes.shape[1]
    n_bin_cap = int(bins.n_bins.max())

    node_gid = np.arange(n_groups, dtype=np.int64)
    node_group = np.arange(n_groups, dtype=np.int64)
    rows = np.arange(offsets[-1], dtype=np.int64)
    block_counts = np.diff(offsets).astype(np.int64)
    n_total = n_groups

    feat_range = np.arange(d, dtype=np.int64)
    bin_range = np.arange(max(n_bin_cap - 1, 0), dtype=np.int64)
    levels: list[dict[str, np.ndarray]] = []
    depth = 0
    while node_gid.size:
        n_nodes = node_gid.size
        nf = block_counts.astype(np.float64)
        slot = np.repeat(np.arange(n_nodes, dtype=np.int64), block_counts)
        # bincount accumulates strictly in input order == the scalar
        # fitters' sequential node sums (see _histogram.sequential_sum).
        sums = np.bincount(slot, weights=labels[rows], minlength=n_nodes)
        if kind == "cart":
            value = sums / nf
            can_try = (depth < max_depth) & (block_counts >= min_samples_split)
        else:
            value = -sums / (nf + reg_lambda)
            can_try = (depth < max_depth) & (nf >= 2.0 * min_child_weight)

        feature_sel = np.full(n_nodes, -1, dtype=np.int64)
        split_bin_sel = np.zeros(n_nodes, dtype=np.int64)
        t_idx = np.flatnonzero(can_try)
        if t_idx.size and n_bin_cap > 1:
            _search_splits(
                bins, labels, kind, t_idx, can_try, slot, rows,
                node_group, block_counts, sums, nf,
                min_samples_leaf, min_child_weight, reg_lambda, gamma,
                feat_range, bin_range, feature_sel, split_bin_sel,
            )

        splitting = feature_sel >= 0
        threshold = np.zeros(n_nodes)
        s_idx = np.flatnonzero(splitting)
        if s_idx.size:
            threshold[s_idx] = bins.edges[
                node_group[s_idx], feature_sel[s_idx], split_bin_sel[s_idx]
            ]
        in_split = splitting[slot]
        retired = ~in_split
        leaf_pred[rows[retired]] = value[slot[retired]]

        n_splits = s_idx.size
        left_gid = np.full(n_nodes, -1, dtype=np.int64)
        right_gid = np.full(n_nodes, -1, dtype=np.int64)
        child_gid = n_total + np.arange(2 * n_splits, dtype=np.int64)
        left_gid[s_idx] = child_gid[0::2]
        right_gid[s_idx] = child_gid[1::2]
        levels.append({
            "gid": node_gid,
            "group": node_group,
            "value": value,
            "feature": np.where(splitting, feature_sel, -1),
            "threshold": threshold,
            "left": left_gid,
            "right": right_gid,
        })
        if n_splits == 0:
            break
        rows_s = rows[in_split]
        slot_s = slot[in_split]
        s_remap = np.full(n_nodes, -1, dtype=np.int64)
        s_remap[s_idx] = np.arange(n_splits, dtype=np.int64)
        local = s_remap[slot_s]
        go_left = (
            codes[rows_s, feature_sel[slot_s]].astype(np.int64)
            <= split_bin_sel[slot_s]
        )
        child_key = local * 2 + (1 - go_left.astype(np.int64))
        # Stable: children stay contiguous, rows keep original relative
        # order inside each child (the bit-parity invariant).
        order = np.argsort(child_key, kind="stable")
        rows = rows_s[order]
        block_counts = np.bincount(child_key, minlength=2 * n_splits)
        node_gid = child_gid
        node_group = np.repeat(node_group[s_idx], 2)
        n_total += 2 * n_splits
        depth += 1

    _observe_grow(t0, len(levels), int(offsets[-1]), n_groups)
    return _renumber_to_dfs(levels, n_groups, n_total)


def _search_splits(
    bins: _GroupBins,
    labels: np.ndarray,
    kind: str,
    t_idx: np.ndarray,
    can_try: np.ndarray,
    slot: np.ndarray,
    rows: np.ndarray,
    node_group: np.ndarray,
    block_counts: np.ndarray,
    sums: np.ndarray,
    nf: np.ndarray,
    min_samples_leaf: int,
    min_child_weight: float,
    reg_lambda: float,
    gamma: float,
    feat_range: np.ndarray,
    bin_range: np.ndarray,
    feature_sel: np.ndarray,
    split_bin_sel: np.ndarray,
) -> None:
    """Histogram + cumsum gain search for one level's splittable nodes.

    Writes the chosen (feature, split_bin) into ``feature_sel`` /
    ``split_bin_sel`` (feature stays -1 where no split clears the gain
    threshold).  Nodes are processed in chunks bounded by the histogram
    tensor budget.
    """
    d = bins.codes.shape[1]
    n_bin_cap = int(bins.n_bins.max())
    n_try = t_idx.size
    in_try = can_try[slot]
    rows_t = rows[in_try]
    t_remap = np.full(can_try.shape[0], -1, dtype=np.int64)
    t_remap[t_idx] = np.arange(n_try, dtype=np.int64)
    slot_t = t_remap[slot[in_try]]
    y_t = labels[rows_t]
    nb_t = bins.n_bins[node_group[t_idx]]
    row_off = np.concatenate(([0], np.cumsum(block_counts[t_idx])))
    sums_t = sums[t_idx]
    nf_t = nf[t_idx]
    per_chunk = max(1, _BLOCK_ELEMENTS // (d * n_bin_cap))
    for c0 in range(0, n_try, per_chunk):
        c1 = min(c0 + per_chunk, n_try)
        tc = c1 - c0
        r0, r1 = row_off[c0], row_off[c1]
        cmat = bins.codes[rows_t[r0:r1]].astype(np.int64)
        local_slot = slot_t[r0:r1] - c0
        flat = (
            (local_slot[:, None] * d + feat_range[None, :]) * n_bin_cap + cmat
        ).ravel()
        length = tc * d * n_bin_cap
        y_c = y_t[r0:r1]
        cnt = np.bincount(flat, minlength=length).astype(np.float64)
        wsum = np.bincount(flat, weights=np.repeat(y_c, d), minlength=length)
        cnt = cnt.reshape(tc, d, n_bin_cap)
        wsum = wsum.reshape(tc, d, n_bin_cap)
        lc = np.cumsum(cnt, axis=2)[:, :, :-1]
        ls = np.cumsum(wsum, axis=2)[:, :, :-1]
        in_bins = bin_range[None, None, :] < (nb_t[c0:c1, :, None] - 1)
        n_chunk = nf_t[c0:c1]
        s_chunk = sums_t[c0:c1]
        if kind == "cart":
            rc = n_chunk[:, None, None] - lc
            rs = s_chunk[:, None, None] - ls
            valid = (
                (lc >= min_samples_leaf) & (rc >= min_samples_leaf) & in_bins
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(valid, ls**2 / lc + rs**2 / rc, -np.inf)
            sb = np.argmax(score, axis=2)
            best = np.take_along_axis(score, sb[:, :, None], axis=2)[:, :, 0]
            gain = best - (s_chunk * s_chunk / n_chunk)[:, None]
            fsel = np.argmax(gain, axis=1)
            gsel = np.take_along_axis(gain, fsel[:, None], axis=1)[:, 0]
            accept = gsel > 1e-12
        else:
            lam = reg_lambda
            hr = n_chunk[:, None, None] - lc
            gr = s_chunk[:, None, None] - ls
            parent = s_chunk * s_chunk / (n_chunk + lam)
            valid = (
                (lc >= min_child_weight) & (hr >= min_child_weight) & in_bins
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                gain_b = np.where(
                    valid,
                    0.5 * (
                        ls**2 / (lc + lam) + gr**2 / (hr + lam)
                        - parent[:, None, None]
                    ) - gamma,
                    -np.inf,
                )
            sb = np.argmax(gain_b, axis=2)
            best = np.take_along_axis(gain_b, sb[:, :, None], axis=2)[:, :, 0]
            fsel = np.argmax(best, axis=1)
            gsel = np.take_along_axis(best, fsel[:, None], axis=1)[:, 0]
            accept = gsel > 0.0
        feature_sel[t_idx[c0:c1]] = np.where(accept, fsel, -1)
        split_bin_sel[t_idx[c0:c1]] = np.where(
            accept, np.take_along_axis(sb, fsel[:, None], axis=1)[:, 0], 0
        )


def _grow_table(
    table: _BinTable,
    labels: np.ndarray,
    *,
    kind: str,
    max_depth: int,
    min_samples_leaf: int = 1,
    min_samples_split: int = 2,
    min_child_weight: float = 1.0,
    reg_lambda: float = 0.0,
    gamma: float = 0.0,
    leaf_pred: np.ndarray,
) -> dict[str, np.ndarray]:
    """:func:`_grow_forest` for ``d == 1``, on the bin table.

    A 1-D node is a contiguous cell range ``[first, stop)`` of its
    group's table row, so one running sum of labels along each group's
    cells (and the table's running row count) gives every candidate
    split's left statistics as differences of two table entries: the
    split search costs O(candidate cells) whatever the row count.
    """
    t0 = perf_counter()
    n_groups, width = table.n_cells.shape[0], table.width
    rows_to = table.rows_to
    # bincount adds each cell's rows in row order, as the scalar fitters'
    # per-node histograms do.
    cell_sums = np.bincount(
        table.cell, weights=labels, minlength=n_groups * width
    )
    cum_s = np.cumsum(cell_sums.reshape(n_groups, width), axis=1).ravel()
    floor = min_samples_leaf if kind == "cart" else min_child_weight
    leaves: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    node_gid = np.arange(n_groups, dtype=np.int64)
    node_group = np.arange(n_groups, dtype=np.int64)
    first = node_group * width
    stop = first + table.n_cells
    n_total = n_groups
    levels: list[dict[str, np.ndarray]] = []
    depth = 0
    while node_gid.size:
        n_before = np.where(first > 0, rows_to[first - 1], 0.0)
        s_before = np.where(first > node_group * width, cum_s[first - 1], 0.0)
        nf = rows_to[stop - 1] - n_before
        # Node sums over each node's rows in row order, one bincount (the
        # scalar fitters' sequential sums), so values match theirs bit for
        # bit.
        sums = np.bincount(
            _paint(first, stop, n_groups * width)[table.cell],
            weights=labels, minlength=node_gid.size + 1,
        )[1:]
        if kind == "cart":
            value = sums / nf
            can_try = (depth < max_depth) & (nf >= min_samples_split)
        else:
            value = -sums / (nf + reg_lambda)
            can_try = (depth < max_depth) & (nf >= 2.0 * min_child_weight)
        split = np.full(node_gid.size, -1, dtype=np.int64)
        t_idx = np.flatnonzero(can_try)
        # Split after cell c is valid iff both children keep >= floor rows.
        lo = np.searchsorted(rows_to, n_before[t_idx] + floor, side="left")
        hi = np.searchsorted(
            rows_to, n_before[t_idx] + nf[t_idx] - floor, side="right"
        )
        keep = hi > lo
        t_idx, lo, n_cand = t_idx[keep], lo[keep], (hi - lo)[keep]
        if t_idx.size:
            split[t_idx] = _table_splits(
                rows_to, cum_s, kind, lo, n_cand,
                n_before[t_idx], s_before[t_idx], nf[t_idx], sums[t_idx],
                reg_lambda, gamma,
            )

        splitting = split >= 0
        s_idx = np.flatnonzero(splitting)
        threshold = np.zeros(node_gid.size)
        threshold[s_idx] = table.threshold[split[s_idx]]
        retired = ~splitting
        leaves.append((first[retired], stop[retired], value[retired]))

        n_splits = s_idx.size
        left_gid = np.full(node_gid.size, -1, dtype=np.int64)
        right_gid = np.full(node_gid.size, -1, dtype=np.int64)
        child_gid = n_total + np.arange(2 * n_splits, dtype=np.int64)
        left_gid[s_idx] = child_gid[0::2]
        right_gid[s_idx] = child_gid[1::2]
        levels.append({
            "gid": node_gid,
            "group": node_group,
            "value": value,
            "feature": np.where(splitting, 0, -1),
            "threshold": threshold,
            "left": left_gid,
            "right": right_gid,
        })
        if n_splits == 0:
            break
        # Children in (parent, side) order: the row kernel's BFS order.
        cut = split[s_idx] + 1
        first = np.stack((first[s_idx], cut), axis=1).ravel()
        stop = np.stack((cut, stop[s_idx]), axis=1).ravel()
        node_group = np.repeat(node_group[s_idx], 2)
        node_gid = child_gid
        n_total += 2 * n_splits
        depth += 1

    # The leaves partition every group's cells: one paint maps each row
    # to its leaf.
    first, stop, value = (np.concatenate(part) for part in zip(*leaves))
    leaf_pred[:] = value[_paint(first, stop, n_groups * width)[table.cell] - 1]
    _observe_grow(t0, len(levels), table.cell.shape[0], n_groups)
    return _renumber_to_dfs(levels, n_groups, n_total)


def _paint(first: np.ndarray, stop: np.ndarray, size: int) -> np.ndarray:
    """``1 + i`` on each of ``size`` cells inside range ``[first[i],
    stop[i])``, 0 outside every range; the ranges must be disjoint and
    non-empty.  A running sum of ``+id`` at each first cell and ``-id``
    at each stop cell paints them."""
    ids = np.arange(1, first.shape[0] + 1)
    paint = np.zeros(size + 1, dtype=np.int64)
    paint[first] = ids
    paint[stop] -= ids
    return np.cumsum(paint[:-1])


def _table_splits(
    rows_to: np.ndarray,
    cum_s: np.ndarray,
    kind: str,
    lo: np.ndarray,
    n_cand: np.ndarray,
    n_before: np.ndarray,
    s_before: np.ndarray,
    nf: np.ndarray,
    sums: np.ndarray,
    reg_lambda: float,
    gamma: float,
) -> np.ndarray:
    """Best split cell of each node of one level, or -1.

    Node ``i``'s valid splits follow cells ``lo[i] .. lo[i] + n_cand[i]
    - 1``.  The split taken is the first maximum, as ``np.argmax`` takes
    it, and only where it clears the scalar fitters' gain threshold.
    Every reduction runs per node.
    """
    seg = np.cumsum(n_cand) - n_cand
    cells = np.repeat(lo - seg, n_cand) + np.arange(int(seg[-1] + n_cand[-1]))
    lc = rows_to[cells] - np.repeat(n_before, n_cand)
    ls = cum_s[cells] - np.repeat(s_before, n_cand)
    rc = np.repeat(nf, n_cand) - lc
    rs = np.repeat(sums, n_cand) - ls
    if kind == "cart":
        score = ls**2 / lc + rs**2 / rc
        best = np.maximum.reduceat(score, seg)
        accept = best - sums * sums / nf > 1e-12
    else:
        lam = reg_lambda
        parent = sums * sums / (nf + lam)
        score = (
            0.5 * (
                ls**2 / (lc + lam) + rs**2 / (rc + lam)
                - np.repeat(parent, n_cand)
            )
            - gamma
        )
        best = np.maximum.reduceat(score, seg)
        accept = best > 0.0
    top = np.minimum.reduceat(
        np.where(score == np.repeat(best, n_cand), cells, rows_to.shape[0]),
        seg,
    )
    return np.where(accept, top, -1)


def _observe_grow(t0: float, n_levels: int, n_rows: int, n_trees: int) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.histogram("repro_forest_grow_seconds").observe(
            perf_counter() - t0
        )
        registry.counter("repro_forest_levels_total").inc(n_levels)
        registry.counter("repro_forest_rows_total").inc(n_rows)
        registry.counter("repro_forest_trees_total").inc(n_trees)


def _renumber_to_dfs(
    levels: list[dict[str, np.ndarray]], n_groups: int, n_total: int
) -> dict[str, np.ndarray]:
    """Map BFS creation order to the scalar recursion's DFS node ids.

    The scalar ``_grow`` allocates both children at split time and splits
    execute in preorder, so the k-th internal node (in preorder, 0-based)
    hands its children ids ``1 + 2k`` and ``2 + 2k``; roots are 0.
    Computed with one bottom-up (subtree sizes) and one top-down
    (preorder index) pass per level — no per-node loop.
    """
    gid_group = np.concatenate([lv["group"] for lv in levels])
    gid_feature = np.concatenate([lv["feature"] for lv in levels])
    gid_threshold = np.concatenate([lv["threshold"] for lv in levels])
    gid_value = np.concatenate([lv["value"] for lv in levels])
    gid_left = np.concatenate([lv["left"] for lv in levels])
    gid_right = np.concatenate([lv["right"] for lv in levels])

    size = np.ones(n_total, dtype=np.int64)
    for lv in reversed(levels):
        internal = lv["feature"] >= 0
        if internal.any():
            parent = lv["gid"][internal]
            size[parent] += (
                size[lv["left"][internal]] + size[lv["right"][internal]]
            )
    pre = np.zeros(n_total, dtype=np.int64)
    for lv in levels:
        internal = lv["feature"] >= 0
        if internal.any():
            parent = lv["gid"][internal]
            left = lv["left"][internal]
            pre[left] = pre[parent] + 1
            pre[lv["right"][internal]] = pre[parent] + 1 + size[left]

    newid = np.zeros(n_total, dtype=np.int64)
    ii = np.flatnonzero(gid_feature >= 0)
    if ii.size:
        order = np.lexsort((pre[ii], gid_group[ii]))
        sorted_ii = ii[order]
        icounts = np.bincount(gid_group[ii], minlength=n_groups)
        istarts = np.concatenate(([0], np.cumsum(icounts[:-1])))
        irank = np.empty(n_total, dtype=np.int64)
        irank[sorted_ii] = (
            np.arange(ii.size, dtype=np.int64)
            - np.repeat(istarts, icounts)
        )
        newid[gid_left[ii]] = 1 + 2 * irank[ii]
        newid[gid_right[ii]] = 2 + 2 * irank[ii]

    node_counts = np.bincount(gid_group, minlength=n_groups)
    out_off = np.concatenate(([0], np.cumsum(node_counts))).astype(np.int64)
    posn = out_off[gid_group] + newid
    feature = np.empty(n_total, dtype=np.int32)
    threshold = np.empty(n_total, dtype=np.float64)
    value = np.empty(n_total, dtype=np.float64)
    left = np.empty(n_total, dtype=np.int32)
    right = np.empty(n_total, dtype=np.int32)
    left_local = np.full(n_total, -1, dtype=np.int64)
    right_local = np.full(n_total, -1, dtype=np.int64)
    left_local[ii] = newid[gid_left[ii]]
    right_local[ii] = newid[gid_right[ii]]
    feature[posn] = gid_feature
    threshold[posn] = gid_threshold
    value[posn] = gid_value
    left[posn] = left_local
    right[posn] = right_local
    return {
        "offsets": out_off,
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "value": value,
    }


def _slice_nodes(rec: dict[str, np.ndarray], g: int) -> dict[str, np.ndarray]:
    """Group ``g``'s flat node arrays (views into the stacked record)."""
    lo, hi = int(rec["offsets"][g]), int(rec["offsets"][g + 1])
    return {
        key: rec[key][lo:hi]
        for key in ("feature", "threshold", "left", "right", "value")
    }


# -- drivers -----------------------------------------------------------------


def _group_means(ys: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-group ``float(y.mean())`` — the boosters' base predictions.

    Deliberately per-group pairwise means (cheap: one call per group on a
    contiguous slice) so the base matches the scalar fit bit-for-bit.
    """
    n_groups = offsets.shape[0] - 1
    base = np.empty(n_groups)
    for g in range(n_groups):
        base[g] = ys[offsets[g]:offsets[g + 1]].mean()
    return base


def _fit_cart_forest(
    bins: _GroupBins,
    ys: np.ndarray,
    offsets: np.ndarray,
    *,
    max_depth: int,
    min_samples_leaf: int,
    min_samples_split: int,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """One CART tree per group; returns (node record, in-sample pred)."""
    leaf_pred = np.empty(ys.shape[0])
    rec = _grow(
        bins, ys, offsets, kind="cart", max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split, leaf_pred=leaf_pred,
    )
    return rec, leaf_pred


def _fit_gboost_forest(
    bins: _GroupBins,
    ys: np.ndarray,
    offsets: np.ndarray,
    *,
    n_estimators: int,
    learning_rate: float,
    max_depth: int,
    min_samples_leaf: int,
    min_samples_split: int,
) -> tuple[np.ndarray, list[dict[str, np.ndarray]], np.ndarray]:
    """All groups' gboost rounds in lock-step.

    Returns (per-group bases, per-round node records, in-sample pred).
    """
    base = _group_means(ys, offsets)
    prediction = np.repeat(base, np.diff(offsets))
    leaf_pred = np.empty(ys.shape[0])
    rounds: list[dict[str, np.ndarray]] = []
    for _ in range(n_estimators):
        residual = ys - prediction
        rounds.append(_grow(
            bins, residual, offsets, kind="cart", max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split, leaf_pred=leaf_pred,
        ))
        prediction = prediction + learning_rate * leaf_pred
    return base, rounds, prediction


def _fit_xgb_forest(
    bins: _GroupBins,
    ys: np.ndarray,
    offsets: np.ndarray,
    *,
    n_estimators: int,
    learning_rate: float,
    max_depth: int,
    min_child_weight: float,
    reg_lambda: float,
    gamma: float,
) -> tuple[np.ndarray, list[dict[str, np.ndarray]], np.ndarray]:
    """All groups' xgboost rounds in lock-step (unit hessians)."""
    base = _group_means(ys, offsets)
    prediction = np.repeat(base, np.diff(offsets))
    leaf_pred = np.empty(ys.shape[0])
    rounds: list[dict[str, np.ndarray]] = []
    for _ in range(n_estimators):
        grad = prediction - ys
        rounds.append(_grow(
            bins, grad, offsets, kind="xgb", max_depth=max_depth,
            min_child_weight=min_child_weight, reg_lambda=reg_lambda,
            gamma=gamma, leaf_pred=leaf_pred,
        ))
        prediction = prediction + learning_rate * leaf_pred
    return base, rounds, prediction


def _build_gboost(
    base: np.ndarray,
    rounds: list[dict[str, np.ndarray]],
    g: int,
    n_features: int,
    proto: GradientBoostingRegressor,
    random_state: int | None,
) -> GradientBoostingRegressor:
    trees = [
        DecisionTreeRegressor.from_fit_state(
            _slice_nodes(rec, g), n_features,
            max_depth=proto.max_depth,
            min_samples_leaf=proto.min_samples_leaf,
            max_bins=proto.max_bins,
        )
        for rec in rounds
    ]
    return GradientBoostingRegressor.from_fit_state(
        float(base[g]), trees,
        learning_rate=proto.learning_rate, max_depth=proto.max_depth,
        min_samples_leaf=proto.min_samples_leaf, max_bins=proto.max_bins,
        random_state=random_state,
    )


def _build_xgb(
    base: np.ndarray,
    rounds: list[dict[str, np.ndarray]],
    g: int,
    proto: XGBRegressor,
    random_state: int | None,
) -> XGBRegressor:
    return XGBRegressor.from_fit_state(
        float(base[g]), [_slice_nodes(rec, g) for rec in rounds],
        learning_rate=proto.learning_rate, max_depth=proto.max_depth,
        reg_lambda=proto.reg_lambda, gamma=proto.gamma,
        min_child_weight=proto.min_child_weight, max_bins=proto.max_bins,
        random_state=random_state,
    )


def fit_forest_regressors(
    x2d: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    config: DBEstConfig,
) -> tuple[list, np.ndarray] | None:
    """Fit all groups' nonlinear regressors through the batched kernel.

    ``x2d`` is the flat ``(R, d)`` modelled-row matrix in group-major
    original order, ``offsets`` its group boundaries.  Returns
    ``(regressors, in_sample_pred)`` — the prediction is each group's
    ``regressor.predict`` on its rows, bit for bit, taken off the kernel
    (an ensemble's is its default constituent's) — or None when
    ``config.regressor`` is not a forest family (the trainer sends
    ``linear`` and ``plr`` to its stacked solve instead).
    """
    if config.regressor not in _FOREST_REGRESSORS:
        return None
    n_groups = offsets.shape[0] - 1
    d = x2d.shape[1]
    seed = config.random_seed

    if config.regressor == "tree":
        proto = DecisionTreeRegressor()
        bins = _compute_bins(x2d, offsets, proto.max_bins)
        rec, pred = _fit_cart_forest(
            bins, ys, offsets, max_depth=proto.max_depth,
            min_samples_leaf=proto.min_samples_leaf,
            min_samples_split=proto.min_samples_split,
        )
        regressors: list = [
            DecisionTreeRegressor.from_fit_state(
                _slice_nodes(rec, g), d,
                max_depth=proto.max_depth,
                min_samples_leaf=proto.min_samples_leaf,
                min_samples_split=proto.min_samples_split,
                max_bins=proto.max_bins,
            )
            for g in range(n_groups)
        ]
        return regressors, pred

    if config.regressor == "gboost":
        proto = GradientBoostingRegressor(random_state=seed)
        stage_split = DecisionTreeRegressor(
            max_depth=proto.max_depth,
            min_samples_leaf=proto.min_samples_leaf,
            max_bins=proto.max_bins,
        ).min_samples_split
        bins = _compute_bins(x2d, offsets, proto.max_bins)
        base, rounds, pred = _fit_gboost_forest(
            bins, ys, offsets, n_estimators=proto.n_estimators,
            learning_rate=proto.learning_rate, max_depth=proto.max_depth,
            min_samples_leaf=proto.min_samples_leaf,
            min_samples_split=stage_split,
        )
        regressors = [
            _build_gboost(base, rounds, g, d, proto, seed)
            for g in range(n_groups)
        ]
        return regressors, pred

    if config.regressor == "xgboost":
        proto = XGBRegressor(random_state=seed)
        bins = _compute_bins(x2d, offsets, proto.max_bins)
        base, rounds, pred = _fit_xgb_forest(
            bins, ys, offsets, n_estimators=proto.n_estimators,
            learning_rate=proto.learning_rate, max_depth=proto.max_depth,
            min_child_weight=proto.min_child_weight,
            reg_lambda=proto.reg_lambda, gamma=proto.gamma,
        )
        regressors = [
            _build_xgb(base, rounds, g, proto, seed) for g in range(n_groups)
        ]
        return regressors, pred

    # Ensemble: gboost + xgboost constituents through the shared kernel,
    # PLR per group (a cheap exact lstsq, 1-D only), then the selector
    # stage exactly as the scalar fit runs it, on the kernel's in-sample
    # predictions.
    factories = default_constituents()
    gb_proto = factories["gboost"]()
    xgb_proto = factories["xgboost"]()
    stage_split = DecisionTreeRegressor(
        max_depth=gb_proto.max_depth,
        min_samples_leaf=gb_proto.min_samples_leaf,
        max_bins=gb_proto.max_bins,
    ).min_samples_split
    bins = _compute_bins(x2d, offsets, gb_proto.max_bins)
    gb_base, gb_rounds, gb_pred = _fit_gboost_forest(
        bins, ys, offsets, n_estimators=gb_proto.n_estimators,
        learning_rate=gb_proto.learning_rate, max_depth=gb_proto.max_depth,
        min_samples_leaf=gb_proto.min_samples_leaf,
        min_samples_split=stage_split,
    )
    xg_base, xg_rounds, xg_pred = _fit_xgb_forest(
        bins, ys, offsets, n_estimators=xgb_proto.n_estimators,
        learning_rate=xgb_proto.learning_rate, max_depth=xgb_proto.max_depth,
        min_child_weight=xgb_proto.min_child_weight,
        reg_lambda=xgb_proto.reg_lambda, gamma=xgb_proto.gamma,
    )
    univariate = d == 1
    regressors = []
    pred = np.empty_like(ys)
    for g in range(n_groups):
        seg = slice(int(offsets[g]), int(offsets[g + 1]))
        gx = x2d[seg, 0] if univariate else x2d[seg]
        gy = ys[seg]
        # Insertion order mirrors the scalar fit's factory order.
        models: dict[str, object] = {
            "gboost": _build_gboost(gb_base, gb_rounds, g, d, gb_proto, None),
            "xgboost": _build_xgb(xg_base, xg_rounds, g, xgb_proto, None),
        }
        preds = {"gboost": gb_pred[seg], "xgboost": xg_pred[seg]}
        if univariate:
            plr = factories["plr"]()
            plr.fit(gx, gy)
            models["plr"] = plr
            preds["plr"] = plr.predict(gx)
        ens = EnsembleRegressor.from_fitted_constituents(
            models, gx, gy, preds, random_state=seed
        )
        pred[seg] = preds[ens.select()]
        regressors.append(ens)
    return regressors, pred
