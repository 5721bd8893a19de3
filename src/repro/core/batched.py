"""Batched evaluation: answer a GROUP BY aggregate for all groups at once.

Answering one group at a time — one KDE mixture pass, one regressor
call per group — is exactly the "many small Python calls" bottleneck
the paper concedes in §4.7.  This module is the only place the integrals
of paper §2.3 are evaluated: a GROUP BY set stacks all its groups, and a
single :class:`~repro.core.model.ColumnSetModel` answers as a set of one.

Batched evaluation
==================

:class:`BatchedGroupEvaluator` stacks every group's state into flat
arrays at build time so a query touches each array once:

* **CSR mixture layout** — all groups' KDE centres and mixture weights
  are concatenated into ``centres``/``cweights`` with ``coffsets`` group
  offsets (the classic CSR indptr).  Per-group scalars (bandwidth,
  support, domain, population, point-mass value) become ``(G,)`` arrays.
* **COUNT** is the population times ``M0(tb) - M0(ta)``: the moment
  kernel below at the two clipped ends, in its mass-only form (no
  ``exp``, no ``M1`` / ``M2``).
* **Moment aggregates** (SUM/AVG/VARIANCE/STDDEV) integrate ``f·D`` and
  ``f²·D`` over each group's clipped range in closed form
  (:mod:`repro.integrate.moments`): ``f`` is the
  identity or the group's regressor, piecewise linear against a
  Gaussian mixture, so the integrals are sums of ``ndtr`` and ``exp`` at
  the two range ends and the breakpoints inside — and ``E[Var(y|x)]`` is
  the mass between residual-variance edges.  Per query the fresh work is
  two points per group, memoised by query bounds so SUM, AVG and
  VARIANCE over the same ranges share it (SUM takes its mass from the
  same ``∫D``); the moments at the breakpoints are query-independent and
  tabulated on first use.  Multivariate boxes keep tensor Simpson.
* **Regressors** stack by family into per-group pieces: ``linear`` is
  one affine piece, ``plr`` affine between its knots, and the tree
  boosters (``tree`` / ``gboost`` / ``xgboost``) export flat node arrays
  whose distinct split thresholds cut constant pieces, valued once by a
  lock-step traversal across all groups; ``ensemble`` regressors keep
  per-group constituent *selection* (each group's own range classifier)
  and integrate every group against the pieces of the constituent it
  selected.
* **Raw groups** are concatenated row-wise and answered with one masked
  segmented reduction per aggregate.
* **PERCENTILE** runs all groups' bisections in lock-step: each
  iteration evaluates the mass ``M0`` of every group's mirrored mixture
  at its own point in one windowed pass (the kernel's ``degree=0``
  form, no ``exp``), by :func:`repro.integrate.bisect_many`.
* **Multivariate predicates** stack the same way: all groups'
  product-kernel mixtures (:class:`~repro.ml.kde.MultivariateKDE`)
  concatenate into one ``(M, d)`` CSR centre array, box integrals
  (COUNT) evaluate ``ndtr`` over the stacked centres once with
  per-dimension CDF differences multiplied per centre and
  segment-reduced, and grid aggregates run every group's tensor-Simpson
  box grid through one blocked product-kernel pdf pass with the
  per-group domain renormalisation folded into a single scale factor.

Sets that do not stack
======================

Both 1-D and product-kernel model sets stack.
:meth:`BatchedGroupEvaluator.build` returns None only when a set is not
stackable: non-uniform integration grids, a density that is not a fitted
:class:`~repro.ml.kde.KernelDensityEstimator` /
:class:`~repro.ml.kde.MultivariateKDE`, mixed presence of regressors, 1-D
regressors that export no pieces, or an empty raw group.
``GroupByModelSet.answer`` then loops over its groups, each a one-group
evaluator of its own — and a model whose 1-D regressor exports no pieces
refuses every query with an ``UnsupportedQueryError`` naming the class.
The loop can be forced with ``answer(..., batched=False)`` or
``DBEstConfig(batched_groupby=False)``; stacked and one-group answers
differ only in floating-point summation order (the test suite asserts
1e-9).  The test suite also holds them to grid and adaptive-quadrature
oracles that no production module imports.
"""

from __future__ import annotations

import math
from time import perf_counter
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtr

from repro.core.model import _EMPTY_DENSITY, ColumnSetModel
from repro.core.parallel import chunk_bounds
from repro.errors import (
    InvalidParameterError,
    ModelTrainingError,
    QueryExecutionError,
    UnsupportedQueryError,
)
from repro.integrate import (
    affine_piece_integrals,
    bisect_many,
    cumulative_moments,
    ordered_sum,
    simpson_weights,
)
from repro.integrate.moments import gather_ranges, left_terms
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.kde import KernelDensityEstimator, MultivariateKDE
from repro.obs import get_registry
from repro.sql.ast import AggregateCall

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Target element count of one (centres x nodes) pdf block: big enough to
# amortise numpy dispatch, small enough that the block and its
# temporaries stay cache-resident (measured fastest around 64k elements
# on 200-group workloads; a single giant pass is ~40% slower).
_PDF_BLOCK = 1 << 16

Ranges = dict[str, tuple[float, float]]


def _segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a flat array; segments must be non-empty."""
    return np.add.reduceat(values, offsets[:-1])


# Placeholder tag marking "an ndarray lived here" in a flattened state
# skeleton; the paired segment name keys the actual array.
_MAPPED_SEGMENT = "__mapped_segment__"


def _flatten_arrays(node, prefix: str, segments: dict):
    """Replace every ndarray under ``node`` with a named placeholder.

    Arrays are recorded in ``segments`` keyed by their slash-joined path
    (``"m/centres"``, ``"m/reg_ens/plr/tree/knots"``); dicts recurse;
    everything else (None, group-value lists, scalars, pickled regressor
    objects) passes through untouched.  :func:`_restore_arrays` inverts.
    """
    if isinstance(node, np.ndarray):
        segments[prefix] = node
        return (_MAPPED_SEGMENT, prefix)
    if isinstance(node, dict):
        return {
            key: _flatten_arrays(value, f"{prefix}/{key}", segments)
            for key, value in node.items()
        }
    return node


def _restore_arrays(node, segments: dict):
    """Swap :func:`_flatten_arrays` placeholders back to arrays."""
    if isinstance(node, tuple) and len(node) == 2 and node[0] == _MAPPED_SEGMENT:
        return segments[node[1]]
    if isinstance(node, dict):
        return {key: _restore_arrays(value, segments) for key, value in node.items()}
    return node


class BatchedGroupEvaluator:
    """All per-group state of one GROUP BY model set, stacked flat.

    Build with :meth:`build` (returns None when the set cannot be
    stacked); answer every group with :meth:`answer`; slice contiguous
    group segments for worker pools with :meth:`split`.
    """

    def __init__(self, x_columns: tuple[str, ...], y_column: str | None,
                 model_state: dict | None, raw_state: dict | None) -> None:
        self.x_columns = x_columns
        self.y_column = y_column
        self._m = model_state
        self._r = raw_state
        # Memoised per query bounds, so SUM, AVG and VARIANCE over the
        # same ranges share one kernel pass: 1-D sets keep each group's
        # cumulative moments at the two range ends, multivariate sets
        # their tensor-Simpson points and pdf rows.  Keyed by the
        # per-group bound arrays; bounded FIFO; dropped from pickles.
        self._grid_cache: dict = {}
        self._grid_hits = 0
        self._grid_misses = 0
        # Query-independent closed-form state (unit-coordinate centres,
        # piece coefficients, cumulative moments at knots, split
        # thresholds and residual edges), derived on first use and never
        # persisted: every cell is written once with the value any later
        # computation of it would produce.
        self._pieces: dict = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_grid_cache"] = {}
        state["_grid_hits"] = 0
        state["_grid_misses"] = 0
        state["_pieces"] = {}
        return state

    def grid_cache_stats(self) -> dict:
        """Hit/miss/occupancy counters of the bounds-keyed moment memo.

        An entry holds what one kernel pass over a set of bounds
        produced — end-point moments for a 1-D set, the tensor-Simpson
        pdf grid for a multivariate one.  The serving layer's answer
        cache sits *above* this one: an answer-cache miss that re-runs a
        previously-seen bounds template still reuses the pass memoised
        here.  These counters let benchmarks and the query server report
        both layers.
        """
        return {
            "entries": len(self._grid_cache),
            "hits": int(getattr(self, "_grid_hits", 0)),
            "misses": int(getattr(self, "_grid_misses", 0)),
        }

    def _evict_grid_entries(self, need_room_for: int = 0) -> None:
        """Drop oldest grid-cache entries down to the configured bounds.

        Tolerates concurrent mutation: the serving layer may answer two
        different bounds templates against the same evaluator from two
        threads, so a racing pop is treated as \"someone else evicted
        it\" rather than an error.
        """
        total = 0
        if need_room_for:  # only multivariate entries hold elements
            total = need_room_for + sum(
                entry.get("elements", 0) for entry in list(self._grid_cache.values())
            )
        while self._grid_cache and (
            len(self._grid_cache) >= self._GRID_CACHE_MAX
            or total > self._ND_GRID_CACHE_ELEMENTS
        ):
            try:
                evicted = self._grid_cache.pop(next(iter(self._grid_cache)))
            except (StopIteration, KeyError, RuntimeError):
                break  # racing evictor got there first; best-effort is fine
            total -= evicted.get("elements", 0)

    # -- mapped persistence -------------------------------------------------

    def export_mapped_state(self) -> tuple[dict, dict]:
        """Flatten this evaluator into ``(meta, segments)`` for persistence.

        ``segments`` maps a slash-joined state path (``"m/centres"``,
        ``"m/reg_plr/knots"``, ``"r/x"``, ...) to the ndarray living
        there — every array the answer paths touch, *including* the
        derived expansions (``aug_*``, ``inv_h_rep``, ``centre_over_h``,
        ``pdf_scale``), so a loader never re-runs the per-group derive
        loop.  ``meta`` is the state skeleton with each array replaced
        by a ``(_MAPPED_SEGMENT, name)`` placeholder; everything
        non-array (group values, ``points``, ``reg_mode``, pickled
        ``reg_objects``) stays in it verbatim.  :meth:`from_mapped`
        inverts the transform, accepting any mapping of name to
        array-like — in particular ``np.memmap`` views straight off a
        store record.
        """
        segments: dict = {}
        meta = {
            "x_columns": tuple(self.x_columns),
            "y_column": self.y_column,
            "model": _flatten_arrays(self._m, "m", segments),
            "raw": _flatten_arrays(self._r, "r", segments),
        }
        return meta, segments

    @classmethod
    def from_mapped(cls, meta: dict, segments: dict) -> "BatchedGroupEvaluator":
        """Rebuild an evaluator from :meth:`export_mapped_state` output.

        Zero copies: the state dicts reference the given arrays (memmap
        views included) directly, and no derive pass runs — the derived
        arrays were persisted as segments of their own.
        """
        return cls(
            tuple(meta["x_columns"]),
            meta["y_column"],
            _restore_arrays(meta["model"], segments),
            _restore_arrays(meta["raw"], segments),
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, model_set) -> "BatchedGroupEvaluator | None":
        """Stack a :class:`GroupByModelSet`; None if it is not batchable."""
        x_columns = tuple(model_set.x_columns)
        if len(x_columns) == 1:
            model_state = cls._stack_models(model_set)
        else:
            model_state = cls._stack_models_nd(model_set)
        if model_set.models and model_state is None:
            return None
        raw_state = cls._stack_raw(model_set)
        if model_set.raw_groups and raw_state is None:
            return None
        return cls(x_columns, model_set.y_column, model_state, raw_state)

    @classmethod
    def splice(
        cls, old: "BatchedGroupEvaluator | None", model_set, dirty_values
    ) -> "BatchedGroupEvaluator | None":
        """Evaluator for a refreshed set, re-stacking only dirty groups.

        Clean groups' stacked CSR segments are copied straight out of
        ``old``; only the groups in ``dirty_values`` go through the
        per-model export path (a mini :meth:`_stack_models` pass over
        just those models, merged field-wise in sorted-value order).
        The result is bit-identical to :meth:`build` on the full set —
        the parity tests assert it — while costing O(dirty) exports
        plus one array copy.  Returns None when splicing does not apply
        (multivariate state, ensemble regressors, regressor-mode or
        grid mismatch between old and new fits); the caller then falls
        back to a full rebuild.
        """
        if old is None:
            return cls.build(model_set)
        m = old._m
        if m is not None and m.get("ndim", 1) != 1:
            return None
        if len(model_set.x_columns) != 1:
            return None
        dirty = set(dirty_values)
        dirty_models = {
            v: mod for v, mod in model_set.models.items() if v in dirty
        }
        raw_state = cls._stack_raw(model_set)
        if model_set.raw_groups and raw_state is None:
            return None
        if not dirty_models:
            # Dirty groups are all raw: the model state is untouched.
            return cls(old.x_columns, old.y_column, m, raw_state)
        shim = SimpleNamespace(
            models=dirty_models, x_columns=model_set.x_columns
        )
        mini = cls._stack_models(shim)
        if mini is None:
            return None
        if m is None:
            if len(dirty_models) != len(model_set.models):
                return None
            return cls(old.x_columns, old.y_column, mini, raw_state)
        if mini["points"] != m["points"] or mini["reg_mode"] != m["reg_mode"]:
            return None
        if m["reg_mode"] == "ensemble":
            return None
        state = cls._merge_model_states(m, mini)
        if state is None:
            return None
        if len(state["values"]) != len(model_set.models) or any(
            v not in model_set.models for v in state["values"]
        ):
            return None  # groups appeared/vanished outside the dirty set
        return cls(old.x_columns, old.y_column, state, raw_state)

    @classmethod
    def _merge_model_states(cls, m: dict, mini: dict) -> dict | None:
        """Field-wise merge of two stacked 1-D states, ``mini`` winning."""
        old_pos = {v: i for i, v in enumerate(m["values"])}
        new_pos = {v: i for i, v in enumerate(mini["values"])}
        union = sorted(set(old_pos) | set(new_pos))
        g = len(union)
        src = [
            (mini, new_pos[v]) if v in new_pos else (m, old_pos[v])
            for v in union
        ]
        is_new = np.asarray([st is mini for st, _ in src], dtype=bool)
        take = np.asarray([i for _, i in src], dtype=np.intp)
        new_dest = np.flatnonzero(is_new)
        old_dest = np.flatnonzero(~is_new)

        def merge_scalar(field: str) -> np.ndarray:
            out = np.empty(g, dtype=np.asarray(m[field]).dtype)
            out[old_dest] = np.asarray(m[field])[take[old_dest]]
            out[new_dest] = np.asarray(mini[field])[take[new_dest]]
            return out

        def merge_csr(data_field: str, off_field: str, sub: str = "") -> tuple:
            segs = []
            counts = np.empty(g, dtype=np.int64)
            for u, (st, i) in enumerate(src):
                st = st[sub] if sub else st
                off = st[off_field]
                seg = st[data_field][off[i]:off[i + 1]]
                segs.append(seg)
                counts[u] = seg.shape[0]
            data = np.concatenate(segs) if segs else np.empty(0)
            return data, np.concatenate(([0], np.cumsum(counts)))

        centres, coffsets = merge_csr("centres", "coffsets")
        cweights, _ = merge_csr("cweights", "coffsets")
        res_edges, res_eoffsets = merge_csr("res_edges", "res_eoffsets")
        res_var, res_voffsets = merge_csr("res_var", "res_voffsets")
        state: dict = {
            "values": union,
            "centres": centres,
            "cweights": cweights,
            "coffsets": coffsets.astype(np.int64),
            "points": m["points"],
            "res_edges": res_edges,
            "res_var": res_var,
            "res_eoffsets": res_eoffsets.astype(np.int64),
            "res_voffsets": res_voffsets.astype(np.int64),
            "reg_mode": m["reg_mode"],
        }
        for key in ("h", "sup_lo", "sup_hi", "dom_lo", "dom_hi", "reflect",
                    "pm_mask", "pm_value", "population", "res_global"):
            state[key] = merge_scalar(key)

        mode = m["reg_mode"]
        if mode == "plr":
            knots, koffsets = merge_csr("knots", "koffsets", "reg_plr")
            hinge, _ = merge_csr("hinge", "koffsets", "reg_plr")
            affine = np.empty((g, 2))
            affine[old_dest] = m["reg_plr"]["affine"][take[old_dest]]
            affine[new_dest] = mini["reg_plr"]["affine"][take[new_dest]]
            state["reg_plr"] = {
                "knots": knots,
                "koffsets": koffsets.astype(np.int64),
                "hinge": hinge,
                "affine": affine,
            }
        elif mode == "linear":
            affine = np.empty((g, m["reg_affine"].shape[1]))
            affine[old_dest] = m["reg_affine"][take[old_dest]]
            affine[new_dest] = mini["reg_affine"][take[new_dest]]
            state["reg_affine"] = affine
        elif mode == "forest":
            # Reconstruct per-group export tuples from the stacked
            # arrays (the inverse of _stack_forest) and re-stack in
            # union order; both directions are pure offset arithmetic,
            # so the node arrays come out bit-identical.
            def forest_export(st: dict, i: int) -> tuple:
                f = st["reg_forest"]
                t0, t1 = f["gtoffsets"][i], f["gtoffsets"][i + 1]
                n0, n1 = f["toffsets"][t0], f["toffsets"][t1]
                return (
                    "forest", f["base"][i], f["lr"][i],
                    f["toffsets"][t0:t1 + 1] - n0,
                    f["feature"][n0:n1], f["threshold"][n0:n1],
                    f["left"][n0:n1], f["right"][n0:n1], f["value"][n0:n1],
                )

            state["reg_forest"] = cls._stack_forest(
                [forest_export(st, i) for st, i in src]
            )
        # Derived arrays merge like the primary fields (both sides were
        # built by _derive_model_arrays, whose outputs are per-group
        # segments/scalars) — re-deriving would walk every group again,
        # defeating the O(dirty) splice.
        state["inv_h"] = 1.0 / state["h"]
        aug_centre_over_h, aug_offsets = merge_csr(
            "aug_centre_over_h", "aug_offsets"
        )
        aug_weights, _ = merge_csr("aug_weights", "aug_offsets")
        state["aug_centre_over_h"] = aug_centre_over_h
        state["aug_weights"] = aug_weights
        state["aug_offsets"] = aug_offsets.astype(np.int64)
        state["aug_counts"] = np.diff(state["aug_offsets"])
        return state

    @classmethod
    def _stack_models(cls, model_set) -> dict | None:
        items = sorted(model_set.models.items(), key=lambda kv: kv[0])
        if not items:
            return None
        centres, weights, counts = [], [], []
        h, sup_lo, sup_hi, dom_lo, dom_hi = [], [], [], [], []
        reflect, pm_mask, pm_value, population, points = [], [], [], [], []
        res_edges, res_var, res_global, res_counts = [], [], [], []
        regressors = []
        for _value, model in items:
            if not isinstance(model, ColumnSetModel) or model.n_dims != 1:
                return None
            density = model.density
            if not isinstance(density, KernelDensityEstimator):
                return None
            if not density.is_fitted or density._centres.size == 0:
                return None
            mix = density.export_mixture()
            centres.append(mix.centres)
            weights.append(mix.weights)
            counts.append(mix.centres.size)
            h.append(mix.h)
            sup_lo.append(mix.support[0])
            sup_hi.append(mix.support[1])
            reflect.append(mix.reflect)
            pm_mask.append(mix.point_mass is not None)
            pm_value.append(mix.point_mass if mix.point_mass is not None else np.nan)
            dom_lo.append(model.x_domain[0][0])
            dom_hi.append(model.x_domain[0][1])
            population.append(model.population_size)
            points.append(model.integration_points)
            edges = model._residual_edges
            var = model._residual_var
            res_edges.append(edges if edges is not None else np.empty(0))
            res_var.append(var if var is not None else np.empty(0))
            res_counts.append(0 if edges is None else edges.shape[0])
            res_global.append(model._residual_var_global)
            regressors.append(model.regressor)
        if len(set(points)) != 1:
            return None

        state: dict = {
            "values": [value for value, _ in items],
            "centres": np.concatenate(centres),
            "cweights": np.concatenate(weights),
            "coffsets": np.concatenate(([0], np.cumsum(counts))),
            "h": np.asarray(h),
            "sup_lo": np.asarray(sup_lo),
            "sup_hi": np.asarray(sup_hi),
            "dom_lo": np.asarray(dom_lo),
            "dom_hi": np.asarray(dom_hi),
            "reflect": np.asarray(reflect, dtype=bool),
            "pm_mask": np.asarray(pm_mask, dtype=bool),
            "pm_value": np.asarray(pm_value),
            "population": np.asarray(population, dtype=np.float64),
            "points": int(points[0]),
            "res_edges": np.concatenate(res_edges) if res_edges else np.empty(0),
            "res_var": np.concatenate(res_var) if res_var else np.empty(0),
            "res_eoffsets": np.concatenate(([0], np.cumsum(res_counts))),
            "res_voffsets": np.concatenate(
                ([0], np.cumsum([c + 1 if c else 0 for c in res_counts]))
            ),
            "res_global": np.asarray(res_global),
        }
        cls._derive_model_arrays(state)
        if not cls._stack_regressors(state, regressors):
            return None
        return state

    @staticmethod
    def _derive_model_arrays(state: dict) -> None:
        """Fold boundary reflection into one plain mixture per group.

        Mirroring kernels at the support edges equals adding centres
        ``2lo - c`` and ``2hi - c`` with the same weights; laid out as
        ``[2lo - c[::-1], c, 2hi - c[::-1]]``, ascending centres stay so.
        """
        inv_h = 1.0 / state["h"]
        state["inv_h"] = inv_h
        aug_centres, aug_weights = [], []
        offsets = state["coffsets"]
        for g in range(offsets.shape[0] - 1):
            c = state["centres"][offsets[g]:offsets[g + 1]]
            w = state["cweights"][offsets[g]:offsets[g + 1]]
            if state["reflect"][g]:
                lo, hi = state["sup_lo"][g], state["sup_hi"][g]
                c = np.concatenate([2.0 * lo - c[::-1], c, 2.0 * hi - c[::-1]])
                w = np.concatenate([w[::-1], w, w[::-1]])
            aug_centres.append(c)
            aug_weights.append(w)
        aug_counts = np.asarray([c.size for c in aug_centres], dtype=np.int64)
        state["aug_counts"] = aug_counts
        state["aug_offsets"] = np.concatenate(([0], np.cumsum(aug_counts)))
        # Centres in bandwidth units (see _unit_mixtures).
        state["aug_centre_over_h"] = np.concatenate(aug_centres) * np.repeat(
            inv_h, aug_counts
        )
        state["aug_weights"] = np.concatenate(aug_weights)

    @classmethod
    def _stack_models_nd(cls, model_set) -> dict | None:
        """Stack multivariate (product-kernel) model groups, or None.

        The d-dimensional analogue of :meth:`_stack_models`: centres
        become one ``(M, d)`` CSR array, per-group scalars become
        ``(G,)`` / ``(G, d)`` arrays, and the domain normaliser of every
        group's :class:`~repro.ml.kde.MultivariateKDE` folds into a
        single per-group pdf scale.
        """
        items = sorted(model_set.models.items(), key=lambda kv: kv[0])
        if not items:
            return None
        d = len(model_set.x_columns)
        centres, weights, counts = [], [], []
        h, dom_lo, dom_hi, kde_lo, kde_hi, norm = [], [], [], [], [], []
        population, points, res_global = [], [], []
        regressors = []
        for _value, model in items:
            if not isinstance(model, ColumnSetModel) or model.n_dims != d:
                return None
            density = model.density
            if not isinstance(density, MultivariateKDE):
                return None
            if not density.is_fitted or density._centres.shape[0] == 0:
                return None
            mix = density.export_mixture()
            centres.append(mix.centres)
            weights.append(mix.weights)
            counts.append(mix.centres.shape[0])
            h.append(mix.h)
            dom_lo.append([bounds[0] for bounds in model.x_domain])
            dom_hi.append([bounds[1] for bounds in model.x_domain])
            kde_lo.append(mix.domain_low)
            kde_hi.append(mix.domain_high)
            norm.append(mix.norm)
            population.append(model.population_size)
            points.append(model.integration_points)
            res_global.append(model._residual_var_global)
            regressors.append(model.regressor)
        if len(set(points)) != 1:
            return None
        # Cap the tensor-Simpson grid at ~70k points per group (m odd
        # nodes per dimension), as the reference box grid does.
        m = min(int(points[0]), max(9, int(round(70_000 ** (1.0 / d)))))
        if m % 2 == 0:
            m -= 1
        state: dict = {
            "ndim": d,
            "values": [value for value, _ in items],
            "centres": np.concatenate(centres, axis=0),
            "cweights": np.concatenate(weights),
            "coffsets": np.concatenate(([0], np.cumsum(counts))),
            "h": np.stack(h),
            "dom_lo": np.asarray(dom_lo),
            "dom_hi": np.asarray(dom_hi),
            "kde_lo": np.stack(kde_lo),
            "kde_hi": np.stack(kde_hi),
            "norm": np.asarray(norm),
            "population": np.asarray(population, dtype=np.float64),
            "points": int(points[0]),
            "grid_m": m,
            "res_global": np.asarray(res_global),
        }
        cls._derive_model_arrays_nd(state)
        if not cls._stack_regressors_nd(state, regressors):
            return None
        return state

    @staticmethod
    def _derive_model_arrays_nd(state: dict) -> None:
        """Precompute the per-centre expansions the nd hot loops need."""
        counts = np.diff(state["coffsets"])
        state["counts"] = counts
        inv_h = 1.0 / state["h"]
        state["inv_h"] = inv_h
        inv_h_rep = np.repeat(inv_h, counts, axis=0)
        state["inv_h_rep"] = inv_h_rep
        # Scaled centres: z_j = x_j * inv_h_j - centre_j_over_h_j avoids
        # a division per (centre, point, dim) triple in the pdf blocks.
        state["centre_over_h"] = state["centres"] * inv_h_rep
        # 1 / (prod_j h_j * sqrt(2 pi)^d * norm): the factor
        # MultivariateKDE.pdf divides by, applied once per group pdf row.
        state["pdf_scale"] = 1.0 / (
            np.prod(state["h"], axis=1)
            * _SQRT_2PI ** state["ndim"]
            * state["norm"]
        )

    @staticmethod
    def _stack_regressors_nd(state: dict, regressors: list) -> bool:
        """Classify the per-group regressors of a multivariate set."""
        if all(reg is None for reg in regressors):
            state["reg_mode"] = "none"
            return True
        if any(reg is None for reg in regressors):
            return False  # mixed presence: the per-group loop handles it
        d = state["ndim"]
        exported = []
        for reg in regressors:
            export = getattr(reg, "export_batch_state", None)
            exported.append(export() if export is not None else None)
        if all(
            e is not None and e[0] == "linear" and e[1].shape[0] == d + 1
            for e in exported
        ):
            state["reg_mode"] = "linear"
            state["reg_affine"] = np.stack([e[1] for e in exported])
        else:
            # Trees, boosters and ensembles have no stacked multivariate
            # form: the per-group predict loop remains while the density
            # work around it stays batched.
            state["reg_mode"] = "generic"
            state["reg_objects"] = list(regressors)
        return True

    @classmethod
    def _stack_regressors(cls, state: dict, regressors: list) -> bool:
        """Classify and (when possible) stack the per-group regressors."""
        if all(reg is None for reg in regressors):
            state["reg_mode"] = "none"
            return True
        if any(reg is None for reg in regressors):
            return False  # mixed presence: the per-group loop handles it
        exported = []
        for reg in regressors:
            export = getattr(reg, "export_batch_state", None)
            exported.append(export() if export is not None else None)
        kinds = {None if e is None else e[0] for e in exported}
        if kinds == {"plr"}:
            state["reg_mode"] = "plr"
            state["reg_plr"] = cls._stack_plr(exported)
        elif kinds == {"linear"}:
            state["reg_mode"] = "linear"
            state["reg_affine"] = np.stack([e[1] for e in exported])
        elif kinds == {"forest"}:
            state["reg_mode"] = "forest"
            state["reg_forest"] = cls._stack_forest(exported)
        elif all(isinstance(reg, EnsembleRegressor) for reg in regressors):
            ensemble_state = cls._stack_ensembles(regressors)
            if ensemble_state is None:
                return False
            state["reg_mode"] = "ensemble"
            state["reg_ens"] = ensemble_state
            state["reg_objects"] = list(regressors)
        else:
            # No pieces to integrate in closed form: not stackable, and
            # each group's own one-group evaluator refuses it too.
            return False
        return True

    @staticmethod
    def _stack_plr(exported: list[tuple]) -> dict:
        """Stack per-group ``("plr", knots, coef)`` exports flat (CSR)."""
        knots = [e[1] for e in exported]
        counts = [k.shape[0] for k in knots]
        return {
            "knots": np.concatenate(knots),
            "koffsets": np.concatenate(([0], np.cumsum(counts))),
            "hinge": np.concatenate([e[2][2:] for e in exported]),
            "affine": np.stack([e[2][:2] for e in exported]),
        }

    @staticmethod
    def _stack_forest(exported: list[tuple]) -> dict:
        """Stack per-group ``("forest", ...)`` exports into one flat forest.

        Child indices stay tree-local; ``toffsets`` maps every tree to
        its flat node range and ``gtoffsets`` maps every group to its
        tree range, so lock-step traversal and contiguous group slicing
        both reduce to offset arithmetic.
        """
        base = np.asarray([e[1] for e in exported], dtype=np.float64)
        lr = np.asarray([e[2] for e in exported], dtype=np.float64)
        tree_counts = np.asarray([e[3].shape[0] - 1 for e in exported])
        gtoffsets = np.concatenate(([0], np.cumsum(tree_counts)))
        node_counts = [int(e[3][-1]) for e in exported]
        node_base = np.concatenate(([0], np.cumsum(node_counts)))
        toffsets = np.concatenate(
            [e[3][:-1] + node_base[i] for i, e in enumerate(exported)]
            + [node_base[-1:]]
        )
        return {
            "base": base,
            "lr": lr,
            "gtoffsets": gtoffsets.astype(np.int64),
            "toffsets": toffsets.astype(np.int64),
            "feature": np.concatenate([e[4] for e in exported]),
            "threshold": np.concatenate([e[5] for e in exported]),
            "left": np.concatenate([e[6] for e in exported]),
            "right": np.concatenate([e[7] for e in exported]),
            "value": np.concatenate([e[8] for e in exported]),
        }

    @classmethod
    def _stack_ensembles(cls, regressors: list) -> dict | None:
        """Stack every ensemble constituent across groups, or None.

        Selection stays per group (each ensemble routes a query range
        through its own classifier), but once selected, all groups that
        picked the same constituent family evaluate through one stacked
        pass — piecewise-linear constituents via the hinge kernel, tree
        boosters via lock-step forest traversal.
        """
        names: set | None = None
        per_group: list[dict] = []
        for reg in regressors:
            states = reg.export_constituent_states()
            if states is None:
                return None
            if names is None:
                names = set(states)
            elif set(states) != names:
                return None
            per_group.append(states)
        plr: dict = {}
        forest: dict = {}
        for name in sorted(names):
            kinds = {states[name][0] for states in per_group}
            if kinds == {"plr"}:
                plr[name] = cls._stack_plr([s[name] for s in per_group])
            elif kinds == {"forest"}:
                forest[name] = cls._stack_forest([s[name] for s in per_group])
            else:
                return None
        return {"plr": plr, "forest": forest}

    @classmethod
    def _stack_raw(cls, model_set) -> dict | None:
        items = sorted(model_set.raw_groups.items(), key=lambda kv: kv[0])
        if not items:
            return None
        d = len(model_set.x_columns)
        xs, ys, counts, has_y, scale = [], [], [], [], []
        for _value, raw in items:
            if raw.x.ndim != 2 or raw.x.shape[1] != d or raw.x.shape[0] == 0:
                return None
            xs.append(raw.x)
            counts.append(raw.x.shape[0])
            has_y.append(raw.y is not None)
            ys.append(raw.y if raw.y is not None else np.zeros(raw.x.shape[0]))
            scale.append(raw.population_scale)
        return {
            "values": [value for value, _ in items],
            "x": np.concatenate(xs, axis=0),
            "y": np.concatenate(ys),
            "offsets": np.concatenate(([0], np.cumsum(counts))),
            "counts": np.asarray(counts),
            "has_y": np.asarray(has_y, dtype=bool),
            "scale": np.asarray(scale, dtype=np.float64),
        }

    # -- introspection ------------------------------------------------------

    @property
    def n_groups(self) -> int:
        n = 0
        if self._m is not None:
            n += len(self._m["values"])
        if self._r is not None:
            n += len(self._r["values"])
        return n

    # -- splitting (for worker pools) ---------------------------------------

    def split(self, n_chunks: int) -> list["BatchedGroupEvaluator"]:
        """Contiguous group segments sharing this evaluator's arrays.

        Worker pools pickle the (cheap, plain-array) segments instead of
        the per-group model objects the per-group loop ships.
        """
        if n_chunks < 1:
            raise InvalidParameterError(f"n_chunks must be >= 1, got {n_chunks}")
        model_parts = self._split_models(n_chunks)
        raw_parts = self._split_raw(n_chunks)
        length = max(len(model_parts), len(raw_parts))
        parts = []
        for i in range(length):
            part = BatchedGroupEvaluator(
                self.x_columns,
                self.y_column,
                model_parts[i] if i < len(model_parts) else None,
                raw_parts[i] if i < len(raw_parts) else None,
            )
            if part.n_groups:
                parts.append(part)
        return parts or [self]

    def _split_models(self, n_chunks: int) -> list[dict | None]:
        if self._m is None:
            return []
        if self._m.get("ndim", 1) != 1:
            return self._split_models_nd(n_chunks)
        state = self._m
        g = len(state["values"])
        bounds = chunk_bounds(g, n_chunks)
        parts = []
        for g0, g1 in bounds:
            c0, c1 = state["coffsets"][g0], state["coffsets"][g1]
            e0, e1 = state["res_eoffsets"][g0], state["res_eoffsets"][g1]
            v0, v1 = state["res_voffsets"][g0], state["res_voffsets"][g1]
            part = {
                "values": state["values"][g0:g1],
                "centres": state["centres"][c0:c1],
                "cweights": state["cweights"][c0:c1],
                "coffsets": state["coffsets"][g0:g1 + 1] - c0,
                "points": state["points"],
                "res_edges": state["res_edges"][e0:e1],
                "res_var": state["res_var"][v0:v1],
                "res_eoffsets": state["res_eoffsets"][g0:g1 + 1] - e0,
                "res_voffsets": state["res_voffsets"][g0:g1 + 1] - v0,
                "reg_mode": state["reg_mode"],
            }
            for key in ("h", "sup_lo", "sup_hi", "dom_lo", "dom_hi", "reflect",
                        "pm_mask", "pm_value", "population", "res_global"):
                part[key] = state[key][g0:g1]
            if state["reg_mode"] == "plr":
                part["reg_plr"] = self._slice_plr(state["reg_plr"], g0, g1)
            elif state["reg_mode"] == "linear":
                part["reg_affine"] = state["reg_affine"][g0:g1]
            elif state["reg_mode"] == "forest":
                part["reg_forest"] = self._slice_forest(
                    state["reg_forest"], g0, g1
                )
            elif state["reg_mode"] == "ensemble":
                part["reg_ens"] = {
                    "plr": {
                        name: self._slice_plr(sub, g0, g1)
                        for name, sub in state["reg_ens"]["plr"].items()
                    },
                    "forest": {
                        name: self._slice_forest(sub, g0, g1)
                        for name, sub in state["reg_ens"]["forest"].items()
                    },
                }
                part["reg_objects"] = state["reg_objects"][g0:g1]
            # Slice the derived expansions instead of re-deriving them:
            # bit-identical (plain contiguous slices) and, on a mapped
            # state, the parts stay zero-copy views of the same pages.
            a0, a1 = state["aug_offsets"][g0], state["aug_offsets"][g1]
            part["inv_h"] = state["inv_h"][g0:g1]
            part["aug_counts"] = state["aug_counts"][g0:g1]
            part["aug_offsets"] = state["aug_offsets"][g0:g1 + 1] - a0
            part["aug_centre_over_h"] = state["aug_centre_over_h"][a0:a1]
            part["aug_weights"] = state["aug_weights"][a0:a1]
            parts.append(part)
        return parts

    def _split_models_nd(self, n_chunks: int) -> list[dict | None]:
        """Contiguous group slices of a stacked multivariate state."""
        state = self._m
        parts = []
        for g0, g1 in chunk_bounds(len(state["values"]), n_chunks):
            c0, c1 = state["coffsets"][g0], state["coffsets"][g1]
            part = {
                "ndim": state["ndim"],
                "values": state["values"][g0:g1],
                "centres": state["centres"][c0:c1],
                "cweights": state["cweights"][c0:c1],
                "coffsets": state["coffsets"][g0:g1 + 1] - c0,
                "points": state["points"],
                "grid_m": state["grid_m"],
                "reg_mode": state["reg_mode"],
            }
            for key in ("h", "dom_lo", "dom_hi", "kde_lo", "kde_hi",
                        "norm", "population", "res_global"):
                part[key] = state[key][g0:g1]
            if state["reg_mode"] == "linear":
                part["reg_affine"] = state["reg_affine"][g0:g1]
            elif state["reg_mode"] == "generic":
                part["reg_objects"] = state["reg_objects"][g0:g1]
            for key in ("counts", "inv_h", "pdf_scale"):
                part[key] = state[key][g0:g1]
            for key in ("inv_h_rep", "centre_over_h"):
                part[key] = state[key][c0:c1]
            parts.append(part)
        return parts

    @staticmethod
    def _slice_plr(plr: dict, g0: int, g1: int) -> dict:
        """Contiguous group slice of a stacked piecewise-linear state."""
        k0, k1 = plr["koffsets"][g0], plr["koffsets"][g1]
        return {
            "knots": plr["knots"][k0:k1],
            "hinge": plr["hinge"][k0:k1],
            "koffsets": plr["koffsets"][g0:g1 + 1] - k0,
            "affine": plr["affine"][g0:g1],
        }

    @staticmethod
    def _slice_forest(forest: dict, g0: int, g1: int) -> dict:
        """Contiguous group slice of a stacked forest state."""
        t0, t1 = forest["gtoffsets"][g0], forest["gtoffsets"][g1]
        n0, n1 = forest["toffsets"][t0], forest["toffsets"][t1]
        return {
            "base": forest["base"][g0:g1],
            "lr": forest["lr"][g0:g1],
            "gtoffsets": forest["gtoffsets"][g0:g1 + 1] - t0,
            "toffsets": forest["toffsets"][t0:t1 + 1] - n0,
            "feature": forest["feature"][n0:n1],
            "threshold": forest["threshold"][n0:n1],
            "left": forest["left"][n0:n1],
            "right": forest["right"][n0:n1],
            "value": forest["value"][n0:n1],
        }

    def _split_raw(self, n_chunks: int) -> list[dict | None]:
        if self._r is None:
            return []
        state = self._r
        parts = []
        for g0, g1 in chunk_bounds(len(state["values"]), n_chunks):
            r0, r1 = state["offsets"][g0], state["offsets"][g1]
            parts.append({
                "values": state["values"][g0:g1],
                "x": state["x"][r0:r1],
                "y": state["y"][r0:r1],
                "offsets": state["offsets"][g0:g1 + 1] - r0,
                "counts": state["counts"][g0:g1],
                "has_y": state["has_y"][g0:g1],
                "scale": state["scale"][g0:g1],
            })
        return parts

    # -- answering ----------------------------------------------------------

    def answer(self, aggregate: AggregateCall, ranges: Ranges) -> dict:
        """One aggregate for every group, in a handful of array passes."""
        registry = get_registry()
        t0 = perf_counter() if registry.enabled else 0.0
        out: dict = {}
        if self._m is not None:
            out.update(self._answer_models(aggregate, ranges))
        if self._r is not None:
            out.update(self._answer_raw(aggregate, ranges))
        if registry.enabled:
            registry.histogram("repro_kernel_answer_seconds").observe(
                perf_counter() - t0
            )
            registry.counter(
                "repro_kernel_groups_total", {"func": aggregate.func}
            ).inc(len(out))
        return out

    # -- model groups -------------------------------------------------------

    def _answer_models(self, aggregate: AggregateCall, ranges: Ranges) -> dict:
        """One aggregate for every model group, 1-D or multivariate.

        COUNT and PERCENTILE integrate the density alone, as do AVG /
        VARIANCE / STDDEV of a predicate column (1-D only); SUM, and AVG
        / VARIANCE / STDDEV of the dependent column, integrate the
        regressor against it.
        """
        func, column = aggregate.func, aggregate.column
        on_x = column is not None and column in self.x_columns
        on_y = column is not None and column == self.y_column
        one_d = self._m.get("ndim", 1) == 1
        if one_d:
            lb, ub = self._normalised_bounds(ranges)
        else:
            lb, ub = self._normalised_bounds_nd(ranges)

        if func == "COUNT":
            vals = self._count(lb, ub) if one_d else self._count_nd(lb, ub)
        elif func == "PERCENTILE":
            if not on_x:
                raise UnsupportedQueryError(
                    f"PERCENTILE must target the predicate column "
                    f"{self.x_columns}, got {column!r}"
                )
            if not one_d:
                raise UnsupportedQueryError(
                    "PERCENTILE needs a single predicate column"
                )
            vals = self._percentile(aggregate.parameter, bool(ranges), lb, ub)
        elif func in ("AVG", "SUM", "VARIANCE", "STDDEV"):
            if func == "SUM" and not on_y:
                raise UnsupportedQueryError(
                    f"SUM column {column!r} is not the model's dependent "
                    f"column ({self.y_column!r})"
                )
            if not (on_x or on_y):
                raise UnsupportedQueryError(
                    f"{func} column {column!r} is neither the model's x nor y"
                )
            if on_x and not one_d:
                raise UnsupportedQueryError(
                    f"density-based {func} is only defined for one "
                    "predicate column"
                )
            if one_d:
                den, num1, num2, cache = self._moments(lb, ub, use_regressor=on_y)
            else:
                den, num1, num2 = self._moments_nd(lb, ub)
            if func == "AVG":
                vals = _ratio(num1, den) if on_y else _ratio(num1, den, floor=0.0)
            elif func == "SUM":
                # In 1-D the closed form's ∫D is the mass COUNT
                # multiplies by the population.
                count = self._count(lb, ub, den) if one_d else self._count_nd(lb, ub)
                avg = _ratio(num1, den)
                vals = np.where((count <= 0.0) | np.isnan(avg), 0.0, count * avg)
            else:
                # Equation 8's explained part; for y, plus E[Var(y|x)]
                # (law of total variance) - multivariate models keep the
                # global residual variance only.
                vals = _ratio(num2, den) - _ratio(num1, den) ** 2
                if on_y and one_d:
                    vals += self._expected_residual_variance(den, cache)
                elif on_y:
                    vals += self._m["res_global"]
                vals = np.maximum(0.0, vals)
                if func == "STDDEV":
                    vals = np.sqrt(vals)
        else:
            raise UnsupportedQueryError(f"unsupported aggregate {func!r}")
        return dict(zip(self._m["values"], vals.tolist()))

    def _normalised_bounds(self, ranges: Ranges) -> tuple[np.ndarray, np.ndarray]:
        """Per-group (lb, ub); unconstrained groups default to their domain."""
        state = self._m
        entry = ranges.get(self.x_columns[0]) if ranges else None
        if entry is None:
            return state["dom_lo"], state["dom_hi"]
        lb, ub = entry
        if ub < lb:
            raise InvalidParameterError(
                f"range on {self.x_columns[0]!r} reversed: [{lb}, {ub}]"
            )
        lb_all, ub_all = np.empty((2, len(state["values"])))
        lb_all.fill(lb)
        ub_all.fill(ub)
        return lb_all, ub_all

    def _count(
        self, lb: np.ndarray, ub: np.ndarray, mass: np.ndarray | None = None
    ) -> np.ndarray:
        """COUNT = population * clipped mixture mass, all groups at once.

        The mass is ``M0(tb) - M0(ta)`` at the clipped ends, or ``mass``
        (the per-group ``∫D``, 0 on an empty range) when the caller
        already holds it; point-mass groups keep their inclusive rule
        either way.
        """
        state = self._m
        a = np.maximum(lb, state["sup_lo"])
        b = np.minimum(ub, state["sup_hi"])
        if mass is None:
            g = a.shape[0]
            every = np.arange(g)
            mass_at = self._mass_below(np.concatenate((every, every)))
            ends = mass_at(np.concatenate((a, b)))
            mass = np.where(b > a, ends[g:] - ends[:g], 0.0)
        frac = np.maximum(mass, 0.0)
        pm, at = state["pm_mask"], state["pm_value"]
        if pm.any():
            frac = np.where(pm, (b > a) & (a <= at) & (at <= b), frac)
        return state["population"] * frac

    # -- moment machinery ---------------------------------------------------

    _GRID_CACHE_MAX = 8
    # Element budget for the multivariate grid machinery: one nd entry
    # holds (points + weights + pdf) ~ (d + 2) * G * m^d floats — with
    # the default 257-point grid that is tens of MB per entry, so the
    # entry cap alone could pin GBs.  Cached entries evict oldest-first
    # until a new entry fits; a query whose single entry would exceed
    # the budget streams its groups through budget-sized blocks instead,
    # so construction memory is bounded too.
    _ND_GRID_CACHE_ELEMENTS = 32_000_000  # ~256 MB of float64

    def _moments(
        self, lb: np.ndarray, ub: np.ndarray, use_regressor: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """(∫D, ∫fD, ∫f²D) per group over its clipped range, closed form.

        ``f`` is the regressor or, without one, the identity.  The
        integrals come from the cumulative mixture moments at the range
        ends (memoised by query bounds, so SUM, AVG and VARIANCE over
        the same ranges share one kernel pass) and at the breakpoints of
        the group's pieces (query-independent, see :meth:`_piece_table`).
        An ensemble group uses the pieces of the constituent its own
        ``select(lb, ub)`` picks.  The returned memo entry lets
        VARIANCE's residual pass reuse the end points within one call.
        """
        state = self._m
        g = len(state["values"])
        key = (lb.tobytes(), ub.tobytes())
        registry = get_registry()
        t0 = perf_counter() if registry.enabled else 0.0
        cache = self._grid_cache.get(key)
        if cache is None:
            self._grid_misses += 1
            if registry.enabled:
                registry.counter("repro_grid_cache_misses_total").inc()
            a = np.maximum(lb, state["sup_lo"])
            b = np.minimum(ub, state["sup_hi"])
            active = np.flatnonzero(b > a)
            cache = {"active": active}
            if active.size:
                cache.update(self._range_ends(active, a[active], b[active]))
            self._evict_grid_entries()
            self._grid_cache[key] = cache
        else:
            self._grid_hits += 1
            if registry.enabled:
                registry.counter("repro_grid_cache_hits_total").inc()
        active = cache["active"]
        den, num1, num2 = np.zeros((3, g))
        if active.size == 0:
            return den, num1, num2, cache
        mode = state["reg_mode"]
        if not use_regressor:
            parts = [("identity", None, slice(None))]
        elif mode == "none":
            raise UnsupportedQueryError(
                f"model on {self.x_columns} has no regression model; "
                "regression-based aggregates need a y column"
            )
        elif mode == "ensemble":
            objects = state["reg_objects"]
            picked: dict = {}
            for row, i in enumerate(active.tolist()):
                name = objects[i].select(float(lb[i]), float(ub[i]))
                picked.setdefault(name, []).append(row)
            parts = [
                ("regressor", name,
                 slice(None) if len(rows) == active.size else np.asarray(rows))
                for name, rows in picked.items()
            ]
        else:
            parts = [("regressor", None, slice(None))]
        for kind, name, rows in parts:
            table = self._piece_table(kind, name)
            sub = active[rows]
            pieces, d = self._range_pieces(table, cache, rows)
            den[sub], num1[sub], num2[sub] = affine_piece_integrals(
                d, table["alpha"][sub, pieces], table["beta"][sub, pieces]
            )
        if registry.enabled:
            registry.histogram("repro_kernel_moments_seconds").observe(
                perf_counter() - t0
            )
        return den, num1, num2, cache

    # -- closed-form machinery (repro.integrate.moments) ----------------------

    def _unit_mixtures(self) -> dict:
        """Every group's mixture in its unit-bandwidth coordinate.

        ``u = (x - x0) / h`` with ``x0`` the support midpoint; ``g`` /
        ``w`` are the (mirrored-in) centres and weights, flat over
        ``aug_offsets``, ascending within each group — a state stacked
        from an older pickle or store's unsorted centres is sorted here.
        """
        unit = self._pieces.get("unit")
        if unit is None:
            state = self._m
            x0 = 0.5 * (state["sup_lo"] + state["sup_hi"])
            counts = state["aug_counts"]
            g = state["aug_centre_over_h"] - np.repeat(x0 * state["inv_h"], counts)
            w = state["aug_weights"]
            down = g[1:] < g[:-1]
            down[state["aug_offsets"][1:-1] - 1] = False  # group boundaries
            if down.any():
                order = np.lexsort((g, np.repeat(np.arange(counts.shape[0]), counts)))
                g, w = g[order], w[order]
            unit = self._pieces["unit"] = {
                "x0": x0, "g": g, "w": w, "left": left_terms(g, w),
            }
        return unit

    def _cumulative_moments(
        self, group: np.ndarray, t: np.ndarray, degree: int = 2
    ) -> np.ndarray:
        unit = self._unit_mixtures()
        return cumulative_moments(
            unit["g"], unit["w"], self._m["aug_offsets"], group, t, degree,
            unit["left"],
        )

    def _mass_below(self, groups: np.ndarray):
        """``t -> M0`` of each listed group's mixture at its own point:
        differences are the KDE's mass between points (a point mass is a
        unit step)."""
        state = self._m
        x0 = self._unit_mixtures()["x0"][groups]
        inv_h = state["inv_h"][groups]
        pm, at = state["pm_mask"][groups], state["pm_value"][groups]
        if not pm.any():
            pm = None

        def mass(t: np.ndarray) -> np.ndarray:
            m0 = self._cumulative_moments(groups, (t - x0) * inv_h, degree=0)[:, 0]
            return m0 if pm is None else np.where(pm, t >= at, m0)

        return mass

    def _range_ends(self, active: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
        """Cumulative moments at both clipped ends of each active group."""
        x0 = self._unit_mixtures()["x0"][active]
        inv_h = self._m["inv_h"][active]
        ta, tb = (a - x0) * inv_h, (b - x0) * inv_h
        ends = self._cumulative_moments(
            np.concatenate((active, active)), np.concatenate((ta, tb))
        )
        return {"ta": ta, "tb": tb, "ends": ends.reshape(2, -1, 3).swapaxes(0, 1)}

    def _piece_table(self, kind: str, name: str | None = None) -> dict:
        """Breakpoints and per-piece coefficients of one integrand family.

        ``"identity"`` (f = x, one piece), ``"regressor"`` (the stacked
        regressor, or with ``name`` that ensemble constituent: pieces on
        which ``R(u) = alpha·u + beta``, see :meth:`_regressor_pieces`)
        or ``"residual"`` (pieces between residual-variance bin edges,
        on which sigma² is ``var``).  ``cuts`` holds each group's
        breakpoints in unit coordinates, padded with +inf; ``moments``
        the cumulative mixture moments at them — query-independent, so
        :meth:`_range_pieces` fills each cell the first time a range
        covers it and reads it ever after.
        """
        table = self._pieces.get((kind, name))
        if table is not None:
            return table
        state = self._m
        n_groups = len(state["values"])
        x0 = self._unit_mixtures()["x0"]
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        cuts_x = np.empty(0)
        if kind == "residual":
            offsets, cuts_x = state["res_eoffsets"], state["res_edges"]
            table = {}
        elif kind == "regressor" and name is not None:
            ens = state["reg_ens"]
            mode = "plr" if name in ens["plr"] else "forest"
            offsets, cuts_x, table = self._regressor_pieces(mode, ens[mode][name])
        elif kind == "regressor":
            mode = state["reg_mode"]
            source = state["reg_affine" if mode == "linear" else f"reg_{mode}"]
            offsets, cuts_x, table = self._regressor_pieces(mode, source)
        else:
            table = {"alpha": state["h"][:, None], "beta": x0[:, None]}
        counts = np.diff(offsets)
        table["cuts"] = _pad_rows(
            (cuts_x - np.repeat(x0, counts)) * np.repeat(state["inv_h"], counts),
            offsets, np.inf,
        )
        table["moments"] = np.full(table["cuts"].shape + (3,), np.nan)
        if kind == "residual":
            table["var"] = _pad_rows(
                state["res_var"], state["res_voffsets"], 0.0,
                width=table["cuts"].shape[1] + 1,
            )
        self._pieces[(kind, name)] = table
        return table

    def _regressor_pieces(self, mode: str, source) -> tuple:
        """``(offsets, breakpoints, {"alpha", "beta"})`` of stacked fits.

        ``linear`` is one affine piece; ``plr`` is affine between its
        knots; a ``forest`` (``tree`` / ``gboost`` / ``xgboost``) is
        constant between its sorted distinct split thresholds, the piece
        ``(t[k-1], t[k]]`` taking the value at ``t[k]`` (``x <= t`` goes
        left) and the last piece the value at +inf — tabulated once by
        :meth:`_forest_predict` on rows padded with +inf.
        """
        state = self._m
        n_groups = len(state["values"])
        x0 = self._unit_mixtures()["x0"]
        h = state["h"][:, None]
        if mode == "linear":
            return np.zeros(n_groups + 1, dtype=np.int64), np.empty(0), {
                "alpha": h * source[:, 1:2],
                "beta": source[:, 0:1] + source[:, 1:2] * x0[:, None],
            }
        if mode == "plr":
            offsets, knots, hinge = source["koffsets"], source["knots"], source["hinge"]
            lift = hinge * (np.repeat(x0, np.diff(offsets)) - knots)
            zero = np.zeros((n_groups, 1))
            c0, c1 = source["affine"][:, 0:1], source["affine"][:, 1:2]
            slope = c1 + np.concatenate(
                [zero, np.cumsum(_pad_rows(hinge, offsets, 0.0), axis=1)], axis=1
            )
            value = (c0 + c1 * x0[:, None]) + np.concatenate(
                [zero, np.cumsum(_pad_rows(lift, offsets, 0.0), axis=1)], axis=1
            )
            return offsets, knots, {"alpha": h * slope, "beta": value}
        toffsets, gtoffsets = source["toffsets"], source["gtoffsets"]
        node_group = np.repeat(np.arange(n_groups), np.diff(toffsets[gtoffsets]))
        internal = source["feature"] >= 0
        group, cut = node_group[internal], source["threshold"][internal]
        order = np.lexsort((cut, group))
        group, cut = group[order], cut[order]
        distinct = np.ones(group.shape[0], dtype=bool)
        distinct[1:] = (group[1:] != group[:-1]) | (cut[1:] != cut[:-1])
        group, cut = group[distinct], cut[distinct]
        counts = np.bincount(group, minlength=n_groups)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        points = _pad_rows(cut, offsets, np.inf, width=int(counts.max(initial=0)) + 1)
        value = np.empty_like(points)
        # Groups go through the traversal in runs of ~1M (tree, point)
        # pairs, which bounds its temporaries.
        pairs = np.diff(gtoffsets) * points.shape[1]
        chunks = _chunk_by_budget(pairs, 1 << 20)
        for g0, g1 in zip(chunks[:-1].tolist(), chunks[1:].tolist()):
            value[g0:g1] = self._forest_predict(
                source, np.arange(g0, g1), points[g0:g1]
            )
        return offsets, cut, {"alpha": np.zeros_like(value), "beta": value}

    def _range_pieces(self, table: dict, cache: dict, rows) -> tuple[slice, np.ndarray]:
        """``(pieces, d)``: moment differences across the table's pieces.

        ``rows`` picks the active groups (positions in the memo entry)
        whose clipped ranges are cut at the table's breakpoints.
        ``d[:, k]`` (shape ``(A, K, 3)``) belongs to piece
        ``pieces.start + k``, the K pieces spanning every picked range; a
        breakpoint outside a range collapses onto the nearer end, so its
        pieces carry exactly zero, as every piece outside the span would.
        """
        active, ends = cache["active"][rows], cache["ends"][rows]
        ta, tb = cache["ta"][rows][:, None], cache["tb"][rows][:, None]
        cuts = table["cuts"][active]
        # Each row's cuts ascend, so "<= ta" and "< tb" hold on a prefix
        # of it: the shortest and the longest prefix bound the span.
        below, under = cuts <= ta, cuts < tb
        first = np.count_nonzero(np.logical_and.reduce(below, axis=0))
        last = np.count_nonzero(np.logical_or.reduce(under, axis=0))
        below = below[:, first:last, None]
        inside = under[:, first:last, None] > below
        at_cuts = table["moments"][active, first:last]
        hit, col = np.nonzero(
            inside[:, :, 0] & np.logical_or.reduce(np.isnan(at_cuts), axis=2)
        )
        if hit.size:
            fresh = self._cumulative_moments(active[hit], cuts[hit, first + col])
            table["moments"][active[hit], first + col] = fresh
            at_cuts[hit, col] = fresh
        clipped = np.where(
            inside, at_cuts, np.where(below, ends[:, None, 0], ends[:, None, 1])
        )
        cells = np.concatenate([ends[:, :1], clipped, ends[:, 1:]], axis=1)
        return slice(first, last + 1), cells[:, 1:] - cells[:, :-1]

    @staticmethod
    def _forest_predict(
        forest: dict, active: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Lock-step traversal of every active group's boosted trees.

        All (tree, node-row) pairs advance one level per iteration over
        the flat stacked node arrays — a per-group, per-stage Python
        loop becomes ~max_depth gather passes — then per-group
        learning-rate-scaled leaf sums reduce with one
        ``np.add.reduceat``, in a booster's own accumulation order.
        """
        gtoffsets = forest["gtoffsets"]
        tree_idx = _csr_take_rows(gtoffsets, active)
        tree_counts = np.diff(gtoffsets)[active]
        roots = forest["toffsets"][:-1][tree_idx]
        lg = np.repeat(np.arange(active.shape[0]), tree_counts)
        x = nodes[lg]                                   # (T, m)
        offs = roots[:, None]
        pos = np.broadcast_to(offs, x.shape).copy()
        feature = forest["feature"]
        threshold = forest["threshold"]
        left = forest["left"]
        right = forest["right"]
        # A root-to-leaf path can never visit more nodes than the
        # largest tree holds, so this bound is exact; leftover internal
        # positions afterwards mean cyclic/corrupt node arrays, which
        # must raise rather than silently return split-node values.
        depth_bound = int(np.max(np.diff(forest["toffsets"]), initial=1))
        for _ in range(depth_bound):
            feat = feature[pos]
            internal = feat >= 0
            if not internal.any():
                break
            child = np.where(x <= threshold[pos], left[pos], right[pos])
            pos = np.where(internal, offs + child, pos)
        else:
            if (feature[pos] >= 0).any():
                raise QueryExecutionError(
                    "stacked forest traversal did not reach leaves within "
                    f"{depth_bound} levels; node arrays are corrupt"
                )
        contrib = forest["value"][pos]
        contrib *= forest["lr"][active][lg, None]
        local_toffsets = np.concatenate(([0], np.cumsum(tree_counts)))
        summed = np.add.reduceat(contrib, local_toffsets[:-1], axis=0)
        return summed + forest["base"][active][:, None]

    # -- aggregate bodies ---------------------------------------------------

    def _expected_residual_variance(
        self, den: np.ndarray, cache: dict
    ) -> np.ndarray:
        """E[Var(y|x)] per group, reusing the moment pass's memo entry.

        sigma²(x) is constant between residual edges, so the expectation
        is each bin's variance weighted by the bin's mass.
        """
        state = self._m
        out = state["res_global"].copy()
        active = cache["active"]
        if active.size == 0:
            return out
        registry = get_registry()
        t0 = perf_counter() if registry.enabled else 0.0
        table = self._piece_table("residual")
        bins, d = self._range_pieces(table, cache, slice(None))
        mass = d[:, :, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = ordered_sum(table["var"][active, bins] * mass) / den[active]
        binned = (np.diff(state["res_eoffsets"])[active] > 0) & (
            den[active] > _EMPTY_DENSITY
        )
        out[active] = np.where(binned, expected, out[active])
        if registry.enabled:
            registry.histogram("repro_kernel_moments_seconds").observe(
                perf_counter() - t0
            )
        return out

    # -- percentile ---------------------------------------------------------

    def _percentile(
        self,
        p: float,
        has_ranges: bool,
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> np.ndarray:
        """All groups' bisections in lock-step (``integrate.bisect_many``)."""
        state = self._m
        if not 0.0 < p < 1.0:
            raise InvalidParameterError(
                f"percentile p must be in (0, 1), got {p}"
            )
        lo = state["sup_lo"].copy()
        hi = state["sup_hi"].copy()
        if has_ranges:
            lo = np.maximum(lo, lb)
            hi = np.minimum(hi, ub)
        if np.any(hi < lo):
            bad = int(np.flatnonzero(hi < lo)[0])
            raise InvalidParameterError(
                f"integration bounds reversed: [{lo[bad]}, {hi[bad]}]"
            )
        mass = self._mass_below(np.arange(lo.shape[0]))
        base = mass(lo)
        total = mass(hi) - base
        pm_inside = (lo <= state["pm_value"]) & (state["pm_value"] <= hi)
        total = np.where(state["pm_mask"], pm_inside.astype(np.float64), total)
        result = np.full(lo.shape[0], np.nan)
        alive = np.flatnonzero(total > _EMPTY_DENSITY)
        base, total, mass = base[alive], total[alive], self._mass_below(alive)
        result[alive] = bisect_many(
            lambda t: (mass(t) - base) / total - p, lo[alive], hi[alive], tol=1e-9,
        )
        return result

    # -- multivariate model groups ------------------------------------------

    def _normalised_bounds_nd(
        self, ranges: Ranges
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-group ``(G, d)`` bounds; unconstrained dims default to domain."""
        state = self._m
        lb = state["dom_lo"].copy()
        ub = state["dom_hi"].copy()
        for j, column in enumerate(self.x_columns):
            entry = ranges.get(column) if ranges else None
            if entry is None:
                continue
            low, high = entry
            if high < low:
                raise InvalidParameterError(
                    f"range on {column!r} reversed: [{low}, {high}]"
                )
            lb[:, j] = float(low)
            ub[:, j] = float(high)
        return lb, ub

    def _count_nd(self, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """COUNT = population * renormalised box mass, all groups at once."""
        state = self._m
        frac = np.zeros(len(state["values"]))
        # Two clips: to the model domain (empty when any high <= low),
        # then to the KDE's own domain, as integrate_box does (empty
        # when any high < low).
        a = np.maximum(lb, state["dom_lo"])
        b = np.minimum(ub, state["dom_hi"])
        open_box = (b > a).all(axis=1)
        a = np.maximum(a, state["kde_lo"])
        b = np.minimum(b, state["kde_hi"])
        open_box &= ~(b < a).any(axis=1)
        active = np.flatnonzero(open_box)
        if active.size:
            mass = self._box_mass_nd(active, a[active], b[active])
            frac[active] = np.maximum(0.0, mass / state["norm"][active])
        return state["population"] * frac

    def _box_mass_nd(
        self, active: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Raw product-kernel box mass per active group (one ndtr pass).

        Each centre contributes the product over dimensions of its 1-D
        normal-CDF differences; per-group sums reduce the flat CSR with
        ``np.add.reduceat``.
        """
        state = self._m
        counts = state["counts"][active]
        local_offsets = np.concatenate(([0], np.cumsum(counts)))
        rows = _csr_take_rows(state["coffsets"], active)
        centres = state["centres"][rows]
        inv_h = state["inv_h_rep"][rows]
        upper = ndtr((np.repeat(b, counts, axis=0) - centres) * inv_h)
        lower = ndtr((np.repeat(a, counts, axis=0) - centres) * inv_h)
        per_point = np.prod(upper - lower, axis=1)
        per_point *= state["cweights"][rows]
        return _segment_sum(per_point, local_offsets)

    def _moments_nd(
        self, lb: np.ndarray, ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(∫D, ∫RD, ∫R²D) per group over its tensor-Simpson box grid.

        The per-group grids, combined Simpson weights and pdf rows are
        memoised by query bounds exactly as in :meth:`_moments`, so SUM,
        AVG and VARIANCE over the same ranges share one product-kernel
        exp pass.  Memory stays bounded in the group count: when one
        entry would exceed the cache's element budget, the groups stream
        through budget-sized blocks instead (no memoisation, never more
        than one block of grids in flight).
        """
        state = self._m
        g = len(state["values"])
        den = np.zeros(g)
        num1 = np.zeros(g)
        num2 = np.zeros(g)
        key = (lb.tobytes(), ub.tobytes())
        registry = get_registry()
        cache = self._grid_cache.get(key)
        if cache is None:
            self._grid_misses += 1
            if registry.enabled:
                registry.counter("repro_grid_cache_misses_total").inc()
            a = np.maximum(lb, state["dom_lo"])
            b = np.minimum(ub, state["dom_hi"])
            active = np.flatnonzero((b > a).all(axis=1))
            per_group = (state["ndim"] + 2) * state["grid_m"] ** state["ndim"]
            elements = int(active.size) * per_group
            if elements > self._ND_GRID_CACHE_ELEMENTS:
                block_starts = _chunk_by_budget(
                    np.full(active.size, per_group, dtype=np.int64),
                    self._ND_GRID_CACHE_ELEMENTS,
                )
                for i0, i1 in zip(block_starts[:-1], block_starts[1:]):
                    block = active[i0:i1]
                    points, weights = self._box_grid_nd(block, a, b)
                    pdf = self._pdf_box_grid(block, points)
                    self._reduce_moments_nd(
                        block, points, weights, pdf, den, num1, num2
                    )
                return den, num1, num2
            cache = {"active": active, "elements": elements}
            if active.size:
                points, weights = self._box_grid_nd(active, a, b)
                cache.update(
                    points=points,
                    weights=weights,
                    pdf=self._pdf_box_grid(active, points),
                )
            self._evict_grid_entries(need_room_for=elements)
            self._grid_cache[key] = cache
        else:
            self._grid_hits += 1
            if registry.enabled:
                registry.counter("repro_grid_cache_hits_total").inc()
        active = cache["active"]
        if active.size:
            self._reduce_moments_nd(
                active, cache["points"], cache["weights"], cache["pdf"],
                den, num1, num2,
            )
        return den, num1, num2

    def _box_grid_nd(
        self, active: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tensor-Simpson grids of the given groups' clipped boxes.

        Returns ``(points, weights)`` of shapes ``(A, m^d, d)`` and
        ``(A, m^d)`` in C-order meshgrid-ravel layout (digit j indexes
        dim j's nodes, dim 0 major).
        """
        state = self._m
        d = state["ndim"]
        m = state["grid_m"]
        nodes = np.linspace(a[active], b[active], m, axis=-1)
        wdim = simpson_weights(m)[None, None, :] * (
            (b[active] - a[active]) / (m - 1) / 3.0
        )[:, :, None]
        digits = np.indices((m,) * d).reshape(d, -1)
        points = np.stack(
            [nodes[:, j, digits[j]] for j in range(d)], axis=2
        )
        weights = wdim[:, 0, digits[0]]
        for j in range(1, d):
            weights = weights * wdim[:, j, digits[j]]
        return points, weights

    def _reduce_moments_nd(
        self,
        active: np.ndarray,
        points: np.ndarray,
        weights: np.ndarray,
        pdf: np.ndarray,
        den: np.ndarray,
        num1: np.ndarray,
        num2: np.ndarray,
    ) -> None:
        """Weighted moment reductions of one block of group grids."""
        wd = weights * pdf
        den[active] = wd.sum(axis=1)
        f = self._predict_box_grid(active, points)
        num1[active] = (wd * f).sum(axis=1)
        num2[active] = (wd * f * f).sum(axis=1)

    def _pdf_box_grid(self, active: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Renormalised product-kernel pdf of each active group's grid.

        One kernel term per (centre, grid-point) pair, worked through
        the CSR in cache-sized blocks of whole groups.  Squared z-scores
        accumulate dimension by dimension, so no ``(rows, points, d)``
        temporary is ever materialised.
        """
        state = self._m
        d = state["ndim"]
        n_active, n_points, _ = points.shape
        # Dim-major contiguous layout: the per-centre row gathers below
        # then copy contiguous rows instead of striding over dimensions.
        ps = np.ascontiguousarray(
            np.moveaxis(points * state["inv_h"][active][:, None, :], 2, 0)
        )
        counts = state["counts"][active]
        local_offsets = np.concatenate(([0], np.cumsum(counts)))
        flat_rows = _csr_take_rows(state["coffsets"], active)
        local_group = np.repeat(np.arange(n_active), counts)
        coh = state["centre_over_h"][flat_rows]
        cw = state["cweights"][flat_rows]
        out = np.empty((n_active, n_points))
        chunk_starts = _chunk_by_budget(counts * n_points, _PDF_BLOCK)
        for g0, g1 in zip(chunk_starts[:-1], chunk_starts[1:]):
            r0, r1 = local_offsets[g0], local_offsets[g1]
            rows = slice(r0, r1)
            lg = local_group[rows]
            acc = ps[0].take(lg, axis=0)
            acc -= coh[rows, 0][:, None]
            np.square(acc, out=acc)
            for j in range(1, d):
                z = ps[j].take(lg, axis=0)
                z -= coh[rows, j][:, None]
                np.square(z, out=z)
                acc += z
            acc *= -0.5
            np.exp(acc, out=acc)
            acc *= cw[rows, None]
            out[g0:g1] = np.add.reduceat(acc, local_offsets[g0:g1] - r0, axis=0)
        out *= state["pdf_scale"][active][:, None]
        return out

    def _predict_box_grid(
        self, active: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Regression predictions for each active group on its box grid."""
        state = self._m
        mode = state["reg_mode"]
        if mode == "none":
            raise UnsupportedQueryError(
                f"model on {self.x_columns} has no regression model; "
                "regression-based aggregates need a y column"
            )
        if mode == "linear":
            coef = state["reg_affine"][active]
            return coef[:, 0, None] + np.einsum(
                "apd,ad->ap", points, coef[:, 1:]
            )
        # Generic regressors (trees, boosters, ensembles): a per-group
        # predict loop, with unbounded ensemble routing, while the
        # density work around it stays batched.
        out = np.empty(points.shape[:2])
        for i, g in enumerate(active.tolist()):
            out[i] = state["reg_objects"][g].predict(points[i])
        return out

    # -- raw groups ---------------------------------------------------------

    def _answer_raw(self, aggregate: AggregateCall, ranges: Ranges) -> dict:
        """All raw groups in one masked segmented pass per aggregate."""
        state = self._r
        func = aggregate.func
        offsets = state["offsets"]
        mask = np.ones(state["x"].shape[0], dtype=bool)
        for j, column in enumerate(self.x_columns):
            if column in ranges:
                lb, ub = ranges[column]
                mask &= (state["x"][:, j] >= lb) & (state["x"][:, j] <= ub)
        n = _segment_sum(mask.astype(np.float64), offsets)
        if func == "COUNT":
            return dict(zip(state["values"], (n * state["scale"]).tolist()))
        use_y = state["has_y"] & (aggregate.column not in self.x_columns)
        target = np.where(
            np.repeat(use_y, state["counts"]), state["y"], state["x"][:, 0]
        )
        if func == "PERCENTILE":
            vals = [
                float(np.quantile(seg[m_seg], aggregate.parameter))
                if m_seg.any() else float("nan")
                for seg, m_seg in zip(
                    np.split(target, offsets[1:-1]),
                    np.split(mask, offsets[1:-1]),
                )
            ]
            return dict(zip(state["values"], vals))
        masked = np.where(mask, target, 0.0)
        total = _segment_sum(masked, offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            if func == "SUM":
                vals = np.where(n > 0, total * state["scale"], 0.0)
            elif func in ("AVG", "VARIANCE", "STDDEV"):
                mean = total / n
                if func == "AVG":
                    vals = mean
                else:
                    deviation = np.where(
                        mask,
                        (target - np.repeat(mean, state["counts"])) ** 2,
                        0.0,
                    )
                    vals = _segment_sum(deviation, offsets) / n
                    if func == "STDDEV":
                        vals = np.sqrt(vals)
            else:
                raise ModelTrainingError(f"unsupported aggregate {func!r}")
        return dict(zip(state["values"], vals.tolist()))


def _ratio(
    num: np.ndarray, den: np.ndarray, floor: float = _EMPTY_DENSITY
) -> np.ndarray:
    """``num / den`` per group, NaN where the range holds no more mass
    than ``floor``."""
    out = np.empty(den.shape)
    out.fill(np.nan)
    return np.divide(num, den, out=out, where=den > floor)


def _pad_rows(
    values: np.ndarray, offsets: np.ndarray, fill: float, width: int | None = None
) -> np.ndarray:
    """CSR segments as the rows of one ``(G, width)`` array, ``fill``-padded."""
    counts = np.diff(offsets)
    if width is None:
        width = int(counts.max(initial=0))
    out = np.full((counts.shape[0], width), fill)
    out[np.arange(width) < counts[:, None]] = values
    return out


def _chunk_by_budget(sizes: np.ndarray, budget: int) -> np.ndarray:
    """Boundaries packing consecutive groups into <= ``budget`` elements.

    Returns chunk start indices ``[0, ..., n]``; every chunk holds at
    least one group, so oversized single groups still get processed.
    """
    starts = [0]
    acc = 0
    for i, size in enumerate(sizes.tolist()):
        if acc and acc + size > budget:
            starts.append(i)
            acc = 0
        acc += size
    starts.append(int(sizes.shape[0]))
    return np.asarray(starts, dtype=np.int64)


def _csr_take_rows(offsets: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Flat row indices of the given (possibly non-contiguous) CSR groups."""
    return gather_ranges(offsets[:-1][groups], offsets[1:][groups])[2]
