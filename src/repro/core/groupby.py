"""Per-group model sets for GROUP BY queries.

Paper §2.3 ("Supporting Group By"): each value of the group attribute is
treated as a separate data set — one sample, one density estimator, one
regressor per group.  Paper "Limitations": groups with too few rows are
kept as raw tuples and aggregated exactly, since models over tiny groups
are an overkill.

Every set is trained by the batched trainer
(:mod:`repro.core.batched_train`), which fits all groups' densities and
regressors in shared vectorised passes; a scalar model is the same fit
over one group.  Queries default to the batched evaluator
(:mod:`repro.core.batched`), which answers all groups in one vectorised
pass; the per-group loop, in which every model answers through a
one-group evaluator of its own, remains for model sets the batched path
cannot stack and as an explicit opt-out (``answer(..., batched=False)``).
"""

from __future__ import annotations

import pickle
import threading
from collections.abc import Callable
from time import perf_counter

import numpy as np

from repro.core.aggregates import Ranges, answer_aggregate
from repro.core.batched_train import GroupPartition, train_batched_models
from repro.core.config import DBEstConfig
from repro.core.parallel import chunk_items, map_parallel
from repro.errors import ModelTrainingError
from repro.obs import get_registry
from repro.sampling.reservoir import StreamingReservoir
from repro.sql.ast import AggregateCall


class _StreamState:
    """Ingest-side state of a set trained with ``streaming=True``.

    Holds the flat sample arrays, the sample's :class:`GroupPartition`
    (kept incremental across refreshes via :meth:`GroupPartition.merge`),
    the per-group :class:`StreamingReservoir`, and the exact group
    census.  Everything pickles, so a streaming set survives a trip
    through the model store and keeps absorbing appends afterwards.
    """

    def __init__(
        self,
        sample_x: np.ndarray,
        sample_y: np.ndarray | None,
        sample_groups: np.ndarray,
        part: GroupPartition,
        reservoir: StreamingReservoir,
        full_counts: dict,
        population_scale: float,
    ) -> None:
        self.sample_x = sample_x
        self.sample_y = sample_y
        self.sample_groups = sample_groups
        self.part = part
        self.reservoir = reservoir
        self.full_counts = full_counts
        self.population_scale = population_scale

    @classmethod
    def seed(
        cls,
        sample_x: np.ndarray,
        sample_y: np.ndarray | None,
        sample_groups: np.ndarray,
        sample_part: GroupPartition,
        full_counts: dict,
        population_scale: float,
        config: DBEstConfig,
    ) -> "_StreamState":
        """Adopt a just-trained set's sample as the streaming baseline.

        Modelled groups get a fixed-capacity stratum (pure Algorithm-L
        replacement keeps their sample uniform); raw groups may grow to
        the fleet-average capacity so appends can carry them over the
        promotion threshold.  Groups with zero sample rows stay
        unseeded — their stratum starts fresh on the first append, so
        its sample over-represents post-stream rows; such groups are
        tiny and answered exactly from raw tuples anyway.
        """
        counts = sample_part.counts
        positive = counts[counts > 0]
        default_cap = max(
            int(round(float(positive.mean()))) if positive.size else 0,
            config.min_group_rows,
        )
        reservoir = StreamingReservoir(
            default_cap, seed=getattr(config, "random_seed", None)
        )
        values = sample_part.values.tolist()
        for g, value in enumerate(values):
            k = int(counts[g])
            if k == 0:
                continue
            if k >= config.min_group_rows:
                cap = k
            else:
                cap = max(k, default_cap)
            reservoir.seed_group(
                value, size=k, seen=int(full_counts[value]), capacity=cap
            )
        sample_y = (
            None
            if sample_y is None
            else np.asarray(sample_y, dtype=np.float64).ravel().copy()
        )
        return cls(
            sample_x=np.array(sample_x, dtype=np.float64, copy=True),
            sample_y=sample_y,
            sample_groups=np.asarray(sample_groups).copy(),
            part=sample_part,
            reservoir=reservoir,
            full_counts=dict(full_counts),
            population_scale=float(population_scale),
        )


def _answer_chunk(payload: tuple) -> list[tuple]:
    """Evaluate one chunk of (value, evaluator) pairs.

    Module-level so process pools can pickle it; ``evaluator`` is either a
    :class:`ColumnSetModel` or a :class:`RawGroup` (both picklable), which
    travel to the worker inside the payload.
    """
    from repro.core.parallel import limit_blas_threads

    limit_blas_threads(1)
    pairs, aggregate, ranges, x_columns = payload
    out = []
    for value, evaluator in pairs:
        if isinstance(evaluator, RawGroup):
            out.append((value, evaluator.answer(aggregate, ranges, x_columns)))
        else:
            out.append((value, answer_aggregate(evaluator, aggregate, ranges)))
    return out


def _answer_batched_segment(payload: tuple) -> dict:
    """Evaluate one batched-evaluator segment (module-level: picklable).

    Workers receive a contiguous slice of the flat CSR arrays — much
    cheaper to pickle than the per-group model objects the scalar path
    ships — and run the same vectorised pass over their segment.
    """
    from repro.core.parallel import limit_blas_threads

    limit_blas_threads(1)
    segment, aggregate, ranges = payload
    return segment.answer(aggregate, ranges)


class RawGroup:
    """Exact fallback for a small group: keeps its tuples, answers exactly.

    ``x`` and ``y`` hold *all* rows of the group from the base table (the
    paper: "just keep and process the small number of tuples in the
    group"), so every aggregate is computed exactly.  When the "full"
    data is itself a sample standing in for a larger population (join
    models, where the join result is discarded after sampling),
    ``population_scale`` > 1 scales COUNT and SUM back up.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray | None,
        population_scale: float = 1.0,
    ) -> None:
        self.x = np.asarray(x, dtype=np.float64)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.y = None if y is None else np.asarray(y, dtype=np.float64).ravel()
        self.population_scale = float(population_scale)

    def _mask(self, x_columns: tuple[str, ...], ranges: Ranges) -> np.ndarray:
        mask = np.ones(self.x.shape[0], dtype=bool)
        for j, column in enumerate(x_columns):
            if column in ranges:
                lb, ub = ranges[column]
                mask &= (self.x[:, j] >= lb) & (self.x[:, j] <= ub)
        return mask

    def answer(
        self,
        aggregate: AggregateCall,
        ranges: Ranges,
        x_columns: tuple[str, ...],
    ) -> float:
        mask = self._mask(x_columns, ranges)
        n = int(mask.sum())
        if aggregate.func == "COUNT":
            return float(n) * self.population_scale
        if n == 0:
            return 0.0 if aggregate.func == "SUM" else float("nan")
        target = (
            self.y[mask]
            if self.y is not None and aggregate.column not in x_columns
            else self.x[mask, 0]
        )
        if aggregate.func == "SUM":
            return float(target.sum()) * self.population_scale
        if aggregate.func == "AVG":
            return float(target.mean())
        if aggregate.func == "VARIANCE":
            return float(target.var())
        if aggregate.func == "STDDEV":
            return float(target.std())
        if aggregate.func == "PERCENTILE":
            return float(np.quantile(target, aggregate.parameter))
        raise ModelTrainingError(f"unsupported aggregate {aggregate.func!r}")

    def nbytes(self) -> int:
        return int(self.x.nbytes + (0 if self.y is None else self.y.nbytes))


class GroupByModelSet:
    """All per-group state needed to answer one GROUP BY query template."""

    def __init__(
        self,
        table_name: str,
        x_columns: tuple[str, ...],
        y_column: str | None,
        group_column: str,
        models: dict,
        raw_groups: dict,
        config: DBEstConfig | None = None,
    ) -> None:
        self.table_name = table_name
        self.x_columns = tuple(x_columns)
        self.y_column = y_column
        self.group_column = group_column
        self.models = models
        self.raw_groups = raw_groups
        self.config = config or DBEstConfig()
        # Lazily-built batched evaluator; dropped from pickles (it is
        # derived state and would double the serialised model size).
        self._batched_cache = None
        self._batched_built = False
        # Streaming-ingest state; set by train(streaming=True).
        self._stream: _StreamState | None = None

    # -- training ---------------------------------------------------------

    @classmethod
    def train(
        cls,
        sample_x: np.ndarray,
        sample_y: np.ndarray | None,
        sample_groups: np.ndarray,
        full_groups: np.ndarray,
        full_x: np.ndarray,
        full_y: np.ndarray | None,
        table_name: str,
        x_columns: tuple[str, ...] | list[str],
        y_column: str | None,
        group_column: str,
        config: DBEstConfig | None = None,
        population_scale: float = 1.0,
        streaming: bool = False,
    ) -> "GroupByModelSet":
        """Build per-group models from a uniform sample.

        ``sample_*`` arrays come from the reservoir sample; ``full_groups``
        is the group column over the whole table (used for exact per-group
        population counts — the paper records group values during
        training), and ``full_x`` / ``full_y`` supply the raw tuples kept
        for under-represented groups.  ``population_scale`` > 1 marks
        ``full_*`` as itself being a sample of a ``scale``-times-larger
        population (join models).

        The batched trainer (:mod:`repro.core.batched_train`) fits every
        modelled group's density and regressor — 1-D and multivariate
        predicate sets alike — in shared vectorised passes over one
        sorted partition of the sample; the ``RawGroup`` collection
        slices one sorted partition of the full data, so no path
        re-scans either per group.  Multivariate ``plr`` sets with a
        modelled group raise :class:`ModelTrainingError` (the spline is
        1-D only).

        ``streaming=True`` additionally retains the sample arrays, the
        sample partition, and per-group Algorithm-L reservoir state so
        appended rows can later flow through :meth:`refresh` without a
        full rebuild; a plain ``train`` is exactly the
        everything-dirty case of that incremental path.
        """
        config = config or DBEstConfig()
        sample_x = np.asarray(sample_x, dtype=np.float64)
        if sample_x.ndim == 1:
            sample_x = sample_x[:, None]

        # One sorted partition of the full table supplies the group
        # census (distinct values + population counts) and, below, the
        # RawGroup row slices — np.unique plus per-group masking would
        # sort and scan the table once more each.
        full_part = GroupPartition.from_groups(full_groups)
        group_values = full_part.values
        full_counts = full_part.counts
        if group_values.shape[0] > config.max_groups:
            raise ModelTrainingError(
                f"{group_values.shape[0]} groups exceeds max_groups="
                f"{config.max_groups}; paper-style fallback to another engine"
            )
        values_list = group_values.tolist()
        population = {
            value: int(round(count * population_scale))
            for value, count in zip(values_list, full_counts.tolist())
        }

        sample_part = GroupPartition.from_groups(
            sample_groups, values=group_values
        )
        modelled_mask = sample_part.counts >= config.min_group_rows

        # Raw groups: contiguous slices of one sorted pass over the full
        # table (stable sort keeps each group's original row order, so
        # the arrays match what the old per-group boolean masks built).
        raw_groups: dict = {}
        raw_indices = np.flatnonzero(~modelled_mask)
        if raw_indices.size:
            fx = np.asarray(full_x, dtype=np.float64)
            fy = None if full_y is None else np.asarray(full_y)
            for g in raw_indices.tolist():
                rows = full_part.rows(g)
                gx = fx[rows] if fx.ndim == 1 else fx[rows, :]
                raw_groups[values_list[g]] = RawGroup(
                    gx,
                    None if fy is None else fy[rows],
                    population_scale=population_scale,
                )

        models = train_batched_models(
            sample_x,
            sample_y,
            sample_part,
            modelled_mask,
            table_name=table_name,
            x_columns=tuple(x_columns),
            y_column=y_column,
            population=population,
            config=config,
        )
        instance = cls(
            table_name=table_name,
            x_columns=tuple(x_columns),
            y_column=y_column,
            group_column=group_column,
            models=models,
            raw_groups=raw_groups,
            config=config,
        )
        if streaming:
            full_count_map = dict(zip(values_list, full_counts.tolist()))
            instance._stream = _StreamState.seed(
                sample_x,
                sample_y,
                np.asarray(sample_groups),
                sample_part,
                full_count_map,
                population_scale,
                config,
            )
        return instance

    # -- streaming refresh --------------------------------------------------

    @property
    def is_streaming(self) -> bool:
        return getattr(self, "_stream", None) is not None

    def refresh(
        self,
        delta_x: np.ndarray,
        delta_y: np.ndarray | None,
        delta_groups: np.ndarray,
    ) -> list:
        """Absorb appended rows and re-fit only the groups they touch.

        The incremental counterpart of :meth:`train` (which is the
        everything-dirty case of this path): each touched group's
        reservoir stratum decides which delta rows enter the standing
        sample (in-place slot replacements for full strata, appends for
        filling ones), the sample partition is merged incrementally via
        :meth:`GroupPartition.merge`, raw groups append their tuples
        (promoting to a model once their sample crosses
        ``min_group_rows``), and only the dirty groups re-fit through
        the batched trainer (``group_mask``).  The stacked evaluator is
        then spliced — clean groups keep their CSR segments — or, when
        splicing does not apply, invalidated for a lazy rebuild; readers
        holding the old evaluator are never blocked.

        Requires ``train(..., streaming=True)``.  Returns the sorted
        list of refreshed group values.  Concurrent *queries* against
        this set are safe (they see either the old or the new model of
        a group); concurrent refresh calls are not — serialise ingest.
        """
        stream = getattr(self, "_stream", None)
        if stream is None:
            raise ModelTrainingError(
                "refresh requires a set trained with streaming=True"
            )
        config = self.config
        delta_x = np.asarray(delta_x, dtype=np.float64)
        if delta_x.ndim == 1:
            delta_x = delta_x[:, None]
        delta_y_arr = (
            None
            if delta_y is None
            else np.asarray(delta_y, dtype=np.float64).ravel()
        )
        if (stream.sample_y is None) != (delta_y_arr is None):
            raise ModelTrainingError(
                "delta must carry a y column exactly when training did"
            )
        delta_groups = np.asarray(delta_groups)
        if delta_groups.shape[0] != delta_x.shape[0]:
            raise ModelTrainingError(
                "delta_groups and delta_x row counts differ"
            )
        if delta_groups.shape[0] == 0:
            return []

        # -- 1. reservoir decisions against the standing sample ------------
        delta_part = GroupPartition.from_groups(delta_groups)
        part = stream.part
        old_counts = part.counts
        old_pos = {v: i for i, v in enumerate(part.values.tolist())}
        dirty_values = delta_part.values.tolist()
        replacements: list = []  # (flat sample row, delta row)
        append_src: list = []  # delta rows entering the sample, in order
        for g, value in enumerate(dirty_values):
            rows = delta_part.rows(g)
            gi = old_pos.get(value)
            size_before = 0 if gi is None else int(old_counts[gi])
            pending: list = []
            for i, slot in stream.reservoir.absorb(value, rows.shape[0]):
                if slot == -1:
                    pending.append(int(rows[i]))
                elif slot < size_before:
                    flat = int(part.order[part.offsets[gi] + slot])
                    replacements.append((flat, int(rows[i])))
                else:
                    # Replacing a row appended earlier in this batch.
                    pending[slot - size_before] = int(rows[i])
            append_src.extend(pending)
            stream.full_counts[value] = (
                stream.full_counts.get(value, 0) + rows.shape[0]
            )
        for flat, src in replacements:  # in decision order: last wins
            stream.sample_x[flat] = delta_x[src]
            if delta_y_arr is not None:
                stream.sample_y[flat] = delta_y_arr[src]

        # -- 2. incremental partition merge ---------------------------------
        append_idx = np.asarray(append_src, dtype=np.intp)
        appended_groups = delta_groups[append_idx]
        stream.sample_x = np.concatenate(
            [stream.sample_x, delta_x[append_idx]], axis=0
        )
        if delta_y_arr is not None:
            stream.sample_y = np.concatenate(
                [stream.sample_y, delta_y_arr[append_idx]]
            )
        stream.sample_groups = np.concatenate(
            [stream.sample_groups, appended_groups]
        )
        part, _ = part.merge(appended_groups)
        stream.part = part

        # -- 3. raw-group upkeep and promotion ------------------------------
        values_list = part.values.tolist()
        union_pos = {v: i for i, v in enumerate(values_list)}
        counts = part.counts
        modelled_mask = counts >= config.min_group_rows
        promoted: list = []
        for g, value in enumerate(dirty_values):
            if modelled_mask[union_pos[value]]:
                if value in self.raw_groups:
                    promoted.append(value)
                continue
            rows = delta_part.rows(g)
            gx = delta_x[rows]
            gy = None if delta_y_arr is None else delta_y_arr[rows]
            raw = self.raw_groups.get(value)
            if raw is None:
                self.raw_groups[value] = RawGroup(
                    gx, gy, population_scale=stream.population_scale
                )
            else:
                raw.x = np.concatenate([raw.x, gx], axis=0)
                if raw.y is not None:
                    raw.y = np.concatenate([raw.y, gy])

        # -- 4. re-fit exactly the dirty modelled groups --------------------
        dirty_set = set(dirty_values)
        dirty_mask = np.fromiter(
            (v in dirty_set for v in values_list), dtype=bool, count=len(values_list)
        )
        population = {
            v: int(round(stream.full_counts[v] * stream.population_scale))
            for v in values_list
        }
        registry = get_registry()
        refit_t0 = perf_counter()
        new_models = train_batched_models(
            stream.sample_x,
            stream.sample_y,
            part,
            modelled_mask,
            table_name=self.table_name,
            x_columns=self.x_columns,
            y_column=self.y_column,
            population=population,
            config=config,
            group_mask=dirty_mask,
        )
        self.models.update(new_models)
        for value in promoted:
            del self.raw_groups[value]
        refit_s = perf_counter() - refit_t0

        # -- 5. evaluator splice (non-blocking for readers) -----------------
        dirty_sorted = sorted(dirty_set)
        splice_t0 = perf_counter()
        self._refresh_evaluator(dirty_sorted)
        if registry.enabled:
            registry.counter("repro_refresh_total").inc()
            registry.counter("repro_refresh_dirty_groups_total").inc(
                len(dirty_sorted)
            )
            registry.counter("repro_refresh_rows_total").inc(
                int(delta_groups.shape[0])
            )
            registry.histogram("repro_refresh_refit_seconds").observe(refit_s)
            registry.histogram("repro_refresh_splice_seconds").observe(
                perf_counter() - splice_t0
            )
        return dirty_sorted

    def _refresh_evaluator(self, dirty_values: list) -> None:
        """Splice the cached evaluator, or invalidate it for lazy rebuild.

        Readers that already hold the old evaluator keep using it — the
        swap is a plain reference assignment under the build lock.
        """
        lock = self.__dict__.setdefault("_eval_build_lock", threading.Lock())
        with lock:
            old = (
                self._batched_cache
                if getattr(self, "_batched_built", False)
                else None
            )
            new_eval = None
            if old is not None:
                from repro.core.batched import BatchedGroupEvaluator

                new_eval = BatchedGroupEvaluator.splice(
                    old, self, dirty_values
                )
            self._batched_cache = new_eval
            self._batched_built = new_eval is not None

    # -- querying -----------------------------------------------------------

    @property
    def group_values(self) -> list:
        return sorted(list(self.models) + list(self.raw_groups))

    @property
    def n_groups(self) -> int:
        return len(self.models) + len(self.raw_groups)

    def answer_group(
        self, value, aggregate: AggregateCall, ranges: Ranges
    ) -> float:
        """Answer one aggregate for one group value."""
        if value in self.models:
            return answer_aggregate(self.models[value], aggregate, ranges)
        if value in self.raw_groups:
            return self.raw_groups[value].answer(aggregate, ranges, self.x_columns)
        raise KeyError(f"group value {value!r} not seen during training")

    def batched_evaluator(self):
        """The stacked evaluator for this set, or None if unbatchable.

        Built on first use and cached; the cache is dropped on pickling
        (see ``__getstate__``) and rebuilt lazily after a load.
        Thread-safe: the serving layer answers one model set from many
        threads, and the expensive CSR stacking must happen once.
        """
        # getattr: stay compatible with sets pickled before this attribute.
        if not getattr(self, "_batched_built", False):
            # setdefault is atomic under the GIL: concurrent first
            # callers agree on one lock (pickles drop it, see
            # __getstate__, so it may need re-creating after a load).
            lock = self.__dict__.setdefault("_eval_build_lock", threading.Lock())
            with lock:
                if not getattr(self, "_batched_built", False):
                    from repro.core.batched import BatchedGroupEvaluator

                    self._batched_cache = BatchedGroupEvaluator.build(self)
                    self._batched_built = True
        return self._batched_cache

    def answer(
        self,
        aggregate: AggregateCall,
        ranges: Ranges,
        n_workers: int | None = None,
        batched: bool | None = None,
    ) -> dict:
        """Answer one aggregate for every group.

        The default path stacks all groups — 1-D and multivariate
        predicate sets alike — into the batched evaluator and answers
        them in one vectorised pass; the per-group loop the paper's §4.7
        identifies as its Python bottleneck survives only as a fallback.
        ``batched`` overrides the config knob; the rare sets the
        evaluator cannot stack silently use the scalar loop.

        Per-group evaluation is embarrassingly parallel (paper §4.7.1);
        ``n_workers`` > 1 fans work out over a pool.  On the batched path
        the workers receive contiguous slices of the flat arrays; on the
        scalar path they receive pickled per-group models.  The default
        ``process`` pool sidesteps the GIL (the scalar loop is many small
        numpy calls, so threads cannot speed it up — the same observation
        §4.7 of the paper makes about its own Python implementation).
        """
        workers = n_workers if n_workers is not None else self.config.n_workers
        use_batched = (
            batched
            if batched is not None
            else getattr(self.config, "batched_groupby", True)
        )
        if use_batched:
            evaluator = self.batched_evaluator()
            if evaluator is not None:
                return self._answer_batched(evaluator, aggregate, ranges, workers)

        values = self.group_values
        if workers <= 1 or len(values) <= 1:
            return {
                value: self.answer_group(value, aggregate, ranges)
                for value in values
            }

        def evaluator_for(value):
            return self.models.get(value) or self.raw_groups[value]

        chunks = chunk_items(values, workers)
        payloads = [
            (
                [(value, evaluator_for(value)) for value in chunk],
                aggregate,
                ranges,
                self.x_columns,
            )
            for chunk in chunks
        ]
        results = map_parallel(
            _answer_chunk, payloads, workers=workers,
            mode=self.config.parallel_mode,
        )
        return dict(pair for chunk_result in results for pair in chunk_result)

    def _answer_batched(
        self, evaluator, aggregate: AggregateCall, ranges: Ranges, workers: int
    ) -> dict:
        """Run the batched evaluator, fanning segments over a pool if asked."""
        if workers <= 1 or self.n_groups <= 1:
            return evaluator.answer(aggregate, ranges)
        segments = evaluator.split(workers)
        if len(segments) <= 1:
            return evaluator.answer(aggregate, ranges)
        payloads = [(segment, aggregate, ranges) for segment in segments]
        results = map_parallel(
            _answer_batched_segment, payloads, workers=workers,
            mode=self.config.parallel_mode,
        )
        merged: dict = {}
        for part in results:
            merged.update(part)
        return merged

    # -- introspection -----------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_batched_cache"] = None
        state["_batched_built"] = False
        state.pop("_eval_build_lock", None)  # locks do not pickle
        return state

    def size_bytes(self) -> int:
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    def __repr__(self) -> str:
        return (
            f"GroupByModelSet(table={self.table_name!r}, x={self.x_columns}, "
            f"y={self.y_column!r}, group={self.group_column!r}, "
            f"n_groups={self.n_groups}, raw={len(self.raw_groups)})"
        )


GroupEvaluator = Callable[[object], tuple]
