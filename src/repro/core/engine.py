"""The DBEst engine façade.

Ties the pieces together exactly as the paper's architecture figure does:
a sampling module (reservoir sampling over registered tables), a models
module (column-set and group-by models), and a model catalog.  Queries
arriving as SQL are parsed, matched against the catalog, and answered
from models; queries no model can answer go to the configured fallback
engine (paper: "the query will be sent to an underlying system in the
level below").
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.core.advisor import DegradedRoute, route_degraded
from repro.core.aggregates import answer_aggregate
from repro.core.bundles import ModelBundle
from repro.core.catalog import ModelCatalog, ModelKey
from repro.core.config import DBEstConfig
from repro.core.groupby import GroupByModelSet
from repro.core.joins import (
    join_table_name,
    precompute_join_sample,
    sampled_join_sample,
)
from repro.core.model import ColumnSetModel
from repro.core.result import QueryResult
from repro.errors import (
    InvalidParameterError,
    ModelNotFoundError,
    UnknownTableError,
    UnsupportedQueryError,
)
from repro.obs import register_global_collector
from repro.sampling.reservoir import reservoir_sample_indices
from repro.sql.ast import AggregateCall, Query
from repro.sql.parser import parse_query
from repro.sql.validator import validate_query
from repro.storage.table import Table


@lru_cache(maxsize=512)
def _parse_validated(sql: str) -> Query:
    """Parse + validate one SQL string, memoised on the exact text.

    Query objects are treated as immutable once parsed (nothing in the
    engine mutates them), so repeated executions of the same string —
    the common case for dashboard-style workloads — skip the tokenizer,
    the recursive-descent parser, and semantic validation entirely.
    Queries that fail to parse or validate raise on every call
    (``lru_cache`` does not cache exceptions), preserving error
    behaviour exactly.
    """
    query = parse_query(sql)
    validate_query(query)
    return query


def parse_cache_info():
    """Hit/miss statistics of the engine-wide parse cache."""
    return _parse_validated.cache_info()


def parse_cache_clear() -> None:
    """Drop all memoised parses (mainly for tests)."""
    _parse_validated.cache_clear()


def _publish_parse_cache(registry) -> None:
    """Pull collector surfacing the engine-wide parse LRU as gauges."""
    info = _parse_validated.cache_info()
    registry.gauge("repro_parse_cache_hits").set(info.hits)
    registry.gauge("repro_parse_cache_misses").set(info.misses)
    registry.gauge("repro_parse_cache_entries").set(info.currsize)
    registry.gauge("repro_parse_cache_max_entries").set(info.maxsize or 0)


# The parse cache is a module-level singleton, so its collector lives
# for the life of the process regardless of which registry is active.
register_global_collector(_publish_parse_cache)


class DBEst:
    """Model-based approximate query processing engine.

    Typical use::

        engine = DBEst()
        engine.register_table(store_sales)
        engine.build_model("store_sales", x="ss_list_price",
                           y="ss_wholesale_cost", sample_size=10_000)
        result = engine.execute(
            "SELECT AVG(ss_wholesale_cost) FROM store_sales "
            "WHERE ss_list_price BETWEEN 20 AND 40;")
        print(result.scalar())
    """

    def __init__(
        self,
        config: DBEstConfig | None = None,
        fallback=None,
    ) -> None:
        self.config = config or DBEstConfig()
        self.catalog = ModelCatalog()
        self.tables: dict[str, Table] = {}
        self.fallback = fallback
        self.build_stats: dict[ModelKey, dict] = {}
        self._rng = np.random.default_rng(self.config.random_seed)
        # Degraded-path engines (exact scan / uniform / stratified AQP
        # over registered base tables), built lazily on first use and
        # keyed by (engine kind, tables, stratification column).
        self._degraded_engines: dict[tuple, object] = {}
        self._degrade_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # The degraded-engine cache and its lock are process-local
        # conveniences: strip them so engines stay picklable for the
        # multi-process harness, and rebuild lazily after unpickling.
        state = self.__dict__.copy()
        state["_degraded_engines"] = {}
        del state["_degrade_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._degrade_lock = threading.Lock()

    # -- data registration -------------------------------------------------

    def register_table(self, table: Table) -> None:
        """Make a base table available for sampling and model building."""
        if not table.name:
            raise InvalidParameterError("tables must be named to be registered")
        self.tables[table.name] = table

    def _get_table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    # -- model building ------------------------------------------------------

    def build_model(
        self,
        table: str,
        x: str | Sequence[str],
        y: str | None = None,
        sample_size: int | None = None,
        group_by: str | None = None,
        streaming: bool = False,
    ) -> ModelKey:
        """Sample a table and train a (group-by) column-set model.

        Returns the catalog key under which the model is registered.  The
        sample is discarded after training (paper §3: "any samples it
        builds are deleted after model training") — unless
        ``streaming=True`` (group-by models only), which retains the
        per-group reservoir state so later :meth:`append_rows` calls can
        refresh just the touched groups instead of retraining.
        """
        base = self._get_table(table)
        x_columns = (x,) if isinstance(x, str) else tuple(x)
        size = sample_size or self.config.default_sample_size

        t0 = time.perf_counter()
        indices = reservoir_sample_indices(base.n_rows, size, rng=self._rng)
        sample_x = self._feature_matrix(base, x_columns, indices)
        sample_y = None if y is None else base[y][indices].astype(np.float64)
        sampling_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        if group_by is None:
            if streaming:
                raise InvalidParameterError(
                    "streaming=True requires group_by (per-group reservoirs)"
                )
            model: object = ColumnSetModel.train(
                sample_x if len(x_columns) > 1 else sample_x[:, 0],
                sample_y,
                table_name=table,
                x_columns=x_columns,
                y_column=y,
                population_size=base.n_rows,
                config=self.config,
            )
        else:
            model = GroupByModelSet.train(
                sample_x,
                sample_y,
                sample_groups=base[group_by][indices],
                full_groups=base[group_by],
                full_x=self._feature_matrix(
                    base, x_columns, np.arange(base.n_rows)
                ),
                full_y=None if y is None else base[y],
                table_name=table,
                x_columns=x_columns,
                y_column=y,
                group_column=group_by,
                config=self.config,
                streaming=streaming,
            )
        training_seconds = time.perf_counter() - t0

        key = ModelKey.make(table, x_columns, y, group_by)
        self.catalog.register(key, model, replace=True)
        self.build_stats[key] = {
            "sampling_seconds": sampling_seconds,
            "training_seconds": training_seconds,
            "sample_size": int(min(size, base.n_rows)),
        }
        return key

    def append_rows(self, table: str, rows: Table) -> dict:
        """Append rows to a registered table and refresh its models.

        The streaming-ingest entry point: the delta is concatenated onto
        the registered (immutable) table, then every catalog model over
        that table trained with ``streaming=True`` absorbs the new rows
        through :meth:`GroupByModelSet.refresh` — per-group reservoirs
        decide which rows enter the standing sample, and only the dirty
        groups re-fit.  Each refreshed model is re-registered (bumping
        the catalog change-log) or, when the engine serves from a
        :class:`~repro.serve.ModelStore`, republished as a new record
        generation via ``write_refresh`` — either way downstream answer
        caches invalidate exactly the refreshed keys.  Models without
        streaming state are left stale and reported under ``"skipped"``
        (retrain them with :meth:`build_model` to pick up the rows).

        Returns ``{"rows": n, "refreshed": {key: [group values]},
        "skipped": [keys]}``.
        """
        base = self._get_table(table)
        if rows.n_rows == 0:
            return {"rows": 0, "refreshed": {}, "skipped": []}
        self.tables[table] = base.concat(rows)
        refreshed: dict[ModelKey, list] = {}
        skipped: list[ModelKey] = []
        for key in list(self.catalog.keys()):
            if key.table != table:
                continue
            model = self.catalog.get(key)
            hydrate = getattr(model, "_hydrated", None)
            if hydrate is not None:  # mapped store wrapper -> heap set
                model = hydrate()
            if not getattr(model, "is_streaming", False):
                skipped.append(key)
                continue
            delta_x = self._feature_matrix(
                rows, key.x_columns, np.arange(rows.n_rows)
            )
            delta_y = (
                None
                if key.y_column is None
                else rows[key.y_column].astype(np.float64)
            )
            dirty = model.refresh(delta_x, delta_y, rows[key.group_by])
            register = getattr(self.catalog, "register", None)
            if register is not None:
                register(key, model, replace=True)
            else:
                self.catalog.write_refresh(key, model)
            refreshed[key] = dirty
        return {"rows": int(rows.n_rows), "refreshed": refreshed, "skipped": skipped}

    def build_join_model(
        self,
        left: str,
        right: str,
        left_key: str,
        right_key: str,
        x: str | Sequence[str],
        y: str | None = None,
        sample_size: int | None = None,
        group_by: str | None = None,
        strategy: str = "precompute",
        key_fraction: float = 0.1,
    ) -> ModelKey:
        """Build models over a join result (paper §2.2, two strategies).

        The model is registered under the virtual table name
        ``{left}_join_{right}``, which is also what join queries resolve
        to at execution time.
        """
        left_table = self._get_table(left)
        right_table = self._get_table(right)
        size = sample_size or self.config.default_sample_size

        t0 = time.perf_counter()
        if strategy == "precompute":
            sample, population = precompute_join_sample(
                left_table, right_table, left_key, right_key, size, rng=self._rng
            )
        elif strategy == "sampled":
            sample, population = sampled_join_sample(
                left_table,
                right_table,
                left_key,
                right_key,
                size,
                key_fraction=key_fraction,
                rng=self._rng,
            )
        else:
            raise InvalidParameterError(
                f"strategy must be 'precompute' or 'sampled', got {strategy!r}"
            )
        sampling_seconds = time.perf_counter() - t0

        x_columns = (x,) if isinstance(x, str) else tuple(x)
        virtual = join_table_name(left, right)
        all_idx = np.arange(sample.n_rows)
        sample_x = self._feature_matrix(sample, x_columns, all_idx)
        sample_y = None if y is None else sample[y].astype(np.float64)

        t0 = time.perf_counter()
        if group_by is None:
            model: object = ColumnSetModel.train(
                sample_x if len(x_columns) > 1 else sample_x[:, 0],
                sample_y,
                table_name=virtual,
                x_columns=x_columns,
                y_column=y,
                population_size=population,
                config=self.config,
            )
        else:
            # For joins the training sample doubles as the "full" data:
            # the join result itself was discarded (that is the point of
            # strategy 1) so group populations are estimated by scaling
            # the sample's group counts up to the join cardinality.
            scale = population / max(sample.n_rows, 1)
            model = GroupByModelSet.train(
                sample_x,
                sample_y,
                sample_groups=sample[group_by],
                full_groups=sample[group_by],
                full_x=sample_x,
                full_y=sample_y,
                table_name=virtual,
                x_columns=x_columns,
                y_column=y,
                group_column=group_by,
                config=self.config,
                population_scale=scale,
            )
        training_seconds = time.perf_counter() - t0

        key = ModelKey.make(virtual, x_columns, y, group_by)
        self.catalog.register(key, model, replace=True)
        self.build_stats[key] = {
            "sampling_seconds": sampling_seconds,
            "training_seconds": training_seconds,
            "sample_size": sample.n_rows,
        }
        return key

    @staticmethod
    def _feature_matrix(
        table: Table, x_columns: tuple[str, ...], indices: np.ndarray
    ) -> np.ndarray:
        return np.column_stack(
            [table[c][indices].astype(np.float64) for c in x_columns]
        )

    # -- bundles ------------------------------------------------------------

    def bundle_model(self, key: ModelKey, path) -> ModelBundle:
        """Serialise a group-by model set to disk and swap in a lazy handle."""
        model = self.catalog.get(key)
        if not isinstance(model, GroupByModelSet):
            raise InvalidParameterError(
                "only GROUP BY model sets can be bundled"
            )
        bundle = ModelBundle.write(model, path)
        self.catalog.register(key, bundle, replace=True)
        return bundle

    def pack_store(
        self,
        path,
        store_format: str | None = None,
        cache_bytes: int | None = None,
    ):
        """Write this engine's catalog as an on-disk model store.

        ``store_format`` overrides ``config.store_format`` ("pickle" |
        "mmap"); returns the open :class:`~repro.serve.store.ModelStore`
        handle, ready to be assigned as another engine's catalog.
        """
        from repro.serve.store import ModelStore

        return ModelStore.write(
            self.catalog,
            path,
            cache_bytes=cache_bytes,
            config=self.config,
            store_format=store_format,
        )

    # -- query execution ------------------------------------------------------

    def execute(self, sql: str | Query) -> QueryResult:
        """Answer an analytical query from models (or the fallback engine)."""
        if isinstance(sql, str):
            query = _parse_validated(sql)
        else:
            query = sql
            validate_query(query)
        start = time.perf_counter()
        try:
            values = self._answer_from_models(query)
            source = "model"
        except (ModelNotFoundError, UnsupportedQueryError):
            if self.fallback is None:
                raise
            fallback_result = self.fallback.execute(query)
            values = fallback_result.values
            source = "fallback"
        elapsed = time.perf_counter() - start
        return QueryResult(
            values=values,
            source=source,
            elapsed_seconds=elapsed,
            sql=sql if isinstance(sql, str) else query.to_sql(),
        )

    def _answer_from_models(self, query: Query) -> dict:
        from repro.sql.ast import merged_ranges

        table = self._resolve_table_name(query)
        ranges = merged_ranges(query.ranges)
        values: dict[str, float | dict] = {}
        for aggregate in query.aggregates:
            values[str(aggregate)] = self.answer_one(
                table, aggregate, ranges, query
            )
        return values

    @staticmethod
    def _resolve_table_name(query: Query) -> str:
        name = query.table
        for join in query.joins:
            name = join_table_name(name, join.table)
        return name

    @staticmethod
    def _lookup_columns(
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
    ) -> tuple[tuple[str, ...], str | None]:
        """The (x_columns, y_column) catalog lookup an aggregate needs.

        ``x_columns == (None,)`` marks an untargetable COUNT(*) without
        any range predicate; callers decide whether to raise or bail.
        """
        x_columns = tuple(sorted(ranges)) if ranges else (aggregate.column,)
        # Density-based aggregates only need a model whose x matches.
        density_based = aggregate.func in ("COUNT", "PERCENTILE") or (
            aggregate.column in x_columns
        )
        y_lookup = None if density_based else aggregate.column
        return x_columns, y_lookup

    def model_key_for(
        self,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
    ) -> ModelKey | None:
        """The registered catalog key :meth:`answer_one` would resolve.

        Returns None when the aggregate never reaches a model:
        contradictory ranges, untargetable COUNT(*), unsupported
        predicate shapes, or no registered model (fallback territory).
        Used by the serving layer to key answer caches and per-model
        locks on the *resolved* model identity, so two query shapes
        that resolve to the same superset model share one entry.
        """
        if any(high < low for low, high in ranges.values()):
            return None
        x_columns, y_lookup = self._lookup_columns(aggregate, ranges)
        if x_columns == (None,):
            return None
        if query.group_by is not None:
            if query.equalities:
                return None
            group = query.group_by
        elif query.equalities:
            if len(query.equalities) > 1:
                return None
            group = query.equalities[0].column
        else:
            group = None
        try:
            return self.catalog.resolve(table, x_columns, y_lookup, group)
        except ModelNotFoundError:
            return None

    def answer_one(
        self,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
    ) -> float | dict:
        """Answer a single aggregate of a parsed query from models.

        ``table`` is the (join-resolved) table name and ``ranges`` the
        merged range predicates; ``query`` supplies GROUP BY / equality
        context.  This is the per-aggregate core of :meth:`execute`,
        exposed so the serving layer can compute each aggregate of a
        coalesced batch exactly once.
        """
        if any(high < low for low, high in ranges.values()):
            # Contradictory comparison predicates select nothing.
            if query.group_by is not None:
                return {}
            return 0.0 if aggregate.func in ("COUNT", "SUM") else float("nan")
        x_columns, y_lookup = self._lookup_columns(aggregate, ranges)
        if x_columns == (None,):
            raise UnsupportedQueryError(
                "COUNT(*) without a range predicate has no model to target"
            )

        if query.group_by is not None:
            if query.equalities:
                # Group-by models carry no categorical filter: silently
                # ignoring the equality would return unfiltered per-group
                # answers.  Raising routes the query to the fallback
                # engine, which does apply it.
                raise UnsupportedQueryError(
                    "equality predicates cannot be combined with GROUP BY "
                    "on the model path"
                )
            model = self.catalog.find(table, x_columns, y_lookup, query.group_by)
            return model.answer(
                aggregate,
                ranges,
                n_workers=self.config.n_workers,
                batched=self.config.batched_groupby,
            )

        # Nominal-categorical selection: equality on a group-by column is
        # answered by the matching group's model (paper §2.3, "Supporting
        # Categorical Attributes").
        if query.equalities:
            if len(query.equalities) > 1:
                raise UnsupportedQueryError(
                    "at most one equality predicate is supported"
                )
            eq = query.equalities[0]
            model = self.catalog.find(table, x_columns, y_lookup, eq.column)
            return model.answer_group(eq.value, aggregate, ranges)

        model = self.catalog.find(table, x_columns, y_lookup)
        return answer_aggregate(model, aggregate, ranges)

    # -- graceful degradation ----------------------------------------------

    def answer_degraded(
        self,
        table: str,
        aggregate: AggregateCall,
        ranges: dict[str, tuple[float, float]],
        query: Query,
    ) -> tuple[float | dict, DegradedRoute]:
        """Answer one aggregate *without* the model path.

        The serving layer calls this when the model path is unavailable
        (circuit breaker open, corrupt store record) or a deadline
        leaves no room for it: :func:`~repro.core.advisor.route_degraded`
        picks an exact scan, a stratified sample, or a uniform sample
        over the registered base tables, and the chosen engine answers
        within the route's quoted error bound.  Returns the value and
        the route taken; raises :class:`UnsupportedQueryError` when no
        base table is registered to degrade onto (e.g. an engine serving
        purely from a packed model store).
        """
        involved = [query.table] + [join.table for join in query.joins]
        missing = [name for name in involved if name not in self.tables]
        if missing:
            raise UnsupportedQueryError(
                f"cannot serve a degraded answer: base table(s) "
                f"{missing} are not registered with this engine"
            )
        if query.joins:
            # Join queries degrade to an exact join over the base
            # tables; the sampling engines would need pre-built
            # universe samples per join key to stay unbiased.
            route = DegradedRoute(
                engine="exact",
                reason="join query degrades to an exact join over "
                "registered base tables",
            )
        else:
            route = route_degraded(
                query,
                n_rows=self.tables[query.table].n_rows,
                sample_size=self.config.degrade_sample_size,
                exact_row_limit=self.config.degrade_exact_rows,
            )
        engine = self._degraded_engine(route, involved)
        single = Query(
            aggregates=[aggregate],
            table=query.table,
            joins=list(query.joins),
            ranges=list(query.ranges),
            equalities=list(query.equalities),
            group_by=query.group_by,
        )
        # The baseline engines keep per-query scratch state
        # (last_intervals); serialise evaluation so concurrent degraded
        # answers from server workers cannot interleave on it.
        with self._degrade_lock:
            values = engine.execute(single).values
        return values[str(aggregate)], route

    def _degraded_engine(self, route: DegradedRoute, tables: list[str]):
        """The lazily-built, cached engine for one degraded route."""
        from repro.engines import (
            ExactEngine,
            StratifiedAQPEngine,
            UniformAQPEngine,
        )

        key = (route.engine, tuple(sorted(tables)), route.stratify_on)
        with self._degrade_lock:
            engine = self._degraded_engines.get(key)
            if engine is not None:
                return engine
            if route.engine == "exact":
                engine = ExactEngine()
                for name in tables:
                    engine.register_table(self.tables[name])
            elif route.engine == "uniform_aqp":
                engine = UniformAQPEngine(
                    sample_size=self.config.degrade_sample_size,
                    random_seed=self.config.random_seed,
                )
                for name in tables:
                    engine.register_table(self.tables[name])
                    engine.prepare_table(name)
            elif route.engine == "stratified_aqp":
                engine = StratifiedAQPEngine(
                    random_seed=self.config.random_seed
                )
                for name in tables:
                    engine.register_table(self.tables[name])
                    engine.prepare_table(
                        name,
                        stratify_on=route.stratify_on,
                        sample_size=self.config.degrade_sample_size,
                    )
            else:  # pragma: no cover - route_degraded is exhaustive
                raise InvalidParameterError(
                    f"unknown degraded engine {route.engine!r}"
                )
            self._degraded_engines[key] = engine
            return engine

    # -- introspection -----------------------------------------------------

    def state_size_bytes(self) -> int:
        """Total serialised size of the model state (space overhead)."""
        return self.catalog.total_size_bytes()

    def describe(self) -> list[dict]:
        """Catalog summary joined with per-model build statistics.

        ``model_bytes`` (the serialised size) is measured here, when
        asked for: a build does not pickle the model it just trained.
        """
        rows = self.catalog.summary()
        for row, key in zip(rows, self.catalog.keys()):
            row.update(self.build_stats.get(key, {}))
            row["model_bytes"] = self.catalog.get(key).size_bytes()
        return rows
