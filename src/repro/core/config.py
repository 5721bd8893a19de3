"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidParameterError

_REGRESSORS = ("ensemble", "gboost", "xgboost", "plr", "linear", "tree")
_PARALLEL_MODES = ("thread", "process")
_SHED_POLICIES = ("reject", "drop-oldest")
_STORE_FORMATS = ("pickle", "mmap")


@dataclass
class DBEstConfig:
    """Tunable knobs of the DBEst engine.

    Attributes
    ----------
    default_sample_size:
        Rows drawn by reservoir sampling when ``build_model`` is not given
        an explicit sample size.
    regressor:
        Which regression model backs column-pair models: the paper's
        default is the classifier-routed ``"ensemble"``; single-model
        choices exist for the regressor ablation.
    kde_bandwidth / kde_binned / kde_bins:
        Density-estimator settings (see :mod:`repro.ml.kde`).
    kde_bins_per_dim / kde_bin_threshold:
        Multivariate histogram resolution (bins *per dimension* — the
        d-dimensional grid holds ``kde_bins_per_dim ** d`` cells, so this
        is deliberately separate from the 1-D ``kde_bins``) and the
        sample size above which binned compression kicks in for both the
        1-D and the multivariate estimator.
    integration_points:
        Simpson grid size (odd, >= 3) per dimension, for multivariate
        boxes only.  1-D integrals are closed-form
        (:mod:`repro.integrate.moments`) and ignore it.
    min_group_rows:
        GROUP BY groups whose *sample* has fewer rows than this are kept
        as raw tuples instead of models (paper: "building models over
        small groups is an overkill").
    max_groups:
        Refuse to build group-by models above this group count (paper's
        "large cardinality" limitation); callers see a ModelTrainingError
        and should fall back to another engine.
    n_workers / parallel_mode:
        Worker pool for per-group model evaluation (§4.7); 1 means
        sequential single-thread execution, the paper's default setup.
    batched_groupby:
        Answer GROUP BY aggregates for all groups in one vectorised pass
        (see :mod:`repro.core.batched`) instead of the per-group scalar
        loop.  Both 1-D and multivariate predicate sets stack; the rare
        sets the batched path cannot stack (adaptive quadrature, exotic
        densities, mixed regressor presence, 1-D regressors that export
        no pieces) silently fall back to the scalar loop regardless of
        this flag.
    serve_cache_bytes:
        Resident-model byte budget of the lazy on-disk model store
        (:class:`~repro.serve.store.ModelStore`).  Loaded models are
        kept in an LRU; once their summed record sizes exceed this
        budget the least-recently-touched models are dropped back to
        disk (they reload transparently on next touch).  0 means
        unbounded.
    store_format:
        Record format :meth:`~repro.serve.store.ModelStore.write` uses
        when not told explicitly: ``"pickle"`` (version-1 records, the
        parity oracle) or ``"mmap"`` (version-2 memory-mappable records
        — group-by sets persist their stacked CSR arrays as aligned
        segments, loads become an mmap + header check, and forked
        worker pools share the pages instead of receiving pickled
        arrays).  Models the mapped format cannot hold fall back to
        pickle records within the same store.
    serve_deadline_ms:
        Default per-request serving deadline in milliseconds (None =
        no deadline).  A queued query whose deadline expires before a
        worker dequeues it fails with
        :class:`~repro.errors.DeadlineExceededError`; a query whose
        remaining budget at evaluation time is smaller than the model
        path's observed latency degrades to a sampling engine instead
        (when ``serve_degrade`` is on).
    serve_max_queue:
        Admission-control bound on queued (not yet executing) requests
        (0 = unbounded).  When full, ``serve_shed_policy`` decides who
        is shed with :class:`~repro.errors.ServerOverloadedError`.
    serve_shed_policy:
        ``"reject"`` sheds the *new* arrival at submit time;
        ``"drop-oldest"`` sheds the oldest queued request and admits
        the new one (dashboards prefer fresh queries over stale ones).
    serve_retries:
        Bounded retry count for transient ``OSError`` during model-store
        record loads (0 = no retry).  Retries back off exponentially
        from ``serve_retry_backoff_ms`` with deterministic jitter.
    serve_retry_backoff_ms:
        Base backoff before the first store-load retry, in milliseconds;
        attempt *k* waits ``base * 2**k`` scaled by a jitter in
        [0.5, 1.5) drawn from the store's seeded RNG.
    serve_breaker_threshold:
        Consecutive model-path failures on one resolved model key that
        trip its circuit breaker open.  While open, queries on that key
        skip the failing model entirely (degrading when possible).
    serve_breaker_reset_ms:
        Cool-down after which an open breaker lets one half-open probe
        through; a successful probe closes the breaker, a failure
        re-opens it for another cool-down.
    serve_degrade:
        Route queries through :meth:`~repro.core.engine.DBEst.answer_degraded`
        (stratified/uniform AQP or exact, picked per query by
        :func:`~repro.core.advisor.route_degraded`) when the model path
        is broken (breaker open, corrupt record) or the deadline is
        near.  Degraded answers are tagged on the
        :class:`~repro.core.result.QueryResult`.
    degrade_sample_size:
        Rows kept by the degraded sampling engines (uniform/stratified)
        per table; drawn once, lazily, on first degraded answer.
    degrade_exact_rows:
        Tables at or below this row count answer degraded queries
        exactly (a full scan is cheap enough); larger tables route to a
        sampling engine.
    random_seed:
        Seed for sampling and model training; None draws fresh entropy.
    """

    default_sample_size: int = 10_000
    regressor: str = "ensemble"
    kde_bandwidth: str | float = "scott"
    kde_binned: bool = True
    kde_bins: int = 2048
    kde_bins_per_dim: int = 64
    kde_bin_threshold: int = 5000
    integration_points: int = 257
    min_group_rows: int = 30
    max_groups: int = 10_000
    n_workers: int = 1
    parallel_mode: str = "process"
    batched_groupby: bool = True
    serve_cache_bytes: int = 256 << 20
    store_format: str = "pickle"
    serve_deadline_ms: float | None = None
    serve_max_queue: int = 0
    serve_shed_policy: str = "reject"
    serve_retries: int = 2
    serve_retry_backoff_ms: float = 5.0
    serve_breaker_threshold: int = 3
    serve_breaker_reset_ms: float = 500.0
    serve_degrade: bool = True
    degrade_sample_size: int = 10_000
    degrade_exact_rows: int = 50_000
    random_seed: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.default_sample_size <= 0:
            raise InvalidParameterError(
                f"default_sample_size must be positive, got {self.default_sample_size}"
            )
        if self.regressor not in _REGRESSORS:
            raise InvalidParameterError(
                f"regressor must be one of {_REGRESSORS}, got {self.regressor!r}"
            )
        if self.integration_points < 3 or self.integration_points % 2 == 0:
            raise InvalidParameterError(
                "integration_points must be odd and >= 3, "
                f"got {self.integration_points}"
            )
        if self.parallel_mode not in _PARALLEL_MODES:
            raise InvalidParameterError(
                f"parallel_mode must be one of {_PARALLEL_MODES}, "
                f"got {self.parallel_mode!r}"
            )
        if self.n_workers < 1:
            raise InvalidParameterError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.min_group_rows < 1:
            raise InvalidParameterError(
                f"min_group_rows must be >= 1, got {self.min_group_rows}"
            )
        if self.kde_bins_per_dim < 2:
            raise InvalidParameterError(
                f"kde_bins_per_dim must be >= 2, got {self.kde_bins_per_dim}"
            )
        if self.kde_bin_threshold < 1:
            raise InvalidParameterError(
                f"kde_bin_threshold must be >= 1, got {self.kde_bin_threshold}"
            )
        if self.serve_cache_bytes < 0:
            raise InvalidParameterError(
                f"serve_cache_bytes must be >= 0 (0 = unbounded), "
                f"got {self.serve_cache_bytes}"
            )
        if self.store_format not in _STORE_FORMATS:
            raise InvalidParameterError(
                f"store_format must be one of {_STORE_FORMATS}, "
                f"got {self.store_format!r}"
            )
        if self.serve_deadline_ms is not None and self.serve_deadline_ms <= 0:
            raise InvalidParameterError(
                f"serve_deadline_ms must be positive (or None for no "
                f"deadline), got {self.serve_deadline_ms}"
            )
        if self.serve_max_queue < 0:
            raise InvalidParameterError(
                f"serve_max_queue must be >= 0 (0 = unbounded), "
                f"got {self.serve_max_queue}"
            )
        if self.serve_shed_policy not in _SHED_POLICIES:
            raise InvalidParameterError(
                f"serve_shed_policy must be one of {_SHED_POLICIES}, "
                f"got {self.serve_shed_policy!r}"
            )
        if self.serve_retries < 0:
            raise InvalidParameterError(
                f"serve_retries must be >= 0, got {self.serve_retries}"
            )
        if self.serve_retry_backoff_ms < 0:
            raise InvalidParameterError(
                f"serve_retry_backoff_ms must be >= 0, "
                f"got {self.serve_retry_backoff_ms}"
            )
        if self.serve_breaker_threshold < 1:
            raise InvalidParameterError(
                f"serve_breaker_threshold must be >= 1, "
                f"got {self.serve_breaker_threshold}"
            )
        if self.serve_breaker_reset_ms < 0:
            raise InvalidParameterError(
                f"serve_breaker_reset_ms must be >= 0, "
                f"got {self.serve_breaker_reset_ms}"
            )
        if self.degrade_sample_size < 1:
            raise InvalidParameterError(
                f"degrade_sample_size must be >= 1, "
                f"got {self.degrade_sample_size}"
            )
        if self.degrade_exact_rows < 0:
            raise InvalidParameterError(
                f"degrade_exact_rows must be >= 0, "
                f"got {self.degrade_exact_rows}"
            )
