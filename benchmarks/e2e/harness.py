"""Shared machinery of the four workloads: spans, drivers, checks.

Everything here measures the program from outside: it times calls into
the layers' public functions and keeps the stopwatch readings in the
benchmark's own memory.  Nothing reads the ``repro.obs`` registry (that
is a later issue) and nothing under ``src/`` knows it is being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.aggregates import answer_aggregate
from repro.core.batched import BatchedGroupEvaluator
from repro.core.batched_train import GroupPartition, train_batched_models
from repro.core.engine import DBEst
from repro.core.groupby import GroupByModelSet
from repro.core.result import QueryResult
from repro.engines import ExactEngine
from repro.harness.runner import record_error
from repro.sampling.reservoir import reservoir_sample_indices
from repro.serve import ModelStore
from repro.sql.ast import AggregateCall, merged_ranges
from repro.sql.parser import parse_query
from repro.sql.validator import validate_query

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Served and staged answers must match sequential ``DBEst.execute``.
PARITY_TOL = 1e-9
#: A percentile is only quoted with >= 10 samples beyond it.
MIN_LATENCY_SAMPLES = 200
#: Threads of every QueryServer the benchmark starts (the box has two
#: cores; the open-loop generator is a third, mostly sleeping, thread).
SERVER_WORKERS = 2
#: A closed loop stops early once it has the minimum sample count and
#: has run this many times the seconds it was sized for, so a slow box
#: cannot push a run past the driver's cap.
OVERRUN_FACTOR = 2.5


def load_spec() -> dict:
    """The benchmark contract: metric names, units and workloads."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans around calls into the layers.

    A span is ``[name, qid, parent, start, end]``; ``name`` is
    ``"<layer>:<operation>"``.  Nesting follows the ``with`` stack, so
    the staged pipelines (single-threaded) get parents for free; the
    served path adds finished spans with :meth:`add`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._self_times: tuple[int, dict] = (0, {})

    @contextmanager
    def span(self, name: str, qid: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent][1]
        record = [name, qid, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, qid: int | None, start: float, end: float) -> None:
        self.spans.append([name, qid, None, start, end])

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call (for a layer reached only
        through another layer's public method)."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        if self._self_times[0] == len(self.spans):
            return self._self_times[1]
        child_time = [0.0] * len(self.spans)
        for name, _qid, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, _qid, _parent, start, end), children in zip(
            self.spans, child_time
        ):
            out.setdefault(name, []).append(end - start - children)
        self._self_times = (len(self.spans), out)
        return out

    def layer_seconds(self) -> dict[str, float]:
        """Summed self time per layer (the part of the name before ':')."""
        layers: dict[str, float] = {}
        for name, values in self.self_times().items():
            layer = name.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + sum(values)
        return layers

    def mean_self(self, name: str) -> float:
        values = self.self_times().get(name)
        return sum(values) / len(values) if values else 0.0

    def write(self, workload: str, meta: dict) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace_{workload}.json"
        origin = self.spans[0][3] if self.spans else 0.0
        spans = [
            {
                "id": i,
                "name": name,
                "query": qid,
                "parent": parent,
                "start_us": (start - origin) * 1e6,
                "end_us": (end - origin) * 1e6,
            }
            for i, (name, qid, parent, start, end) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"meta": meta, "spans": spans}))
        return path


# -- results ------------------------------------------------------------------


@dataclass
class Phase:
    """Attempted / succeeded / failed operations of one phase."""

    name: str
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.notes) < 5:
            self.notes.append(why)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "samples": self.samples,
            "notes": self.notes,
        }


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    sizes: dict
    phases: list[Phase]
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: Values that must repeat exactly for one seed (determinism check).
    exact: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)


def sql_digest(sqls: list[str]) -> str:
    """Identity of a generated SQL list (must repeat for one seed)."""
    return hashlib.sha1("\n".join(sqls).encode()).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def steady_percentile(values, q: float, window: int = MIN_LATENCY_SAMPLES) -> float:
    """The median, over every window of ``window`` consecutive samples
    (a tenth of a window apart), of the window's own ``q``-th percentile;
    with no more than ``window`` samples, their plain percentile.

    A tail percentile of the whole run is set by the slowest twentieth
    of it, and on a shared box that is whichever stretch a neighbour was
    busy in: in the runs a slow stretch fell into, the plain p95 rose
    1.2-1.4x while the median rose 1.1x.  The tail of the typical
    stretch moves with the program and not with the neighbour, and each
    window still has its ten samples beyond the p95.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) <= window:
        return percentile(values, q)
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    return median(np.percentile(windows[:: window // 10], q, axis=1))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_record(seed: int, blas_pinned: bool) -> dict:
    """Where and on what a result was measured."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # the driver's checkout is not a git repository
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        sha = ref
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1 if blas_pinned else "unpinned",
        "seed": seed,
        "generator_threads": 1,
        "server_workers": SERVER_WORKERS,
    }


# -- correctness --------------------------------------------------------------


def divergence(got, want) -> float:
    """Worst relative divergence between two answers (floats or group
    dicts).  NaN on one side only, or a missing group, is infinite."""
    if isinstance(want, dict) != isinstance(got, dict):
        return math.inf
    if not isinstance(want, dict):
        got, want = {0: got}, {0: want}
    if got.keys() != want.keys():
        return math.inf
    worst = 0.0
    for key, w in want.items():
        g = got[key]
        if math.isnan(w) or math.isnan(g):
            if math.isnan(w) != math.isnan(g):
                return math.inf
            continue
        worst = max(worst, abs(g - w) / max(1.0, abs(w)))
    return worst


def values_divergence(got: dict, want: dict) -> float:
    """``divergence`` over two ``QueryResult.values`` dicts."""
    if got.keys() != want.keys():
        return math.inf
    return max((divergence(got[k], want[k]) for k in want), default=0.0)


def bit_identical(got: dict, want: dict) -> bool:
    """Exact equality of two ``values`` dicts, NaN equal to NaN."""
    return values_divergence(got, want) == 0.0


def check_parity(phase: Phase, label: str, got: dict, want: dict) -> None:
    """Fail ``phase`` when ``values`` dict ``got`` is further than
    PARITY_TOL from ``want``."""
    d = values_divergence(got, want)
    if not d <= PARITY_TOL:
        phase.fail(f"{label} diverges by {d:.3g} (> {PARITY_TOL:g})")


def check_staged(staged: list, results: list) -> Phase:
    """Staged answers must be ``DBEst.execute``'s bit for bit, otherwise
    the trace measured a different program."""
    phase = Phase("staged", attempted=len(results))
    for qid, (got, want) in enumerate(zip(staged, results)):
        if isinstance(want, str) or not bit_identical(got.values, want.values):
            phase.fail(f"staged answer {qid} is not DBEst.execute's")
    return phase


def hit_ratio(stats: dict) -> float:
    """hits / lookups of a cache ``stats()`` dict."""
    return stats["hits"] / max(1, stats["hits"] + stats["misses"])


def check_accuracy(phase: Phase, errors: dict[str, list[float]],
                   ceilings: dict[str, float]) -> float:
    """Assert each aggregate's mean relative error, and the overall mean
    (``ceilings["ALL"]``), under its ceiling; returns the overall mean,
    the paper's accuracy axis.  A NaN error is a failure of its own."""
    errors = dict(errors, ALL=[e for values in errors.values() for e in values])
    means = {}
    for label, values in errors.items():
        finite = [e for e in values if not math.isnan(e)]
        if label != "ALL" and len(finite) != len(values):
            phase.fail(f"{label}: NaN relative errors", len(values) - len(finite))
        means[label] = sum(finite) / max(1, len(finite))
        if not means[label] <= ceilings[label]:
            phase.fail(
                f"{label} mean relative error {means[label]:.4f} above its "
                f"ceiling {ceilings[label]:.4f}"
            )
    return means["ALL"]


# -- the staged pipeline ------------------------------------------------------


def staged_execute(engine: DBEst, sql: str, tracer: Tracer, qid: int) -> QueryResult:
    """``DBEst.execute`` re-assembled from the same public calls, one
    span per layer.  Covers what the workloads send: single-table range
    queries, scalar or GROUP BY, answered from models."""
    with tracer.span("core.engine:execute", qid):
        with tracer.span("sql:parse", qid):
            query = parse_query(sql)
            validate_query(query)
        start = time.perf_counter()
        ranges = merged_ranges(query.ranges)
        values: dict = {}
        for aggregate in query.aggregates:
            with tracer.span("core.engine:resolve", qid):
                key = engine.model_key_for(query.table, aggregate, ranges, query)
            if isinstance(engine.catalog, ModelStore):
                with tracer.span("serve.store:get", qid):
                    model = engine.catalog.get(key)
            else:
                with tracer.span("core.engine:resolve", qid):
                    model = engine.catalog.get(key)
            if query.group_by is not None:
                with tracer.span("core.groupby:answer", qid):
                    values[str(aggregate)] = model.answer(
                        aggregate,
                        ranges,
                        n_workers=engine.config.n_workers,
                        batched=engine.config.batched_groupby,
                    )
            else:
                with tracer.span("core.model:answer", qid):
                    values[str(aggregate)] = answer_aggregate(
                        model, aggregate, ranges
                    )
        return QueryResult(
            values=values,
            source="model",
            elapsed_seconds=time.perf_counter() - start,
            sql=sql,
        )


def staged_layer_metrics(tracer: Tracer, n_queries: int, traced_wall: float,
                         untraced_wall: float) -> dict[str, float]:
    """The per-layer numbers any replay through ``staged_execute`` yields
    (``serve.server`` spans, recorded from outside, are not a stage)."""
    seconds = {
        layer: s for layer, s in tracer.layer_seconds().items()
        if layer != "serve.server"
    }
    resolve = tracer.self_times()["core.engine:resolve"]
    return {
        "sql.parse_us": tracer.mean_self("sql:parse") * 1e6,
        "sql.parse_share": seconds.get("sql", 0.0) / traced_wall,
        "core.engine.resolve_us": sum(resolve) / n_queries * 1e6,
        "core.engine.execute_overhead_us": (
            tracer.mean_self("core.engine:execute") * 1e6
        ),
        "core.groupby.answer_ms": tracer.mean_self("core.groupby:answer") * 1e3,
        "core.model.share": seconds.get("core.model", 0.0) / traced_wall,
        "core.batched.share": seconds.get("core.batched", 0.0) / traced_wall,
        "driver.layer_cover_share": sum(seconds.values()) / traced_wall,
        "driver.trace_overhead_share": traced_wall / untraced_wall - 1.0,
    }


def staged_groupby_training(tracer: Tracer, table, sample_size: int, config,
                            seed: int, streaming: bool, reference) -> tuple:
    """``build_model(table, "x", "y", group_by="g")`` from its public
    parts, one span per layer, then the batched trainer's own pieces
    called directly on the same sample.

    ``reference`` is the set ``DBEst.build_model`` trained from the same
    seed; the staged set must answer exactly like it.  Returns the phase
    of that check and the per-layer metrics.
    """
    rng = np.random.default_rng(seed)
    with tracer.span("core.engine:build_model"):
        with tracer.span("sampling:reservoir"):
            indices = reservoir_sample_indices(table.n_rows, sample_size, rng=rng)
        sample_x = table["x"][indices].astype(np.float64)[:, None]
        sample_y = table["y"][indices].astype(np.float64)
        sample_groups = table["g"][indices]
        with tracer.span("core.groupby:train"):
            model_set = GroupByModelSet.train(
                sample_x, sample_y, sample_groups=sample_groups,
                full_groups=table["g"], full_x=table["x"][:, None],
                full_y=table["y"], table_name=table.name, x_columns=("x",),
                y_column="y", group_column="g", config=config,
                streaming=streaming,
            )
        with tracer.span("core.batched:build"):
            BatchedGroupEvaluator.build(model_set)
    phase = Phase("staged_train", attempted=1)
    probe = (AggregateCall("AVG", "y"), {"x": (20.0, 60.0)})
    if divergence(model_set.answer(*probe), reference.answer(*probe)) != 0.0:
        phase.fail("staged GroupByModelSet differs from build_model's")

    with tracer.span("core.batched_train:partition"):
        partition = GroupPartition.from_groups(sample_groups)
    fit = dict(
        sample_part=partition,
        modelled_mask=partition.counts >= config.min_group_rows,
        table_name=table.name, x_columns=("x",), config=config,
        population=dict(zip(partition.values.tolist(), partition.counts.tolist())),
    )
    with tracer.span("core.batched_train:fit"):
        train_batched_models(sample_x, sample_y, y_column="y", **fit)
    with tracer.span("core.batched_train:density_only_fit"):
        train_batched_models(sample_x, None, y_column=None, **fit)
    fit_s = tracer.mean_self("core.batched_train:fit")
    density_s = tracer.mean_self("core.batched_train:density_only_fit")
    return phase, {
        "sampling.reservoir_ms": tracer.mean_self("sampling:reservoir") * 1e3,
        "core.groupby.train_s": tracer.mean_self("core.groupby:train"),
        "core.batched.build_ms": tracer.mean_self("core.batched:build") * 1e3,
        "core.batched_train.partition_ms": (
            tracer.mean_self("core.batched_train:partition") * 1e3
        ),
        "core.batched_train.fit_s": fit_s,
        "core.batched_train.density_only_fit_s": density_s,
        "core.batched_train.regressor_fit_s": fit_s - density_s,
    }


def kernel_answer_metrics(tracer: Tracer, calls: list[str]) -> dict[str, float]:
    """Mean ``BatchedGroupEvaluator.answer`` time per aggregate call;
    ``calls[i]`` (e.g. ``"AVG(y)"``) is what the i-th kernel span answered."""
    means = mean_by_label(tracer.self_times()["core.batched:answer"], calls)
    return {
        "core.batched.answer_{}_{}_ms".format(
            *call.lower().rstrip(")").split("(")
        ): mean * 1e3
        for call, mean in means.items()
    }


def trace_evaluators(engine: DBEst, tracer: Tracer) -> None:
    """Give every group-by set's evaluator a ``core.batched:answer`` span,
    so ``GroupByModelSet.answer`` splits into its own time and the
    kernel's.  Wraps the public ``answer`` on the instance only."""
    for key in engine.catalog.keys():
        if key.group_by is None:
            continue
        evaluator = engine.catalog.get(key).batched_evaluator()
        evaluator.answer = tracer.wrap("core.batched:answer", evaluator.answer)


# -- drivers ------------------------------------------------------------------


def closed_loop(execute, sqls: list[str], stop_at: float = math.inf,
                min_samples: int = 0):
    """One caller, next request only after the previous answer.

    Returns ``(latencies_s, results, wall_s)``; a raised query leaves
    the exception's repr in ``results``.  Past ``stop_at`` (a
    ``perf_counter`` reading) the loop ends once it has ``min_samples``.
    """
    latencies: list[float] = []
    results: list = []
    begin = time.perf_counter()
    for i, sql in enumerate(sqls):
        start = time.perf_counter()
        if start > stop_at and i >= min_samples:
            break
        try:
            result = execute(sql)
        except Exception as exc:  # noqa: BLE001 - a failed query is a data point
            result = repr(exc)
        latencies.append(time.perf_counter() - start)
        results.append(result)
    return latencies, results, time.perf_counter() - begin


def open_loop(server, sqls: list[str], rate: float, drain_timeout_s: float = 30.0):
    """One generator thread sends on a fixed schedule, whatever the
    server does.  Each request is timed from the instant it was *due*,
    so a stall is charged to every request queued behind it.

    Returns a dict of per-request ``latency_s`` (None when the future
    failed), ``lag_s`` (how late the generator sent), ``submit_s``,
    ``results``, and ``drain_s`` (last send -> last completion).
    """
    n = len(sqls)
    done_at = [0.0] * n
    futures: list = [None] * n
    lag = [0.0] * n
    submit = [0.0] * n
    remaining = threading.Semaphore(0)

    def on_done(index: int):
        def callback(_future) -> None:
            done_at[index] = time.perf_counter()
            remaining.release()

        return callback

    t0 = time.perf_counter() + 0.01
    due = [t0 + i / rate for i in range(n)]
    for i, sql in enumerate(sqls):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        lag[i] = sent - due[i]
        try:
            future = server.submit(sql)
        except Exception as exc:  # noqa: BLE001 - shed at admission
            futures[i] = exc
            done_at[i] = time.perf_counter()
            remaining.release()
            continue
        submit[i] = time.perf_counter() - sent
        futures[i] = future
        future.add_done_callback(on_done(i))
    last_send = time.perf_counter()
    deadline = last_send + drain_timeout_s
    hung = 0
    for _ in range(n):
        if not remaining.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            hung += 1
    drain_s = max(done_at) - last_send if not hung else math.inf
    results: list = []
    latency: list = []
    for i, future in enumerate(futures):
        if isinstance(future, Exception):
            results.append(repr(future))
            latency.append(None)
        elif not future.done():
            results.append("hung")
            latency.append(None)
        elif future.exception() is not None:
            results.append(repr(future.exception()))
            latency.append(None)
        else:
            results.append(future.result())
            latency.append(done_at[i] - due[i])
    return {
        "latency_s": latency,
        "lag_s": lag,
        "submit_s": submit,
        "results": results,
        "drain_s": max(0.0, drain_s),
        "due": due,
        "done_at": done_at,
    }


def serve_all(server, sqls: list[str], timeout_s: float = 60.0) -> list:
    """``QueryServer.run`` that survives failures: queue everything up
    front (so lookalikes coalesce), then gather in order.  A request
    that is refused, raises or hangs leaves a string in its slot."""
    futures: list = []
    for sql in sqls:
        try:
            futures.append(server.submit(sql))
        except Exception as exc:  # noqa: BLE001 - shed at admission
            futures.append(repr(exc))
    results: list = []
    for future in futures:
        if isinstance(future, str):
            results.append(future)
            continue
        try:
            results.append(future.result(timeout=timeout_s))
        except Exception as exc:  # noqa: BLE001 - raised, or hung past the timeout
            results.append(repr(exc))
    return results


def count_failures(phase: Phase, results: list) -> list[int]:
    """Charge raised / shed / hung / degraded requests to ``phase``;
    returns the indices that produced a usable ``QueryResult``."""
    good: list[int] = []
    for i, result in enumerate(results):
        if isinstance(result, str):
            phase.fail(f"request {i}: {result}")
        elif result.degraded:
            phase.fail(f"request {i} degraded: {result.degraded_reason}")
        else:
            good.append(i)
    return good


# -- set-up, store and scratch space -----------------------------------------


def scratch_dir(tag: str) -> Path:
    """A private directory under ``out/`` (the only place a run writes)."""
    path = OUT_DIR / f"tmp-{os.getpid()}-{tag}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def share(n: int, k: int, rounds: int) -> int:
    """How many of ``n`` items round ``k`` of ``rounds`` takes (the
    early rounds take the odd ones)."""
    return -(-n * (k + 1) // rounds) + (-n * k // rounds)


def part(items: list, k: int, rounds: int) -> list:
    """Round ``k``'s slice of ``items`` cut into ``rounds`` in order."""
    return items[k * len(items) // rounds: (k + 1) * len(items) // rounds]


class Setups:
    """Timed repeats of a workload's set-up.

    ``build(store_dir)`` returns a namespace with an ``engine`` whose
    models it trained.  :meth:`first` makes the fixture the run uses;
    :meth:`again` repeats the set-up into a directory of its own and
    drops what it built.  ``setup_s`` and ``train_rows_per_s`` are the
    medians over all of them, so work a later change moves from query
    time into set-up shows as a steady number.

    The repeats are taken between the other phases of a run, not in one
    stretch before them: this box's compute speed wanders on a scale of
    ten seconds, and seven set-ups in a row would all see one mood of it.
    """

    def __init__(self, build, tag: str, repeats: int) -> None:
        self.build, self.tag, self.repeats = build, tag, repeats
        self.seconds: list[float] = []
        self.rates: list[float] = []

    def first(self):
        return self._timed(scratch_dir(self.tag))

    def again(self, k: int, rounds: int) -> None:
        """Round ``k``'s part of the repeats after the first."""
        for _ in range(share(self.repeats - 1, k, rounds)):
            self._timed(scratch_dir(self.tag + "-again"))

    def _timed(self, store_dir: Path):
        start = time.perf_counter()
        fixture = self.build(store_dir)
        self.seconds.append(time.perf_counter() - start)
        self.rates.append(train_rate(fixture.engine))
        return fixture


def train_rate(engine: DBEst) -> float:
    """Sample rows turned into registered models per second of
    ``DBEst.build_model`` (its own sampling + training stopwatches)."""
    stats = engine.build_stats.values()
    return sum(s["sample_size"] for s in stats) / sum(
        s["sampling_seconds"] + s["training_seconds"] for s in stats
    )


class ColdStarts:
    """``ModelStore(path)`` -> ``get(key)`` -> first answer to one fixed
    query, a fresh handle every time.

    Sampled a few at a time between the other phases of a run
    (:meth:`sample`, ``batches`` times), for the same reason as
    :class:`Setups`.
    """

    def __init__(self, store_path: Path, config, sql: str, repeats: int,
                 batches: int) -> None:
        self.store_path, self.config, self.sql = store_path, config, sql
        self.per_batch = max(1, repeats // batches)
        self._query = parse_query(sql)
        self._ranges = merged_ranges(self._query.ranges)
        self.rows: list[tuple[float, float, float]] = []  # open, get, total (s)
        self.answer: QueryResult | None = None

    def sample(self) -> None:
        query = self._query
        for _ in range(self.per_batch):
            start = time.perf_counter()
            store = ModelStore(self.store_path, config=self.config)
            opened = time.perf_counter()
            engine = DBEst(config=self.config)
            engine.catalog = store
            store.get(
                engine.model_key_for(query.table, query.aggregates[0], self._ranges, query)
            )
            got = time.perf_counter()
            self.answer = engine.execute(self.sql)
            end = time.perf_counter()
            self.rows.append((opened - start, got - opened, end - start))
            del engine, store

    def median_ms(self, column: int) -> float:
        """Median of open (0), get (1) or open-to-answer (2) time."""
        return median([row[column] for row in self.rows]) * 1e3

    def check(self, want: dict) -> Phase:
        phase = Phase("cold_start", attempted=len(self.rows))
        check_parity(phase, "cold start", self.answer.values, want)
        return phase


def remove_scratch() -> None:
    """Delete this process's private directories under ``out/``."""
    for path in OUT_DIR.glob(f"tmp-{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)


# -- a closed-loop query workload, end to end ---------------------------------

#: Untraced and staged execution alternate in blocks of this many
#: queries, so the machine's slow drifts hit both sides of
#: ``driver.trace_overhead_share`` alike.
TRACE_BLOCK = 20


def paired_passes(engine: DBEst, clone: DBEst, sqls: list[str], tracer: Tracer,
                  first_qid: int = 0):
    """The traced run: each block of queries goes through ``DBEst.execute``
    on ``engine`` and then through the staged pipeline on ``clone``
    (query ids count up from ``first_qid``).

    Returns ``(latencies_s, results, untraced_wall_s, staged_results,
    traced_wall_s)``.
    """
    latencies: list[float] = []
    results: list = []
    staged: list = []
    untraced_wall = traced_wall = 0.0
    for lo in range(0, len(sqls), TRACE_BLOCK):
        block = sqls[lo: lo + TRACE_BLOCK]
        lat, res, wall = closed_loop(engine.execute, block)
        latencies += lat
        results += res
        untraced_wall += wall
        begin = time.perf_counter()
        for offset, sql in enumerate(block):
            staged.append(staged_execute(clone, sql, tracer, first_qid + lo + offset))
        traced_wall += time.perf_counter() - begin
    return latencies, results, untraced_wall, staged, traced_wall


def run_query_workload(sz: dict, setups: Setups, fixture, sqls: list[str],
                       labels: list[str], warm_sql: str, cold_sql: str,
                       trace: bool):
    """What ``adhoc_scalar`` and ``groupby_fresh`` share: one closed-loop
    caller of ``DBEst.execute``, the ExactEngine oracle off the clock,
    cold starts from the packed store, and (traced) the staged replay.

    The run goes in ``sz["rounds"]`` rounds - a batch of cold starts, a
    slice of the queries, a share of the repeated set-ups - so every
    metric samples the whole length of the run.  ``sz["loop_seconds"]``
    is what the closed loop should take; past ``OVERRUN_FACTOR`` times
    that it stops once it has its minimum samples.

    ``fixture`` (``setups.first()``) carries ``table``, ``engine`` and
    ``store_dir``; ``labels[i]`` names the aggregate class of ``sqls[i]``
    for the per-aggregate error ceilings ``sz["ceilings"]``; ``warm_sql``
    and ``cold_sql`` (the cold-start query, the same for every seed so
    the metric does not follow the seed's mix) are not in ``sqls``.
    Returns the outcome and the tracer (None untraced).
    """
    engine = fixture.engine
    tracer = Tracer() if trace else None
    engine.execute(warm_sql)  # lazy imports and stacking are not a user's wait
    if trace:
        clone = pickle.loads(pickle.dumps(engine))
        trace_evaluators(clone, tracer)
    rounds = sz["rounds"]
    cold = ColdStarts(  # a batch before, between and after the slices
        fixture.store_dir, engine.config, cold_sql, sz["cold_repeats"], rounds + 1
    )
    latencies: list[float] = []
    results: list = []
    staged: list = []
    wall = traced_wall = 0.0
    budget = sz["loop_seconds"] * OVERRUN_FACTOR
    for k in range(rounds):
        cold.sample()
        sliced = part(sqls, k, rounds)
        if trace:
            lat, res, seconds, replay, traced = paired_passes(
                engine, clone, sliced, tracer, first_qid=len(results)
            )
            staged += replay
            traced_wall += traced
        else:
            lat, res, seconds = closed_loop(
                engine.execute, sliced, time.perf_counter() + budget - wall,
                MIN_LATENCY_SAMPLES - len(latencies),
            )
        latencies += lat
        results += res
        wall += seconds
        if len(res) < len(sliced):  # out of time: results stay a prefix of sqls
            break
        setups.again(k, rounds)
    cold.sample()
    queries = Phase("queries", attempted=len(results), samples=len(results))
    good = count_failures(queries, results)

    exact = ExactEngine()
    exact.register_table(fixture.table)
    errors: dict[str, list[float]] = {
        label: [] for label in sz["ceilings"] if label != "ALL"
    }
    exact_seconds = []
    for i in good:
        start = time.perf_counter()
        truth = exact.execute(sqls[i])
        exact_seconds.append(time.perf_counter() - start)
        for label, want in truth.values.items():
            errors[labels[i]].append(
                record_error(want, results[i].values.get(label, math.nan))
            )
    accuracy = Phase("accuracy", attempted=len(good))
    rel_error_mean = check_accuracy(accuracy, errors, sz["ceilings"])

    outcome = Outcome(
        sz, [queries, accuracy, cold.check(engine.execute(cold_sql).values)]
    )
    outcome.exact = {
        "sql_digest": sql_digest(sqls[: len(results)]),
        "rel_error_mean": rel_error_mean,
        "state_bytes": engine.catalog.total_size_bytes(),
    }
    outcome.e2e = {
        "setup_s": median(setups.seconds),
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p95_ms": steady_percentile(latencies, 95) * 1e3,
        "throughput_qps": (len(good) - accuracy.failed) / wall,
        "state_bytes": outcome.exact["state_bytes"],
        "peak_rss_mb": peak_rss_mb(),
        "train_rows_per_s": median(setups.rates),
        "cold_first_answer_ms": cold.median_ms(2),
    }
    if trace:
        outcome.phases.append(check_staged(staged, results))
        outcome.layers = staged_layer_metrics(
            tracer, len(results), traced_wall, wall
        )
        outcome.layers.update({
            "rel_error_mean": rel_error_mean,
            "engines.exact.query_ms": float(np.mean(exact_seconds)) * 1e3,
            "serve.store.open_ms": cold.median_ms(0),
            "serve.store.get_ms": cold.median_ms(1),
            "driver.samples": len(latencies),
        })
    return outcome, tracer


def mean_by_label(values: list[float], labels: list[str]) -> dict[str, float]:
    """Mean of ``values`` per label (one value per query, in order)."""
    sums: dict[str, list[float]] = {}
    for label, value in zip(labels, values):
        sums.setdefault(label, []).append(value)
    return {label: sum(v) / len(v) for label, v in sums.items()}
