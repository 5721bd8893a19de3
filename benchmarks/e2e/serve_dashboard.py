"""serve_dashboard - many users asking near-identical questions.

200 groups x 200 rows plus one scalar model, written as an mmap
``ModelStore`` and served by ``QueryServer(n_workers=2)``.  Traffic is
Zipf(1.1) over 128 hot templates (32 bounds x COUNT/SUM/AVG GROUP BY +
scalar AVG) with 10 % unique-bound ad-hoc queries mixed in: the hot set
fits the 4096-entry answer cache, the ad-hoc tail never hits it.  Why:
~90 % of requests are answered by ``serve.plan_cache`` +
``serve.answer_cache`` + coalescing and never reach the kernel, so
serving-layer work shows here and kernel work shows only in the tail.

Closed loop (``QueryServer.run``, everything queued up front) gives the
throughput; an open loop from one generator thread (independent
dashboard users) at a fixed arrival rate gives the latencies.  Both are
taken in ``rounds`` turns - a burst of the closed loop, then a stretch
of the open loop, then a repeat of the set-up - so that each samples the
whole length of the run and not one mood of the box.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro.core.engine import DBEst
from repro.serve import ModelStore, PlanCache, QueryServer

from benchmarks.e2e import fixtures as fx
from benchmarks.e2e import harness as h

NAME = "serve_dashboard"
TABLE = "served"
#: (aggregate call, GROUP BY column) of the four query shapes.
SHAPES = (("COUNT(x)", "g"), ("SUM(y)", "g"), ("AVG(y)", "g"), ("AVG(y)", None))
LATENCY_LIMIT_MS = 150.0
DRAIN_LIMIT_S = 1.0


def sizes(seconds: float) -> dict:
    """Seed code: a hit ~0.2 ms, a GROUP BY miss 6-30 ms."""
    return {
        "groups": 200,
        "rows_per_group": 200,
        "hot_bounds": 32,
        "zipf_exponent": 1.1,
        "adhoc_share": 0.1,
        "rounds": 4,
        "closed_loop_queries": round(160 * seconds),
        "reference_rate_qps": 100,
        "reference_seconds": 0.8 * seconds,
        "min_open_loop_samples": h.MIN_LATENCY_SAMPLES,
        # Kept >= 30 % away from the seed's capacity (~500 q/s: one miss
        # in ten, ~20 ms each, one model lock) so the step cannot flap.
        "sweep_rates_qps": [200, 300, 800],
        "sweep_seconds": 2.0,
        "idle_probes": 100,
        "replayed_templates": 64,
        "setup_repeats": 7,
        "cold_repeats": 25,
    }


TOY = {
    "groups": 20,
    "rows_per_group": 60,
    "hot_bounds": 4,
    "zipf_exponent": 1.1,
    "adhoc_share": 0.1,
    "rounds": 2,
    "closed_loop_queries": 40,
    "reference_rate_qps": 100,
    "reference_seconds": 0.2,
    "min_open_loop_samples": 20,
    "sweep_rates_qps": [200],
    "sweep_seconds": 0.1,
    "idle_probes": 10,
    "replayed_templates": 8,
    "setup_repeats": 2,
    "cold_repeats": 4,
}


def _build(seed: int, sz: dict, store_dir) -> SimpleNamespace:
    table = fx.grouped_table(seed, sz["groups"], sz["rows_per_group"], TABLE)
    engine = DBEst(config=fx.grouped_config(seed))
    engine.register_table(table)
    engine.build_model(TABLE, x="x", y="y", group_by="g", sample_size=table.n_rows)
    engine.build_model(TABLE, x="x", y="y", sample_size=table.n_rows)
    start = time.perf_counter()
    store = ModelStore.write(
        engine.catalog, store_dir, config=engine.config, store_format="mmap"
    )
    write_s = time.perf_counter() - start
    return SimpleNamespace(
        table=table, engine=engine, store_dir=store_dir, write_s=write_s,
        state_bytes=store.total_size_bytes(),
    )


class Traffic:
    """The seeded request stream: hot templates by Zipf rank, plus an
    ad-hoc tail whose bounds are never repeated.

    The tail is exact, not sampled: one request in every block of
    ``1 / adhoc_share`` is ad-hoc (at a random place in the block) and
    ad-hoc queries cycle the three GROUP BY shapes.  With one miss in
    ten the p95 of a run is the median of its misses; fixing the mix
    keeps that median inside the SUM/AVG cluster instead of on the edge
    between a 6 ms COUNT and a 30 ms SUM.
    """

    def __init__(self, seed: int, sz: dict) -> None:
        self._rng = np.random.default_rng(seed + 1)
        templates = [
            (shape, bounds)
            for bounds in fx.unique_bounds(self._rng, sz["hot_bounds"])
            for shape in SHAPES
        ]
        # Popularity rank is independent of shape and bounds.
        order = self._rng.permutation(len(templates))
        self.hot_shapes = [templates[i][0] for i in order]
        self.hot = [
            fx.range_sql(TABLE, templates[i][0][0], templates[i][1], templates[i][0][1])
            for i in order
        ]
        weights = 1.0 / np.arange(1, len(self.hot) + 1) ** sz["zipf_exponent"]
        self._weights = weights / weights.sum()
        self._block = round(1.0 / sz["adhoc_share"])
        self._adhoc_sent = 0

    def adhoc(self, n: int) -> list[str]:
        grouped = [shape for shape in SHAPES if shape[1]]
        sqls = []
        for bounds in fx.unique_bounds(self._rng, n):
            call, group_by = grouped[self._adhoc_sent % len(grouped)]
            sqls.append(fx.range_sql(TABLE, call, bounds, group_by))
            self._adhoc_sent += 1
        return sqls

    def draw(self, n: int) -> tuple[list[str], list[bool]]:
        """``n`` requests and, for each, whether it is a hot template."""
        is_hot = np.ones(n, dtype=bool)
        for lo in range(0, n - self._block + 1, self._block):
            is_hot[lo + self._rng.integers(self._block)] = False
        ranks = self._rng.choice(len(self.hot), size=n, p=self._weights)
        tail = iter(self.adhoc(int((~is_hot).sum())))
        sqls = [self.hot[r] if hot else next(tail) for r, hot in zip(ranks, is_hot)]
        return sqls, is_hot.tolist()


def _serving_engine(fixture) -> DBEst:
    served = DBEst(config=fixture.engine.config)
    served.catalog = ModelStore(fixture.store_dir, config=fixture.engine.config)
    return served


def _add_delta(total: dict, after: dict, before: dict, keys) -> None:
    """Add what ``stats()`` counted between two snapshots to ``total``."""
    for key in keys:
        total[key] = total.get(key, 0) + after[key] - before[key]


def _pooled(runs: list[dict]) -> dict:
    """The open-loop stretches of one rate as one run (the backlog has
    to drain after each of them)."""
    lists = ("latency_s", "lag_s", "submit_s", "results", "due", "done_at")
    pooled = {key: [x for run in runs for x in run[key]] for key in lists}
    pooled["drain_s"] = max(run["drain_s"] for run in runs)
    return pooled


def _rate_ok(phase: h.Phase, run: dict) -> tuple[bool, list[int]]:
    """Did one fixed-rate run meet the limit: p95 within LATENCY_LIMIT_MS,
    nothing failed, backlog drained within DRAIN_LIMIT_S of the last
    send?  Also returns the indices of the requests that were answered."""
    good = h.count_failures(phase, run["results"])
    if len(good) < len(run["results"]):
        return False, good
    p95 = h.percentile([run["latency_s"][i] for i in good], 95) * 1e3
    return p95 <= LATENCY_LIMIT_MS and run["drain_s"] <= DRAIN_LIMIT_S, good


def run(seed: int, sz: dict, trace: bool) -> h.Outcome:
    setups = h.Setups(
        lambda store_dir: _build(seed, sz, store_dir), NAME,
        1 if trace else sz["setup_repeats"],
    )
    fixture = setups.first()
    store_dir, rounds = fixture.store_dir, sz["rounds"]
    traffic = Traffic(seed, sz)
    closed_sqls, _ = traffic.draw(sz["closed_loop_queries"] // (2 if trace else 1))
    open_sqls, open_hot = traffic.draw(max(
        sz["min_open_loop_samples"],
        round(sz["reference_rate_qps"] * sz["reference_seconds"] / (2 if trace else 1)),
    ))
    served = _serving_engine(fixture)
    cold = h.ColdStarts(  # a batch before, between and after the rounds
        store_dir, served.config,
        fx.range_sql(TABLE, "AVG(y)", (20.0, 60.0), group_by="g"),
        sz["cold_repeats"], rounds + 1,
    )
    layers: dict[str, float] = {}
    tracer = h.Tracer() if trace else None
    sent: list[str] = []
    answers: list = []

    warm = h.Phase("warm", attempted=len(traffic.hot))
    closed = h.Phase("closed_loop", attempted=len(closed_sqls))
    opened = h.Phase("open_loop", attempted=len(open_sqls), samples=len(open_sqls))
    phases = [warm, closed, opened]
    closed_results: list = []
    closed_wall = 0.0
    closed_stats: dict = {}  # what the server counted over the closed loop only
    open_cache: dict = {}  # answer-cache lookups over the open loop only
    stretches: list[dict] = []
    with QueryServer(served, n_workers=h.SERVER_WORKERS) as server:
        # Users of a dashboard meet a server whose hot set is resident.
        sent += traffic.hot
        answers += h.serve_all(server, traffic.hot)

        if trace:
            _idle_probes(server, traffic, sz, layers, phases, sent, answers)

        for k in range(rounds):
            cold.sample()
            before = server.stats()
            start = time.perf_counter()
            closed_results += h.serve_all(server, h.part(closed_sqls, k, rounds))
            closed_wall += time.perf_counter() - start
            between = server.stats()
            stretches.append(h.open_loop(
                server, h.part(open_sqls, k, rounds), sz["reference_rate_qps"]
            ))
            after = server.stats()
            _add_delta(
                closed_stats, between, before, ("queries", "engine_calls", "coalesced")
            )
            _add_delta(
                open_cache, after["answer_cache"], between["answer_cache"],
                ("hits", "misses"),
            )
            setups.again(k, rounds)
        cold.sample()
        reference = _pooled(stretches)
        sent += closed_sqls + open_sqls
        answers += closed_results + reference["results"]
        reference_ok, good_open = _rate_ok(opened, reference)
        best_rate = sz["reference_rate_qps"] if reference_ok else 0
        if trace:
            for i, (due, done) in enumerate(zip(reference["due"], reference["done_at"])):
                tracer.add("serve.server:request", i, due, done)
            sweep = h.Phase("rate_sweep")
            phases.append(sweep)
            for rate in sz["sweep_rates_qps"] if reference_ok else []:
                sqls, _ = traffic.draw(round(rate * sz["sweep_seconds"]))
                probe = h.Phase(f"rate_{rate}", attempted=len(sqls))
                ok, _ = _rate_ok(probe, h.open_loop(server, sqls, rate, 10.0))
                sweep.attempted += len(sqls)
                if not ok:  # a missed rate is a finding, not a failure
                    break
                best_rate = rate
        final = server.stats()

    good_closed = h.count_failures(closed, closed_results)
    h.count_failures(warm, answers[: len(traffic.hot)])

    # Every served answer against sequential DBEst.execute on the
    # in-memory engine the store was written from (off the clock).
    parity = h.Phase("parity", attempted=len(sent))
    oracle: dict[str, dict] = {}
    for sql, result in zip(sent, answers):
        if isinstance(result, str):
            continue  # already charged to its own phase
        if sql not in oracle:
            oracle[sql] = fixture.engine.execute(sql).values
        d = h.values_divergence(result.values, oracle[sql])
        if not d <= h.PARITY_TOL:
            parity.fail(f"served answer diverges by {d:.3g}: {sql}")
    phases.append(parity)

    phases.append(cold.check(fixture.engine.execute(cold.sql).values))

    open_latency = [reference["latency_s"][i] for i in good_open]
    outcome = h.Outcome(sz, phases)
    outcome.exact = {
        "sql_digest": h.sql_digest(sent),
        "state_bytes": fixture.state_bytes,
        "engine_calls": final["engine_calls"],
        "plan_cache": [final["plan_cache"]["hits"], final["plan_cache"]["misses"]],
    }
    outcome.e2e = {
        "setup_s": h.median(setups.seconds),
        "query_p50_ms": h.percentile(open_latency, 50) * 1e3,
        "query_p95_ms": h.steady_percentile(open_latency, 95) * 1e3,
        "throughput_qps": (len(good_closed) - parity.failed) / closed_wall,
        "state_bytes": fixture.state_bytes,
        "peak_rss_mb": h.peak_rss_mb(),
        "train_rows_per_s": h.median(setups.rates),
        "cold_first_answer_ms": cold.median_ms(2),
    }
    if not trace:
        return outcome

    n_closed = max(1, closed_stats["queries"])
    hot_latency = [
        reference["latency_s"][i] for i in good_open if open_hot[i]
    ]
    store_stats = final["store"]
    layers.update({
        "max_rate_within_limit_qps": best_rate,
        "serve.plan_cache.hit_ratio": h.hit_ratio(final["plan_cache"]),
        # Over the open loop: queued lookalikes of the closed loop share
        # one lookup, which would hide hits behind coalescing.
        "serve.answer_cache.hit_ratio": h.hit_ratio(open_cache),
        "serve.answer_cache.evictions": final["answer_cache"]["evictions"],
        "serve.server.submit_us": float(np.mean(reference["submit_s"])) * 1e6,
        "serve.server.queue_wait_p95_ms": (
            h.percentile(hot_latency, 95) * 1e3
            - layers["serve.server.hit_latency_p50_ms"]
        ),
        "serve.server.engine_calls_per_query": closed_stats["engine_calls"] / n_closed,
        "serve.server.coalesced_share": closed_stats["coalesced"] / n_closed,
        "serve.server.single_flight": final["single_flight"],
        "serve.server.shed": final["shed"],
        "serve.server.degraded": final["degraded"],
        "serve.server.deadline_missed": final["deadline_missed"],
        "serve.store.write_s": fixture.write_s,
        "serve.store.open_ms": cold.median_ms(0),
        "serve.store.get_ms": cold.median_ms(1),
        "serve.store.disk_bytes": sum(
            p.stat().st_size for p in store_dir.rglob("*") if p.is_file()
        ),
        "serve.store.loads": store_stats["loads"],
        "serve.store.hit_ratio": h.hit_ratio(store_stats),
        "serve.store.retries": store_stats["retries"],
        "driver.gen_lag_p95_ms": h.percentile(reference["lag_s"], 95) * 1e3,
        "driver.samples": len(open_latency),
    })
    plans = PlanCache()
    start = time.perf_counter()
    for sql in closed_sqls:
        plans.parse(sql)
    layers["serve.plan_cache.parse_us"] = (
        (time.perf_counter() - start) / len(closed_sqls) * 1e6
    )
    _staged_replay(fixture, traffic, sz["replayed_templates"], tracer, layers, phases)
    tracer.write(NAME, {"seed": seed, "workload": NAME})
    outcome.layers = layers
    return outcome


def _idle_probes(server, traffic, sz, layers, phases, sent, answers) -> None:
    """Latency of one request at a time on an idle server: a resident
    hot template (hit) and a never-seen ad-hoc query (miss)."""
    n = sz["idle_probes"]
    probes = h.Phase("idle_probes", attempted=n + n // 4)
    phases.append(probes)
    for label, sqls in (
        ("hit", [traffic.hot[i % len(traffic.hot)] for i in range(n)]),
        ("miss", traffic.adhoc(n // 4)),
    ):
        latencies, results, _ = h.closed_loop(server.execute, sqls)
        h.count_failures(probes, results)
        sent.extend(sqls)
        answers.extend(results)
        layers[f"serve.server.{label}_latency_p50_ms"] = (
            h.percentile(latencies, 50) * 1e3
        )


def _staged_replay(fixture, traffic, n, tracer, layers, phases) -> None:
    """What the misses cost below the server: the ``n`` hottest templates
    through ``DBEst.execute`` and the staged pipeline, both on fresh
    store-backed engines (no answer cache in the way)."""
    hot, shapes = traffic.hot[:n], traffic.hot_shapes[:n]
    engine = _serving_engine(fixture)
    clone = _serving_engine(fixture)
    h.trace_evaluators(clone, tracer)
    engine.execute(traffic.hot[-1])
    _lat, results, wall, staged, traced_wall = h.paired_passes(
        engine, clone, hot, tracer
    )
    phases.append(h.check_staged(staged, results))
    layers.update(h.staged_layer_metrics(tracer, len(results), traced_wall, wall))
    layers.update(h.kernel_answer_metrics(
        tracer, [call for call, group_by in shapes if group_by]
    ))
