"""Command-line interface.

The subcommands cover the offline workflow the paper describes, the
serving loop, streaming ingest and metrics exposition.  Speed and
overhead numbers come from ``benchmarks/`` (``python -m benchmarks.e2e``),
not from a subcommand.

* ``generate``    — synthesise one of the evaluation datasets to CSV.
* ``build``       — sample a CSV table, train a (group-by) model, append
  it to a model catalog on disk.
* ``query``       — answer SQL from a saved catalog (no base data needed).
* ``pack-store``  — repack a catalog file as a lazy per-model store
  directory (:class:`repro.serve.ModelStore`).
* ``store-info``  — dump a store's per-record layout;
  ``--generations`` also lists the live/dead record-generation
  inventory.
* ``refresh-store`` — absorb a CSV delta into a store's streaming
  models: per-group reservoirs absorb the rows, only the dirty groups
  re-fit, and each refreshed model is republished as a new record
  generation (``--prune`` reclaims superseded generations no reader
  still maps).
* ``serve``       — answer a stream of SQL (file or stdin) through the
  coalescing :class:`repro.serve.QueryServer`, from a catalog or store;
  ``--deadline-ms``/``--max-queue``/``--shed-policy``/``--degrade``
  expose the fault-tolerance knobs.
* ``stats``       — print the metrics registry for a catalog or store
  (Prometheus text or ``--json``), optionally after replaying a workload.
* ``advise``      — mine a query-log file and print which models to build.

Examples::

    python -m repro generate --dataset ccpp --rows 100000 --out ccpp.csv
    python -m repro build --csv ccpp.csv --x T --y EP --catalog models.pkl
    python -m repro query --catalog models.pkl \\
        "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20;"
    python -m repro pack-store --catalog models.pkl --store models.store
    python -m repro refresh-store --store models.store --csv delta.csv --prune
    python -m repro serve --store models.store --queries workload.sql
    python -m repro advise --log workload.sql
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.advisor import WorkloadAdvisor
from repro.core.catalog import ModelCatalog
from repro.core.config import DBEstConfig
from repro.core.engine import DBEst
from repro.errors import ReproError
from repro.storage.csvio import read_csv, write_csv
from repro.workloads import generate_beijing, generate_ccpp, generate_store_sales

_GENERATORS = {
    "tpcds": generate_store_sales,
    "ccpp": generate_ccpp,
    "beijing": generate_beijing,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DBEst: model-based approximate query processing",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesise a dataset CSV")
    generate.add_argument("--dataset", choices=sorted(_GENERATORS), required=True)
    generate.add_argument("--rows", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", type=Path, required=True)

    build = commands.add_parser("build", help="train a model from a CSV table")
    build.add_argument("--csv", type=Path, required=True)
    build.add_argument("--table", help="table name (default: CSV stem)")
    build.add_argument("--x", required=True, help="predicate column(s), comma separated")
    build.add_argument("--y", help="aggregate column (omit for density-only)")
    build.add_argument("--group-by", dest="group_by")
    build.add_argument("--sample-size", type=int, default=10_000)
    build.add_argument(
        "--regressor", default="ensemble",
        choices=("ensemble", "gboost", "xgboost", "plr", "linear", "tree"),
    )
    build.add_argument("--seed", type=int, default=None)
    build.add_argument(
        "--streaming", action="store_true",
        help="keep per-group reservoir state so the model can absorb "
             "appended rows later (group-by models only; see "
             "refresh-store)",
    )
    build.add_argument("--catalog", type=Path, required=True)

    query = commands.add_parser("query", help="answer SQL from a saved catalog")
    query.add_argument("--catalog", type=Path, required=True)
    query.add_argument("sql", help="the query text")

    pack = commands.add_parser(
        "pack-store",
        help="repack a catalog file as a lazy per-model store directory",
    )
    pack.add_argument("--catalog", type=Path, required=True)
    pack.add_argument("--store", type=Path, required=True)
    pack.add_argument(
        "--format", dest="store_format", choices=("pickle", "mmap"),
        default="pickle",
        help="record format: pickle (default) or mmap (zero-copy "
             "memory-mappable records for group-by sets)",
    )

    store_info = commands.add_parser(
        "store-info",
        help="dump a model store's per-record layout and byte accounting",
    )
    store_info.add_argument("--store", type=Path, required=True)
    store_info.add_argument(
        "--segments", action="store_true",
        help="also list every mapped record's segment table",
    )
    store_info.add_argument(
        "--generations", action="store_true",
        help="also list the live/dead record-generation inventory "
             "(dead files are reclaimable via refresh-store --prune)",
    )

    refresh_store = commands.add_parser(
        "refresh-store",
        help="absorb a CSV delta into a store's streaming models "
             "(dirty-group refresh, published as new record generations)",
    )
    refresh_store.add_argument("--store", type=Path, required=True)
    refresh_store.add_argument("--csv", type=Path, required=True,
                               help="delta rows to append (same schema "
                                    "as the base table)")
    refresh_store.add_argument("--table",
                               help="table the delta belongs to "
                                    "(default: CSV stem)")
    refresh_store.add_argument(
        "--prune", action="store_true",
        help="after republishing, unlink superseded record generations "
             "that no reader still maps",
    )

    serve = commands.add_parser(
        "serve",
        help="answer a stream of SQL through the coalescing query server",
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", type=Path, help="pickled catalog file")
    source.add_argument("--store", type=Path, help="lazy model store directory")
    serve.add_argument("--queries", type=Path,
                       help="file with one SQL query per line (default: stdin)")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--cache-bytes", type=int, default=None,
                       help="store residency budget in bytes (0 = unbounded)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-query deadline in milliseconds "
                            "(0 disables; default: engine config)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound on queued queries before shedding "
                            "(0 = unbounded; default: engine config)")
    serve.add_argument("--shed-policy", choices=("reject", "drop-oldest"),
                       default=None,
                       help="who pays when the queue is full "
                            "(default: engine config)")
    serve.add_argument("--degrade", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="serve degraded AQP/exact answers when the "
                            "model path is unavailable "
                            "(default: engine config)")
    serve.add_argument("--metrics-every", type=int, default=None, metavar="N",
                       help="enable metrics + tracing and print a JSON "
                            "metrics snapshot to stderr every N answered "
                            "queries, plus a final Prometheus exposition")

    stats_cmd = commands.add_parser(
        "stats",
        help="print the metrics registry (Prometheus text format or JSON)",
    )
    stats_source = stats_cmd.add_mutually_exclusive_group(required=True)
    stats_source.add_argument("--catalog", type=Path,
                              help="pickled catalog file")
    stats_source.add_argument("--store", type=Path,
                              help="lazy model store directory")
    stats_cmd.add_argument("--queries", type=Path, default=None,
                           help="optional SQL workload (one query per line) "
                                "replayed through the query server before "
                                "reporting")
    stats_cmd.add_argument("--workers", type=int, default=4)
    stats_cmd.add_argument("--json", action="store_true",
                           help="emit the JSON snapshot instead of the "
                                "Prometheus text exposition")
    stats_cmd.add_argument("--traces", type=int, default=0, metavar="N",
                           help="also print the N slowest query traces "
                                "to stderr")

    advise = commands.add_parser("advise", help="recommend models for a query log")
    advise.add_argument("--log", type=Path, required=True,
                        help="file with one SQL query per line")
    advise.add_argument("--max-models", type=int, default=10)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    table = _GENERATORS[args.dataset](args.rows, seed=args.seed)
    write_csv(table, args.out)
    print(f"wrote {table.n_rows} rows of {args.dataset} to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    table = read_csv(args.csv, name=args.table or args.csv.stem)
    config = DBEstConfig(regressor=args.regressor, random_seed=args.seed)
    engine = DBEst(config=config)
    if args.catalog.exists():
        engine.catalog = ModelCatalog.load(args.catalog)
    engine.register_table(table)
    x = tuple(part.strip() for part in args.x.split(","))
    key = engine.build_model(
        table.name,
        x=x if len(x) > 1 else x[0],
        y=args.y,
        sample_size=args.sample_size,
        group_by=args.group_by,
        streaming=args.streaming,
    )
    written = engine.catalog.save(args.catalog)
    stats = engine.build_stats[key]
    print(
        f"built model {key.table}/{','.join(key.x_columns)}"
        f"{'->' + key.y_column if key.y_column else ''}"
        f"{' by ' + key.group_by if key.group_by else ''} "
        f"in {stats['training_seconds']:.2f}s; "
        f"catalog now {written / 1e6:.2f} MB at {args.catalog}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = DBEst()
    engine.catalog = ModelCatalog.load(args.catalog)
    result = engine.execute(args.sql)
    _print_result(result)
    print(f"({result.elapsed_seconds * 1000:.1f} ms, source={result.source})",
          file=sys.stderr)
    return 0


def _cmd_pack_store(args: argparse.Namespace) -> int:
    from repro.serve import ModelStore

    catalog = ModelCatalog.load(args.catalog)
    store = ModelStore.write(catalog, args.store, store_format=args.store_format)
    mapped = sum(1 for row in store.summary() if row["format"] == "mmap")
    detail = f", {mapped} mapped" if args.store_format == "mmap" else ""
    print(
        f"packed {len(store)} model(s) "
        f"({store.total_size_bytes() / 1e6:.2f} MB of records{detail}) "
        f"into {args.store}"
    )
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    from repro.serve import ModelStore

    store = ModelStore(args.store)
    print(f"{args.store}: {len(store)} record(s), "
          f"{store.total_size_bytes() / 1e6:.2f} MB on disk")
    print(f"{'model':<40} {'format':<8} {'record':>10} {'heap':>10} "
          f"{'mapped':>10}")
    for key in store.keys():
        layout = store.record_layout(key)
        name = f"{key.table}/{','.join(key.x_columns)}"
        if key.y_column:
            name += f"->{key.y_column}"
        if key.group_by:
            name += f" by {key.group_by}"
        print(f"{name:<40} {layout['format']:<8} "
              f"{layout['record_bytes']:>10} {layout['heap_bytes']:>10} "
              f"{layout['mapped_bytes']:>10}")
        if args.segments and "segments" in layout:
            for seg in layout["segments"]:
                shape = "x".join(str(dim) for dim in seg["shape"]) or "scalar"
                print(f"    {seg['name']:<36} {seg['dtype']:<8} "
                      f"{shape:>12} @{seg['offset']:>9} "
                      f"{seg['nbytes']:>10} B")
    if args.generations:
        inventory = store.generations()
        print(f"generations: {len(inventory['live'])} live, "
              f"{len(inventory['dead'])} dead")
        for row in inventory["live"]:
            name = f"{row['table']}/{','.join(row['x_columns'])}"
            if row["y_column"]:
                name += f"->{row['y_column']}"
            if row["group_by"]:
                name += f" by {row['group_by']}"
            print(f"  live {row['filename']:<24} {name}")
        for row in inventory["dead"]:
            state = "pinned by a reader" if row["pinned"] else "reclaimable"
            print(f"  dead {row['filename']:<24} ({state})")
    return 0


def _cmd_refresh_store(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serve import ModelStore

    store = ModelStore(args.store)
    delta = read_csv(args.csv, name=args.table or args.csv.stem)
    refreshed = 0
    skipped = []
    for key in list(store.keys()):
        if key.table != delta.name:
            continue
        model = store.get(key)
        hydrate = getattr(model, "_hydrated", None)
        if hydrate is not None:  # mapped store wrapper -> heap set
            model = hydrate()
        if not getattr(model, "is_streaming", False):
            skipped.append(key)
            continue
        delta_x = np.column_stack(
            [delta[c].astype(np.float64) for c in key.x_columns]
        )
        delta_y = (
            None
            if key.y_column is None
            else delta[key.y_column].astype(np.float64)
        )
        dirty = model.refresh(delta_x, delta_y, delta[key.group_by])
        record = store.write_refresh(key, model)
        name = f"{key.table}/{','.join(key.x_columns)}"
        if key.y_column:
            name += f"->{key.y_column}"
        if key.group_by:
            name += f" by {key.group_by}"
        print(f"refreshed {name}: {len(dirty)} dirty group(s) "
              f"-> {record.filename}")
        refreshed += 1
    if args.prune:
        removed = store.prune()
        print(f"pruned {len(removed)} superseded record file(s)")
    print(f"{delta.n_rows} delta row(s) into {delta.name}: "
          f"{refreshed} model(s) refreshed, {len(skipped)} left stale "
          f"(not trained with streaming=True)")
    return 0


def _print_result(result) -> None:
    for aggregate, value in result.values.items():
        if isinstance(value, dict):
            print(aggregate)
            for group, group_value in sorted(value.items()):
                print(f"  {group}\t{group_value:.6g}")
        else:
            print(f"{aggregate}\t{value:.6g}")


def _json_safe(node):
    """Replace NaN/Inf floats with None so the dump is strict JSON."""
    import math

    if isinstance(node, float) and not math.isfinite(node):
        return None
    if isinstance(node, dict):
        return {key: _json_safe(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_json_safe(value) for value in node]
    return node


def _cmd_stats(args: argparse.Namespace) -> int:
    """One metrics exposition for a catalog/store, after an optional
    workload replay through the query server."""
    import json

    from repro.obs import enable_metrics, render_prometheus
    from repro.obs.trace import enable_tracing
    from repro.serve import ModelStore, QueryServer

    registry = enable_metrics()
    traces = enable_tracing() if args.traces > 0 else None
    engine = DBEst()
    if args.store is not None:
        engine.catalog = ModelStore(args.store)
    else:
        engine.catalog = ModelCatalog.load(args.catalog)
    if args.queries is not None:
        sqls = [
            line.strip()
            for line in args.queries.read_text().splitlines()
            if line.strip() and not line.strip().startswith(("--", "#"))
        ]
        with QueryServer(engine, n_workers=args.workers) as server:
            submitted = []
            for sql in sqls:
                try:
                    submitted.append(server.submit(sql))
                except ReproError as exc:
                    print(f"error: {sql}: {exc}", file=sys.stderr)
            for future in submitted:
                try:
                    future.result()
                except Exception as exc:
                    print(f"error: {exc}", file=sys.stderr)
            # Snapshot while the server is alive so its pull collector
            # still contributes (it is weakly referenced).
            if args.json:
                print(json.dumps(
                    _json_safe(registry.snapshot()), indent=2, sort_keys=True
                ))
            else:
                sys.stdout.write(render_prometheus(registry))
    else:
        if args.json:
            print(json.dumps(
                _json_safe(registry.snapshot()), indent=2, sort_keys=True
            ))
        else:
            sys.stdout.write(render_prometheus(registry))
    if traces is not None:
        for trace in traces.slowest(args.traces):
            print(trace.render(), file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ModelStore, QueryServer

    engine = DBEst()
    if args.store is not None:
        engine.catalog = ModelStore(args.store, cache_bytes=args.cache_bytes)
    else:
        if args.cache_bytes is not None:
            print("error: --cache-bytes only applies to --store (a pickled "
                  "catalog is loaded whole, with no residency budget)",
                  file=sys.stderr)
            return 2
        engine.catalog = ModelCatalog.load(args.catalog)
    if args.queries is not None:
        lines = args.queries.read_text().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    sqls = [
        line.strip()
        for line in lines
        if line.strip() and not line.strip().startswith(("--", "#"))
    ]
    if not sqls:
        print("error: no queries to serve", file=sys.stderr)
        return 2
    registry = None
    if args.metrics_every is not None:
        if args.metrics_every < 1:
            print("error: --metrics-every must be >= 1", file=sys.stderr)
            return 2
        import json

        from repro.obs import enable_metrics, render_prometheus
        from repro.obs.trace import enable_tracing

        registry = enable_metrics()
        enable_tracing()

    with QueryServer(
        engine,
        n_workers=args.workers,
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
        degrade=args.degrade,
    ) as server:
        # One bad line must not abort the stream: parse errors raise at
        # submit time (as does admission shedding under --max-queue) and
        # are reported in place of that query's answer.
        submitted = []
        for sql in sqls:
            try:
                submitted.append((sql, server.submit(sql), None))
            except ReproError as exc:
                submitted.append((sql, None, exc))
        answered = 0
        for sql, future, error in submitted:
            print(f"-- {sql}")
            if error is None:
                try:
                    _print_result(future.result())
                except Exception as exc:
                    error = exc
            if error is not None:
                print(f"error: {error}")
            answered += 1
            if registry is not None and answered % args.metrics_every == 0:
                print(
                    json.dumps(_json_safe(registry.snapshot())),
                    file=sys.stderr,
                )
        stats = server.stats()
        if registry is not None:
            # Final exposition while the server's pull collector is
            # still alive (it is weakly referenced).
            sys.stderr.write(render_prometheus(registry))
    print(
        f"served {stats['queries']} queries: "
        f"{stats['batches']} engine batches, "
        f"{stats['coalesced']} coalesced, {stats['engine_calls']} engine "
        f"calls, {stats['answer_cache']['hits']} answer-cache hits, "
        f"{stats['plan_cache']['hits']} plan-cache hits",
        file=sys.stderr,
    )
    print(
        f"faults: {stats['shed']} shed, {stats['deadline_missed']} "
        f"deadline-missed, {stats['degraded']} degraded, "
        f"{stats.get('retried', 0)} store retries, "
        f"{stats['breaker']['opens']} breaker opens "
        f"({stats['breaker']['open']} open now)",
        file=sys.stderr,
    )
    if "store" in stats:
        store_stats = stats["store"]
        print(
            f"store: {store_stats['resident']}/{store_stats['models']} "
            f"models resident ({store_stats['resident_bytes'] / 1e6:.2f} MB, "
            f"budget {store_stats['budget_bytes'] / 1e6:.2f} MB), "
            f"{store_stats['loads']} loads, "
            f"{store_stats['evictions']} evictions",
            file=sys.stderr,
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    advisor = WorkloadAdvisor()
    for line in args.log.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("--"):
            advisor.observe(line)
    recommendations = advisor.recommend(max_models=args.max_models)
    if not recommendations:
        print("no buildable model templates found in the log")
        return 1
    print(f"{'coverage':>9}  {'queries':>7}  template")
    for rec in recommendations:
        print(
            f"{rec.coverage * 100:>8.1f}%  {rec.frequency:>7}  "
            f"{rec.template.describe()}"
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "query": _cmd_query,
    "pack-store": _cmd_pack_store,
    "store-info": _cmd_store_info,
    "refresh-store": _cmd_refresh_store,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "advise": _cmd_advise,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
