"""Entry point of the benchmark.

The driver's form (one workload, one process, result on the last line)::

    python3 benchmarks/e2e/run.py --workload adhoc_scalar --seed 7 \
        --seconds 10 --trace 0

A person's form (every workload, each in a fresh subprocess)::

    PYTHONPATH=src python -m benchmarks.e2e --seed 7 [--trace 1] [--repeat N]

Exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __package__ in (None, ""):
    # Started by path, the way BENCHMARK.json names it: nothing has put
    # the checkout or its src/ on the import path yet.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("adhoc_scalar", "groupby_fresh", "serve_dashboard", "train_refresh")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False) -> tuple[dict, dict]:
    """Run one workload in this process.

    Returns ``(result, record)``: the driver's result object and the
    full run record (sizes, phases, exact-repeat values, environment).
    """
    import importlib

    from repro.core.parallel import limit_blas_threads

    from benchmarks.e2e import harness as h

    pinned = limit_blas_threads(1)
    module = importlib.import_module(f"benchmarks.e2e.{name}")
    sizes = module.TOY if toy else module.sizes(seconds)
    try:
        outcome = module.run(seed, sizes, trace)
    finally:
        h.remove_scratch()

    spec = h.load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.layers if trace else outcome.e2e
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"{name} emitted metrics BENCHMARK.json does not name: "
                         f"{sorted(unknown)}")
    if not trace:
        missing = {m["name"] for m in wanted} - set(measured)
        if missing:
            raise SystemExit(f"{name} did not emit {sorted(missing)}")
    failed_share = outcome.failed / max(1, outcome.attempted)
    if trace:
        measured["failed_share"] = failed_share
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "run": h.run_record(seed, pinned),
        "sizes": {k: v for k, v in outcome.sizes.items() if k != "ceilings"},
        "phases": {p.name: p.as_dict() for p in outcome.phases},
        "failed_share": failed_share,
        "exact": outcome.exact,
        "result": result,
    }
    return result, record


def print_record(record: dict) -> None:
    run = record["run"]
    print(f"== {record['workload']}  seed={run['seed']}  "
          f"seconds={record['seconds']:g}  trace={record['trace']} ==")
    print("run:   " + json.dumps(run))
    print("sizes: " + json.dumps(record["sizes"]))
    samples = 0
    for name, phase in record["phases"].items():
        samples = max(samples, phase["samples"])
        print(f"phase {name:<14} attempted={phase['attempted']:<6} "
              f"succeeded={phase['succeeded']:<6} failed={phase['failed']:<4} "
              f"samples={phase['samples']}")
        for note in phase["notes"]:
            print(f"    ! {note}")
    for name, metric in record["result"]["metrics"].items():
        n = f"  (n={samples})" if name.startswith("query_p") else ""
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}{n}")
    if not record["trace"]:  # traced runs carry it among their metrics
        print(f"  {'failed_share':<40} {record['failed_share']:>16.6g} ratio")


def child(name: str, seed: int, seconds: float, trace: int,
          echo: bool = True) -> dict:
    """One workload in a fresh interpreter; returns its run record."""
    from benchmarks.e2e import harness as h

    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(done.stdout + done.stderr, file=sys.stderr)
        raise SystemExit(f"{name} exited {done.returncode} without a result")
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(
        (h.OUT_DIR / f"record_{name}_trace{trace}.json").read_text()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="stability report over N seeds (all workloads)")
    parser.add_argument("--write-bounds", action="store_true",
                        help="with --repeat: write the bounds into BENCHMARK.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    from benchmarks.e2e import harness as h

    seconds = args.seconds or float(h.load_spec()["run_seconds"])
    if args.workload:
        result, record = run_workload(
            args.workload, args.seed, seconds, bool(args.trace)
        )
        h.OUT_DIR.mkdir(parents=True, exist_ok=True)
        (h.OUT_DIR / f"record_{args.workload}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
        print_record(record)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    if args.repeat:
        from benchmarks.e2e import stability

        return stability.report(
            child, WORKLOADS, args.seed, seconds, args.repeat, args.write_bounds
        )

    failed = 0
    for name in WORKLOADS:
        for trace in range(args.trace + 1):
            record = child(name, args.seed, seconds, trace)
            failed += record["result"]["failed"]
    print(f"\n{'FAILED' if failed else 'ok'}: {failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
