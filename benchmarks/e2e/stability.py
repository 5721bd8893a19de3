"""``--repeat N``: how steady is every end-to-end number?

Runs the whole set N times, each time with another seed (the driver
does the same), and prints per metric x workload the median, the
quartiles and the relative spread (inter-quartile distance / median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them).  A
metric's regression bound is the largest spread over the workloads
times three - the driver wants a spread under a third of the bound -
floored at 10 % and capped at the contract's 25 %.
"""

from __future__ import annotations

import json
import statistics

from benchmarks.e2e import harness as h

BOUND_FLOOR = 0.10
BOUND_CAP = 0.25


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else float("inf")


def report(run_child, workloads, seed: int, seconds: float, repeats: int,
           write_bounds: bool) -> int:
    if repeats < 4:
        raise SystemExit("--repeat needs at least 4 runs to quote quartiles")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed = 0
    for r in range(repeats):
        for name in workloads:
            record = run_child(name, seed + r, seconds, 0, echo=False)
            failed += record["result"]["failed"]
            for metric, cell in record["result"]["metrics"].items():
                values[name].setdefault(metric, []).append(cell["value"])
            print(f"run {r + 1}/{repeats}  seed={seed + r}  {name}: "
                  f"failed={record['result']['failed']}")

    spec = h.load_spec()
    rows = []
    worst: dict[str, float] = {}
    print(f"\n{'metric':<22} {'workload':<16} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8}")
    for metric in (m["name"] for m in spec["end_to_end"]):
        for name in workloads:
            mid, q1, q3, rel = spread(values[name][metric])
            worst[metric] = max(worst.get(metric, 0.0), rel)
            rows.append({"metric": metric, "workload": name, "median": mid,
                         "q1": q1, "q3": q3, "spread": rel})
            print(f"{metric:<22} {name:<16} {mid:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {rel:>8.3f}")
    bounds = {}
    print(f"\n{'metric':<22} {'worst spread':>12} {'bound':>8}")
    for metric, rel in worst.items():
        wanted = max(BOUND_FLOOR, 3.0 * rel)
        bounds[metric] = round(min(BOUND_CAP, wanted), 2)
        note = "  <- spread above a third of the cap: demote or lengthen" \
            if wanted > BOUND_CAP and metric != "setup_s" else ""
        print(f"{metric:<22} {rel:>12.3f} {bounds[metric]:>8.2f}{note}")

    h.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (h.OUT_DIR / "stability.json").write_text(json.dumps(
        {"seeds": list(range(seed, seed + repeats)), "seconds": seconds,
         "rows": rows, "bounds": bounds}, indent=1))
    if write_bounds:
        for metric in spec["end_to_end"]:
            metric["bound"] = bounds[metric["name"]]
        (h.ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        print("bounds written to BENCHMARK.json")
    return 1 if failed else 0
