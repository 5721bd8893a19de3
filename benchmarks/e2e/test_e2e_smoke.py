"""Smoke test of the end-to-end benchmark (tier-1, toy scale).

Runs all four workloads with ~20 groups and ~40 queries, untraced and
traced, and checks the contract: every metric ``BENCHMARK.json`` names
is emitted with its unit, the checks pass, a broken check fails the
run, one seed repeats exactly, and nothing is written outside
``benchmarks/e2e/out/``.  It never writes ``BENCHMARK.json`` or a
``BENCH_*.json``.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.e2e import harness as h
from benchmarks.e2e import run as cli

SPEC = h.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
SKIP_DIRS = {".git", ".pytest_cache", ".hypothesis", "__pycache__", "out"}


def _tree() -> dict:
    """(size, mtime) of every file of the repo a run must not touch."""
    seen = {}
    stack = [h.ROOT]
    while stack:
        for path in stack.pop().iterdir():
            if path.is_dir():
                if path.name not in SKIP_DIRS:
                    stack.append(path)
            else:
                stat = path.stat()
                seen[str(path)] = (stat.st_size, stat.st_mtime_ns)
    return seen


@pytest.fixture(scope="module")
def runs():
    """Every workload at toy scale: untraced twice (same seed), traced once."""
    before = _tree()
    out = {}
    for name in cli.WORKLOADS:
        out[name] = {
            "e2e": cli.run_workload(name, 7, 1.0, trace=False, toy=True),
            "again": cli.run_workload(name, 7, 1.0, trace=False, toy=True),
            "layers": cli.run_workload(name, 7, 1.0, trace=True, toy=True),
        }
    out["untouched"] = _tree() == before
    return out


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("name", cli.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(runs, name):
    result, record = runs[name]["e2e"]
    assert result["correct"] and result["failed"] == 0, record["phases"]
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert math.isfinite(cell["value"]) and cell["value"] > 0, metric["name"]
    assert set(record["run"]) >= {
        "git_sha", "nproc", "python", "numpy", "blas_threads", "seed"
    }
    assert all(
        {"attempted", "succeeded", "failed"} <= set(p) for p in record["phases"].values()
    )


@pytest.mark.parametrize("name", cli.WORKLOADS)
def test_every_per_layer_metric_is_emitted(runs, name):
    result, record = runs[name]["layers"]
    assert result["correct"], record["phases"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert math.isfinite(cell["value"]), metric["name"]
    assert 0.9 <= result["metrics"]["driver.layer_cover_share"]["value"] <= 1.1
    trace = json.loads((h.OUT_DIR / f"trace_{name}.json").read_text())
    spans = trace["spans"]
    assert spans and all(
        s["end_us"] >= s["start_us"] and (s["parent"] is None or s["parent"] < s["id"])
        for s in spans
    )


def test_each_workload_stresses_what_it_claims(runs):
    def layer(name, metric):
        return runs[name]["layers"][0]["metrics"][metric]["value"]

    assert layer("adhoc_scalar", "core.batched.share") == 0.0
    assert layer("adhoc_scalar", "core.model.share") > 0.5
    assert layer("groupby_fresh", "core.batched.share") > 0.5  # > 0.8 at full size
    assert layer("serve_dashboard", "serve.answer_cache.hit_ratio") > 0.8
    assert layer("train_refresh", "refresh_rows_per_s") > 0.0


@pytest.mark.parametrize("name", cli.WORKLOADS)
def test_one_seed_repeats_exactly(runs, name):
    first, again = runs[name]["e2e"][1]["exact"], runs[name]["again"][1]["exact"]
    assert first and first == again


def test_nothing_is_written_outside_out(runs):
    assert runs["untouched"]
    assert not list(h.OUT_DIR.glob("tmp-*")), "scratch stores must be removed"


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    # An oracle that disagrees with every answer: parity must fail.
    monkeypatch.setattr(h, "values_divergence", lambda got, want: math.inf)
    result, _ = cli.run_workload("groupby_fresh", 7, 1.0, trace=False, toy=True)
    assert not result["correct"] and result["failed"] > 0

    monkeypatch.setattr(cli, "run_workload", lambda *a, **k: (result, {
        "workload": "groupby_fresh", "trace": 0, "seconds": 1.0,
        "run": {"seed": 7}, "sizes": {}, "phases": {}, "failed_share": 1.0,
        "result": result,
    }))
    assert cli.main(["--workload", "groupby_fresh", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == result


def test_nan_on_one_side_only_is_a_failure():
    nan = float("nan")
    assert h.divergence(nan, nan) == 0.0
    assert h.divergence(1.0, nan) == math.inf
    assert h.divergence({1: 1.0}, {1: 1.0, 2: 1.0}) == math.inf
    assert h.divergence({1: 1.0 + 1e-12}, {1: 1.0}) <= h.PARITY_TOL
