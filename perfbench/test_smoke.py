"""Smoke test of the benchmark on shrunken workloads.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
Each workload is shrunk by its ``smoke`` entry in spec.json so that it runs
in seconds; the full-size CLI is exercised once on the cheapest workload.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = run.load_json(HERE / "spec.json")
UNITS = run.metric_units(run.load_json(run.ROOT / "BENCHMARK.json"))
RLSA = run.import_rlsa()
NAMES = list(SPEC["workloads"])


def shrunk(name: str) -> dict:
    wl = copy.deepcopy(SPEC["workloads"][name])
    for key, value in wl.pop("smoke").items():
        if isinstance(value, dict):
            wl[key].update(value)
        else:
            wl[key] = value
    return wl


def test_spec_matches_benchmark_json():
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    assert [w["name"] for w in bench["workloads"]] == NAMES
    assert set(SPEC["metrics"]) == set(UNITS["end_to_end"]) | set(UNITS["per_layer"])


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported_with_its_unit(name, trace):
    out = run.run_workload(RLSA, name, shrunk(name), seed=3, seconds=0, trace=trace)
    assert out["correct"] and out["failed"] == 0
    units = UNITS["per_layer" if trace else "end_to_end"]
    line = json.loads(run.result_line(out, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(units)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_best_x_fails_the_check(name):
    wl = shrunk(name)
    graph, model = run.setup(RLSA, wl, 3, run.Tracer())
    result, _ = run.solve(RLSA, wl, model, 3)
    assert run.check(RLSA, wl, graph, result, floor=0) is None
    bad = copy.copy(result)
    bad.best_x = result.best_x.copy()
    i = int(np.argmax(np.abs(model.delta(result.best_x))))  # a flip that changes the energy
    bad.best_x[i] ^= 1
    assert run.check(RLSA, wl, graph, bad, floor=0) is not None
    assert run.check(RLSA, wl, graph, result, floor=result.objective + 1) is not None


def test_traced_solve_matches_untraced_with_worker_threads():
    wl = shrunk("mcut-ba1000-t2")
    graph, model = run.setup(RLSA, wl, 5, run.Tracer())
    plain, _ = run.solve(RLSA, wl, model, 5)
    tracer = run.Tracer()
    with tracer.instrument(model), tracer.span("sampler.run_rlsa") as root:
        tracer.root = root
        traced, _ = run.solve(RLSA, wl, model, 5)
    assert np.array_equal(plain.best_x, traced.best_x)
    assert "delta" not in vars(model)  # instrumentation is undone
    threads = {s.thread for s in tracer.spans if s.name == "energy.delta" and s.parent == root}
    assert 1 <= len(threads) <= wl["workers"]  # a pool thread may run both blocks
    assert tracer.spans[root].thread not in threads
    m = tracer.solve_metrics(root, graph)
    assert len(tracer.flips_per_step()) == wl["sampler"]["steps"]
    assert m["energy.delta_calls"] == wl["workers"] * wl["sampler"]["steps"] + m["postprocess.decode_rounds"]


def test_cli_prints_result_line(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcut-ba1000-t2", "--seed", "1",
         "--seconds", "0", "--trace", "1", "--spans", str(spans)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] and set(line["metrics"]) == set(UNITS["per_layer"])
    assert json.loads(spans.read_text())["solve"]


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mis-er800", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
