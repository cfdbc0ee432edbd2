#!/usr/bin/env python3
"""Outside-in benchmark of rlsa: solve time, set-up time, objective and memory.

Run from the repository root; the package is imported from ``src``:

    python3 perfbench/run.py --workload mis-er800 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One run sets a workload up ``setup_repeats`` times, then solves the last
instance closed-loop (each solve starts after the previous one returned and
was checked) for ``--seconds`` seconds. The set-up count is fixed, not
timed, because the allocator keeps the pages each set-up frees, so peak
memory grows with the number of set-ups. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken
from one traced solve that follows one untraced solve. Workload parameters,
objective floors and the layer-to-end-to-end mapping are in spec.json;
``--workload all`` runs every workload in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or definitions)."""


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"missing {path}") from None


def import_rlsa():
    """Import rlsa from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rlsa" / "__init__.py").is_file():
        raise BenchError(f"no rlsa sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import rlsa
    import rlsa.bench

    if Path(rlsa.__file__).resolve().parent != src / "rlsa":
        raise BenchError(f"imported rlsa from {rlsa.__file__}, not from {src}")
    return rlsa


def metric_units(bench: dict) -> dict[str, dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    return {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


# -- set-up, solve, check ----------------------------------------------------

def setup(rlsa, wl: dict, seed: int, tracer: Tracer):
    g = wl["graph"]
    with tracer.span("bench.setup"):
        with tracer.span("graph.generate"):
            if g["family"] == "er":
                graph = rlsa.generate_er(g["n"], g["p"], seed)
            else:
                graph = rlsa.generate_ba(g["n"], g["m"], seed)
        with tracer.span("energy.build"):
            model = rlsa.EnergyModel(wl["problem"], graph, beta=wl["beta"])
    return graph, model


def greedy_baseline(problem: str, graph) -> int:
    """Objective of a one-pass greedy heuristic, the reference for the floor."""
    if problem == "mis":
        blocked = np.zeros(graph.num_nodes, dtype=bool)
        size = 0
        for v in np.argsort(graph.degrees(), kind="stable"):
            if not blocked[v]:
                size += 1
                blocked[v] = True
                blocked[graph.neighbors_of(v)] = True
        return size
    side = np.full(graph.num_nodes, -1, dtype=np.int8)
    for v in range(graph.num_nodes):
        placed = side[graph.neighbors_of(v)]
        side[v] = 1 if (placed == 0).sum() >= (placed == 1).sum() else 0
    edges = graph.edge_array()
    return int((side[edges[:, 0]] != side[edges[:, 1]]).sum())


def objective_floor(wl: dict, graph) -> tuple[int, int]:
    """(baseline, floor) on this seeded instance."""
    base = greedy_baseline(wl["problem"], graph)
    return base, math.floor(wl["floor_factor"] * base)


def sampler_config(rlsa, wl: dict, seed: int, **override):
    return rlsa.SamplerConfig(seed=seed, **{**wl["sampler"], **override})


def solve(rlsa, wl: dict, model, seed: int):
    cfg = sampler_config(rlsa, wl, seed)
    start = perf_counter()
    result = rlsa.run_rlsa(model, cfg, workers=wl["workers"])
    return result, perf_counter() - start


def check(rlsa, wl: dict, graph, result, floor: int, reference=None) -> str | None:
    """Why ``result`` is wrong, or None when it passes every check.

    The record claims violation 0, so verify_record also enforces MIS
    feasibility; ``reference`` is an earlier best_x of the same inputs.
    """
    record = {
        "problem": wl["problem"],
        "config": {"beta": wl["beta"]},
        "best_x": [int(b) for b in result.best_x],
        "violation": 0,
        "objective": result.objective,
        "best_energy": result.best_energy,
    }
    try:
        rlsa.bench.verify_record(record, graph)
    except ValueError as exc:
        return f"verify_record: {exc}"
    if result.objective < floor:
        return f"objective {result.objective} below floor {floor}"
    if reference is not None and not np.array_equal(result.best_x, reference):
        return "best_x differs from an earlier solve of the same inputs"
    return None


def checked_solve(rlsa, wl, graph, model, seed, floor, reference):
    """(result, seconds, failure reason); a raising solve is a failure."""
    start = perf_counter()
    try:
        result, seconds = solve(rlsa, wl, model, seed)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        return None, perf_counter() - start, "run_rlsa raised"
    return result, seconds, check(rlsa, wl, graph, result, floor, reference)



def warm_up(rlsa, wl: dict, model, seed: int) -> None:
    """One short solve from all zeros, so lazy caches fill before timing."""
    cfg = sampler_config(rlsa, wl, seed, steps=1, chains=1)
    rlsa.run_rlsa(model, cfg, init=np.zeros(model.num_nodes, dtype=np.int8))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux: KiB


# -- one workload --------------------------------------------------------------

def run_workload(rlsa, name: str, wl: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, solve and check one workload; returns the result object."""
    setup_tracer = Tracer()
    for _ in range(wl["setup_repeats"]):
        graph = model = None  # freed first, so two instances never coexist
        graph, model = setup(rlsa, wl, seed, setup_tracer)
    base, floor = objective_floor(wl, graph)
    print(f"{name} seed={seed}: n={graph.num_nodes} edges={graph.num_edges} "
          f"greedy={base} floor={floor} (x{wl['floor_factor']})")
    warm_up(rlsa, wl, model, seed)
    if trace:
        return traced_run(rlsa, wl, graph, model, seed, floor, setup_tracer)

    times, attempted, failed, reference, objective = [], 0, 0, None, None
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        attempted += 1
        result, elapsed, reason = checked_solve(rlsa, wl, graph, model, seed, floor, reference)
        if reason is None:
            times.append(elapsed)
            reference, objective = result.best_x, result.objective
            print(f"  solve {attempted}: {elapsed:.4f} s objective={objective}")
        else:
            failed += 1
            print(f"  solve {attempted}: FAILED {reason}")
    metrics = {
        "setup_s": statistics.median(setup_tracer.durations("bench.setup")),
        "peak_rss_mb": peak_rss_mb(),
    }
    if times:
        metrics["solve_s"] = statistics.median(times)
        metrics["objective"] = objective
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(rlsa, wl, graph, model, seed, floor, setup_tracer) -> dict:
    """One untraced solve, then one traced solve that must match it."""
    plain, plain_s, reason = checked_solve(rlsa, wl, graph, model, seed, floor, None)
    failures = [f"untraced solve: {reason}"] if reason else []

    tracer = Tracer()
    result = None
    try:
        with tracer.instrument(model), tracer.span("sampler.run_rlsa") as root:
            tracer.root = root
            result, _ = solve(rlsa, wl, model, seed)
    except Exception:  # reported as a failed operation below
        traceback.print_exc()
        failures.append("traced solve: run_rlsa raised")
    tracer.root = None
    if result is not None:
        with tracer.span("bench.verify"):
            reason = check(rlsa, wl, graph, result, floor, None if plain is None else plain.best_x)
        if reason:
            failures.append(f"traced solve: {reason}")
    for f in failures:
        print(f"  FAILED {f}")
    out = {"correct": not failures, "attempted": 2, "failed": len(failures), "metrics": {}}
    if failures:
        return out

    for layer in ("energy.delta", "energy.energy", "sampler.flip_rule", "postprocess.decode"):
        if not tracer.durations(layer):
            print(f"perfbench: warning: no {layer} call was seen; its metrics read 0", file=sys.stderr)
    cfg = wl["sampler"]
    metrics = tracer.solve_metrics(root, graph)
    metrics.update({
        "graph.generate_s": statistics.median(setup_tracer.durations("graph.generate")),
        "energy.build_s": statistics.median(setup_tracer.durations("energy.build")),
        "sampler.chain_steps_per_s": cfg["chains"] * cfg["steps"] / plain_s,
        "bench.verify_s": tracer.durations("bench.verify")[0],
        "bench.trace_overhead_s": metrics["bench.solve_traced_s"] - plain_s,
    })
    out["metrics"] = metrics
    out["spans"] = {"setup": [s.to_dict() for s in setup_tracer.spans],
                    "solve": [s.to_dict() for s in tracer.spans]}
    print_breakdown(metrics, plain_s)
    return out


def print_breakdown(m: dict, plain_s: float) -> None:
    """Layer times as shares of the traced solve (thread-seconds, so shares
    can add to more than 100% with worker threads)."""
    total = m["bench.solve_traced_s"]
    print(f"  traced solve {total:.4f} s, untraced {plain_s:.4f} s, "
          f"overhead {m['bench.trace_overhead_s']:+.4f} s")
    parts = ("energy.delta_s", "energy.energy_s", "sampler.flip_rule_s", "sampler.self_s",
             "postprocess.decode_s", "postprocess.decode_self_s")
    for name in parts:
        print(f"  {name:<28} {m[name]:10.4f} s  {100 * m[name] / total:5.1f}%")
    print(f"  decode rounds {m['postprocess.decode_rounds']}, flips/step "
          f"{m['sampler.flips_per_step']:.2f} (last tenth {m['sampler.flips_per_step.last']:.2f})")


# -- command line ----------------------------------------------------------------

def result_line(out: dict, units: dict[str, str]) -> str:
    metrics = {name: {"value": value, "unit": units[name]} for name, value in out["metrics"].items()}
    return json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                       "failed": out["failed"], "metrics": metrics})


def run_all(args, spec: dict) -> int:
    """Every workload in a process of its own, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            out = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and out["correct"] and proc.returncode == 0
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for metric, value in out["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    for key, value in merged["metrics"].items():
        print(f"{key:<44} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of spec.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="seeds the instance and the sampler")
    ap.add_argument("--seconds", type=float,
                    help="how long to keep solving (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced solve")
    ap.add_argument("--spans", metavar="FILE", help="with --trace 1, write the spans as JSON")
    args = ap.parse_args(argv)
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        units = metric_units(bench)
        spec = load_json(HERE / "spec.json")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.workload == "all":
            return run_all(args, spec)
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(spec['workloads'])} or 'all'")
        rlsa = import_rlsa()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out = run_workload(rlsa, args.workload, spec["workloads"][args.workload],
                       args.seed, args.seconds, bool(args.trace))
    wanted = units["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(wanted) - set(out["metrics"]))
    unknown = sorted(set(out["metrics"]) - set(wanted))
    if unknown:
        raise RuntimeError(f"metrics {unknown} are not listed in BENCHMARK.json")
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    if args.spans and "spans" in out:
        Path(args.spans).write_text(json.dumps(out["spans"]), encoding="utf-8")
    if not args.trace:
        for name, value in out["metrics"].items():
            print(f"  {name:<12} {value:>14.6g} {wanted[name]}")
    print(result_line(out, wanted))
    return 0 if out["correct"] and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
