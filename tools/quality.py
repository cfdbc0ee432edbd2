"""Seeded quality suite: the decoded objective of rlsa's solver on a fixed
list of generated instances, per seed, with its mean and standard error.

Each family is a graph family solved at one preset of ``rlsa.bench``:

* ``mis-er``: mis on ER(n, 0.15), n in 700..800, at ``mis-er-small``;
* ``mcut-ba``: mcut on BA(n, 4), n in 200..300, at ``mcut-ba-small``.

Seed s builds the graph with node count n = lo + 10 s mod (hi - lo + 1),
so seeds step through the range by tens, and each seeds both the graph
generator and the sampler. Results are a pure function of the seed list and
the source tree, so two trees compare seed for seed.

The results go into the JSON file ``--out`` (default ``BENCH_quality.json``
at the repository root) under ``sides[--side]``; the file's other sides are
kept, so one file holds a parent and a change run side by side.

Usage, from the repository root:

    python tools/quality.py --side change
    python tools/quality.py --seeds 1 --steps 20 --out /tmp/quality.json

``--seeds`` and ``--steps`` shorten the suite for a quick check; a side
records both, so a shortened run is never mistaken for the full one.
rlsa is imported from the ``src`` directory next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rlsa  # noqa: E402
from rlsa.bench import PRESETS  # noqa: E402

# family -> (problem, graph family, graph parameter, node range, preset)
FAMILIES = {
    "mis-er": ("mis", "er", 0.15, (700, 800), "mis-er-small"),
    "mcut-ba": ("mcut", "ba", 4, (200, 300), "mcut-ba-small"),
}
SEEDS = 20


def instance(family: str, seed: int):
    """(model, n) of one (family, seed) pair: its energy model and node count."""
    problem, graph_family, param, (lo, hi), preset = FAMILIES[family]
    n = lo + 10 * seed % (hi - lo + 1)
    if graph_family == "er":
        graph = rlsa.generate_er(n, param, seed)
    else:
        graph = rlsa.generate_ba(n, param, seed)
    return rlsa.EnergyModel(problem, graph, beta=PRESETS[preset]["beta"]), n


def sampler_config(family: str, seed: int, steps: int | None) -> rlsa.SamplerConfig:
    preset = dict(PRESETS[FAMILIES[family][4]])
    del preset["problem"], preset["beta"]
    if steps is not None:
        preset["steps"] = steps
    return rlsa.SamplerConfig(seed=seed, **preset)


def run_family(family: str, seeds: int, steps: int | None) -> dict:
    nodes, objectives = [], []
    for seed in range(seeds):
        model, n = instance(family, seed)
        result = rlsa.run_rlsa(model, sampler_config(family, seed, steps))
        nodes.append(n)
        objectives.append(int(result.objective))
        print(f"{family} seed {seed} n {n}: objective {result.objective}", file=sys.stderr)
    stderr = statistics.stdev(objectives) / math.sqrt(seeds) if seeds > 1 else None
    return {
        "steps": sampler_config(family, 0, steps).steps,
        "seeds": list(range(seeds)),
        "nodes": nodes,
        "objective": objectives,
        "mean": statistics.fmean(objectives),
        "stderr": stderr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", default="change", help="the label of this tree's results")
    ap.add_argument("--seeds", type=int, default=SEEDS, help="seeds 0..N-1 per family")
    ap.add_argument("--steps", type=int, help="override every preset's step count")
    ap.add_argument("--out", default=str(ROOT / "BENCH_quality.json"), help="the JSON file to update")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    side = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "families": {f: run_family(f, args.seeds, args.steps) for f in FAMILIES},
    }
    out = Path(args.out)
    record = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    record.setdefault("about", __doc__.split("\n\n")[0].replace("\n", " "))
    record["suite"] = {
        f: {"problem": p, "graph": g, "param": q, "nodes": list(r), "preset": PRESETS[s]}
        for f, (p, g, q, r, s) in FAMILIES.items()
    }
    record.setdefault("sides", {})[args.side] = side
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for family, res in side["families"].items():
        print(f"{args.side} {family}: mean {res['mean']:.2f} stderr {res['stderr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
