"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints a single PASS/FAIL line.

Heavier checks reuse fixed seeds so the suite is deterministic end to end.
Self-generated benchmark instances use edge probability p = 0.15 for the
700..800-node family (documented in the README); reported literature-scale
objectives are treated as approximate targets via the relative bar below.
"""

import json
import time

import numpy as np
import pytest

from rlsa import (
    EnergyModel,
    SamplerConfig,
    flip_probabilities,
    generate_ba,
    generate_er,
    greedy_decode,
    kth_largest,
    primal_gap,
    run_rlsa,
)
from rlsa.bench import main as bench_main

from oracles import all_bitvectors, flip_drop_oracle

# violations of every decoded benchmark-run output, tallied for criterion 4
BENCHMARK_VIOLATIONS = []


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def _mixed_graph(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    seed = int(rng.integers(0, 2 ** 31))
    if n >= 3 and rng.random() < 0.5:
        return generate_ba(n, int(rng.integers(1, min(3, n - 1) + 1)), seed)
    return generate_er(n, float(rng.uniform(0.1, 0.9)), seed)


def test_criterion_1_exact_drop_oracle():
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for _ in range(200):
        g = _mixed_graph(rng)
        X = rng.integers(0, 2, size=(100, g.num_nodes)).astype(np.int8)
        for kind in ("mis", "mcl", "mcut"):
            m = EnergyModel(kind, g, beta=1.02)
            err = float(np.abs(m.delta(X) - flip_drop_oracle(m, X)).max())
            worst = max(worst, err)
    _report(
        "criterion 1 (exact-drop oracle, 200 graphs x 3 kinds x 100 solutions)",
        worst < 1e-9,
        f"max |delta - flip drop| = {worst:.3e}",
    )


def test_criterion_2_brute_force_optimality():
    t0 = time.perf_counter()
    bits16 = all_bitvectors(16)
    mis_hits = 0
    for i in range(50):
        g = generate_er(16, 0.3, seed=1000 + i)
        m = EnergyModel("mis", g, beta=1.02)
        feasible = m.violation(bits16) == 0
        optimum = int(bits16.sum(axis=1)[feasible].max())
        res = run_rlsa(m, SamplerConfig(tau0=0.01, d=3, steps=200, chains=32, seed=i))
        BENCHMARK_VIOLATIONS.append(m.violation(res.best_x))
        mis_hits += int(res.objective == optimum)

    bits14 = all_bitvectors(14)
    mcut_hits = 0
    for i in range(50):
        g = generate_er(14, 0.3, seed=2000 + i)
        m = EnergyModel("mcut", g)
        optimum = int(m.objective(bits14).max())
        res = run_rlsa(m, SamplerConfig(tau0=0.01, d=4, steps=200, chains=32, seed=i))
        BENCHMARK_VIOLATIONS.append(m.violation(res.best_x))
        mcut_hits += int(res.objective == optimum)

    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (brute-force optimality, 50 MIS + 50 MCut instances)",
        mis_hits >= 48 and mcut_hits >= 48 and elapsed < 300,
        f"MIS {mis_hits}/50, MCut {mcut_hits}/50, {elapsed:.1f}s",
    )


def test_criterion_3_ablation_ordering():
    t0 = time.perf_counter()
    alphas = (0.1, 0.01, 0.001)
    n_instances = 20
    rlsa_energies = []
    ld_energies = {a: [] for a in alphas}
    for i in range(n_instances):
        g = generate_er(64, 0.15, seed=3000 + i)
        m = EnergyModel("mis", g, beta=1.02)
        res = run_rlsa(m, SamplerConfig(tau0=0.01, d=5, steps=300, chains=50, seed=i))
        BENCHMARK_VIOLATIONS.append(m.violation(res.best_x))
        rlsa_energies.append(res.best_energy)
        for a in alphas:
            res = run_rlsa(m, SamplerConfig(kernel="ld", alpha=a, tau0=0.01, steps=300,
                                            chains=50, seed=i))
            BENCHMARK_VIOLATIONS.append(m.violation(res.best_x))
            ld_energies[a].append(res.best_energy)

    # reference per instance: best energy any run achieved
    refs = [
        min(rlsa_energies[i], *(ld_energies[a][i] for a in alphas))
        for i in range(n_instances)
    ]
    rlsa_gap = float(np.mean([primal_gap(e, r) for e, r in zip(rlsa_energies, refs)]))
    ld_gaps = {
        a: float(np.mean([primal_gap(e, r) for e, r in zip(ld_energies[a], refs)]))
        for a in alphas
    }
    elapsed = time.perf_counter() - t0
    ok = all(rlsa_gap < ld_gaps[a] for a in alphas) and elapsed < 600
    detail = f"rlsa {rlsa_gap:.4f} vs ld " + ", ".join(
        f"a={a}: {ld_gaps[a]:.4f}" for a in alphas
    )
    _report("criterion 3 (ablation ordering on 20 ER(64, 0.15) MIS instances)",
            ok, detail + f", {elapsed:.1f}s")


def test_criterion_4_feasibility_guarantee():
    rng = np.random.default_rng(20260804)
    decoded_checked = 0
    for _ in range(10):
        g = _mixed_graph(rng, n_max=10)
        if g.num_nodes < 3:
            continue
        bits = all_bitvectors(g.num_nodes)
        for kind in ("mis", "mcl"):
            m = EnergyModel(kind, g, beta=1.02)
            decoded = greedy_decode(m, bits)
            assert (m.violation(decoded) == 0).all()
            decoded_checked += bits.shape[0]
    bench_ok = len(BENCHMARK_VIOLATIONS) > 0 and all(v == 0 for v in BENCHMARK_VIOLATIONS)
    _report(
        "criterion 4 (feasibility of greedy decode + benchmark outputs)",
        decoded_checked > 0 and bench_ok,
        f"{decoded_checked} exhaustive decodes, "
        f"{len(BENCHMARK_VIOLATIONS)} benchmark runs all feasible",
    )


def test_criterion_5_regularization_limit():
    rng = np.random.default_rng(20260805)
    tau, eps = 1e-8, 1e-6
    ok = True
    for d in (1, 5, 20):
        counts = []
        for _ in range(1000):
            delta = rng.uniform(-5.0, 5.0, 64)
            assert np.unique(delta).size == delta.size
            p = flip_probabilities(delta, kth_largest(delta, d), eps, tau)
            counts.append(int((p > 0.5).sum()))
        ok = ok and all(c == d for c in counts)
    _report("criterion 5 (tau -> 0 limit flips exactly d coordinates, 3000 vectors)",
            ok, "d in {1, 5, 20}")


def test_criterion_6_determinism(tmp_path):
    g = generate_er(128, 0.1, seed=21)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = SamplerConfig(tau0=0.01, d=5, steps=50, chains=16, seed=21)
    r1 = run_rlsa(m, cfg, workers=1)
    r8 = run_rlsa(m, cfg, workers=8)
    api_ok = (
        np.array_equal(r1.best_x, r8.best_x)
        and r1.best_energy == r8.best_energy
        and np.array_equal(r1.trajectory.best_energy, r8.trajectory.best_energy)
        and np.array_equal(r1.trajectory.mean_energy, r8.trajectory.mean_energy)
    )

    args = ["--generate", "er:64:0.15", "--problem", "mis", "--tau0", "0.01",
            "--d", "5", "--steps", "50", "--chains", "16", "--seed", "21",
            "--trajectory"]
    records = []
    trajs = []
    for threads, sub in (("1", "a"), ("8", "b")):
        out = tmp_path / sub
        assert bench_main(args + ["--out", str(out), "--threads", threads]) == 0
        record = json.loads((out / "er-n64-p0.15-seed21.result.json").read_text())
        record.pop("wall_time_s")
        records.append(json.dumps(record, sort_keys=True))
        trajs.append((out / "er-n64-p0.15-seed21.trajectory.csv").read_bytes())
    cli_ok = records[0] == records[1] and trajs[0] == trajs[1]
    _report("criterion 6 (identical results at worker counts 1 and 8)",
            api_ok and cli_ok, "api and cli artifacts match")


def test_criterion_7_relative_benchmark_reproduction():
    # Self-generated path: ER instances in the 700..800-node family with
    # p = 0.15, solved with the matching preset (tau0=0.01, d=20, K=200,
    # T=500, beta=1.001); the bar is >= 15% above the greedy-decode-from-
    # random baseline.
    t0 = time.perf_counter()
    rlsa_sizes = []
    baseline_sizes = []
    for j, n in enumerate((700, 750, 800)):
        g = generate_er(n, 0.15, seed=5000 + j)
        m = EnergyModel("mis", g, beta=1.001)
        cfg = SamplerConfig(tau0=0.01, d=20, steps=500, chains=200, seed=123 + j)
        res = run_rlsa(m, cfg)
        assert m.violation(res.best_x) == 0
        rlsa_sizes.append(res.objective)
        inits = np.random.default_rng(99 + j).integers(0, 2, size=(32, n)).astype(np.int8)
        decoded = greedy_decode(m, inits)
        baseline_sizes.append(float(m.objective(decoded).mean()))
    mean_rlsa = float(np.mean(rlsa_sizes))
    mean_base = float(np.mean(baseline_sizes))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7 (ER-[700-800] preset vs greedy baseline, self-generated p=0.15)",
        mean_rlsa >= 1.15 * mean_base,
        f"rlsa mean {mean_rlsa:.2f} vs baseline mean {mean_base:.2f} "
        f"(ratio {mean_rlsa / mean_base:.3f}), {elapsed:.1f}s",
    )


def test_criterion_8_performance_envelope():
    g = generate_er(800, 0.116, seed=42)
    assert 35500 <= g.num_edges <= 38500  # ~37k edges
    m = EnergyModel("mis", g, beta=1.001)
    cfg = SamplerConfig(tau0=0.01, d=20, steps=500, chains=200, seed=7)
    t0 = time.perf_counter()
    res = run_rlsa(m, cfg, workers=1)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (200 chains x 500 steps on 800 nodes / ~37k edges, single thread)",
        elapsed < 600 and res.objective > 0,
        f"{elapsed:.1f}s (bound 600s), objective {res.objective}",
    )
