"""Benchmark runner: load or generate instances, solve, and emit artifacts.

For each instance the runner builds the energy model, runs the sampler
with the selected kernel, and writes a self-describing result JSON (plus an
optional per-step trajectory CSV). Directories of instances are processed
sequentially and also produce a summary JSON. Artifacts are renamed into
place whole. Identical configs and seeds reproduce byte-identical artifacts
up to the recorded wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._checks import finite_float, integer
from .energy import KINDS, EnergyModel, check_beta
from .graph import Graph, generate_ba, generate_er, read_instance
from .postprocess import gap_curve, summarize
from .sampler import KERNELS, RunResult, SamplerConfig, run_rlsa

# One preset per benchmark family: (tau0, d, chains, steps, beta).
PRESETS = {
    "mis-rb-small": dict(problem="mis", tau0=0.01, d=5, chains=200, steps=300, beta=1.02),
    "mis-rb-large": dict(problem="mis", tau0=0.01, d=5, chains=200, steps=500, beta=1.02),
    "mis-er-small": dict(problem="mis", tau0=0.01, d=20, chains=200, steps=500, beta=1.001),
    "mis-er-large": dict(problem="mis", tau0=0.01, d=20, chains=200, steps=5000, beta=1.001),
    "mcl-rb-small": dict(problem="mcl", tau0=4.0, d=2, chains=200, steps=100, beta=1.02),
    "mcl-rb-large": dict(problem="mcl", tau0=4.0, d=2, chains=200, steps=500, beta=1.02),
    "mcut-ba-small": dict(problem="mcut", tau0=5.0, d=20, chains=200, steps=200, beta=1.02),
    "mcut-ba-large": dict(problem="mcut", tau0=5.0, d=20, chains=200, steps=500, beta=1.02),
}


@dataclass
class ExperimentConfig:
    problem: str
    instance: str | None = None
    generate: str | None = None
    tau0: float | None = None
    d: int | None = None
    alpha: float | None = None
    steps: int | None = None
    chains: int | None = None
    beta: float = 1.02
    epsilon: float = 1e-6
    kernel: str = "regularized"
    seed: int = 0
    out: str = "."
    trajectory: bool = False
    ref_energies: str | None = None
    threads: int = 1
    qubo_linear: str | None = None
    qubo_scale: float = 1.0

    def validate(self):
        if self.problem not in KINDS:
            raise ValueError(f"problem must be one of {KINDS}, got {self.problem!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {tuple(KERNELS)}, got {self.kernel!r}")
        if (self.instance is None) == (self.generate is None):
            raise ValueError("exactly one of --instance and --generate is required")
        self.threads = integer("threads", self.threads, 1)
        check_beta(self.problem, self.beta)
        finite_float("qubo_scale", self.qubo_scale)
        if self.problem == "qubo" and self.qubo_linear is None:
            raise ValueError("--qubo-linear FILE is required for --problem qubo")
        missing = [
            name
            for name in ("tau0", "steps", "chains", *KERNELS[self.kernel][0])
            if getattr(self, name) is None
        ]
        if missing:
            raise ValueError(
                "missing hyperparameters (set flags or use --preset): "
                + ", ".join(f"--{m}" for m in missing)
            )
        # Constructing the config validates ranges before any solving.
        self.sampler_config()

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            tau0=self.tau0,
            steps=self.steps,
            chains=self.chains,
            d=self.d,
            alpha=self.alpha,
            seed=self.seed,
            epsilon=self.epsilon,
            kernel=self.kernel,
        )

    def config_echo(self) -> dict:
        echo = dict(
            tau0=self.tau0,
            steps=self.steps,
            chains=self.chains,
            beta=self.beta,
            kernel=self.kernel,
        )
        echo.update((name, getattr(self, name)) for name in KERNELS[self.kernel][0])
        if self.problem == "qubo":
            echo.update(qubo_linear=self.qubo_linear, qubo_scale=self.qubo_scale)
        return echo


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rlsa-bench",
        description="Solve binary graph optimization instances and emit result artifacts.",
    )
    ap.add_argument("--problem", choices=KINDS, help="objective to optimize")
    ap.add_argument("--instance", help="instance file, or a directory for batch mode")
    ap.add_argument("--generate", metavar="SPEC",
                    help="generate an instance in place of a file: er:N:P or ba:N:M")
    ap.add_argument("--preset", choices=sorted(PRESETS),
                    help="named hyperparameter preset; explicit flags override")
    ap.add_argument("--tau0", type=float, help="initial temperature")
    ap.add_argument("--d", type=int, help="flips per step (regularized, normalized kernels)")
    ap.add_argument("--alpha", type=float, help="fixed step size for the ld kernel")
    ap.add_argument("--steps", type=int, help="annealing steps per chain")
    ap.add_argument("--chains", type=int, help="independent chains")
    ap.add_argument("--beta", type=float, help="constraint penalty coefficient")
    ap.add_argument("--epsilon", type=float, default=1e-6,
                    help="threshold offset in the regularized flip rule")
    ap.add_argument("--kernel", choices=tuple(KERNELS), default="regularized",
                    help="flip rule; ld is the fixed-step Langevin baseline")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--ref-energies", metavar="FILE",
                    help="reference energies, lines of 'instance_name energy'")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--trajectory", action="store_true",
                    help="write a per-step trajectory CSV next to each result")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads for chain blocks (results are identical for any count)")
    ap.add_argument("--qubo-linear", metavar="FILE",
                    help="per-node linear coefficients for --problem qubo")
    ap.add_argument("--qubo-scale", type=float, default=1.0,
                    help="scalar on the quadratic adjacency term for --problem qubo")
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    preset = dict(PRESETS[args.preset]) if args.preset else {}
    problem = args.problem or preset.get("problem")
    if problem is None:
        raise ValueError("--problem is required (or implied by --preset)")

    def pick(name, default=None):
        value = getattr(args, name)
        if value is not None:
            return value
        return preset.get(name, default)

    cfg = ExperimentConfig(
        problem=problem,
        instance=args.instance,
        generate=args.generate,
        tau0=pick("tau0"),
        # presets carry d; a kernel that takes no d only sees an explicit --d
        d=pick("d") if "d" in KERNELS[args.kernel][0] else args.d,
        alpha=args.alpha,
        steps=pick("steps"),
        chains=pick("chains"),
        beta=pick("beta", 1.02),
        epsilon=args.epsilon,
        kernel=args.kernel,
        seed=args.seed,
        out=args.out,
        trajectory=args.trajectory,
        ref_energies=args.ref_energies,
        threads=args.threads,
        qubo_linear=args.qubo_linear,
        qubo_scale=args.qubo_scale,
    )
    cfg.validate()
    return cfg


def parse_generate_spec(spec: str, seed: int) -> tuple[str, Graph]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"generator spec must be er:N:P or ba:N:M, got {spec!r}")
    family = parts[0].lower()
    try:
        n = int(parts[1])
        if family == "er":
            p = float(parts[2])
        elif family == "ba":
            m = int(parts[2])
        else:
            raise ValueError(f"unknown generator family {family!r} in {spec!r}")
    except ValueError as exc:
        if "generator family" in str(exc):
            raise
        raise ValueError(f"bad generator parameters in {spec!r}") from None
    if family == "er":
        return f"er-n{n}-p{parts[2]}-seed{seed}", generate_er(n, p, seed)
    return f"ba-n{n}-m{m}-seed{seed}", generate_ba(n, m, seed)


def load_reference_energies(path) -> dict[str, float]:
    """Parse a reference file of lines 'instance_name energy', each energy
    finite and each name given once."""
    refs: dict[str, float] = {}
    seen: dict[str, int] = {}  # name -> line number
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'instance_name energy'")
            name, energy = tokens
            if name in seen:
                raise ValueError(f"{path}: line {lineno}: {name!r} repeats line {seen[name]}")
            seen[name] = lineno
            try:
                refs[name] = finite_float("energy", float(energy))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad energy {energy!r}") from None
    return refs


def _resolve_instances(cfg: ExperimentConfig) -> list[tuple[str, str, Graph]]:
    """Return (name, source, graph) triples in deterministic order."""
    if cfg.generate is not None:
        name, graph = parse_generate_spec(cfg.generate, cfg.seed)
        return [(name, cfg.generate, graph)]
    path = Path(cfg.instance)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file() and not p.name.startswith("."))
        if not files:
            raise ValueError(f"no instance files in directory {path}")
        return [(p.stem, str(p), read_instance(p)) for p in files]
    if not path.is_file():
        raise ValueError(f"instance path {path} is not a readable file or directory")
    return [(path.stem, str(path), read_instance(path))]


def _build_model(cfg: ExperimentConfig, graph: Graph) -> EnergyModel:
    if cfg.problem == "qubo":
        linear = np.loadtxt(cfg.qubo_linear, dtype=np.float64).reshape(-1)
        return EnergyModel("qubo", graph, linear=linear, quad_scale=cfg.qubo_scale)
    return EnergyModel(cfg.problem, graph, beta=cfg.beta)


@contextmanager
def _replacing(path):
    """Text file handle for ``path`` that only ever shows a whole file.

    Writes go to a temporary file in the same directory, which replaces
    ``path`` once the block completes and is removed if the block raises.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, data) -> None:
    with _replacing(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def emit_trajectory(result: RunResult, path, ref_energy: float | None = None) -> str:
    """Write the per-step trajectory CSV; adds a primal_gap column when a
    reference energy is available."""
    traj = result.trajectory
    columns = ["step", "tau", "best_energy", "mean_energy", "mean_flips", "improved"]
    gaps = None
    if ref_energy is not None:
        columns.append("primal_gap")
        gaps = gap_curve(traj.best_energy, ref_energy)
    lines = [",".join(columns)]
    for i in range(len(traj)):
        row = [str(int(traj.step[i])), repr(float(traj.tau[i])),
               repr(float(traj.best_energy[i])), repr(float(traj.mean_energy[i])),
               repr(float(traj.mean_flips[i])), str(int(traj.improved[i]))]
        if gaps is not None:
            row.append(repr(float(gaps[i])))
        lines.append(",".join(row))
    with _replacing(Path(path)) as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _result_record(cfg, name, source, model, result, traj_path) -> dict:
    return {
        "problem": cfg.problem,
        "instance": name,
        "instance_source": source,
        "seed": cfg.seed,
        "config": cfg.config_echo(),
        "best_energy": result.best_energy,
        "objective": result.objective,
        "violation": model.violation(result.best_x),
        "best_x": [int(b) for b in result.best_x],
        "wall_time_s": result.wall_time,
        "decode_flips": result.decode_flips,
        "decode_gain": result.decode_gain,
        # sibling file name, so a results directory can be relocated wholesale
        "trajectory_path": Path(traj_path).name if traj_path else None,
    }


def verify_record(record: dict, graph: Graph) -> None:
    """Recompute objective and violation from a stored best_x; raises on mismatch."""
    cfg = ExperimentConfig(
        problem=record["problem"],
        beta=record["config"].get("beta", 1.02),
        qubo_linear=record["config"].get("qubo_linear"),
        qubo_scale=record["config"].get("qubo_scale", 1.0),
    )
    model = _build_model(cfg, graph)
    x = np.asarray(record["best_x"], dtype=np.int8)
    violation = model.violation(x)
    if violation != record["violation"]:
        raise ValueError(f"stored violation {record['violation']} != recomputed {violation}")
    objective = None if cfg.problem == "qubo" else model.objective(x)
    if objective != record["objective"]:
        raise ValueError(f"stored objective {record['objective']} != recomputed {objective}")
    energy = float(model.energy(x))
    if abs(energy - record["best_energy"]) > 1e-9:
        raise ValueError(f"stored energy {record['best_energy']} != recomputed {energy}")


def run_experiment(cfg: ExperimentConfig) -> int:
    """Solve every configured instance sequentially and write artifacts.

    Returns a process exit status (0 on success); configuration and I/O
    problems are reported on stderr, invalid hyperparameters before any
    solving starts.
    """
    try:
        cfg.validate()
        refs = load_reference_energies(cfg.ref_energies) if cfg.ref_energies else {}
        instances = _resolve_instances(cfg)
        unknown = set(refs) - {name for name, _, _ in instances}
        if unknown:
            raise ValueError(f"{cfg.ref_energies}: no instance named {', '.join(sorted(unknown))}")

        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        sampler_cfg = cfg.sampler_config()

        results = []
        references = []
        for name, source, graph in instances:
            model = _build_model(cfg, graph)
            scfg = sampler_cfg
            if scfg.d is not None and 0 < graph.num_nodes < scfg.d:
                # presets carry a fixed d; cap it at the instance size
                scfg = replace(scfg, d=graph.num_nodes)
            result = run_rlsa(model, scfg, workers=cfg.threads)
            ref = refs.get(name)
            traj_path = None
            if cfg.trajectory:
                traj_path = emit_trajectory(result, outdir / f"{name}.trajectory.csv", ref)
            record = _result_record(cfg, name, source, model, result, traj_path)
            _write_json(outdir / f"{name}.result.json", record)
            results.append(result)
            references.append(ref)
            obj = "-" if result.objective is None else result.objective
            print(f"{name}: objective={obj} best_energy={result.best_energy:.6g} "
                  f"wall={result.wall_time:.3f}s")

        if len(results) > 1:
            summary = summarize(
                results, references if any(r is not None for r in references) else None
            )
            _write_json(outdir / "summary.json", summary.to_dict())
            mean_obj = summary.mean_objective
            print(f"summary: n={summary.count} mean_objective="
                  f"{'-' if mean_obj is None else f'{mean_obj:.4f}'} "
                  f"total_wall={summary.total_wall_time:.3f}s")
    except (OSError, ValueError) as exc:
        print(f"rlsa-bench: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"rlsa-bench: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
