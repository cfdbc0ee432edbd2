"""Benchmark runner: load or generate instances, solve, and emit artifacts.

For each instance the runner builds the energy model, runs the sampler
with the selected kernel, and writes a self-describing result JSON (plus an
optional per-step trajectory CSV). Directories of instances are processed
sequentially and also produce a summary JSON. Artifacts are renamed into
place whole. Identical configs and seeds reproduce byte-identical artifacts
up to the recorded wall time.

Flags and presets merge in one step: every flag given on the command line
wins, a ``--preset`` fills the fields no flag set, and ``ExperimentConfig``'s
defaults fill the rest. Presets carry ``d``, which a kernel that takes no
``d`` ignores; only an explicit ``--d`` reaches it. A ``d`` larger than an
instance is capped at the instance's node count, and the result record
echoes the capped value that ran.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._checks import finite_float, integer
from .energy import KINDS, EnergyModel, check_beta
from .graph import Graph, generate_ba, generate_er, read_instance
from .postprocess import gap_curve, summarize
from .sampler import KERNELS, RunResult, SamplerConfig, Trajectory, run_rlsa

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
    epsilon: float = SamplerConfig.epsilon
    kernel: str = SamplerConfig.kernel
    seed: int = SamplerConfig.seed
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
        return SamplerConfig(**{f.name: getattr(self, f.name) for f in fields(SamplerConfig)})

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
    ap.add_argument("--epsilon", type=float,
                    help="threshold offset in the regularized flip rule")
    ap.add_argument("--kernel", choices=tuple(KERNELS),
                    help="flip rule; ld is the fixed-step Langevin baseline")
    ap.add_argument("--seed", type=int, help="master seed")
    ap.add_argument("--ref-energies", metavar="FILE",
                    help="reference energies, lines of 'instance_name energy'")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--trajectory", action="store_true",
                    help="write a per-step trajectory CSV next to each result")
    ap.add_argument("--threads", type=int,
                    help="worker threads for chain blocks (results are identical for any count)")
    ap.add_argument("--qubo-linear", metavar="FILE",
                    help="per-node linear coefficients for --problem qubo")
    ap.add_argument("--qubo-scale", type=float,
                    help="scalar on the quadratic adjacency term for --problem qubo")
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    given = {name: value for name, value in vars(args).items() if value is not None}
    values = {**PRESETS.get(given.pop("preset", None), {}), **given}
    if "problem" not in values:
        raise ValueError("--problem is required (or implied by --preset)")
    cfg = ExperimentConfig(**values)
    if "d" not in KERNELS[cfg.kernel][0]:
        cfg.d = args.d  # presets carry d; a kernel that takes no d only sees an explicit --d
    cfg.validate()
    return cfg


def parse_generate_spec(spec: str, seed: int) -> tuple[str, Graph]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"generator spec must be er:N:P or ba:N:M, got {spec!r}")
    family = parts[0].lower()
    if family not in ("er", "ba"):
        raise ValueError(f"unknown generator family {family!r} in {spec!r}")
    try:
        n = int(parts[1])
        param = float(parts[2]) if family == "er" else int(parts[2])
    except ValueError:
        raise ValueError(f"bad generator parameters in {spec!r}") from None
    if family == "er":  # the parsed p names the graph: "0.2", "0.20" and ".2" are one
        return f"er-n{n}-p{param!r}-seed{seed}", generate_er(n, param, seed)
    return f"ba-n{n}-m{param}-seed{seed}", generate_ba(n, param, seed)


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
        stems = {}
        for p in files:  # a stem names the instance's artifacts
            if p.stem in stems:
                raise ValueError(
                    f"instance files {stems[p.stem]} and {p} share the name {p.stem!r}"
                )
            stems[p.stem] = p
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
    """Write the per-step trajectory CSV: one column per ``Trajectory``
    field, in order, and a primal_gap column last when a reference energy is
    available."""
    traj = result.trajectory
    columns = {f.name: getattr(traj, f.name) for f in fields(Trajectory)}
    if ref_energy is not None:
        columns["primal_gap"] = gap_curve(traj.best_energy, ref_energy)
    # tolist gives Python ints and floats, whose str is str(int) and repr(float)
    rows = zip(*(values.tolist() for values in columns.values()))
    lines = [",".join(columns)] + [",".join(map(str, row)) for row in rows]
    with _replacing(Path(path)) as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _result_record(cfg, name, source, model, result, traj_path) -> dict:
    record = {
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
        "best_step": result.best_step,
        "best_chains": result.best_chains,
        # sibling file name, so a results directory can be relocated wholesale
        "trajectory_path": Path(traj_path).name if traj_path else None,
    }
    if cfg.problem == "qubo":
        # the coefficients the model used, so the record verifies on its own
        record["qubo_linear_values"] = model._c.tolist()
    return record


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


def _is_bits(value) -> bool:
    # a list of integers; the model checks that they are 0 or 1
    arr = np.asarray(value) if isinstance(value, list) else None
    return arr is not None and arr.ndim == 1 and (arr.size == 0 or arr.dtype.kind in "biu")


# the fields verify_record reads, in order: name -> (test, what the value must be)
_RECORD_FIELDS = {
    "problem": (lambda v: isinstance(v, str), "a problem kind"),
    "config": (lambda v: isinstance(v, dict), "an object"),
    "best_x": (_is_bits, "a list of 0/1 integers"),
    "violation": (_is_count, "an integer"),
    "objective": (lambda v: v is None or _is_count(v), "an integer or null"),
    "best_energy": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)),
                    "a number"),
}


# the fields of a solve's record that verify_record checks where they are
# present: name -> (its least value, the config field that bounds it)
_RUN_FIELDS = {"best_step": (0, "steps"), "best_chains": (1, "chains")}


def verify_record(record: dict, graph: Graph) -> None:
    """Recompute objective and violation from a stored best_x; raises
    ValueError on a mismatch (a NaN energy matches nothing), on a record
    without a field it checks or with a field of the wrong type, on a
    ``best_step`` or ``best_chains`` outside 0..steps or 1..chains of its
    config or beside a non-integer steps or chains there, or on a qubo
    record without the ``qubo_linear_values`` its model used. Reads no
    file: the record and the graph define the model."""
    for name, (ok, what) in _RECORD_FIELDS.items():
        if name not in record:
            raise ValueError(f"record lacks {name}")
        if not ok(record[name]):
            raise ValueError(f"record field {name} must be {what}, got {record[name]!r}")
    problem, echo, best_x, want_violation, want_objective, want_energy = (
        record[name] for name in _RECORD_FIELDS)
    for name, (least, bound) in _RUN_FIELDS.items():
        if name not in record:
            continue
        value, most = record[name], echo.get(bound)
        if not (most is None or _is_count(most)):
            raise ValueError(f"config field {bound} must be an integer, got {most!r}")
        if not (_is_count(value) and least <= value and (most is None or value <= most)):
            raise ValueError(f"record field {name} must be an integer in {least}.."
                             f"{'' if most is None else most}, got {value!r}")
    model = EnergyModel(problem, graph, beta=echo.get("beta", ExperimentConfig.beta),
                        linear=record.get("qubo_linear_values"), quad_scale=echo.get("qubo_scale"))
    x = np.asarray(best_x, dtype=np.int8)
    violation = model.violation(x)
    if violation != want_violation:
        raise ValueError(f"stored violation {want_violation} != recomputed {violation}")
    objective = None if problem == "qubo" else model.objective(x)
    if objective != want_objective:
        raise ValueError(f"stored objective {want_objective} != recomputed {objective}")
    energy = float(model.energy(x))
    if not abs(energy - want_energy) <= 1e-9:
        raise ValueError(f"stored energy {want_energy} != recomputed {energy}")


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

        results = []
        references = []
        for name, source, graph in instances:
            model = _build_model(cfg, graph)
            run_cfg = cfg
            if cfg.d is not None and 0 < graph.num_nodes < cfg.d:
                # presets carry a fixed d; cap it at the instance size
                run_cfg = replace(cfg, d=graph.num_nodes)
            result = run_rlsa(model, run_cfg.sampler_config(), workers=cfg.threads)
            ref = refs.get(name)
            traj_path = None
            if cfg.trajectory:
                traj_path = emit_trajectory(result, outdir / f"{name}.trajectory.csv", ref)
            record = _result_record(run_cfg, name, source, model, result, traj_path)
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
