"""Annealed gradient-guided sampling over binary vectors with parallel chains.

The solver runs K independent chains for T steps. Each step computes the
flip-drop vector Delta, converts it to per-coordinate Bernoulli flip
probabilities through a sigmoid rule, and flips all coordinates in parallel.
The temperature decays linearly from tau0 to tau0/T, and each chain tracks
the best (lowest-energy) solution it has visited.

The default "regularized" kernel thresholds Delta at its d-th largest entry,

    p_i = sigmoid((Delta_i - Delta_(d) + epsilon) / (2 * tau)),

which drives the expected number of flips per step toward d as tau -> 0:
exactly the top-d coordinates keep probability above one half. When
Delta_(d) < 0 (a local optimum) the rule flips coordinates that escape it
while avoiding the steepest energy increase. The alternative "normalized"
kernel rescales plain sigmoid scores to sum to d instead.

Reproducibility: chain k draws from an independent stream derived from the
master seed, ``default_rng(SeedSequence(seed, spawn_key=(k,)))``. A chain
consumes one vector of N uniforms per step in coordinate order (plus one
random binary init vector), so results do not depend on how chains are
scheduled across workers or on how many chains run alongside.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from ._checks import finite_float, integer
from .postprocess import greedy_decode

KERNELS = ("regularized", "normalized")


@dataclass
class SamplerConfig:
    """Hyperparameters that fully determine a run on a given model."""

    tau0: float
    d: int
    steps: int
    chains: int
    seed: int = 0
    epsilon: float = 1e-6
    kernel: str = "regularized"

    def __post_init__(self):
        self.tau0 = finite_float("tau0", self.tau0)
        if self.tau0 <= 0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        self.d = integer("d", self.d, 1)
        self.steps = integer("steps", self.steps, 1)
        self.chains = integer("chains", self.chains, 1)
        self.epsilon = finite_float("epsilon", self.epsilon)
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        self.seed = integer("seed", self.seed, 0)
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")


@dataclass
class ChainState:
    """One chain: current solution/energy, per-chain best, and its rng stream."""

    x: np.ndarray
    energy: float
    best_x: np.ndarray
    best_energy: float
    rng: np.random.Generator


@dataclass
class Trajectory:
    """Per-step records across all chains of one run."""

    step: np.ndarray
    tau: np.ndarray
    best_energy: np.ndarray  # global best across chains, running minimum
    mean_energy: np.ndarray  # mean current energy over chains

    def __len__(self) -> int:
        return self.step.size


@dataclass
class RunResult:
    """Outcome of a run: decoded global best plus per-step trajectory.

    ``decode_flips`` and ``decode_gain`` say how much greedy decode changed
    the sampler's best solution: the bits it flipped and the energy it
    removed (nonnegative).
    """

    best_x: np.ndarray
    best_energy: float
    objective: int | None
    trajectory: Trajectory
    wall_time: float
    decode_flips: int
    decode_gain: float


def chain_rng(seed: int, chain_id: int) -> np.random.Generator:
    """Independent stream for one chain, a pure function of (seed, chain_id)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chain_id,))
    )


def linear_temperature(t: int, tau0: float, steps: int) -> float:
    """Linear annealing schedule: tau0 * (1 - (t - 1) / steps) for t in 1..steps."""
    if not 1 <= t <= steps:
        raise ValueError(f"step index {t} outside 1..{steps}")
    return tau0 * (1.0 - (t - 1) / steps)


def temperature(t: int, cfg) -> float:
    """Temperature at step ``t`` (1-based) under ``cfg``'s schedule."""
    return linear_temperature(t, cfg.tau0, cfg.steps)


def kth_largest(delta, d: int) -> float:
    """Value of rank ``d`` in descending order (duplicates occupy consecutive
    ranks); expected O(N) selection."""
    v = np.asarray(delta, dtype=np.float64)
    if not 1 <= d <= v.size:
        raise ValueError(f"d must be in 1..{v.size}, got {d}")
    return float(np.partition(v, v.size - d)[v.size - d])


def _flip_rule(delta, threshold, tau: float):
    """Shared sigmoid core: sigmoid((delta - threshold) / (2 * tau))."""
    return expit((np.asarray(delta, dtype=np.float64) - threshold) / (2.0 * tau))


def flip_probabilities(delta, dth, epsilon: float, tau: float):
    """Regularized flip probabilities sigmoid((delta_i - dth + epsilon) / (2 tau)).

    ``dth`` may be a scalar or an array broadcastable against ``delta``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return _flip_rule(delta, np.asarray(dth, dtype=np.float64) - epsilon, tau)


def normalized_flip_probabilities(score, x, d: int):
    """Alternative kernel: sigmoid scores rescaled so probabilities sum to d.

    ``score`` is the score vector s(x) (for an energy model at temperature
    tau, s = -grad H / tau). Outputs are clamped to [0, 1]; absent clamping
    the probabilities sum to d exactly.
    """
    s = np.asarray(score, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    n = s.shape[-1]
    if not 1 <= d <= n:
        raise ValueError(f"d must be in 1..{n}, got {d}")
    sig = expit(0.5 * s * (1.0 - 2.0 * xv))
    scaled = d * sig / sig.sum(axis=-1, keepdims=True)
    return np.clip(scaled, 0.0, 1.0)


def _rlsa_flip_fn(cfg: SamplerConfig):
    """Batched (chains, N) -> (chains, N) flip-probability map for one config."""
    if cfg.kernel == "normalized":
        def flip(D, tau):
            sig = expit(D / (2.0 * tau))
            return np.clip(cfg.d * sig / sig.sum(axis=-1, keepdims=True), 0.0, 1.0)
        return flip

    def flip(D, tau):
        n = D.shape[-1]
        dth = np.partition(D, n - cfg.d, axis=-1)[..., n - cfg.d][..., None]
        return flip_probabilities(D, dth, cfg.epsilon, tau)

    return flip


def _advance(model, X, rngs, flip_fn, tau: float):
    """One synchronous step for a block of chains; consumes N uniforms per chain."""
    D = model.delta(X)
    P = flip_fn(D, tau)
    U = np.stack([rng.random(X.shape[1]) for rng in rngs])
    Xn = np.where(U < P, 1.0 - X, X)
    return Xn, model.energy(np.atleast_2d(Xn))


def make_chain_state(model, cfg, chain_id: int, init=None) -> ChainState:
    """Fresh chain state with its derived stream; random binary init by default."""
    rng = chain_rng(cfg.seed, chain_id)
    if init is None:
        x = rng.integers(0, 2, size=model.num_nodes).astype(np.int8)
    else:
        x = np.asarray(init, dtype=np.int8).copy()
    e = float(model.energy(x))
    return ChainState(x=x, energy=e, best_x=x.copy(), best_energy=e, rng=rng)


def rlsa_step(state: ChainState, model, tau: float, cfg: SamplerConfig) -> ChainState:
    """One annealing step for a single chain.

    Pure in its inputs: the incoming state (including its rng) is left
    untouched, so repeated calls on the same state give identical outputs.
    """
    n = model.num_nodes
    if cfg.d > n:
        raise ValueError(f"d={cfg.d} exceeds the {n}-node solution length")
    rng = copy.deepcopy(state.rng)
    X = state.x[None, :].astype(np.float64)
    Xn, En = _advance(model, X, [rng], _rlsa_flip_fn(cfg), tau)
    x_new = Xn[0].astype(np.int8)
    e_new = float(En[0])
    if e_new < state.best_energy:
        best_x, best_e = x_new.copy(), e_new
    else:
        best_x, best_e = state.best_x.copy(), state.best_energy
    return ChainState(x=x_new, energy=e_new, best_x=best_x, best_energy=best_e, rng=rng)


def _run_chain_block(model, flip_fn, tau0, steps, chain_ids, seed, init):
    """Run a block of chains jointly; per-chain results are identical to
    running each chain alone with its derived stream."""
    k = len(chain_ids)
    n = model.num_nodes
    rngs = [chain_rng(seed, int(c)) for c in chain_ids]
    if init is None:
        X = np.stack([rng.integers(0, 2, size=n) for rng in rngs]).astype(np.float64)
    else:
        X = np.tile(np.asarray(init, dtype=np.float64), (k, 1))
    E = model.energy(np.atleast_2d(X))
    best_X = X.copy()
    best_E = E.copy()
    energy_traj = np.empty((steps, k))
    best_traj = np.empty((steps, k))
    for t in range(1, steps + 1):
        tau = linear_temperature(t, tau0, steps)
        X, E = _advance(model, X, rngs, flip_fn, tau)
        improved = E < best_E
        best_X[improved] = X[improved]
        best_E[improved] = E[improved]
        energy_traj[t - 1] = E
        best_traj[t - 1] = best_E
    return best_X, best_E, energy_traj, best_traj


def _empty_result(model) -> RunResult:
    x = np.zeros(0, dtype=np.int8)
    empty = np.empty(0)
    traj = Trajectory(step=np.empty(0, dtype=np.int64), tau=empty,
                      best_energy=empty.copy(), mean_energy=empty.copy())
    objective = None if model.kind == "qubo" else model.objective(x)
    return RunResult(best_x=x, best_energy=float(model.energy(x)),
                     objective=objective, trajectory=traj, wall_time=0.0,
                     decode_flips=0, decode_gain=0.0)


def _anneal(model, *, tau0, steps, chains, seed, flip_fn, init, workers):
    workers = integer("workers", workers, 1)
    if model.num_nodes == 0:
        return _empty_result(model)
    start = time.perf_counter()
    if init is not None:
        init = np.asarray(init)
        model._as_batch(init)  # validates length and binary entries
    ids = np.arange(chains)
    blocks = np.array_split(ids, min(workers, chains))

    def run_block(block):
        return _run_chain_block(model, flip_fn, tau0, steps, block, seed, init)

    if len(blocks) == 1:
        outputs = [run_block(blocks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            outputs = list(pool.map(run_block, blocks))

    best_X = np.vstack([o[0] for o in outputs])
    best_E = np.concatenate([o[1] for o in outputs])
    energy_traj = np.hstack([o[2] for o in outputs])
    best_traj = np.hstack([o[3] for o in outputs])

    taus = np.array([linear_temperature(t, tau0, steps) for t in range(1, steps + 1)])
    trajectory = Trajectory(
        step=np.arange(1, steps + 1, dtype=np.int64),
        tau=taus,
        best_energy=best_traj.min(axis=1),
        mean_energy=energy_traj.mean(axis=1),
    )

    winner = int(np.argmin(best_E))  # lowest chain id on ties
    sampled = best_X[winner].astype(np.int8)
    decoded = greedy_decode(model, sampled)
    best_energy = float(model.energy(decoded))
    objective = None if model.kind == "qubo" else model.objective(decoded)
    return RunResult(
        best_x=decoded,
        best_energy=best_energy,
        objective=objective,
        trajectory=trajectory,
        wall_time=time.perf_counter() - start,
        decode_flips=int(np.count_nonzero(sampled != decoded)),
        decode_gain=float(best_E[winner]) - best_energy,
    )


def run_rlsa(model, cfg: SamplerConfig, init=None, workers: int = 1) -> RunResult:
    """Run K chains for T steps and return the decoded global best.

    Chains start from independent uniform-random binary vectors unless
    ``init`` supplies a common starting solution. The result is a pure
    function of (model, cfg, init) for any ``workers`` count (an integer of
    at least 1).
    """
    if 0 < model.num_nodes < cfg.d:
        raise ValueError(
            f"d={cfg.d} exceeds the {model.num_nodes}-node solution length"
        )
    return _anneal(
        model,
        tau0=cfg.tau0,
        steps=cfg.steps,
        chains=cfg.chains,
        seed=cfg.seed,
        flip_fn=_rlsa_flip_fn(cfg),
        init=init,
        workers=workers,
    )
