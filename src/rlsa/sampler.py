"""Annealed gradient-guided sampling over binary vectors with parallel chains.

The solver runs K independent chains for T steps. Each step computes the
flip-drop vector Delta, converts it to per-coordinate Bernoulli flip
probabilities through a flip rule (the kernel), and flips all coordinates
in parallel. The temperature decays linearly from tau0 to tau0/T, and each
chain tracks the best (lowest-energy) solution it has visited.

Kernels. ``KERNELS`` maps each kernel name to the parameters it takes and
its rule. A rule receives a (chains, N) Delta, the temperature tau and the
step's uniforms U, and returns the flip mask ``U < P`` for its
probabilities P:

* ``"regularized"`` (``d``, ``epsilon``), the paper's rule, thresholds Delta
  at its d-th largest entry,

      p_i = sigmoid((Delta_i - Delta_(d) + epsilon) / (2 * tau)),

  which drives the expected number of flips per step toward d as tau -> 0:
  exactly the top-d coordinates keep probability above one half. When
  Delta_(d) < 0 (a local optimum) the rule flips coordinates that escape it
  while avoiding the steepest energy increase.
* ``"normalized"`` (``d``) rescales plain sigmoid scores
  sigmoid(Delta_i / (2 * tau)) to sum to d, clamped to [0, 1].
* ``"ld"`` (``alpha``) is the unregularized discrete Langevin baseline with
  a fixed step size, the DMALA form of Zhang et al. (ICML 2022),

      p_i = sigmoid(Delta_i / (2 * tau) - 1 / (2 * alpha)).

  It is the regularized rule at the threshold tau / alpha in place of
  Delta_(d), with epsilon = 0, and is computed as exactly that:
  ``flip_probabilities(delta, tau / alpha, 0.0, tau)``. So the two kernels
  share one sigmoid and isolate the effect of the Delta_(d) threshold in
  ablations. Near a local optimum every Delta_i is negative and a fixed
  alpha drives all flip probabilities to zero as tau decays, so this kernel
  tends to stall where the regularized one escapes.

Sparse flip masks. The regularized and ld rules share one mask function,
which calls ``flip_probabilities`` with a (K, 1) column of thresholds:
Delta_(d) per row with epsilon, or tau / alpha in every row with
epsilon = 0. It evaluates the sigmoid only where a flip can happen, and
the mask stays bit-identical to ``U < P``.
``Generator.random`` returns multiples of 2**-53, and expit(z) < 2**-53 for
every z <= -37, so on such an entry ``U < P`` can hold only when U == 0.
An entry is live when its argument z = (Delta - a) / (2 tau) exceeds -40
(a = threshold - epsilon, Delta_(d) - epsilon or tau / alpha), a test made
in Delta units as Delta > a - 80 tau, with no division over the matrix; the
three units of margin cover its rounding, and a per-row check falls back
to the dense mask should rounding ever eat that margin. The sigmoid runs
on the live entries and on those with U == 0, and every other entry of the
mask is False. When more than a quarter of the entries are live, the dense
``U < P`` is cheaper and is used instead. The normalized rule needs every
sigmoid for its row sums, so it is always dense.

Chain state. The engine holds a block's states as a bool (K, N) array and
applies a step's flips in place as ``X ^= flip``. A bool batch is binary by
type, so the energy model uses it without a per-entry check or a float
copy, and every energy and Delta equals that of the equal float64 batch
bit for bit.

Reproducibility: chain k draws from an independent stream derived from the
master seed, ``default_rng(SeedSequence(seed, spawn_key=(k,)))``. A chain
consumes one vector of N uniforms per step in coordinate order (plus one
random binary init vector), so results do not depend on how chains are
scheduled across workers or on how many chains run alongside.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._checks import finite_float, integer
from .postprocess import greedy_decode


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


def kth_largest(delta, d: int):
    """Value of rank ``d`` in descending order along the last axis (duplicates
    occupy consecutive ranks); expected O(N) selection. A vector gives one
    value, a (B, N) batch one value per row."""
    v = np.asarray(delta, dtype=np.float64)
    n = v.shape[-1]
    if not 1 <= d <= n:
        raise ValueError(f"d must be in 1..{n}, got {d}")
    return np.partition(v, n - d, axis=-1)[..., n - d]


def flip_probabilities(delta, dth, epsilon: float, tau: float):
    """Regularized flip probabilities sigmoid((delta_i - dth + epsilon) / (2 tau)).

    ``dth`` may be a scalar or an array broadcastable against ``delta``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    threshold = np.asarray(dth, dtype=np.float64) - epsilon
    return expit((np.asarray(delta, dtype=np.float64) - threshold) / (2.0 * tau))


def normalized_flip_probabilities(delta, tau: float, d: int):
    """Sigmoid scores sigmoid(delta_i / (2 tau)) rescaled so each row sums to d.

    For an energy model, delta_i / (2 tau) = s_i (1 - 2 x_i) / 2 with the
    score s = -grad H / tau. Outputs are clamped to [0, 1]; absent clamping
    the probabilities sum to d exactly. A row whose sigmoids all underflow
    to 0 takes the limit of that rescaling, d * softmax(delta / (2 tau)).
    """
    D = np.asarray(delta, dtype=np.float64)
    n = D.shape[-1]
    if not 1 <= d <= n:
        raise ValueError(f"d must be in 1..{n}, got {d}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = D / (2.0 * tau)
    sig = expit(z)
    total = sig.sum(axis=-1, keepdims=True)
    dead = total == 0
    if dead.any():
        # Every sigmoid of the row underflowed. There sigmoid(z) ~ exp(z), so
        # the rescaled scores tend to d * softmax(z); only such rows take it.
        soft = np.exp(z - z.max(axis=-1, keepdims=True))
        sig = np.where(dead, soft, sig)
        total = np.where(dead, soft.sum(axis=-1, keepdims=True), total)
    return np.clip(d * sig / total, 0.0, 1.0)


def ld_flip_probabilities(delta, alpha: float, tau: float):
    """Fixed-step Langevin flip probabilities sigmoid(delta_i / (2 tau) - 1 / (2 alpha)),
    computed as the regularized rule at threshold tau / alpha with epsilon = 0."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return flip_probabilities(delta, tau / alpha, 0.0, tau)


# expit(z) < 2**-53, the smallest positive uniform, for every z <= _DEAD_Z
_DEAD_Z = -37.0
# entries whose sigmoid argument exceeds this are live (see the module docstring)
_LIVE_Z = -40.0
# above this share of live entries the dense mask is the cheaper one
_DENSE_SHARE = 0.25


def _flip_mask(D, U, dth, epsilon, tau):
    """``U < flip_probabilities(D, dth, epsilon, tau)`` for a (K, 1) column
    ``dth`` of per-row thresholds, evaluating the sigmoid only on the
    entries where a flip can happen.

    The sparse path passes ``flip_probabilities`` the gathered entries of D
    and of ``dth``, so every argument keeps its value and the mask is
    bit-identical to the dense one.
    """
    a = dth - epsilon
    cut = a + 2.0 * tau * _LIVE_Z
    live = D > cut
    # Dead entries have D - a <= cut - a; rounding is monotone, so their z
    # is at most (cut - a) / (2 tau) computed the rule's way.
    if (np.count_nonzero(live) > _DENSE_SHARE * D.size
            or not np.all((cut - a) / (2.0 * tau) <= _DEAD_Z)):
        return U < flip_probabilities(D, dth, epsilon, tau)
    if not U.all():
        live |= U == 0
    idx = np.flatnonzero(live)
    flip = np.zeros(D.size, dtype=bool)
    flip[idx] = U.ravel()[idx] < flip_probabilities(
        D.ravel()[idx], dth[idx // D.shape[1], 0], epsilon, tau)
    return flip.reshape(D.shape)


# _flip_mask resolves flip_probabilities through this module at call time,
# so a tracer can swap it. ld is the regularized rule at threshold
# tau / alpha with epsilon = 0, so the benchmark's sampler.flip_rule_s
# times the sigmoid of both rules.

def _regularized(cfg, D, tau, U):
    return _flip_mask(D, U, kth_largest(D, cfg.d)[:, None], cfg.epsilon, tau)


def _normalized(cfg, D, tau, U):
    return U < normalized_flip_probabilities(D, tau, cfg.d)


def _ld(cfg, D, tau, U):
    return _flip_mask(D, U, np.full((len(D), 1), tau / cfg.alpha), 0.0, tau)


# kernel -> (the SamplerConfig fields its rule reads,
#            rule(cfg, Delta, tau, U) -> flip mask, bit-identical to U < P).
# The regularized and ld masks are sparse: see the module docstring.
KERNELS = {
    "regularized": (("d", "epsilon"), _regularized),
    "normalized": (("d",), _normalized),
    "ld": (("alpha",), _ld),
}


@dataclass(kw_only=True)
class SamplerConfig:
    """Hyperparameters that fully determine a run on a given model. Of ``d``
    and ``alpha``, exactly the one that ``KERNELS[kernel]`` takes is set."""

    tau0: float
    steps: int
    chains: int
    d: int | None = None
    alpha: float | None = None
    seed: int = 0
    epsilon: float = 1e-6
    kernel: str = "regularized"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {tuple(KERNELS)}, got {self.kernel!r}")
        params = KERNELS[self.kernel][0]
        for name in ("d", "alpha"):
            if (getattr(self, name) is None) == (name in params):
                need = "requires" if name in params else "does not take"
                raise ValueError(f"the {self.kernel!r} kernel {need} {name}")
        self.tau0 = finite_float("tau0", self.tau0)
        if self.tau0 <= 0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        if self.d is not None:
            self.d = integer("d", self.d, 1)
        if self.alpha is not None:
            self.alpha = finite_float("alpha", self.alpha)
            if self.alpha <= 0:
                raise ValueError(f"alpha must be positive, got {self.alpha}")
        self.steps = integer("steps", self.steps, 1)
        self.chains = integer("chains", self.chains, 1)
        self.epsilon = finite_float("epsilon", self.epsilon)
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        self.seed = integer("seed", self.seed, 0)


@dataclass
class Trajectory:
    """Per-step records across all chains of one run."""

    step: np.ndarray
    tau: np.ndarray
    best_energy: np.ndarray  # global best across chains, running minimum
    mean_energy: np.ndarray  # mean current energy over chains
    mean_flips: np.ndarray  # bits flipped in the step, mean over chains
    improved: np.ndarray  # chains whose best improved in the step

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


def _run_chain_block(model, cfg: SamplerConfig, chain_ids, init, taus):
    """Run a block of chains jointly under the temperature schedule
    ``taus``; per-chain results are identical to running each chain alone
    with its derived stream.

    Each step makes one ``model.delta`` and one ``model.energy`` call on the
    whole block and consumes N uniforms per chain, drawn into one reused
    buffer before the flip rule runs. The rule, ``rule(cfg, Delta, tau, U)``,
    returns the flip mask; the regularized and ld rules evaluate their
    sigmoid only where a flip can happen (see the module docstring). It
    costs one sparse product per step: ``model.energy`` on the new state
    computes ``A @ X`` and the next step's ``model.delta`` on the same state
    reuses it through the model's per-thread memo, so a block makes
    ``steps + 1`` products. The states are a bool (K, N) array flipped in
    place with ``X ^= flip``; the memo keeps a copy of the batch it saw, so
    it notices the change. Returns the best states (bool) and energies, per
    step and chain the energy and the number of bits flipped, and the
    running best, whose first row is the initial energies: a chain's best
    improved at step t exactly where ``best_traj[t] < best_traj[t - 1]``.
    """
    rule = KERNELS[cfg.kernel][1]
    k = len(chain_ids)
    n = model.num_nodes
    rngs = [chain_rng(cfg.seed, int(c)) for c in chain_ids]
    if init is None:
        X = np.stack([rng.integers(0, 2, size=n) for rng in rngs]).astype(bool)
    else:
        X = np.tile(np.asarray(init).astype(bool), (k, 1))
    E = model.energy(X)
    best_X = X.copy()
    best_E = E.copy()
    energy_traj = np.empty((len(taus), k))
    best_traj = np.empty((len(taus) + 1, k))
    best_traj[0] = E
    flips_traj = np.empty((len(taus), k), dtype=np.int64)
    U = np.empty((k, n))
    for t, tau in enumerate(taus):
        D = model.delta(X)
        for rng, row in zip(rngs, U):
            rng.random(out=row)
        flip = rule(cfg, D, tau, U)
        X ^= flip
        E = model.energy(X)
        better = E < best_E
        best_X[better] = X[better]
        best_E[better] = E[better]
        energy_traj[t] = E
        best_traj[t + 1] = best_E
        flips_traj[t] = np.count_nonzero(flip, axis=1)
    return best_X, best_E, energy_traj, best_traj, flips_traj


def _empty_result(model) -> RunResult:
    x = np.zeros(0, dtype=np.int8)
    empty = np.empty(0)
    traj = Trajectory(step=np.empty(0, dtype=np.int64), tau=empty,
                      best_energy=empty.copy(), mean_energy=empty.copy(),
                      mean_flips=empty.copy(), improved=np.empty(0, dtype=np.int64))
    objective = None if model.kind == "qubo" else model.objective(x)
    return RunResult(best_x=x, best_energy=float(model.energy(x)),
                     objective=objective, trajectory=traj, wall_time=0.0,
                     decode_flips=0, decode_gain=0.0)


def run_rlsa(model, cfg: SamplerConfig, init=None, workers: int = 1) -> RunResult:
    """Run K chains for T steps under ``cfg.kernel`` and return the decoded
    global best.

    Chains start from independent uniform-random binary vectors unless
    ``init``, a single binary solution of shape (N,), supplies a common
    starting solution; any other shape raises ValueError. The result is a pure
    function of (model, cfg, init) for any ``workers`` count (an integer of
    at least 1).
    """
    if cfg.d is not None and 0 < model.num_nodes < cfg.d:
        raise ValueError(
            f"d={cfg.d} exceeds the {model.num_nodes}-node solution length"
        )
    workers = integer("workers", workers, 1)
    if model.num_nodes == 0:
        return _empty_result(model)
    start = time.perf_counter()
    if init is not None:
        init = np.asarray(init)
        if init.ndim != 1:
            raise ValueError(
                f"init must be one solution of shape ({model.num_nodes},), "
                f"got shape {init.shape}"
            )
        model._as_batch(init)  # validates length and binary entries
    taus = np.array([linear_temperature(t, cfg.tau0, cfg.steps) for t in range(1, cfg.steps + 1)])
    blocks = np.array_split(np.arange(cfg.chains), min(workers, cfg.chains))
    if len(blocks) == 1:
        outputs = [_run_chain_block(model, cfg, blocks[0], init, taus)]
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            outputs = list(pool.map(lambda b: _run_chain_block(model, cfg, b, init, taus), blocks))

    parts = list(zip(*outputs))
    best_X, best_E = np.concatenate(parts[0]), np.concatenate(parts[1])
    energy_traj, best_traj, flips_traj = (np.hstack(p) for p in parts[2:])

    trajectory = Trajectory(
        step=np.arange(1, cfg.steps + 1, dtype=np.int64),
        tau=taus,
        best_energy=best_traj[1:].min(axis=1),
        mean_energy=energy_traj.mean(axis=1),
        mean_flips=flips_traj.mean(axis=1),
        improved=np.count_nonzero(best_traj[1:] < best_traj[:-1], axis=1),
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
