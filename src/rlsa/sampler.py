"""Annealed gradient-guided sampling over binary vectors with parallel chains.

The solver runs K independent chains for T steps. Each step computes the
flip-drop vector Delta, converts it to per-coordinate Bernoulli flip
probabilities through a flip rule (the kernel), and flips all coordinates
in parallel. The temperature decays linearly from tau0 to tau0/T, and each
chain tracks the best (lowest-energy) solution it has visited.

Kernels. ``KERNELS`` maps each kernel name to the parameters it takes and
its rule. A rule receives a (chains, N) Delta, the temperature tau, the
block's reservoir of uniforms and its buffers, and returns the flip mask,
``U < P`` for its probabilities P and the uniforms U it takes (see "Sparse
flip masks" for which entries take one):

* ``"regularized"`` (``d``, ``epsilon``), the paper's rule, thresholds Delta
  at its d-th largest entry,

      p_i = sigmoid((Delta_i - Delta_(d) + epsilon) / (2 * tau)),

  which drives the expected number of flips per step toward d as tau -> 0:
  exactly the top-d coordinates keep probability above one half. When
  Delta_(d) < 0 (a local optimum) the rule flips coordinates that escape it
  while avoiding the steepest energy increase. Integer Deltas tie: every
  coordinate tied at Delta_(d) keeps probability sigmoid(epsilon / (2 tau)),
  about one half, so where many tie (max-cut) flips per step end above d.
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
epsilon = 0. An entry is live when its argument z = (Delta - a) / (2 tau)
exceeds -40 (a = threshold - epsilon, Delta_(d) - epsilon or tau / alpha),
a test made in Delta units as Delta > a - 80 tau, with no division over
the matrix. A dead entry's probability is below expit(-40), about 4e-18.
On a float64 Delta the live test defines the rule: each live entry takes
one uniform, the chain's next one in coordinate order, and flips where it
is below its P; a dead entry takes none and never flips. The uniforms come
in one gather over the live entries, and the sigmoid runs on them alone.
On mis-er800 about 4% of the entries are live, so a step takes about 30
uniforms per chain, not 800.
An integer Delta takes N uniforms per chain, the (K, N) U, and its mask is
bit-identical to ``U < P``: from a table (next paragraph) or, where the
table does not fit, with the sigmoid evaluated only where a flip can
happen. ``Generator.random`` returns multiples of 2**-53, and
expit(z) < 2**-53 for every z <= -37, so on a dead entry ``U < P`` can hold
only when U == 0. The live test is one comparison for any dtype: an int16
Delta converts to float64 exactly. The three units of margin cover its
rounding, and a per-row check falls back to the dense mask should rounding
ever eat that margin. The sigmoid runs on the live entries and on those
with U == 0, and every other entry of the mask is False. When more than a
quarter of the entries are live, the dense ``U < P`` is cheaper and is used
instead. The normalized rule needs every sigmoid for its row sums, so it
is always dense and takes N uniforms per chain.

Integer Delta. When the energy model bounds every Delta by an integer
below 2**15 (mcut, qubo with integer coefficients, mis and mcl at an
integer beta), ``model.delta`` returns it as int16, with the values a
float64 Delta would hold, and the engine uses it as it comes. The d-th
largest is then taken by an int16 partition, and the mask takes its
probabilities from a table:
``flip_probabilities`` runs once, on the values D.min()..D.max() at each
distinct threshold of the step (one for ld), and every entry of the mask
gathers its probability from that table, whatever the live share. A table
entry is the same float64 expression expit((v - (threshold - epsilon)) /
(2 tau)) of the same float64 v as the dense probability of an entry equal
to v, so ``U < P`` is bit-identical. A table with more entries than D
would cost more sigmoids than the dense mask, so such a step goes on to
the live test and the sparse or dense mask. No setting chooses this path:
the model's bound and the table size do.

Chain state. The engine holds a block's states as a bool (K, N) array and
applies a step's flips in place as ``X ^= flip``. A bool batch is binary by
type, and the energy model works on bool batches only, so it uses the
states without a per-entry check or a copy.

Block buffers. A block allocates the arrays of its steps once and reuses
them at every step: its reservoir of uniforms, and for the regularized and
ld rules the (K, N) live test, table index and probabilities, and flip
mask. A fresh array of that size can cost a page fault per page on first
touch; on max-cut those faults ate all of the time the table saves. Delta
comes fresh from ``model.delta`` each step, in its own dtype (int16 on
max-cut), and the d-th largest is taken on a fresh partition copy. The
reservoir is one (K, S * N) array for a draw depth of S steps, with a
cursor per chain: row k holds chain k's next uniforms, and a step takes
what it consumes from the cursor on. A row that holds too few for a step
moves its unread uniforms to its front and fills the rest in one generator
call, never with more than the steps left can consume. A step of N per
chain (an integer Delta, the normalized rule) reads the (K, N) view at the
common cursor, so the rows refill together every S steps; a float64 Delta
gathers its live entries' uniforms, and each row refills when its own
count runs out, on mis-er800 about every 26 steps at S = 1.
``Generator.random`` releases the GIL and takes it back on every call, so
blocks that run side by side and draw one step per call hand the lock
back and forth (on max-cut at 1000 nodes, 100 calls of about 3 us per
step per block). ``run_rlsa`` therefore gives each of several blocks
S = ``_DRAW_ENTRIES`` // N, at least 1 and at most T. A lone block, which
no other thread waits on, takes S = 1, so its reservoir is (K, N).

Reproducibility: chain k draws from an independent stream derived from the
master seed, ``default_rng(SeedSequence(seed, spawn_key=(k,)))``. After
its random binary init vector, a chain consumes its stream in order: per
step, one uniform per coordinate in coordinate order on an integer Delta
and under the normalized rule, and one per live coordinate in coordinate
order under the regularized and ld rules on a float64 Delta. Draws of any
size return the stream's values in order, so results do not depend on how
chains are scheduled across workers, on how many chains run alongside, or
on the draw depth. Taking uniforms for the live entries alone changed the
results of the float64 Delta runs (mis and mcl at a non-integer beta,
float qubo) from those of the earlier N per step; the integer runs kept
theirs bit for bit.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._checks import finite_float, integer, positive
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
    value, a (B, N) batch one value per row.

    Integer input is ranked in its own dtype and other input in float64;
    either way the value equals the float64 answer.
    """
    v = np.asarray(delta)
    if v.dtype.kind not in "iu":
        v = v.astype(np.float64, copy=False)
    n = v.shape[-1]
    if integer("d", d, 1) > n:
        raise ValueError(f"d must be in 1..{n}, got {d}")
    return np.partition(v, n - d, axis=-1)[..., n - d]


def flip_probabilities(delta, dth, epsilon: float, tau: float):
    """Regularized flip probabilities sigmoid((delta_i - dth + epsilon) / (2 tau)).

    ``dth`` may be a scalar or an array broadcastable against ``delta``.
    """
    tau = positive("tau", tau)
    epsilon = finite_float("epsilon", epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    threshold = np.asarray(dth, dtype=np.float64) - epsilon
    # a large Delta over a small tau overflows to +-inf, whose expit is
    # exactly 1 or 0: the probability the finite quotient rounds to
    with np.errstate(over="ignore"):
        z = (np.asarray(delta, dtype=np.float64) - threshold) / (2.0 * tau)
    return expit(z)


def normalized_flip_probabilities(delta, tau: float, d: int):
    """Sigmoid scores sigmoid(delta_i / (2 tau)) rescaled so each row sums to d.

    For an energy model, delta_i / (2 tau) = s_i (1 - 2 x_i) / 2 with the
    score s = -grad H / tau. Outputs are clamped to [0, 1]; absent clamping
    the probabilities sum to d exactly. A row whose sigmoids all underflow
    to 0 takes the limit of that rescaling, d * softmax(delta / (2 tau)).
    """
    D = np.asarray(delta, dtype=np.float64)
    n = D.shape[-1]
    if integer("d", d, 1) > n:
        raise ValueError(f"d must be in 1..{n}, got {d}")
    tau = positive("tau", tau)
    with np.errstate(over="ignore"):  # +-inf, as in flip_probabilities
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
    computed as the regularized rule at threshold tau / alpha with epsilon = 0,
    which checks ``tau``."""
    alpha = positive("alpha", alpha)
    return flip_probabilities(delta, tau / alpha, 0.0, tau)


# expit(z) < 2**-53, the smallest positive uniform, for every z <= _DEAD_Z
_DEAD_Z = -37.0
# entries whose sigmoid argument exceeds this are live (see the module docstring)
_LIVE_Z = -40.0
# above this share of live entries the dense mask is the cheaper one
_DENSE_SHARE = 0.25
# uniforms per generator call when blocks run side by side (see "Block
# buffers"). Two 100-chain max-cut blocks at 1000 nodes on a 2-vCPU box,
# medians of 7 solves: 0.97 s at 1000 per call, 0.78 at 2000, 0.72 at 3000,
# 0.66 at 4096, and 0.62-0.64 at 8000 and 16000, with 2x and 4x the buffer
_DRAW_ENTRIES = 4096


class _Reservoir:
    """A chain block's uniforms: row k of one reused (K, size) array holds
    chain k's next uniforms, from ``cursor[k]`` up to ``end[k]``, in the
    order its generator returned them.

    Each step consumes from the front of every row, either N per chain
    (``step``) or one per given entry (``take``); a block does one or the
    other at every step. A row that holds too few for the step moves its
    unread uniforms to its front and fills the rest in one generator call,
    never with more than the steps left can consume.
    """

    def __init__(self, rngs, size, n, steps):
        self.rngs = rngs
        self.draws = np.empty((len(rngs), size))
        self.cursor = np.full(len(rngs), size)
        self.end = self.cursor.copy()
        self.n = n
        self.steps = steps  # steps left, the current one included

    def _refill(self, rows):
        fill = min(self.draws.shape[1], self.steps * self.n)
        for k in rows:
            row, left = self.draws[k], self.end[k] - self.cursor[k]
            row[:left] = row[self.cursor[k]:self.end[k]]
            self.rngs[k].random(out=row[left:fill])
            self.cursor[k], self.end[k] = 0, fill

    def step(self):
        """The (K, N) uniforms of a step that consumes N per chain. Such
        steps leave every chain's cursor at the same place, a multiple of
        N below its end, so the step's uniforms are one view of the reused
        array, and the rows run out together."""
        if self.cursor[0] == self.end[0]:  # every row empty: nothing to carry over
            fill = min(self.draws.shape[1], self.steps * self.n)
            for rng, row in zip(self.rngs, self.draws):
                rng.random(out=row[:fill])
            self.cursor[:], self.end[:] = 0, fill
        self.steps -= 1
        at = self.cursor[0]
        self.cursor += self.n
        return self.draws[:, at:at + self.n]

    def take(self, rows):
        """Chain k's next uniforms, one for each entry of ``rows`` (chain
        ids, ascending) equal to k, in order, in one gather."""
        counts = np.bincount(rows, minlength=len(self.rngs))
        self._refill(np.flatnonzero(self.end - self.cursor < counts))
        self.steps -= 1
        # entry i is its row's (i - first[row])-th, at column cursor[row] + that
        first = np.cumsum(counts) - counts
        base = np.arange(len(counts)) * self.draws.shape[1] + self.cursor - first
        self.cursor += counts
        return self.draws.ravel().take(base[rows] + np.arange(rows.size))


class _Buffers(dict):
    """Arrays that a chain block reuses at every step, by name, each made on
    first use; a fresh instance allocates afresh."""

    def __call__(self, name, shape, dtype):
        out = self.get(name)
        if out is None:
            out = self[name] = np.empty(shape, dtype)
        return out


def _flip_mask(D, dth, epsilon, tau, draws, buf):
    """The regularized rule's flip mask at a (K, 1) column ``dth`` of
    per-row thresholds, written into ``buf``, with its uniforms from the
    reservoir ``draws``.

    A float64 D takes one uniform per live entry, where z > -40 (see
    "Sparse flip masks" in the module docstring), and passes
    ``flip_probabilities`` the live entries of D and of ``dth``; every
    other entry stays False. An integer D takes N uniforms per row, the
    (K, N) U, and returns ``U < flip_probabilities(D, dth, epsilon,
    tau)``: from a table of its distinct values whenever that table fits,
    and otherwise with the sigmoid evaluated only where a flip can happen,
    bit-identical to the dense mask.
    """
    flip = buf("flip", D.shape, bool)
    U = None if D.dtype.kind == "f" else draws.step()
    if U is not None:
        P = _table_probabilities(D, dth, epsilon, tau, buf)
        if P is not None:
            return np.less(U, P, out=flip)
    a = dth - epsilon
    cut = a + 2.0 * tau * _LIVE_Z
    live = np.greater(D, cut, out=buf("live", D.shape, bool))
    if U is not None:
        # Dead entries have D - a <= cut - a; rounding is monotone, so their
        # z is at most (cut - a) / (2 tau) computed the rule's way.
        if (np.count_nonzero(live) > _DENSE_SHARE * D.size
                or not np.all((cut - a) / (2.0 * tau) <= _DEAD_Z)):
            return np.less(U, flip_probabilities(D, dth, epsilon, tau), out=flip)
        if not U.all():
            live |= U == 0
    idx = np.flatnonzero(live)
    rows = idx // D.shape[1]
    u = draws.take(rows) if U is None else U[rows, idx - rows * D.shape[1]]
    flip.fill(False)
    flip.ravel()[idx] = u < flip_probabilities(D.ravel()[idx], dth[rows, 0], epsilon, tau)
    return flip


def _table_probabilities(D, dth, epsilon, tau, buf):
    """``flip_probabilities(D, dth, epsilon, tau)`` for an integer (K, N) D,
    gathered from one sigmoid table over the values D.min()..D.max() at
    each distinct threshold of the (K, 1) column ``dth``, or None when that
    table would have more entries than D.

    A table entry is the same float64 expression of the same float64 value
    as the dense probability it stands for, so the two are bit-identical.
    """
    lo, hi = int(D.min()), int(D.max())
    ths, inv = np.unique(dth[:, 0], return_inverse=True)
    width = hi - lo + 1
    if ths.size * width > D.size:
        return None
    table = flip_probabilities(np.arange(lo, hi + 1), ths[:, None], epsilon, tau)
    # the flat index of D[k, j] in row inv[k]: below table.size <= D.size,
    # which int32 holds for any D of fewer than 2**31 entries
    idx = np.add(D, (inv * width - lo).astype(np.int32)[:, None],
                 out=buf("index", D.shape, np.int32))
    # every index is in range; mode="clip" writes to ``out`` directly, where
    # the default "raise" would fill a hidden copy
    return table.ravel().take(idx, out=buf("p", D.shape, np.float64), mode="clip")


# _flip_mask resolves flip_probabilities through this module at call time,
# so a tracer can swap it. ld is the regularized rule at threshold
# tau / alpha with epsilon = 0, so the benchmark's sampler.flip_rule_s
# times the sigmoid of both rules: on a float64 Delta's live entries
# alone; on an integer Delta on its table, on its live entries or on the
# whole of it. The live test, the uniforms' gather and the table's gather
# and compare fall outside it.

def _regularized(cfg, D, tau, draws, buf):
    return _flip_mask(D, kth_largest(D, cfg.d)[:, None], cfg.epsilon, tau, draws, buf)


def _normalized(cfg, D, tau, draws, buf):
    return draws.step() < normalized_flip_probabilities(D, tau, cfg.d)


def _ld(cfg, D, tau, draws, buf):
    return _flip_mask(D, np.full((len(D), 1), tau / cfg.alpha), 0.0, tau, draws, buf)


# kernel -> (the SamplerConfig fields its rule reads,
#            rule(cfg, Delta, tau, draws, buf) -> flip mask, U < P for the
#            uniforms U it takes from the reservoir ``draws``; the mask may
#            live in the reused arrays ``buf``).
# The regularized and ld masks take a table or go sparse, and on a float64
# Delta take uniforms for the live entries alone: see the module docstring.
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
        self.tau0 = positive("tau0", self.tau0)
        if self.d is not None:
            self.d = integer("d", self.d, 1)
        if self.alpha is not None:
            self.alpha = positive("alpha", self.alpha)
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


def _run_chain_block(model, cfg: SamplerConfig, chain_ids, init, taus, depth=1):
    """Run a block of chains jointly under the temperature schedule
    ``taus``; per-chain results are identical to running each chain alone
    with its derived stream.

    Each step makes one ``model.delta`` and one ``model.energy`` call on the
    whole block. Its uniforms come from the block's reservoir, one
    (K, depth * N) array with a cursor per chain, which each chain refills
    in one generator call when it holds too few: a step consumes N per
    chain on an integer Delta and under the normalized rule, and one per
    live entry under the regularized and ld rules on a float64 Delta. The
    results are the same for every depth (see "Block buffers" and
    "Reproducibility" in the module docstring). Delta is taken as
    ``model.delta`` returns it: int16 for a model whose Deltas are
    integers below 2**15, float64 otherwise. The rule,
    ``rule(cfg, Delta, tau, draws, buf)``, returns the flip mask in the
    block's reused arrays ``buf``; the regularized and ld rules take their
    sigmoid from a table of the integer values, or evaluate it only where
    a flip can happen (see the module docstring). The block costs one
    product or update per step in which any of its chains flips:
    ``model.energy`` on the new state brings ``A @ X`` up to date, through
    each chain's flip list when that is cheaper than the full product (see
    ``rlsa.energy``), and the next step's ``model.delta`` on the same
    state reuses it through the model's per-thread memo, so a block makes
    at most ``steps + 1`` products or updates. The states are a bool (K, N)
    array flipped in place with ``X ^= flip``; the memo keeps a copy of
    the batch it saw, so it notices the change. Returns the best states
    (bool) and energies, per step and chain the energy and the number of
    bits flipped, and the running best, whose first row is the initial
    energies: a chain's best improved at step t exactly where
    ``best_traj[t] < best_traj[t - 1]``.
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
    draws = _Reservoir(rngs, depth * n, n, len(taus))
    buf = _Buffers()
    for t, tau in enumerate(taus):
        D = model.delta(X)
        flip = rule(cfg, D, tau, draws, buf)
        X ^= flip
        E = model.energy(X)
        better = E < best_E
        best_X[better] = X[better]
        best_E[better] = E[better]
        energy_traj[t] = E
        best_traj[t + 1] = best_E
        flips_traj[t] = np.count_nonzero(flip, axis=1)
    return best_X, best_E, energy_traj, best_traj, flips_traj


def _mean_energy(energy_traj):
    """Each row's mean of a (T, K) array of finite energies: the plain
    ``mean`` where it is finite, and where the sum of the K energies
    overflows, the mean of the energies scaled by a power of two at or
    below 1 / K, scaled back. Scaling by a power of two is exact, so this
    is the mean that a sum without overflow would give, and the scaled
    sum stays below the largest energy."""
    with np.errstate(over="ignore"):
        mean = energy_traj.mean(axis=1)
    over = ~np.isfinite(mean)
    if over.any():
        scale = 0.5 ** math.ceil(math.log2(energy_traj.shape[1]))
        mean[over] = (energy_traj[over] * scale).mean(axis=1) / scale
    return mean


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
    if init is not None:
        init = np.asarray(init)
        if init.ndim != 1:
            raise ValueError(
                f"init must be one solution of shape ({model.num_nodes},), "
                f"got shape {init.shape}"
            )
        model._as_batch(init)  # validates length and binary entries
    if model.num_nodes == 0:
        return _empty_result(model)
    start = time.perf_counter()
    taus = np.array([linear_temperature(t, cfg.tau0, cfg.steps) for t in range(1, cfg.steps + 1)])
    blocks = np.array_split(np.arange(cfg.chains), min(workers, cfg.chains))
    if len(blocks) == 1:
        outputs = [_run_chain_block(model, cfg, blocks[0], init, taus)]
    else:
        depth = min(cfg.steps, max(1, _DRAW_ENTRIES // model.num_nodes))
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            outputs = list(pool.map(
                lambda b: _run_chain_block(model, cfg, b, init, taus, depth), blocks))

    parts = list(zip(*outputs))
    best_X, best_E = np.concatenate(parts[0]), np.concatenate(parts[1])
    energy_traj, best_traj, flips_traj = (np.hstack(p) for p in parts[2:])

    trajectory = Trajectory(
        step=np.arange(1, cfg.steps + 1, dtype=np.int64),
        tau=taus,
        best_energy=best_traj[1:].min(axis=1),
        mean_energy=_mean_energy(energy_traj),
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
