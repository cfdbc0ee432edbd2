"""Annealed gradient-guided sampling over binary vectors with parallel chains.

The solver runs K independent chains for T steps. Each step computes the
flip-drop vector Delta, converts it to per-coordinate Bernoulli flip
probabilities through a flip rule (the kernel), and flips all coordinates
in parallel. The temperature decays linearly from tau0 to tau0/T, and each
chain tracks the best (lowest-energy) solution it has visited.

Kernels. ``KERNELS`` maps each kernel name to the parameters it takes and
its rule. A rule receives the block's walk (``EnergyModel._walk``), the
temperature tau, the block's reservoir of uniforms and its buffers. It
reads the step's keys from the walk and returns the step's flips, ``U <
P`` for its probabilities P and the uniforms U it takes (see "Flips" for
which entries take one), as a bool (K, N) mask or a sorted flat flip
list; the walk's ``advance`` takes either:

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

Flips. The regularized and ld rules share one function, which reads the
step's keys through the walk: ``integer``, whether every Delta is an
integer below 2**15 (the model's bound: mcut, qubo with integer
coefficients, mis and mcl at an integer beta); ``value(keys)``, the
Delta at each key; and ``cut(c)``, the keys that Delta > c means. The
public walk's keys are Delta itself, int16 where it is integer, and both
maps are the identity. A coded walk's keys (mis and mcl, see
``rlsa.energy``) are the ranks of Delta among the values it can take,
int16, ordered and tied exactly as Delta is, so its thresholds, cuts and
probabilities read back through ``value`` are those of the float Delta,
bit for bit, and no float Delta is built. The function takes a (K, 1)
column of thresholds: Delta_(d) per row, read at the d-th largest key by
an integer partition, with epsilon, or tau / alpha in every row with
epsilon = 0.

An integer Delta takes N uniforms per chain, the (K, N) U, and returns
the mask ``U < P``. P comes from a table: ``flip_probabilities`` runs
once, on the values of the keys' range at each threshold key from the
step's lowest to its highest (one row under ld), and every entry gathers
its probability by (the row's threshold key less the lowest, its key less
the lowest key). A table entry is the same float64 expression
expit((v - (threshold - epsilon)) / (2 tau)) of the same float64 v as the
probability it stands for, so ``U < P`` is bit-identical. A table with
more entries than the keys would cost more sigmoids than the whole block,
so such a step runs ``flip_probabilities`` on the whole Delta.

A float64 Delta takes one uniform per live entry. An entry is live when
its argument z = (Delta - a) / (2 tau) exceeds -40 (a = threshold -
epsilon), a test made in Delta units as Delta > a - 80 tau, with no
division over the matrix, and on a coded walk as a key above its row's
rank cut. A dead entry's probability is below expit(-40), about 4e-18.
The live test defines the rule: each live entry takes one uniform, the
chain's next one in coordinate order, and flips where it is below its P;
a dead entry takes none and never flips. The uniforms come in one gather
over the live entries, and P from the table over the live keys where the
keys are integers and it fits, and otherwise from the sigmoid on the live
entries alone. The flips are the sorted flat indices of the live entries
where u < P. On mis-er800 about 4% of the entries are live, so a step
takes about 30 uniforms per chain, not 800.

The normalized rule needs every sigmoid for its row sums, so it reads the
whole Delta through ``value``, takes N uniforms per chain and returns a
mask. No setting chooses among these paths: the model's bound, the keys'
dtype and the table's size do.

Chain state. The engine holds a block's states as a bool (K, N) array,
which it hands to the model's walk (``EnergyModel._walk``) and which the
walk flips in place at every step. A coded walk (mis and mcl) takes the
rule's flip list, or the flip list of its mask: it flips X by scatter,
writes the update of the list straight into its int16 codes, takes the
keys from the codes in one gather, and brings each row's s and x^T W x,
and with them the energies, up to date from the flipped entries alone;
apart from that update, the keys, the partition, the live test and its
``flatnonzero``, a step touches only the flip list, the live entries and
per-row values. The public walk (mcut, qubo) applies a mask as ``X ^=
flip`` and scatters a flip list into X: each step calls ``model.delta``
and then ``model.energy`` once on the whole block, as a tracer that
wraps those two methods sees; the model's product memo serves the second
call's product to the next step's first. A bool batch is binary by type,
so the model uses the states without a per-entry check or a copy.

Block buffers. A block allocates the arrays of its steps once and reuses
them at every step: its reservoir of uniforms, the (K, N) live test, table
index and probabilities, and flip mask of the regularized and ld rules,
and a coded walk's int16 codes and keys (it holds no product and no intp
(K, N) array). A fresh array of that size can cost a page fault per page
on first touch; on max-cut those faults ate all of the time the table
saves. On the public walk Delta comes fresh from ``model.delta`` each
step, in its own dtype (int16 on max-cut), and the d-th largest of Delta
or of the keys is taken on a fresh partition copy.
The reservoir is one (K, S * N) array for a draw depth of S steps, with a
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
on the draw depth.
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


# entries whose sigmoid argument exceeds this are live (see the module docstring)
_LIVE_Z = -40.0
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
        if self.cursor[0] == self.end[0]:
            self._refill(range(len(self.rngs)))
        self.steps -= 1
        at = self.cursor[0]
        self.cursor += self.n
        return self.draws[:, at:at + self.n]

    def take(self, start):
        """For entries of ascending chains, chain k's at ``start[k]`` up to
        ``start[k + 1]``, each chain's next uniforms, one per entry, in
        order, in one gather."""
        counts = start[1:] - start[:-1]
        self._refill(np.flatnonzero(self.end - self.cursor < counts))
        self.steps -= 1
        # entry i of chain k is its (i - start[k])-th, at column cursor[k] + that
        base = np.arange(len(counts)) * self.draws.shape[1] + self.cursor - start[:-1]
        self.cursor += counts
        return self.draws.ravel().take(np.repeat(base, counts) + np.arange(start[-1]))


class _Buffers(dict):
    """Arrays that a chain block reuses at every step, by name, each made on
    first use; a fresh instance allocates afresh."""

    def __call__(self, name, shape, dtype):
        out = self.get(name)
        if out is None:
            out = self[name] = np.empty(shape, dtype)
        return out


def _flips(walk, keys, dth, epsilon, tau, draws, buf, top=None):
    """The regularized rule's flips on ``walk``, whose step's keys are
    ``keys``, at a (K, 1) column ``dth`` of per-row thresholds in Delta
    units, with the uniforms from the reservoir ``draws`` (see "Flips" in
    the module docstring). ``top`` is the column of the thresholds' keys
    (None where every row has one threshold, as under ld).

    An integer Delta takes N uniforms per row, the (K, N) U, and returns
    the mask ``U < P``, written into ``buf``: P from
    ``_table_probabilities`` whenever its table fits, and otherwise
    ``flip_probabilities`` of the whole Delta. A float64 one takes one
    uniform per live entry, where z > -40, and returns the sorted flat
    indices of the live entries where u < P: the live test Delta > cut is
    the test that a key exceeds its row's ``walk.cut``, and the live
    entries' probabilities come from the table over their keys where the
    keys are integers and it fits, and otherwise from their Delta.
    """
    if walk.integer:
        U = draws.step()
        P = _table_probabilities(keys, top, dth, epsilon, tau, walk.value, buf=buf)
        if P is None:
            P = flip_probabilities(walk.value(keys), dth, epsilon, tau)
        return np.less(U, P, out=buf("flip", keys.shape, bool))
    K, N = keys.shape
    cut = walk.cut(dth - epsilon + 2.0 * tau * _LIVE_Z)
    idx = np.flatnonzero(np.greater(keys, cut, out=buf("live", keys.shape, bool)))
    start = np.searchsorted(idx, np.arange(K + 1) * N)
    counts = start[1:] - start[:-1]
    u = draws.take(start)
    live = keys.ravel()[idx]
    P = None
    if live.dtype.kind != "f":
        P = _table_probabilities(live, top, dth, epsilon, tau, walk.value, counts)
    if P is None:
        P = flip_probabilities(walk.value(live), np.repeat(dth[:, 0], counts), epsilon, tau)
    return idx[u < P]


def _table_probabilities(keys, top, dth, epsilon, tau, value, counts=None, buf=None):
    """``flip_probabilities`` of integer ``keys`` against their chains'
    thresholds, the (K, 1) column ``dth``, gathered from one sigmoid table,
    or None when that table would have more entries than there are keys.
    The keys are a (K, N) array, or a flat one holding chain k's
    ``counts[k]`` entries in order, and ``value`` maps them to Delta: a
    walk's ``value``, the identity where they are Delta itself.

    The table spans the keys' range, with a row per threshold key from the
    lowest of the integer column ``top`` to the highest (Delta_(d) or its
    rank; one row, dth's first, when ``top`` is None, as under ld). A
    table entry is the same float64 expression of the same Delta and
    threshold as the probability it stands for, so the two are
    bit-identical.
    """
    if not keys.size:
        return np.empty(keys.shape)
    lo, hi = int(keys.min()), int(keys.max())
    width = hi - lo + 1
    if top is None:
        ths, row = dth[:1, 0], np.zeros(len(dth), np.int32)
    else:
        t_lo = int(top.min())
        ths, row = value(np.arange(t_lo, int(top.max()) + 1)), top[:, 0].astype(np.int32) - t_lo
    if ths.size * width > keys.size:
        return None
    table = flip_probabilities(value(np.arange(lo, hi + 1)), ths[:, None], epsilon, tau)
    # each chain's row of the table, less lo: the flat index of a key is
    # the key plus its chain's offset, below table.size <= keys.size,
    # which int32 holds for fewer than 2**31 keys
    offset = row * width - lo
    if counts is not None:
        index = np.repeat(offset, counts)
        index += keys
        return table.ravel().take(index, mode="clip")
    index = np.add(keys, offset[:, None], out=buf("index", keys.shape, np.int32))
    # every index is in range; mode="clip" writes to ``out`` directly, where
    # the default "raise" would fill a hidden copy
    return table.ravel().take(index, out=buf("p", keys.shape, np.float64), mode="clip")


# _flips and _table_probabilities resolve flip_probabilities through this
# module at call time, so a tracer can swap it. ld is the regularized rule
# at threshold tau / alpha with epsilon = 0, so the benchmark's
# sampler.flip_rule_s times the sigmoid of both rules: on an integer
# Delta's table or on the whole of it, and on a float64 Delta's table of
# its live keys or on its live entries alone. The live test, the uniforms'
# gather and the table's gather and compare fall outside it.

def _regularized(cfg, walk, tau, draws, buf):
    keys = walk.keys()
    top = kth_largest(keys, cfg.d)[:, None]
    return _flips(walk, keys, walk.value(top), cfg.epsilon, tau, draws, buf, top)


def _normalized(cfg, walk, tau, draws, buf):
    return draws.step() < normalized_flip_probabilities(walk.value(walk.keys()), tau, cfg.d)


def _ld(cfg, walk, tau, draws, buf):
    keys = walk.keys()
    return _flips(walk, keys, np.full((len(keys), 1), tau / cfg.alpha), 0.0, tau, draws, buf)


# kernel -> (the SamplerConfig fields its rule reads,
#            rule(cfg, walk, tau, draws, buf) -> the step's flips, U < P
#            for the uniforms U it takes from the reservoir ``draws``, as
#            a bool mask, which may live in the reused arrays ``buf``, or
#            a sorted flat flip list; ``walk.advance`` takes either).
# The regularized and ld rules take a table where it fits, and on a float64
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
    removed (nonnegative). ``best_step`` is the first step at which the
    sampler's final best energy appeared (0 for the initial states), and
    ``best_chains`` how many chains reached it.
    """

    best_x: np.ndarray
    best_energy: float
    objective: int | None
    trajectory: Trajectory
    wall_time: float
    decode_flips: int
    decode_gain: float
    best_step: int
    best_chains: int


def _run_chain_block(model, cfg: SamplerConfig, chain_ids, init, taus, depth=1):
    """Run a block of chains jointly under the temperature schedule
    ``taus``; per-chain results are identical to running each chain alone
    with its derived stream.

    The block's bool states go to the model's walk (``model._walk``),
    which holds them, and the one step loop runs on it for every kind: a
    step passes the walk to the rule, ``rule(cfg, walk, tau, draws,
    buf)``, which reads the step's keys from it, and hands the flips it
    returns, a bool mask or a flat flip list, to ``walk.advance``, which
    flips the states in place and returns the new energies and the flips
    per chain. On a coded walk (mis and mcl over an int16 product) the
    keys are the ranks of Delta; the walk writes the update of the flip
    list into its codes, or remakes them from the full product where that
    costs less (see ``rlsa.energy``), and never calls the public ``delta``
    or ``energy``. On the public walk (mcut, qubo) the keys are
    ``model.delta``, and the flips are followed by one ``model.energy``
    call, whose product the per-thread memo hands to the next step's
    ``model.delta``. Either way the block makes one product and then one
    product or update per step in which any of its chains flips, so at
    most ``steps + 1``.

    Its uniforms come from the block's reservoir, one (K, depth * N) array
    with a cursor per chain, which each chain refills in one generator call
    when it holds too few: a step consumes N per chain on an integer Delta
    and under the normalized rule, and one per live entry under the
    regularized and ld rules on a float64 Delta. The results are the same
    for every depth (see "Block buffers" and "Reproducibility" in the
    module docstring). Returns the best states (bool) and energies, per
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
    walk = model._walk(X)
    E = walk.energy
    best_X = X.copy()
    best_E = E.copy()
    energy_traj = np.empty((len(taus), k))
    best_traj = np.empty((len(taus) + 1, k))
    best_traj[0] = E
    flips_traj = np.empty((len(taus), k), dtype=np.int64)
    draws = _Reservoir(rngs, depth * n, n, len(taus))
    buf = _Buffers()
    for t, tau in enumerate(taus):
        E, flips_traj[t] = walk.advance(rule(cfg, walk, tau, draws, buf))
        better = E < best_E
        best_X[better] = X[better]
        best_E[better] = E[better]
        energy_traj[t] = E
        best_traj[t + 1] = best_E
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


def _empty_result(model, chains) -> RunResult:
    x = np.zeros(0, dtype=np.int8)
    empty = np.empty(0)
    traj = Trajectory(step=np.empty(0, dtype=np.int64), tau=empty,
                      best_energy=empty.copy(), mean_energy=empty.copy(),
                      mean_flips=empty.copy(), improved=np.empty(0, dtype=np.int64))
    objective = None if model.kind == "qubo" else model.objective(x)
    return RunResult(best_x=x, best_energy=float(model.energy(x)),
                     objective=objective, trajectory=traj, wall_time=0.0,
                     decode_flips=0, decode_gain=0.0, best_step=0, best_chains=chains)


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
        return _empty_result(model, cfg.chains)
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
    final = best_E[winner]
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
        decode_gain=float(final) - best_energy,
        best_step=int(np.argmax((best_traj == final).any(axis=1))),
        best_chains=int(np.count_nonzero(best_E == final)),
    )
