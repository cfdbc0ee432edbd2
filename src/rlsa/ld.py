"""Unregularized discrete Langevin baseline with a fixed step size.

Shares the annealing engine, chain/seed discipline, and result types with
the regularized sampler; only the flip rule differs:

    p_i = sigmoid(Delta_i / (2 * tau) - 1 / (2 * alpha)).

With the substitution 1/alpha = (Delta_(d) - epsilon) / tau this reduces to
the regularized rule, which is why the two solvers isolate the effect of the
Delta_(d) threshold in ablations. Near a local optimum every Delta_i is
negative and a fixed alpha drives all flip probabilities to zero as tau
decays, so this sampler tends to stall where the regularized one escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import finite_float, integer
from .sampler import RunResult, _anneal, _flip_rule


@dataclass
class LDConfig:
    """Hyperparameters for the fixed-step-size Langevin baseline."""

    alpha: float
    tau0: float
    steps: int
    chains: int
    seed: int = 0

    def __post_init__(self):
        self.alpha = finite_float("alpha", self.alpha)
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        self.tau0 = finite_float("tau0", self.tau0)
        if self.tau0 <= 0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        self.steps = integer("steps", self.steps, 1)
        self.chains = integer("chains", self.chains, 1)
        self.seed = integer("seed", self.seed, 0)


def ld_flip_probabilities(delta, alpha: float, tau: float):
    """Flip probabilities sigmoid(delta_i / (2 tau) - 1 / (2 alpha))."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _flip_rule(delta, tau / alpha, tau)


def run_ld(model, cfg: LDConfig, init=None, workers: int = 1) -> RunResult:
    """Run the fixed-alpha baseline under the same loop structure as run_rlsa."""

    def flip(D, tau):
        return ld_flip_probabilities(D, cfg.alpha, tau)

    return _anneal(
        model,
        tau0=cfg.tau0,
        steps=cfg.steps,
        chains=cfg.chains,
        seed=cfg.seed,
        flip_fn=flip,
        init=init,
        workers=workers,
    )
