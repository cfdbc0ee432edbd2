"""Regularized Langevin simulated annealing for binary combinatorial optimization.

Solvers for maximum independent set, maximum clique, maximum cut, and
generic QUBO energies on undirected graphs: parallel annealed chains with
gradient-guided Bernoulli flips under one table of flip rules (regularized,
normalized, and the fixed-step-size Langevin baseline), greedy feasibility
decoding, and a primal-gap benchmark harness.
"""

from .energy import EnergyModel
from .graph import (
    Graph,
    from_edge_list,
    generate_ba,
    generate_er,
    parse_instance,
    read_instance,
    write_instance,
)
from .postprocess import (
    Summary,
    gap_curve,
    greedy_decode,
    primal_gap,
    summarize,
)
from .sampler import (
    RunResult,
    SamplerConfig,
    Trajectory,
    chain_rng,
    flip_probabilities,
    kth_largest,
    ld_flip_probabilities,
    normalized_flip_probabilities,
    run_rlsa,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyModel",
    "Graph",
    "RunResult",
    "SamplerConfig",
    "Summary",
    "Trajectory",
    "chain_rng",
    "flip_probabilities",
    "from_edge_list",
    "gap_curve",
    "generate_ba",
    "generate_er",
    "greedy_decode",
    "kth_largest",
    "ld_flip_probabilities",
    "normalized_flip_probabilities",
    "parse_instance",
    "primal_gap",
    "read_instance",
    "run_rlsa",
    "summarize",
    "write_instance",
]
