"""Greedy feasibility decoding, the primal-gap metric, and run aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def greedy_decode(model, x):
    """Repeatedly flip the coordinate with the largest energy drop until no
    flip strictly improves.

    Each round computes the flip-drop vector and flips ``argmax`` (lowest
    index on ties) while the maximum drop is positive; stopping at
    ``max delta <= 0`` excludes zero-gain flips, so the descent terminates
    and never increases the energy. For mis/mcl with beta > 1 the fixed
    point is always feasible.

    Rows are decoded one at a time on a bool copy of the input. Cost: one
    full sparse product ``A @ X`` up front, from which the model makes
    each row's state and key (``EnergyModel._descent``). Each round takes
    the argmax of the key, which orders and ties as Delta does, and the
    model's flip brings the row, its state and its key up to date on the
    flipped node's neighbours (on every node for mcl, whose selected-set
    size moves). A round costs O(deg), plus O(N) for the argmax and for
    mcl's update, and decode flips exactly what a Delta rebuilt from a
    fresh product every round would flip. The model then keeps the
    decoded batch and its product, taken from the final states, so that
    scoring the result (``model.energy``) makes no product.

    Accepts a single solution of shape (N,) or a batch (B, N); a 0-node
    model returns it unchanged, as int8. Raises
    RuntimeError when a row makes ``1000 + 10 * (N + E)`` flips, which
    strict improvement rules out unless qubo coefficients are degenerate.
    """
    X, single = model._as_batch(x)
    X = X.copy()  # flipped in place below
    states, keys, flip, keep = model._descent(X)
    limit = 1000 + 10 * (model.num_nodes + model.graph.num_edges)
    # an empty row is already a fixed point: it has no coordinate to flip
    for row, state, key in zip(X, states, keys) if model.num_nodes else ():
        for _ in range(limit):
            i = key.argmax()
            if key[i] <= 0:
                break
            flip(row, state, key, i)
        else:
            raise RuntimeError("greedy decode did not converge; check model coefficients")
    keep()
    out = X.astype(np.int8)
    return out[0] if single else out


def primal_gap(h: float, h_star: float) -> float:
    """Normalized distance in [0, 1] between an energy and a reference energy.

    ``|h - h*| / max(|h|, |h*|)`` when the energies share a sign, 1 when the
    signs differ, and 0 when both are exactly zero.
    """
    if h == h_star:
        return 0.0
    if h * h_star < 0:
        return 1.0
    return abs(h - h_star) / max(abs(h), abs(h_star))


def gap_curve(best_energies, h_star: float) -> np.ndarray:
    """Primal gap of each entry of a best-energy trajectory against ``h_star``."""
    return np.array([primal_gap(float(e), float(h_star)) for e in np.asarray(best_energies)])


@dataclass
class Summary:
    count: int
    mean_objective: float | None
    min_objective: int | None
    max_objective: int | None
    mean_best_energy: float
    total_wall_time: float
    mean_primal_gap: float | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def summarize(results, references=None) -> Summary:
    """Aggregate a list of run results; optionally compute the mean final
    primal gap against per-instance reference energies (aligned by index,
    ``None`` entries skipped)."""
    results = list(results)
    if not results:
        raise ValueError("no results to summarize")
    objectives = [r.objective for r in results if r.objective is not None]
    mean_gap = None
    if references is not None:
        references = list(references)
        if len(references) != len(results):
            raise ValueError(
                f"got {len(references)} references for {len(results)} results"
            )
        gaps = [
            primal_gap(r.best_energy, ref)
            for r, ref in zip(results, references)
            if ref is not None
        ]
        if gaps:
            mean_gap = float(np.mean(gaps))
    return Summary(
        count=len(results),
        mean_objective=float(np.mean(objectives)) if objectives else None,
        min_objective=int(min(objectives)) if objectives else None,
        max_objective=int(max(objectives)) if objectives else None,
        mean_best_energy=float(np.mean([r.best_energy for r in results])),
        total_wall_time=float(sum(r.wall_time for r in results)),
        mean_primal_gap=mean_gap,
    )
