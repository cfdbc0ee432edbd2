import hashlib

import numpy as np
import pytest

from rlsa import (
    EnergyModel,
    SamplerConfig,
    from_edge_list,
    gap_curve,
    generate_ba,
    generate_er,
    greedy_decode,
    primal_gap,
    run_rlsa,
    summarize,
)

from oracles import (
    CountingMatrix,
    all_bitvectors,
    exhaustive_min_energy,
    full_delta_decode,
    random_small_graph,
    reference_decode,
    triangle,
)


# -- greedy decode ---------------------------------------------------------------

def test_decode_triangle_example():
    m = EnergyModel("mis", triangle(), beta=1.02)
    assert np.array_equal(greedy_decode(m, [1, 1, 0]), [0, 1, 0])


def test_decode_fixed_point_unchanged():
    m = EnergyModel("mis", triangle(), beta=1.02)
    x = np.array([0, 1, 0], dtype=np.int8)
    assert m.delta(x).max() <= 0
    assert np.array_equal(greedy_decode(m, x), x)


def test_decode_idempotent_and_energy_non_increasing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_small_graph(rng)
        for kind in ("mis", "mcl", "mcut"):
            m = EnergyModel(kind, g, beta=1.02)
            x = rng.integers(0, 2, g.num_nodes).astype(np.int8)
            y = greedy_decode(m, x)
            assert m.energy(y) <= m.energy(x)
            assert m.delta(y).max() <= 0
            assert np.array_equal(greedy_decode(m, y), y)


def test_decode_exhaustive_feasibility():
    rng = np.random.default_rng(1)
    for _ in range(6):
        g = random_small_graph(rng, n_min=3, n_max=9)
        bits = all_bitvectors(g.num_nodes)
        for kind in ("mis", "mcl"):
            m = EnergyModel(kind, g, beta=1.02)
            decoded = greedy_decode(m, bits)
            assert (m.violation(decoded) == 0).all()


class BudgetModel:
    """Stand-in model whose every flip claims a positive drop until
    ``budget`` flips have been made: through ``_flip`` with a float Delta
    for its key, as mcut and qubo descend, or, with ``codes``, through
    ``_flip_code`` with int16 ranks, as mis and mcl do."""

    def __init__(self, graph, budget, codes):
        self.graph = graph
        self.num_nodes = graph.num_nodes
        self.budget = budget
        self.codes = codes
        self.flips = 0

    def _as_batch(self, x):
        return np.atleast_2d(x), np.ndim(x) == 1

    def _descent(self, X):
        # every key is positive until the budget is spent
        if self.codes:
            return (np.zeros(X.shape, dtype=np.intp), np.ones(X.shape, dtype=np.int16),
                    self._flip_code, lambda: None)
        return np.zeros(X.shape), np.ones(X.shape), self._flip, lambda: None

    def _flip(self, x, ax, D, i):
        self.flips += 1
        D[:] = 1.0 if self.flips < self.budget else -1.0

    def _flip_code(self, x, code, key, i):
        self.flips += 1
        key[:] = 1 if self.flips < self.budget else -1


def test_decode_leaves_the_memo_holding_the_decoded_product():
    # Scoring the decoded batch takes no product: decode hands the memo the
    # batch and its product, from the codes (mis, mcl) or the kept product
    # (mcut, qubo with an int16 and with a float64 product), equal to a
    # fresh product bit for bit, and every score equals a fresh model's.
    rng = np.random.default_rng(71)
    g = generate_er(80, 0.2, seed=71)
    n, e = g.num_nodes, g.num_edges
    makes = [lambda: EnergyModel("mis", g, beta=1.001), lambda: EnergyModel("mcl", g, beta=1.5),
             lambda: EnergyModel("mcut", g),
             lambda: EnergyModel("qubo", g, linear=np.linspace(-2, 2, n), quad_scale=1.0),
             lambda: EnergyModel("qubo", g, linear=np.linspace(-2, 2, n), quad_scale=0.7,
                                 edge_weights=np.linspace(-1, 1, e))]
    for make in makes:
        for x in (rng.random((4, n)) < 0.5, rng.random(n) < 0.5):
            m = make()
            m._A = counter = CountingMatrix(m._A)
            decoded = greedy_decode(m, x)
            made = counter.total  # one product, and for a float64 one, the rows of its flips
            X = m._as_batch(decoded)[0]
            fresh = make()
            ax = m._memo.ax
            assert not ax.flags.writeable
            assert ax.dtype == fresh._A.dtype and ax.tobytes() == fresh._ax(X).tobytes(), m
            for method in ("energy", "violation", "objective")[:2 if m.kind == "qubo" else 3]:
                got = getattr(m, method)(decoded)
                assert np.array_equal(got, getattr(fresh, method)(decoded)), (m, method)
            assert counter.total == made, m


def test_decode_gives_up_after_limit_flips():
    # both decode paths: the product and Delta, and the codes and ranks
    g = triangle()
    limit = 1000 + 10 * (g.num_nodes + g.num_edges)
    x = np.zeros(g.num_nodes, dtype=np.int8)
    for codes in (False, True):
        model = BudgetModel(g, limit - 1, codes)
        greedy_decode(model, x)
        assert model.flips == limit - 1
        for budget in (limit, np.inf):
            model = BudgetModel(g, budget, codes)
            with pytest.raises(RuntimeError, match="did not converge"):
                greedy_decode(model, x)
            assert model.flips == limit


@pytest.mark.parametrize("kind", ["mis", "mcl", "mcut"])
def test_decode_returns_an_empty_row_unchanged(kind):
    # a 0-node solution has nothing to flip: it is already a fixed point
    m = EnergyModel(kind, from_edge_list(0, []), beta=1.02)
    for x in (np.zeros(0), np.zeros((3, 0), dtype=bool), np.zeros((0, 0))):
        out = greedy_decode(m, x)
        assert out.dtype == np.int8 and out.shape == x.shape


def test_decode_batch_matches_single():
    rng = np.random.default_rng(2)
    g = random_small_graph(rng, n_min=5, n_max=12)
    m = EnergyModel("mis", g, beta=1.02)
    X = rng.integers(0, 2, size=(15, g.num_nodes)).astype(np.int8)
    batch = greedy_decode(m, X)
    for i in range(15):
        assert np.array_equal(batch[i], greedy_decode(m, X[i]))


def _parity_model(case, g, rng):
    kind, _, beta = case.partition("-beta-")
    if kind in ("mis", "mcl", "mcut"):
        return EnergyModel(kind, g, beta=float(beta or 1.02))
    n, e = g.num_nodes, g.num_edges
    if case == "qubo":
        return EnergyModel("qubo", g, linear=rng.normal(size=n), quad_scale=0.7)
    if case == "qubo-normal-weights":
        return EnergyModel("qubo", g, linear=rng.normal(size=n), quad_scale=0.7,
                           edge_weights=rng.normal(size=e))
    if case == "qubo-rounded-weights":
        # weights and linear terms on a 0.1 grid: many flips tie at an exact
        # zero gain, where any rounding difference in A @ x changes the decode
        return EnergyModel("qubo", g, linear=np.round(rng.normal(size=n), 1), quad_scale=1.0,
                           edge_weights=np.round(rng.normal(size=e), 1))
    # small integers tie at zero gain too; scaled by 2**24 + 1 their row
    # sums pass 2**15, so the product is float64 and decode recomputes
    # neighbour rows instead of adding columns
    scale = 1.0 if case == "qubo-integer-weights" else 2.0 ** 24 + 1
    return EnergyModel("qubo", g, linear=scale * rng.integers(-3, 4, size=n), quad_scale=1.0,
                       edge_weights=scale * rng.integers(-3, 4, size=e))


# mis at beta 1.001 is the benchmark's and the mis-er presets' model
PARITY_CASES = ["mis", "mcl", "mcut", "qubo", "qubo-normal-weights", "qubo-rounded-weights",
                "qubo-integer-weights", "qubo-big-integer-weights", "mis-beta-1.001",
                "mcl-beta-1.5"]


@pytest.mark.parametrize("case", PARITY_CASES)
def test_decode_matches_reference_bit_for_bit(case):
    rng = np.random.default_rng(PARITY_CASES.index(case))
    for _ in range(20):
        g = random_small_graph(rng, n_min=2, n_max=40)
        m = _parity_model(case, g, rng)
        X = rng.integers(0, 2, size=(6, g.num_nodes)).astype(np.int8)
        batch = greedy_decode(m, X)
        assert np.array_equal(batch, reference_decode(m, X))
        assert np.array_equal(batch, full_delta_decode(m, X))
        for row, y in zip(X, batch):
            single = greedy_decode(m, row)
            assert np.array_equal(single, reference_decode(m, row))
            assert np.array_equal(single, y)
            assert m.delta(single).max() <= 0


DECODE_LOOP_CASES = ["mis", "mis-beta-2", "mcl", "mcut", "qubo-integer-weights",
                     "qubo-normal-weights", "mis-beta-1.001", "mcl-beta-1.5"]


@pytest.mark.parametrize("case", DECODE_LOOP_CASES)
def test_decode_matches_the_full_delta_loop(case):
    # Decode keeps Delta, or for mis and mcl the codes and ranks, up to
    # date on the flipped node's neighbours (every node's code for mcl); it
    # must flip exactly what a loop that rebuilds Delta from a fresh
    # product every round flips, on rows and on batches of graphs whose
    # degrees are well below N.
    rng = np.random.default_rng(50 + DECODE_LOOP_CASES.index(case))
    for g in (generate_er(150, 0.06, seed=51), generate_ba(150, 3, seed=52)):
        m = _parity_model(case, g, rng)
        if case == "mis-beta-2":
            assert m._delta_bound is not None  # an int16 Delta
        X = rng.integers(0, 2, size=(4, g.num_nodes)).astype(np.int8)
        want = full_delta_decode(m, X)
        assert np.array_equal(greedy_decode(m, X), want)
        for row, y in zip(X, want):
            assert np.array_equal(greedy_decode(m, row), y)


def _decode_digest(case):
    # sha256 of greedy_decode's outputs, shape and bytes, on seeded batches
    # of every density over small random graphs, an ER and a BA graph
    rng = np.random.default_rng(70 + PARITY_CASES.index(case))
    graphs = [random_small_graph(rng, n_min=2, n_max=40) for _ in range(4)]
    graphs += [generate_er(120, 0.08, seed=71), generate_ba(120, 3, seed=72)]
    h = hashlib.sha256()
    for g in graphs:
        m = _parity_model(case, g, rng)
        X = rng.random((6, g.num_nodes)) < rng.random((6, 1))
        out = greedy_decode(m, X)
        h.update(str(out.shape).encode() + out.tobytes())
    return h.hexdigest()


# Made with numpy 2.4.6 and scipy 1.17.1. Decode draws no random numbers
# and calls no expit or exp: its flips rest on integer arithmetic and, for
# non-integer qubo, on float64 adds and multiplies in CSR order, which
# IEEE 754 fixes. The seeded inputs rest on numpy's PCG64 streams. A
# mismatch is a change in decode's results, never a reason to skip.
GOLDEN_DECODE = {
    "mis": "0366ba462efbb87e8b8244a81645f9b38727def24d70421054a733156534ecd9",
    "mcl": "1b1975e17a2966449a2715ddfb8b7861cf179942328b8a08f3016bafde266dc6",
    "mcut": "5cb7b785a76a0f7c3c058fed36a58129bbedcd1f0d616eebe7b0f74324452499",
    "qubo": "7a8426b0f72efc8f7a33412ef320c35bf619b10d3610c92e65c4815492e67ced",
    "qubo-normal-weights": "dbcc2ef00f384e8aaf213671da3a124edf976d180a095a67450e57d224140e74",
    "qubo-rounded-weights": "29149cc9767599bb4b731d7b1245dcae5b77b40fc7f8592a6b412b35ad765fa5",
    "qubo-integer-weights": "34eb8bb1e814bf4c67d5e2098b089fa2494327afeb1ae7b39cc2910bc1ee2867",
    "qubo-big-integer-weights": "55c29531e45df5963c2329aeed21f05706941645fce582466b483980b5c4fd10",
    "mis-beta-1.001": "eb52df6ac6908a4a4561d4399d898a35fe77f62b93b0b651a14cceec75cda5d2",
    "mcl-beta-1.5": "9a2349c33a831c3d10f4b337766105f54d15d06a490be0faf0bfed774faf5b75",
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_decode_matches_its_golden_hashes(case):
    assert _decode_digest(case) == GOLDEN_DECODE[case]


# -- primal gap ------------------------------------------------------------------

def test_primal_gap_examples():
    assert primal_gap(-44.0, -44.0) == 0.0
    assert primal_gap(-40.0, -44.87) == pytest.approx(4.87 / 44.87, rel=1e-4)
    assert primal_gap(2.0, -5.0) == 1.0
    assert primal_gap(0.0, 0.0) == 0.0
    assert primal_gap(0.0, -5.0) == 1.0


def test_primal_gap_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = float(rng.uniform(-100, 100))
        h_star = float(rng.uniform(-100, 100))
        gap = primal_gap(h, h_star)
        assert 0.0 <= gap <= 1.0
        assert primal_gap(h, h) == 0.0


def test_gap_curve_non_increasing_for_best_energy_trajectory():
    # reference at or below every achieved energy, as in benchmark use
    energies = np.array([3.0, 1.0, -0.5, -2.0, -2.0, -4.0])
    gaps = gap_curve(energies, -5.0)
    assert (np.diff(gaps) <= 0).all()
    assert gaps[0] == 1.0


def test_gap_curve_from_run():
    m = EnergyModel("mis", triangle(), beta=1.02)
    res = run_rlsa(m, SamplerConfig(tau0=0.01, d=1, steps=40, chains=4, seed=0))
    gaps = gap_curve(res.trajectory.best_energy, -1.0)
    assert len(gaps) == 40
    assert gaps[-1] == 0.0
    assert all(0.0 <= g <= 1.0 for g in gaps)


def test_converged_run_gap_reaches_zero_against_enumeration():
    rng = np.random.default_rng(4)
    g = random_small_graph(rng, n_min=10, n_max=12)
    m = EnergyModel("mis", g, beta=1.02)
    h_star, _ = exhaustive_min_energy(m)
    res = run_rlsa(m, SamplerConfig(tau0=0.01, d=3, steps=150, chains=16, seed=9))
    gaps = gap_curve(res.trajectory.best_energy, h_star)
    assert (np.diff(gaps) <= 1e-15).all()
    assert gaps[-1] == pytest.approx(0.0, abs=1e-12)


# -- summarize ---------------------------------------------------------------------

class _FakeResult:
    def __init__(self, objective, best_energy, wall_time=0.5):
        self.objective = objective
        self.best_energy = best_energy
        self.wall_time = wall_time


def test_summarize_single_and_pair():
    s = summarize([_FakeResult(5, -5.0)])
    assert s.count == 1
    assert s.mean_objective == 5.0
    s = summarize([_FakeResult(4, -4.0), _FakeResult(6, -6.0)])
    assert s.mean_objective == 5.0
    assert s.min_objective == 4
    assert s.max_objective == 6
    assert s.mean_best_energy == -5.0
    assert s.total_wall_time == pytest.approx(1.0)


def test_summarize_with_references():
    results = [_FakeResult(4, -4.0), _FakeResult(5, -5.0)]
    s = summarize(results, references=[-5.0, -5.0])
    assert s.mean_primal_gap == pytest.approx((0.2 + 0.0) / 2)
    s = summarize(results, references=[None, -5.0])
    assert s.mean_primal_gap == 0.0


def test_summarize_validation():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize([_FakeResult(1, -1.0)], references=[-1.0, -2.0])


def test_summarize_handles_missing_objectives():
    s = summarize([_FakeResult(None, -2.0)])
    assert s.mean_objective is None
    assert s.min_objective is None
