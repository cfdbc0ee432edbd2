import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rlsa import (EnergyModel, SamplerConfig, from_edge_list, generate_ba, generate_er,
                  greedy_decode, run_rlsa)
import rlsa.energy as energy
from rlsa.energy import _DENSE_ROWS_BYTES, _flips_pay, _rank_table

from oracles import (
    CountingMatrix,
    all_bitvectors,
    cut_edges,
    flip_drop_oracle,
    maxcut_optimum_size,
    mis_optimum_size,
    path3,
    per_kind_energy,
    random_small_graph,
    reference_decode,
    reference_ba,
    reference_er,
    reference_product,
    selected_adjacent_pairs,
    selected_non_adjacent_pairs,
    single_edge,
    triangle,
)


# -- energy values -------------------------------------------------------------

def test_mis_energy_on_triangle():
    m = EnergyModel("mis", triangle(), beta=1.02)
    assert m.energy([0, 0, 0]) == 0.0
    assert m.energy([1, 1, 0]) == pytest.approx(-2 + 1.02, abs=1e-12)


def test_mcut_energy_single_edge():
    m = EnergyModel("mcut", single_edge())
    assert m.energy([1, 0]) == -1.0
    assert m.energy([1, 1]) == 0.0


def test_mcl_energy_on_path():
    # one selected non-adjacent pair on the path 0-1-2
    m = EnergyModel("mcl", path3(), beta=1.02)
    assert m.energy([1, 0, 1]) == pytest.approx(-2 + 1.02, abs=1e-12)
    assert m.energy([1, 1, 0]) == pytest.approx(-2.0, abs=1e-12)


# -- gradients -----------------------------------------------------------------

def test_mis_gradient_on_triangle():
    m = EnergyModel("mis", triangle(), beta=1.02)
    assert np.allclose(m.gradient([1, 0, 0]), [-1.0, 0.02, 0.02], atol=1e-12)


def test_mis_gradient_at_zero_is_minus_one():
    g = generate_er(20, 0.3, seed=1)
    m = EnergyModel("mis", g, beta=1.02)
    assert np.array_equal(m.gradient(np.zeros(20, dtype=int)), -np.ones(20))


def test_mcut_gradient_single_edge():
    m = EnergyModel("mcut", single_edge())
    assert np.array_equal(m.gradient([0, 0]), [-1.0, -1.0])


def test_gradient_matches_dense_matrix_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_small_graph(rng)
        n = g.num_nodes
        A = np.zeros((n, n))
        for u, v in g.edge_array():
            A[u, v] = A[v, u] = 1.0
        x = rng.integers(0, 2, size=n).astype(float)
        beta = 1.02
        dense = {
            "mis": beta * A @ x - 1.0,
            "mcl": beta * (x.sum() - x - A @ x) - 1.0,
            "mcut": A @ (2 * x - 1),
        }
        for kind, expected in dense.items():
            m = EnergyModel(kind, g, beta=beta)
            assert np.allclose(m.gradient(x), expected, atol=1e-9)


# -- flip-drop vector ------------------------------------------------------------

def test_mis_delta_on_triangle():
    m = EnergyModel("mis", triangle(), beta=1.02)
    assert np.allclose(m.delta([1, 0, 0]), [-1.0, -0.02, -0.02], atol=1e-12)


def test_mcut_delta_matches_flip_oracle_on_single_edge():
    m = EnergyModel("mcut", single_edge())
    x = np.array([1, 0])
    assert np.allclose(m.delta(x), flip_drop_oracle(m, x)[0], atol=1e-12)


def test_delta_equals_exact_flip_drop_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_small_graph(rng)
        X = rng.integers(0, 2, size=(20, g.num_nodes)).astype(np.int8)
        for kind in ("mis", "mcl", "mcut"):
            m = EnergyModel(kind, g, beta=1.02)
            assert np.abs(m.delta(X) - flip_drop_oracle(m, X)).max() < 1e-9


def test_qubo_delta_equals_exact_flip_drop():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_small_graph(rng, n_min=3)
        n = g.num_nodes
        m = EnergyModel(
            "qubo",
            g,
            linear=rng.normal(size=n),
            quad_scale=float(rng.uniform(-2, 2)),
            edge_weights=rng.normal(size=g.num_edges),
        )
        X = rng.integers(0, 2, size=(20, n)).astype(np.int8)
        assert np.abs(m.delta(X) - flip_drop_oracle(m, X)).max() < 1e-9


# -- objective and violation -----------------------------------------------------

def test_objective_examples():
    mis = EnergyModel("mis", triangle(), beta=1.02)
    assert mis.objective([1, 0, 0]) == 1
    mcut_edge = EnergyModel("mcut", single_edge())
    assert mcut_edge.objective([1, 0]) == 1
    mcut_k3 = EnergyModel("mcut", triangle())
    assert mcut_k3.objective([1, 1, 0]) == 2


def test_objective_rejects_infeasible_and_qubo():
    mis = EnergyModel("mis", triangle(), beta=1.02)
    with pytest.raises(ValueError, match="infeasible"):
        mis.objective([1, 1, 0])
    qubo = EnergyModel("qubo", triangle(), linear=-np.ones(3), quad_scale=0.51)
    with pytest.raises(ValueError, match="no canonical objective"):
        qubo.objective([1, 0, 0])


def test_violation_examples():
    assert EnergyModel("mis", triangle(), beta=1.02).violation([1, 1, 1]) == 3
    assert EnergyModel("mcl", triangle(), beta=1.02).violation([1, 1, 1]) == 0
    assert EnergyModel("mcl", path3(), beta=1.02).violation([1, 0, 1]) == 1
    assert EnergyModel("mcut", triangle()).violation([1, 1, 1]) == 0


def test_violation_and_objective_match_edge_list_counts():
    # every bit-vector of random small graphs, against plain loops over the
    # edge list that share no code with the model
    rng = np.random.default_rng(31)
    for _ in range(12):
        g = random_small_graph(rng, n_min=2, n_max=10)
        bits = all_bitvectors(g.num_nodes)
        adjacent = selected_adjacent_pairs(g, bits)
        non_adjacent = selected_non_adjacent_pairs(g, bits)
        size = bits.sum(axis=1)
        mis = EnergyModel("mis", g, beta=1.02)
        mcl = EnergyModel("mcl", g, beta=1.02)
        mcut = EnergyModel("mcut", g)
        for X in (bits, bits.astype(bool)):
            for m, violations in ((mis, adjacent), (mcl, non_adjacent)):
                got = m.violation(X)
                assert got.dtype == np.int64 and np.array_equal(got, violations)
                feasible = violations == 0
                got = m.objective(X[feasible])
                assert got.dtype == np.int64 and np.array_equal(got, size[feasible])
                if not feasible.all():
                    with pytest.raises(ValueError, match="infeasible"):
                        m.objective(X[~feasible][0])
            assert np.array_equal(mcut.violation(X), np.zeros(len(bits), dtype=np.int64))
            got = mcut.objective(X)
            assert got.dtype == np.int64 and np.array_equal(got, cut_edges(g, bits))
        assert mis.objective(bits[adjacent == 0]).max() == mis_optimum_size(g)
        assert mcut.objective(bits).max() == maxcut_optimum_size(g)


def test_feasible_energy_is_minus_objective():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_small_graph(rng, n_min=3, n_max=10)
        bits = all_bitvectors(g.num_nodes)
        for kind in ("mis", "mcl"):
            m = EnergyModel(kind, g, beta=1.02)
            feas = bits[m.violation(bits) == 0]
            assert np.allclose(m.energy(feas), -feas.sum(axis=1), atol=1e-9)
        mcut = EnergyModel("mcut", g)
        assert np.allclose(mcut.energy(bits), -mcut.objective(bits), atol=1e-9)


def test_mcl_matches_naive_nonedge_sum():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_small_graph(rng, n_min=3, n_max=10)
        n = g.num_nodes
        edge_set = {tuple(e) for e in g.edge_array().tolist()}
        m = EnergyModel("mcl", g, beta=1.02)
        X = rng.integers(0, 2, size=(20, n))
        for x in X:
            penalty = sum(
                x[i] * x[j]
                for i in range(n)
                for j in range(i + 1, n)
                if (i, j) not in edge_set
            )
            assert m.energy(x) == pytest.approx(-x.sum() + 1.02 * penalty, abs=1e-9)


def test_strict_local_optima_are_feasible():
    # with beta > 1, any point where every flip raises the energy is feasible
    rng = np.random.default_rng(7)
    for _ in range(8):
        g = random_small_graph(rng, n_min=3, n_max=12)
        bits = all_bitvectors(g.num_nodes)
        for kind in ("mis", "mcl"):
            m = EnergyModel(kind, g, beta=1.02)
            local_opt = m.delta(bits).max(axis=1) < 0
            assert (m.violation(bits)[local_opt] == 0).all()


# -- qubo equivalences -----------------------------------------------------------

def test_qubo_reproduces_mis():
    g = generate_er(12, 0.4, seed=8)
    beta = 1.02
    mis = EnergyModel("mis", g, beta=beta)
    qubo = EnergyModel("qubo", g, linear=-np.ones(12), quad_scale=beta / 2)
    X = np.random.default_rng(0).integers(0, 2, size=(30, 12))
    assert np.allclose(mis.energy(X), qubo.energy(X), atol=1e-12)
    assert np.allclose(mis.gradient(X), qubo.gradient(X), atol=1e-12)


def test_qubo_reproduces_mcut():
    g = generate_er(12, 0.4, seed=9)
    mcut = EnergyModel("mcut", g)
    qubo = EnergyModel("qubo", g, linear=-g.degrees().astype(float), quad_scale=1.0)
    X = np.random.default_rng(1).integers(0, 2, size=(30, 12))
    assert np.allclose(mcut.energy(X), qubo.energy(X), atol=1e-12)
    assert np.allclose(mcut.gradient(X), qubo.gradient(X), atol=1e-12)


def test_qubo_edge_weights_against_dense():
    rng = np.random.default_rng(10)
    g = generate_er(8, 0.5, seed=10)
    w = rng.normal(size=g.num_edges)
    b = rng.normal(size=8)
    c = 0.7
    m = EnergyModel("qubo", g, linear=b, quad_scale=c, edge_weights=w)
    A = np.zeros((8, 8))
    for (u, v), wi in zip(g.edge_array(), w):
        A[u, v] = A[v, u] = wi
    for x in rng.integers(0, 2, size=(20, 8)).astype(float):
        assert m.energy(x) == pytest.approx(b @ x + c * x @ A @ x, abs=1e-9)
        assert np.allclose(m.gradient(x), 2 * c * A @ x + b, atol=1e-9)


# -- validation ------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError, match="beta must exceed 1"):
        EnergyModel("mis", triangle(), beta=1.0)
    with pytest.raises(ValueError, match="beta must exceed 1"):
        EnergyModel("mcl", triangle(), beta=0.5)
    with pytest.raises(ValueError, match="unknown problem kind"):
        EnergyModel("tsp", triangle())
    with pytest.raises(ValueError, match="require"):
        EnergyModel("qubo", triangle())
    with pytest.raises(ValueError, match="only apply to qubo"):
        EnergyModel("mis", triangle(), linear=np.zeros(3))
    # beta is accepted (and unused) for mcut even at values invalid for mis
    EnergyModel("mcut", triangle(), beta=0.5)


@pytest.mark.parametrize("bad", [
    dict(kind="mis", beta=float("nan")),
    dict(kind="mis", beta=float("inf")),
    dict(kind="mcut", beta=float("nan")),
    dict(kind="qubo", linear=[0.0, 1.0, 2.0], quad_scale=float("nan")),
    dict(kind="qubo", linear=[0.0, 1.0, 2.0], quad_scale=float("inf")),
    dict(kind="qubo", linear=[0.0, float("nan"), 2.0], quad_scale=1.0),
    dict(kind="qubo", linear=[0.0, 1.0, 2.0], quad_scale=1.0,
         edge_weights=[1.0, float("inf"), 1.0]),
])
def test_constructor_rejects_non_finite_coefficients(bad):
    kind = bad.pop("kind")
    with pytest.raises(ValueError, match="finite"):
        EnergyModel(kind, triangle(), **bad)


def _er30_overflow_cases():
    g = generate_er(30, 0.2, seed=0)
    rng = np.random.default_rng(0)
    lin = rng.normal(size=30)
    huge = np.full(g.num_edges, 1e308)
    return g, [
        dict(kind="qubo", linear=np.full(30, -1e308), quad_scale=1.0),  # c . x reaches -inf
        dict(kind="qubo", linear=lin, quad_scale=1e308),  # 2q is inf
        dict(kind="qubo", linear=lin, quad_scale=1.0, edge_weights=huge),  # row sums overflow
        dict(kind="qubo", linear=lin, quad_scale=0.0, edge_weights=huge),  # 0 * an inf x^T W x
        # one c of 1e308 fits float64, but not twice over: decode_gain could overflow
        dict(kind="qubo", linear=np.r_[1e308, np.zeros(29)], quad_scale=1.0),
        dict(kind="mis", beta=1e308),
        dict(kind="mcl", beta=1e308),
    ]


@pytest.mark.parametrize("case", range(7), ids=[
    "qubo-linear", "qubo-quad-scale", "qubo-weights", "qubo-weights-no-quad", "qubo-one-linear",
    "mis-beta", "mcl-beta"])
def test_constructor_rejects_coefficients_whose_bounds_overflow(case):
    # Coefficients that are each finite but whose Delta or energy could
    # overflow float64, with a factor 2 to spare, fail at construction and
    # name the model's kind; computing the bounds raises no RuntimeWarning.
    g, cases = _er30_overflow_cases()
    bad = cases[case]
    kind = bad.pop("kind")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{kind} coefficients overflow"):
            EnergyModel(kind, g, **bad)


def test_large_finite_coefficients_are_still_accepted():
    # beta = 1e300 keeps every bound far from float64's limit, and its
    # solves end finite; one c just under half of that limit keeps the
    # factor 2 of headroom
    g = generate_er(30, 0.2, seed=0)
    cfg = SamplerConfig(tau0=0.5, d=2, steps=5, chains=3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("mis", "mcl"):
            res = run_rlsa(EnergyModel(kind, g, beta=1e300), cfg)
            assert np.isfinite(res.best_energy) and np.isfinite(res.decode_gain), kind
        m = EnergyModel("qubo", g, linear=np.r_[-8e307, np.zeros(29)], quad_scale=1.0)
        assert m.energy(np.eye(30, dtype=bool)[0]) == -8e307


def test_exact_update_rule_follows_the_weights(monkeypatch):
    # _flip adds columns of A exactly when the product is int16, and
    # recomputes the neighbour rows (A[rows] @ x) otherwise; either way the
    # flipped solution, its product and its Delta equal fresh ones. _ax
    # brings its memo up to date through the flip list for an int16
    # product only. mcl decodes on codes (_flip_code) only, so _flip takes
    # the models whose r is 0.
    g = triangle()
    lin = np.zeros(3)
    cases = [(EnergyModel(kind, g, beta=1.02), np.int16) for kind in ("mis", "mcut")]
    cases.append((EnergyModel("qubo", g, linear=lin, quad_scale=0.3), np.int16))
    for weights, dtype in [
        ([3.0, -7.0, 2.0], np.int16),
        ([2.0 ** 14, 2.0 ** 14 - 1, 1.0], np.int16),  # row 0 sums to 2**15 - 1
        ([2.0 ** 14, 2.0 ** 14, 1.0], np.float64),  # row 0 sums to 2**15
        ([0.5, 1.0, 1.0], np.float64),
        ([2.0 ** 52] * 3, np.float64),  # each row sums two weights of 2**52
    ]:
        m = EnergyModel("qubo", g, linear=lin, quad_scale=1.0, edge_weights=weights)
        cases.append((m, dtype))
    for m, dtype in cases:
        assert m._A.dtype == dtype
        m._A = spy = CountingMatrix(m._A).watch(monkeypatch)
        flip_rows = 0
        for x in all_bitvectors(3).astype(bool):
            for i in range(3):
                ax = m._ax(x[None])[0].copy()
                D = m._delta(x[None], ax[None])[0]
                y = x.copy()
                before = spy.total
                m._flip(y, ax, D, i)
                flip_rows += spy.total - before
                assert y[i] != x[i] and np.array_equal(np.delete(y, i), np.delete(x, i))
                assert ax.dtype == dtype
                assert np.array_equal(ax, m._ax(y[None])[0])
                want = m.delta(y)
                assert D.dtype == want.dtype and np.array_equal(D, want)
        assert (flip_rows == 0) == (dtype == np.int16), (m, flip_rows)
        # each miss is one row with one flip, whose two neighbours' CSR
        # rows an int16 product reads where the rule finds them cheaper
        # than the triangle's full product; a single row never reads the
        # dense rows
        assert spy.flips == 0 and not spy.dense
        assert (spy.csr > 0) == (dtype == np.int16 and _flips_pay(2, 6, 1, 3, False)), m


def _code_models(g):
    # mis at the benchmark's beta and the presets', mcl at the presets';
    # then at integer betas, where Delta is int16
    for kind, beta in [("mis", 1.001), ("mis", 1.02), ("mcl", 1.02), ("mcl", 1.5),
                       ("mis", 2.0), ("mcl", 3.0)]:
        yield EnergyModel(kind, g, beta=beta)


def test_code_tables_hold_delta_at_every_code():
    # Every (x, m) that random batches reach has a code inside the tables,
    # whose value is _delta's own, byte for byte; ranks order and tie as
    # the values do, with no gap, and are positive exactly where the value
    # is.
    rng = np.random.default_rng(60)
    for g in (generate_er(150, 0.06, seed=61), generate_ba(150, 3, seed=62)):
        for m in _code_models(g):
            values, rank = m._code_delta, m._code_rank
            assert values.dtype == m._delta_dtype and rank.dtype == np.int16
            assert rank.shape == values.shape
            # densities from 0 to 1 across the rows, and both extremes
            X = rng.random((40, 150)) < rng.random((40, 1))
            X[0], X[1] = False, True
            code = m._codes(X, m._ax(X))
            assert code.dtype == m._code_dtype == np.int16
            assert 0 <= code.min() and code.max() < values.size
            assert np.array_equal(code & 1, X)
            D = m._delta(X)
            assert values[code].dtype == D.dtype and values[code].tobytes() == D.tobytes()
            v = values.astype(np.float64)
            r = rank.astype(np.int64)
            assert np.array_equal(np.sign(np.subtract.outer(r, r)),
                                  np.sign(np.subtract.outer(v, v))), m
            assert np.array_equal(rank > 0, values > 0)
            assert np.array_equal(np.unique(r), np.arange(r.min(), r.max() + 1))


def test_rank_table_widens_to_int32_past_2_15_entries():
    # ranks lie strictly between minus and plus the table's size, so int16
    # holds them below 2**15 entries; the largest value not above 0 ranks 0
    for size, dtype in [(2 ** 15 - 1, np.int16), (2 ** 15, np.int32), (2 ** 16 + 1, np.int32)]:
        distinct = np.arange(size, dtype=np.float64) - (size - 3)
        assert np.array_equal(_rank_table(distinct), distinct)
        assert _rank_table(distinct).dtype == dtype
        # ties merge, -0.0 ties with 0.0, and any scale keeps the order
        tied = np.floor(distinct / 2)
        tied[np.flatnonzero(tied == 0)[0]] = -0.0
        want = tied - tied[tied <= 0].max()
        for values in (tied, 0.37 * tied):
            rank = _rank_table(values)
            assert rank.dtype == dtype and np.array_equal(rank, want)
    for values, want in [([3.0, 1.0, 3.0], [2, 1, 2]), ([-3.0, -1.0, -3.0], [-1, 0, -1])]:
        assert np.array_equal(_rank_table(np.array(values)), want)
    # mcl's table holds 2N codes: from 2**14 nodes on its ranks are int32
    m = EnergyModel("mcl", from_edge_list(2 ** 14, []), beta=1.5)
    assert m._code_rank.dtype == np.int32 and m._code_rank.size == 2 ** 15
    x = np.zeros(2 ** 14, dtype=np.int8)
    assert np.flatnonzero(greedy_decode(m, x)).tolist() == [0]
    # mis's holds 2 (largest degree + 1): a star of 2**15 leaves has int32
    # ranks and a float64 product, whose codes are exact too
    n = 2 ** 15 + 1
    m = EnergyModel("mis", from_edge_list(n, [(0, i) for i in range(1, n)]), beta=1.5)
    assert m._A.dtype == np.float64 and m._code_rank.dtype == np.int32
    x = np.zeros(n, dtype=np.int8)
    assert np.flatnonzero(greedy_decode(m, x)).tolist() == [0]
    # every node: the centre, at the table's top code, leaves first
    assert np.flatnonzero(greedy_decode(m, x + 1) == 0).tolist() == [0]


def test_flip_code_keeps_codes_and_ranks_fresh():
    # one bit at a time, the codes and ranks equal fresh ones and index
    # the flipped solution's Delta
    rng = np.random.default_rng(63)
    for g in (generate_er(60, 0.1, seed=64), generate_ba(60, 3, seed=65), triangle()):
        n = g.num_nodes
        for m in _code_models(g):
            x = rng.random(n) < 0.3
            code = m._codes(x[None], m._ax(x[None]))[0]
            key = m._code_rank.take(code)
            for i in rng.integers(0, n, 40):
                x[i] = not x[i]
                m._flip_code(x, code, key, i)
                assert np.array_equal(code, m._codes(x[None], m._ax(x[None]))[0]), m
                assert key.dtype == m._code_rank.dtype
                assert np.array_equal(key, m._code_rank[code])
                assert m._code_delta[code].tobytes() == m.delta(x).tobytes()


def test_descent_state_stays_fresh():
    # Through the flip that _descent returns, one bit at a time, each row,
    # its state and its key equal a fresh _descent of the flipped row, bit
    # for bit and in dtype: codes and ranks for mis and mcl, the product
    # and Delta for mcut and for qubo with an int16 and a float64 product.
    # The key's argmax is Delta's.
    rng = np.random.default_rng(66)
    for g in (generate_er(60, 0.1, seed=67), generate_ba(60, 3, seed=68), triangle()):
        n, e = g.num_nodes, g.num_edges
        models = [EnergyModel("mis", g, beta=1.001), EnergyModel("mis", g, beta=2.0),
                  EnergyModel("mcl", g, beta=1.5), EnergyModel("mcut", g),
                  EnergyModel("qubo", g, linear=rng.integers(-3, 4, n).astype(float),
                              quad_scale=1.0, edge_weights=rng.integers(-3, 4, e).astype(float)),
                  EnergyModel("qubo", g, linear=rng.normal(size=n), quad_scale=0.7,
                              edge_weights=rng.normal(size=e))]
        assert [m._A.dtype for m in models[-2:]] == [np.int16, np.float64]
        for m in models:
            X = rng.random((3, n)) < rng.random((3, 1))
            want = X.copy()
            states, keys, flip, _ = m._descent(X)
            assert states.shape == keys.shape == X.shape
            for row, state, key, x in zip(X, states, keys, want):
                for i in rng.integers(0, n, 30):
                    x[i] = not x[i]
                    flip(row, state, key, i)
                    assert row.dtype == bool and np.array_equal(row, x), m
                    fresh_states, fresh_keys, fresh_flip, _ = m._descent(row[None])
                    assert fresh_flip == flip
                    for got, new in ((state, fresh_states[0]), (key, fresh_keys[0])):
                        assert got.dtype == new.dtype and got.tobytes() == new.tobytes(), m
                    assert key.argmax() == m.delta(row).argmax(), m


def _assert_walk_is_fresh(walk, fresh, ref):
    # the walk's carried state equals, bit for bit and in dtype, a fresh
    # _descent and energy of its current X on a model that shares none of
    # it, and its codes give back ``ref``, the product of X
    X = walk.X
    assert walk.codes.dtype == fresh._code_dtype and walk.codes.flags.c_contiguous
    assert np.array_equal(fresh._code_product(X, walk.codes), ref)
    _, keys, _, _ = fresh._descent(X.copy())
    codes = fresh._codes(X, fresh._product(X))
    for got, want in ((walk.codes, codes), (walk.keys(), keys),
                      (walk.s, X.sum(axis=1)), (walk.quad, (X * ref).sum(axis=1).astype(np.int64)),
                      (walk.energy, fresh.energy(X)), (walk.value(walk.keys()), fresh.delta(X))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), fresh


def test_coded_walk_equals_a_fresh_computation_at_every_step(monkeypatch):
    # A mis or mcl walk at a float and an integer beta, handed flip lists
    # of none, one, a few or a third of the nodes per chain, and then the
    # bool masks of such flips, which it makes into flip lists, carries its
    # codes, ranks, s, x^T W x and energies equal to a fresh
    # computation of the current X after every step, and flips exactly the
    # listed entries. On ER and BA graphs from the plain generators, at
    # K = 1 and K = 4, each step that flips makes one product or update:
    # through the dense rows (K > 1 below the cap), through A's CSR rows
    # (K = 1, and every K above the cap) or the full product.
    rng = np.random.default_rng(70)
    graphs = [reference_er(300, 0.1, 70), reference_ba(300, 6, 71)[0],
              reference_er(1100, 0.03, 72)]
    paths = set()
    for g in graphs:
        n = g.num_nodes
        for kind, beta in (("mis", 1.001), ("mis", 2.0), ("mcl", 1.02), ("mcl", 3.0)):
            fresh = EnergyModel(kind, g, beta=beta)
            for rows in (1, 4):
                m = EnergyModel(kind, g, beta=beta)
                m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
                X = rng.random((rows, n)) < rng.random((rows, 1))
                walk = m._walk(X)
                assert isinstance(walk, energy._CodeWalk) and walk.X is X
                assert walk.integer == beta.is_integer()
                _assert_walk_is_fresh(walk, fresh, reference_product(g, X))
                for step in range(8):
                    flips = (0, 1, 3, n // 3)[step % 4]
                    at = np.sort(np.concatenate(
                        [k * n + rng.choice(n, flips, replace=False) for k in range(rows)]))
                    want = X.copy()
                    want.reshape(-1)[at] ^= True
                    before = counter.total, counter.flips, counter.csr
                    E, counts = walk.advance(at.astype(np.intp) if step < 4 else want ^ X)
                    made, dense, csr = (a - b for a, b in
                                        zip((counter.total, counter.flips, counter.csr), before))
                    assert made == (flips > 0) and dense + csr <= made
                    if made:
                        paths.add("dense rows" if dense else "csr rows" if csr else "full")
                    assert np.array_equal(X, want) and E is walk.energy
                    assert counts.dtype == np.int64 and counts.tolist() == [flips] * rows
                    _assert_walk_is_fresh(walk, fresh, reference_product(g, X))
    assert paths == {"dense rows", "csr rows", "full"}


def test_coded_walk_widens_its_codes_where_int16_cannot_hold_the_update():
    # a star of 16400 leaves: its int16 product holds every row sum, but
    # its codes reach 2 R + 1 = 32801, so they are int32 (and the ranks of
    # its 32802 codes too); with nearly every leaf set, the hub's code is
    # above 2**15, flip lists that flip the hub move every leaf's code
    # through A's CSR rows, and the walk stays equal to a fresh one
    n = 16401
    g = from_edge_list(n, [(0, i) for i in range(1, n)])
    fresh = EnergyModel("mis", g, beta=1.5)
    m = EnergyModel("mis", g, beta=1.5)
    assert m._A.dtype == np.int16 and m._code_dtype == np.int32
    assert m._code_rank.dtype == np.int32
    rng = np.random.default_rng(74)
    X = rng.random((2, n)) < 0.9995  # the hub's code near 2 n, above 2**15
    walk = m._walk(X)
    for step in range(4):
        at = np.sort(np.concatenate([k * n + np.r_[0, rng.choice(np.arange(1, n), 5 * step,
                                                                 replace=False)]
                                     for k in range(2)]))
        walk.advance(at)
        # the hub counts its selected leaves, and a leaf sees the hub
        ref = np.where(np.arange(n) == 0, X[:, 1:].sum(axis=1)[:, None], X[:, :1])
        _assert_walk_is_fresh(walk, fresh, ref)


def test_models_walk_on_codes_only_with_mis_and_mcl_over_an_int16_product():
    # mcut, qubo, and mis over a float64 product (a star of 2**15 leaves)
    # walk through the public delta and energy. Their keys are Delta, which
    # ``value`` and ``cut`` return as they are, and a step's flips come as
    # a bool mask or as a flip list, sorted flat indices
    g = generate_er(30, 0.2, seed=73)
    n = 2 ** 15 + 1
    star = EnergyModel("mis", from_edge_list(n, [(0, i) for i in range(1, n)]), beta=1.5)
    rng = np.random.default_rng(73)
    for m in (EnergyModel("mcut", g), star,
              EnergyModel("qubo", g, linear=rng.normal(size=30), quad_scale=0.7)):
        X = rng.random((3, m.num_nodes)) < 0.5
        walk = m._walk(X)
        assert isinstance(walk, energy._PublicWalk) and np.array_equal(walk.energy, m.energy(X))
        D = walk.keys()
        assert np.array_equal(D, m.delta(X)) and walk.integer == (D.dtype == np.int16)
        assert walk.value(D) is D and walk.cut(D) is D
        for step in range(2):
            flip = rng.random(X.shape) < 0.1
            want = X ^ flip
            E, counts = walk.advance(flip if step == 0 else np.flatnonzero(flip))
            assert np.array_equal(X, want) and np.array_equal(E, m.energy(want))
            assert counts.dtype == np.int64 and np.array_equal(counts, flip.sum(axis=1))


def test_delta_bound_marks_the_models_whose_deltas_int16_holds():
    g = generate_er(30, 0.2, seed=3)
    deg = int(g.degrees().max())
    assert EnergyModel("mis", g, beta=2.0)._delta_bound == 1 + 2 * deg
    assert EnergyModel("mcl", g, beta=2.0)._delta_bound == 1 + 2 * (deg + 29)
    assert EnergyModel("mcut", g)._delta_bound == 3 * deg
    rng = np.random.default_rng(3)
    lin = rng.integers(-5, 6, size=30).astype(np.float64)
    w = rng.integers(-3, 4, size=g.num_edges).astype(np.float64)
    qubo = EnergyModel("qubo", g, linear=lin, quad_scale=1.5, edge_weights=w)
    row_sums = np.abs(qubo._A.toarray()).sum(axis=1)  # of |w|
    assert qubo._delta_bound == np.abs(lin).max() + 3 * row_sums.max()
    X = rng.integers(0, 2, size=(50, 30))
    for m in (qubo, EnergyModel("mcl", g, beta=2.0), EnergyModel("mcut", g)):
        D = m.delta(X)
        assert np.array_equal(D, np.round(D)) and np.abs(D).max() <= m._delta_bound
    # B set: the gradient and Delta are int16, and float64 otherwise
    for m in (qubo, EnergyModel("mis", g, beta=2.0), EnergyModel("mcl", g, beta=2.0),
              EnergyModel("mcut", g), EnergyModel("mis", g, beta=1.02),
              EnergyModel("mcl", g, beta=1.5),
              EnergyModel("qubo", g, linear=lin + 0.5, quad_scale=1.5, edge_weights=w)):
        dtype = np.float64 if m._delta_bound is None else np.int16
        for x in (X, X[0]):
            assert m.delta(x).dtype == dtype and m.gradient(x).dtype == dtype, m
    # a non-integer c, 2q or weight, or a bound of 2**15 or more: no bound
    assert EnergyModel("mis", g, beta=1.02)._delta_bound is None
    assert EnergyModel("mcl", g, beta=1.5)._delta_bound is None
    assert EnergyModel("qubo", g, linear=lin + 0.5, quad_scale=1.5, edge_weights=w)._delta_bound is None
    assert EnergyModel("qubo", g, linear=lin, quad_scale=0.7, edge_weights=w)._delta_bound is None
    assert EnergyModel("qubo", g, linear=lin, quad_scale=1.5, edge_weights=w + 0.5)._delta_bound is None
    t, zero = triangle(), np.zeros(3)
    for linear, weights, bound in [
        ([-(2.0 ** 15 - 1), 0, 0], None, 2.0 ** 15 - 1),  # 2q = 1 times row sums of 0
        ([-(2.0 ** 15), 0, 0], None, None),
        (zero, [2.0 ** 14, 2.0 ** 14 - 1, 1.0], 2.0 ** 15 - 1),  # row 0 sums to 2**15 - 1
        (zero, [2.0 ** 14, 2.0 ** 14, 1.0], None),
    ]:
        m = EnergyModel("qubo", t, linear=linear, quad_scale=0.5,
                        edge_weights=[0.0] * 3 if weights is None else weights)
        assert m._delta_bound == bound, (linear, weights)
    # 2q = 0 leaves B = max|c|, but a float64 product (row sums of 2**15)
    # sets no bound: an int16 Delta is read from an int16 product only
    bits = all_bitvectors(3)
    for weights, bound in [([2.0 ** 14 - 1] * 3, 1.0), ([2.0 ** 14] * 3, None)]:
        m = EnergyModel("qubo", t, linear=[1.0, 0, 0], quad_scale=0.0, edge_weights=weights)
        assert m._delta_bound == bound, weights
        D = m.delta(bits)
        assert D.dtype == m._A.dtype and np.array_equal(D, (2 * bits - 1) * [1, 0, 0])


@pytest.mark.parametrize("kind", ["mis", "mcl", "mcut", "qubo"])
def test_delta_allocates_little_beyond_its_result(kind):
    # delta(X) makes its (B, N) result, int16 for mcut and float64 for the
    # rest here, and updates it in place; the int8 sign of a bool batch
    # adds a byte per entry for each of its two steps, within the four
    # bytes per entry allowed beyond D. As in an annealing step, it follows
    # energy(X), whose product it reuses.
    g = generate_er(600, 0.02, seed=9)
    rng = np.random.default_rng(9)
    extra = dict(linear=rng.normal(size=600), quad_scale=0.7) if kind == "qubo" else {}
    m = EnergyModel(kind, g, beta=1.5, **extra)
    X = rng.integers(0, 2, size=(128, 600)).astype(bool)
    m.energy(X)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        D = m.delta(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= D.nbytes + 4 * X.size, (peak - before, D.nbytes)


def _random_weights(case, rng, size):
    if case == "unweighted":
        return None
    if case == "integer-weights":
        return rng.integers(-9, 10, size=size).astype(np.float64)
    return rng.normal(size=size)


@pytest.mark.parametrize("case, dtype", [
    ("unweighted", np.int16),
    ("integer-weights", np.int16),
    ("normal-weights", np.float64),
])
def test_products_match_a_float64_reference_bit_for_bit(case, dtype):
    # Whichever dtype the model multiplies in, A @ X and everything computed
    # from it equal the float64 product of a CSR built here from the edges.
    rng = np.random.default_rng(["unweighted", "integer-weights", "normal-weights"].index(case))
    for _ in range(20):
        g = random_small_graph(rng, n_min=2, n_max=40)
        n = g.num_nodes
        w = _random_weights(case, rng, g.num_edges)
        lin, q = rng.normal(size=n), 0.7
        m = EnergyModel("qubo", g, linear=lin, quad_scale=q, edge_weights=w)
        assert m._A.dtype == dtype
        for X in (rng.integers(0, 2, size=(7, n)), rng.integers(0, 2, size=(1, n))):
            X = X.astype(np.float64)
            ref = reference_product(g, X, w)
            ax = m._ax(X)  # kept in the matrix's dtype, equal once cast
            assert ax.dtype == dtype and np.array_equal(ax.astype(np.float64), ref)
            assert np.array_equal(m.delta(X), (2.0 * X - 1.0) * (2.0 * q * ref + lin))
            energy = (X * lin).sum(axis=1) + q * (X * ref).sum(axis=1)
            assert np.array_equal(m.energy(X), energy)
            assert np.array_equal(m.delta(X[0]), m.delta(X)[0])
            assert m.energy(X[0]) == energy[0]
        for kind in ("mis", "mcl", "mcut"):
            ax = EnergyModel(kind, g, beta=1.02)._ax(X)
            assert ax.dtype == np.int16
            assert np.array_equal(ax.astype(np.float64), reference_product(g, X))


_QUBO_WEIGHTS = {  # per rung, a qubo model's edge weights and the product dtype they give
    np.int16: (lambda rng, size: rng.integers(-9, 10, size=size).astype(np.float64), np.int16),
    # integer row sums of 2**15 or more take float64
    np.float32: (lambda rng, size: rng.integers(2 ** 15, 2 ** 16, size=size).astype(np.float64),
                 np.float64),
    np.float64: (lambda rng, size: rng.normal(size=size), np.float64),
}


@pytest.mark.parametrize("rung", [np.int16, np.float32, np.float64],
                         ids=["int16", "float32", "float64"])
@pytest.mark.parametrize("kind", ["mis", "mcl", "mcut", "qubo"])
def test_shared_form_matches_per_kind_formulas_byte_for_byte(kind, rung):
    # Energy, gradient and Delta equal each kind's own formula in its own
    # order of operations, signed zeros included. Unit-weight models reach
    # the float rungs by re-typing their matrix; float32 is no dtype a model
    # picks, but it holds each of their products exactly, so the result
    # must not depend on the rung. mcut's gradient and Delta are integers
    # below 2**15, returned as int16, which has no -0.0: they must equal
    # the formula's values, and its energy still matches byte for byte.
    rng = np.random.default_rng([31, ["mis", "mcl", "mcut", "qubo"].index(kind)])
    checked = 0
    while checked < 8:
        g = random_small_graph(rng, n_min=2, n_max=30)
        if g.num_edges == 0:
            continue
        n = g.num_nodes
        beta = float(rng.uniform(1.01, 3.0))
        coefficients, weights = {}, None
        if kind == "qubo":
            make_weights, dtype = _QUBO_WEIGHTS[rung]
            weights = make_weights(rng, g.num_edges)
            # rounding leaves -0.0 among the linear terms
            coefficients = dict(linear=np.round(rng.normal(size=n)),
                                quad_scale=float(rng.uniform(-2, 2)))
            m = EnergyModel("qubo", g, edge_weights=weights, **coefficients)
            assert m._A.dtype == dtype
        else:
            m = EnergyModel(kind, g, beta=beta)
            m._A = m._A.astype(rung)
        X = rng.integers(0, 2, size=(6, n))
        X[0], X[1] = 0, 1
        for batch in (X.astype(bool), X.astype(np.float64)):
            want = per_kind_energy(kind, g, batch, beta, weights=weights, **coefficients)
            for method, w in zip(("energy", "gradient", "delta"), want):
                if kind == "mcut" and method != "energy":
                    got = getattr(m, method)(batch)
                    assert got.dtype == np.int16 and np.array_equal(got, w), method
                    for i in (0, 1):
                        got = getattr(m, method)(batch[i])
                        assert got.dtype == np.int16 and np.array_equal(got, w[i]), (method, i)
                    continue
                assert getattr(m, method)(batch).tobytes() == w.tobytes(), method
                for i in (0, 1):
                    got = np.asarray(getattr(m, method)(batch[i]), dtype=np.float64)
                    assert got.tobytes() == w[i].tobytes(), (method, i)
        checked += 1


def _assert_exact_on_triangle(weights, dtype):
    # triangle edges (0, 1), (0, 2), (1, 2): row 0 sums the first two weights
    g = triangle()
    lin = np.array([-1.0, 2.0, -3.0])
    m = EnergyModel("qubo", g, linear=lin, quad_scale=0.7, edge_weights=weights)
    assert m._A.dtype == dtype
    X = all_bitvectors(3).astype(np.float64)
    ref = reference_product(g, X, weights)
    assert np.array_equal(m._ax(X), ref)
    assert np.array_equal(m.delta(X), (2.0 * X - 1.0) * (2.0 * 0.7 * ref + lin))
    assert np.array_equal(greedy_decode(m, X), reference_decode(m, X))


# integer row sums that float32 would hold exactly still take float64: the
# product is int16 below row sum 2**15 and float64 from there on
@pytest.mark.parametrize("weights, dtype", [
    ([2.0 ** 23, 2.0 ** 23 - 1, 1.0], np.float64),  # row 0 sums to 2**24 - 1
    ([2.0 ** 23, 2.0 ** 23, 1.0], np.float64),  # row 0 sums to 2**24
    ([-(2.0 ** 23), 2.0 ** 23, 1.0], np.float64),  # |w| counts: 2**24, signed sum 0
    ([2.0 ** 24, 1.0, 1.0], np.float64),  # float32 would round 2**24 + 1
], ids=["below", "at", "abs", "above"])
def test_float32_products_stop_below_row_sum_2_24(weights, dtype):
    _assert_exact_on_triangle(weights, dtype)


@pytest.mark.parametrize("weights, dtype", [
    ([2.0 ** 14, 2.0 ** 14 - 1, 1.0], np.int16),  # row 0 sums to 2**15 - 1
    ([2.0 ** 14, 2.0 ** 14, 1.0], np.float64),  # row 0 sums to 2**15
    ([-(2.0 ** 14), 2.0 ** 14, 1.0], np.float64),  # |w| counts: 2**15, signed sum 0
    ([-(2.0 ** 15 - 1), 0.0, 0.0], np.int16),  # the most negative weight of the int16 rung
], ids=["below", "at", "abs", "negative"])
def test_int16_products_stop_below_row_sum_2_15(weights, dtype):
    _assert_exact_on_triangle(weights, dtype)


def test_solution_validation():
    m = EnergyModel("mis", triangle(), beta=1.02)
    with pytest.raises(ValueError, match="length 2"):
        m.energy([0, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        m.energy([0, 2, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        m.delta([0.5, 0, 0])
    # arrays of every non-bool dtype are checked entry by entry
    for bad in (np.array([[0, 1, 0], [0, 2, 0]]), np.array([-1, 0, 0], dtype=np.int8),
                np.array([[1.0, 0.0, 0.5]]), np.array([0.0, np.nan, 1.0])):
        for method in ("energy", "delta", "gradient", "violation", "objective"):
            with pytest.raises(ValueError, match="0 or 1"):
                getattr(m, method)(bad)
    with pytest.raises(ValueError, match="length 2"):
        m.energy(np.ones((4, 2), dtype=bool))


def test_bool_batches_evaluate_like_float64_batches():
    # a bool batch skips the 0/1 check and the conversion, and every
    # public result equals that of the same batch in float64, bit for bit,
    # whatever the memory layout
    rng = np.random.default_rng(27)
    for make in _memo_models(rng):
        kind = make().kind
        X = rng.integers(0, 2, size=(9, 30)).astype(np.float64)
        # objective needs feasible rows for mis and mcl
        F = reference_decode(make(), X).astype(np.float64)
        for batch in (X, F, X[0]):
            methods = ["energy", "delta", "gradient", "violation"]
            if kind == "mcut" or kind in ("mis", "mcl") and batch is F:
                methods.append("objective")
            for method in methods:
                want = getattr(make(), method)(batch)
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    got = getattr(make(), method)(layout(batch.astype(bool)))
                    assert type(got) is type(want), method
                    assert np.asarray(got).dtype == np.asarray(want).dtype, method
                    assert np.array_equal(got, want), method


def test_batch_matches_single_evaluation():
    g = generate_er(15, 0.3, seed=11)
    rng = np.random.default_rng(12)
    X = rng.integers(0, 2, size=(10, 15))
    for kind in ("mis", "mcl", "mcut"):
        m = EnergyModel(kind, g, beta=1.02)
        E = m.energy(X)
        D = m.delta(X)
        V = m.violation(X)
        for i in range(10):
            assert m.energy(X[i]) == E[i]
            assert np.array_equal(m.delta(X[i]), D[i])
            assert m.violation(X[i]) == V[i]


# -- the per-thread product memo ----------------------------------------------

def _memo_models(rng):
    g = generate_er(30, 0.2, seed=21)
    yield lambda: EnergyModel("mis", g, beta=1.02)
    yield lambda: EnergyModel("mcl", g, beta=1.02)
    yield lambda: EnergyModel("mcut", g)
    lin, w = rng.normal(size=30), rng.normal(size=g.num_edges)
    yield lambda: EnergyModel("qubo", g, linear=lin, quad_scale=0.7, edge_weights=w)


def _assert_like_fresh(make, m, X):
    # every public evaluation equals the one of a model with an empty memo
    for method in ("energy", "delta", "gradient"):
        got = getattr(m, method)(X)
        want = getattr(make(), method)(X)
        assert np.array_equal(got, want), method


def test_memo_follows_in_place_changes_of_one_batch():
    rng = np.random.default_rng(22)
    for make in _memo_models(rng):
        m = make()
        X = rng.integers(0, 2, size=(6, 30)).astype(np.float64)
        for _ in range(15):
            _assert_like_fresh(make, m, X)
            i, j = rng.integers(0, 6), rng.integers(0, 30, size=3)
            X[i, j] = 1.0 - X[i, j]  # same object, new content
            _assert_like_fresh(make, m, X)
            _assert_like_fresh(make, m, X[int(rng.integers(0, 6))])


def test_memo_follows_in_place_flips_of_a_bool_batch():
    # the engine's update: a bool state flipped in place with X ^= flip
    rng = np.random.default_rng(28)
    for make in _memo_models(rng):
        m = make()
        X = rng.integers(0, 2, size=(6, 30)).astype(bool)
        for _ in range(15):
            _assert_like_fresh(make, m, X)
            X ^= rng.random(X.shape) < 0.1
            _assert_like_fresh(make, m, X)


def test_memo_follows_shape_changes():
    rng = np.random.default_rng(23)
    for make in _memo_models(rng):
        m = make()
        X = rng.integers(0, 2, size=(6, 30)).astype(np.float64)
        for batch in (X, X[:3], X, X[0], X[:1], X[::2], X[::-1], np.asfortranarray(X)):
            _assert_like_fresh(make, m, batch)


def test_memo_reuses_the_product_of_an_equal_batch():
    m = EnergyModel("mis", generate_er(30, 0.2, seed=24), beta=1.02)
    m._A = counter = CountingMatrix(m._A)
    X = np.random.default_rng(24).integers(0, 2, size=(5, 30)).astype(np.float64)
    m.energy(X)
    m.delta(X.copy())
    m.gradient(X.astype(np.int8))
    assert counter.total == 1
    m.delta(X[:4])
    assert counter.total == 2


def test_memo_product_is_read_only():
    m = EnergyModel("mcut", generate_er(30, 0.2, seed=25))
    X = np.random.default_rng(25).integers(0, 2, size=(4, 30)).astype(np.float64)
    for ax in (m._ax(X), m._ax(X)):  # computed, then remembered
        assert not ax.flags.writeable
        with pytest.raises(ValueError):
            ax[0, 0] = 1.0
    # public results are the callers' own arrays
    assert m.delta(X).flags.writeable and m.gradient(X).flags.writeable


def test_product_is_c_ordered_read_only_in_the_matrix_dtype():
    # whichever dtype the product runs in and whatever the batch's dtype
    # and layout, _ax returns a C-ordered, read-only array of that dtype
    rng = np.random.default_rng(29)
    g = generate_er(30, 0.2, seed=29)
    # weights of 2**12 at a node of degree 10 sum past 2**15: float64
    cases = [(np.int16, None), (np.float64, np.full(g.num_edges, 2.0 ** 12)),
             (np.float64, rng.normal(size=g.num_edges))]
    X = rng.integers(0, 2, size=(5, 30))
    for dtype, w in cases:
        m = EnergyModel("qubo", g, linear=np.zeros(30), quad_scale=0.7, edge_weights=w)
        assert m._A.dtype == dtype
        ref = reference_product(g, X, w)
        for batch in (X.astype(bool), np.asfortranarray(X.astype(bool)), X.astype(np.float64)):
            ax = m._ax(m._as_batch(batch)[0])
            assert ax.dtype == dtype and ax.flags.c_contiguous
            assert not ax.flags.writeable
            assert np.array_equal(ax.astype(np.float64), ref)


def test_memo_is_kept_per_thread():
    # Two threads take strict turns on one model, each with its own batches
    # of the same shape: energy(A), energy(B), delta(A), delta(B), ... Each
    # thread's delta reuses the product of its own last energy call, and
    # every value equals a fresh model's. A call that raises still passes
    # the turn on, so the other thread does not wait forever; the error is
    # raised once both threads are done.
    rng = np.random.default_rng(26)
    for make in _memo_models(rng):
        m = make()
        m._A = counter = CountingMatrix(m._A)
        rounds = 8
        batches = rng.integers(0, 2, size=(2, rounds, 4, 30)).astype(np.float64)
        turn = [0]
        cond = threading.Condition()
        results = [[], []]
        errors = []

        def worker(who):
            for call in range(2 * rounds):
                with cond:
                    cond.wait_for(lambda: turn[0] % 2 == who)
                try:
                    method = ("energy", "delta")[call % 2]
                    results[who].append(getattr(m, method)(batches[who, call // 2]))
                except Exception as exc:
                    errors.append(exc)
                finally:
                    with cond:
                        turn[0] += 1
                        cond.notify_all()

        threads = [threading.Thread(target=worker, args=(w,), daemon=True) for w in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a worker is still waiting for its turn"
        if errors:
            raise errors[0]
        assert sorted(counter.calls.values()) == [rounds, rounds]
        for who in (0, 1):
            for r in range(rounds):
                X = batches[who, r]
                assert np.array_equal(results[who][2 * r], make().energy(X))
                assert np.array_equal(results[who][2 * r + 1], make().delta(X))


def _update_models(g, rng):
    # int16 products: unit weights, and integer weights of both signs; then
    # a float64 product, which never takes the flip list
    yield EnergyModel("mis", g, beta=1.02)
    yield EnergyModel("mcut", g)
    w = rng.integers(-9, 10, size=g.num_edges).astype(np.float64)
    yield EnergyModel("qubo", g, linear=rng.normal(size=g.num_nodes), quad_scale=0.7,
                      edge_weights=w)
    yield EnergyModel("qubo", g, linear=rng.normal(size=g.num_nodes), quad_scale=0.7,
                      edge_weights=rng.normal(size=g.num_edges))


def _walk_memo(m, rng, steps=12, rows=5):
    """Flip random bits of one bool batch in place, a few or many per row
    as the walk goes on, and check after each step that the memo's product
    equals a fresh ``A @ X^T`` bit for bit and that it was brought up to
    date along the path the cost rule picks for the flips: the full
    product, or the flip list through the dense rows (``"flips"``) or
    through A's CSR rows (``"csr"``), each counted by the watched
    CountingMatrix that the caller installed. Returns the paths taken, in
    order."""
    counter = m._A
    A = counter.A
    deg = np.diff(A.indptr)
    n = m.num_nodes
    dense = rows > 1 and 2 * n * n <= _DENSE_ROWS_BYTES
    X = rng.integers(0, 2, size=(rows, n)).astype(bool)
    m._ax(X)
    me = threading.get_ident()
    counts = (counter.calls, counter.dense_updates, counter.csr_updates)
    paths = []
    for step in range(steps):
        flips = (1, 2, 8, n // 3)[step % 4]
        old = X.copy()
        for row in X:
            row[rng.choice(n, flips, replace=False)] ^= True
        changed = old != X
        before = [c.get(me, 0) for c in counts]
        ax = m._ax(X)
        made, dense_list, csr_list = (c.get(me, 0) - b for c, b in zip(counts, before))
        assert made == 1 and dense_list + csr_list <= 1
        paths.append("flips" if dense_list else "csr" if csr_list else "full")
        fresh = np.ascontiguousarray((A @ np.ascontiguousarray(X.T).astype(A.dtype)).T)
        assert ax.dtype == fresh.dtype and ax.flags.c_contiguous and not ax.flags.writeable
        assert np.array_equal(ax, fresh), (m, step)
        expected = "full"
        work = changed.sum() * n if dense else deg[np.nonzero(changed)[1]].sum()
        if A.dtype == np.int16 and _flips_pay(work, A.nnz, rows, n, dense):
            expected = "flips" if dense else "csr"
        assert paths[-1] == expected, (m, step, work)
    return paths


def test_memo_update_equals_a_fresh_product(monkeypatch):
    # With few changed entries an int16 memo updates its product, with
    # many it multiplies afresh; either way the product is the full one.
    # Below the dense-row cap (N <= 1024) the updates read the dense rows;
    # above it, A's CSR rows. The graphs are dense enough for an update to
    # pay on a batch of 5.
    rng = np.random.default_rng(30)
    for g, update in ((generate_er(1000, 0.1, seed=30), "flips"),
                      (generate_ba(1000, 50, seed=31), "flips"),
                      (generate_er(1100, 0.1, seed=33), "csr")):
        for m in _update_models(g, rng):
            m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
            paths = _walk_memo(m, rng)
            if m._A.dtype == np.int16:
                assert set(paths) == {"full", update}, paths
                assert (m._rows is not None) == (update == "flips")
            else:
                assert set(paths) == {"full"} and counter.total == 13 and m._rows is None


def test_single_rows_read_the_csr_rows_and_never_make_the_dense_rows(monkeypatch):
    # A single row, such as a solution decoded or scored once per solve,
    # takes the flip list through A's CSR rows even below the dense-row
    # cap, so it never pays for the dense copy; a block of two rows on the
    # same model makes it
    rng = np.random.default_rng(36)
    for g in (generate_er(300, 0.5, seed=36), generate_er(1100, 0.1, seed=36)):
        m = EnergyModel("mis", g, beta=1.02)
        m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
        paths = _walk_memo(m, rng, rows=1)
        assert "csr" in paths and "flips" not in paths, paths
        assert counter.flips == 0 and not counter.dense and m._rows is None
        if g.num_nodes <= 1024:
            assert "flips" in _walk_memo(m, rng, rows=2) and m._rows is not None


def test_csr_flip_list_never_overflows_its_row_pointer(monkeypatch):
    # The CSR flip list builds its row pointer in A's index dtype and takes
    # the full product when the flipped rows' nonzeros do not fit in it.
    # Here A's indices pose as int16 and one row flips 250 nodes of
    # ER(300, 0.5), whose 37k nonzeros pass 2**15 - 1, with the rule forced
    # to the flip list: the product is still the full one.
    m = EnergyModel("mis", generate_er(300, 0.5, seed=37), beta=1.02)
    m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
    counter.indices = counter.A.indices.astype(np.int16)
    monkeypatch.setattr(energy, "_flips_pay", lambda *args: True)
    rng = np.random.default_rng(37)
    X = rng.random((1, 300)) < 0.5
    m._ax(X)
    X[0, rng.choice(300, 250, replace=False)] ^= True
    assert np.diff(counter.A.indptr)[X[0] != m._memo.key[0]].sum() > 2 ** 15
    A = counter.A
    assert np.array_equal(m._ax(X), (A @ X.T.astype(np.int16)).T)
    assert counter.csr == 0 and counter.total == 2


def test_memo_update_on_worker_threads(monkeypatch):
    # three threads walk their own batches on one shared model at once,
    # below and above the dense-row cap
    rng = np.random.default_rng(32)
    for g in (generate_er(1000, 0.1, seed=32), generate_er(1100, 0.1, seed=34)):
        for m in _update_models(g, rng):
            m._A = CountingMatrix(m._A).watch(monkeypatch)
            seeds = rng.integers(0, 2 ** 31, size=3)
            errors, walks = [], []

            def walk(seed):
                try:
                    walks.append(_walk_memo(m, np.random.default_rng(seed), steps=16))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=walk, args=(s,), daemon=True) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            if errors:
                raise errors[0]
            assert len(walks) == 3
            updated = [set(w) != {"full"} for w in walks]
            assert all(updated) == (m._A.dtype == np.int16), walks


def test_private_sparse_kernels_keep_their_contract():
    # The flip list calls three of scipy's private compiled kernels
    # directly; a scipy that changes what any of them does on this small
    # int16 case, with int32 indices as A has, fails here. A is 3 x 4:
    # row 0 holds 2 and -1 at columns 1 and 3, row 1 holds 5 at column 0,
    # and row 2 holds 7 and 3 at columns 1 and 2.
    indptr, indices = np.array([0, 2, 3, 5], np.int32), np.array([1, 3, 0, 1, 2], np.int32)
    data = np.array([2, -1, 5, 7, 3], np.int16)
    # csr_row_index gathers rows 2, 0 and 2 again, in that order
    cols, vals = np.empty(6, np.int32), np.empty(6, np.int16)
    energy._csr_row_index(3, np.array([2, 0, 2], np.int32), indptr, indices, data, cols, vals)
    assert cols.tolist() == [1, 2, 1, 3, 1, 2] and vals.tolist() == [7, 3, 2, -1, 7, 3]
    # csr_todense adds the gathered rows 2 and 0 into row 0 of out, summing
    # column 1, which both hold, and row 2 into row 1; it does not zero out
    out = np.ones((2, 4), np.int16)
    energy._csr_todense(2, 4, np.array([0, 4, 6], np.int32), cols, vals, out)
    assert out.dtype == np.int16 and out.tolist() == [[1, 10, 4, 0], [1, 8, 4, 1]]
    # csr_matvecs adds S @ D into out, where D is A made dense and the 2 x 3
    # S holds +1 at (0, 2), -1 at (0, 0) and +1 at (1, 1)
    D = np.array([[0, 2, 0, -1], [5, 0, 0, 0], [0, 7, 3, 0]], np.int16)
    out = np.ones((2, 4), np.int16)
    energy._csr_matvecs(2, 3, 4, np.array([0, 2, 3]), np.array([2, 0, 1]),
                        np.array([1, -1, 1], np.int16), D, out)
    assert out.dtype == np.int16 and out.tolist() == [[1, 6, 4, 2], [6, 1, 1, 1]]


def test_dense_rows_are_made_once_by_racing_threads(monkeypatch):
    # More threads than cores take their first flip-list update at once,
    # switching every microsecond: the model makes one dense copy of A for
    # all of them, and every updated product equals a fresh one.
    m = EnergyModel("mis", generate_er(300, 0.5, seed=35), beta=1.02)
    m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
    rng = np.random.default_rng(35)
    threads_n = 8
    starts = rng.random((threads_n, 3, 300)) < 0.5
    ends = starts.copy()
    ends[:, np.arange(3), rng.integers(0, 300, size=3)] ^= True  # one flip per row
    barrier = threading.Barrier(threads_n, timeout=60)
    products, errors = {}, []

    def update(t):
        try:
            m._ax(starts[t])
            barrier.wait()
            products[t] = m._ax(ends[t])
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=update, args=(t,), daemon=True)
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    assert len(counter.dense) == 1 and counter.flips == threads_n
    for t in range(threads_n):
        assert np.array_equal(products[t], reference_product(m.graph, ends[t])), t


def test_evaluation_does_not_depend_on_memory_layout():
    # a Fortran-ordered batch sums its rows in the same order as a C-ordered one
    rng = np.random.default_rng(25)
    for make in _memo_models(rng):
        X = rng.integers(0, 2, size=(7, 30)).astype(np.float64)
        F = np.asfortranarray(X)
        for method in ("energy", "delta", "gradient"):
            assert np.array_equal(getattr(make(), method)(F), getattr(make(), method)(X)), method
