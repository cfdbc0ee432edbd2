"""Independent brute-force oracles and small-graph builders shared by tests."""

import threading

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

from rlsa import Graph, from_edge_list, generate_ba, generate_er


class CountingMatrix:
    """Stands in for a model's sparse matrix and counts, per thread, what is
    taken from it: in ``calls``, the products ``A @ X``, the row
    selections ``A[rows]`` and the flip-list updates, one of which each
    product or update makes; in ``dense_updates`` and ``csr_updates``, the
    flip-list updates alone, through the dense rows and through A's CSR
    rows.

    A flip-list update reads, in compiled kernels, either the dense rows
    that the model makes once through ``toarray`` (``dense`` lists each
    copy made) or the CSR rows of A itself; ``watch`` has the kernels
    count each call that reads one or the other, for as long as the given
    pytest ``monkeypatch`` lasts."""

    def __init__(self, A):
        self.A = A
        self.calls = {}
        self.dense_updates = {}
        self.csr_updates = {}
        self.dense = []
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.A, name)

    def _count(self, *counts):
        with self._lock:
            me = threading.get_ident()
            for count in counts:
                count[me] = count.get(me, 0) + 1

    def __matmul__(self, other):
        self._count(self.calls)
        return self.A @ other

    def __getitem__(self, key):
        self._count(self.calls)
        return self.A[key]

    def toarray(self):
        self.dense.append(self.A.toarray())
        return self.dense[-1]

    def watch(self, monkeypatch):
        import rlsa.energy as energy

        matvecs, row_index = energy._csr_matvecs, energy._csr_row_index

        def dense_update(*args):
            if any(a is d for a in args for d in self.dense):
                self._count(self.calls, self.dense_updates)
            return matvecs(*args)

        def csr_update(*args):
            if any(a is self.A.indptr for a in args):
                self._count(self.calls, self.csr_updates)
            return row_index(*args)

        monkeypatch.setattr(energy, "_csr_matvecs", dense_update)
        monkeypatch.setattr(energy, "_csr_row_index", csr_update)
        return self

    @property
    def total(self):
        return sum(self.calls.values())

    @property
    def flips(self):
        return sum(self.dense_updates.values())

    @property
    def csr(self):
        return sum(self.csr_updates.values())


def triangle():
    return from_edge_list(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def single_edge():
    return from_edge_list(2, [(0, 1)])


def all_bitvectors(n):
    """All 2**n binary vectors as an (2**n, n) int8 array."""
    masks = np.arange(2 ** n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.int8)


def flip_drop_oracle(model, X):
    """H(x) - H(flip_i(x)) for every row of X and every coordinate i."""
    X = np.atleast_2d(np.asarray(X))
    base = model.energy(X)
    out = np.empty(X.shape, dtype=np.float64)
    for i in range(X.shape[1]):
        flipped = X.copy()
        flipped[:, i] = 1 - flipped[:, i]
        out[:, i] = base - model.energy(flipped)
    return out


def exhaustive_min_energy(model):
    """Global minimum of H over all binary vectors (exponential; N <= 20)."""
    bits = all_bitvectors(model.num_nodes)
    energies = model.energy(bits)
    i = int(np.argmin(energies))
    return float(energies[i]), bits[i]


def selected_adjacent_pairs(graph, X):
    """Per row of X, the edges with both ends selected (mis violations)."""
    X = np.atleast_2d(np.asarray(X)).astype(np.int64)
    count = np.zeros(X.shape[0], dtype=np.int64)
    for u, v in graph.edge_array():
        count += X[:, u] * X[:, v]
    return count


def selected_non_adjacent_pairs(graph, X):
    """Per row of X, the selected pairs that are not edges (mcl violations)."""
    X = np.atleast_2d(np.asarray(X)).astype(np.int64)
    edges = set(map(tuple, graph.edge_array().tolist()))
    count = np.zeros(X.shape[0], dtype=np.int64)
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if (u, v) not in edges:
                count += X[:, u] * X[:, v]
    return count


def cut_edges(graph, X):
    """Per row of X, the edges with exactly one end selected (the cut size)."""
    X = np.atleast_2d(np.asarray(X)).astype(np.int64)
    count = np.zeros(X.shape[0], dtype=np.int64)
    for u, v in graph.edge_array():
        count += X[:, u] != X[:, v]
    return count


def mis_optimum_size(graph):
    bits = all_bitvectors(graph.num_nodes)
    feasible = selected_adjacent_pairs(graph, bits) == 0
    return int(bits.sum(axis=1)[feasible].max())


def maxcut_optimum_size(graph):
    return int(cut_edges(graph, all_bitvectors(graph.num_nodes)).max())


def random_small_graph(rng, n_min=2, n_max=12):
    """Mixed ER/BA instance with a random size, driven by the given rng."""
    n = int(rng.integers(n_min, n_max + 1))
    seed = int(rng.integers(0, 2 ** 31))
    if n >= 3 and rng.random() < 0.5:
        m = int(rng.integers(1, min(3, n - 1) + 1))
        return generate_ba(n, m, seed)
    p = float(rng.uniform(0.1, 0.9))
    return generate_er(n, p, seed)


def reference_er(num_nodes, p, seed):
    """Erdos-Renyi G(n, p) drawn the plain way: one ``rng.random`` call per
    row i of the upper triangle, for the pairs (i, i + 1), ..., (i, n - 1).

    The CSR arrays come from a dense adjacency matrix, so nothing is shared
    with rlsa.graph's edge-list build.
    """
    n = num_nodes
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - i) < p) + i + 1
        dense[i, hits] = True
        dense[hits, i] = True
    offsets = np.concatenate(([0], np.cumsum(dense.sum(axis=1))))
    return Graph(n, offsets, np.nonzero(dense)[1])


def reference_ba(num_nodes, m, seed):
    """Barabasi-Albert graph drawn the plain way, with one ``rng.integers``
    call per candidate. Returns (graph, repeats): ``repeats`` has one entry
    per candidate drawn a second time, the node that drew it.

    The CSR arrays come from a dense adjacency matrix, as in reference_er.
    """
    rng = np.random.default_rng(seed)
    targets = list(range(m))
    repeated = []  # one entry per unit of degree; uniform draws = preferential attachment
    edges = []
    repeats = []
    for src in range(m, num_nodes):
        edges.extend((src, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([src] * m)
        if src + 1 < num_nodes:
            chosen = []
            seen = set()
            while len(chosen) < m:
                cand = repeated[rng.integers(len(repeated))]
                if cand not in seen:
                    seen.add(cand)
                    chosen.append(cand)
                else:
                    repeats.append(src + 1)
            targets = chosen
    n = num_nodes
    dense = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        dense[u, v] = dense[v, u] = True
    offsets = np.concatenate(([0], np.cumsum(dense.sum(axis=1))))
    return Graph(n, offsets, np.nonzero(dense)[1]), repeats


def reference_product(graph, X, weights=None):
    """``A @ X`` per row of X, in float64, from a CSR built here from the
    edge list and the per-edge weights (default all ones)."""
    n = graph.num_nodes
    dense = np.zeros((n, n))
    u, v = graph.edge_array().T
    w = 1.0 if weights is None else np.asarray(weights, dtype=np.float64)
    dense[u, v] = w
    dense[v, u] = w
    X = np.atleast_2d(np.asarray(X)).astype(np.float64)
    return (csr_matrix(dense) @ X.T).T


def per_kind_energy(kind, graph, X, beta=1.02, linear=None, quad_scale=None, weights=None):
    """(energy, gradient, delta) of each row of X, with each kind's energy
    written out on its own in the order of operations of the per-kind code
    the shared form replaced. X keeps its dtype (bool or float64), as the
    model's batches do, and the product comes from ``reference_product``."""
    X = np.ascontiguousarray(X)
    ax = np.ascontiguousarray(reference_product(graph, X, weights))
    quad = (X * ax).sum(axis=1)
    if kind == "mis":
        s = X.sum(axis=1)
        energy = -s + 0.5 * beta * quad
        grad = beta * ax - 1.0
    elif kind == "mcl":
        s = X.sum(axis=1)
        energy = -s + 0.5 * beta * (s * s - s - quad)
        grad = beta * (s[:, None] - X - ax) - 1.0
    elif kind == "mcut":
        deg = graph.degrees().astype(np.float64)
        energy = quad - (X * deg).sum(axis=1)
        grad = 2.0 * ax - deg
    else:
        energy = (X * linear).sum(axis=1) + quad_scale * quad
        grad = 2.0 * quad_scale * ax + linear
    return energy, grad, (2.0 * X - 1.0) * grad


def reference_decode(model, x):
    """Greedy decode with one full flip-drop evaluation per round: flip the
    lowest-index argmax while its drop is positive."""
    arr = np.asarray(x)
    single = arr.ndim == 1
    X = np.atleast_2d(arr).astype(np.float64)
    active = np.ones(X.shape[0], dtype=bool)
    limit = 1000 + 10 * (model.num_nodes + model.graph.num_edges)
    rounds = 0
    while active.any():
        rows = np.flatnonzero(active)
        D = model.delta(X[rows])
        best = np.argmax(D, axis=1)
        gains = D[np.arange(rows.size), best]
        improving = gains > 0
        flip_rows = rows[improving]
        X[flip_rows, best[improving]] = 1.0 - X[flip_rows, best[improving]]
        active[rows[~improving]] = False
        rounds += 1
        if rounds > limit:
            raise RuntimeError("greedy decode did not converge; check model coefficients")
    out = X.astype(np.int8)
    return out[0] if single else out


def full_delta_decode(model, x):
    """Greedy decode one row at a time, rebuilding the whole Delta each
    round from a fresh full product ``A @ x`` in the matrix's dtype: flip
    the lowest-index argmax while its drop is positive. Returns int8 rows
    in the shape of ``x``."""
    X, single = model._as_batch(x)
    X = X.copy()
    A = model._A
    for row in X:
        while True:
            ax = A @ row.astype(A.dtype)
            D = model._delta(row[None], ax[None])[0]
            i = int(np.argmax(D))
            if D[i] <= 0:
                break
            row[i] = not row[i]
    out = X.astype(np.int8)
    return out[0] if single else out


def reference_chain(model, cfg, chain_id):
    """One chain of the annealing engine as a plain loop on a single vector:
    (best_x, best_energy, energy per step, best energy per step, bits
    flipped per step).

    Shares no code with rlsa.sampler: the chain's stream is derived here,
    the d-th largest Delta comes from a full sort, and each flip rule is
    written out in the engine's order of operations, so results can be
    compared bit for bit.

    The chain draws its uniforms as the engine consumes them: under the
    regularized and ld rules on a float Delta, one per live entry, in
    coordinate order, where an entry is live when Delta > a - 80 tau for
    the rule's a = threshold - epsilon (z = (Delta - a) / (2 tau) above
    -40), and a dead entry never flips; otherwise N per step.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chain_id,)))
    n = model.num_nodes
    x = rng.integers(0, 2, size=n).astype(np.float64)
    best_x, best_e = x.copy(), model.energy(x)
    energies, bests, flips = [], [], []
    for t in range(1, cfg.steps + 1):
        tau = cfg.tau0 * (1.0 - (t - 1) / cfg.steps)
        delta = model.delta(x)
        if cfg.kernel == "regularized":
            a = np.sort(delta)[n - cfg.d] - cfg.epsilon
            p = expit((delta - a) / (2.0 * tau))
        elif cfg.kernel == "normalized":
            sig = expit(delta / (2.0 * tau))
            p = np.clip(cfg.d * sig / sig.sum(), 0.0, 1.0)
        elif cfg.kernel == "ld":
            a = tau / cfg.alpha
            p = expit((delta - a) / (2.0 * tau))
        else:
            raise ValueError(f"no reference for kernel {cfg.kernel!r}")
        if cfg.kernel != "normalized" and delta.dtype == np.float64:
            live = delta > a + 2.0 * tau * -40.0
            flip = np.zeros(n, dtype=bool)
            flip[live] = rng.random(np.count_nonzero(live)) < p[live]
        else:
            flip = rng.random(n) < p
        flipped = np.where(flip, 1.0 - x, x)
        flips.append(int((flipped != x).sum()))
        x = flipped
        e = model.energy(x)
        if e < best_e:
            best_x, best_e = x.copy(), e
        energies.append(e)
        bests.append(best_e)
    return best_x, best_e, np.array(energies), np.array(bests), np.array(flips)
