import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from rlsa import (
    from_edge_list,
    generate_ba,
    generate_er,
    parse_instance,
    read_instance,
    write_instance,
)
import rlsa.graph as graph_module
from rlsa.graph import detect_format

from oracles import reference_ba, reference_er, triangle


# -- construction ------------------------------------------------------------

def test_triangle_canonical_form():
    g = triangle()
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert np.array_equal(g.offsets, [0, 2, 4, 6])
    assert np.array_equal(g.neighbors, [1, 2, 0, 2, 0, 1])
    assert np.array_equal(g.degrees(), [2, 2, 2])


def test_duplicate_pairs_collapse():
    g = from_edge_list(2, [(0, 1), (1, 0)])
    assert g.num_edges == 1
    assert np.array_equal(g.neighbors_of(0), [1])


def test_input_order_irrelevant():
    a = from_edge_list(4, [(2, 3), (0, 1), (1, 3)])
    b = from_edge_list(4, [(3, 1), (1, 0), (3, 2)])
    assert a == b


def test_self_loop_rejected():
    with pytest.raises(ValueError, match=r"self loop \(0, 0\)"):
        from_edge_list(3, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(3, [(-1, 2)])


def test_zero_node_graph():
    g = from_edge_list(0, [])
    assert g.num_nodes == 0
    assert g.num_edges == 0


def unique_reference_csr(n, pairs):
    """(offsets, neighbors) through np.unique on both orientations' keys."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    keys = np.unique(np.concatenate((u * n + v, v * n + u)))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
    return offsets, keys % n


def test_from_edge_list_matches_unique_reference():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 3 * n))
        u = rng.integers(0, n, m)
        v = (u + rng.integers(1, n, m)) % n  # no self loops
        pairs = np.column_stack((u, v))
        pairs = np.vstack((pairs, pairs[: m // 3, ::-1], pairs[: m // 4]))  # repeats both ways
        offsets, neighbors = unique_reference_csr(n, pairs)
        # signed endpoints of any width are used as they come, unsigned
        # ones are widened (uint64 with int32 keys would promote to float)
        for edges in (pairs, pairs.tolist(), map(tuple, pairs.tolist()),
                      pairs.astype(np.int8), pairs.astype(np.int32), pairs.astype(np.uint64)):
            g = from_edge_list(n, edges)
            assert np.array_equal(g.offsets, offsets)
            assert np.array_equal(g.neighbors, neighbors)
            assert g.neighbors.dtype == np.int32


@pytest.mark.parametrize("n", [46340, 46341], ids=["int32-keys", "int64-keys"])
def test_from_edge_list_key_width_boundary(n):
    # keys src * n + dst reach n * n - 2 on the edge (n - 1, n - 2): int32
    # holds them up to n = 46340 and would wrap at 46341
    rng = np.random.default_rng(n)
    u = rng.integers(0, n, 500)
    v = (u + rng.integers(1, n, 500)) % n
    pairs = np.column_stack((u, v))
    ends = [(n - 1, n - 2), (n - 2, n - 1), (0, n - 1), (n - 1, 0), (n - 1, 7)]
    pairs = np.vstack((pairs, ends, pairs[:100, ::-1], pairs[:50]))  # repeats both ways
    offsets, neighbors = unique_reference_csr(n, pairs)
    g = from_edge_list(n, pairs)
    assert np.array_equal(g.offsets, offsets)
    assert np.array_equal(g.neighbors, neighbors)
    assert {0, 7, n - 2} <= set(g.neighbors_of(n - 1).tolist())


@pytest.mark.parametrize("reverse", [False, True], ids=["as-given", "reversed"])
def test_from_edge_list_names_the_first_bad_pair_in_input_order(reverse):
    cases = [
        # (edges on 5 nodes, first offending pair as given, error kind)
        ([(0, 1), (2, 7), (-1, 3), (4, 9), (1, 2)], (2, 7), "out of range"),
        ([(0, 1), (3, -2), (9, 1), (4, 5)], (3, -2), "out of range"),
        ([(0, 1), (1, 2), (4, 5)], (4, 5), "out of range"),
        ([(0, 1), (3, 3), (1, 2), (0, 0)], (3, 3), "self loop"),
        ([(4, 4), (2, 2)], (4, 4), "self loop"),
        ([(2, 2), (0, 1), (0, 5)], (0, 5), "out of range"),  # bounds are checked first
    ]
    for edges, (u, v), kind in cases:
        if reverse:
            edges, (u, v) = [(b, a) for a, b in edges], (v, u)
        pattern = re.escape(f"({u}, {v})") + ".*" + kind if kind == "out of range" \
            else kind + ".*" + re.escape(f"({u}, {v})")
        for given in (edges, np.array(edges)):
            with pytest.raises(ValueError, match=pattern):
                from_edge_list(5, given)


@pytest.mark.parametrize("num_nodes, edges", [
    (3, [(0.5, 1)]),
    (3, [(1.9, 0)]),
    (3, [("1", "2")]),
    (3, np.array([[True, False]])),
    (3.7, [(0, 1)]),
    (True, []),
    (-1, []),
], ids=["half", "one-point-nine", "strings", "bool", "float-count", "bool-count", "negative"])
def test_non_integer_inputs_fail_at_construction(num_nodes, edges):
    with pytest.raises(ValueError):
        from_edge_list(num_nodes, edges)


def test_empty_edges_of_any_dtype_are_valid():
    for edges in ([], (), np.empty((0, 2)), np.empty(0, dtype=bool)):
        assert from_edge_list(4, edges) == from_edge_list(4, np.empty((0, 2), dtype=np.int64))


@pytest.mark.parametrize("call", [
    lambda: generate_er(10, True, 0),
    lambda: generate_er(10.0, 0.5, 0),
    lambda: generate_er(10, float("nan"), 0),
    lambda: generate_ba(10, True, 0),
    lambda: generate_ba(10.0, 2, 0),
    lambda: generate_ba(10, 2.0, 0),
    lambda: generate_er(10, 0.5, True),
    lambda: generate_er(10, 0.5, 1.5),
    lambda: generate_er(10, 0.5, "a"),
    lambda: generate_ba(10, 2, True),
    lambda: generate_ba(10, 2, 1.5),
    lambda: generate_ba(10, 2, "a"),
], ids=["er-bool-p", "er-float-n", "er-nan-p", "ba-bool-m", "ba-float-n", "ba-float-m",
        "er-bool-seed", "er-float-seed", "er-str-seed",
        "ba-bool-seed", "ba-float-seed", "ba-str-seed"])
def test_generators_reject_non_integer_counts(call):
    with pytest.raises(ValueError):
        call()


# -- Erdos-Renyi -------------------------------------------------------------

def test_er_forced_inclusion_and_exclusion():
    assert generate_er(2, 1.0, seed=5).num_edges == 1
    assert generate_er(10, 0.0, seed=5).num_edges == 0


def test_er_probability_range_checked():
    with pytest.raises(ValueError):
        generate_er(5, -0.1, seed=0)
    with pytest.raises(ValueError):
        generate_er(5, 1.5, seed=0)


def test_er_deterministic():
    a = generate_er(50, 0.2, seed=7)
    b = generate_er(50, 0.2, seed=7)
    assert a == b
    assert a != generate_er(50, 0.2, seed=8)


@pytest.mark.parametrize("chunk, sizes", [
    # 6 pairs are below one chunk of 7, 15 and 36 just above a multiple,
    # 21 and 28 at one
    (7, [4, 6, 7, 8, 9]),
    # 65341 pairs are just below one chunk of 2**16, 65703 just above
    (2 ** 16, [362, 363]),
])
def test_er_matches_the_per_row_reference_byte_for_byte(monkeypatch, chunk, sizes):
    monkeypatch.setattr(graph_module, "_ER_CHUNK", chunk)
    for n in [0, 1, 2, 3] + sizes:
        for p in (0.0, 0.01, 0.5, 1.0):
            for seed in (0, 1, 5):
                g, ref = generate_er(n, p, seed), reference_er(n, p, seed)
                assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
                assert g.offsets.tobytes() == ref.offsets.tobytes(), (n, p, seed)
                assert g.neighbors.tobytes() == ref.neighbors.tobytes(), (n, p, seed)


def test_er_traced_peak_stays_within_ten_times_the_graph():
    # drawing in chunks and sorting one key array in place keeps the peak
    # of generate_er to a small multiple of the CSR arrays it returns, and
    # generate_ba's list of degree units holds one int object per node
    for generate, args in ((generate_er, (2000, 0.15)), (generate_ba, (2000, 10))):
        for seed in (0, 1):
            tracemalloc.start()
            try:
                g = generate(*args, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = g.offsets.nbytes + g.neighbors.nbytes
            assert peak <= 10 * size, (generate.__name__, seed, peak / size)


def _traced(call, *args):
    """``call(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bounds on the traced peak over the CSR bytes, at seeds 0 and 1:
# generate_ba's is what the int64 set-up read (numpy 2.4.6), which the
# int32 one may not exceed; from_edge_list takes Graph.edge_array()'s int32
# endpoints with no int64 copy and reads about 1.25x (3.24x on ER and 3.48x
# on BA with the copy).
_INT64_SETUP_PEAKS = {"generate_ba": 5.94, "from_edge_list er": 2.0, "from_edge_list ba": 2.0}


def test_setup_peaks_within_three_times_the_graph():
    # int32 pair indices and endpoints, the endpoints freed before the sort
    # and the columns taken in place keep generate_er under 3x the CSR
    # arrays it returns (the int64 set-up read 4.52x on ER(2000, 0.15) and
    # 4.34x on ER(10000, 0.02), the paper's ER-[9000-11000] scale);
    # generate_ba reads no higher than it did, and from_edge_list under 2x
    for seed in (0, 1):
        ratios = {}
        for family, generate, args in (("er", generate_er, (2000, 0.15)),
                                       ("ba", generate_ba, (2000, 10))):
            g, peak = _traced(generate, *args, seed)
            size = g.offsets.nbytes + g.neighbors.nbytes
            ratios[generate.__name__] = peak / size
            rebuilt, peak = _traced(from_edge_list, g.num_nodes, g.edge_array())
            assert rebuilt == g
            ratios[f"from_edge_list {family}"] = peak / size
        assert ratios["generate_er"] <= 3.0, (seed, ratios)
        for name, bound in _INT64_SETUP_PEAKS.items():
            assert ratios[name] <= bound, (seed, name, ratios)
    g, peak = _traced(generate_er, 10000, 0.02, 0)
    size = g.offsets.nbytes + g.neighbors.nbytes
    assert peak <= 3.0 * size, peak / size


@pytest.mark.parametrize("n", [46340, 46341], ids=["int32-keys", "int64-keys"])
def test_pair_keys_take_int32_endpoints_at_either_key_width(n):
    # the generators pass int32 endpoints; at n = 46341 their products
    # src * n reach past 2**31 and must be formed in int64
    u = np.array([n - 1, 0, n - 2, 7], dtype=np.int32)
    v = np.array([n - 2, n - 1, 0, n - 1], dtype=np.int32)
    keys = graph_module._pair_keys(n, u, v)
    assert keys.dtype == (np.int32 if n == 46340 else np.int64)
    wide_u, wide_v = u.astype(np.int64), v.astype(np.int64)
    assert keys.tolist() == np.concatenate((wide_u * n + wide_v, wide_v * n + wide_u)).tolist()


def test_int64_indices_build_the_same_graphs(monkeypatch):
    # above n = 46340 (keys) and n = 65536 (ER pair indices) the set-up runs
    # in int64; forcing int64 on small graphs shows that branch builds the
    # references byte for byte
    monkeypatch.setattr(graph_module, "_index_dtype", lambda top: np.int64)
    monkeypatch.setattr(graph_module, "_ER_CHUNK", 7)
    for n in (0, 1, 2, 9, 40):
        for seed in (0, 1):
            g, ref = generate_er(n, 0.3, seed), reference_er(n, 0.3, seed)
            assert g.offsets.tobytes() == ref.offsets.tobytes(), (n, seed)
            assert g.neighbors.tobytes() == ref.neighbors.tobytes(), (n, seed)
            if n > 2:
                g, (ref, _) = generate_ba(n, 2, seed), reference_ba(n, 2, seed)
                assert g.offsets.tobytes() == ref.offsets.tobytes(), (n, seed)
                assert g.neighbors.tobytes() == ref.neighbors.tobytes(), (n, seed)


def test_er_mean_edges_matches_binomial_expectation():
    # n=700, p=0.15 over 100 seeds: the mean edge count lands within 2% of
    # the binomial expectation p * n * (n - 1) / 2.
    n, p = 700, 0.15
    counts = [generate_er(n, p, seed=s).num_edges for s in range(100)]
    expected = p * n * (n - 1) / 2
    assert abs(np.mean(counts) - expected) < 0.02 * expected


# -- Barabasi-Albert ---------------------------------------------------------

def test_ba_edge_count_closed_form():
    assert generate_ba(5, 1, seed=0).num_edges == 4
    assert generate_ba(2, 1, seed=0).num_edges == 1
    assert generate_ba(300, 4, seed=3).num_edges == 4 * (300 - 4)


def test_ba_m1_is_a_tree():
    g = generate_ba(5, 1, seed=11)
    assert g.num_edges == 4
    # connected: BFS from 0 reaches everything
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors_of(u):
                if int(v) not in seen:
                    seen.add(int(v))
                    nxt.append(int(v))
        frontier = nxt
    assert seen == set(range(5))


def test_ba_parameter_validation():
    with pytest.raises(ValueError):
        generate_ba(5, 0, seed=0)
    with pytest.raises(ValueError):
        generate_ba(5, 5, seed=0)


def test_ba_deterministic():
    assert generate_ba(40, 2, seed=9) == generate_ba(40, 2, seed=9)


def chunk_positions(n, m, chunk, repeats):
    """(position in its chunk, chunk length) of each node that generate_ba
    finds drawing a candidate twice, given the chunks it draws and the
    nodes of ``repeats``: a chunk ends at such a node."""
    nodes = sorted(set(repeats))
    out = []
    src = m + 1
    while src < n:
        stop = min(src + chunk, n)
        hit = next((node for node in nodes if src <= node < stop), None)
        if hit is None:
            src = stop
        else:
            out.append((hit - src, stop - src))
            src = hit + 1
    return out


@pytest.mark.parametrize("chunk", [1, 2, 16, 512])
def test_ba_matches_the_per_candidate_reference_byte_for_byte(monkeypatch, chunk):
    # 512 is above every n below, so each graph starts as one chunk
    monkeypatch.setattr(graph_module, "_BA_CHUNK", chunk)
    positions, repeats = set(), 0
    for n in list(range(2, 41)) + [64, 100, 173, 256, 300]:
        for m in sorted({1, 2, 4, n - 1} & set(range(1, n))):
            for seed in (0, 1, 5):
                g = generate_ba(n, m, seed)
                ref, seen = reference_ba(n, m, seed)
                assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
                assert g.offsets.tobytes() == ref.offsets.tobytes(), (n, m, seed)
                assert g.neighbors.tobytes() == ref.neighbors.tobytes(), (n, m, seed)
                repeats += len(seen)
                positions.update(chunk_positions(n, m, chunk, seen))
    # the sweep takes the rewind, at the first node of a chunk and at the
    # last, of a whole chunk where one fits in the graph
    assert repeats > 100, repeats
    assert any(at == 0 for at, _ in positions)
    assert any(at == size - 1 for at, size in positions)
    if chunk < 300:
        assert (chunk - 1, chunk) in positions


# sha256 of the little-endian bytes of offsets (int64) and neighbors (int32)
# of the benchmark workloads' instances at seeds 0, 1 and 2, computed with
# numpy 2.4.6 and scipy 1.17.1 (the generators use numpy's alone). A
# mismatch means a generator changed its output: such a change alters every
# seeded instance and result, so it must be deliberate and update these.
GOLDEN_GRAPHS = {
    ("er", 800, 0.116): [
        ("9dbc5547c3517c3dd197982e02791ef34032a692aaef79fa5812115853f73759",
         "1f2552e899657861d190619058be2e48868e2e95dd7ac7913a8aafd915891e28"),
        ("73a9b30f896e56fc207872192e3043b95420e49082ecf4a3f032e4e61d855097",
         "5257229193e232f83f04cb8abb9e035c1081b55c6b8ff17f9376998b1f5168ac"),
        ("a09291ca519e463f0b49f6e83e2dfd97b0cd83b0a18a5ceaeaa5f81ec0619cc1",
         "918388e8860f903540cc0603b37cabfc5c464e6593c27f206261d3622af2d929"),
    ],
    ("er", 2000, 0.15): [
        ("5819028b75eb2eeb235faae72cb58ad8ce85941c254435196eda13a650f58243",
         "141b3c59cedba568701b2b8c8148153391b7302f22b9229fee8a2b190715b4f5"),
        ("be3b953a90784beef41778a824fd944fabb270c1d6d4c97228d9f264ec05fa04",
         "227146db1d8bd26eb3e16b09efd5ed46a2b75a0a774130545a2d6a380cce05ca"),
        ("3629d7e093cb6d15aef26a72a50866848a46fb482e701a25b305443814d543bb",
         "544419c36de90ba2b3131f79aa20fb804b4e539f26feaf307d8aef5873061d01"),
    ],
    ("ba", 1000, 4): [
        ("c70ed5cf9d595eea6a17b39e8651be7b4247e54872020c058e9f5d53d77cdbe3",
         "2fdeacaf45dab79ecca5ca89708ffc7251a0e2d1dccd919a42f39ee7f222758e"),
        ("7cbb9e20d6a7a7164c589e8b5f77b7aee80666b5aaf2dc77726679db5b70e163",
         "067a85b54a1806bd0afcd32fb5a7a53a5a2ce70e5c73d6785f1928505c298250"),
        ("5e25ccd54ff90869159cc16f6db542923567e0c837ffcba76e44856762a43f74",
         "f2b76bf509ec9707d3d9beb471bebc1ba3d93ce21bd1d2116e6388ff11f8ebd1"),
    ],
}


@pytest.mark.parametrize("family, n, arg", list(GOLDEN_GRAPHS), ids=str)
def test_benchmark_graphs_match_their_golden_hashes(family, n, arg):
    generate = generate_er if family == "er" else generate_ba
    for seed, expected in enumerate(GOLDEN_GRAPHS[family, n, arg]):
        g = generate(n, arg, seed)
        got = tuple(
            hashlib.sha256(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()).hexdigest()
            for a in (g.offsets, g.neighbors)
        )
        assert got == expected, (family, n, arg, seed)


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        g = generate_er(n, float(rng.uniform(0, 1)), seed=int(rng.integers(1000)))
        assert int(g.degrees().sum()) == 2 * g.num_edges


# -- parsing and writing -------------------------------------------------------

def test_parse_dimacs_triangle():
    g = parse_instance("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "dimacs")
    assert g == triangle()


def test_parse_edge_list_path():
    g = parse_instance("3 2\n0 1\n1 2\n", "edge-list")
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert np.array_equal(g.neighbors_of(1), [0, 2])


def test_parse_edge_list_comments_and_blanks():
    text = "# instance\n3 1\n\n0 2  # an edge\n"
    g = parse_instance(text, "edge-list")
    assert g.num_edges == 1


def test_parse_dimacs_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        parse_instance("p edge 3 1\ne 1 4\n", "dimacs")


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_instance("3 1\n0 x\n", "edge-list")
    with pytest.raises(ValueError, match="line 3"):
        parse_instance("c ok\np edge 3 1\ne 1\n", "dimacs")


def test_parse_dimacs_requires_header():
    with pytest.raises(ValueError, match="p edge"):
        parse_instance("e 1 2\n", "dimacs")
    with pytest.raises(ValueError, match="missing"):
        parse_instance("c nothing here\n", "dimacs")


def test_parse_edge_count_mismatch():
    with pytest.raises(ValueError, match="declares 2 edges"):
        parse_instance("3 2\n0 1\n", "edge-list")


def test_parse_unknown_format():
    with pytest.raises(ValueError, match="unknown instance format"):
        parse_instance("3 0\n", "csv")


def test_write_dimacs_header():
    assert write_instance(triangle(), "dimacs").startswith("p edge 3 3\n")
    assert write_instance(from_edge_list(4, []), "dimacs") == "p edge 4 0\n"


def test_roundtrip_random_graphs():
    rng = np.random.default_rng(4)
    graphs = [generate_ba(50, 2, seed=1)]
    for _ in range(10):
        n = int(rng.integers(2, 60))
        graphs.append(generate_er(n, float(rng.uniform(0, 0.5)), seed=int(rng.integers(1000))))
        if n > 3:
            graphs.append(generate_ba(n, int(rng.integers(1, 3)), seed=int(rng.integers(1000))))
    for g in graphs:
        for fmt in ("edge-list", "dimacs"):
            assert parse_instance(write_instance(g, fmt), fmt) == g


def test_detect_format():
    assert detect_format("c comment\np edge 2 1\ne 1 2\n") == "dimacs"
    assert detect_format("# comment\n2 1\n0 1\n") == "edge-list"


def test_read_instance_sniffs_format(tmp_path):
    d = tmp_path / "g.dimacs"
    d.write_text(write_instance(triangle(), "dimacs"))
    e = tmp_path / "g.txt"
    e.write_text(write_instance(triangle(), "edge-list"))
    assert read_instance(d) == triangle()
    assert read_instance(e) == triangle()


def instance_text(fmt, header, edges):
    """A comment line, then ``header``'s counts and each edge's words in
    ``fmt``; int node indices are shifted to the format's first node."""
    head, lead, base = {"edge-list": ("", "", 0), "dimacs": ("p edge ", "e ", 1)}[fmt]
    lines = ["c instance under test", head + " ".join(header)]
    lines += [lead + " ".join(str(w + base) if isinstance(w, int) else w for w in edge)
              for edge in edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
@pytest.mark.parametrize("header, bad, lineno, pattern", [
    (("3",), (0, 2), 2, "expected header"),
    (("3", "3", "3"), (0, 2), 2, "expected header"),
    (("3", "-1"), (0, 2), 2, "header counts must be nonnegative"),
    (("three", "3"), (0, 2), 2, "integer node count, got 'three'"),
    (("3", "9" * 20), (0, 2), 2, "integer edge count, got '9{20}'"),
    (("3", "3"), (1, "x"), 4, "integer node index, got 'x'"),
    (("3", "3"), (1, "2.0"), 4, r"integer node index, got '2\.0'"),
    (("3", "3"), (1, "9" * 20), 4, "integer node index, got '9{20}'"),
    (("3", "3"), ("-" + "9" * 20, 1), 4, "integer node index"),
    (("3", "3"), (1,), 4, "expected edge"),
    (("3", "3"), (1, 2, 0), 4, "expected edge"),
    (("3", "3"), (1, 3), 4, r"edge \(\d, \d\) out of range for 3 nodes"),
    (("3", "3"), (-1, 2), 4, "out of range"),
    (("3", "3"), (2, 2), 4, r"self loop \((2, 2|3, 3)\)"),
], ids=["short-header", "long-header", "negative-count", "non-integer-count",
        "huge-count", "non-integer-node", "float-node", "huge-node", "huge-negative-node",
        "short-edge", "long-edge", "node-above-range", "node-below-range", "self-loop"])
def test_parse_errors_name_the_line(fmt, header, bad, lineno, pattern):
    # the bad line sits between two good edges, so its line is not the last
    text = instance_text(fmt, header, [(0, 1), bad, (1, 2)])
    with pytest.raises(ValueError, match=f"^line {lineno}: .*{pattern}"):
        parse_instance(text, fmt)


@pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
def test_parse_errors_of_the_whole_file(fmt):
    with pytest.raises(ValueError, match="missing header"):
        parse_instance("c only comments\n# here\n\n", fmt)
    with pytest.raises(ValueError, match="declares 3 edges but 2 edge lines found"):
        parse_instance(instance_text(fmt, ("3", "3"), [(0, 1), (1, 2)]), fmt)


@pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
def test_hash_and_c_comments_in_both_formats(fmt):
    lines = instance_text(fmt, ("3", "2"), [(0, 1), (1, 2)]).splitlines()
    text = "\n".join([
        "# made by hand",
        lines[0],
        lines[1] + "  # header",
        "c between",
        "   ",
        lines[2] + "# first edge",
        "#" + lines[3],
        lines[3],
        "c",
    ]) + "\n"
    assert detect_format(text) == fmt
    assert parse_instance(text, fmt) == from_edge_list(3, [(0, 1), (1, 2)])


def _parsed(text, fmt):
    """The graph's arrays, or the message, that parse_instance gives."""
    try:
        g = parse_instance(text, fmt)
    except ValueError as e:
        return str(e)
    return g.num_nodes, g.offsets.tolist(), g.neighbors.tolist()


def test_vectorized_edge_lines_match_the_per_line_parse(monkeypatch):
    # random texts of edge lines, comments, blank lines, stray words and
    # bad tokens, with spaces, tabs, \x1f, \r\n and \x0b between words or
    # lines: the vectorized pass gives the graph or the message of the
    # per-line parse. It reads most of the texts that parse, and some that
    # fail on a count or a node out of range, whose line it names
    rng = np.random.default_rng(31)
    odd = ["x", "c", "e", "p", "+2", "2.0", "007", "-1", "-", "1-2", "9" * 18, "9" * 19,
           "-" + "9" * 18, "é", "1#2", "\x00"]
    texts = []
    for _ in range(400):
        fmt = ["edge-list", "dimacs"][rng.integers(2)]
        lead, base = (["e"], 1) if fmt == "dimacs" else ([], 0)
        n = int(rng.choice([2, 3, 6, 15, 150]))  # nodes of one to three digits
        lines, edges = [], 0
        for _ in range(int(rng.integers(0, 7))):
            if rng.random() < 0.9:  # an edge, now and then out of range
                pair = rng.choice(n + (rng.random() < 0.05), 2, replace=False) + base
                words = lead + [str(v) for v in pair]
            else:
                words = list(rng.choice(odd, int(rng.integers(0, 4))))
            line = str(rng.choice([" ", "  ", "\t", "\x1f", " \x0b"])).join(words)
            if rng.random() < 0.1:
                line = str(rng.choice(["c ", " "])) + line
            edges += len(words) == len(lead) + 2 and not line.startswith("c ")
            lines.append(line + (" # note" if rng.random() < 0.1 else ""))
        header = ("p edge " if fmt == "dimacs" else "") + f"{n} {edges + (rng.random() < 0.05)}"
        lines.insert(0, header)
        if rng.random() < 0.3:
            lines.insert(0, "c made here")
        texts.append((str(rng.choice(["\n", "\r\n", "\n\n"])).join(lines) + "\n", fmt))
    fast = [_parsed(text, fmt) for text, fmt in texts]
    seen, read = [], []
    edge_lines = graph_module._edge_lines
    monkeypatch.setattr(graph_module, "_edge_lines",
                        lambda *a: seen.append(edge_lines(*a) is not None) or None)
    for (text, fmt), want in zip(texts, fast):
        seen.clear()
        assert _parsed(text, fmt) == want, (text, fmt)
        read.append(any(seen))
    parsed = [not isinstance(f, str) for f in fast]
    assert sum(r and p for r, p in zip(read, parsed)) > 0.8 * sum(parsed)
    assert sum(r and not p for r, p in zip(read, parsed)) > 10  # a bad range or count


@pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_parse_breaks_lines_where_splitlines_does(brk):
    # a line break of str.splitlines other than \n and \r\n, in place of
    # a \n before the header or between two edge lines: the lines parse as
    # str.splitlines splits them, and an error names the line as it
    # numbers them
    for fmt in ("edge-list", "dimacs"):
        comment, header, first, second = instance_text(fmt, ("3", "2"), [(0, 1), (1, 2)]).split("\n")[:4]
        want = from_edge_list(3, [(0, 1), (1, 2)])
        before = comment + brk + "\n".join([header, first, second]) + "\n"
        assert detect_format(before) == fmt
        assert parse_instance(before, fmt) == want
        assert parse_instance("\n".join([comment, header, first]) + brk + second + "\n", fmt) == want
        bad = "\n".join([comment, header, first]) + brk + second + brk + "1\n"
        with pytest.raises(ValueError, match="^line 5: expected edge"):
            parse_instance(bad, fmt)


def test_edge_list_opening_with_a_c_comment_is_an_edge_list(tmp_path):
    text = "c an edge list after all\n3 2\n0 1\n1 2\n"
    assert detect_format(text) == "edge-list"
    for name in ("g.txt", "g.col"):  # the content decides, not the suffix
        path = tmp_path / name
        path.write_text(text)
        assert read_instance(path) == from_edge_list(3, [(0, 1), (1, 2)])
