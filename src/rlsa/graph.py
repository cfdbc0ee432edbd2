"""Undirected simple graphs in CSR form, random generators, and instance file I/O.

Instance files are text in one of two formats, each one row of ``_FORMATS``:

=============  ==============  ===========  ==========
format         header          edge line    first node
=============  ==============  ===========  ==========
``edge-list``  ``N M``         ``u v``      0
``dimacs``     ``p edge N M``  ``e u v``    1
=============  ==============  ===========  ==========

The first line that is not all comment is the header, and every later one is
an edge. In both formats, text after ``#`` is a comment, and so is a line
whose first word is ``c``. :func:`parse_instance`, :func:`write_instance` and
:func:`detect_format` read the same table, and :func:`read_instance` takes a
file's format from its content alone: DIMACS when the header opens with
``p``, the edge list otherwise.
"""

from __future__ import annotations

import numpy as np

from ._checks import finite_float, integer


class Graph:
    """Immutable undirected simple graph stored as sorted CSR neighbor lists.

    ``offsets`` has length ``num_nodes + 1`` and ``neighbors`` has length
    ``2 * num_edges`` (each edge appears once per endpoint, neighbor lists
    sorted ascending). Use :func:`from_edge_list` or the generators below to
    construct canonical instances; a graph is safe to share across threads.
    """

    __slots__ = ("num_nodes", "offsets", "neighbors", "_edges", "_csr")

    def __init__(self, num_nodes: int, offsets, neighbors):
        self.num_nodes = int(num_nodes)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int32)
        self._edges = None
        self._csr = None

    @property
    def num_edges(self) -> int:
        return self.neighbors.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors_of(self, node: int) -> np.ndarray:
        return self.neighbors[self.offsets[node]:self.offsets[node + 1]]

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (E, 2) array with u < v, lexicographically sorted."""
        if self._edges is None:
            src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int32), self.degrees()
            )
            keep = src < self.neighbors
            self._edges = np.column_stack((src[keep], self.neighbors[keep]))
        return self._edges

    def adjacency_csr(self):
        """Adjacency matrix as a scipy CSR matrix with unit weights (cached).

        The weights are int16: ones are exact in any numeric type, the value
        array takes a quarter of the bytes of float64, and an energy model
        whose degrees stay below 2**15 multiplies with it as it is.
        """
        if self._csr is None:
            from scipy.sparse import csr_matrix

            data = np.ones(self.neighbors.size, dtype=np.int16)
            self._csr = csr_matrix(
                (data, self.neighbors, self.offsets),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._csr

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def from_edge_list(num_nodes: int, edges) -> Graph:
    """Build a canonical Graph from unordered node pairs.

    Duplicate pairs (in either orientation) collapse to a single edge. Self
    loops, out-of-range endpoints and endpoints of a non-integer dtype raise
    ValueError naming the first such pair in input order; an empty input
    may have any dtype.
    """
    n = integer("num_nodes", num_nodes, 0)
    if not isinstance(edges, np.ndarray):
        edges = list(edges)  # accepts any iterable of pairs, generators included
    pairs = np.asarray(edges)
    if pairs.size and not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError(f"edge endpoints must be integers, got dtype {pairs.dtype}")
    # signed endpoints are used as they come, int32 ones such as
    # Graph.edge_array()'s with no wider copy; unsigned ones are cast to
    # int64, since an unsigned and a signed integer may promote to float
    dtype = pairs.dtype if pairs.dtype.kind == "i" else np.int64
    pairs = pairs.astype(dtype, copy=False).reshape(-1, 2)
    _check_pairs(n, pairs)
    return _csr_from_keys(n, _pair_keys(n, pairs[:, 0], pairs[:, 1]))


def _check_pairs(n: int, pairs, base: int = 0, linenos=None) -> None:
    """Raise ValueError naming the first pair of the (E, 2) signed ``pairs``
    with an endpoint outside ``base .. base + n - 1``, else the first self
    loop; with ``linenos``, the message starts with that pair's line."""
    u, v = pairs[:, 0], pairs[:, 1]
    hi = base + n - 1
    # whole-array reductions; the first offending pair is looked up only
    # when a check fails
    if pairs.size and (pairs.min() < base or pairs.max() > hi):
        i = int(np.flatnonzero((u < base) | (u > hi) | (v < base) | (v > hi))[0])
        what = f"edge ({u[i]}, {v[i]}) out of range for {n} nodes"
        what += " (1-indexed)" if base else ""
    elif (u == v).any():
        i = int(np.flatnonzero(u == v)[0])
        what = f"self loop ({u[i]}, {v[i]}) is not allowed"
    else:
        return
    raise ValueError(what if linenos is None else f"line {linenos[i]}: {what}")


def _index_dtype(top: int):
    """int32 when every index up to ``top`` fits below 2**31, else int64."""
    return np.int32 if top < 2 ** 31 else np.int64


def _pair_keys(n: int, u, v):
    """Both directions' keys src * n + dst of the valid endpoint arrays
    ``u`` and ``v`` (of a signed integer dtype), in one array.

    Keys run up to n * n - 1. They are int32 when n * n < 2**31, that is
    n <= 46340, and int64 otherwise: int32 sorts in about half the time and
    takes half the bytes. The products are formed in the key type, so
    narrower endpoints are never widened and int64 keys never wrap.
    """
    dtype = _index_dtype(n * n)
    m = u.size
    keys = np.empty(2 * m, dtype=dtype)
    fwd, bwd = keys[:m], keys[m:]
    np.multiply(u, n, out=fwd, dtype=dtype)
    fwd += v
    np.multiply(v, n, out=bwd, dtype=dtype)
    bwd += u
    return keys


def _csr_from_keys(n: int, keys) -> Graph:
    """The Graph of the pair keys src * n + dst of ``_pair_keys``, which
    this sorts in place and turns into the neighbor lists.

    Sorting puts the keys in src-major order, so each neighbor list comes
    out ascending. Dropping adjacent repeats (keys are >= 0) gives
    np.unique's output without its slower hash path, and row i starts at
    the first key >= i * n. Every key has 0 <= dst < n, so its dst is the
    key modulo n: ``keys %= n`` turns the sorted keys into the neighbor
    lists in place, with no second array of their size.
    """
    keys.sort()
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if not new.all():
        keys = keys[new]
    offsets = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
    keys %= n
    return Graph(n, offsets, keys.astype(np.int32, copy=False))


# uniforms drawn per call of generate_er's chunked loop
_ER_CHUNK = 2 ** 16


def generate_er(num_nodes: int, p: float, seed: int) -> Graph:
    """Sample an Erdos-Renyi G(n, p) graph.

    Every unordered pair is included independently with probability ``p``.
    Pairs are examined in lexicographic order with one uniform variate each,
    so output is byte-identical for a fixed (n, p, seed) across runs and
    platforms. The variates are drawn in fixed-size chunks over the
    flattened pair index; ``Generator.random`` spends one 64-bit draw per
    variate whatever the call size, so the stream, and the graph, is the
    same as with one call per pair or per row.

    The pair indices of the hits, the row starts and both endpoint arrays
    are int32 when the n (n - 1) / 2 pair indices are below 2**31, that is
    n <= 65536, and int64 above that: every value is at most a pair index,
    and int32 halves the arrays that set the peak memory of the call. The
    endpoint arrays are freed once the keys are made, before the sort.
    """
    n = integer("num_nodes", num_nodes, 0)
    p = finite_float("edge probability", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(integer("seed", seed, 0))
    total = n * (n - 1) // 2
    itype = _index_dtype(total)
    hits = [np.empty(0, dtype=itype)]
    draws = np.empty(min(_ER_CHUNK, total))  # reused by every chunk
    below = np.empty(draws.size, dtype=bool)
    for lo in range(0, total, _ER_CHUNK):
        size = min(_ER_CHUNK, total - lo)
        rng.random(out=draws[:size])
        hit = np.flatnonzero(np.less(draws[:size], p, out=below[:size])).astype(itype)
        hit += lo
        hits.append(hit)
    flat = np.concatenate(hits)
    del hits
    # Row i's pairs (i, i + 1), ..., (i, n - 1) start at pair index
    # starts[i]; the hits are sorted, so one search per row splits them.
    # starts is formed in int64, where i * (2n - i - 1) cannot wrap.
    rows = np.arange(n, dtype=np.int64)
    starts = (rows * (2 * n - rows - 1) // 2).astype(itype)
    counts = np.diff(np.searchsorted(flat, starts), append=flat.size)
    rows = rows.astype(itype)
    u = np.repeat(rows, counts)
    flat -= np.repeat(starts - rows - 1, counts)  # pair index -> column
    keys = _pair_keys(n, u, flat)
    del u, flat
    return _csr_from_keys(n, keys)


# nodes whose candidates generate_ba draws in one call
_BA_CHUNK = 32


def generate_ba(num_nodes: int, m: int, seed: int) -> Graph:
    """Sample a Barabasi-Albert preferential-attachment graph.

    Starts from ``m`` isolated nodes; each subsequent node attaches ``m``
    edges to distinct existing nodes drawn proportionally to degree (the
    first attachment step, where all degrees are zero, connects to all ``m``
    seed nodes). Edge count is exactly ``m * (num_nodes - m)``.

    A node draws candidates uniformly from a list that holds every earlier
    node once per unit of degree, and takes the first ``m`` distinct ones.
    The first ``m`` draws of ``_BA_CHUNK`` upcoming nodes come from one
    ``rng.integers(highs)`` call. A call with an array of highs draws the
    same stream as one scalar call per entry, so output is byte-identical
    for a fixed (n, m, seed) to that of one scalar call per candidate (the
    tests keep that loop as ``reference_ba`` and compare the two byte for
    byte). A node that draws a candidate twice needs more draws than the
    chunk holds: the generator goes back to its state before the chunk,
    draws the chunk's highs again up to the end of that node, and draws the
    node's extra candidates one call at a time; the next chunk starts at
    the next node.
    """
    n = integer("num_nodes", num_nodes, 0)
    m = integer("attachment count", m, 1)
    if not m < n:
        raise ValueError(f"attachment count must satisfy 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(integer("seed", seed, 0))
    # Row k of ``units``, entries 2mk to 2m(k + 1) - 1, holds node m + k's
    # targets, then m copies of m + k. Node src draws from the first
    # 2m (src - m) entries: every earlier node once per unit of degree. That
    # count is also where src's row starts. The copies share one int object
    # per node, so the list holds no more objects than nodes.
    width = 2 * m
    units = [0] * ((n - m) * width)
    units[:m] = range(m)
    nodes = list(range(m, n))
    for j in range(m, width):
        units[j::width] = nodes
    # the high of each of the first m draws of nodes m + 1, ..., n - 1
    every_high = np.repeat(np.arange(1, n - m) * width, m)
    src = m + 1  # the next node to draw its targets
    while src < n:
        stop = min(src + _BA_CHUNK, n)
        highs = every_high[(src - m - 1) * m:(stop - m - 1) * m]
        state = rng.bit_generator.state
        draws = rng.integers(highs).tolist()
        for node in range(src, stop):
            at, row = (node - src) * m, (node - m) * width
            chosen = [units[i] for i in draws[at:at + m]]
            if len(set(chosen)) < m:  # rewind, then draw one at a time
                rng.bit_generator.state = state
                rng.integers(highs[:at + m])  # the draws taken so far
                chosen = list(dict.fromkeys(chosen))
                seen = set(chosen)
                while len(chosen) < m:
                    cand = units[rng.integers(row)]
                    if cand not in seen:
                        seen.add(cand)
                        chosen.append(cand)
                units[row:row + m] = chosen
                stop = node + 1
                break
            units[row:row + m] = chosen
        src = stop
    v = np.array(units, dtype=np.int32).reshape(-1, width)[:, :m].ravel()
    del units, every_high
    keys = _pair_keys(n, np.repeat(np.arange(m, n, dtype=np.int32), m), v)
    del v
    return _csr_from_keys(n, keys)


# Instance file formats: the words that open the header 'N M', the words that
# open each edge line 'u v', and the number of the first node.
_FORMATS = {
    "edge-list": ((), (), 0),
    "dimacs": (("p", "edge"), ("e",), 1),
}


def parse_instance(text: str, fmt: str) -> Graph:
    """Parse an instance from text in ``"edge-list"`` or ``"dimacs"`` format.

    Every error is a ValueError; one about a single line names it.
    """
    header, lead, base = _format(fmt)
    usage = " ".join(header + ("N", "M"))
    raw = text.splitlines()
    lines = _content(raw)
    lineno, words = next(lines, (None, None))
    if words is None:
        raise ValueError(f"missing header {usage!r}")
    k = len(header)
    if len(words) != k + 2 or tuple(words[:k]) != header:
        raise ValueError(f"line {lineno}: expected header {usage!r}")
    n = _int64(words[k], lineno, "node count")
    m = _int64(words[k + 1], lineno, "edge count")
    if n < 0 or m < 0:
        raise ValueError(f"line {lineno}: header counts must be nonnegative")
    found = _edge_lines(raw[lineno:], lead)
    if found is not None:
        pairs, at = found
        linenos = at + lineno + 1  # the line of each edge, for the messages below
    else:  # a line that is not a plain edge line: find it and name it
        k, lead = len(lead), list(lead)
        linenos = []
        tokens = []
        for lineno, words in lines:
            if len(words) != k + 2 or words[:k] != lead:
                raise ValueError(f"line {lineno}: expected edge {' '.join(lead + ['u', 'v'])!r}")
            linenos.append(lineno)
            tokens += words[k:]
        try:
            pairs = np.array(tokens, dtype=np.int64).reshape(-1, 2)
        except (ValueError, OverflowError):
            for i, token in enumerate(tokens):
                _int64(token, linenos[i // 2], "node index")
            raise
    _check_pairs(n, pairs, base, linenos)
    if len(linenos) != m:
        raise ValueError(f"header declares {m} edges but {len(linenos)} edge lines found")
    pairs -= base
    return _csr_from_keys(n, _pair_keys(n, pairs[:, 0], pairs[:, 1]))


def write_instance(graph: Graph, fmt: str) -> str:
    """Serialize a graph so that ``parse_instance(write_instance(g, f), f) == g``."""
    header, lead, base = _format(fmt)
    lines = [" ".join(header + (str(graph.num_nodes), str(graph.num_edges)))]
    lead = "".join(word + " " for word in lead)
    lines.extend(f"{lead}{u} {v}" for u, v in (graph.edge_array() + base).tolist())
    return "\n".join(lines) + "\n"


def detect_format(text: str) -> str:
    """The format whose header word opens the first non-comment line of
    ``text`` (``p``: DIMACS), else the edge list, whose header has no word."""
    _, words = next(_content(text.splitlines()), (None, [""]))
    for fmt, (header, _, _) in _FORMATS.items():
        if header[:1] == (words[0],):
            return fmt
    return "edge-list"


def read_instance(path, fmt: str | None = None) -> Graph:
    """Read an instance file, taking the format from its content when ``fmt``
    is None (see :func:`detect_format`)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_instance(text, detect_format(text) if fmt is None else fmt)


def _format(fmt: str):
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown instance format {fmt!r}") from None


def _content(lines):
    """(line number, words) of each of ``lines`` that is not all comment."""
    for lineno, raw in enumerate(lines, 1):
        words = raw.split("#", 1)[0].split()
        if words and words[0] != "c":
            yield lineno, words


# the control bytes that str.split takes for whitespace, as do all bytes
# 28..32; the place values of an integer of at most 18 digits, which int64
# holds
_SPACE = np.zeros(33, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _edge_lines(lines, lead):
    """(pairs, at): the (E, 2) int64 node pairs of the edge lines among
    ``lines`` and each one's index in ``lines``, read in one vectorized
    pass over their bytes; None when a line that is not all comment is not
    an edge line of the ``lead`` words and two integers of at most 18 ASCII
    digits, so that the per-line parse must look at it.

    Comments are those of ``_content``: a line is cut at its first '#', and
    a line whose first word is 'c' is skipped.
    """
    body = "\n".join(lines) + "\n"
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    space = b <= 32
    if not _SPACE[b[b < 32]].all():  # a control byte inside a word
        return None
    line = np.cumsum(b == 10, dtype=np.int32)  # the line of each byte
    if "#" in body:  # blank each line from its first '#' on
        cut = np.full(len(lines) + 1, b.size)
        hashes = np.flatnonzero(b == 35)
        np.minimum.at(cut, line[hashes], hashes)
        space |= np.arange(b.size) >= cut[line]
    edge = np.ones(b.size + 1, dtype=bool)
    edge[1:] = space
    # each word's first byte and the byte after its last, in turn: the
    # body ends in a newline, so every word ends inside it
    bounds = np.flatnonzero(edge[1:] != edge[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    at = line[starts]
    first = np.ones(at.size, dtype=bool)  # the words that open their line
    np.not_equal(at[1:], at[:-1], out=first[1:])
    comment = first & (ends - starts == 1) & (b[starts] == 99)  # 'c'
    if comment.any():
        keep = ~np.isin(at, at[comment])
        starts, ends, at, first = starts[keep], ends[keep], at[keep], first[keep]
    width = len(lead) + 2
    if at.size % width or not np.array_equal(first, np.arange(at.size) % width == 0):
        return None
    starts, ends = starts.reshape(-1, width), ends.reshape(-1, width)
    for j, word in enumerate(lead):
        want = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
        if ((ends[:, j] - starts[:, j] != want.size).any()
                or (b[starts[:, j, None] + np.arange(want.size)] != want).any()):
            return None
    starts, ends = starts[:, -2:].ravel(), ends[:, -2:].ravel()
    minus = b[starts] == 45  # '-'
    size = ends - starts - minus
    if size.size and (size.min() < 1 or size.max() > _POW10.size):
        return None
    value = np.zeros(size.size, dtype=np.int64)
    for j in range(size.max(initial=0)):  # the digits j places from the right
        digit = b[ends - 1 - j] - 48  # uint8: any byte but a digit wraps above 9
        digit[size <= j] = 0
        if digit.max() > 9:
            return None
        value += digit * _POW10[j]
    np.negative(value, out=value, where=minus)
    return value.reshape(-1, 2), at[::width]


def _int64(token: str, lineno: int, what: str) -> int:
    try:
        return int(np.int64(token))
    except (ValueError, OverflowError):
        raise ValueError(f"line {lineno}: expected 64-bit integer {what}, got {token!r}") from None
