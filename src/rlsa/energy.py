"""Energy models over binary solution vectors for MIS, max-clique, max-cut, and QUBO.

Every model exposes the penalized energy H(x) to minimize, its closed-form
gradient, and the flip-drop vector Delta with Delta_i = (2x_i - 1) * grad_i.
All four kinds share one multilinear form, so Delta_i is exactly the energy
decrease from flipping coordinate i:

    H(x) = c . x + q * (x^T W x - r * (s^2 - s)),   s = 1 . x,  r in {0, 1}
    grad = c + 2q * (W x - r * (s - x))

    kind  c                  q           r  W
    mis   -1 (integer)       beta / 2    0  adjacency
    mcl   -1 (integer)       -beta / 2   1  adjacency
    mcut  -deg (per node)    1           0  adjacency
    qubo  linear (per node)  quad_scale  0  weighted adjacency

x^T W x counts each selected edge twice and s^2 - s each selected pair, so
the violation of mis and mcl is |x^T W x - r (s^2 - s)| / 2, mcl never
builds the complement graph, and mcut's -H is the cut size. Each kind's
results are bit-identical to its own formula written out: mcl's factored
(-beta/2) * (x^T W x - (s^2 - s)) equals (beta/2) * ((s^2 - s) - x^T W x)
since negation is exact, where r = beta/2 would round beta/2 twice; the
integer c = -1 multiplies integer row sums, which makes no float pass over
the batch and keeps the empty set's energy +0.0 (a float c gives -0.0 for
mcl); and r enters as a subtraction under ``if r``, never as a multiply.

Solutions may come in any numeric or bool dtype, and every batch is bool
inside the model: a bool batch is binary by type and is used as it is
(made C-ordered); every other dtype is checked to hold only 0 and 1 and
converted to bool. So a batch gives the same results, bit for bit, in
whichever dtype it comes.

The model computes its coefficient bounds once, at construction, in one
place, and reads every exactness rule below from them: R, the largest row
sum of |w|, and the sum of |w| (the largest degree and twice the edge count
for unit weights, which take no scan of the weights); whether the weights,
c and 2q are integers; max|c| and sum|c|; the Delta bound B (below); and
the energy bound sum|c| + |q| * (sum|w| + r * N * (N - 1)), which bounds
|H(x)| since |x^T W x| <= sum|w| and 0 <= s^2 - s <= N * (N - 1).

Coefficients that are each finite can still overflow float64 together. So
construction raises ValueError unless 2q, 2B and twice the energy bound are
finite: the flip rule reads Delta - Delta_(d), which can reach 2B, and
decode's gain is a difference of two energies. A model that is built never
turns an energy or a Delta into an infinity or a NaN.

Every evaluation goes through one sparse product ``A @ X``, run in the
narrower of two dtypes that is provably exact. With integer weights and X
binary, every partial sum of a row is an integer no larger than R in
magnitude.

* With integer weights and R below 2**15 the product runs in int16, which
  holds every such sum.
* Otherwise it runs in float64.

So the int16 product equals the float64 product bit for bit once cast, in
a quarter of the bytes. The product is kept in its own dtype and
C-ordered, as the solution batch is, so the elementwise work that follows
it runs on contiguous rows. Each result that reads it stays exact: x^T W x
sums an int16 product in int64, and the gradient casts it into its own
dtype (next paragraph) in the ufunc that scales it. An integer c with sum
|c| below 2**53 gives c . x as one matrix-vector product, exact in any
summation order; a row whose c . x is zero takes the elementwise sum
instead, so that its signed zero is the one the per-kind formula gives.

The same bounds decide whether every Delta is an integer that int16 holds.
Since |(W x)_i| is at most R and 0 <= s - x_i <= N - 1,

    |Delta_i| = |grad_i| <= B = max|c| + |2q| * (R + r * (N - 1)).

When the weights, c and 2q are integers, every term of the gradient is an
integer no larger than B. The model keeps B as ``_delta_bound`` when, in
addition, B and R are both below 2**15, and None otherwise: it is set for
mcut, for qubo with integer ``linear``, weights and ``2 * quad_scale``, and
for mis and mcl at an integer beta. The same test picks the dtype of the
gradient and Delta: int16 when B is kept, float64 otherwise. Each term is
computed in that dtype straight from the product, with c and 2q cast into
it exactly, so an int16 Delta holds the same values as a float64 one
would, in a quarter of the bytes, and the sampler takes its flip mask from
a table (see ``rlsa.sampler``). The gradient and Delta are computed in
place on the one array that each call returns. r enters them through one
m = W x - r (s - x) (``_m``), which is the product itself when r = 0 and
is made in the Delta dtype otherwise; the codes of mis and mcl read the
same m in their own dtype.

Each thread's last product is remembered, as a plain cache. It serves the
public API, decode's scoring and the steps of the engine's public walk
(mcut and qubo, below): a step there needs the energy of the new state
and, at the start of the next step, its Delta; both come from the same
``A @ X``, so the second call reuses the first's product and a step costs
one sparse product, not two. The memo is keyed on the batch's content, not
its identity: a bool copy of the last batch is compared entry by entry, so
a batch changed in place, or of another shape, gets a new product, and a
hit returns exactly the product a fresh model would compute. A miss always
makes the full product: max-cut's integer Deltas tie at Delta_(d), so its
steps flip far more than d bits per chain, and a flip list would cost more
than it saves (``BENCH_cache.json``). The memo is per thread
(``threading.local``) because worker threads run chain blocks on one
shared model. The stored product is read-only; callers that change it copy
it first, in its own dtype.

Each step of a coded walk (below) brings its codes up to date through the
flip list: to each row k it adds +-2 (row j of A) for every node j that
chain k flipped (+ where it set j, - where it cleared it). That is exact:
every partial sum it makes is a code plus twice a sum of w_ij over a
subset of row i's neighbours, which the codes' dtype holds (below), so the
result equals the codes of the full product bit for bit. It pays when each
chain flips few nodes, however many columns the chains flip together, as
in an annealing step that flips about d bits per chain. It reads the rows
one of two ways, each in compiled code:

* A block of chains reads them from a dense int16 copy of A, in one pass
  of a sparse (K, N) matrix of signs times the copy, flips * N adds in
  all. The copy is made on the first such update and shared by every
  thread, and only while its 2 N**2 bytes fit under a cap of 2 MiB
  (N <= 1024).
* Everywhere else, a single chain and every graph above the cap, it
  gathers the flipped nodes' CSR rows, chain by chain, in A's dtype, casts
  them exactly into the codes', signs them and adds them into the codes:
  sum deg(flipped) adds, which never makes the dense copy.

A cost rule picks the flip list or the full product, from which the codes
are then remade: a linear model of each one's time in 1, nnz (times K),
the entries the flip list reads (flips * N, or sum deg(flipped)) and
K * N, fitted on sweeps of batches over ER and BA graphs, K and flips per
chain (``BENCH_flips.json``, ``BENCH_update.json``). The flip list's fixed
part keeps the rule on the full product where that is cheap: on a small or
sparse graph, or when every chain flips many nodes.

Greedy decode (``rlsa.postprocess.greedy_decode``) reads the model
through one contract, ``_descent``: from one product of the batch it
returns each row's state, a key whose argmax is Delta's, the flip that
brings the row, its state and its key up to date, bit for bit, on the
flipped node's neighbours (every node's, for mcl), and a ``keep`` that
hands the memo the decoded batch and its product, taken from the states,
so that scoring the decoded solution makes no product. For mcut and qubo
the state is a copy of the product and the key is Delta itself
(``_flip``).

mis and mcl keep no product and no float Delta. With unit weights and c,
q uniform, Delta_i = (2 x_i - 1) (c + 2q m_i) depends only on x_i and the
integer

    m_i = (W x)_i - r (s - x_i),

which counts i's selected neighbours for mis (0 to the largest degree)
and is minus the count of i's selected non-neighbours for mcl (-(N - 1)
to 0). So the model builds two tables once, indexed by the code
2 (m - m_lo) + x: Delta at every code, and Delta's rank among the distinct
values, shifted so that a rank is positive exactly when Delta is. The
values come from the same ufuncs, in the same order, that ``_delta`` runs
on m (``_slope``, then the sign), so every entry is bit-identical to the
Delta it stands for, and ranks order and tie exactly as Delta does: the
argmax of the ranks, lowest index on ties, is the argmax of Delta. The
table has O(largest degree) entries for mis and O(N) for mcl, so its
ranks are int16 while it has fewer than 2**15 entries and int32 from
there; the codes take the dtype of the walk's update (below), and
decode, which indexes the tables with them a row at a time, intp.
``_descent`` hands decode the codes as each row's state and their
ranks as its key (``_flip_code``); the product the memo keeps after decode
follows from the codes, W x = m + r (s - x) with m = (code >> 1) + m_lo
(``_code_product``).

The annealing engine reads the model through one more private contract,
``_walk``, a block's state from one product. mis and mcl walk on codes,
over an int16 or a float64 product alike: the walk carries one (K, N)
state, the codes, with their ranks as the step's keys and each row's s
and x^T W x; it keeps no product. A step hands it the flip list, the flat
indices of the flipped entries, or a bool mask, which it makes into one.
The walk flips X by scatter and writes the update straight into the
codes (``_add_flips``, with no compare of batches):
+-2 (row j of A) for each flipped node j, where +-(row j) moves W x, then
+-1 at the flipped entries for mis, the flipped bit; for mcl, whose m
also falls by the row's change of s outside i, -2 (that change) across
the row and +-3 at the flipped entries, where m_j keeps its value. Where
the cost rule picks the full product, the codes are remade from it. The
codes are int16 while they hold every partial sum the update makes, and
int32 beyond. Each lies in [-2, 2 (R - m_lo) + 3]: the rows move m by
partial sums of a product, in [-r (N - 1), R], and the shift and the bit
move a code by at most 2 and 3 beyond them. For mis (m_lo = 0, no shift)
every partial sum stays in [0, 2 R + 1], the table's range, so mis codes
are int16 exactly while the tables have fewer than 2**15 entries. The
keys are one take of ``_code_rank``. s and x^T W x move by the flipped
entries alone, in exact int64, with the products before and after read
back from the codes at the flipped entries, as ``_code_product`` reads
them. Its energies are the float expression of ``_energy`` on the
same exact integers, so they are bit-identical to a fresh ``energy``. The
rules read Delta back through the tables at the entries they need, so no
float Delta is made. mcut and qubo walk through the public ``delta`` and
``energy``, once each per step, behind the memo, with Delta itself as
their keys.
"""

from __future__ import annotations

import math
import threading

import numpy as np
# scipy's compiled kernels behind csr_matrix @ ndarray (Y += A X), A[rows]
# (gathers CSR rows) and toarray(out=) (adds a CSR matrix into a dense
# one): the flip list adds into a coded walk's codes with them, which
# saves the public paths' checked matrices and zeroed results
# (BENCH_flips.json, BENCH_update.json)
from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
from scipy.sparse._sparsetools import csr_row_index as _csr_row_index
from scipy.sparse._sparsetools import csr_todense as _csr_todense

from ._checks import finite_array, finite_float, positive
from .graph import Graph

KINDS = ("mis", "mcl", "mcut", "qubo")


def check_beta(kind: str, beta) -> float:
    """``beta`` as a float; raises ValueError unless it is finite and
    positive, and above 1 for mis and mcl so local optima are feasible."""
    out = positive("beta", beta)
    if kind in ("mis", "mcl") and out <= 1.0:
        raise ValueError(
            f"beta must exceed 1 for {kind} so local optima are feasible, got {beta}"
        )
    return out


class EnergyModel:
    """Problem kind + graph + coefficients; all evaluation methods are pure.

    Kinds, each a row (c, q, r, W) of the table in the module docstring,
    built once here for H(x) = c . x + q * (x^T W x - r * (s^2 - s)):
      * ``mis``  -- minus the selected-set size plus ``beta`` per selected
        adjacent pair; requires ``beta > 1`` so every local optimum is an
        independent set.
      * ``mcl``  -- minus the selected-set size plus ``beta`` per selected
        NON-adjacent pair (max clique); requires ``beta > 1``. Its q = -beta/2
        and r = 1 are factored so the penalty rounds beta/2 only once.
      * ``mcut`` -- minus the cut size; ``beta`` is accepted but unused.
      * ``qubo`` -- ``linear . x + quad_scale * x^T A x`` with optional
        per-edge weights on A; ``beta`` is unused.

    Methods accept a single solution of shape (N,) or a batch of shape
    (B, N); batched calls return one value per row.
    """

    def __init__(
        self,
        kind: str,
        graph: Graph,
        beta: float = 1.02,
        linear=None,
        quad_scale: float | None = None,
        edge_weights=None,
    ):
        kind = str(kind).lower()
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}, expected one of {KINDS}")
        self.kind = kind
        self.graph = graph
        self.beta = check_beta(kind, beta)

        if kind == "qubo":
            if linear is None or quad_scale is None:
                raise ValueError("qubo models require both 'linear' and 'quad_scale'")
            linear = finite_array("linear", linear)
            if linear.shape != (graph.num_nodes,):
                raise ValueError(
                    f"linear coefficients have shape {linear.shape}, "
                    f"expected ({graph.num_nodes},)"
                )
            quad_scale = finite_float("quad_scale", quad_scale)
        elif linear is not None or quad_scale is not None or edge_weights is not None:
            raise ValueError(f"linear/quad_scale/edge_weights only apply to qubo, not {kind}")
        deg = graph.degrees()
        # (c, q, r) of H(x) = c . x + q (x^T W x - r (s^2 - s)); see the module docstring
        self._c, self._q, self._r = {
            "mis": (-1, 0.5 * self.beta, 0),
            "mcl": (-1, -0.5 * self.beta, 1),
            "mcut": (-deg.astype(np.float64), 1.0, 0),
            "qubo": (linear, quad_scale, 0),
        }[kind]
        self._penalized = kind in ("mis", "mcl")  # the quadratic term counts violations
        # Every coefficient bound, once, in Python floats (see the module
        # docstring): max|c| and sum|c|, R = the largest row sum of |w| and
        # w_sum = the sum of |w|, which of c and w are integers, B and the
        # energy bound.
        c, n, r, two_q = self._c, graph.num_nodes, self._r, 2.0 * self._q
        c_max, c_sum, c_int = 1.0, float(n), True  # mis and mcl: c = -1
        if isinstance(c, np.ndarray):
            abs_c = np.abs(c)
            with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
                c_sum = float(abs_c.sum())
            c_max, c_int = float(abs_c.max(initial=0)), _is_integer(c)
        if edge_weights is None:
            # unit weights: integers, and the row sums of |w| are the degrees
            A, w_int = graph.adjacency_csr(), True
            R, w_sum = float(deg.max(initial=0)), 2.0 * graph.num_edges
        else:
            A = _weighted_csr(graph, edge_weights)
            with np.errstate(over="ignore"):
                rows = abs(A).sum(axis=1)
                R, w_sum = (float(rows.max()), float(rows.sum())) if A.nnz else (0.0, 0.0)
            w_int = _is_integer(A.data)
        B = c_max + abs(two_q) * (R + r * (n - 1))
        h_bound = c_sum + abs(self._q) * (w_sum + r * n * (n - 1))
        # Delta - Delta_(d) reaches 2B and a difference of energies 2 h_bound
        if not all(map(math.isfinite, (two_q, 2 * B, 2 * h_bound))):
            raise ValueError(f"{kind} coefficients overflow: max|c| = {c_max:g}, 2q = {two_q:g} and "
                             f"row sums of |w| up to {R:g} give |Delta| <= {B:g} and |H| <= "
                             f"{h_bound:g}, and twice each must be finite in float64")
        # an integer per-node c takes c . x as one matvec
        self._c_matvec = isinstance(c, np.ndarray) and c_int and c_sum < _EXACT_FLOAT64
        # integer weights with R below 2**15 give an int16 product, and with
        # it how _flip updates a product
        self._A = A.astype(np.int16 if w_int and R < _EXACT_INT16 else np.float64, copy=False)
        # the dense int16 rows of A that a coded walk's flip list reads
        # where they fit under the cap, made on the first such update
        self._rows = None
        self._rows_made = threading.Lock()
        # B is kept when int16 holds every term of Delta, and with it the
        # gradient's and Delta's dtype is int16
        exact = self._A.dtype == np.int16 and c_int and two_q.is_integer() and B < _EXACT_INT16
        self._delta_bound = B if exact else None
        self._delta_dtype = np.int16 if exact else np.float64
        self._memo = threading.local()  # this thread's last batch and its product
        if self._penalized:
            # Delta's value and rank at each code 2 (m - m_lo) + x (see the
            # module docstring), where m counts selected neighbours (mis) or
            # minus selected non-neighbours (mcl)
            self._m_lo = -max(n - 1, 0) if r else 0
            m = np.arange(self._m_lo, 1 if r else int(R) + 1).repeat(2)
            x = np.tile([False, True], m.size // 2)
            self._code_delta = _signed(self._slope(m, c), x)
            self._code_rank = _rank_table(self._code_delta)
            # the codes' dtype: int16 while it holds every partial sum of
            # a walk's update, which lies in [-2, 2 (R - m_lo) + 3]
            self._code_dtype = np.int16 if 2 * (R - self._m_lo) + 3 < _EXACT_INT16 else np.int32
            # Delta at each rank r, as _rank_delta[r - _rank_lo]: the walk
            # reads thresholds and live cuts between ranks and Delta with it
            self._rank_delta = np.unique(self._code_delta)
            self._rank_lo = int(self._code_rank.min())

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    # -- evaluation ---------------------------------------------------------

    def energy(self, x):
        """H(x); float for a single solution, (B,) array for a batch."""
        X, single = self._as_batch(x)
        e = self._energy(X)
        return float(e[0]) if single else e

    def gradient(self, x):
        """Closed-form gradient of H at x, same shape as x.

        int16 when the model bounds every entry below 2**15 (``_delta_bound``
        is set: mcut, integer qubo, mis and mcl at an integer beta), float64
        otherwise; either way the values equal the float64 formula's. The
        int16 values fit with no headroom: widen them before further
        arithmetic.
        """
        X, single = self._as_batch(x)
        g = self._gradient(X)
        return g[0] if single else g

    def delta(self, x):
        """Flip-drop vector: delta_i = (2x_i - 1) * grad_i = H(x) - H(flip_i(x)).

        In the gradient's dtype: int16 when ``_delta_bound`` is set, float64
        otherwise, with the same values either way. The int16 values fit
        with no headroom: widen them before further arithmetic.
        """
        X, single = self._as_batch(x)
        d = self._delta(X)
        return d[0] if single else d

    def objective(self, x):
        """Set, clique or cut size (-H of a feasible x); raises on infeasible mis/mcl and qubo."""
        if self.kind == "qubo":
            raise ValueError("qubo models have no canonical objective")
        X, single = self._as_batch(x)
        viol = self._violation(X)
        if (viol > 0).any():
            raise ValueError(
                f"objective is undefined for infeasible {self.kind} solutions "
                f"(violation={int(viol.max())})"
            )
        obj = (-self._energy(X)).astype(np.int64)  # the penalty is 0: exact integers
        return int(obj[0]) if single else obj

    def violation(self, x):
        """Count of violated constraints: selected adjacent pairs for mis,
        selected non-adjacent pairs for mcl, always 0 for mcut/qubo."""
        X, single = self._as_batch(x)
        viol = self._violation(X)
        return int(viol[0]) if single else viol

    # -- internals ----------------------------------------------------------

    def _as_batch(self, x):
        arr = np.asarray(x)
        if arr.ndim == 1:
            arr = arr[None, :]
            single = True
        elif arr.ndim == 2:
            single = False
        else:
            raise ValueError(f"solutions must be 1-D or 2-D, got ndim={arr.ndim}")
        if arr.shape[1] != self.num_nodes:
            raise ValueError(
                f"solution length {arr.shape[1]} does not match graph with "
                f"{self.num_nodes} nodes"
            )
        # a bool batch is binary by type: no check, no conversion
        if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("solution entries must all be 0 or 1")
        # C order: row sums then run in one order whatever the caller's layout
        return np.ascontiguousarray(arr, dtype=bool), single

    def _ax(self, X):
        # (B, N) bool -> (B, N) in the matrix's dtype, C-ordered and
        # read-only. Callers read an int16 product through exact arithmetic
        # only (see the module docstring). A batch equal to this thread's
        # last one returns the stored product; any other gets a new one,
        # which the memo then keeps.
        memo = self._memo
        key = getattr(memo, "key", None)
        if key is not None and np.array_equal(key, X):
            return memo.ax
        ax = self._product(X)
        self._remember(X, ax)
        return ax

    def _product(self, X):
        # the full product of the bool batch X as a new C-ordered array in
        # A's dtype; per-column CSR accumulation keeps each row's result
        # independent of the batch size
        A = self._A
        # transpose in bool, then cast: casting a strided bool transpose
        # directly is several times slower
        P = A @ np.ascontiguousarray(X.T).astype(A.dtype, copy=False)
        return np.ascontiguousarray(P.T)

    def _add_flips(self, out, at, sign, start):
        # out += S @ A in place on the (K, N) codes ``out``, with S the
        # sparse (K, N) matrix that holds sign[e], in out's dtype, at the
        # flat index at[e] of the sorted flip list (A is symmetric): row k
        # gains sign * (row j of A) for each node j that chain k flipped,
        # chain k's flips being at[start[k]:start[k + 1]]. False, with out
        # untouched, where the full product costs less (_flips_pay). Exact
        # while each partial sum of an entry stays in out's dtype (see the
        # module docstring). A block reads the rows from the dense int16 A
        # where it fits under the cap, and everywhere else from A's CSR
        # rows.
        A = self._A
        K, N = out.shape
        dense = K > 1 and 2 * N * N <= _DENSE_ROWS_BYTES
        if dense and not _flips_pay(at.size * N, A.nnz, K, N, True):
            return False
        idx = A.indices.dtype
        nodes = (at % N).astype(idx)
        if not dense:
            # the flipped nodes' CSR rows, chain by chain in flat order:
            # chain k's run ends at its and earlier chains' flipped degrees
            deg = A.indptr[nodes + 1] - A.indptr[nodes]
            ends = np.cumsum(deg, dtype=np.int64)
            if ends[-1] > np.iinfo(idx).max or not _flips_pay(ends[-1], A.nnz, K, N, False):
                return False
        if dense:
            with self._rows_made:  # made once, then shared read-only by every thread
                if self._rows is None:
                    self._rows = A.toarray()
                    self._rows.flags.writeable = False
            _csr_matvecs(K, N, N, start, nodes, sign, self._rows, out)
        else:
            cols, vals = np.empty(ends[-1], dtype=idx), np.empty(ends[-1], dtype=A.dtype)
            _csr_row_index(at.size, nodes, A.indptr, A.indices, A.data, cols, vals)
            vals = vals.astype(out.dtype, copy=False)
            vals *= np.repeat(sign, deg)
            # adds into out, and sums a column that two rows of one chain share
            _csr_todense(K, N, np.concatenate(([0], ends))[start].astype(idx), cols, vals, out)
        return True

    def _walk(self, X):
        """The annealing engine's state of the bool block ``X``, which it
        takes over and flips in place (see the module docstring). The flip
        rules read it through ``keys()``, the step's keys, which order and
        tie as Delta does; ``integer``, whether every Delta is an integer
        that int16 holds; ``value(keys)``, Delta at each key; and
        ``cut(c)``, for a (K, 1) column of cuts in Delta units, the column
        of keys that Delta > c means. ``energy`` holds the block's
        energies, and ``advance(flips)`` applies a step's flips, a bool
        mask or a sorted flat flip list, and returns the new energies and
        the flips per chain.

        mis and mcl walk on codes (``_CodeWalk``): the keys are the codes'
        ranks. mcut and qubo walk through the public ``delta`` and
        ``energy`` (``_PublicWalk``): the keys are Delta itself.
        """
        if self._penalized:
            return _CodeWalk(self, X)
        return _PublicWalk(self, X)

    def _descent(self, X):
        """``(states, keys, flip, keep)`` for greedy decode of the bool
        batch ``X``, from one product (see the module docstring).

        A row's key orders and ties as its Delta does and is positive
        exactly where Delta is. ``flip(x, state, key, i)`` flips bit ``i``
        of the row ``x`` in place and leaves its state and key equal, bit
        for bit, to a fresh ``_descent`` of the flipped row. ``keep()``,
        called once decode is done with ``X``, hands this thread's memo
        ``X`` and its product, taken from the states, so that scoring the
        decoded batch makes no product. The states of mcut and qubo copy
        the product, which the memo keeps read-only.
        """
        ax = self._ax(X)
        if self._penalized:
            # intp: _flip_code indexes the tables with them, one row at a time
            codes = self._codes(X, ax).astype(np.intp)
            return (codes, self._code_rank.take(codes), self._flip_code,
                    lambda: self._remember(X, self._code_product(X, codes)))
        ax = ax.copy()
        return ax, self._delta(X, ax), self._flip, lambda: self._remember(X, ax)

    def _remember(self, X, ax):
        # this thread's memo: a copy of the bool batch X and its product,
        # read-only from here on
        ax.flags.writeable = False
        self._memo.key = X.copy()
        self._memo.ax = ax

    def _row(self, i):
        """Node ``i``'s neighbours, in the order of row ``i`` of A, as intp
        indices; A is symmetric, so row i lists column i."""
        A = self._A
        lo, hi = A.indptr[i], A.indptr[i + 1]
        # indexing converts int32 indices on every use, so convert them
        # once; fancy indexing beats take and put at a few hundred entries
        return A.indices[lo:hi].astype(np.intp)

    def _flip(self, x, ax, D, i):
        """Flip bit ``i`` of the single solution ``x`` in place and bring
        ``ax == self._ax(x)`` and ``D == self._delta(x, ax)`` up to date,
        touching only i's neighbours: the flip of ``_descent`` for mcut and
        qubo, whose r is 0.

        Every value is bit-identical to a fresh computation. An int16
        ``ax`` adds or subtracts column i, exact since every partial sum
        stays below 2**15 in magnitude; a float64 one has the neighbour
        rows recomputed in the full product's CSR order. Delta_i is negated
        (grad_i does not read x_i, and negation is exact) and Delta is
        recomputed on the neighbours alone, by the ufuncs of ``_delta``,
        which act entry by entry.
        """
        A = self._A
        x[i] = not x[i]
        nbrs = self._row(i)
        if A.dtype == np.int16:
            part = ax[nbrs]
            w = A.data[A.indptr[i]:A.indptr[i + 1]]
            (np.add if x[i] else np.subtract)(part, w, out=part)
        else:
            part = A[nbrs] @ x
        ax[nbrs] = part
        D[i] = -D[i]
        c = self._c[nbrs] if isinstance(self._c, np.ndarray) else self._c
        D[nbrs] = _signed(self._slope(part, c), x[nbrs])

    def _codes(self, X, ax):
        """The codes 2 (m - m_lo) + x of a bool batch of a mis or mcl model
        and its product ``ax``, in ``_code_dtype``: each entry indexes its
        Delta in ``_code_delta`` and its rank in ``_code_rank``."""
        dt = self._code_dtype
        code = np.subtract(self._m(X, ax, dt), self._m_lo, dtype=dt, casting="unsafe")
        code *= 2
        code += X
        return code

    def _code_product(self, X, codes):
        """The product ``A @ X`` of a mis or mcl batch from its codes, the
        inverse of ``_codes``: W x = m + r (s - x) with m = (code >> 1) +
        m_lo, an integer no larger than R, cast exactly into A's dtype."""
        ax = np.right_shift(codes, 1)
        ax += self._m_lo
        if self._r:
            ax += _row_counts(X)[:, None]
            ax -= X
        return ax.astype(self._A.dtype)

    def _flip_code(self, x, code, key, i):
        """Flip bit ``i`` of one solution of a mis or mcl model, given as
        its row ``x`` and its codes ``code`` (``_codes``), in place: x_i
        becomes the flipped code's low bit, and ``code`` and
        ``key == self._code_rank.take(code)`` come up to date. The flip of
        ``_descent`` for mis and mcl.

        m_i keeps its value: no node neighbours itself, and for mcl s and
        x_i move together. Setting x_i moves the codes by 2 per unit of m:
        mis adds one to its neighbours' m (unit weights); mcl adds one to s,
        which lowers m outside i and its neighbours, whose selected
        neighbour count rises with s. Clearing x_i moves them back.
        """
        nbrs = self._row(i)
        ci = int(code[i]) ^ 1
        step = 2 if ci & 1 else -2
        x[i] = ci & 1
        code[i] = ci
        rank = self._code_rank
        if self._r:
            code -= step
            code[nbrs] += step
            code[i] = ci
            rank.take(code, out=key)
        else:
            part = code[nbrs]
            part += step
            code[nbrs] = part
            key[nbrs] = rank[part]
            key[i] = rank[ci]

    def _energy(self, X):
        c = self._c
        if not np.ndim(c):  # uniform c: integer row sums, no float pass
            return self._uniform_energy(_row_counts(X), self._quad(X))
        if self._c_matvec:
            cx = X @ c  # exact: an integer c with sum |c| below 2**53
            zero = cx == 0
            if zero.any():  # the signed zero of the elementwise sum
                cx[zero] = (X[zero] * c).sum(axis=1)
        else:
            cx = (X * c).sum(axis=1)
        return cx + self._q * self._quad(X)  # r = 0: the pairs are x^T W x

    def _uniform_energy(self, s, quad):
        # H = c s + q (x^T W x - r (s^2 - s)) of mis and mcl from each row's
        # integer s and x^T W x
        return self._c * s + self._q * self._pairs(s, quad)

    def _pairs(self, s, quad):
        # x^T W x - r (s^2 - s) per row, from each row's s and x^T W x
        return quad - (s * s - s) if self._r else quad

    def _quad(self, X):
        # x^T W x per row: an integer product sums exactly in int64, any
        # other in float64
        ax = self._ax(X)
        return (X * ax).sum(axis=1, dtype=np.int64 if ax.dtype.kind == "i" else np.float64)

    def _delta(self, X, ax=None):
        return _signed(self._gradient(X, ax), X)

    def _gradient(self, X, ax=None):
        # ``ax``, if given, is a caller-maintained copy of self._ax(X) in
        # its dtype; it must equal the full product exactly for the result
        # to match. A fresh m is scaled in place.
        if ax is None:
            ax = self._ax(X)
        m = self._m(X, ax, self._delta_dtype)
        return self._slope(m, self._c, out=None if m is ax else m)

    def _m(self, X, ax, dtype):
        # m = W x - r (s - x) of the bool batch X and its product ax: ax
        # itself when r = 0, and otherwise a new array in ``dtype``, which
        # holds it exactly (the Delta dtype, or the codes' dtype)
        if not self._r:
            return ax
        m = np.subtract(_row_counts(X)[:, None], X, dtype=dtype)
        return np.subtract(ax, m, out=m, dtype=dtype, casting="unsafe")

    def _slope(self, m, c, out=None):
        # the gradient c + 2q m from m = W x - r (s - x), as one array in
        # the model's Delta dtype (``out``, if given); m, c and 2q are cast
        # into that dtype in the ufuncs that read them, exactly (in int16,
        # each is an integer below 2**15, as is every intermediate term).
        # c + 2q m equals (2q m) + c since addition and multiplication
        # commute exactly. The code tables run this on every m they hold,
        # and _flip on the entries of i's neighbours with their c.
        dt = self._delta_dtype
        g = np.multiply(m, 2.0 * self._q, out=out, dtype=dt, casting="unsafe")
        return np.add(g, c, out=g, dtype=dt, casting="unsafe")

    def _violation(self, X):
        if not self._penalized:
            return np.zeros(X.shape[0], dtype=np.int64)
        # every violated pair is counted twice; the count is an exact integer
        return (np.abs(self._pairs(_row_counts(X), self._quad(X))) / 2).astype(np.int64)

    def __repr__(self) -> str:
        return f"EnergyModel(kind={self.kind!r}, graph={self.graph!r}, beta={self.beta})"


# int16 holds every integer below 2**15 in magnitude, float64 every one up
# to 2**53
_EXACT_INT16 = 2.0 ** 15
_EXACT_FLOAT64 = 2.0 ** 53
# The dense int16 rows of A that a block's flip list reads take 2 N**2
# bytes; they are made only while that stays under this cap (N <= 1024)
_DENSE_ROWS_BYTES = 2 ** 21
# The cost in ns of bringing a (K, N) block up to date in a step of the
# coded walk: as coefficients of (1, nnz, nnz * K, K * N) for the full
# product, and of (1, entries read, K * N) for the flip list, which reads
# flips * N entries through the dense rows and the sum of the flipped
# nodes' degrees through the CSR rows. Fitted on sweeps of K, N and flips
# per chain over ER and BA graphs, for an int16 product, which the flip
# list reads as it reads the codes (BENCH_flips.json, BENCH_update.json).
_FULL_NS = (37e3, 0.77, 0.13, 2.2)
_FLIPS_NS = (39e3, 0.18, 1.3)
_CSR_NS = (36e3, 2.4, 0.71)


def _flips_pay(work, nnz, K, N, dense) -> bool:
    """Whether the flip list brings the codes of a (K, N) block up to
    date for less than the full product over A's ``nnz`` nonzeros: it
    reads ``work`` entries, through the dense rows if ``dense`` and A's
    CSR rows otherwise."""
    f0, f1, f2, f3 = _FULL_NS
    g0, g1, g2 = _FLIPS_NS if dense else _CSR_NS
    return g0 + g1 * work + g2 * K * N < f0 + nnz * (f1 + f2 * K) + f3 * K * N


def _row_counts(X):
    """The count of True entries in each row of the bool batch ``X``, as
    int64. Summed through a uint8 view into int32, which holds any row's
    count, at about twice the speed of a bool sum into int64."""
    return X.view(np.uint8).sum(axis=1, dtype=np.int32).astype(np.int64)


class _PublicWalk:
    """An mcut or qubo block's walk through the public ``delta`` and
    ``energy``: each step calls each of them once on the whole block, and
    ``delta`` reuses the product that the last ``energy`` left in the memo.
    Its keys are Delta itself, so ``value`` and ``cut`` return them as they
    are."""

    def __init__(self, model, X):
        self.model, self.X = model, X
        self.integer = model._delta_bound is not None  # int16 Delta: the table mask
        self.energy = model.energy(X)

    def keys(self):
        """This step's Delta."""
        return self.model.delta(self.X)

    def value(self, keys):
        return keys

    cut = value

    def advance(self, flips):
        """Flip the block at ``flips``, a bool mask or a sorted flat flip
        list; the new energies and the flips per chain."""
        if flips.dtype == bool:
            self.X ^= flips
            counts = _row_counts(flips)
        else:
            K, N = self.X.shape
            self.X.reshape(-1)[flips] ^= True
            counts = np.diff(np.searchsorted(flips, np.arange(K + 1) * N))
        return self.model.energy(self.X), counts


class _CodeWalk:
    """A mis or mcl block's walk on codes, from one product: the codes 2 (m
    - m_lo) + x (``EnergyModel._codes``), their ranks (the keys), and per
    row s and x^T W x (``quad``), each equal, bit for bit and in dtype, to
    a fresh computation of the current ``X``.

    ``advance`` takes a step's flip list, flat indices in ascending order,
    or a bool mask, which it makes into one. It flips X by scatter and
    writes the update straight into the codes (see the module docstring):
    +-2 (row j of A) for each flipped node j through
    ``EnergyModel._add_flips``, then +-1 at the flipped entries for mis,
    or -2 (the row's change of s) across the row and +-3 at the flipped
    entries for mcl; or it remakes the codes from the full product, where
    ``_add_flips`` finds that cheaper. The sign of a flip is the old
    code's low bit. s and x^T W x move by the flipped entries alone, in
    int64: setting or clearing node j (sign +-1) moves s by that sign, and
    flipping a row's set F moves x^T W x by sum over j in F of sign_j ((W
    x)_j + (W x')_j), the product before and after, which the codes give
    back at j as (code >> 1) + m_lo + r (s - x_j). The ranks are one take
    of the codes, and the energies are the float expression of
    ``EnergyModel._energy``, c s + q (x^T W x - r (s^2 - s)).
    """

    def __init__(self, model, X):
        self.model, self.X = model, X
        self.integer = model._delta_bound is not None  # int16 Delta: the table mask
        ax = model._product(X)
        self.s = _row_counts(X)
        self.quad = (X * ax).sum(axis=1, dtype=np.int64)
        self.codes = model._codes(X, ax)
        self.ranks = model._code_rank.take(self.codes)
        self.energy = model._uniform_energy(self.s, self.quad)

    def keys(self):
        """The ranks of the block's codes: ordered and tied as Delta is."""
        return self.ranks

    def value(self, ranks):
        """Delta at each of ``ranks``, in the model's Delta dtype."""
        return self.model._rank_delta.take(ranks - self.model._rank_lo)

    def cut(self, cut):
        """For a (K, 1) column of cuts in Delta units, the column of ranks
        that Delta > cut means: Delta > cut[k] exactly where the rank
        exceeds the result's k-th entry."""
        m = self.model
        above = np.searchsorted(m._rank_delta, cut[:, 0], side="right")
        return (above + (m._rank_lo - 1)).astype(self.ranks.dtype)[:, None]

    def advance(self, at):
        """Apply the step's flip list ``at``, or the flip list of a bool
        mask; the new energies and the flips per chain."""
        if at.dtype == bool:
            at = np.flatnonzero(at)
        K, N = self.X.shape
        start = np.searchsorted(at, np.arange(K + 1) * N)
        if at.size:
            m, X, codes = self.model, self.X, self.codes
            X.reshape(-1)[at] ^= True
            old = codes.reshape(-1)[at]
            sign = 1 - ((old & 1) << 1)  # +1 where the step sets x_j
            ds = _chain_sums(sign, start)
            if not m._add_flips(codes, at, sign * 2, start):
                codes = self.codes = m._codes(X, m._product(X))
                new = codes.reshape(-1)[at]
            else:
                if m._r:
                    codes -= (2 * ds).astype(codes.dtype)[:, None]
                new = codes.reshape(-1)[at]
                new += sign * 3 if m._r else sign
                codes.reshape(-1)[at] = new
            moved = np.add(old >> 1, new >> 1, dtype=np.int64)
            moved *= sign
            dquad = _chain_sums(moved, start)
            if m._r:  # the r (s - x_j) of both products: x_j + x'_j = 1
                dquad += (2 * (m._m_lo + self.s) + ds - 1) * ds
            self.s += ds
            self.quad += dquad
            # every code is in range; mode="clip" writes to ``ranks`` directly
            m._code_rank.take(codes, out=self.ranks, mode="clip")
            self.energy = m._uniform_energy(self.s, self.quad)
        return self.energy, start[1:] - start[:-1]


def _chain_sums(values, start):
    """Each chain's sum of ``values`` in int64, chain k's at ``start[k]``
    up to ``start[k + 1]``; one reduceat over the values and a zero, which
    a chain whose entries are all at the end of the list starts at."""
    padded = np.zeros(values.size + 1, np.int64)
    padded[:-1] = values
    sums = np.add.reduceat(padded, start[:-1])
    sums[start[:-1] == start[1:]] = 0  # reduceat's value of an empty chain is its next entry
    return sums


def _signed(g, X):
    """Delta = (2x - 1) * g in place on the gradient ``g``: the sign is +-1,
    so multiplying by it negates exactly; the bool ``X`` takes it as int8."""
    return np.multiply(g, X.view(np.int8) * 2 - 1, out=g)


def _rank_table(values):
    """The rank of each of ``values`` among their distinct values, shifted
    so that the largest value not above 0 has rank 0: ranks order and tie
    as the values do, and a rank is positive exactly when its value is.
    int16 when the table has fewer than 2**15 entries, so that every rank
    fits, int32 otherwise."""
    distinct, rank = np.unique(values, return_inverse=True)
    rank -= np.count_nonzero(distinct <= 0) - 1
    return rank.astype(np.int16 if values.size < _EXACT_INT16 else np.int32)


def _is_integer(a) -> bool:
    return bool(np.array_equal(a, np.round(a)))


def _weighted_csr(graph: Graph, edge_weights):
    """Float64 CSR adjacency with one weight per undirected edge."""
    w = finite_array("edge_weights", edge_weights)
    if w.shape != (graph.num_edges,):
        raise ValueError(
            f"edge_weights has shape {w.shape}, expected ({graph.num_edges},) "
            "aligned with Graph.edge_array()"
        )
    from scipy.sparse import coo_matrix

    edges = graph.edge_array()
    rows = np.concatenate((edges[:, 0], edges[:, 1]))
    cols = np.concatenate((edges[:, 1], edges[:, 0]))
    data = np.concatenate((w, w))
    n = graph.num_nodes
    mat = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat
