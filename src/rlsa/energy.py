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
is made in the Delta dtype otherwise; mis and mcl decode codes read the
same m in intp.

Each thread's last product is remembered. An annealing step needs the
energy of the new state and, at the start of the next step, its Delta;
both come from the same ``A @ X``, so the second call reuses the first's
product and a step costs one sparse product or update (below), not two
products. The memo is keyed on the batch's content, not its identity: a
bool copy of the last batch is compared entry by entry, so a batch changed
in place, or of another shape, gets a new product, and a hit returns
exactly the product a fresh model would compute. It is per thread
(``threading.local``) because worker threads run chain blocks on one
shared model. The stored product is read-only; callers that update it
copy it first, in its own dtype.

A miss on a batch of the same shape may bring an int16 stored product up
to date through the flip list: to each row k of a copy of ax it adds
+-(row j of A) for every node j that chain k flipped (+ where it set j, -
where it cleared it). That is exact: every partial sum it makes is a sum
of w_ij over a subset of row i's neighbours, which the row-sum bound keeps
below 2**15, so the result equals the full product bit for bit. It pays
when each chain flips few nodes, however many columns the chains flip
together, as in an annealing step that flips about d bits per chain. It
reads the rows one of two ways, each in compiled code:

* A block of chains reads them from a dense int16 copy of A, in one pass
  of a sparse (K, N) matrix of signs times the copy, flips * N adds in
  all. The copy is made on the first such update and shared by every
  thread, and only while its 2 N**2 bytes fit under a cap of 2 MiB
  (N <= 1024).
* Everywhere else, a single row and every graph above the cap, it
  gathers the flipped nodes' CSR rows, chain by chain, signs them and adds
  them into the copy: sum deg(flipped) adds, which never makes the dense
  copy, so a solution decoded or scored once per solve pays nothing for
  it.

A cost rule picks the flip list or the full product: a linear model of
each one's time in 1, nnz (times K), the entries the flip list reads
(flips * N, or sum deg(flipped)) and K * N, fitted on sweeps of batches
over ER and BA graphs, K and flips per chain (``BENCH_flips.json``,
``BENCH_update.json``). The flip list's fixed part keeps the rule on the
full product where that is cheap: on a small or sparse graph, or when
every chain flips many nodes, as on max-cut. A float64 product never takes
the flip list, because its sums would round in another order.

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
there. ``_descent`` hands decode the codes as each row's state and their
ranks as its key (``_flip_code``); the product the memo keeps after decode
follows from the codes, W x = m + r (s - x) with m = (code >> 1) + m_lo
(``_code_product``).
"""

from __future__ import annotations

import math
import threading

import numpy as np
# scipy's compiled kernels behind csr_matrix @ ndarray (Y += A X), A[rows]
# (gathers CSR rows) and toarray(out=) (adds a CSR matrix into a dense
# one): the flip list adds into a copy of the stored product with them,
# which saves the public paths' checked matrices and zeroed results
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
        # it how _ax and _flip update a product
        self._A = A.astype(np.int16 if w_int and R < _EXACT_INT16 else np.float64, copy=False)
        # the dense int16 rows of A that a block's flip list reads where
        # they fit under the cap, made on the first such update
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
        # read-only; per-column CSR accumulation keeps each row's result
        # independent of the batch size. Callers read an int16 product
        # through exact arithmetic only (see the module docstring).
        # A batch equal to this thread's last one returns the stored
        # product; one of the same shape may update it through the flip
        # list (see the module docstring).
        memo = self._memo
        key = getattr(memo, "key", None)
        ax = None
        if key is not None and key.shape == X.shape:
            changed = key != X
            if not changed.any():
                return memo.ax
            if self._A.dtype == np.int16:
                ax = self._add_flips(memo.ax, X, changed)
        if ax is None:
            A = self._A
            # transpose in bool, then cast: casting a strided bool transpose
            # directly is several times slower
            P = A @ np.ascontiguousarray(X.T).astype(A.dtype, copy=False)
            ax = np.ascontiguousarray(P.T)
        self._remember(X, ax)
        return ax

    def _add_flips(self, ax, X, changed):
        # ax + S @ A, with S the sparse (K, N) matrix of +1 where a chain
        # set node j and -1 where it cleared it (A is symmetric): row k
        # gains +-(row j of A) for each node j that chain k flipped, added
        # into a copy of ax; None where the full product costs less
        # (_flips_pay). Exact: each partial sum of entry (k, i) is a sum of
        # w_ij over a subset of i's neighbours, which the row-sum bound
        # keeps below 2**15. A block reads the rows from the dense int16 A
        # where it fits under the cap, and everywhere else from A's CSR rows.
        A = self._A
        K, N = X.shape
        dense = K > 1 and 2 * N * N <= _DENSE_ROWS_BYTES
        if dense and not _flips_pay(np.count_nonzero(changed) * N, A.nnz, K, N, True):
            return None
        at = np.flatnonzero(changed)
        # chain k's flips are at[start[k]:start[k + 1]]: at is sorted, and
        # row k of the batch holds the flat indices k N up to (k + 1) N
        start = np.searchsorted(at, np.arange(K + 1) * N)
        sign = X.ravel()[at].astype(np.int16) * 2 - 1
        idx = A.indices.dtype
        nodes = (at % N).astype(idx)
        if not dense:
            # the flipped nodes' CSR rows, chain by chain in flat order:
            # chain k's run ends at its and earlier chains' flipped degrees
            deg = A.indptr[nodes + 1] - A.indptr[nodes]
            ends = np.cumsum(deg, dtype=np.int64)
            if ends[-1] > np.iinfo(idx).max or not _flips_pay(ends[-1], A.nnz, K, N, False):
                return None
        out = ax.copy()
        if dense:
            with self._rows_made:  # made once, then shared read-only by every thread
                if self._rows is None:
                    self._rows = A.toarray()
                    self._rows.flags.writeable = False
            _csr_matvecs(K, N, N, start, nodes, sign, self._rows, out)
        else:
            cols, vals = np.empty(ends[-1], dtype=idx), np.empty(ends[-1], dtype=np.int16)
            _csr_row_index(at.size, nodes, A.indptr, A.indices, A.data, cols, vals)
            vals *= np.repeat(sign, deg)
            # adds into out, and sums a column that two rows of one chain share
            _csr_todense(K, N, np.concatenate(([0], ends))[start].astype(idx), cols, vals, out)
        return out

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
            codes = self._codes(X, ax)
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
        """The intp codes 2 (m - m_lo) + x of a bool batch of a mis or mcl
        model and its product ``ax``: each entry indexes its Delta in
        ``_code_delta`` and its rank in ``_code_rank``."""
        code = np.subtract(self._m(X, ax, np.intp), self._m_lo, dtype=np.intp, casting="unsafe")
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
            ax += X.sum(axis=1)[:, None]
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
        if not np.ndim(c):
            s = X.sum(axis=1, dtype=np.int64)  # uniform c: integer row sums, no float pass
            return c * s + self._q * self._pairs(X, s)
        if self._c_matvec:
            cx = X @ c  # exact: an integer c with sum |c| below 2**53
            zero = cx == 0
            if zero.any():  # the signed zero of the elementwise sum
                cx[zero] = (X[zero] * c).sum(axis=1)
        else:
            cx = (X * c).sum(axis=1)
        return cx + self._q * self._pairs(X)

    def _pairs(self, X, s=None):
        # x^T W x - r (s^2 - s) per row; ``s`` is X's integer row sums, if known.
        # An integer product sums exactly in int64, any other in float64.
        ax = self._ax(X)
        quad = (X * ax).sum(axis=1, dtype=np.int64 if ax.dtype.kind == "i" else np.float64)
        if self._r:
            if s is None:
                s = X.sum(axis=1, dtype=np.int64)
            quad = quad - (s * s - s)
        return quad

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
        # holds it exactly (the Delta dtype, or intp for the codes)
        if not self._r:
            return ax
        m = np.subtract(X.sum(axis=1)[:, None], X, dtype=dtype)
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
        return (np.abs(self._pairs(X)) / 2).astype(np.int64)

    def __repr__(self) -> str:
        return f"EnergyModel(kind={self.kind!r}, graph={self.graph!r}, beta={self.beta})"


# int16 holds every integer below 2**15 in magnitude, float64 every one up
# to 2**53
_EXACT_INT16 = 2.0 ** 15
_EXACT_FLOAT64 = 2.0 ** 53
# The dense int16 rows of A that a block's flip list reads take 2 N**2
# bytes; they are made only while that stays under this cap (N <= 1024)
_DENSE_ROWS_BYTES = 2 ** 21
# The cost in ns of bringing an int16 product of a (K, N) batch up to date
# on an _ax miss: as coefficients of (1, nnz, nnz * K, K * N) for the full
# product, and of (1, entries read, K * N) for the flip list, which reads
# flips * N entries through the dense rows and the sum of the flipped
# nodes' degrees through the CSR rows. Fitted on sweeps of K, N and flips
# per chain over ER and BA graphs (BENCH_flips.json, BENCH_update.json).
_FULL_NS = (37e3, 0.77, 0.13, 2.2)
_FLIPS_NS = (39e3, 0.18, 1.3)
_CSR_NS = (36e3, 2.4, 0.71)


def _flips_pay(work, nnz, K, N, dense) -> bool:
    """Whether the flip list brings an int16 product of a (K, N) batch up
    to date for less than the full product over A's ``nnz`` nonzeros: it
    reads ``work`` entries, through the dense rows if ``dense`` and A's
    CSR rows otherwise."""
    f0, f1, f2, f3 = _FULL_NS
    g0, g1, g2 = _FLIPS_NS if dense else _CSR_NS
    return g0 + g1 * work + g2 * K * N < f0 + nnz * (f1 + f2 * K) + f3 * K * N


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
