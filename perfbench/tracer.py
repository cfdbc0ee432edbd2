"""In-memory span tracer that times the rlsa layers from outside.

The benchmark never edits the package: it wraps the public calls it makes
(graph generation, EnergyModel construction, run_rlsa, verify_record) in
spans, and for the duration of one traced solve it replaces the instance's
``delta`` and ``energy`` methods and the ``flip_probabilities`` and
``greedy_decode`` names that ``rlsa.sampler`` looks up at call time.

Spans are keyed by thread. A span opened on a thread with no open span of
its own (a worker thread of ``run_rlsa``) takes the solve's root span as
parent, so the workers=2 workload is attributed per thread. Times summed
over threads are thread-seconds.
"""

from __future__ import annotations

import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

DECODE = "postprocess.decode"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "rows", "itemsize")

    def __init__(self, name, start, parent, thread, rows, itemsize):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.rows = rows  # solution rows passed to an energy-layer call
        self.itemsize = itemsize  # bytes per entry of those rows

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread}


class Tracer:
    """Spans (name, start, end, parent, thread) plus the outside-in counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: int | None = None  # parent for spans on threads with no open span
        self.decode_gain = 0.0
        self._blocks: list[list[tuple[int, float]]] = []  # per chain block: (chains, mean flips) per step
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, x=None):
        """Record one span; yields its index in ``spans``. ``x`` is the
        solution batch of an energy-layer call, kept as its row count."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        rows, itemsize = (0, 0) if x is None else _rows_itemsize(x)
        s = Span(name, perf_counter(), parent, threading.get_ident(), rows, itemsize)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(s)
        stack.append(idx)
        try:
            yield idx
        finally:
            s.end = perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    # -- instrumentation ----------------------------------------------------

    @contextmanager
    def instrument(self, model):
        """Trace calls into ``model`` and the sampler's flip rule and decoder."""
        import rlsa.sampler as sampler

        saved = (sampler.flip_probabilities, sampler.greedy_decode)
        sampler.flip_probabilities = self._wrap("sampler.flip_rule", saved[0])
        sampler.greedy_decode = self._traced_decode(saved[1], model.energy)
        model.delta = self._traced_delta(model.delta)
        model.energy = self._traced_energy(model.energy)
        try:
            yield
        finally:
            sampler.flip_probabilities, sampler.greedy_decode = saved
            del model.delta, model.energy  # back to the class methods

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _in_decode(self) -> bool:
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]].name == DECODE

    def _traced_delta(self, delta):
        def traced(x):
            with self.span("energy.delta", x):
                out = delta(x)
            if not self._in_decode():
                with self.span("bench.count"):
                    # copied, so an engine that updates X in place still counts flips
                    self._local.pending = np.array(x, copy=True)
            return out
        return traced

    def _traced_energy(self, energy):
        def traced(x):
            with self.span("energy.energy", x):
                out = energy(x)
            with self.span("bench.count"):
                pending = getattr(self._local, "pending", None)
                xn = np.asarray(x)
                if pending is None and xn.ndim == 2:
                    # a block's first energy: this thread's next steps belong to it
                    self._local.block = []
                    with self._lock:
                        self._blocks.append(self._local.block)
                elif pending is not None and xn.shape == pending.shape:
                    flips = (xn != pending).reshape(-1, xn.shape[-1]).sum(axis=1)
                    block = getattr(self._local, "block", None)
                    if block is not None:
                        block.append((flips.size, float(flips.mean())))
                self._local.pending = None
            return out
        return traced

    def _traced_decode(self, decode, raw_energy):
        def traced(model, x):
            with self.span(DECODE):
                out = decode(model, x)
            with self.span("bench.count"):
                self.decode_gain += float(np.sum(raw_energy(x))) - float(np.sum(raw_energy(out)))
            return out
        return traced

    # -- metrics ------------------------------------------------------------

    def flips_per_step(self) -> list[float]:
        """Mean flips per chain at each step, combined over blocks by chain count."""
        logs = [log for log in self._blocks if log]
        if not logs:
            return []
        steps = min(len(log) for log in logs)
        out = []
        for t in range(steps):
            chains = sum(log[t][0] for log in logs)
            out.append(sum(log[t][0] * log[t][1] for log in logs) / chains)
        return out

    def sampler_self_time(self, root: int) -> float:
        """Thread-seconds of the root span not covered by its child spans.

        A worker thread's extent runs from its first to its last child span;
        the root thread's extent is the root span minus the time any worker
        thread was active, during which the root thread only waits.
        """
        top = self.spans[root]
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent == root:
                children.setdefault(s.thread, []).append(s)
        total = 0.0
        worker_extents = []
        for thread, spans in children.items():
            busy = sum(s.duration for s in spans)
            if thread == top.thread:
                total -= busy
                continue
            lo = min(s.start for s in spans)
            hi = max(s.end for s in spans)
            worker_extents.append((lo, hi))
            total += (hi - lo) - busy
        return total + top.duration - _union_length(worker_extents)

    def solve_metrics(self, root: int, graph) -> dict[str, float]:
        """Per-layer metrics of the traced solve whose root span is ``root``.

        Matvec work is computed, not measured: every delta or energy call
        does one full sparse product, rows x nnz multiply-adds, reading per
        row each nonzero's value, index and gathered entry plus the N-entry
        input and output rows.
        """
        decodes = {i for i, s in enumerate(self.spans) if s.name == DECODE}
        deltas = [s for s in self.spans if s.name == "energy.delta"]
        energies = [s for s in self.spans if s.name == "energy.energy"]
        decode_deltas = [s for s in deltas if s.parent in decodes]
        nnz = graph.neighbors.size
        index_bytes = graph.neighbors.itemsize
        rows = sum(s.rows for s in deltas + energies)
        row_bytes = sum(
            s.rows * (nnz * (2 * s.itemsize + index_bytes) + 2 * graph.num_nodes * s.itemsize)
            for s in deltas + energies
        )
        flips = self.flips_per_step()
        last = flips[-max(1, len(flips) // 10):] if flips else []
        decode_s = sum(self.durations(DECODE))
        return {
            "energy.delta_s": sum(s.duration for s in deltas),
            "energy.delta_calls": len(deltas),
            "energy.energy_s": sum(s.duration for s in energies),
            "energy.energy_calls": len(energies),
            "energy.nnz_products": rows * nnz,
            "energy.bytes_computed": row_bytes,
            "sampler.flip_rule_s": sum(self.durations("sampler.flip_rule")),
            "sampler.self_s": self.sampler_self_time(root),
            "sampler.flips_per_step": statistics.fmean(flips) if flips else 0.0,
            "sampler.flips_per_step.last": statistics.fmean(last) if last else 0.0,
            "postprocess.decode_s": decode_s,
            "postprocess.decode_self_s": decode_s - sum(s.duration for s in decode_deltas),
            "postprocess.decode_rounds": len(decode_deltas),
            "postprocess.decode_gain": self.decode_gain,
            "bench.solve_traced_s": self.spans[root].duration,
        }


def _rows_itemsize(x) -> tuple[int, int]:
    arr = np.asarray(x)
    return (arr.shape[0] if arr.ndim == 2 else 1), arr.dtype.itemsize


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total
