"""Shared test helpers, most importantly two independent references.

`brute_force_consistent` enumerates raw interleavings of the focus's visible
operations with none of the package's accelerations (no forced reads, no
memoization, no pruning) - a deliberately naive reference for traces up to a
dozen operations.  `reference_parse_trace` is the plain line-by-line trace
parser that `parse_trace`'s fast path must agree with, and
`reference_dag_schedule` builds witnesses block by block, with one
topological sort per block, as `build_dag_schedule`'s one-pass sort must.
"""

from __future__ import annotations

import heapq
import re
from decimal import Decimal
from typing import Iterable

from pramcheck import Trace, parse_trace, visible
from pramcheck.legality import Schedule
from pramcheck.model import INT64_MAX, INT64_MIN, TraceParseError, VisibleProjection
from pramcheck.opgraph import OperationGraph

_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_INT = re.compile(r"-?[0-9]+")


def T(text: str) -> Trace:
    """Parse a trace from an indented test literal."""
    return parse_trace(text)


def reference_parse_trace(text: str | bytes) -> Trace:
    """Parse trace text one stripped, whitespace-split line at a time.

    Checks each line's fields in a fixed order (count, kind, process id,
    variable id, integer grammar, int64 range, contiguous section) and raises
    the first failure as TraceParseError.  Values are compared as Decimals,
    so no length of digit string trips int()'s conversion limit.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = []
    current = None
    closed = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise TraceParseError(f"expected 4 fields, got {len(fields)}", lineno)
        proc, kind, var, val_text = fields
        if kind not in ("R", "W"):
            raise TraceParseError(f"operation kind must be R or W, got {kind!r}", lineno)
        if not _REF_IDENT.fullmatch(proc):
            raise TraceParseError(f"bad process id {proc!r}", lineno)
        if not _REF_IDENT.fullmatch(var):
            raise TraceParseError(f"bad variable id {var!r}", lineno)
        if not _REF_INT.fullmatch(val_text):
            raise TraceParseError(f"non-integer value {val_text!r}", lineno)
        val = Decimal(val_text)
        if not INT64_MIN <= val <= INT64_MAX:
            raise TraceParseError(f"value {val:f} outside signed 64-bit range", lineno)
        if proc != current:
            if proc in closed:
                raise TraceParseError(f"duplicate process section {proc!r}", lineno)
            if current is not None:
                closed.add(current)
            current = proc
        rows.append((proc, kind, var, int(val)))
    return Trace.build(rows)


def _subset_topo_sort(graph: OperationGraph, subset: Iterable[int]) -> list[int]:
    """Topological order of `subset`, ties by lowest index; edges leaving it are ignored."""
    members = set(subset)
    indeg = {
        v: sum(1 for p in graph.preds[v] if p in members) for v in members
    }
    ready = [v for v in members if indeg[v] == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for s in graph.succs[v]:
            if s in members:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
    if len(out) != len(members):
        raise RuntimeError("topo_sort met a cycle")
    return out


def reference_dag_schedule(graph: OperationGraph, proj: VisibleProjection) -> Schedule:
    """Turn an acyclic precedence graph into a legal schedule.

    Block per focus read, in program order: the read's downset minus
    everything already scheduled, topologically sorted (ties by lowest
    operation index); operations preceding no read form a final block.
    """
    out: list[int] = []
    done: set[int] = set()
    for r in proj.focus_reads():
        delta = graph.downset(r.index, done)
        out.extend(_subset_topo_sort(graph, delta))
        done.update(delta)
    rest = set(graph.nodes) - done
    out.extend(_subset_topo_sort(graph, rest))
    return Schedule(out)


def brute_force_consistent(trace: Trace, focus: str) -> bool:
    """True iff some legal interleaving of the visible lanes exists.

    Pure depth-first enumeration; exponential, use only on tiny traces.
    """
    proj = visible(trace, focus)
    lanes = [list(seq) for seq in proj.by_process.values()]
    total = sum(len(lane) for lane in lanes)
    frontier = [0] * len(lanes)
    store: dict[str, int] = {}

    def rec(placed: int) -> bool:
        if placed == total:
            return True
        for li, lane in enumerate(lanes):
            f = frontier[li]
            if f == len(lane):
                continue
            op = lane[f]
            if op.is_read:
                if store.get(op.variable) != op.value:
                    continue
                frontier[li] += 1
                if rec(placed + 1):
                    return True
                frontier[li] -= 1
            else:
                prev = store.get(op.variable)
                store[op.variable] = op.value
                frontier[li] += 1
                if rec(placed + 1):
                    return True
                frontier[li] -= 1
                if prev is None:
                    del store[op.variable]
                else:
                    store[op.variable] = prev
        return False

    return rec(0)


def reread_trace(k: int) -> Trace:
    """The re-read family: consistent, 6k + 2 operations over k + 2 processes.

    Writers `b1..bk` each write two unique `z` values, then `W x i`, then
    `W y i`; process `a` writes `W x 0`; the focus `f` reads `R x 0`, then
    `R y i` and `R x 0` for i = 1..k.  Every re-read of `x 0` orders
    `W x i` before `W x 0`.
    """
    rows = [("a", "W", "x", 0)]
    for i in range(1, k + 1):
        b = f"b{i}"
        rows += [(b, "W", "z", 2 * i - 1), (b, "W", "z", 2 * i), (b, "W", "x", i), (b, "W", "y", i)]
    rows.append(("f", "R", "x", 0))
    for i in range(1, k + 1):
        rows += [("f", "R", "y", i), ("f", "R", "x", 0)]
    return Trace.build(rows)


def random_trace_rows(rng, *, processes, variables, ops, value_pool):
    """Unstructured random rows: reads may be unsatisfiable on purpose."""
    procs = [f"p{i}" for i in range(1, processes + 1)]
    names = ["x", "y", "z"][:variables]
    rows = []
    for _ in range(ops):
        kind = "R" if rng.random() < 0.5 else "W"
        rows.append((rng.choice(procs), kind, rng.choice(names), rng.choice(value_pool)))
    return rows
