"""Shared test helpers, most importantly two independent references.

`brute_force_consistent` enumerates raw interleavings of the focus's visible
operations with none of the package's accelerations (no forced reads, no
memoization, no pruning) - a deliberately naive reference for traces up to a
dozen operations.  `reference_parse_trace` is the plain line-by-line trace
parser that `parse_trace`'s whole-text search and columns must agree with, and
`reference_dag_schedule` builds witnesses block by block, with one
topological sort per block, as `build_dag_schedule`'s one-pass sort must.
`reference_visible` is the per-focus filter that `visible`'s shared
per-trace write sections must agree with, and `reference_find_cycle` the
plain Kahn pass that `find_cycle`'s use of `topo_sort` must agree with.
`reference_write_sections` and `reference_variant` are the first
definitions of `Trace.write_sections` and `Trace.variant`.
`CrossChecks` checks read-centric's incremental bookkeeping against its live
graph as a run goes.
"""

from __future__ import annotations

import heapq
import re
from decimal import Decimal
from typing import Iterable

from pramcheck import Trace, parse_trace, visible
from pramcheck.legality import Schedule, Verdict
from pramcheck.model import (
    INT64_MAX,
    INT64_MIN,
    WRITE,
    Operation,
    TraceParseError,
    Variant,
    VisibleProjection,
)
from pramcheck.opgraph import PO, OperationGraph
from pramcheck.read_centric import ReadCentricChecker

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


def reference_visible(trace: Trace, focus: str) -> dict[str, tuple[Operation, ...]]:
    """`visible(trace, focus).by_process` by a plain filter of `trace.ops`.

    Keeps every write and the focus's reads, grouped by process in index
    order, which is section order; a process left with nothing is absent.
    """
    by_process: dict[str, list[Operation]] = {}
    for o in trace.ops:
        if o.kind == "W" or o.process == focus:
            by_process.setdefault(o.process, []).append(o)
    return {p: tuple(seq) for p, seq in by_process.items()}


def reference_write_sections(trace: Trace) -> dict[str, tuple[Operation, ...]]:
    """`Trace.write_sections` by a generator expression over each section."""
    writes = ((p, tuple(o for o in s if o.kind == WRITE)) for p, s in trace.processes.items())
    return {p: ws for p, ws in writes if ws}


def reference_variant(trace: Trace) -> Variant:
    """`Trace.variant` by a scan of `writers` for a pair written twice."""
    multi = len({o.variable for o in trace.ops}) >= 2
    if any(len(ws) > 1 for ws in trace.writers.values()):
        return Variant.MD if multi else Variant.SD
    return Variant.MU if multi else Variant.SU


def _subset_topo_sort(graph: OperationGraph, subset: Iterable[int]) -> list[int]:
    """Topological order of `subset`, ties by lowest index; edges leaving it are ignored."""
    members = set(subset)
    indeg = {
        v: sum(1 for p in graph.preds.get(v, ()) if p in members) for v in members
    }
    ready = [v for v in members if indeg[v] == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for s in graph.succs.get(v, ()):
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
    rest = {o.index for o in proj.ops} - done
    out.extend(_subset_topo_sort(graph, rest))
    return Schedule(out)


def reference_find_cycle(graph: OperationGraph):
    """`find_cycle` over a plain Kahn pass of its own: the nodes it never
    drains are those on or after a cycle.  The walk back from the least of
    them, each step to its least undrained predecessor, repeats a node, and
    the cycle is the shortest through the edge that closes the walk."""
    indeg = {v: len(p) for v, p in graph.preds.items()}
    queue = [v for v, d in indeg.items() if d == 0]
    while queue:
        for s in graph.succs[queue.pop()]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    left = {v for v, d in indeg.items() if d}
    if not left:
        return None
    v = min(left)
    walked: set[int] = set()
    while v not in walked:
        walked.add(v)
        v, dst = min(p for p in graph.preds[v] if p in left), v
    return graph.shortest_cycle_through(v, dst)


def unread_out_edges_off_po(
    graph: OperationGraph, proj: VisibleProjection
) -> list[tuple[int, int, str]]:
    """The out-edges of operations no focus read reaches, other than `PO` edges up in index.

    `build_dag_schedule` appends those operations in index order, which is
    a topological order of them only when this list is empty.
    """
    reached = set().union(*(graph.downset(r.index) for r in proj.focus_reads()))
    return [
        (o.index, s, tag)
        for o in proj.ops
        if o.index not in reached
        for s, tag in graph.succs.get(o.index, {}).items()
        if tag != PO or s < o.index
    ]


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


def chain_trace(k: int, write_at: int | None = None) -> Trace:
    """The round chain: consistent, 5k + 1 operations over k + 2 processes.

    Process `a` writes `W x_k 0`, ..., `W x_1 0`, then `W z 1`; each `b_i`
    writes `W x_i 1`, then `W y_i 1`; the focus `f` reads `R y_(i-1) 1`,
    `R x_i 1` for i = k down to 2, then `R z 1`, `R x_1 1`.  Round i of
    rw-closure orders `W x_i 0` before `W x_i 1`, and only that edge lets
    `W x_(i+1) 0` reach the read of `x_(i+1)`: k + 1 rounds in all.

    With `write_at`, `f` also writes `W q 1`, which nothing reads, after its
    first `write_at` of 2k reads (5k + 2 operations, still consistent):
    `write_at=k` splits f's reads into two runs, and `write_at=2 * k` puts
    the write after all of them.
    """
    rows = [("a", "W", f"x{i}", 0) for i in range(k, 0, -1)]
    rows.append(("a", "W", "z", 1))
    for i in range(1, k + 1):
        rows += [(f"b{i}", "W", f"x{i}", 1), (f"b{i}", "W", f"y{i}", 1)]
    focus = []
    for i in range(k, 1, -1):
        focus += [("f", "R", f"y{i - 1}", 1), ("f", "R", f"x{i}", 1)]
    focus += [("f", "R", "z", 1), ("f", "R", "x1", 1)]
    if write_at is not None:
        focus.insert(write_at, ("f", "W", "q", 1))
    return Trace.build(rows + focus)


def random_trace_rows(rng, *, processes, variables, ops, value_pool):
    """Unstructured random rows: reads may be unsatisfiable on purpose."""
    procs = [f"p{i}" for i in range(1, processes + 1)]
    names = ["x", "y", "z"][:variables]
    rows = []
    for _ in range(ops):
        kind = "R" if rng.random() < 0.5 else "W"
        rows.append((rng.choice(procs), kind, rng.choice(names), rng.choice(value_pool)))
    return rows


class CrossChecks:
    """Mixin for `ReadCentricChecker` subclasses: cross-checks the incremental
    dictionaries against the live graph at every use, and both shortcuts
    against the scan and walk they skip.  Every check is an assert.

    - `cycle_detection`: pw[src] equals a walk over src's predecessors that
      skips the edges added since the last forward walk
      (`update_reachability`), for every variable: the proactive pass's
      edges into D(r), which `lower_rr` records, and the rule-C edge under
      test, checked before its walk.
    - an accepting `run`: every settled write's pw equals a walk over its
      predecessors, for every variable (`stale_pw_writes`).
    - `apply_rule_c`, and every write of D(r)'s downset when the re-walk is
      skipped: rr equals a walk over successors, and the write is not
      `pending`.  At `apply_rule_c`, a pending write's rr is below its entry.
    - `init_reachability`: r's slice is r's downset minus what was settled.
    - `identify_rule_c`: the bisect finds the read that a scan of the focus's
      reads in the window finds, and a write never dictates a read it
      already precedes.
    - the proactive pass finds the source that an index-order scan of every
      settled write on r's variable finds, and misses none.

    List it first among the bases: its checks then wrap a counting
    subclass's overrides, which count the checks' own calls too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ordinal = {r.index: k for k, r in enumerate(self.reads)}  # focus read -> ordinal
        self.unwalked: set[tuple[int, int]] = set()  # edges added since the last forward walk

    def init_reachability(self, r):
        settled = set(self.pw)
        super().init_reachability(r)
        self.delta = self.pw.keys() - settled
        assert self.delta == self.graph.downset(r.index, settled), "slice is not two prefixes"
        self.scan_source = self._scan_source(self.lw[r.variable], self.mapping[r.index])

    def cycle_detection(self, src, dst):
        self._check_pw(src, unwalked=self.unwalked | {(src, dst)})
        return super().cycle_detection(src, dst)

    def lower_rr(self, src, dst):
        self.unwalked.add((src, dst))
        super().lower_rr(src, dst)

    def update_reachability(self, dst, known):
        super().update_reachability(dst, known)
        self.unwalked.clear()

    def first_cycle_source(self, ws, d):
        src = super().first_cycle_source(ws, d)
        if src is not None:
            assert src == self.scan_source, "per-process check moved the source"
            self.scan_source = None
        return src

    def identify_rule_c(self, src, r_old):
        tgt = super().identify_rule_c(src, r_old)
        assert tgt == self._scan_rule_c(src, r_old), "bisect and scan found different reads"
        assert tgt != src, "write found dictating a read it already precedes"
        return tgt

    def run(self):
        verdict = super().run()
        if verdict.consistent:  # a rejection's closing edges are not merged
            stale = stale_pw_writes(self)
            assert not stale, f"stale preceding-write tables after the run at {stale}"
        return verdict

    def apply_rule_c(self, src):
        self._check_rr(src)
        if src in self.pending:
            assert self.pending[src] > self.rr[src], "pending write whose rr did not drop"
        return super().apply_rule_c(src)

    def topo_schedule(self, r):
        self.walked = True
        return super().topo_schedule(r)

    def settle(self, r) -> Verdict | None:
        self.walked = False
        verdict = super().settle(r)
        assert self.scan_source is None, "per-process check missed the scan's source"
        d = self.mapping[r.index]
        if verdict is None and not self.walked and d not in self.delta:
            for u in self.graph.downset(d) & self.rr.keys():  # the skipped walk had nothing to do
                assert u not in self.pending, "skipped a pending rule check"
                self._check_rr(u)
        return verdict

    def _scan_source(self, by_process: list[list[int]], d: int) -> int | None:
        # The index-order scan the per-process check replaces (edges into d change no hit).
        for w in sorted(w for ws in by_process for w in ws):
            if w != d and not self.graph.has_edge(w, d) and self.cycle_detection(w, d) is not None:
                return w
        return None

    def _scan_rule_c(self, src: int, r_old: int) -> int | None:
        # The slice scan the bisect of `ords` replaces.
        var = self.ops[src].variable
        for r_tmp in self.reads[self.rr[src] : r_old]:
            if r_tmp.variable == var:
                return self.mapping[r_tmp.index]
        return None

    def _check_rr(self, src: int) -> None:
        seen = {src}
        stack = [src]
        while stack:
            for s in self.graph.succs[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        best = min((self.ordinal[s] for s in seen if s in self.ordinal), default=None)
        assert self.rr.get(src) == best, (
            f"stale reachable-read for {self.ops[src].pretty()}: "
            f"have {self.rr.get(src)}, graph says {best}"
        )

    def _check_pw(self, src: int, unwalked: set[tuple[int, int]]) -> None:
        # `unwalked` holds edges already added but not yet absorbed into pw; the
        # reference walk must ignore them (one may close the very cycle under test).
        want = walked_pw(self, src, unwalked)
        assert self.pw[src] == want, (
            f"stale preceding-write table for {self.ops[src].pretty()}: "
            f"have {self.pw[src]}, graph says {want}"
        )


def walked_pw(checker: ReadCentricChecker, src: int, skip=frozenset()) -> dict[str, int]:
    """What pw[src] must hold, by a walk over src's predecessors in the live
    graph: per variable, the greatest order key of a dictating write that
    precedes src.  The walk ignores the edges in `skip`."""
    seen = set()
    stack = [src]
    want: dict[str, int] = {}
    while stack:
        u = stack.pop()
        for p in checker.graph.preds[u]:
            if (p, u) in skip or p in seen:
                continue
            seen.add(p)
            stack.append(p)
            key = checker.order_key.get(p)
            if key is not None:
                var = checker.ops[p].variable
                want[var] = max(want.get(var, key), key)
    return want


def stale_pw_writes(checker: ReadCentricChecker) -> list[int]:
    """The settled writes whose pw differs from `walked_pw`.  A focus read's
    table is its whole run's, so reads are left out."""
    writes = (w for w in sorted(checker.pw) if checker.ops[w].is_write)
    return [w for w in writes if checker.pw[w] != walked_pw(checker, w)]


class CheckedReadCentricChecker(CrossChecks, ReadCentricChecker):
    """The read-centric checker with every cross-check on."""


def verify_read_centric_checked(trace: Trace, focus: str) -> Verdict:
    """`verify_read_centric` under `CrossChecks`: the same verdict, or an AssertionError."""
    return CheckedReadCentricChecker(trace, focus).run()
