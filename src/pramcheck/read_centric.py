"""Incremental verifier: process focus reads one at a time.

Same decision problem and `OperationGraph` as `rw_closure`, built
incrementally.  For each focus read r, only the newly reachable slice of the
graph (r's downset minus the previous read's) is examined.  Operations not yet
settled have no stored edges: a read's slice gets its `PO` and `WR` edges as
it settles, and every `WpW` edge joins two settled writes.  So that slice is
two program-order prefixes: the focus's unsettled operations up to r and
those of D(r)'s process up to D(r).  The verdict's graph gets the other `PO`
and `WR` edges on its first read.  Two dictionaries carry everything the
overwrite-precedence rule needs:

* `rr` - per write, the ordinal of the earliest focus read it currently
  reaches.  A write whose `rr` drops may have become ordered before further
  reads of its variable, which is exactly when the rule can fire again.
* `pw` - per operation and variable, the order key of the latest preceding
  write that dictates some read: the ordinal of the first read that write
  dictates, so a merge compares ints and `key_write` maps a key back to its
  write.  A new edge w' -> w closes a cycle precisely when w already precedes
  w' in that order, i.e. when pw[w'][var] is at or after w's key.

Every edge that the proactive pass at a read adds ends at the read's
dictating write d, and a path from d through such an edge returns to d, so
none of them changes what d reaches: one forward walk from d serves them all.

The dictating write's downset is re-walked in reverse topological order
(`topo_schedule`) only while some write's `rr` has dropped since its last
rule check; every write there refreshes `rr` from its successors and gets
one overwrite-rule check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from operator import attrgetter

from .legality import Verdict
from .model import WRITE, Operation, Trace, UnmatchedReadError, build_read_mapping, visible
from .model import classify  # noqa: F401 - bench/tracing.py wraps this name
from .opgraph import PO, WPW, WR, Cycle, OperationGraph, add_rule_a_b, build_dag_schedule

ALGORITHM = "read-centric"


class ReadCentricChecker:
    """One verification run; exposes its dictionaries and counters for tests.

    The settled operations, the union of the processed reads' downsets and
    the keys of `pw`, are down-closed: each process's settled operations are
    a program-order prefix, `prefix[process]` long.  Operations not yet
    settled have no stored edges, so r's new slice is the focus's unsettled
    prefix up to r plus D(r)'s process's up to D(r).

    The proactive overwrite-rule pass at a focus read r (dictating write d)
    orders every settled write on r's variable before d.  Those of each process
    form a program-order prefix `ws`, and one cycle check per process covers
    it: once src -> d closes a cycle (pw[src] at or after d's key), it does for
    every later write of `ws`, whose predecessors include src's (pw is exact).
    d is judged alike: as its process's last settled write it may be the only
    sign that an earlier write there hits.  A hit at ws[-1] is bisected to the
    first one, stepping over d and writes already ordered before d; processes
    go in section order, which is index order, so the rejected source and the
    edges added before it are those of an index-order scan.  Without a hit, src -> d
    is added only from each other process's last settled write ("last"):
    program order leads the rest to last, or in d's process to d, and skipping
    their edges loses nothing:

    1. Reachability: src -PO-> ... -> last -WpW-> d, or src -PO-> ... -> d.
    2. `rr`: rr[src] is at or before rr[last], so the edge into d lowers
       rr[src] only if it lowers rr[last], never when d is new at r (rr[d]
       = r is later than any older rr).  If it does, last joins `unchecked`
       and `topo_schedule(r)` refreshes rr over d's downset, which holds
       src.  The walk is skipped while `unchecked` is empty: every rr is
       then exact and equals rr_checked, so it would change nothing.
    3. `pw`: pw[last] already accounts for src and for pw[src], so the
       operations after d learn the same latest preceding write from last.
    4. Witnesses: `build_dag_schedule`'s blocks are downset differences, one
       `topo_sort` keyed by (block, index) takes the lexicographically
       smallest linear extension of each read block in turn, and the
       operations preceding no read, which carry only `PO` edges, follow in
       index order; all of it depends on reachability alone.

    The pass walks d's settled forward set once, at its first edge, and every
    later `last -> d` edge reuses it: no edge into d changes what d reaches.
    """

    def __init__(self, trace: Trace, focus: str):
        try:  # the gate: an ambiguous focus read raises before any graph is built
            self.mapping, self.unmatched = build_read_mapping(trace, focus), None
        except UnmatchedReadError as exc:  # a read without a candidate: run() rejects
            self.mapping, self.unmatched = {}, str(exc)
        self.focus = focus
        self.ops = trace.ops  # ops[i].index == i
        self.proj = visible(trace, focus)
        self.graph = OperationGraph(self.proj.ops)
        self.reads: tuple[Operation, ...] = self.proj.focus_reads()
        self.read_ord: dict[int, int] = {r.index: i for i, r in enumerate(self.reads)}

        self.prefix: dict[str, int] = {}  # process -> length of its settled prefix
        self.rr: dict[int, int] = {}  # write index -> ordinal of earliest reachable focus read
        self.rr_checked: dict[int, int] = {}  # rr value at the write's last rule check
        self.unchecked: set[int] = set()  # writes whose rr dropped since that check
        self.pw: dict[int, dict[str, int]] = {}  # op -> variable -> preceding write's key
        read_vars = {r.variable for r in self.reads}
        # variable the focus reads -> process, in section order -> settled writes on it
        self.lw = {v: {p: [] for p in self.proj.by_process} for v in read_vars}
        self.order_key: dict[int, int] = {}  # write -> ordinal of first dictated read
        self.key_write: list[int] = []  # order key -> the write it belongs to

        self.rulec_edges = 0  # WpW edges added by rule C

    # -- shared plumbing -----------------------------------------------------

    def _reject_cycle(self, src: int, dst: int, entry: int | None = None) -> Verdict:
        """The edge src -> dst closed a cycle; extract it for the verdict.

        Detection can fire before the closing precedence is materialized: when
        `entry` (src's latest preceding write on dst's variable) is dictated by
        a read not yet processed, the forced edge dst -> entry is implied but
        absent.  Adding it here makes the counterexample concrete.
        """
        if entry is not None and entry != dst:
            self.graph.add_edge(dst, entry, WPW)
        cycle = self.graph.shortest_cycle_through(src, dst)
        if cycle is None:
            raise RuntimeError("cycle detector fired without a closing path")
        return self._verdict(False, cycle=cycle, reason="precedence cycle")

    def _verdict(self, consistent: bool, **details) -> Verdict:
        graph = partial(add_rule_a_b, self.graph, self.proj, self.mapping)  # built on first read
        return Verdict(consistent, self.focus, ALGORITHM, graph=graph, **details)

    # -- the dictionaries ----------------------------------------------------

    def pw_after(self, o: int) -> dict[str, int]:
        """What every operation after o learns: a fresh copy of pw[o] that counts o itself."""
        known = self.pw[o].copy()
        key = self.order_key.get(o)
        if key is not None:  # o dictates a read
            var = self.ops[o].variable
            if known.get(var, -1) < key:
                known[var] = key
        return known

    def pw_update(self, o: int, targets: set[int]) -> None:
        """Merge o's preceding-write knowledge, o included, into each target's."""
        known = self.pw_after(o).items()
        pw = self.pw
        for o2 in targets:
            dst = pw[o2]
            get = dst.get
            for var, key in known:
                if get(var, -1) < key:
                    dst[var] = key

    def cycle_detection(self, src: int, dst: int) -> int | None:
        """Does the just-added edge src -> dst close a cycle?

        dst dictates reads, so it has a position in the per-variable write
        order; if src's latest known preceding write on that variable is dst or
        later, dst already precedes src.  Returns that preceding write on
        detection (the cycle runs through it), else None.
        """
        var = self.ops[src].variable
        key = self.pw[src].get(var)
        if key is not None and self.order_key[dst] <= key:
            return self.key_write[key]
        return None

    def update_reachability(self, src: int, dst: int, reach: set[int] | None = None) -> set[int]:
        """Propagate the consequences of the new edge src -> dst.

        src now reaches whatever dst reaches, and src precedes everything on
        paths from dst up to the read under scrutiny, so their preceding-write
        entries must learn about src.  `reach` is dst's settled forward set
        (dst included), walked here when not given; it is returned for reuse
        while no edge is added out of it.
        """
        self.rr[src] = min(self.rr[src], self.rr[dst])
        if self.rr[src] != self.rr_checked[src]:
            self.unchecked.add(src)
        if reach is None:
            succs = self.graph.succs  # every stored edge joins settled operations
            reach = {dst}
            stack = [dst]
            while stack:
                for s in succs[stack.pop()]:
                    if s not in reach:
                        reach.add(s)
                        stack.append(s)
        self.pw_update(src, reach)
        return reach

    # -- per-read processing --------------------------------------------------

    def init_reachability(self, r: Operation) -> set[int]:
        """Absorb r's new slice: store its edges, seed rr/lw, thread pw along both prefixes.

        Each prefix is threaded from its process's last settled operation,
        storing each operation's `PO` edge from its predecessor; then r's
        `WR` edge.  When D(r) is the focus's own, the focus prefix covers it.
        """
        d = self.ops[self.mapping[r.index]]
        k = self.read_ord[r.index]
        rr, rr_checked, pw, pw_after = self.rr, self.rr_checked, self.pw, self.pw_after
        succs, preds = self.graph.succs, self.graph.preds
        delta: set[int] = set()
        for end in (r,) if d.process == self.focus else (r, d):
            p = end.process
            seq = self.proj.by_process[p]
            lo = self.prefix.get(p, 0)
            prev = seq[lo - 1].index if lo else None
            chain = seq[lo : bisect_right(seq, end.index, lo, key=attrgetter("index"))]
            for o in chain:
                i = o.index  # i is new to pw and to the graph's tables
                succs[i] = {}
                if prev is None:
                    pw[i], preds[i] = {}, set()
                else:
                    pw[i], preds[i] = pw_after(prev), {prev}
                    succs[prev][i] = PO
                prev = i
                delta.add(i)
                if o.kind == WRITE:
                    rr[i] = rr_checked[i] = k
                    if o.variable in self.lw:  # the focus reads o's variable
                        self.lw[o.variable][p].append(i)
            if prev != r.index:  # d's chain ends at d, which precedes r
                self.pw_update(prev, {r.index})
            self.prefix[p] = lo + len(chain)
        self.graph.add_edge(d.index, r.index, WR)
        return delta

    def first_cycle_source(self, ws: list[int], d: int) -> tuple[int, int] | None:
        """(src, entry) for the first write of `ws` whose edge into d closes a cycle, or None."""
        if self.cycle_detection(ws[-1], d) is None:
            return None
        def hits(w: int) -> bool:  # False, then True along ws
            return self.cycle_detection(w, d) is not None
        for src in ws[bisect_left(ws, True, hi=len(ws) - 1, key=hits) :]:
            if src != d and not self.graph.has_edge(src, d):
                return src, self.cycle_detection(src, d)
        return None

    def identify_rule_c(self, src: int, r_old: int) -> int | None:
        """First read of src's variable newly reachable from src, as its dictator.

        The window is [rr[src], r_old) in focus program order, r_old being the
        rr value when src was last checked.
        """
        var = self.ops[src].variable
        for r_tmp in self.reads[self.rr[src] : r_old]:
            if r_tmp.variable == var:
                return self.mapping[r_tmp.index]
        return None

    def apply_rule_c(self, src: int) -> Verdict | int | None:
        """One overwrite-precedence check for `src`.

        Returns the rejecting verdict when the forced edge closes a cycle,
        the edge's target when an edge was added, or None.
        """
        r_old = self.rr_checked[src]
        r_new = self.rr[src]
        self.rr_checked[src] = r_new
        self.unchecked.discard(src)
        if r_new == r_old:
            return None
        tgt = self.identify_rule_c(src, r_old)
        if tgt is None:
            return None
        if not self.graph.add_edge(src, tgt, WPW):
            # The proactive pass at tgt's own read already ordered src -> tgt
            # (and checked it); later same-variable reads ride tgt's chain.
            return None
        self.rulec_edges += 1
        hit = self.cycle_detection(src, tgt)
        if hit is not None:
            return self._reject_cycle(src, tgt, hit)
        self.update_reachability(src, tgt)
        return tgt

    def topo_schedule(self, r: Operation) -> Verdict | None:
        """Reverse-topological refresh of D(r)'s downset; None means no cycle.

        Writes pull rr from their direct successors (processed first) and get
        one rule check each; an edge into a not-yet-done member makes the
        source wait for it and be re-checked.
        """
        d = self.mapping[r.index]
        dset = self.graph.downset(d)
        suc = {u: [s for s in self.graph.succs[u] if s in dset] for u in dset}
        count = {u: len(suc[u]) for u in dset}
        pre = {u: [p for p in self.graph.preds[u] if p in dset] for u in dset}
        done: set[int] = set()
        queue = deque([d])
        while queue:
            u = queue.popleft()
            if self.ops[u].is_write and u not in done:
                for s in suc[u]:
                    other = self.read_ord[s] if self.ops[s].is_read else self.rr[s]
                    self.rr[u] = min(self.rr[u], other)
                tgt = self.apply_rule_c(u)
                if isinstance(tgt, Verdict):
                    return tgt
                if tgt in dset and tgt not in done:  # tgt may be None: no rule fired
                    pre[tgt].append(u)
                    suc[u].append(tgt)
                    count[u] += 1
            if count[u] == 0:
                done.add(u)
                for p in pre[u]:
                    count[p] -= 1
                    if count[p] == 0:
                        queue.append(p)
        if len(done) != len(dset):  # done is a subset of dset
            raise RuntimeError("reverse-topological walk did not cover the downset")
        return None

    def settle(self, r: Operation) -> Verdict | None:
        """Process focus read r: its slice, the proactive pass, a re-walk if due.

        Returns the rejecting verdict, or None.  D(r)'s downset is re-walked
        only while some write's rr dropped since its last rule check.
        """
        delta = self.init_reachability(r)
        d = self.mapping[r.index]
        dproc = self.ops[d].process
        reach = None  # d's settled forward set, once an edge into d needs it
        for p, ws in self.lw[r.variable].items():  # section order
            if not ws:
                continue
            hit = self.first_cycle_source(ws, d)
            if hit is not None:
                self.graph.add_edge(hit[0], d, WPW)
                self.rulec_edges += 1
                return self._reject_cycle(hit[0], d, hit[1])
            last = ws[-1]  # program order leads the others to it
            if p != dproc and self.graph.add_edge(last, d, WPW):
                self.rulec_edges += 1
                reach = self.update_reachability(last, d, reach)
        if self.unchecked and d not in delta:
            return self.topo_schedule(r)
        return None

    # -- driver -----------------------------------------------------------------

    def run(self) -> Verdict:
        if self.unmatched is not None:  # its graph stays edge-less
            return Verdict(False, self.focus, ALGORITHM, reason=self.unmatched, graph=self.graph)
        self.key_write = [self.mapping[r.index] for r in self.reads]
        for key, w in enumerate(self.key_write):  # reads in program order: first wins
            self.order_key.setdefault(w, key)

        for r in self.reads:  # the focus's section is one run of indices: see Trace
            d = self.mapping[r.index]
            if self.ops[d].process == self.focus and d > r.index:
                nodes = (*range(r.index, d + 1), r.index)
                tags = (PO,) * (d - r.index) + (WR,)
                reason = "read precedes its dictating write"
                return self._verdict(False, cycle=Cycle(nodes=nodes, tags=tags), reason=reason)

        for r in self.reads:
            verdict = self.settle(r)
            if verdict is not None:
                return verdict

        witness = partial(build_dag_schedule, self.final_graph(), self.proj)
        return self._verdict(True, witness=witness)

    def final_graph(self) -> OperationGraph:
        """The live graph: the settled operations' edges."""
        return self.graph


def verify_read_centric(trace: Trace, focus: str) -> Verdict:
    """Decide consistency from `focus`'s viewpoint, one read at a time.

    Raises DuplicateValueError when a focus read has several candidate
    writes (see `build_read_mapping`).  The verdict's `graph` is sparse; it
    is completed with every `PO` and `WR` edge on its first read.
    """
    return ReadCentricChecker(trace, focus).run()
