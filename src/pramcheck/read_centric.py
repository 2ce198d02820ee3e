"""Incremental verifier: process focus reads one at a time, no closure matrix.

Same decision problem and `OperationGraph` as `rw_closure`, built incrementally
and never closed.  For each focus read r, only the newly reachable slice of the
graph (r's downset minus the previous read's) is examined.  Two dictionaries
carry everything the overwrite-precedence rule needs:

* `rr` - per write, the earliest focus read it currently reaches.  A write
  whose `rr` drops may have become ordered before further reads of its
  variable, which is exactly when the rule can fire again.
* `pw` - per operation and variable, the latest preceding write that dictates
  some read, "latest" in the order of first dictated reads.  A new edge
  w' -> w closes a cycle precisely when w already precedes w' in that order,
  i.e. when pw[w'][var] is at or after w.

When a read's dictating write was already reachable from the previous read,
the write's downset is re-walked in reverse topological order (`topo_schedule`)
so every write refreshes `rr` from its successors and gets one overwrite-rule
check; dependencies discovered mid-walk re-queue the affected write.
"""

from __future__ import annotations

from collections import deque

from .legality import Verdict
from .model import (
    DuplicateValueError,
    Operation,
    Trace,
    UnmatchedReadError,
    build_read_mapping,
    classify,
    visible,
)
from .opgraph import PO, WPW, WR, Cycle, OperationGraph, add_rule_a_b, build_dag_schedule

ALGORITHM = "read-centric"


class ReadCentricChecker:
    """One verification run; exposes its dictionaries and counters for tests.

    The proactive overwrite-rule pass at a focus read r (dictating write d)
    orders every settled write on r's variable before d, but adds the edge
    src -> d only from the last settled write on that variable of each
    process other than d's own ("last" below).  `settled` is down-closed, so
    a process's settled writes form a program-order prefix and the other
    edges are implied; d is settled, so in d's own process program order
    leads every earlier settled write to d itself ("last" is d there).
    Every settled write is still checked for a cycle, in index order, so a
    rejection names the same src (a settled write after d in d's process
    always closes one).  Skipping src -> d loses nothing:

    1. Reachability: src -PO-> ... -> last -WpW-> d, or src -PO-> ... -> d.
    2. `rr`: when d is in r's new slice, rr[d] = r, and every settled write
       already reaches r or an earlier read, so rr[src] would not change.
       Otherwise `topo_schedule(r)` refreshes rr over d's downset, which
       holds src.
    3. `pw`: pw[last] already accounts for src and for pw[src], so the
       operations after d learn the same latest preceding write from last.
    4. Witnesses: `build_dag_schedule`'s blocks are downset differences and
       `topo_sort` takes the lexicographically smallest linear extension of
       each; both depend on reachability alone.
    """

    def __init__(
        self,
        trace: Trace,
        focus: str,
        *,
        debug_checks: bool = False,
    ):
        if classify(trace).has_duplicates:
            raise DuplicateValueError("duplicate write values; use the oracle instead")
        self.focus = focus
        self.debug = debug_checks
        self.proj = visible(trace, focus)
        self.graph = OperationGraph(self.proj.ops)
        self.mapping = None  # set in run(); a missing dictating write rejects there
        self.reads: tuple[Operation, ...] = self.proj.focus_reads()
        self.read_ord: dict[int, int] = {r.index: i for i, r in enumerate(self.reads)}

        self.settled: set[int] = set()
        self.rr: dict[int, int] = {}  # write index -> earliest reachable focus read
        self.rr_checked: dict[int, int] = {}  # rr value at the write's last rule check
        self.pw: dict[int, dict[str, int]] = {}  # op -> variable -> preceding write
        # variable -> process -> settled writes on it, in program order
        self.lw: dict[str, dict[str, list[int]]] = {}
        self.order_key: dict[int, int] = {}  # write -> ordinal of first dictated read

        # instrumentation
        self.rulec_edges = 0
        self.topo_calls = 0
        self.topo_rulec_per_write_max = 0
        self.detected_in_topo = False

    # -- shared plumbing -----------------------------------------------------

    def _earlier_read(self, a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return a if self.read_ord[a] <= self.read_ord[b] else b

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
        return Verdict(consistent, self.focus, ALGORITHM, graph=self.graph, **details)

    # -- the dictionaries ----------------------------------------------------

    def pw_update(self, o: int | None, o2: int) -> None:
        """Merge o's preceding-write knowledge into o2, then consider o itself.

        With o = None this just ensures o2 has an (empty) entry: the start of a
        process precedes nothing.
        """
        dst = self.pw.setdefault(o2, {})
        if o is None:
            return
        for var, w in self.pw.get(o, {}).items():
            cur = dst.get(var)
            if cur is None or self.order_key[w] > self.order_key[cur]:
                dst[var] = w
        oop = self.graph.ops[o]
        if oop.is_write and o in self.order_key:
            cur = dst.get(oop.variable)
            if cur is None or self.order_key[o] > self.order_key[cur]:
                dst[oop.variable] = o

    def cycle_detection(self, src: int, dst: int) -> int | None:
        """Does the just-added edge src -> dst close a cycle?

        dst dictates reads, so it has a position in the per-variable write
        order; if src's latest known preceding write on that variable is dst or
        later, dst already precedes src.  Returns that preceding write on
        detection (the cycle runs through it), else None.
        """
        var = self.graph.ops[src].variable
        entry = self.pw.get(src, {}).get(var)
        if self.debug:
            self._debug_check_pw(src, var, entry, pending=(src, dst))
        if entry is not None and self.order_key[dst] <= self.order_key[entry]:
            return entry
        return None

    def update_reachability(self, src: int, dst: int) -> None:
        """Propagate the consequences of the new edge src -> dst.

        src now reaches whatever dst reaches, and src precedes everything on
        paths from dst up to the read under scrutiny, so their preceding-write
        entries must learn about src.
        """
        self.rr[src] = self._earlier_read(self.rr.get(src), self.rr.get(dst))
        seen = {dst}
        stack = [dst]
        while stack:
            u = stack.pop()
            for s in self.graph.succs[u]:
                if s not in seen and s in self.settled:
                    seen.add(s)
                    stack.append(s)
        for o in seen:
            self.pw_update(src, o)

    # -- per-read processing --------------------------------------------------

    def init_reachability(self, r_prev: Operation | None, r: Operation) -> set[int]:
        """Absorb r's new downset slice: seed rr/lw, thread pw along both chains."""
        delta = self.graph.downset(r.index, self.settled)
        ordered = sorted(delta)
        for idx in ordered:
            o = self.graph.ops[idx]
            if o.is_write:
                self.rr[idx] = r.index
                self.rr_checked[idx] = r.index
                self.lw.setdefault(o.variable, {}).setdefault(o.process, []).append(idx)

        focus_seq = self.proj.by_process[self.focus]
        fpos = self._fpos
        lo = fpos[r_prev.index] + 1 if r_prev is not None else 0
        grp_rr = focus_seq[lo : fpos[r.index]]
        prev = r_prev.index if r_prev is not None else None
        for w in grp_rr:
            self.pw_update(prev, w.index)
            prev = w.index
        self.pw_update(prev, r.index)

        d = self.mapping[r.index]
        dproc = self.graph.ops[d].process
        grp_rr_set = {w.index for w in grp_rr}
        grp_ww = [
            idx
            for idx in ordered
            if self.graph.ops[idx].process == dproc
            and idx != r.index
            and idx not in grp_rr_set
        ]
        if self.debug:
            assert delta == grp_rr_set | set(grp_ww) | {r.index}, "unexpected delta shape"
        seed = None
        for o in reversed(self.proj.by_process[dproc]):
            if o.index in self.settled and o.is_write:
                seed = o.index
                break
        prev = seed
        for idx in grp_ww:
            self.pw_update(prev, idx)
            prev = idx
        self.pw_update(prev, r.index)

        self.settled |= delta
        return delta

    def identify_rule_c(self, src: int, r_old: int) -> int | None:
        """First read of src's variable newly reachable from src, as its dictator.

        The window is [rr[src], r_old) in focus program order, r_old being the
        rr value when src was last checked.
        """
        r_new = self.rr[src]
        lo, hi = self.read_ord[r_new], self.read_ord[r_old]
        var = self.graph.ops[src].variable
        for r_tmp in self.reads[lo:hi]:
            if r_tmp.variable == var:
                tgt = self.mapping[r_tmp.index]
                if self.debug:
                    assert tgt != src, "write found dictating a read it already precedes"
                return tgt
        return None

    def apply_rule_c(self, src: int):
        """One overwrite-precedence check for `src`.

        Returns ("cycle", dst) when the forced edge closes a cycle,
        ("edge", dst) when an edge was added, or ("none", None).
        """
        if self.debug:
            self._debug_check_rr(src)
        r_old = self.rr_checked[src]
        r_new = self.rr[src]
        self.rr_checked[src] = r_new
        if r_new == r_old:
            return ("none", None)
        tgt = self.identify_rule_c(src, r_old)
        if tgt is None:
            return ("none", None)
        if not self.graph.add_edge(src, tgt, WPW):
            # The proactive pass at tgt's own read already ordered src -> tgt
            # (and checked it); later same-variable reads ride tgt's chain.
            return ("none", None)
        self.rulec_edges += 1
        hit = self.cycle_detection(src, tgt)
        if hit is not None:
            return ("cycle", (tgt, hit))
        self.update_reachability(src, tgt)
        return ("edge", tgt)

    def topo_schedule(self, r: Operation) -> Verdict | None:
        """Reverse-topological refresh of D(r)'s downset; None means no cycle.

        Writes pull rr from their direct successors (processed first) and get
        one rule check each; an edge into a not-yet-done member makes the
        source wait for it and be re-checked.
        """
        self.topo_calls += 1
        fired: dict[int, int] = {}
        d = self.mapping[r.index]
        dset = self.graph.downset(d)
        suc = {u: [s for s in self.graph.succs[u] if s in dset] for u in dset}
        count = {u: len(suc[u]) for u in dset}
        pre = {u: [p for p in self.graph.preds[u] if p in dset] for u in dset}
        done: set[int] = set()
        queue = deque([d])
        while queue:
            u = queue.popleft()
            if self.graph.ops[u].is_write and u not in done:
                for s in suc[u]:
                    other = s if self.graph.ops[s].is_read else self.rr.get(s)
                    self.rr[u] = self._earlier_read(self.rr.get(u), other)
                status, tgt = self.apply_rule_c(u)
                if status == "cycle":
                    self.detected_in_topo = True
                    dst, entry = tgt
                    return self._reject_cycle(u, dst, entry)
                if status == "edge":
                    fired[u] = fired.get(u, 0) + 1
                    self.topo_rulec_per_write_max = max(
                        self.topo_rulec_per_write_max, fired[u]
                    )
                    if tgt in dset and tgt not in done:
                        pre[tgt].append(u)
                        suc[u].append(tgt)
                        count[u] += 1
            if count[u] == 0:
                done.add(u)
                for p in pre[u]:
                    count[p] -= 1
                    if count[p] == 0:
                        queue.append(p)
        if self.debug:
            assert done == dset, "reverse-topological walk did not cover the downset"
        return None

    # -- debug cross-checks ----------------------------------------------------

    def _debug_check_rr(self, src: int) -> None:
        seen = {src}
        stack = [src]
        best: int | None = None
        while stack:
            u = stack.pop()
            for s in self.graph.succs[u]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
                    if self.graph.ops[s].is_read:
                        best = self._earlier_read(best, s)
        assert self.rr.get(src) == best, (
            f"stale reachable-read for {self.graph.ops[src].pretty()}: "
            f"have {self.rr.get(src)}, graph says {best}"
        )

    def _debug_check_pw(
        self,
        src: int,
        var: str,
        entry: int | None,
        pending: tuple[int, int] | None = None,
    ) -> None:
        # `pending` is an edge just added but not yet absorbed into pw; the
        # reference walk must ignore it (it may close the very cycle under test).
        seen = set()
        stack = [src]
        best: int | None = None
        while stack:
            u = stack.pop()
            for p in self.graph.preds[u]:
                if pending is not None and (p, u) == pending:
                    continue
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
                    o = self.graph.ops[p]
                    if o.is_write and o.variable == var and p in self.order_key:
                        if best is None or self.order_key[p] > self.order_key[best]:
                            best = p
        assert entry == best, (
            f"stale preceding-write for {self.graph.ops[src].pretty()}[{var}]: "
            f"have {entry}, graph says {best}"
        )

    # -- driver -----------------------------------------------------------------

    def run(self) -> Verdict:
        try:
            self.mapping = build_read_mapping(self.proj)
        except UnmatchedReadError as exc:
            return self._verdict(False, reason=str(exc))
        for r in self.reads:  # reads in program order: the first one is the minimum
            self.order_key.setdefault(self.mapping[r.index], self.read_ord[r.index])

        add_rule_a_b(self.graph, self.proj, self.mapping)

        focus_seq = self.proj.by_process.get(self.focus, ())
        fpos = self._fpos = {o.index: i for i, o in enumerate(focus_seq)}
        for r in self.reads:
            d = self.mapping[r.index]
            if self.graph.ops[d].process == self.focus and fpos[d] > fpos[r.index]:
                chain = focus_seq[fpos[r.index] : fpos[d] + 1]
                nodes = tuple(o.index for o in chain) + (r.index,)
                tags = (PO,) * (len(chain) - 1) + (WR,)
                return self._verdict(
                    False,
                    cycle=Cycle(nodes=nodes, tags=tags),
                    reason="read precedes its dictating write",
                )

        r_prev: Operation | None = None
        for r in self.reads:
            delta = self.init_reachability(r_prev, r)
            d = self.mapping[r.index]
            by_process = self.lw.get(r.variable, {})
            dproc = self.graph.ops[d].process
            last = {ws[-1] for p, ws in by_process.items() if p != dproc}
            for src in sorted(w for ws in by_process.values() for w in ws if w != d):
                if self.graph.has_edge(src, d):
                    continue
                hit = self.cycle_detection(src, d)
                if hit is None and src not in last:
                    continue  # program order leads src to its process's last write
                self.graph.add_edge(src, d, WPW)
                self.rulec_edges += 1
                if hit is not None:
                    return self._reject_cycle(src, d, hit)
                self.update_reachability(src, d)
            if d not in delta:
                verdict = self.topo_schedule(r)
                if verdict is not None:
                    return verdict
            r_prev = r

        return self._verdict(True, witness=build_dag_schedule(self.final_graph(), self.proj))

    def final_graph(self) -> OperationGraph:
        """The live graph as built so far; never closed, so `reaches()` raises on it."""
        return self.graph


def verify_read_centric(trace: Trace, focus: str, *, debug_checks: bool = False) -> Verdict:
    """Decide consistency from `focus`'s viewpoint, one read at a time.

    Requires unique write values (raises DuplicateValueError otherwise).
    `debug_checks` cross-checks the incremental dictionaries against the graph
    at every use.  The verdict carries the checker's live graph: the sparse
    edges, never closed, so its reachability queries (`reaches()`) raise.
    """
    return ReadCentricChecker(trace, focus, debug_checks=debug_checks).run()
