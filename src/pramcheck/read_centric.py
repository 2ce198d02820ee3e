"""Incremental verifier: process focus reads one at a time.

Same decision problem and `OperationGraph` as `rw_closure`, built
incrementally.  For each focus read r, only the newly reachable slice of the
graph (r's downset minus the previous read's) is examined.  Operations not yet
settled have no stored edges: a read's slice gets its `PO` and `WR` edges as
it settles, and every `WpW` edge joins two settled writes.  So that slice is
two program-order prefixes: the focus's unsettled operations up to r and
those of D(r)'s process up to D(r).  The verdict's graph gets the other `PO`
and `WR` edges on its first read.  Three dictionaries carry everything the
overwrite-precedence rule needs:

* `rr` - per write, the ordinal of the earliest focus read it currently
  reaches, and per focus read its own.  A write whose `rr` drops may have
  become ordered before further reads of its variable, which is exactly when
  the rule can fire again.
* `pw` - per operation and variable, the order key of the latest preceding
  write that dictates some read: the ordinal of the first read that write
  dictates, so a merge compares ints and the key's read maps it back to its
  write.  A new edge w' -> w closes a cycle precisely when w already precedes
  w' in that order, i.e. when pw[w'][var] is at or after w's key.  A run of
  consecutive focus reads shares one table: a read passes pw on only to the
  next focus operation, and pw never falls along program order, so the table
  is the run's last settled read's, which the write after the run copies.
* `pending` - per write whose `rr` dropped since its last rule check, the
  `rr` it was checked at: the only record that a rule check is pending.

`pw` is exact but for the edges into D(r) that the proactive pass at r has
added and not yet walked: for every other stored edge u -> s, pw[s] holds
what u passes on.  The pass merges what its edges pass on into one dict and
walks it forward from D(r) once; a rule-C edge is walked on its own.  A walk
goes on only from operations whose entry grew: past an entry that does not
grow, none would.  From a read that grew, it goes on at the write after its
run (`run_end`), once that write has settled.

The dictating write's downset is re-walked in reverse topological order
(`topo_schedule`) only while `pending` is non-empty; every write there
refreshes `rr` from its successors and gets one overwrite-rule check.  The
walk keeps no copy of the graph: a rule-C edge reaches it through the
graph's own tables, where `add_edge` stores it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from operator import attrgetter

from .legality import Verdict
from .model import WRITE, Operation, Trace, UnmatchedReadError, build_read_mapping, visible
from .model import classify  # noqa: F401 - bench/tracing.py wraps this name
from .opgraph import PO, WPW, WR, OperationGraph, add_rule_a_b, build_dag_schedule
from .opgraph import misordered_read_cycle

ALGORITHM = "read-centric"


def _merge(dst: dict[str, int], known: dict[str, int]) -> bool:
    """Raise each entry of `dst` to `known`'s; True if any grew."""
    grew = False
    for var, key in known.items():
        if dst.get(var, -1) < key:
            dst[var] = key
            grew = True
    return grew


class ReadCentricChecker:
    """One verification run; exposes its dictionaries and counters for tests.

    The settled operations, the union of the processed reads' downsets and
    the keys of `pw`, are down-closed: each process's settled operations are
    a program-order prefix, `prefix[process]` long.  Operations not yet
    settled have no stored edges, so r's new slice is the focus's unsettled
    prefix up to r plus D(r)'s process's up to D(r).  The focus's reads of
    each variable are kept as ordinals (`ords`), so rule C finds the first
    one in its window by a bisect, and each run of reads shares one `pw`.

    The proactive overwrite-rule pass at a focus read r (dictating write d)
    orders every settled write on r's variable before d.  Those of each process
    form a program-order prefix `ws`, and one cycle check per process covers
    it: once src -> d closes a cycle (pw[src] at or after d's key), it does for
    every later write of `ws`, whose predecessors include src's (pw is exact).
    d is judged alike: as its process's last settled write it may be the only
    sign that an earlier write there hits.  Only a hit at ws[-1] scans `ws` in
    index order for the first one, stepping over d and writes already ordered
    before d; processes go in section order, which is index order, so the
    rejected source and the edges added before it are those of an index-order
    scan.  Without a hit, src -> d is added only from each other process's
    last settled write ("last"): program order leads the rest to last, or in
    d's process to d, and skipping their edges loses nothing:

    1. Reachability: src -PO-> ... -> last -WpW-> d, or src -PO-> ... -> d.
    2. `rr`: rr[src] is at or before rr[last], so the edge into d lowers
       rr[src] only if it lowers rr[last], never when d is new at r (rr[d]
       = r is later than any older rr).  If it does, `lower_rr` puts last
       in `pending` at once, and `topo_schedule(r)` refreshes rr over d's
       downset, which holds src.  The walk is skipped while `pending` is
       empty: every rr is then exact and was checked at its value, so it
       would change nothing.
    3. `pw`: pw[last] already accounts for src and for pw[src], so the
       operations after d learn the same latest preceding write from last.
       Each edge's `pw_after(last)` is merged into one dict, which one
       walk from d carries forward after the last process.  Merges
       take the maximum per variable, so the tables end as one walk per
       edge would leave them.
    4. Witnesses: `build_dag_schedule`'s blocks are downset differences, one
       `topo_sort` keyed by (block, index) takes the lexicographically
       smallest linear extension of each read block in turn, and the
       operations preceding no read, which carry only `PO` edges, follow in
       index order; all of it depends on reachability alone.

    Until that walk, pw is short only on operations d reaches.  Each of
    them other than d already holds a key on r's variable at or above d's,
    so its check fires with or without the walk, and the tables d does not
    reach are final.  d is never a source, and when d is ws[-1] its check
    decides no source: a write of `ws` that fires is unreached by d, and its
    predecessors are d's too, so d fires as well.  So every source is found
    as the edge-by-edge walks would find it, and a rejection walks before it
    reads the source's entry for `_reject_cycle`.  The pass thus walks at
    most once per read; `update_reachability` is the one forward walk.
    """

    def __init__(self, trace: Trace, focus: str):
        try:  # the gate: an ambiguous focus read raises before any graph is built
            self.mapping, self.unmatched = build_read_mapping(trace, focus), None
        except UnmatchedReadError as exc:  # a read without a candidate: run() rejects
            self.mapping, self.unmatched = {}, str(exc)
        self.focus = focus
        self.ops = trace.ops  # ops[i].index == i
        self.proj = visible(trace, focus)
        self.graph = OperationGraph()
        self.reads: tuple[Operation, ...] = self.proj.focus_reads()

        self.prefix: dict[str, int] = {}  # process -> length of its settled prefix
        # write -> ordinal of the earliest focus read it reaches; a focus read's is its own
        self.rr: dict[int, int] = {r.index: k for k, r in enumerate(self.reads)}
        self.pending: dict[int, int] = {}  # write whose rr dropped -> rr at its last rule check
        self.pw: dict[int, dict[str, int]] = {}  # op -> variable -> preceding write's key
        self.run_end: dict[int, int | None] = {}  # focus read -> next focus write, or None
        after = None
        for o in reversed(self.proj.by_process[focus]):
            if o.kind == WRITE:
                after = o.index
            else:
                self.run_end[o.index] = after
        self.ords: dict[str, list[int]] = {}  # variable -> ordinals of the focus's reads of it
        for k, r in enumerate(self.reads):
            self.ords.setdefault(r.variable, []).append(k)
        # variable the focus reads -> one list per process with settled writes
        # on it, those writes, the lists in section order (by first write)
        self.lw: dict[str, list[list[int]]] = {v: [] for v in self.ords}
        self.order_key: dict[int, int] = {}  # write -> ordinal of first dictated read

        self.rulec_edges = 0  # WpW edges added by rule C

    # -- shared plumbing -----------------------------------------------------

    def _reject_cycle(self, src: int, dst: int, entry: int) -> Verdict:
        """Add the forced edge src -> dst, which closes a cycle; extract the cycle.

        Detection can fire before the closing precedence is materialized: when
        `entry` (src's latest preceding write on dst's variable) is dictated by
        a read not yet processed, the forced edge dst -> entry is implied but
        absent.  Adding it here makes the counterexample concrete.
        """
        if self.graph.add_edge(src, dst, WPW):  # a rule check stores its edge first
            self.rulec_edges += 1
        if entry != dst:
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

    def pw_update(self, known: dict[str, int], o: int) -> bool:
        """Merge preceding-write knowledge (a `pw_after`) into pw[o]; True if it grew."""
        return _merge(self.pw[o], known)

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
            return self.mapping[self.reads[key].index]
        return None

    def lower_rr(self, src: int, dst: int) -> None:
        """For the new edge src -> dst: src now reaches dst's earliest read.

        If that lowers rr[src], src joins `pending` at the rr it was last
        checked at.
        """
        if self.rr[dst] < self.rr[src]:
            self.pending.setdefault(src, self.rr[src])
            self.rr[src] = self.rr[dst]

    def update_reachability(self, dst: int, known: dict[str, int]) -> None:
        """Merge `known`, what new edges into dst pass on, into pw along dst's forward set.

        The merge goes on to an operation's successors only if its entry
        grew: pw is exact, each walked edge u -> s leaving pw[s] holding
        `pw_after(u)`, so past an entry that already held the knowledge
        nothing grows.  Nor does an operation met again, so the walk needs
        no visited set.
        """
        succs, run_end = self.graph.succs, self.run_end  # stored edges join settled ops
        stack = [dst]
        while stack:
            u = stack.pop()
            if not self.pw_update(known, u):
                continue
            if u not in run_end:
                stack.extend(succs[u])
            elif run_end[u] in self.pw:  # past u's run, which shares its table
                stack.append(run_end[u])

    # -- per-read processing --------------------------------------------------

    def init_reachability(self, r: Operation) -> None:
        """Absorb r's new slice: store its edges, seed rr/lw, thread pw along both prefixes.

        Each prefix is threaded from its process's last settled operation,
        storing each operation's `PO` edge from its predecessor; then r's
        `WR` edge.  When D(r) is the focus's own, the focus prefix covers it.
        """
        d = self.ops[self.mapping[r.index]]
        rr, pw, pw_after, run_end = self.rr, self.pw, self.pw_after, self.run_end
        k = rr[r.index]
        add_edge = self.graph.add_edge
        for end in (r,) if d.process == self.focus else (r, d):
            p = end.process
            seq = self.proj.by_process[p]
            lo = self.prefix.get(p, 0)
            prev = seq[lo - 1].index if lo else None
            chain = seq[lo : bisect_right(seq, end.index, lo, key=attrgetter("index"))]
            for o in chain:
                i = o.index  # i is new to pw and to the graph
                if prev is None:
                    pw[i] = {}
                else:  # a run of focus reads shares its first read's table
                    pw[i] = pw[prev] if i in run_end and prev in run_end else pw_after(prev)
                    add_edge(prev, i, PO)
                prev = i
                if o.kind == WRITE:
                    rr[i] = k
                    wl = self.lw.get(o.variable)
                    if wl is not None:  # the focus reads o's variable
                        j = bisect_right(wl, [i])  # sections are index runs
                        if j and self.ops[wl[j - 1][0]].process == p:
                            wl[j - 1].append(i)
                        else:
                            wl.insert(j, [i])
            if prev != r.index:  # d's chain ends at d, which precedes r
                self.pw_update(pw_after(prev), r.index)
            self.prefix[p] = lo + len(chain)
        self.graph.add_edge(d.index, r.index, WR)

    def first_cycle_source(self, ws: list[int], d: int) -> int | None:
        """The first write of `ws` whose edge into d closes a cycle, or None."""
        if self.cycle_detection(ws[-1], d) is None:
            return None
        for src in ws:
            hit = self.cycle_detection(src, d) is not None
            if hit and src != d and not self.graph.has_edge(src, d):
                return src
        return None

    def identify_rule_c(self, src: int, r_old: int) -> int | None:
        """First read of src's variable newly reachable from src, as its dictator.

        The window is [rr[src], r_old) in focus program order, r_old being the
        rr value when src was last checked (`pending[src]`).
        """
        ords = self.ords.get(self.ops[src].variable, ())
        j = bisect_left(ords, self.rr[src])
        if j < len(ords) and ords[j] < r_old:
            return self.mapping[self.reads[ords[j]].index]
        return None

    def apply_rule_c(self, src: int) -> Verdict | int | None:
        """One overwrite-precedence check for `src`.

        Returns the rejecting verdict when the forced edge closes a cycle,
        the edge's target when an edge was added, or None.
        """
        r_old = self.pending.pop(src, None)
        if r_old is None:
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
        self.lower_rr(src, tgt)
        self.update_reachability(tgt, self.pw_after(src))
        return tgt

    def topo_schedule(self, r: Operation) -> Verdict | None:
        """Reverse-topological refresh of D(r)'s downset; None means no cycle.

        Writes pull rr from their direct successors (processed first) and get
        one rule check each.  A rule-C edge reaches the walk through the
        graph; one into a not-yet-done member makes the source wait for it
        and be re-checked.
        """
        d = self.mapping[r.index]
        dset = self.graph.downset(d)
        succs, preds = self.graph.succs, self.graph.preds  # preds[u] lies in dset
        count = {u: len(succs[u].keys() & dset) for u in dset}
        done: set[int] = set()
        queue = deque([d])
        while queue:
            u = queue.popleft()
            if self.ops[u].is_write:
                for s in succs[u]:
                    if s in dset and self.rr[s] < self.rr[u]:
                        self.pending.setdefault(u, self.rr[u])
                        self.rr[u] = self.rr[s]
                tgt = self.apply_rule_c(u)
                if isinstance(tgt, Verdict):
                    return tgt
                if tgt in dset and tgt not in done:  # tgt may be None: no rule fired
                    count[u] += 1
            if count[u] == 0:
                done.add(u)
                for p in preds[u]:
                    count[p] -= 1
                    if count[p] == 0:
                        queue.append(p)
        if len(done) != len(dset):  # done is a subset of dset
            raise RuntimeError("reverse-topological walk did not cover the downset")
        return None

    def settle(self, r: Operation) -> Verdict | None:
        """Process focus read r: its slice, the proactive pass, a re-walk if due.

        Returns the rejecting verdict, or None.  D(r)'s downset, if settled
        before r, is re-walked only while a rule check is pending.
        """
        d = self.mapping[r.index]
        was_settled = d in self.pw
        self.init_reachability(r)
        dproc = self.ops[d].process
        known: dict[str, int] = {}  # what the pass's edges into d pass on, not yet walked
        for ws in self.lw[r.variable]:  # section order
            src = self.first_cycle_source(ws, d)
            if src is not None:  # its entry is read from the tables with the edges walked
                self.update_reachability(d, known)
                return self._reject_cycle(src, d, self.cycle_detection(src, d))
            last = ws[-1]  # program order leads the others to it
            if self.ops[last].process != dproc and self.graph.add_edge(last, d, WPW):
                self.rulec_edges += 1
                self.lower_rr(last, d)
                _merge(known, self.pw_after(last))
        if known:
            self.update_reachability(d, known)
        if self.pending and was_settled:
            return self.topo_schedule(r)
        return None

    # -- driver -----------------------------------------------------------------

    def run(self) -> Verdict:
        if self.unmatched is not None:  # its graph stays edge-less
            return Verdict(False, self.focus, ALGORITHM, reason=self.unmatched, graph=self.graph)
        for key, r in enumerate(self.reads):  # reads in program order: first wins
            self.order_key.setdefault(self.mapping[r.index], key)

        cycle = misordered_read_cycle(self.reads, self.mapping, self.ops)
        if cycle is not None:
            return self._verdict(False, cycle=cycle, reason="read precedes its dictating write")

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
