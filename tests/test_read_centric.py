import hashlib
import itertools
import random
import re

import pytest

from pramcheck import (
    MUTATIONS,
    DuplicateValueError,
    MutationError,
    Verdict,
    check_pram_witness,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
    verify_rw_closure,
)
from pramcheck.model import visible
from pramcheck.opgraph import OperationGraph
from pramcheck.oracle import oracle_verify
from pramcheck.read_centric import ALGORITHM, ReadCentricChecker, verify_read_centric
from testutil import (
    CheckedReadCentricChecker,
    CrossChecks,
    T,
    brute_force_consistent,
    reread_trace,
    verify_read_centric_checked,
)
from test_rw_closure import DUPLICATE_ELSEWHERE, FROZEN, _exhaustive_unique_traces


@pytest.mark.parametrize("text,expected", FROZEN)
def test_frozen_verdicts(text, expected):
    t = parse_trace(text)
    for focus, want in expected.items():
        v = verify_read_centric(t, focus)
        assert v.consistent is want, focus
        assert v.algorithm == ALGORITHM


def test_preceding_write_tracks_the_latest_settled_write():
    """Regression: on a write chain, the *last* settled preceding write wins.

    With three stacked writes and reads arriving out of order, keeping an
    earlier preceding-write entry would hide the Wx3/Wx1 conflict below.
    """
    t = T("""
        p1 W x 1
        p1 W x 2
        p1 W x 3
        p1 R x 2
        p1 R x 1
    """)
    assert brute_force_consistent(t, "p1") is False
    assert verify_read_centric_checked(t, "p1").consistent is False


DETECTED_IN_TOPO = """
p1 W x 1
p1 W y 3
p1 W x 4
p4 W x 2
p4 W y 2
p3 R y 2
p3 R x 2
p3 R x 1
p3 R x 4
p3 R y 2
"""


class WalkCountingChecker(ReadCentricChecker):
    """Counts re-walks, rejections found in one, and each write's rule-C edges per walk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.topo_calls = 0
        self.detected_in_topo = False
        self.topo_rulec_per_write_max = 0
        self.fired: dict[int, int] = {}  # write -> rule-C edges it added in this walk

    def topo_schedule(self, r):
        self.topo_calls += 1
        self.fired = {}
        return super().topo_schedule(r)

    def apply_rule_c(self, src):
        tgt = super().apply_rule_c(src)  # only a walk applies the rule
        if isinstance(tgt, Verdict):
            self.detected_in_topo = True
        elif tgt is not None:
            self.fired[src] = self.fired.get(src, 0) + 1
            self.topo_rulec_per_write_max = max(self.topo_rulec_per_write_max, self.fired[src])
        return tgt


class _CheckedWalkCountingChecker(CrossChecks, WalkCountingChecker):
    """`WalkCountingChecker` with every cross-check on."""


def test_cycle_found_inside_schedule_construction():
    """A conflict that only materializes while topo-sorting a read's downset."""
    checker = _CheckedWalkCountingChecker(T(DETECTED_IN_TOPO), "p3")
    v = checker.run()
    assert v.consistent is False
    assert checker.detected_in_topo is True
    # Wx1@p1#0 -> Wx4@p1#2 is not among them: program order implies it
    assert checker.rulec_edges == 4
    # One re-walk, where a proactive source's reachable read dropped; the
    # other read with a settled dictating write changed no rr, so its walk
    # would have been idle and is skipped.
    assert checker.topo_calls == 1
    assert v.cycle is not None
    assert v.cycle.nodes == (0, 3, 0)


def test_cycle_source_before_the_dictating_write_in_its_own_process():
    """The rejected write precedes d in d's process, and d is that process's last.

    d closes a cycle too (its predecessors include the source's), so the
    per-process check must judge d like any other write to find the source.
    """
    t = mutate_trace(173, gen_pram_trace(173, processes=2, variables=1, ops=20), "reorder-reads")
    checker = CheckedReadCentricChecker(t, "p1")
    v = checker.run()
    assert v.consistent is False
    assert v.cycle.nodes == (6, 10, 4, 6)
    assert v.cycle.tags == ("WpW", "WpW", "PO")
    assert checker.rulec_edges == 1
    assert checker.mapping[15] == 10 and t.ops[6].process == t.ops[10].process == "p2"


class _WatchedSuccs(dict):
    """A successor table that counts the lookups of one node's successors."""

    def __init__(self, table, checker):
        super().__init__(table)
        self.checker = checker
        self.watched = None

    def __getitem__(self, u):
        if u == self.watched and not self.checker.in_walk:
            self.checker.per_read[-1]["walks"] += 1
        return super().__getitem__(u)


class _CountingChecker(WalkCountingChecker):
    """Counts the proactive pass's cycle checks, edges, walks from the dictating
    write d and pending rule checks, read by read.

    A forward walk from d looks d's successors up once, so the lookups of
    succs[d] between the read's slice and its re-walk count those walks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.per_read: list[dict] = []
        self.in_walk = False
        self.graph.succs = _WatchedSuccs(self.graph.succs, self)

    def init_reachability(self, r):
        # an earlier walk can lower a write's rr after checking it
        left = any(self.rr[w] != self.rr_checked[w] for w in self.rr)
        self.graph.succs.watched = None
        delta = super().init_reachability(r)
        procs = sum(1 for ws in self.lw[r.variable].values() if ws)
        left = left and self.mapping[r.index] not in delta
        self.per_read.append(
            {"procs": procs, "checks": 0, "edges": 0, "walks": 0, "dropped": False, "left": left}
        )
        self.graph.succs.watched = self.mapping[r.index]
        return delta

    def cycle_detection(self, src, dst):
        if not self.in_walk:
            self.per_read[-1]["checks"] += 1
        return super().cycle_detection(src, dst)

    def update_reachability(self, src, dst, reach=None):
        before = self.rr[src]
        reach = super().update_reachability(src, dst, reach)
        if not self.in_walk:
            self.per_read[-1]["edges"] += 1
            if self.rr[src] != before:
                self.per_read[-1]["dropped"] = True
        return reach

    def topo_schedule(self, r):
        self.in_walk = True
        try:
            return super().topo_schedule(r)
        finally:
            self.in_walk = False

    def final_graph(self):
        self.graph.succs.watched = None
        return super().final_graph()


class _CheckedCountingChecker(CrossChecks, _CountingChecker):
    """Counts as `_CountingChecker` does, the cross-checks' own calls included;
    the tests that count walks from d take the plain class."""


def test_rule_c_work_is_bounded_per_process_and_per_dropped_read():
    """One cycle check per process at each read; a re-walk only where an rr dropped."""
    t = gen_pram_trace(1, processes=16, variables=2, ops=3200, read_fraction=0.35)
    checker = _CountingChecker(t, "p2")
    assert checker.run().consistent
    reads = checker.per_read
    assert reads and all(x["checks"] <= x["procs"] for x in reads)
    assert not any(x["left"] for x in reads)
    assert checker.topo_calls == sum(x["dropped"] for x in reads) > 0


def test_proactive_pass_walks_the_forward_set_of_d_once_per_read():
    """Every edge the pass adds ends at d, so none changes what d reaches:
    the walk at the read's first edge serves all its other edges."""
    for seed in (1, 2):
        t = gen_pram_trace(seed, processes=16, variables=2, ops=1600, read_fraction=0.35)
        for focus in ("p1", "p8", "p16"):
            checker = _CountingChecker(t, focus)
            assert checker.run().consistent
            reads = checker.per_read
            assert [x["walks"] for x in reads] == [min(x["edges"], 1) for x in reads]
            assert sum(x["edges"] for x in reads) > len(reads)


def test_witness_sort_takes_only_the_operations_the_reads_reach(monkeypatch):
    t = gen_pram_trace(1, processes=16, variables=2, ops=1600, read_fraction=0.35)
    sorted_sizes = []
    topo_sort = OperationGraph.topo_sort

    def counting(graph, *args, **kwargs):
        out = topo_sort(graph, *args, **kwargs)
        sorted_sizes.append(len(out))
        return out

    monkeypatch.setattr(OperationGraph, "topo_sort", counting)
    v = verify_read_centric(t, "p1")
    assert v.consistent and sorted_sizes == []  # the witness is sorted on first read
    assert v.witness is not None
    proj = visible(t, "p1")
    reached = set().union(*(v.graph.downset(r.index) for r in proj.focus_reads()))
    assert sorted_sizes == [len(reached)]
    assert len(reached) < len(proj.ops) / 4


def test_write_left_unchecked_by_a_walk_gets_the_next_walk():
    """A walk can lower a write's rr after its check, through an edge to a
    write the walk has finished.  The next read with a settled dictating
    write must walk again, although no proactive source's rr dropped there.
    """
    t = gen_pram_trace(471)
    checker = _CheckedCountingChecker(t, "p1")
    assert checker.run().consistent
    assert checker.topo_calls == 2
    assert [(x["dropped"], x["left"]) for x in checker.per_read if x["dropped"] or x["left"]] == [
        (True, False),
        (False, True),
    ]


def test_unmatched_read_is_rejected_with_reason():
    v = verify_read_centric(T("p1 W x 1\np2 R x 7"), "p2")
    assert v.consistent is False
    assert "no dictating write" in v.reason


def test_duplicate_values_are_refused():
    """Only a focus with a read that several writes could have dictated is refused."""
    t = T(DUPLICATE_ELSEWHERE)
    with pytest.raises(DuplicateValueError, match=re.escape("read #6 (Rx1@p3#6)")):
        verify_read_centric(t, "p3")
    # x=1 is written twice, but p1 and p2 read no x
    for focus, want in (("p1", True), ("p2", False)):
        v = verify_read_centric_checked(t, focus)
        assert v.consistent is want is oracle_verify(t, focus).consistent
        if want:
            assert check_pram_witness(t, focus, v.witness).ok


def test_agrees_with_rw_closure_on_exhaustive_small_traces():
    for t in _exhaustive_unique_traces(5):
        for focus in t.processes:
            want = verify_rw_closure(t, focus).consistent
            got = verify_read_centric_checked(t, focus)
            assert got.consistent is want
            if got.consistent:
                assert check_pram_witness(t, focus, got.witness).ok


def _seeded_traces():
    """200 seeded 4-process traces of 18 operations, 60 % of them mutated."""
    rng = random.Random(88)
    for _ in range(200):
        t = gen_pram_trace(rng.randrange(10**6), processes=4, variables=3, ops=18)
        if rng.random() < 0.6:
            kind = rng.choice(("swap-write-values", "reorder-reads", "retarget-read"))
            try:
                t = mutate_trace(rng.randrange(10**6), t, kind)
            except Exception:
                pass
        yield t


def test_agrees_with_rw_closure_on_seeded_traces():
    disagreements = 0
    for t in _seeded_traces():
        for focus in t.processes:
            try:
                a = verify_rw_closure(t, focus).consistent
            except DuplicateValueError:
                continue
            b = verify_read_centric_checked(t, focus).consistent
            if a is not b:
                disagreements += 1
    assert disagreements == 0


class _SkipsPwAtTheRead(ReadCentricChecker):
    """Planted defect: a read's slice does not pass the end of D(r)'s chain
    on to r in pw (the `pw_update(prev, {r.index})` of `init_reachability`)."""

    in_slice = False

    def init_reachability(self, r):
        self.in_slice = True
        try:
            return super().init_reachability(r)
        finally:
            self.in_slice = False

    def pw_update(self, o, targets):
        if not self.in_slice:  # the slice's only pw_update is the one at r
            super().pw_update(o, targets)


class _KeepsStaleRr(ReadCentricChecker):
    """Planted defect: a new edge src -> dst leaves rr[src] as it was (no
    `rr[src] = min(rr[src], rr[dst])` in `update_reachability`)."""

    def update_reachability(self, src, dst, reach=None):
        before, pending = self.rr[src], src in self.unchecked
        reach = super().update_reachability(src, dst, reach)
        self.rr[src] = before
        if not pending and before == self.rr_checked[src]:
            self.unchecked.discard(src)
        return reach


@pytest.mark.parametrize("defect", [_SkipsPwAtTheRead, _KeepsStaleRr])
def test_cross_checks_catch_planted_defects(defect):
    """Each defect trips an assert of `CrossChecks` on the small-trace corpora."""
    checked = type(f"Checked{defect.__name__}", (CrossChecks, defect), {})
    traces = itertools.chain(_exhaustive_unique_traces(5), _seeded_traces())
    with pytest.raises(AssertionError):
        for t in traces:
            for focus in t.processes:
                try:
                    checked(t, focus).run()
                except DuplicateValueError:
                    continue


def test_cross_checks_pass_at_the_benchmark_shape():
    """Checked runs on every focus of a 16-process, 1,600-op trace and of the
    re-read family at k = 60 give the plain checker's verdicts and edges."""
    gen = gen_pram_trace(1, processes=16, variables=2, ops=1600, read_fraction=0.35)
    for t in (gen, reread_trace(60)):
        for focus in t.processes:
            plain, checked = verify_read_centric(t, focus), verify_read_centric_checked(t, focus)
            assert (checked.consistent, checked.reason) == (plain.consistent, plain.reason)
            assert (checked.cycle, checked.witness) == (plain.cycle, plain.witness)
            assert sorted(checked.graph.edges()) == sorted(plain.graph.edges()), focus


def test_witnesses_are_sound_on_seeded_traces():
    rng = random.Random(13)
    accepted = 0
    for _ in range(80):
        t = gen_pram_trace(rng.randrange(10**6), processes=3, variables=2, ops=24)
        for focus in t.processes:
            v = verify_read_centric(t, focus)
            if v.consistent:
                accepted += 1
                assert check_pram_witness(t, focus, v.witness).ok
    assert accepted > 100


def test_every_cycle_edge_is_in_the_verdict_graph():
    v = verify_read_centric(T(DETECTED_IN_TOPO), "p3")
    for u, w in zip(v.cycle.nodes, v.cycle.nodes[1:]):
        assert v.graph.has_edge(u, w)


def _reachability(graph):
    """Every pair (u, v) with u != v and a path from u to v."""
    return {(u, v) for v in graph.nodes for u in graph.downset(v) if u != v}


def test_graph_keeps_rw_closure_reachability():
    """Read-centric's sparse graph orders exactly what rw-closure's saturated one does."""
    rng = random.Random(2024)
    checked = 0
    while checked < 2000:
        t = gen_pram_trace(
            rng.randrange(10**6), processes=rng.choice((3, 4)), variables=2, ops=20
        )
        if rng.random() < 0.5:
            kind = rng.choice(("swap-write-values", "reorder-reads", "retarget-read"))
            try:
                t = mutate_trace(rng.randrange(10**6), t, kind)
            except MutationError:
                pass
        for focus in t.processes:
            try:
                sparse = verify_read_centric(t, focus)
            except DuplicateValueError:
                continue
            if not sparse.consistent:
                continue
            saturated = verify_rw_closure(t, focus)
            assert saturated.consistent
            assert _reachability(sparse.graph) == _reachability(saturated.graph)
            checked += 1


def _read_centric_digest() -> str:
    """sha256 over each focus's verdict, reason, cycle, witness and edge list.

    The traces: 16-process `gen_pram_trace` traces of 1,600 operations (the
    benchmark's `gen-large` shape), seeds 1-6, each also with every mutation
    that applies to it.
    """
    h = hashlib.sha256()
    for seed in range(1, 7):
        t = gen_pram_trace(seed, processes=16, variables=2, ops=1600, read_fraction=0.35)
        traces = [("none", t)]
        for kind in MUTATIONS:
            try:
                traces.append((kind, mutate_trace(seed, t, kind)))
            except MutationError:
                pass
        for kind, trace in traces:
            for focus in trace.processes:
                v = verify_read_centric(trace, focus)
                cycle = (v.cycle.nodes, v.cycle.tags) if v.cycle is not None else None
                seq = v.witness.seq if v.witness is not None else None
                edges = sorted(v.graph.edges())
                row = f"{seed} {kind} {focus} {v.consistent} {v.reason} {cycle} {seq} {edges}"
                h.update(f"{row}\n".encode())
    return h.hexdigest()


def test_outputs_on_16_process_traces_are_frozen():
    """Verdicts, cycles, witnesses and the edge list with its tags: any change
    to the graph read-centric builds moves this digest."""
    assert _read_centric_digest() == "53455ea35043e59115598431781c17ce0844526d2c210909d4b017a0bb27a7b6"


def test_live_graph_stores_only_the_settled_operations_edges():
    """Each process's settled operations are a program-order prefix, so its
    unsettled suffix needs no stored edges (Jagadish's chain decomposition).
    Until the verdict's graph is read, only settled operations have tables."""
    t = gen_pram_trace(1, processes=16, variables=2, ops=1600, read_fraction=0.35)
    tables = visible_ops = 0
    for focus in t.processes:
        checker = ReadCentricChecker(t, focus)
        v = checker.run()
        assert v.consistent
        graph, settled = checker.graph, checker.pw.keys()
        assert callable(v.__dict__["graph"])  # the verdict holds the completion, not yet run
        assert graph.succs.keys() == graph.preds.keys() == settled
        assert all(u in settled for out in graph.succs.values() for u in out)
        assert all(u in settled for ins in graph.preds.values() for u in ins)
        tables += len(graph.succs)
        visible_ops += len(checker.proj.ops)
        assert v.graph is graph and graph.succs.keys() == set(graph.nodes)  # completed on read
    assert tables < 0.2 * visible_ops, (tables, visible_ops)


def test_witness_and_graph_agree_in_either_read_order():
    """The witness sorts the live graph, or the completed one when the graph
    was read first; the schedules and edge lists match either way."""
    from test_acceptance import _exhaustive_traces, _generator_traces

    traces = itertools.chain(_exhaustive_traces(4), (t for _, t in _generator_traces(2000)))
    seen = {True: 0, False: 0}
    for t in traces:
        for focus in t.processes:
            try:
                first = verify_read_centric(t, focus)
            except DuplicateValueError:
                continue
            second = verify_read_centric(t, focus)
            sched = first.witness
            edges = sorted(first.graph.edges())
            assert sorted(second.graph.edges()) == edges
            assert second.witness == sched
            assert first.graph is first.graph
            seen[first.consistent] += 1
    assert min(seen.values()) > 1000, seen
    unmatched = verify_read_centric(T("p1 W x 1\np2 W x 2\np2 R x 7"), "p2")
    assert unmatched.reason and unmatched.graph.nodes and list(unmatched.graph.edges()) == []


@pytest.mark.parametrize("k", [1, 2, 7, 60])
def test_reread_family_is_accepted_with_a_legal_witness(k):
    t = reread_trace(k)
    assert t.n == 6 * k + 2
    v = verify_read_centric(t, "f")
    assert v.consistent and check_pram_witness(t, "f", v.witness).ok


def test_reread_family_graph_matches_rw_closure_and_is_frozen():
    """At k = 60: rw-closure agrees with the same reachability, and the
    sparse edge list (2,251 edges) is pinned: any change to the graph
    read-centric builds on this family moves the digest."""
    t = reread_trace(60)
    sparse, saturated = verify_read_centric(t, "f"), verify_rw_closure(t, "f")
    assert saturated.consistent
    edges = sorted(sparse.graph.edges())
    assert len(edges) == 2251
    digest = hashlib.sha256(repr(edges).encode()).hexdigest()
    assert digest == "9e05e8c76e6d8811b3cbb25db66f71e24ddd3e380c136139f969ffbdf71fe7aa"
    assert _reachability(sparse.graph) == _reachability(saturated.graph)
