import gc
import hashlib
import itertools
import random
import re
import tracemalloc
from functools import partial

import pytest

from pramcheck import (
    MUTATIONS,
    DuplicateValueError,
    MutationError,
    Schedule,
    Trace,
    Verdict,
    check_pram_witness,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
    verify_rw_closure,
)
from pramcheck.model import visible
from pramcheck.opgraph import WPW, OperationGraph
from pramcheck.oracle import OracleTimeout, oracle_verify
from pramcheck.read_centric import ALGORITHM, ReadCentricChecker, verify_read_centric
from testutil import (
    CheckedReadCentricChecker,
    CrossChecks,
    T,
    brute_force_consistent,
    chain_trace,
    reread_trace,
    stale_pw_writes,
    unread_out_edges_off_po,
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


class _CountingChecker(WalkCountingChecker):
    """Counts, read by read, the proactive pass's cycle checks against the
    processes with settled writes on r's variable, whether one of its edges
    lowered an rr, and whether a rule check was left pending."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.per_read: list[dict] = []
        self.in_walk = False

    def init_reachability(self, r):
        # an earlier walk can lower a write's rr after checking it
        left = bool(self.pending) and self.mapping[r.index] in self.pw
        super().init_reachability(r)
        self.per_read.append(
            {"procs": len(self.lw[r.variable]), "checks": 0, "dropped": False, "left": left}
        )

    def cycle_detection(self, src, dst):
        if not self.in_walk:
            self.per_read[-1]["checks"] += 1
        return super().cycle_detection(src, dst)

    def lower_rr(self, src, dst):
        before = self.rr[src]
        super().lower_rr(src, dst)
        if not self.in_walk and self.rr[src] != before:
            self.per_read[-1]["dropped"] = True

    def topo_schedule(self, r):
        self.in_walk = True
        try:
            return super().topo_schedule(r)
        finally:
            self.in_walk = False


class _CheckedCountingChecker(CrossChecks, _CountingChecker):
    """Counts as `_CountingChecker` does, the cross-checks' own calls included;
    the test that bounds the cycle checks takes the plain class."""


def test_rule_c_work_is_bounded_per_process_and_per_dropped_read():
    """One cycle check per process at each read; a re-walk only where an rr dropped."""
    t = gen_pram_trace(1, processes=16, variables=2, ops=3200, read_fraction=0.35)
    checker = _CountingChecker(t, "p2")
    assert checker.run().consistent
    reads = checker.per_read
    assert reads and all(x["checks"] <= x["procs"] for x in reads)
    assert not any(x["left"] for x in reads)
    assert checker.topo_calls == sum(x["dropped"] for x in reads) > 0


class _CountingPw(dict):
    """A `pw` table that counts the entries looked up in it."""

    lookups = 0

    def __getitem__(self, o):
        self.lookups += 1
        return super().__getitem__(o)


class _MergeCountingChecker(ReadCentricChecker):
    """Counts pw merges as the `pw` entries that `pw_update` looks up."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pw = _CountingPw()
        self.merges = 0

    def pw_update(self, *args):
        before = self.pw.lookups
        grew = super().pw_update(*args)
        self.merges += self.pw.lookups - before
        return grew


@pytest.mark.parametrize("k", [100, 200, 400])
def test_pw_merges_on_the_chain_family_are_linear(k):
    """A new edge's merge goes past an operation only when its entry grew.  On
    the round chain that is one merge per read's `WR` edge and one per
    proactive edge: at most 3k.  Merging into the dictating write's whole
    forward set instead makes 41,396 at k = 200."""
    checker = _MergeCountingChecker(chain_trace(k), "f")
    assert checker.run().consistent
    assert checker.merges <= 3 * k


def test_lw_keeps_only_the_processes_that_write_each_variable():
    """On the round chain each variable the focus reads has one or two
    writers among the k + 2 processes, and `lw` keeps a list for each writer
    with a settled write, none for the others."""
    t = chain_trace(400)
    checker = ReadCentricChecker(t, "f")
    assert checker.run().consistent
    assert len(checker.lw) == 2 * 400
    for v, lists in checker.lw.items():
        assert 1 <= len(lists) <= 2, v
        for ws in lists:
            owner = t.ops[ws[0]].process
            assert {(t.ops[w].process, t.ops[w].variable) for w in ws} == {(owner, v)}


# f's `W q 1` after none, half or all of its 2k reads: one run of reads, two
# runs, or one run before a write
CHAIN_SHAPES = {"no-focus-write": None, "focus-write-halfway": 1, "trailing-focus-write": 2}


def _chain(k: int, shape: str) -> Trace:
    at = CHAIN_SHAPES[shape]
    return chain_trace(k, None if at is None else at * k)


@pytest.mark.parametrize(
    "k,shape",
    [  # the plain chain keeps its ids of one number
        pytest.param(k, shape, id=f"{k}-{shape}" if CHAIN_SHAPES[shape] else str(k))
        for shape in CHAIN_SHAPES
        for k in (1, 2, 3, 10, 50, 200)
    ],
)
def test_cross_checks_hold_on_the_chain_family(k, shape):
    """Most of the chain's merges stop at their first entry; pw must stay exact."""
    assert verify_read_centric_checked(_chain(k, shape), "f").consistent


@pytest.mark.parametrize("shape,runs", zip(CHAIN_SHAPES, (1, 2, 1)))
def test_each_run_of_focus_reads_shares_one_pw_table(shape, runs):
    """A read passes pw on only to the next focus operation, so consecutive
    focus reads share one table: f's 100 reads at k = 50 hold one table per
    run of reads, not one each."""
    checker = ReadCentricChecker(_chain(50, shape), "f")
    assert checker.run().consistent
    assert len(checker.reads) == 100
    assert len({id(checker.pw[r.index]) for r in checker.reads}) == runs


def _chain_peak_bytes(k: int, shape: str) -> int:
    """tracemalloc peak of read-centric on `_chain(k, shape)`, focus f; the
    trace is built before tracing starts."""
    t = _chain(k, shape)
    gc.collect()  # empties the free lists, whose reuse tracemalloc does not see
    tracemalloc.start()
    try:
        v = verify_read_centric(t, "f")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.consistent
    return peak


@pytest.mark.parametrize("shape", CHAIN_SHAPES)
def test_chain_memory_grows_with_the_trace(shape):
    """With one pw table per run of focus reads, the chain's tables grow with
    its operations, not with reads x variables: 4.1 -> 8.3 MiB from k = 800
    to 1,600, against 38.1 -> 144.6 MiB (3.8x) with a table per read."""
    small, large = _chain_peak_bytes(800, shape), _chain_peak_bytes(1600, shape)
    assert large / small < 2.5, (small, large)


class _StopsAtARun(ReadCentricChecker):
    """Planted defect: a walk that grows a focus read's table stops there,
    where it must go on to the write after the read's run (`run_end`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.run_end = dict.fromkeys(self.run_end)  # no run's write looks settled


@pytest.mark.parametrize("seed,processes,focus", [(388344, 4, "p1"), (85121, 3, "p3")])
def test_pw_check_after_the_run_catches_a_walk_that_stops_at_a_run(seed, processes, focus):
    """A walk that reaches a run of reads whose write has settled is rare on
    random foci, about 2 in 3,000 accepted 3- and 4-process, 200-op `gen`
    foci; these are two of them.  Every settled write's pw matches a walk
    over the graph after the run; the defect leaves one write short, and
    `CrossChecks` fails."""
    t = gen_pram_trace(seed, processes=processes, variables=3, ops=200, read_fraction=0.7)
    checker = ReadCentricChecker(t, focus)
    assert checker.run().consistent
    assert stale_pw_writes(checker) == []
    assert verify_read_centric_checked(t, focus).consistent
    defect = _StopsAtARun(t, focus)
    assert defect.run().consistent
    assert len(stale_pw_writes(defect)) == 1
    with pytest.raises(AssertionError, match="stale preceding-write table"):
        type("CheckedStopsAtARun", (CrossChecks, _StopsAtARun), {})(t, focus).run()


def _drop_one_read(t: Trace, focus: str, rng: random.Random) -> tuple[Trace, int] | None:
    """`t` without one of `focus`'s reads, chosen by `rng`, and that read's
    index; None when the focus has no read, or nothing besides it."""
    section = t.processes[focus]
    reads = [o.index for o in section if o.is_read]
    if not reads or len(section) == 1:
        return None
    j = rng.choice(reads)
    return Trace.build(row for i, row in enumerate(t.rows()) if i != j), j


def _assert_consistent_without_a_read(verify, t: Trace, focus: str, rng: random.Random) -> bool:
    """If `verify` accepts `focus` on `t` (a Verdict, not a timeout or a
    refusal), drop one read and check the relation; True if it was checked."""
    try:
        v = verify(t, focus)
    except DuplicateValueError:
        return False
    dropped = _drop_one_read(t, focus, rng)
    if not isinstance(v, Verdict) or not v.consistent or dropped is None:
        return False
    smaller, j = dropped
    w = verify(smaller, focus)
    assert not isinstance(w, OracleTimeout) and w.consistent, (t.rows(), focus, j)
    shifted = Schedule(i - (i > j) for i in v.witness if i != j)
    assert check_pram_witness(smaller, focus, shifted).ok, (t.rows(), focus, j)
    return True


def test_dropping_a_focus_read_keeps_read_centric_consistent():
    """A metamorphic relation: dropping one focus read keeps a consistent focus
    consistent.

    Proof: let S be a legal schedule of the focus's view, every write and
    the focus's reads, each read returning the value of the last write on
    its variable before it in S.  Take a read r out of S.  Each process's
    program order still holds.  A read changes no variable, so every other
    read has the same last write on its variable before it as in S, and
    returns its value.  So S without r is a legal schedule of the trace
    without r: that trace's focus is consistent too.

    Dropping a read moves the boundaries of the focus's runs of reads, which
    share pw tables.  The test runs read-centric on the three chain shapes at
    k = 400 and on seeded `gen` foci up to 12,800 operations, and checks
    the old witness without r on the smaller trace too."""
    rng = random.Random(19)
    checked = 0
    for shape in CHAIN_SHAPES:
        for _ in range(3):
            checked += _assert_consistent_without_a_read(
                verify_read_centric, _chain(400, shape), "f", rng
            )
    for ops in (1600, 3200, 6400, 12800):
        t = gen_pram_trace(ops, processes=16, variables=2, ops=ops, read_fraction=0.35)
        for focus in t.processes:
            checked += _assert_consistent_without_a_read(verify_read_centric, t, focus, rng)
    assert checked >= 70, checked


def test_dropping_a_focus_read_keeps_every_verifier_consistent():
    """The relation above for all three verifiers, on small seeded `gen`
    traces with unique and duplicate values, 60 % of them mutated.  A
    duplicate-value focus is refused by the polynomial verifiers, and an
    oracle timeout checks nothing."""
    verifiers = {
        "read-centric": verify_read_centric,
        "rw-closure": verify_rw_closure,
        "oracle": partial(oracle_verify, max_states=5000),
    }
    rng = random.Random(7)
    checked = dict.fromkeys(verifiers, 0)
    for _ in range(200):
        policy = rng.choice(("unique", "duplicate"))
        t = gen_pram_trace(rng.randrange(10**6), processes=4, variables=2, ops=24, policy=policy)
        if rng.random() < 0.6:
            try:
                t = mutate_trace(rng.randrange(10**6), t, rng.choice(MUTATIONS))
            except MutationError:
                pass
        for focus in t.processes:
            for name, verify in verifiers.items():
                checked[name] += _assert_consistent_without_a_read(verify, t, focus, rng)
    assert min(checked.values()) >= 300, checked


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


class _WaitRecordingChecker(ReadCentricChecker):
    """Records, per re-walk, the rule checks in order, the rule-C edges
    added, and which writes the walk leaves with an rr drop pending."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.walks: dict[int, dict] = {}  # read index -> what its walk did
        self.walk = None

    def topo_schedule(self, r):
        self.walk = {"checked": [], "edges": []}
        verdict = super().topo_schedule(r)
        self.walk["pending"], self.walk["rr"] = dict(self.pending), dict(self.rr)
        self.walks[r.index], self.walk = self.walk, None
        return verdict

    def apply_rule_c(self, src):
        tgt = super().apply_rule_c(src)
        if self.walk is not None:
            self.walk["checked"].append(src)
            if isinstance(tgt, int):
                self.walk["edges"].append((src, tgt))
        return tgt


def test_a_write_ordered_before_an_unfinished_write_waits_for_it():
    """At read #777, rule C adds #473 -> #770 before the walk has finished
    #770: #473 waits for #770 and is checked again in the same walk, at the
    rr it pulls from #770.  Without the wait the walk would leave #473 with
    an rr drop pending (rr 78, last checked at 79) and no later walk."""
    t = gen_pram_trace(35, processes=3, variables=2, ops=800, read_fraction=0.35)
    checker = _WaitRecordingChecker(t, "p2")
    assert checker.run().consistent
    walk = checker.walks[777]
    assert (473, 770) in walk["edges"]
    assert [u for u in walk["checked"] if u in (473, 770)] == [473, 770, 473]
    assert 473 not in walk["pending"]
    assert walk["rr"][473] == 78
    assert max(checker.walks) == 777  # the last walk: nothing later would repair a miss


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


def test_operations_no_read_reaches_have_only_upward_po_out_edges():
    """`build_dag_schedule` appends the operations no focus read reaches in
    index order: on each consistent focus of both verifiers, their out-edges
    are `PO` edges up in index.  Read-centric's graph is checked sparse, then
    again once the verdict's `graph` has completed it."""
    traces = list(_seeded_traces())
    for seed in (1, 2):
        t = gen_pram_trace(seed, processes=16, variables=2, ops=1600, read_fraction=0.35)
        traces.append(t)
        for kind in MUTATIONS:
            try:
                traces.append(mutate_trace(seed, t, kind))
            except MutationError:
                pass
    checked = {"rw-closure": 0, ALGORITHM: 0}
    for t in traces:
        for focus in t.processes:
            try:
                rw = verify_rw_closure(t, focus)
            except DuplicateValueError:
                continue
            proj = visible(t, focus)
            if rw.consistent:
                assert unread_out_edges_off_po(rw.graph, proj) == [], (t.rows(), focus)
                checked[rw.algorithm] += 1
            checker = ReadCentricChecker(t, focus)
            rc = checker.run()
            if rc.consistent:
                assert unread_out_edges_off_po(checker.graph, proj) == [], (t.rows(), focus)
                assert unread_out_edges_off_po(rc.graph, proj) == [], (t.rows(), focus)
                checked[rc.algorithm] += 1
    assert checked["rw-closure"] == checked[ALGORITHM] > 300, checked


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
    on to r in pw (the `pw_update(pw_after(prev), r.index)` of
    `init_reachability`)."""

    in_slice = False

    def init_reachability(self, r):
        self.in_slice = True
        try:
            return super().init_reachability(r)
        finally:
            self.in_slice = False

    def pw_update(self, known, o):
        # the slice's only pw_update is the one at r
        return not self.in_slice and super().pw_update(known, o)


class _KeepsStaleRr(ReadCentricChecker):
    """Planted defect: a new edge src -> dst leaves rr[src] as it was (no
    lowering of rr[src] to rr[dst] in `lower_rr`), so no check is due."""

    def lower_rr(self, src, dst):
        pass


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


def _reachability(graph, proj):
    """Every pair (u, v) of `proj`'s operations with u != v and a path from u to v."""
    return {(u, o.index) for o in proj.ops for u in graph.downset(o.index) if u != o.index}


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
            proj = visible(t, focus)
            assert _reachability(sparse.graph, proj) == _reachability(saturated.graph, proj)
            checked += 1


def _corpus_foci(seeds, *, ops: int, mutated: bool):
    """(seed, mutation, trace, focus) for every focus of 16-process, 2-variable
    `gen_pram_trace` traces of `ops` operations, one per seed, each also with
    every mutation that applies to it when `mutated`."""
    for seed in seeds:
        t = gen_pram_trace(seed, processes=16, variables=2, ops=ops, read_fraction=0.35)
        traces = [("none", t)]
        for kind in MUTATIONS if mutated else ():
            try:
                traces.append((kind, mutate_trace(seed, t, kind)))
            except MutationError:
                pass
        for kind, trace in traces:
            for focus in trace.processes:
                yield seed, kind, trace, focus


def _read_centric_digest(seeds, *, ops: int, mutated: bool) -> str:
    """sha256 over each focus's verdict, reason, cycle, witness and edge list,
    on the traces of `_corpus_foci`."""
    h = hashlib.sha256()
    for seed, kind, trace, focus in _corpus_foci(seeds, ops=ops, mutated=mutated):
        v = verify_read_centric(trace, focus)
        cycle = (v.cycle.nodes, v.cycle.tags) if v.cycle is not None else None
        seq = tuple(v.witness) if v.witness is not None else None
        edges = sorted(v.graph.edges())
        row = f"{seed} {kind} {focus} {v.consistent} {v.reason} {cycle} {seq} {edges}"
        h.update(f"{row}\n".encode())
    return h.hexdigest()


def test_outputs_on_16_process_traces_are_frozen():
    """Verdicts, cycles, witnesses and the edge list with its tags: any change
    to the graph read-centric builds moves this digest.  The traces have the
    benchmark's `gen-large` shape (1,600 operations), seeds 1-6, mutated."""
    digest = _read_centric_digest(range(1, 7), ops=1600, mutated=True)
    assert digest == "53455ea35043e59115598431781c17ce0844526d2c210909d4b017a0bb27a7b6"


def test_rule_work_on_the_16_process_traces_is_frozen():
    """On the corpus above (384 foci): 12 rejections, 69,192 rule-C edges and
    89 re-walks.  The digest pins the edges but not which step added them;
    these totals move if rule work moves between the proactive pass, the
    re-walks and the rejection path.  The benchmark's per-layer
    `read_centric.rulec_edges` is read off the same `rulec_edges` counter."""
    foci = rejected = rulec_edges = topo_calls = 0
    for _, _, trace, focus in _corpus_foci(range(1, 7), ops=1600, mutated=True):
        checker = WalkCountingChecker(trace, focus)
        rejected += not checker.run().consistent
        rulec_edges += checker.rulec_edges
        topo_calls += checker.topo_calls
        foci += 1
    assert (foci, rejected, rulec_edges, topo_calls) == (384, 12, 69192, 89)


class _ForwardWalkCounter(WalkCountingChecker):
    """Counts forward walks over `pw`, each an `update_reachability`, in the
    proactive pass or in a re-walk, where each walks one rule-C edge.  Also
    counts the reads settled and the rule-C edges the re-walks add."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.walks = self.settled = self.rewalk_edges = 0
        self.pass_walks: list[int] = []  # per read settled: walks outside its re-walk
        self.in_rewalk = False

    def settle(self, r):
        self.settled += 1
        self.pass_walks.append(0)
        return super().settle(r)

    def topo_schedule(self, r):
        self.in_rewalk = True
        try:
            return super().topo_schedule(r)
        finally:
            self.in_rewalk = False

    def update_reachability(self, dst, known):
        self.walks += 1
        self.rewalk_edges += self.in_rewalk
        self.pass_walks[-1] += not self.in_rewalk
        super().update_reachability(dst, known)


def test_the_proactive_pass_walks_at_most_once_per_read():
    """On the corpus above, the proactive pass merges what its edges into
    D(r) pass on and walks it forward once, so forward walks are at most the
    reads settled plus the rule-C edges that re-walks add.  One walk per
    proactive edge makes 69,192 walks, one per rule-C edge."""
    walks = settled = rewalk_edges = rulec_edges = 0
    for _, _, trace, focus in _corpus_foci(range(1, 7), ops=1600, mutated=True):
        checker = _ForwardWalkCounter(trace, focus)
        checker.run()
        assert max(checker.pass_walks, default=0) <= 1, focus
        walks += checker.walks
        settled += checker.settled
        rewalk_edges += checker.rewalk_edges
        rulec_edges += checker.rulec_edges
    assert rulec_edges == 69192
    assert walks <= settled + rewalk_edges, (walks, settled, rewalk_edges)


def test_outputs_where_the_re_walk_runs_often_are_frozen():
    """As above, on every focus of 12,800-operation traces, seeds 1 and 2:
    71 re-walks over 72,123 downset nodes, against 89 over 6,916 above."""
    digest = _read_centric_digest((1, 2), ops=12800, mutated=False)
    assert digest == "1e60d20bf69ef6ee44012883171e4b818032016f0e4c5ff33b4255b06911c881"


def _seeded_edges(graph):
    """The graph's `PO` and `WR` edges, sorted."""
    return [e for e in graph.edges() if e[2] != WPW]


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
        assert v.graph is graph  # completed on read: every PO and WR edge, as rw-closure has
        closure = verify_rw_closure(t, focus).graph
        assert _seeded_edges(graph) == _seeded_edges(closure)
    assert tables < 0.2 * visible_ops, (tables, visible_ops)


def test_a_run_whose_witness_is_never_read_builds_no_ops_tuple():
    """`VisibleProjection.ops` is built on first read, and read-centric's run
    does not read it: only the witness's tail does."""
    t = gen_pram_trace(1, processes=16, variables=2, ops=1600, read_fraction=0.35)
    for focus in t.processes:
        checker = ReadCentricChecker(t, focus)
        v = checker.run()
        assert v.consistent and "ops" not in checker.proj.__dict__
        v.graph
        assert "ops" not in checker.proj.__dict__
        v.witness
        assert "ops" in checker.proj.__dict__


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
    assert unmatched.reason and list(unmatched.graph.edges()) == []


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
    proj = visible(t, "f")
    assert _reachability(sparse.graph, proj) == _reachability(saturated.graph, proj)
