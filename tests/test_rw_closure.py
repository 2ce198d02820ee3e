import collections
import hashlib
import itertools
import random
import re

import pytest

from pramcheck import (
    MUTATIONS,
    DuplicateValueError,
    MutationError,
    check_pram_witness,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
    verify_rw_closure,
)
from pramcheck import rw_closure
from pramcheck.model import build_read_mapping, visible
from pramcheck.rw_closure import ALGORITHM, build_dag_schedule
from pramcheck.oracle import oracle_verify
from pramcheck.opgraph import PO, WR, Cycle, OperationGraph, add_rule_a_b
from pramcheck.read_centric import verify_read_centric
from testutil import T, brute_force_consistent, chain_trace

# Small traces with verdicts frozen from the independent brute-force search.
FROZEN = [
    ("p1 W x 1\np1 W x 2\np2 R x 1\np2 R x 2", {"p1": True, "p2": True}),
    ("p1 W x 1\np1 W x 2\np2 R x 2\np2 R x 1", {"p1": True, "p2": False}),
    # observers may disagree on the order of independent writers
    (
        "p1 W x 1\np2 W x 2\np3 R x 1\np3 R x 2\np4 R x 2\np4 R x 1",
        {"p1": True, "p2": True, "p3": True, "p4": True},
    ),
    # cross-variable: the y-order and the x-order cannot both hold for p0
    (
        "p1 W x 1\np1 W y 1\np2 W y 2\np2 W x 2\n"
        "p0 R y 1\np0 R y 2\np0 R x 2\np0 R x 1",
        {"p1": True, "p2": True, "p0": False},
    ),
    # a process must respect its own overwrites
    ("p1 W x 1\np1 W x 2\np1 R x 1", {"p1": False}),
    # reading a value before anyone wrote it
    ("p0 R x 1\np0 W x 1", {"p0": False}),
]


@pytest.mark.parametrize("text,expected", FROZEN)
def test_frozen_verdicts(text, expected):
    t = parse_trace(text)
    for focus, want in expected.items():
        v = verify_rw_closure(t, focus)
        assert v.consistent is want, focus
        assert v.focus == focus
        assert v.algorithm == ALGORITHM


def test_accepting_runs_carry_checked_witness():
    for text, expected in FROZEN:
        t = parse_trace(text)
        for focus, want in expected.items():
            v = verify_rw_closure(t, focus)
            if want:
                assert v.witness is not None
                assert check_pram_witness(t, focus, v.witness).ok
            else:
                assert v.witness is None


def test_rejecting_runs_explain_themselves():
    t = T("p1 W x 1\np1 W x 2\np2 R x 2\np2 R x 1")
    v = verify_rw_closure(t, "p2")
    assert not v.consistent
    assert v.cycle is not None or v.reason


def test_cycle_edges_exist_in_saturated_graph():
    t = T(
        """
        p1 W x 1
        p1 W y 1
        p2 W y 2
        p2 W x 2
        p0 R y 1
        p0 R y 2
        p0 R x 2
        p0 R x 1
        """
    )
    v = verify_rw_closure(t, "p0")
    assert not v.consistent and v.cycle is not None
    for u, w in zip(v.cycle.nodes, v.cycle.nodes[1:]):
        assert v.graph.has_edge(u, w)


def test_a_misordered_read_gets_the_same_cycle_from_both_verifiers():
    """p0 reads x 1 before it writes it: both verifiers print the program-order
    cycle from that read, with the same reason."""
    t = T("p1 W z 9\np0 R x 1\np0 R y 2\np0 W y 2\np0 W x 1")
    rw, rc = verify_rw_closure(t, "p0"), verify_read_centric(t, "p0")
    assert rw.cycle == rc.cycle == Cycle(nodes=(1, 2, 3, 4, 1), tags=(PO, PO, PO, WR))
    assert rw.reason == rc.reason == "read precedes its dictating write"


def _mutated_traces():
    """Every mutation of the 3-process, 40-op traces of seeds 1-100."""
    for seed in range(1, 101):
        base = gen_pram_trace(seed, processes=3, variables=2, ops=40)
        for kind in MUTATIONS:
            try:
                yield mutate_trace(seed, base, kind)
            except MutationError:
                pass


def test_misordered_read_rejections_get_read_centrics_cycle():
    misordered = 0
    for t in _mutated_traces():
        for focus in t.processes:
            rc, rw = verify_read_centric(t, focus), verify_rw_closure(t, focus)
            if "read precedes its dictating write" in (rc.reason, rw.reason):
                assert (rw.cycle, rw.reason) == (rc.cycle, rc.reason), (t.rows(), focus)
                misordered += 1
    assert misordered == 74  # the corpus is deterministic


def test_each_rejection_makes_one_shortest_cycle_call(monkeypatch):
    calls = []
    through = OperationGraph.shortest_cycle_through

    def counting(self, src, dst):
        calls.append((src, dst))
        return through(self, src, dst)

    monkeypatch.setattr(OperationGraph, "shortest_cycle_through", counting)
    seen = {True: 0, False: 0}
    for t in _mutated_traces():
        for focus in t.processes:
            calls.clear()
            v = verify_rw_closure(t, focus)
            assert len(calls) == (v.cycle is not None), (t.rows(), focus)
            seen[v.consistent] += 1
    assert min(seen.values()) > 100, seen


# x=1 is written twice: p3's read is ambiguous, p1 and p2 read only y
DUPLICATE_ELSEWHERE = """
p1 W x 1
p1 W y 1
p1 W y 2
p2 W x 1
p2 R y 2
p2 R y 1
p3 R x 1
"""


def test_duplicate_values_are_refused():
    """Only a focus with a read that several writes could have dictated is refused."""
    t = T(DUPLICATE_ELSEWHERE)
    with pytest.raises(DuplicateValueError, match=re.escape("read #6 (Rx1@p3#6)")):
        verify_rw_closure(t, "p3")
    for focus, want in (("p1", True), ("p2", False)):
        v = verify_rw_closure(t, focus)
        assert v.consistent is want is oracle_verify(t, focus).consistent
        if want:
            assert check_pram_witness(t, focus, v.witness).ok
        else:
            assert v.cycle is not None


def _exhaustive_unique_traces(ops_budget):
    """All canonical unique-value traces on 2 processes, 1 variable.

    Writes take values 1, 2, ... in issue order (unique by construction);
    reads pick any write's value, over every R/W pattern and process split.
    """
    for n in range(2, ops_budget + 1):
        for split in range(1, n):
            for kinds in itertools.product("RW", repeat=n):
                writes = kinds.count("W")
                if writes == 0:
                    continue
                read_slots = [i for i, k in enumerate(kinds) if k == "R"]
                for choice in itertools.product(range(1, writes + 1), repeat=len(read_slots)):
                    rows = []
                    w = 0
                    ri = 0
                    for i, k in enumerate(kinds):
                        proc = "p1" if i < split else "p2"
                        if k == "W":
                            w += 1
                            rows.append(f"{proc} W x {w}")
                        else:
                            rows.append(f"{proc} R x {choice[ri]}")
                            ri += 1
                    yield parse_trace("\n".join(rows))


def test_matches_brute_force_on_exhaustive_small_traces():
    checked = 0
    for t in _exhaustive_unique_traces(5):
        for focus in t.processes:
            want = brute_force_consistent(t, focus)
            assert verify_rw_closure(t, focus).consistent is want
            checked += 1
    assert checked == 1860  # enumerator is deterministic


def test_matches_brute_force_on_seeded_generator_traces():
    rng = random.Random(2024)
    for _ in range(150):
        t = gen_pram_trace(rng.randrange(10**6), processes=3, variables=2, ops=10)
        if rng.random() < 0.7:
            kind = rng.choice(("swap-write-values", "reorder-reads", "retarget-read"))
            try:
                t = mutate_trace(rng.randrange(10**6), t, kind)
            except Exception:
                pass
        for focus in t.processes:
            try:
                got = verify_rw_closure(t, focus).consistent
            except DuplicateValueError:
                continue
            assert got is brute_force_consistent(t, focus)


def test_saturation_property_on_accepting_graphs():
    """After the fixpoint, any same-variable write reaching a read precedes its dictator."""
    rng = random.Random(5)
    seen = 0
    for _ in range(60):
        t = gen_pram_trace(rng.randrange(10**6), processes=3, variables=2, ops=14)
        for focus in t.processes:
            v = verify_rw_closure(t, focus)
            if not v.consistent:
                continue
            g = v.graph
            proj = visible(t, focus)
            dictate = build_read_mapping(t, focus)
            for r_idx, w_idx in dictate.items():
                var = t.ops[r_idx].variable
                for o in proj.ops:
                    if o.is_write and o.variable == var and o.index != w_idx:
                        if o.index in g.downset(r_idx):
                            assert o.index in g.downset(w_idx)
                            seen += 1
    assert seen > 100


def test_build_dag_schedule_covers_all_visible_ops():
    t = T("p1 W x 1\np1 W y 2\np2 R y 2\np2 R x 1\np3 W z 9")
    proj = visible(t, "p2")
    g = OperationGraph()
    add_rule_a_b(g, proj, build_read_mapping(t, "p2"))
    sched = build_dag_schedule(g, proj)
    assert sorted(sched) == sorted(o.index for o in proj.ops)
    assert check_pram_witness(t, "p2", sched).ok


def _rw_closure_digests() -> dict[str, str]:
    """sha256 over each focus's verdict, reason, cycle, witness and edge list,
    one hash per part, so a change shows which part it moved.

    The traces: 16-process `gen_pram_trace` traces of 1,600 operations (the
    benchmark's `gen-large` shape), seeds 1-2, each also with every mutation
    that applies to it.  Each focus's verdict and witness must equal
    read-centric's.
    """
    hashes = {part: hashlib.sha256() for part in ("verdict", "reason", "cycle", "witness", "edges")}
    for seed in range(1, 3):
        t = gen_pram_trace(seed, processes=16, variables=2, ops=1600, read_fraction=0.35)
        traces = [("none", t)]
        for kind in MUTATIONS:
            try:
                traces.append((kind, mutate_trace(seed, t, kind)))
            except MutationError:
                pass
        for kind, trace in traces:
            for focus in trace.processes:
                v = verify_rw_closure(trace, focus)
                rc = verify_read_centric(trace, focus)
                assert v.consistent is rc.consistent, (seed, kind, focus)
                assert v.witness == rc.witness, (seed, kind, focus)
                parts = {
                    "verdict": v.consistent,
                    "reason": v.reason,
                    "cycle": (v.cycle.nodes, v.cycle.tags) if v.cycle is not None else None,
                    "witness": tuple(v.witness) if v.witness is not None else None,
                    "edges": sorted(v.graph.edges()),
                }
                for part, value in parts.items():
                    hashes[part].update(f"{seed} {kind} {focus} {value}\n".encode())
    return {part: h.hexdigest() for part, h in hashes.items()}


def test_outputs_on_16_process_traces_are_frozen_and_agree_with_read_centric():
    """Verdicts, reasons, cycles, witnesses and the saturated edge list with
    its tags on 128 foci at the `gen-large` shape: any change to the graph
    rw-closure builds moves the edge hash.  Each witness is read-centric's too."""
    assert _rw_closure_digests() == {
        "verdict": "59940ce407e9dfa40545b3231f528bff7a153ea53da32285982062b4ff23f283",
        "reason": "d785b895b81530edd1c2c98764eaf3ae394adee954e4439acab0bb52bb6791de",
        "cycle": "0ef3407708d19efa3f2c17f7b5dc1ec56c5c211d4829b1d4a4809e36d4849d7d",
        "witness": "6f77c6f70b9d0289a0f45006604c5634a69165c13ed112be2151e4ae4b9db135",
        "edges": "4461f8932ddda8de08783df42b7a33987941273451e76a600f11dbe9687040ae",
    }


@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_chain_family_is_accepted_with_equal_legal_witnesses(k):
    t = chain_trace(k)
    assert t.n == 5 * k + 1
    if k <= 2:
        assert brute_force_consistent(t, "f")
    v, rc = verify_rw_closure(t, "f"), verify_read_centric(t, "f")
    assert v.consistent and rc.consistent
    assert v.witness == rc.witness
    assert check_pram_witness(t, "f", v.witness).ok


class _RoundCountingGraph(OperationGraph):
    """Counts `downset` calls per node: each rw-closure round walks from the
    focus's first read exactly once, with nothing excluded yet."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def downset(self, node, exclude=frozenset()):
        self.calls[node] += 1
        return super().downset(node, exclude)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 30])
def test_rw_closure_takes_k_plus_1_rounds_on_the_chain_family(k, monkeypatch):
    graphs = []

    def counting():
        graphs.append(_RoundCountingGraph())
        return graphs[-1]

    monkeypatch.setattr(rw_closure, "OperationGraph", counting)
    t = chain_trace(k)
    v = verify_rw_closure(t, "f")  # the witness is built on first read, after the count
    assert v.consistent and len(graphs) == 1
    first_read = t.processes["f"][0].index
    assert graphs[0].calls[first_read] == k + 1
    assert sum(graphs[0].calls.values()) == (k + 1) * 2 * (2 * k)  # two walks per read per round


def test_chain_family_outputs_are_frozen():
    """Both polynomial verifiers' verdicts, witnesses and tagged edge lists on
    the chain family for k = 1..64, where rw-closure needs k + 1 rounds: any
    change to either graph or witness on this family moves the digest."""
    h = hashlib.sha256()
    for k in range(1, 65):
        t = chain_trace(k)
        v, rc = verify_rw_closure(t, "f"), verify_read_centric(t, "f")
        assert v.witness == rc.witness, k
        for run in (v, rc):
            h.update(f"{k} {run.algorithm} {run.consistent} {tuple(run.witness)}\n".encode())
            h.update(f"{sorted(run.graph.edges())}\n".encode())
    assert h.hexdigest() == "9cff115c418d211e33cc313794de8b199ca5b7833b1a00fb6d957cd3dfb99c86"
