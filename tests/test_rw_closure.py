import itertools
import random

import pytest

from pramcheck import (
    DuplicateValueError,
    check_pram_witness,
    classify,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
    verify_rw_closure,
)
from pramcheck.model import build_read_mapping, visible
from pramcheck.rw_closure import ALGORITHM, build_dag_schedule
from pramcheck.opgraph import OperationGraph, add_rule_a_b
from testutil import T, brute_force_consistent

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


def test_duplicate_values_are_refused():
    with pytest.raises(DuplicateValueError):
        verify_rw_closure(T("p1 W x 1\np2 W x 1"), "p1")


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
        for focus in t.process_ids():
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
        if classify(t).has_duplicates:
            continue
        for focus in t.process_ids():
            assert verify_rw_closure(t, focus).consistent is brute_force_consistent(t, focus)


def test_saturation_property_on_accepting_graphs():
    """After the fixpoint, any same-variable write reaching a read precedes its dictator."""
    rng = random.Random(5)
    seen = 0
    for _ in range(60):
        t = gen_pram_trace(rng.randrange(10**6), processes=3, variables=2, ops=14)
        for focus in t.process_ids():
            v = verify_rw_closure(t, focus)
            if not v.consistent:
                continue
            g = v.graph
            proj = visible(t, focus)
            dictate = build_read_mapping(proj)
            for r_idx, w_idx in dictate.items():
                var = g.ops[r_idx].variable
                for o in proj.ops:
                    if o.is_write and o.variable == var and o.index != w_idx:
                        if g.reaches(o.index, r_idx):
                            assert g.reaches(o.index, w_idx)
                            seen += 1
    assert seen > 100


def test_build_dag_schedule_covers_all_visible_ops():
    t = T("p1 W x 1\np1 W y 2\np2 R y 2\np2 R x 1\np3 W z 9")
    proj = visible(t, "p2")
    g = OperationGraph(proj.ops)
    add_rule_a_b(g, proj, build_read_mapping(proj))
    g.close()
    sched = build_dag_schedule(g, proj)
    assert sorted(sched.seq) == sorted(o.index for o in proj.ops)
    assert check_pram_witness(t, "p2", sched).ok
