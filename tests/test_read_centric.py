import random

import pytest

from pramcheck import (
    DuplicateValueError,
    MutationError,
    check_pram_witness,
    classify,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
    verify_rw_closure,
)
from pramcheck.read_centric import ALGORITHM, ReadCentricChecker, verify_read_centric
from testutil import T, brute_force_consistent
from test_rw_closure import FROZEN, _exhaustive_unique_traces


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
    assert verify_read_centric(t, "p1", debug_checks=True).consistent is False


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


def test_cycle_found_inside_schedule_construction():
    """A conflict that only materializes while topo-sorting a read's downset."""
    checker = ReadCentricChecker(T(DETECTED_IN_TOPO), "p3", debug_checks=True)
    v = checker.run()
    assert v.consistent is False
    assert checker.detected_in_topo is True
    # Wx1@p1#0 -> Wx4@p1#2 is not among them: program order implies it
    assert checker.rulec_edges == 4
    assert checker.topo_calls == 2
    assert v.cycle is not None
    assert v.cycle.nodes == (0, 3, 0)


def test_unmatched_read_is_rejected_with_reason():
    v = verify_read_centric(T("p1 W x 1\np2 R x 7"), "p2")
    assert v.consistent is False
    assert "no dictating write" in v.reason


def test_duplicate_values_are_refused():
    with pytest.raises(DuplicateValueError):
        verify_read_centric(T("p1 W x 1\np2 W x 1"), "p1")


def test_agrees_with_rw_closure_on_exhaustive_small_traces():
    for t in _exhaustive_unique_traces(5):
        for focus in t.process_ids():
            want = verify_rw_closure(t, focus).consistent
            got = verify_read_centric(t, focus, debug_checks=True)
            assert got.consistent is want
            if got.consistent:
                assert check_pram_witness(t, focus, got.witness).ok


def test_agrees_with_rw_closure_on_seeded_traces():
    rng = random.Random(88)
    disagreements = 0
    for _ in range(200):
        t = gen_pram_trace(rng.randrange(10**6), processes=4, variables=3, ops=18)
        if rng.random() < 0.6:
            kind = rng.choice(("swap-write-values", "reorder-reads", "retarget-read"))
            try:
                t = mutate_trace(rng.randrange(10**6), t, kind)
            except Exception:
                pass
        if classify(t).has_duplicates:
            continue
        for focus in t.process_ids():
            a = verify_rw_closure(t, focus).consistent
            b = verify_read_centric(t, focus, debug_checks=True).consistent
            if a is not b:
                disagreements += 1
    assert disagreements == 0


def test_witnesses_are_sound_on_seeded_traces():
    rng = random.Random(13)
    accepted = 0
    for _ in range(80):
        t = gen_pram_trace(rng.randrange(10**6), processes=3, variables=2, ops=24)
        for focus in t.process_ids():
            v = verify_read_centric(t, focus)
            if v.consistent:
                accepted += 1
                assert check_pram_witness(t, focus, v.witness).ok
    assert accepted > 100


def test_final_graph_callback_sees_every_cycle_edge():
    v = verify_read_centric(T(DETECTED_IN_TOPO), "p3")
    for u, w in zip(v.cycle.nodes, v.cycle.nodes[1:]):
        assert v.graph.has_edge(u, w)


def _reachability(graph):
    graph.close()
    return {(u, v) for u in graph.nodes for v in graph.nodes if graph.strictly_reaches(u, v)}


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
        if classify(t).has_duplicates:
            continue
        for focus in t.process_ids():
            sparse = verify_read_centric(t, focus)
            if not sparse.consistent:
                continue
            saturated = verify_rw_closure(t, focus)
            assert saturated.consistent
            assert _reachability(sparse.graph) == _reachability(saturated.graph)
            checked += 1
