import itertools
import random
import time

from pramcheck import check_pram_witness, parse_trace
from pramcheck.oracle import (
    OracleTimeout,
    ThreePartitionInstance,
    oracle_verify,
    solve_3partition,
)
from pramcheck.rw_closure import Verdict
from testutil import T, brute_force_consistent


def _exhaustive_duplicate_traces(max_ops):
    """Two processes, one variable, values drawn from {1, 2}: duplicates abound."""
    for n in range(2, max_ops + 1):
        for split in range(1, n):
            for kinds in itertools.product("RW", repeat=n):
                for values in itertools.product((1, 2), repeat=n):
                    rows = []
                    for i, (k, val) in enumerate(zip(kinds, values)):
                        proc = "p1" if i < split else "p2"
                        rows.append(f"{proc} {k} x {val}")
                    yield parse_trace("\n".join(rows))


def test_matches_brute_force_on_exhaustive_duplicate_traces():
    checked = 0
    for t in _exhaustive_duplicate_traces(5):
        for focus in t.processes:
            want = brute_force_consistent(t, focus)
            got = oracle_verify(t, focus)
            assert isinstance(got, Verdict)
            assert got.consistent is want
            checked += 1
    assert checked == 10016  # enumerator is deterministic


def test_memo_does_not_change_verdicts():
    """The memoised search agrees with the memo-free brute force."""
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randrange(4, 11)
        rows = []
        split = rng.randrange(1, n)
        for i in range(n):
            proc = "p1" if i < split else "p2"
            kind = "R" if rng.random() < 0.45 else "W"
            rows.append(f"{proc} {kind} x {rng.randrange(1, 4)}")
        t = parse_trace("\n".join(rows))
        for focus in t.processes:
            assert oracle_verify(t, focus).consistent is brute_force_consistent(t, focus)


def test_accepting_runs_carry_checked_witness():
    t = T("""
        p1 W x 1
        p2 W x 1
        p3 R x 1
        p3 R x 1
    """)
    v = oracle_verify(t, "p3")
    assert v.consistent
    assert check_pram_witness(t, "p3", v.witness).ok


def test_duplicate_values_can_rescue_a_reordering():
    # with unique values this read order would be a violation; a second
    # writer of the same value makes it satisfiable
    bad = T("p1 W x 1\np1 W x 2\np2 R x 2\np2 R x 1")
    assert oracle_verify(bad, "p2").consistent is False
    rescued = T("p1 W x 1\np1 W x 2\np3 W x 1\np2 R x 2\np2 R x 1")
    assert oracle_verify(rescued, "p2").consistent is True


def test_budget_exhaustion_reports_timeout():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 W x 2
        p2 W x 1
        p3 R x 1
        p3 R x 2
        p3 R x 1
    """)
    out = oracle_verify(t, "p3", max_states=3)
    assert isinstance(out, OracleTimeout)
    assert not isinstance(out, Verdict)
    assert out.focus == "p3"
    assert out.states >= 3 and out.max_states == 3


def test_verdict_metadata():
    v = oracle_verify(T("p1 W x 1\np2 R x 1"), "p2")
    assert v.algorithm == "oracle"
    assert v.focus == "p2"


def test_solve_3partition_feasible():
    inst = ThreePartitionInstance(m=2, B=7, sizes=(3, 3, 2, 2, 2, 2))
    part = solve_3partition(inst)
    assert part is not None
    flat = sorted(i for triple in part for i in triple)
    assert flat == list(range(6))
    for triple in part:
        assert sum(inst.sizes[i] for i in triple) == inst.B


def test_solve_3partition_infeasible():
    assert solve_3partition(ThreePartitionInstance(m=2, B=13, sizes=(4, 4, 4, 4, 4, 6))) is None


def test_solve_3partition_has_no_recursion_limit():
    inst = ThreePartitionInstance(m=1500, B=75, sizes=(25,) * 4500)
    t0 = time.perf_counter()
    part = solve_3partition(inst)
    assert time.perf_counter() - t0 < 1.0
    assert len(part) == 1500
    assert sorted(i for triple in part for i in triple) == list(range(4500))
