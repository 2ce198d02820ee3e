import hashlib
import itertools
import random
import time

from pramcheck import (
    MUTATIONS,
    MutationError,
    check_pram_witness,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
)
from pramcheck.oracle import OracleTimeout, oracle_verify
from pramcheck.reduction import ThreePartitionInstance, solve_3partition
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


def test_deep_trace_times_out_at_the_budget():
    """Thousands of forced reads and writes deep: the search has no depth limit."""
    t = gen_pram_trace(1, ops=3000, policy="duplicate")
    for focus in t.processes:
        out = oracle_verify(t, focus, max_states=5000)
        assert isinstance(out, OracleTimeout), focus
        assert out.states == 5001


def _search_digest() -> str:
    """sha256 over each focus's result class, states or verdict, and witness.

    The traces: 4-process duplicate-value traces of 75 and 100 operations,
    seeds 0-9, each also with one mutation applied where it applies.
    """
    h = hashlib.sha256()
    for ops in (75, 100):
        for seed in range(10):
            t = gen_pram_trace(seed, processes=4, variables=2, ops=ops, policy="duplicate")
            traces = [t]
            try:
                traces.append(mutate_trace(seed, t, MUTATIONS[seed % len(MUTATIONS)]))
            except MutationError:
                pass
            for trace in traces:
                for focus in trace.processes:
                    out = oracle_verify(trace, focus, max_states=5000)
                    if isinstance(out, OracleTimeout):
                        row = f"OracleTimeout {out.states}"
                    else:
                        seq = out.witness.seq if out.witness is not None else None
                        row = f"Verdict {out.consistent} {out.reason} {seq}"
                    h.update(f"{ops} {seed} {focus} {row}\n".encode())
    return h.hexdigest()


def test_search_results_are_frozen():
    """Branch order, memo and state counting decide every timeout's `states`
    and every witness; changing any of them moves this digest."""
    assert _search_digest() == "aba4980807934f8977a0c328c8911e1e086d00ec19fb2bfff1cb6909ab365859"


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
