import bisect
import gc
import hashlib
import itertools
import random
import time
import tracemalloc

from pramcheck import (
    MUTATIONS,
    MutationError,
    check_pram_witness,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
)
from pramcheck import oracle
from pramcheck.oracle import OracleTimeout, oracle_verify
from pramcheck.model import Trace
from pramcheck.reduction import FOCUS, ThreePartitionInstance, reduce_3partition, solve_3partition
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


def _seeded_duplicate_traces():
    """120 seeded two-process traces of 4-10 operations on one variable, values 1-3."""
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randrange(4, 11)
        rows = []
        split = rng.randrange(1, n)
        for i in range(n):
            proc = "p1" if i < split else "p2"
            kind = "R" if rng.random() < 0.45 else "W"
            rows.append(f"{proc} {kind} x {rng.randrange(1, 4)}")
        yield parse_trace("\n".join(rows))


def test_memo_does_not_change_verdicts():
    """The memoised search agrees with the memo-free brute force."""
    for t in _seeded_duplicate_traces():
        for focus in t.processes:
            assert oracle_verify(t, focus).consistent is brute_force_consistent(t, focus)


def test_restarts_keep_verdicts_and_witnesses(monkeypatch):
    """With a restart after every dead end, the small traces restart too: the
    kept memo must leave every verdict as brute force finds it, and every
    witness must check."""
    monkeypatch.setattr(oracle, "_UNIT", 1)
    slices = []
    monkeypatch.setattr(oracle, "_luby", lambda j, luby=oracle._luby: slices.append(j) or luby(j))
    traces = itertools.chain(_exhaustive_duplicate_traces(5), _seeded_duplicate_traces())
    for t in traces:
        for focus in t.processes:
            got = oracle_verify(t, focus)
            assert isinstance(got, Verdict)
            assert got.consistent is brute_force_consistent(t, focus)
            if got.consistent:
                assert check_pram_witness(t, focus, got.witness).ok
    assert sum(j > 0 for j in slices) > 500  # restarts did run


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
        assert out.states == 5001  # states entered again after a restart count too
        assert out.restarts > 0


def test_a_search_without_dead_ends_never_restarts():
    """One process's k `W x i`/`R x i` pairs: k states and no dead end.  A
    schedule counted in states would restart and re-walk the same path, and
    run out of a budget of k."""
    k = 300
    t = parse_trace("".join(f"p1 W x {i}\np1 R x {i}\n" for i in range(k)))
    out = oracle_verify(t, "p1", max_states=k)
    assert isinstance(out, Verdict) and out.consistent


def test_only_a_focus_read_lets_a_run_ride_on_the_store():
    """Once p1 writes 3 at the start, the focus's next operation on x is its
    own `W x 3`, not a read, so neither of its two `R x 3` runs rides on the
    store, and the one write of 3 left is too few: the supply bound prunes the
    state.  Letting a run ride there enters it, and the search takes a sixth
    state."""
    t = T("""
        p1 W x 2
        p1 W x 3
        p1 W x 2
        p1 R x 1
        p2 W x 3
        p2 R x 3
        p2 W x 2
        p2 R x 3
        p3 R x 3
    """)
    v = oracle_verify(t, "p2", max_states=5)
    assert isinstance(v, Verdict) and v.consistent
    assert tuple(v.witness) == (0, 4, 5, 6, 1, 7, 2)
    out = oracle_verify(t, "p2", max_states=4)
    assert isinstance(out, OracleTimeout) and out.states == 5


def test_a_write_checks_only_the_two_pairs_it_can_starve(monkeypatch):
    """One process's k `W x i`/`R x i` pairs: each write bisects the slot's
    focus positions and the run ends of the pair it writes and the one it
    overwrites, not those of every pair the focus reads on x, so a full
    search makes under 3k supply-check bisects, not about k * k."""
    calls = 0

    def counting_bisect_left(*args, **kwargs):
        nonlocal calls
        calls += 1
        return bisect.bisect_left(*args, **kwargs)

    monkeypatch.setattr(oracle, "bisect_left", counting_bisect_left)
    for k in (1000, 2000):
        t = parse_trace("".join(f"p1 W x {i}\np1 R x {i}\n" for i in range(k)))
        calls = 0
        out = oracle_verify(t, "p1")
        assert isinstance(out, Verdict) and out.consistent
        assert calls <= 3 * k, (k, calls)


def test_a_starved_slot_fails_at_every_write():
    """p4 reads two runs of `x 1` and the trace has one `W x 1`, so no
    schedule exists and every write on x is a dead end, also p3's first
    `W x 3`, a pair p4 never reads, which passes its own check.  The search
    still runs over the writes on y and z; its verdict and its timeouts are
    pinned.  Without the starved slot, it takes 168 states, not 127."""
    rows = []
    for proc, x in (("p1", 1), ("p2", 2), ("p3", 3)):
        rows += [f"{proc} W y 1", f"{proc} W y 2", f"{proc} W z 1", f"{proc} W x {x}"]
    rows += ["p4 R y 2", "p4 R y 1", "p4 R z 1", "p4 R y 2", "p4 R x 1", "p4 R x 2", "p4 R x 1"]
    t = parse_trace("\n".join(rows))
    for budget, states, restarts in ((1, 2, 0), (3, 4, 0), (50, 51, 2), (126, 127, 5)):
        out = oracle_verify(t, "p4", max_states=budget)
        assert isinstance(out, OracleTimeout), budget
        assert (out.states, out.restarts) == (states, restarts), budget
    v = oracle_verify(t, "p4", max_states=127)
    assert isinstance(v, Verdict) and not v.consistent
    assert v.reason == "search exhausted: no legal schedule exists"


def _duplicate_traces():
    """(ops, seed, trace): 4-process duplicate-value traces of 75 and 100
    operations, seeds 0-9, each also with one mutation applied where it applies."""
    for ops in (75, 100):
        for seed in range(10):
            t = gen_pram_trace(seed, processes=4, variables=2, ops=ops, policy="duplicate")
            yield ops, seed, t
            try:
                yield ops, seed, mutate_trace(seed, t, MUTATIONS[seed % len(MUTATIONS)])
            except MutationError:
                pass


def _result_row(out) -> str:
    """A search result's class, then its states or its verdict and witness."""
    if isinstance(out, OracleTimeout):
        return f"OracleTimeout {out.states}"
    seq = tuple(out.witness) if out.witness is not None else None
    return f"Verdict {out.consistent} {out.reason} {seq}"


def _search_digest() -> str:
    """sha256 over each focus's result on the duplicate traces, budget 5000."""
    h = hashlib.sha256()
    for ops, seed, trace in _duplicate_traces():
        for focus in trace.processes:
            row = _result_row(oracle_verify(trace, focus, max_states=5000))
            h.update(f"{ops} {seed} {focus} {row}\n".encode())
    return h.hexdigest()


def _flag_traces():
    """(seed, trace): 3-variable traces of 100 operations with `z` values folded
    mod 2 and odd processes' `z` reads dropped, so some reads are ambiguous;
    seeds 0-11, each also with one mutation applied where it applies."""
    for seed in range(12):
        rows = []
        for proc, kind, var, val in gen_pram_trace(seed, processes=4, variables=3, ops=100).rows():
            if var == "z":
                if kind == "R" and int(proc[1:]) % 2 == 1:
                    continue
                val %= 2
            rows.append((proc, kind, var, val))
        t = Trace.build(rows)
        yield seed, t
        try:
            yield seed, mutate_trace(seed, t, MUTATIONS[seed % len(MUTATIONS)])
        except MutationError:
            pass


# feasible and infeasible 3-Partition instances
_PARTITION_INSTANCES = (
    ThreePartitionInstance(m=1, B=7, sizes=(3, 2, 2)),
    ThreePartitionInstance(m=1, B=9, sizes=(3, 3, 3)),
    ThreePartitionInstance(m=2, B=7, sizes=(3, 3, 2, 2, 2, 2)),
    ThreePartitionInstance(m=2, B=10, sizes=(4, 4, 3, 3, 3, 3)),
    ThreePartitionInstance(m=2, B=13, sizes=(5, 5, 4, 4, 4, 4)),
    ThreePartitionInstance(m=2, B=13, sizes=(6, 4, 4, 4, 4, 4)),
    ThreePartitionInstance(m=2, B=14, sizes=(6, 6, 4, 4, 4, 4)),
    ThreePartitionInstance(m=2, B=17, sizes=(8, 6, 5, 5, 5, 5)),
    ThreePartitionInstance(m=3, B=10, sizes=(4, 4, 4, 3, 3, 3, 3, 3, 3)),
    ThreePartitionInstance(m=3, B=13, sizes=(6, 5, 4, 4, 4, 4, 4, 4, 4)),
)


def _wide_search_digest() -> str:
    """sha256 over the results on flag traces (every focus, budget 5000), on
    the focus of 3-Partition reductions (budget 5000), and on the duplicate
    traces at budgets 1, 3 and 50, which pins early timeouts' `states`."""
    h = hashlib.sha256()
    for seed, trace in _flag_traces():
        for focus in trace.processes:
            row = _result_row(oracle_verify(trace, focus, max_states=5000))
            h.update(f"flag {seed} {focus} {row}\n".encode())
    for inst in _PARTITION_INSTANCES:
        row = _result_row(oracle_verify(reduce_3partition(inst), FOCUS, max_states=5000))
        h.update(f"3part {inst} {row}\n".encode())
    for budget in (1, 3, 50):
        for ops, seed, trace in _duplicate_traces():
            for focus in trace.processes:
                row = _result_row(oracle_verify(trace, focus, max_states=budget))
                h.update(f"{budget} {ops} {seed} {focus} {row}\n".encode())
    return h.hexdigest()


def test_search_results_are_frozen():
    """Branch order, memo and state counting decide every timeout's `states`
    and every witness; changing any of them moves this digest."""
    assert _search_digest() == "0f797168f259aceb408a5b504ba0aff46fb93ca0aab6af957f9c22f9d66d07a8"


def test_wide_search_results_are_frozen():
    """Flag traces, 3-Partition reductions and early timeouts: as above."""
    assert _wide_search_digest() == "4f9954ff6acf2fe9469e65057fbce594a10603d39bfdd24630f725d3b944d0c2"


def _setup_peak_bytes(k: int, max_states: int = 1) -> int:
    """tracemalloc peak of a search of one process's k `W x i`/`R x i` pairs:
    one state by default, or with `max_states` of at least k, a full search."""
    t = parse_trace("".join(f"p1 W x {i}\np1 R x {i}\n" for i in range(k)))
    # A full collection empties the interpreter's free lists.  tracemalloc
    # does not see an object reused from them, so without it the peak would
    # depend on what earlier code left there.
    gc.collect()
    tracemalloc.start()
    try:
        out = oracle_verify(t, "p1", max_states=max_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if max_states == 1:
        assert isinstance(out, OracleTimeout) and out.states == 2
    else:
        assert isinstance(out, Verdict) and out.consistent
    return peak


def test_setup_memory_is_linear_in_the_focus():
    """The search's set-up is bounded by neither budget, so it must stay
    linear; and apart from the memo, which stays empty here, nothing a full
    search keeps may outgrow the focus."""
    small, large = _setup_peak_bytes(2000), _setup_peak_bytes(4000)
    assert large < 16 * 2**20
    assert large / small < 3
    small, large = (_setup_peak_bytes(k, oracle.DEFAULT_MAX_STATES) for k in (1000, 2000))
    assert large < 16 * 2**20
    assert large / small < 3


def test_deadline_ends_the_search():
    t = gen_pram_trace(1, ops=3000, policy="duplicate")
    focus = "p3"  # undecided after 800,000 states; restarts decide p1 and p2 quickly
    t0 = time.monotonic()
    out = oracle_verify(t, focus, max_states=10**9, max_seconds=0.2)
    assert time.monotonic() - t0 < 5
    assert isinstance(out, OracleTimeout)
    assert out.max_seconds == 0.2 and out.states < 10**9


def test_verdict_metadata():
    v = oracle_verify(T("p1 W x 1\np2 R x 1"), "p2")
    assert v.algorithm == "oracle"
    assert v.focus == "p2"


def _check_partition(inst: ThreePartitionInstance, part) -> None:
    assert sorted(i for triple in part for i in triple) == list(range(len(inst.sizes)))
    assert all(sum(inst.sizes[i] for i in triple) == inst.B for triple in part)


def test_solve_3partition_feasible():
    inst = ThreePartitionInstance(m=2, B=7, sizes=(3, 3, 2, 2, 2, 2))
    part = solve_3partition(inst)
    assert part is not None
    _check_partition(inst, part)


def test_solve_3partition_infeasible():
    assert solve_3partition(ThreePartitionInstance(m=2, B=13, sizes=(4, 4, 4, 4, 4, 6))) is None


def test_solve_3partition_has_no_recursion_limit():
    inst = ThreePartitionInstance(m=1500, B=75, sizes=(25,) * 4500)
    t0 = time.perf_counter()
    part = solve_3partition(inst)
    assert time.perf_counter() - t0 < 1.0
    assert len(part) == 1500
    assert sorted(i for triple in part for i in triple) == list(range(4500))


def _partition_exists(sizes: tuple[int, ...], B: int) -> bool:
    """Brute force: the first size joins some pair of the others, then the rest must split."""
    if not sizes:
        return True
    first, rest = sizes[0], sizes[1:]
    for j, k in itertools.combinations(range(len(rest)), 2):
        if first + rest[j] + rest[k] == B:
            left = tuple(s for i, s in enumerate(rest) if i not in (j, k))
            if _partition_exists(left, B):
                return True
    return False


def test_solve_3partition_backtracks():
    # 7 + 4 + 4 leaves 6 no pair summing to 9; the search undoes 7's triple,
    # skips 7's other (4, 4) pairs as value-equal, and runs out
    infeasible = ThreePartitionInstance(m=3, B=15, sizes=(4, 4, 4, 4, 4, 6, 6, 6, 7))
    assert solve_3partition(infeasible) is None
    # 11 + 9 + 7 leaves 10 no pair summing to 17; after the backtrack,
    # 11 + 8 + 8 leads to 10 + 10 + 7 and 10 + 9 + 8
    inst = ThreePartitionInstance(m=3, B=27, sizes=(7, 8, 8, 8, 9, 10, 10, 10, 11))
    _check_partition(inst, solve_3partition(inst))
    # five sizes summing to mB: not 3m of them
    assert solve_3partition(ThreePartitionInstance(m=2, B=13, sizes=(4, 5, 5, 6, 6))) is None


def test_solve_3partition_matches_brute_force_on_small_canonical_instances():
    """Every canonical instance with m in {2, 3} and B <= 30: each size
    strictly between B/4 and B/2, the sizes summing to mB."""
    checked = {True: 0, False: 0}
    for m in (2, 3):
        for B in range(5, 31):
            band = [s for s in range(1, B) if B < 4 * s and 2 * s < B]
            for sizes in itertools.combinations_with_replacement(band, 3 * m):
                if sum(sizes) != m * B:
                    continue
                inst = ThreePartitionInstance(m=m, B=B, sizes=sizes)
                part = solve_3partition(inst)
                want = _partition_exists(sizes, B)
                assert (part is not None) is want, inst
                if want:
                    _check_partition(inst, part)
                checked[want] += 1
    assert min(checked.values()) > 50, checked
