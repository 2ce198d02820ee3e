"""Acceptance gate: ten end-to-end checks, one test (= one pass/fail line) each.

Criteria 2-5 share a single three-verifier sweep over the same corpora
(exhaustive tiny traces, dense seeded small traces, and 10^4 seeded
unique-value generator traces up to 40 operations); the sweep runs once in a
module fixture and each criterion asserts its own aspect of the record.
"""

import itertools
import math
import random
import time

import pytest

from pramcheck import check_pram_witness, classify, gen_pram_trace, mutate_trace, parse_trace
from pramcheck.legality import Schedule, is_legal
from pramcheck.model import build_read_mapping, visible
from pramcheck.oracle import (
    OracleTimeout,
    ThreePartitionInstance,
    oracle_verify,
    solve_3partition,
)
from pramcheck.read_centric import ReadCentricChecker, verify_read_centric
from pramcheck.reduction import (
    FOCUS,
    InvalidInstanceError,
    build_partition_witness,
    reduce_3partition,
    validate_instance,
)
from pramcheck.rw_closure import verify_rw_closure

from test_legality import FOUR_PROCESS_TRACE, KNOWN_LEGAL_SCHEDULE

# ---------------------------------------------------------------------------
# corpora for the shared sweep


def _rgs(n, kmax):
    """Restricted growth strings: canonical assignments into <= kmax classes."""

    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(min(used + 1, kmax)):
            prefix.append(c)
            yield from rec(prefix, max(used, c + 1) if c == used else used)
            prefix.pop()

    yield from rec([], 0)


def _build(procs, kinds, vars_, rng=None):
    """Unique write values per variable; reads pick written or unwritten values."""
    n = len(procs)
    wcount = {}
    vals = [None] * n
    for i in range(n):
        if kinds[i] == "W":
            wcount[vars_[i]] = wcount.get(vars_[i], 0) + 1
            vals[i] = wcount[vars_[i]]
    read_slots = [i for i in range(n) if kinds[i] == "R"]
    choice_sets = [
        list(range(1, wcount.get(vars_[i], 0) + 2))  # +1 = a value nobody wrote
        for i in read_slots
    ]
    if rng is None:
        for combo in itertools.product(*choice_sets):
            for i, v in zip(read_slots, combo):
                vals[i] = v
            yield _to_trace(procs, kinds, vars_, vals)
    else:
        for i, choices in zip(read_slots, choice_sets):
            vals[i] = rng.choice(choices)
        yield _to_trace(procs, kinds, vars_, vals)


def _to_trace(procs, kinds, vars_, vals):
    order = sorted(range(len(procs)), key=lambda i: procs[i])
    text = "\n".join(
        f"p{procs[i] + 1} {kinds[i]} {'xy'[vars_[i]]} {vals[i]}" for i in order
    )
    return parse_trace(text)


def _exhaustive_traces(max_ops):
    for n in range(1, max_ops + 1):
        for procs in _rgs(n, 3):
            for kinds in itertools.product("RW", repeat=n):
                for vars_ in _rgs(n, 2):
                    yield from _build(procs, kinds, vars_)


def _dense_seeded_traces(rng, sizes, per_size):
    for n in sizes:
        for _ in range(per_size):
            procs = tuple(rng.randrange(3) for _ in range(n))
            kinds = tuple("R" if rng.random() < 0.5 else "W" for _ in range(n))
            vars_ = tuple(rng.randrange(2) for _ in range(n))
            yield from _build(procs, kinds, vars_, rng=rng)


def _generator_traces(count):
    kinds = ("swap-write-values", "reorder-reads", "retarget-read")
    for i in range(count):
        t = gen_pram_trace(i, processes=3, variables=2, ops=10 + (i % 31))
        if i % 10 < 6:
            try:
                t = mutate_trace(i, t, kinds[i % 3])
            except Exception:
                pass
        if classify(t).has_duplicates:
            continue
        yield i, t


@pytest.fixture(scope="module")
def sweep():
    """Run all three verifiers over the shared corpora and record everything."""
    started = time.perf_counter()
    record = {
        "checks": 0,
        "disagreements": [],
        "witness_failures": [],
        "saturation_violations": [],
        "rulec_refire_violations": [],
    }

    def check(trace, focus):
        rw = verify_rw_closure(trace, focus)
        checker = ReadCentricChecker(trace, focus)
        rc = checker.run()
        orc = oracle_verify(trace, focus)
        record["checks"] += 1
        if not (rw.consistent is rc.consistent is orc.consistent):
            record["disagreements"].append((trace.rows(), focus))
            return
        for v in (rw, rc):
            if v.consistent and not check_pram_witness(trace, focus, v.witness).ok:
                record["witness_failures"].append((trace.rows(), focus, v.algorithm))
        if rw.consistent:
            g = rw.graph
            proj = visible(trace, focus)
            for r_idx, w_idx in build_read_mapping(proj).items():
                var = g.ops[r_idx].variable
                for o in proj.ops:
                    if (
                        o.is_write
                        and o.variable == var
                        and o.index != w_idx
                        and g.reaches(o.index, r_idx)
                        and not g.reaches(o.index, w_idx)
                    ):
                        record["saturation_violations"].append((trace.rows(), focus))
        if checker.topo_rulec_per_write_max > 1:
            record["rulec_refire_violations"].append((trace.rows(), focus))

    for t in _exhaustive_traces(4):
        for focus in t.process_ids():
            check(t, focus)
    rng = random.Random(424242)
    for t in _dense_seeded_traces(rng, sizes=(5, 6, 7, 8), per_size=1500):
        for focus in t.process_ids():
            check(t, focus)
    for i, t in _generator_traces(10_000):
        focus = t.process_ids()[i % len(t.process_ids())]
        check(t, focus)

    record["seconds"] = time.perf_counter() - started
    return record


# ---------------------------------------------------------------------------
# the ten criteria


def test_criterion_01_known_witness_schedule_is_legal_under_1ms():
    trace = parse_trace(FOUR_PROCESS_TRACE)
    ops = {o.index: o for o in visible(trace, "p0").ops}
    sched = Schedule(tuple(KNOWN_LEGAL_SCHEDULE))
    assert is_legal(sched, ops)  # warm-up, and the verdict itself is exact
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        ok = is_legal(sched, ops)
        best = min(best, time.perf_counter() - t0)
        assert ok
    assert best < 0.001, f"legality check took {best * 1000:.3f} ms"


def test_criterion_02_all_three_verifiers_agree(sweep):
    assert sweep["checks"] > 35_000
    assert sweep["seconds"] < 300, f"sweep took {sweep['seconds']:.0f}s"
    assert sweep["disagreements"] == []


def test_criterion_03_accepting_witnesses_always_validate(sweep):
    assert sweep["witness_failures"] == []


def test_criterion_04_accepting_graphs_are_saturated(sweep):
    assert sweep["saturation_violations"] == []


def test_criterion_05_no_write_refires_rule_within_one_topo_call(sweep):
    assert sweep["rulec_refire_violations"] == []


def test_criterion_06_reduction_operation_count_and_shape():
    inst = ThreePartitionInstance(m=2, B=7, sizes=(3, 3, 2, 2, 2, 2))
    t = reduce_3partition(inst)
    assert len(t.ops) == 104 == 24 * inst.m + 4 * inst.B * inst.m
    lens = {p: len(t.processes[p]) for p in t.process_ids()}
    assert lens["P0"] == 52
    assert sorted(lens[f"Pa{i}"] for i in range(1, 7)) == [4, 4, 4, 4, 5, 5]
    assert (lens["Pc1"], lens["Pc2"], lens["Pc3"]) == (6, 14, 6)
    assert {o.variable for o in t.ops} == {"x"}
    assert all(o.is_read for o in t.processes["P0"])


def test_criterion_07_feasible_instances_accept_with_checked_witness():
    started = time.perf_counter()
    feasible = []
    for m in (1, 2):
        for B in range(1, 11):
            legal = [s for s in range(1, B) if 4 * s > B and 2 * s < B]
            for sizes in itertools.combinations_with_replacement(legal, 3 * m):
                if sum(sizes) != m * B:
                    continue
                inst = ThreePartitionInstance(m, B, tuple(sorted(sizes, reverse=True)))
                try:
                    validate_instance(inst)
                except InvalidInstanceError:
                    continue
                if solve_3partition(inst) is not None:
                    feasible.append(inst)
    assert len(feasible) == 10
    for inst in feasible:
        trace = reduce_3partition(inst)
        sched = build_partition_witness(trace, inst, solve_3partition(inst))
        assert check_pram_witness(trace, FOCUS, sched).ok, inst
        v = oracle_verify(trace, FOCUS, max_states=10_000_000)
        assert not isinstance(v, OracleTimeout), inst
        assert v.consistent, inst
    assert time.perf_counter() - started < 120


@pytest.mark.slow
def test_criterion_08_infeasible_instance_is_never_accepted():
    inst = ThreePartitionInstance(m=2, B=13, sizes=(4, 4, 4, 4, 4, 6))
    validate_instance(inst)  # well-formed ...
    assert solve_3partition(inst) is None  # ... but exactly infeasible
    trace = reduce_3partition(inst)
    out = oracle_verify(trace, FOCUS, max_states=15_000_000, max_seconds=300.0)
    if isinstance(out, OracleTimeout):
        # inconclusive: the budget ran out, which must never read as acceptance
        assert out.states >= out.max_states or out.max_seconds is not None
    else:
        assert out.consistent is False


def test_criterion_09_read_centric_scales_flatter_than_rw_closure():
    ns = (100, 200, 400, 800)
    params = dict(processes=16, variables=2, read_fraction=0.35)

    def total_time(fn, trace, runs):
        total = 0.0
        for focus in trace.process_ids():
            best = math.inf
            for _ in range(runs):
                t0 = time.perf_counter()
                v = fn(trace, focus)
                assert v.consistent
                best = min(best, time.perf_counter() - t0)
            total += best
        return total

    def slope(points):
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(t) for _, t in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )

    pts_rc, pts_rw = [], []
    for n in ns:
        runs = 5 if n <= 200 else 2
        t = gen_pram_trace(777 + n, ops=n, **params)
        pts_rc.append((n, total_time(verify_read_centric, t, runs)))
        pts_rw.append((n, total_time(verify_rw_closure, t, runs)))
    assert pts_rc[-1][1] < 600 and pts_rw[-1][1] < 600
    s_rc, s_rw = slope(pts_rc), slope(pts_rw)
    assert s_rc < s_rw, f"slopes: read-centric {s_rc:.3f} vs rw-closure {s_rw:.3f}"


def test_criterion_10_generator_outputs_are_always_accepted():
    rejected = []
    for seed in range(10_000):
        t = gen_pram_trace(seed)
        for focus in t.process_ids():
            if not verify_read_centric(t, focus).consistent:
                rejected.append((seed, focus))
    assert rejected == []
