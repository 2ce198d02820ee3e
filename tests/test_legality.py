import gc
import re
import weakref

import pytest

from pramcheck.legality import (
    NotAPermutationError,
    Schedule,
    Verdict,
    check_pram_witness,
    legality_violation,
    parse_schedule,
    serialize_schedule,
)
from pramcheck.model import visible
from pramcheck.read_centric import ReadCentricChecker
from pramcheck.rw_closure import verify_rw_closure
from testutil import T

# A four-process trace whose focus p0 reads seven values written by three
# writers, and the known legal schedule for it (indices into the trace).
FOUR_PROCESS_TRACE = """
p0 R f 1
p0 R c 1
p0 R z 1
p0 R y 1
p0 R a 1
p0 R b 1
p0 R x 2
q1 W f 2
q1 W z 2
q1 W y 2
q1 W x 5
q2 W f 1
q2 W z 1
q2 W y 1
q2 W x 3
q2 W c 1
q3 W x 2
q3 W a 1
q3 W b 1
"""
KNOWN_LEGAL_SCHEDULE = [7, 11, 8, 12, 9, 13, 0, 10, 14, 16, 15, 1, 2, 3, 17, 4, 18, 5, 6]


def _ops(trace, focus):
    return {o.index: o for o in visible(trace, focus).ops}


def test_known_schedule_is_legal():
    t = T(FOUR_PROCESS_TRACE)
    ops = _ops(t, "p0")
    sched = Schedule(tuple(KNOWN_LEGAL_SCHEDULE))
    assert len(ops) == 19
    assert legality_violation(sched, ops) is None


def test_known_schedule_passes_witness_check():
    t = T(FOUR_PROCESS_TRACE)
    check = check_pram_witness(t, "p0", Schedule(tuple(KNOWN_LEGAL_SCHEDULE)))
    assert check.ok, check.reason


def test_perturbed_schedule_is_illegal():
    # swapping the first two writes makes the f-read return a stale value
    seq = list(KNOWN_LEGAL_SCHEDULE)
    seq[0], seq[1] = seq[1], seq[0]
    t = T(FOUR_PROCESS_TRACE)
    ops = _ops(t, "p0")
    assert legality_violation(Schedule(tuple(seq)), ops) is not None
    assert legality_violation(Schedule(tuple(seq)), ops) == 0  # the f-read


def test_read_before_any_write_is_illegal():
    t = T("p1 W x 1\np2 R x 1")
    ops = _ops(t, "p2")
    assert legality_violation(Schedule((1, 0)), ops) is not None
    assert legality_violation(Schedule((1, 0)), ops) == 1


def test_legality_requires_latest_write():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 R x 1
    """)
    ops = _ops(t, "p2")
    assert legality_violation(Schedule((1, 0, 2)), ops) is None
    assert legality_violation(Schedule((0, 1, 2)), ops) is not None


def test_permutation_enforced():
    t = T("p1 W x 1\np2 R x 1")
    ops = _ops(t, "p2")
    with pytest.raises(NotAPermutationError, match=re.escape("operation 1 (Rx1@p2#1) is missing")):
        legality_violation(Schedule((0,)), ops)
    with pytest.raises(NotAPermutationError, match=re.escape("index 0 (Wx1@p1#0) appears twice")):
        legality_violation(Schedule((0, 0)), ops)
    # the first fault in schedule order is named, whatever the length
    with pytest.raises(NotAPermutationError, match="index 5 is not a visible operation"):
        legality_violation(Schedule((0, 5, 0)), ops)
    with pytest.raises(NotAPermutationError, match=re.escape("index 1 (Rx1@p2#1) appears twice")):
        legality_violation(Schedule((1, 1, 7)), ops)
    with pytest.raises(NotAPermutationError, match="index 1 is not a visible operation"):
        legality_violation(Schedule((0, 1)), _ops(t, "p1"))  # p2's read is not visible to p1


def test_witness_check_rejects_program_order_violation():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 R x 2
        p2 R x 1
    """)
    # legal as a raw schedule, but p2's reads appear against its program order
    sched = Schedule((0, 3, 1, 2))
    assert legality_violation(sched, _ops(t, "p2")) is None
    check = check_pram_witness(t, "p2", sched)
    assert not check.ok
    assert check.reason == "program order violated: Rx2@p2#2 after Rx1@p2#3"


def test_witness_check_names_an_unknown_focus():
    check = check_pram_witness(T("p1 W x 1"), "nobody", Schedule((0,)))
    assert not check
    assert "'nobody'" in check.reason


def test_program_order_pairs_cover_focus_reads_and_all_writes():
    # Each process's consecutive visible operations are ordered; p2's read is
    # not visible to p1, and p1's read not to p2, so their order skips them.
    t = T("""
        p1 W x 1
        p1 R x 1
        p1 W y 2
        p2 W x 3
        p2 R y 2
    """)
    for focus, seq, violated in [
        ("p1", (0, 1, 2, 3), None),
        ("p1", (0, 2, 1, 3), "Rx1@p1#1 after Wy2@p1#2"),
        ("p2", (0, 2, 3, 4), None),
        ("p2", (2, 0, 3, 4), "Wx1@p1#0 after Wy2@p1#2"),
        ("p2", (0, 2, 4, 3), "Wx3@p2#3 after Ry2@p2#4"),
    ]:
        assert legality_violation(Schedule(seq), _ops(t, focus)) is None
        check = check_pram_witness(t, focus, Schedule(seq))
        assert check.reason == (violated and f"program order violated: {violated}")


def test_schedule_text_roundtrip():
    sched = Schedule((2, 0, 1))
    text = serialize_schedule(sched)
    assert parse_schedule(text) == sched
    assert parse_schedule("# witness\n2\n0\n1\n") == sched
    for bad in ("nope", "-1", "+0", "1_0", "\u0663"):
        with pytest.raises(ValueError, match=re.escape(f"line 2: not an operation index: {bad!r}")):
            parse_schedule(f"2\n{bad}\n")


def test_verdict_builds_a_deferred_witness_once_and_compares_like_an_eager_one():
    sched = Schedule((0, 1))
    calls = []

    def build():
        calls.append(1)
        return Schedule((0, 1))

    eager = Verdict(True, "p2", "test", witness=sched)
    deferred = Verdict(True, "p2", "test", witness=build)
    assert calls == []
    assert deferred.witness is deferred.witness
    assert calls == [1]
    assert deferred == eager and hash(deferred) == hash(eager) and repr(deferred) == repr(eager)
    assert eager.witness is sched
    assert Verdict(False, "p2", "test", reason="precedence cycle").witness is None
    # ==, hash and repr read the field, so they build an unread witness too
    for read in (lambda v: v == eager, hash, repr):
        calls.clear()
        read(Verdict(True, "p2", "test", witness=build))
        assert calls == [1]


def test_deferred_witness_keeps_no_checker_alive():
    # `pramcheck` runs with the cyclic collector paused, so reference counting
    # alone must free a checker once its verdict is out, and a verdict with
    # everything it holds once it is dropped, read or not
    t = T(FOUR_PROCESS_TRACE)
    rejected = T("p1 W x 1\np1 W x 2\np2 R x 2\np2 R x 1\n")
    gc.disable()
    try:
        for trace, focus, consistent in ((t, "p0", True), (rejected, "p2", False)):
            checker = ReadCentricChecker(trace, focus)
            v = checker.run()
            assert v.consistent is consistent
            ref = weakref.ref(checker)
            del checker
            assert ref() is None
            refs = (weakref.ref(v), weakref.ref(v.graph))
            if consistent:
                assert check_pram_witness(trace, focus, v.witness).ok
            del v
            assert [r() for r in refs] == [None, None]
        for read in (False, True):
            v = verify_rw_closure(t, "p0")
            refs = (weakref.ref(v), weakref.ref(v.graph))
            if read:
                assert check_pram_witness(t, "p0", v.witness).ok
            del v
            assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
