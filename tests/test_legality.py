import pytest

from pramcheck.legality import (
    NotAPermutationError,
    Schedule,
    check_pram_witness,
    is_legal,
    legality_violation,
    parse_schedule,
    serialize_schedule,
)
from pramcheck.model import visible
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
    assert is_legal(sched, ops)
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
    assert not is_legal(Schedule(tuple(seq)), ops)
    assert legality_violation(Schedule(tuple(seq)), ops) == 0  # the f-read


def test_read_before_any_write_is_illegal():
    t = T("p1 W x 1\np2 R x 1")
    ops = _ops(t, "p2")
    assert not is_legal(Schedule((1, 0)), ops)
    assert legality_violation(Schedule((1, 0)), ops) == 1


def test_legality_requires_latest_write():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 R x 1
    """)
    ops = _ops(t, "p2")
    assert is_legal(Schedule((1, 0, 2)), ops)
    assert not is_legal(Schedule((0, 1, 2)), ops)


def test_permutation_enforced():
    t = T("p1 W x 1\np2 R x 1")
    ops = _ops(t, "p2")
    with pytest.raises(NotAPermutationError):
        is_legal(Schedule((0,)), ops)
    with pytest.raises(NotAPermutationError):
        is_legal(Schedule((0, 0)), ops)


def test_witness_check_rejects_program_order_violation():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 R x 2
        p2 R x 1
    """)
    # legal as a raw schedule, but p2's reads appear against its program order
    sched = Schedule((0, 3, 1, 2))
    assert is_legal(sched, _ops(t, "p2"))
    check = check_pram_witness(t, "p2", sched)
    assert not check.ok
    assert check.reason == "program order violated: Rx2@p2#2 after Rx1@p2#3"


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
        assert is_legal(Schedule(seq), _ops(t, focus))
        check = check_pram_witness(t, focus, Schedule(seq))
        assert check.reason == (violated and f"program order violated: {violated}")


def test_schedule_text_roundtrip():
    sched = Schedule((2, 0, 1))
    text = serialize_schedule(sched)
    assert parse_schedule(text) == sched
    assert parse_schedule("# witness\n2\n0\n1\n") == sched
    with pytest.raises(ValueError):
        parse_schedule("2\nnope\n")
