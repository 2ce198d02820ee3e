import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramcheck.model import (
    INT64_MAX,
    INT64_MIN,
    DuplicateValueError,
    Operation,
    Trace,
    TraceParseError,
    UnknownProcessError,
    UnmatchedReadError,
    Variant,
    build_read_mapping,
    classify,
    parse_trace,
    serialize_trace,
    visible,
)
from testutil import T, random_trace_rows


def test_parse_basic_fields():
    t = T("""
        # a comment
        p1 W x 1
        p1 R x 1

        p2 W y -3
    """)
    assert t.process_ids() == ("p1", "p2")
    assert len(t.ops) == 3
    assert t.ops[0] == Operation(index=0, kind="W", process="p1", variable="x", value=1)
    assert t.ops[1].is_read and not t.ops[1].is_write
    assert t.ops[2].value == -3


def test_parse_accepts_bytes():
    t = parse_trace(b"p1 W x 1\n")
    assert t.ops[0].process == "p1"


def test_roundtrip_identity():
    rng = random.Random(42)
    for _ in range(50):
        raw = random_trace_rows(rng, processes=4, variables=3, ops=25, value_pool=range(1, 6))
        seen = list(dict.fromkeys(r[0] for r in raw))
        rows = sorted(raw, key=lambda r: seen.index(r[0]))  # contiguous sections
        text = "\n".join(" ".join(str(f) for f in row) for row in rows)
        t = parse_trace(text)
        assert list(t.rows()) == rows
        assert parse_trace(serialize_trace(t)).rows() == t.rows()


@pytest.mark.parametrize(
    "line",
    [
        "p1 W x",  # missing value
        "p1 W x 1 extra",
        "p1 X x 1",  # bad kind
        "p1 W x one",
        "p1 W x 9223372036854775808",  # 2**63, outside int64
        "p/1 W x 1",  # bad process id
        "p1 W x! 1",  # bad variable id
    ],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(TraceParseError):
        parse_trace(line + "\n")


def test_parse_rejects_split_process_section():
    with pytest.raises(TraceParseError, match="duplicate process section"):
        T("""
            p1 W x 1
            p2 W x 2
            p1 W x 3
        """)


def test_parse_error_carries_line_number():
    with pytest.raises(TraceParseError) as exc:
        parse_trace("p1 W x 1\np1 W x nope\n")
    assert "2" in str(exc.value)


IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
ROWS = st.lists(
    st.tuples(IDENT, st.sampled_from("RW"), IDENT, st.integers(INT64_MIN, INT64_MAX)),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_parse_inverts_serialize_on_generated_traces(rows):
    t = Trace.build(rows)
    assert parse_trace(serialize_trace(t)) == t


def test_classify_variants():
    su = T("p1 W x 1\np2 R x 1")
    mu = T("p1 W x 1\np1 W y 2\np2 R x 1")
    sd = T("p1 W x 1\np2 W x 1")
    md = T("p1 W x 1\np2 W x 1\np2 W y 3")
    assert classify(su) is Variant.SU
    assert classify(mu) is Variant.MU
    assert classify(sd) is Variant.SD
    assert classify(md) is Variant.MD
    assert not classify(su).has_duplicates
    assert classify(md).has_duplicates


def test_visible_projection_keeps_writes_and_focus_reads():
    t = T("""
        p1 W x 1
        p1 R x 1
        p2 W x 2
        p2 R x 2
        p3 R x 1
    """)
    proj = visible(t, "p1")
    assert [o.index for o in proj.ops] == [0, 1, 2]
    assert proj.focus == "p1"
    # per-process slices keep issue order
    assert [o.index for o in proj.by_process["p2"]] == [2]
    # a read-only process contributes nothing to other focuses
    assert "p3" not in proj.by_process or proj.by_process["p3"] == []


def test_visible_unknown_focus():
    with pytest.raises(UnknownProcessError):
        visible(T("p1 W x 1"), "nobody")


def test_read_mapping_unique_values():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 R x 2
        p2 R x 1
    """)
    m = build_read_mapping(visible(t, "p2"))
    assert m == {2: 1, 3: 0}


def test_read_mapping_unmatched_read():
    t = T("p1 W x 1\np2 R x 9")
    with pytest.raises(UnmatchedReadError):
        build_read_mapping(visible(t, "p2"))


def test_read_mapping_rejects_duplicate_written_values():
    t = T("p1 W x 5\np2 W x 5\np3 R x 5")
    with pytest.raises(DuplicateValueError):
        build_read_mapping(visible(t, "p3"))
