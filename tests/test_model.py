import itertools
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pramcheck import gen_pram_trace, model
from pramcheck.model import (
    _OFF_ROW,
    INT64_MAX,
    INT64_MIN,
    WRITE,
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
from testutil import T, random_trace_rows, reference_parse_trace, reference_visible


def test_parse_basic_fields():
    t = T("""
        # a comment
        p1 W x 1
        p1 R x 1

        p2 W y -3
    """)
    assert tuple(t.processes) == ("p1", "p2")
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
        # values int() takes but the grammar -?[0-9]+ does not
        "p1 W x 1_000",
        "p1 W x +5",
        "p1 W x \u0663",
        "p1 W x -\uff11",
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


def test_build_rejects_an_unknown_operation_kind():
    with pytest.raises(ValueError, match="bad operation kind 'X'"):
        Trace.build([("p1", "W", "x", 1), ("p1", "X", "x", 2)])


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


def test_parse_reads_long_digit_strings_without_int_limits():
    # Python's int() refuses strings of more than 4,300 digits.
    t = parse_trace("p1 W x " + "0" * 5000 + "7\np1 W x -" + "0" * 30 + "9\n")
    assert [o.value for o in t.ops] == [7, -9]
    with pytest.raises(TraceParseError, match="line 1: value 9{5000} outside signed 64-bit"):
        parse_trace("p1 W x " + "9" * 5000 + "\n")
    with pytest.raises(TraceParseError, match=r"line 1: value -10{20} outside"):
        parse_trace("p1 W x -00" + "1" + "0" * 20 + "\n")


def _outcome(parse, text):
    try:
        return "trace", parse(text)
    except TraceParseError as exc:
        return "error", str(exc), exc.line


# Line soup for comparing parse_trace with the line-by-line reference parser:
# mostly well-formed lines (so sections split and late lines get checked),
# with up to two faulty lines dropped in.
_ASCII_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
_SPACE = st.one_of(_ASCII_SPACE, st.sampled_from(["\xa0", "\u2003", "\u3000", "\x1f"]))
_PAD = st.one_of(st.just(""), _SPACE)
_PROC = st.sampled_from(["p1", "p2", "_q", "P_9"])
_VAR = st.sampled_from(["x", "y", "var_2"])
_BAD_IDENT = st.sampled_from(["p/1", "1p", "\u00e9", "-x", "x!", "p.1"])
_GOOD_VALUE = st.one_of(
    st.integers(-20, 20).map(str),
    st.integers(INT64_MIN, INT64_MAX).map(str),
    st.sampled_from([INT64_MIN, INT64_MAX]).map(str),
    st.tuples(st.integers(1, 30), st.integers(-(10**6), 10**6)).map(
        lambda zv: ("-" if zv[1] < 0 else "") + "0" * zv[0] + str(abs(zv[1]))
    ),
)
_BAD_VALUE = st.one_of(
    st.sampled_from([INT64_MIN - 1, INT64_MAX + 1, 10**19 - 1, 10**19]).map(str),
    st.integers(INT64_MAX + 1, 10**19 - 1).map(str),
    st.integers(-(10**19) + 1, INT64_MIN - 1).map(str),
    st.integers(10**19, 10**25).map(str),
    st.sampled_from(["1_000", "+5", "\u0663", "-\u0663", "\uff11", "\u0661\u0662"]),  # int() takes these
    st.sampled_from(["0x1F", "1.5", "-", "5e2", "1-"]),
)


def _row(pad, proc, space, kind, var, value):
    return st.tuples(pad, proc, space, kind, space, var, space, value, pad).map("".join)


_KIND = st.sampled_from("RW")
_COMMENT = st.builds(lambda pad, tail: pad + "#" + tail, _PAD, st.text(max_size=8))
_CLEAN_LINE = st.one_of(
    _row(st.one_of(st.just(""), _ASCII_SPACE), _PROC, _ASCII_SPACE, _KIND, _VAR, _GOOD_VALUE),
    _row(_PAD, _PROC, _SPACE, _KIND, _VAR, _GOOD_VALUE),
    _COMMENT,
    st.lists(_SPACE, max_size=2).map("".join),
)
_FAULTY_LINE = st.one_of(
    _row(st.one_of(st.just(""), _ASCII_SPACE), _PROC, _ASCII_SPACE, _KIND, _VAR, _BAD_VALUE),
    _row(
        _PAD,
        st.one_of(_PROC, _BAD_IDENT),
        _SPACE,
        st.sampled_from(["R", "W", "X", "r", "RW"]),
        st.one_of(_VAR, _BAD_IDENT),
        st.one_of(_GOOD_VALUE, _BAD_VALUE),
    ),
    st.lists(st.one_of(_PROC, _GOOD_VALUE, _KIND), max_size=6).map(" ".join),
    st.text(max_size=12),
)
_SOUP = st.builds(
    lambda clean, faults: [line for i, line in sorted(
        [(2 * i + 1, line) for i, line in enumerate(clean)]
        + [(2 * pos, line) for pos, line in faults]
    )],
    st.lists(_CLEAN_LINE, max_size=14),
    st.lists(st.tuples(st.integers(0, 14), _FAULTY_LINE), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(_SOUP, st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
def test_parse_matches_reference_parser_on_line_soup(lines, newline):
    text = newline.join(lines)
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)


# Whole texts of ASCII-spaced rows, every line of which the search passes, so
# parse_trace's columns must find the faults: one value may lie just outside
# int64 (19 digits at most, so the search passes it), and one extra row of a
# random process may land at a random line, reopening that process's section.
_IN_RANGE = st.one_of(
    st.integers(-20, 20),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX]),
).map(str)
_OUT_OF_RANGE = st.sampled_from([INT64_MIN - 1, INT64_MAX + 1, -(10**19) + 1, 10**19 - 1]).map(str)
_ASCII_PAD = st.one_of(st.just(""), _ASCII_SPACE)
_KIND_VAR = st.tuples(_ASCII_SPACE, _KIND, _ASCII_SPACE, _VAR, _ASCII_SPACE).map("".join)


@st.composite
def _whole_texts(draw):
    procs = draw(st.lists(_PROC, unique=True, max_size=4))
    sections = [proc for proc in procs for _ in range(draw(st.integers(1, 5)))]
    if procs and draw(st.booleans()):
        sections.insert(draw(st.integers(0, len(sections))), draw(st.sampled_from(procs)))
    values = [draw(_IN_RANGE) for _ in sections]
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_OUT_OF_RANGE)
    lines = [
        draw(_ASCII_PAD) + proc + draw(_KIND_VAR) + value + draw(_ASCII_PAD)
        for proc, value in zip(sections, values)
    ]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])) if lines else ""


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_whole_texts())
def test_parse_matches_reference_parser_on_whole_row_texts(text):
    assert not _OFF_ROW.search("\n" + text)  # the search passes every line
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)


def _large_text(lines):
    per = lines // 16
    return "".join(
        f"p{p} {'RW'[i % 2]} {'xy'[i % 3 % 2]} {i * 7919 - 10**6}\n"
        for p in range(16)
        for i in range(per)
    )


def test_parse_large_text_like_the_reference_and_names_a_faulty_last_line(monkeypatch):
    text = _large_text(200_000)
    assert parse_trace(text) == reference_parse_trace(text)
    calls = []
    checked_row = model._checked_row

    def counted(raw, lineno):
        calls.append(lineno)
        return checked_row(raw, lineno)

    monkeypatch.setattr(model, "_checked_row", counted)
    for last, message in [
        ("p15 W x 9223372036854775808", "value 9223372036854775808 outside signed 64-bit range"),
        ("p0 W x 1", "duplicate process section 'p0'"),
        ("p15 W x one", "non-integer value 'one'"),
    ]:
        faulty = text[: text.rindex("\n", 0, -1) + 1] + last + "\n"
        calls.clear()
        with pytest.raises(TraceParseError, match=re.escape(f"line 200000: {message}")):
            parse_trace(faulty)
        assert len(calls) <= 1  # only the faulty line is checked field by field


# Whole-row texts with skipped lines dropped in: comments, blank
# lines, and line ends that mix '\n', '\r\n' and the other separators that
# str.splitlines honours, inside comments too.
_SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SKIP_LINE = st.one_of(
    st.builds(
        lambda pad, body: pad + "#" + body,
        _ASCII_PAD,
        st.text(st.sampled_from(["a", " ", "\t", "#", "\x1f", "\xa0"] + _SEPARATORS), max_size=6),
    ),
    st.text(st.sampled_from(" \t"), max_size=3),
)
_LINE_END = st.one_of(st.sampled_from(["\n", "\r\n"]), st.sampled_from(_SEPARATORS))


@st.composite
def _commented_texts(draw):
    lines = []
    for row in draw(_whole_texts()).split("\n"):
        lines += draw(st.lists(_SKIP_LINE, max_size=2)) + [row]
    lines += draw(st.lists(_SKIP_LINE, max_size=2))
    return "".join(line + draw(_LINE_END) for line in lines[:-1]) + lines[-1]


@settings(max_examples=400, deadline=None)
@given(_commented_texts())
@example("# c\x0bp1 W x 1\n")  # the row after a separator inside a comment
@example("p1 W x 1\r\n#\u2028p1 W x 2\r\n\r\np2 R x 1\r")
def test_parse_matches_reference_parser_with_comments_blank_lines_and_line_ends(text):
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)


def test_parser_classes_follow_str_split_and_splitlines():
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    ends = {c for c in chars if len(f"a{c}b".splitlines()) == 2}
    assert set(filter(re.compile(f"[{model._EOL}]").fullmatch, chars)) == ends
    within = {c for c in chars if c.isspace()} - ends
    assert set(filter(re.compile(model._WS).fullmatch, chars)) == within


def test_comments_blank_lines_and_crlf_take_the_whole_text_path(monkeypatch):
    large = _large_text(1600)
    texts = [
        "# head\r\n\n" + large.replace("\n", "\r\n", 700) + " \t\n\n# tail",
        # no-break and ideographic spaces between fields
        large.replace(" ", "\xa0", 900).replace(" ", "\u3000", 900),
        # the other line ends that str.splitlines honours
        large.replace("\n", "\x0b", 500).replace("\n", "\u2028", 500).replace("\n", "\r", 500),
        "q W x " + "0" * 5000 + "7\nq R x -" + "0" * 5000 + "7\n" + large,
    ]
    wants = [reference_parse_trace(text) for text in texts]

    def no_field_checks(raw, lineno):
        raise AssertionError(f"line {lineno} of a valid text was checked field by field")

    monkeypatch.setattr(model, "_checked_row", no_field_checks)
    for text, want in zip(texts, wants):
        assert parse_trace(text) == want


def test_classify_variants():
    su = T("p1 W x 1\np2 R x 1")
    mu = T("p1 W x 1\np1 W y 2\np2 R x 1")
    sd = T("p1 W x 1\np2 W x 1")
    md = T("p1 W x 1\np2 W x 1\np2 W y 3")
    assert classify(su) is Variant.SU
    assert classify(mu) is Variant.MU
    assert classify(sd) is Variant.SD
    assert classify(md) is Variant.MD
    assert all(len(ws) == 1 for ws in su.writers.values())
    assert md.writers == {("x", 1): [0, 1], ("y", 3): [2]}


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_PROC, _KIND, _VAR, st.integers(0, 3)), min_size=1, max_size=25),
    st.data(),
)
def test_visible_keeps_every_write_and_the_focus_in_section_order(rows, data):
    trace = Trace.build(rows)  # rows interleave processes; build orders sections
    focus = data.draw(st.sampled_from(list(trace.processes)))
    proj = visible(trace, focus)
    assert proj.ops == tuple(o for o in trace.ops if o.kind == WRITE or o.process == focus)
    assert list(proj.by_process) == [p for p in trace.processes if p in proj.by_process]
    assert all(
        seq and seq == tuple(o for o in proj.ops if o.process == p)
        for p, seq in proj.by_process.items()
    )
    assert set(proj.by_process) == {o.process for o in proj.ops}


def test_visible_unknown_focus():
    with pytest.raises(UnknownProcessError):
        visible(T("p1 W x 1"), "nobody")


def test_visible_shares_the_traces_write_sections():
    """Every focus's projection holds each other process's `write_sections`
    entry itself, not a copy: `visible` filters no operation."""
    t = gen_pram_trace(3, processes=6, variables=2, ops=120)
    t = Trace.build([*t.rows(), ("reader", "R", "x", 1)])  # a process with no writes
    assert "reader" in t.processes and "reader" not in t.write_sections
    assert list(t.write_sections) == [p for p in t.processes if p != "reader"]
    for focus in t.processes:
        proj = visible(t, focus)
        for p in t.processes:
            if p != focus and p in t.write_sections:
                assert proj.by_process[p] is t.write_sections[p]
        assert proj.by_process[focus] is t.processes[focus]


def test_visible_equals_the_plain_filter_on_exhaustive_and_random_traces():
    """`visible` against `reference_visible`, key order included, on every
    trace of up to 4 operations and on mutated generator traces."""
    from test_acceptance import _exhaustive_traces, _generator_traces

    traces = itertools.chain(_exhaustive_traces(4), (t for _, t in _generator_traces(400)))
    checked = 0
    for t in traces:
        for focus in t.processes:
            proj, want = visible(t, focus), reference_visible(t, focus)
            assert list(proj.by_process.items()) == list(want.items())
            assert proj.ops == tuple(itertools.chain.from_iterable(want.values()))
            checked += 1
    assert checked > 14000, checked
    # a focus without writes keeps its place in section order; a process
    # other than the focus that only reads is dropped
    t = T("""
        p1 W x 1
        f R x 1
        r R x 1
        p2 W y 2
    """)
    assert list(visible(t, "f").by_process) == ["p1", "f", "p2"]
    assert list(visible(t, "r").by_process) == ["p1", "r", "p2"]
    assert list(visible(t, "p2").by_process) == ["p1", "p2"]
    assert list(reference_visible(t, "f")) == ["p1", "f", "p2"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_PROC, _KIND, _VAR, st.integers(0, 3)), min_size=1, max_size=25))
def test_writes_on_equals_a_per_variable_filter(rows):
    trace = Trace.build(rows)
    variables = {o.variable for o in trace.ops if o.kind == WRITE}
    assert trace.writes_on.keys() == variables
    for var in variables:
        want = [o.index for o in trace.ops if o.kind == WRITE and o.variable == var]
        assert trace.writes_on[var] == want


def test_read_mapping_unique_values():
    t = T("""
        p1 W x 1
        p1 W x 2
        p2 R x 2
        p2 R x 1
    """)
    m = build_read_mapping(t, "p2")
    assert m == {2: 1, 3: 0}


def test_read_mapping_unmatched_read():
    t = T("p1 W x 1\np2 R x 9")
    with pytest.raises(UnmatchedReadError):
        build_read_mapping(t, "p2")


def test_read_mapping_rejects_duplicate_written_values():
    t = T("p1 W x 5\np2 W x 5\np3 R x 5")
    with pytest.raises(DuplicateValueError, match=re.escape("read #2 (Rx5@p3#2) has 2 candidate")):
        build_read_mapping(t, "p3")


def test_read_mapping_gates_each_focus_on_its_own_reads():
    t = T("""
        p1 W x 5
        p1 W y 1
        p2 W x 5
        p2 R y 1
        p3 R x 5
        p3 R y 9
    """)
    # x=5 is written twice, but p2 reads only y=1, which one write assigns
    assert build_read_mapping(t, "p2") == {3: 1}
    assert build_read_mapping(t, "p1") == {}
    # an unmatched read rejects the focus, so it wins over an ambiguous one
    with pytest.raises(UnmatchedReadError):
        build_read_mapping(t, "p3")
    with pytest.raises(UnknownProcessError):
        build_read_mapping(t, "nobody")
