"""Read/write trace model: operations, traces, the text format, and projections.

A trace records, per process, the sequence of read and write operations that
process issued against a set of shared variables.  Everything downstream
consumes the immutable types defined here.  What depends on the trace alone is
a cached property of `Trace`, so every focus of one trace shares it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, NoReturn

READ = "R"
WRITE = "W"

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"-?[0-9]+\Z")
_EOL = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"  # the line ends str.splitlines honours
# The whitespace str.split takes, less the line ends, spelled out: a class of
# literals is one table lookup a character, where [^\S...] tries each item.
_WS = r"[\t\x1f \xa0\u1680\u2000-\u200a\u202f\u205f\u3000]"
# In '\n' + text: the first line start followed by neither a row, a blank or
# comment line, nor the end, and that line as group 1.  A value has at most 19
# significant digits, so only zero padding can meet int()'s digit limit.  A
# search keeps no state per line, so a text of any length is checked in
# constant memory.
_OFF_ROW = re.compile(
    rf"\n(?!{_WS}*(?:[A-Za-z_][A-Za-z0-9_]*{_WS}+[RW]{_WS}+[A-Za-z_][A-Za-z0-9_]*{_WS}+"
    rf"-?0*[0-9]{{1,19}}{_WS}*|(?:#[^{_EOL}]*)?)(?:\n|\Z))(.*)"
)
_LINE_END = re.compile(r"\r\n?|[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")  # all but '\n'
_ROW_START = re.compile(rf"\n{_WS}*[A-Za-z_]")
_COMMENT = re.compile("#.*")


class TraceParseError(ValueError):
    """Malformed trace text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class UnknownProcessError(ValueError):
    """The requested focus process does not occur in the trace."""


class DuplicateValueError(Exception):
    """A focus read has several candidate writes: the polynomial gate refuses the focus.

    See `build_read_mapping`; only the exponential oracle decides such a focus.
    """


class UnmatchedReadError(Exception):
    """A read returns a value that no write on its variable ever assigns."""

    def __init__(self, read_index: int):
        super().__init__(f"read #{read_index} has no dictating write")


class MutationError(ValueError):
    """A requested trace mutation is not applicable to this trace."""


class Operation(NamedTuple):
    """One read or write: `kind` is "R" or "W", `index` is trace-global and dense.

    A named tuple, so it compares equal to a plain tuple of the same values.
    """

    index: int
    kind: str
    process: str
    variable: str
    value: int

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    def pretty(self) -> str:
        return f"{self.kind}{self.variable}{self.value}@{self.process}#{self.index}"


@dataclass(frozen=True)
class Trace:
    """An immutable trace: per-process operation sequences plus a global index order.

    `processes` preserves first-appearance order; operation indices are dense,
    starting at 0, in section order: each process's section is one contiguous
    run of indices, the sections in `processes` order.  `ops[i].index == i`
    always holds.  `build` and `parse_trace` both lay traces out this way.
    """

    processes: Mapping[str, tuple[Operation, ...]]
    ops: tuple[Operation, ...]

    @staticmethod
    def build(rows: Iterable[tuple[str, str, str, int]]) -> "Trace":
        """Build a trace from (process, kind, variable, value) rows.

        Rows may interleave processes; within a process they are program order.
        Global indices are canonicalized to section order (process sections in
        first-appearance order), matching the serialized layout.
        """
        grouped: dict[str, list[tuple[str, str, str, int]]] = {}
        for row in rows:
            if row[1] != READ and row[1] != WRITE:
                raise ValueError(f"bad operation kind {row[1]!r}")
            grouped.setdefault(row[0], []).append(row)
        procs: dict[str, tuple[Operation, ...]] = {}
        ops: list[Operation] = []
        new = tuple.__new__  # Operation._make without its field-count check
        for proc, seq in grouped.items():
            start = len(ops)
            ops += [
                new(Operation, (i, kind, proc, var, val))
                for i, (_, kind, var, val) in enumerate(seq, start)
            ]
            procs[proc] = tuple(ops[start:])
        return Trace(processes=procs, ops=tuple(ops))

    @property
    def n(self) -> int:
        return len(self.ops)

    def rows(self) -> list[tuple[str, str, str, int]]:
        """The trace as build()-style rows, grouped by process section."""
        return [(o.process, o.kind, o.variable, o.value) for o in self.ops]

    @functools.cached_property
    def writers(self) -> dict[tuple[str, int], list[int]]:
        """(variable, value) -> indices of the writes assigning it; computed once per trace."""
        table: dict[tuple[str, int], list[int]] = {}
        for o in self.ops:
            if o.kind == WRITE:
                table.setdefault((o.variable, o.value), []).append(o.index)
        return table

    @functools.cached_property
    def writes_on(self) -> dict[str, list[int]]:
        """variable -> indices of the writes on it, in index order; computed once per trace."""
        writes = sorted((o.variable, o.index) for o in self.ops if o.kind == WRITE)
        return {v: [i for _, i in run] for v, run in itertools.groupby(writes, lambda w: w[0])}

    @functools.cached_property
    def write_sections(self) -> dict[str, tuple[Operation, ...]]:
        """Process -> its writes in program order, for the processes that write; computed once."""
        writes = ((p, tuple([o for o in s if o.kind == WRITE])) for p, s in self.processes.items())
        return {p: ws for p, ws in writes if ws}

    @functools.cached_property
    def variant(self) -> Variant:
        """Classification by variable count and write-value uniqueness.

        Multi-variable means at least two distinct variables occur among all
        operations; duplicate means some variable is written the same value
        twice, so that `writers` has fewer keys than the trace has writes.
        Computed once per trace.
        """
        multi = len({o.variable for o in self.ops}) >= 2
        if len(self.writers) < sum(map(len, self.write_sections.values())):
            return Variant.MD if multi else Variant.SD
        return Variant.MU if multi else Variant.SU


class Variant(enum.Enum):
    """Trace classification: single/multi variable x unique/duplicate write values."""

    SU = "SU"
    MU = "MU"
    SD = "SD"
    MD = "MD"


def classify(trace: Trace) -> Variant:
    """Classify a trace by variable count and write-value uniqueness (`Trace.variant`)."""
    return trace.variant


@dataclass(frozen=True)
class VisibleProjection:
    """The operations a focus process must order: all writes plus its own reads.

    `by_process` maps each process with a visible operation, in section order,
    to them in program order: the focus's section, or the process's shared
    `Trace.write_sections` entry.  `ops`, built on first read, chains them.
    """

    focus: str
    by_process: Mapping[str, tuple[Operation, ...]]

    @functools.cached_property
    def ops(self) -> tuple[Operation, ...]:
        return tuple(itertools.chain.from_iterable(self.by_process.values()))  # see Trace

    def focus_reads(self) -> tuple[Operation, ...]:
        return tuple(o for o in self.by_process.get(self.focus, ()) if o.kind == READ)


def visible(trace: Trace, focus: str) -> VisibleProjection:
    """Project `trace` onto what `focus` must schedule: every write + its own reads."""
    if focus not in trace.processes:
        raise UnknownProcessError(f"unknown process {focus!r}")
    writes, own = trace.write_sections, trace.processes[focus]
    if focus in writes:  # its whole section takes the place of its writes
        return VisibleProjection(focus=focus, by_process={**writes, focus: own})
    seqs = ((p, own if p == focus else writes.get(p)) for p in trace.processes)
    return VisibleProjection(focus=focus, by_process={p: seq for p, seq in seqs if seq})


def build_read_mapping(trace: Trace, focus: str) -> dict[int, int]:
    """Map each of `focus`'s reads to its one candidate dictating write.

    This is the gate of the polynomial verifiers.  A candidate for a read is
    a write with the read's variable and value.  Raises UnmatchedReadError
    for the first read without any candidate: no schedule makes it legal, so
    it rejects the focus however ambiguous the other reads are.  Otherwise
    raises DuplicateValueError for the first read with several candidates.

    Why one candidate per focus read suffices, whatever values other writes
    repeat: if read r's only candidate is d, a schedule is legal at r exactly
    when d precedes r and no other write on r's variable falls between them,
    since every other write there assigns a different value.  Those are the
    constraints of the unique-value case, the ones the precedence rules
    encode, so the closure, its verdict and its witness hold for the focus
    (Gibbons & Korach, "Testing shared memories", SIAM J. Comput. 1997: given
    the read-from map, the problem is polynomial).
    """
    if focus not in trace.processes:
        raise UnknownProcessError(f"unknown process {focus!r}")
    writers = trace.writers
    dictate: dict[int, int] = {}
    ambiguous: tuple[Operation, int] | None = None
    for r in trace.processes[focus]:
        if r.kind != READ:
            continue
        candidates = writers.get((r.variable, r.value))
        if candidates is None:
            raise UnmatchedReadError(r.index)
        if len(candidates) > 1:
            if ambiguous is None:
                ambiguous = (r, len(candidates))
        else:
            dictate[r.index] = candidates[0]
    if ambiguous is not None:
        r, count = ambiguous
        raise DuplicateValueError(f"read #{r.index} ({r.pretty()}) has {count} candidate writes")
    return dictate


def _checked_row(raw: str, lineno: int) -> NoReturn:
    """Word the fault of the line the whole-text search refused, by field-by-field checks."""
    fields = raw.split()
    if len(fields) != 4:
        raise TraceParseError(f"expected 4 fields, got {len(fields)}", lineno)
    proc, kind, var, val_text = fields
    if kind not in (READ, WRITE):
        raise TraceParseError(f"operation kind must be R or W, got {kind!r}", lineno)
    if not _IDENT.match(proc):
        raise TraceParseError(f"bad process id {proc!r}", lineno)
    if not _IDENT.match(var):
        raise TraceParseError(f"bad variable id {var!r}", lineno)
    if not _INT.match(val_text):
        raise TraceParseError(f"non-integer value {val_text!r}", lineno)
    # The search takes every such row with at most 19 significant digits.
    sign = "-" if val_text[0] == "-" else ""
    digits = val_text.lstrip("-0")
    raise TraceParseError(f"value {sign}{digits} outside signed 64-bit range", lineno)


def parse_trace(text: str | bytes) -> Trace:
    """Parse the line-oriented trace format.

    Grammar per line: `<process> <R|W> <variable> <int64>`, where an int64 is
    ASCII `-?[0-9]+` within the signed 64-bit range; '#'-comments and blank
    lines are ignored.  A process's lines must form one contiguous section;
    program order is the order of lines within the section.  Lines are those
    of str.splitlines, and an error names the first faulty one.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = "\n" + text
    stop = _OFF_ROW.search(lines)
    if stop is not None:  # perhaps only a line end other than '\n' stopped it
        lines, ends = _LINE_END.subn("\n", lines)
        if ends:  # the text before the stop had none, so it is unchanged
            stop = _OFF_ROW.search(lines, stop.start())
    head = lines if stop is None else lines[: stop.start()]  # valid lines, each ended by '\n'
    fields = (_COMMENT.sub("", head) if "#" in head else head).split()
    procs = fields[0::4]
    try:
        values = list(map(int, fields[3::4]))
    except ValueError:  # int() counts leading zeros toward its 4,300-digit limit
        values = [int(v.lstrip("-0") or "0") * (-1 if v[0] == "-" else 1) for v in fields[3::4]]
    bad = len(values)
    if values and not (INT64_MIN <= min(values) and max(values) <= INT64_MAX):
        bad = next(i for i, v in enumerate(values) if not INT64_MIN <= v <= INT64_MAX)
    rows = zip(range(len(procs)), fields[1::4], procs, fields[2::4], values)
    # Operation._make without its field-count check
    ops = tuple(map(tuple.__new__, itertools.repeat(Operation), rows))
    sections: dict[str, tuple[Operation, ...]] = {}
    start = 0  # ends as the first row that reopens a section, or past the last row
    for proc, run in itertools.groupby(procs):
        if proc in sections:
            break
        end = start + len(list(run))
        sections[proc] = ops[start:end]
        start = end
    row = min(bad, start)  # on one row, the range fault comes first
    if row < len(procs):
        at = next(itertools.islice(_ROW_START.finditer(head), row, None)).start()
        line = head.count("\n", 0, at) + 1
        if row == bad:
            raise TraceParseError(f"value {values[row]} outside signed 64-bit range", line)
        raise TraceParseError(f"duplicate process section {procs[row]!r}", line)
    if stop is not None:
        _checked_row(stop[1], lines.count("\n", 0, stop.start()) + 1)
    return Trace(processes=sections, ops=ops)


def serialize_trace(trace: Trace) -> str:
    """Canonical text for a trace: one section per process, no comments."""
    return "".join(f"{o.process} {o.kind} {o.variable} {o.value}\n" for o in trace.ops)
