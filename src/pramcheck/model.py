"""Read/write trace model: operations, traces, the text format, and projections.

A trace records, per process, the sequence of read and write operations that
process issued against a set of shared variables.  Everything downstream (the
polynomial verifiers, the exponential oracle, the hardness reduction, the
generator) consumes the immutable types defined here.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

READ = "R"
WRITE = "W"

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class TraceParseError(ValueError):
    """Malformed trace text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class UnknownProcessError(ValueError):
    """The requested focus process does not occur in the trace."""


class DuplicateValueError(Exception):
    """A read has several candidate dictating writes (duplicate-value trace).

    The polynomial verifiers require unique (variable, value) pairs; callers
    seeing this should fall back to the exponential oracle.
    """


class UnmatchedReadError(Exception):
    """A read returns a value that no write on its variable ever assigns."""

    def __init__(self, read_index: int):
        super().__init__(f"read #{read_index} has no dictating write")
        self.read_index = read_index


class MutationError(ValueError):
    """A requested trace mutation is not applicable to this trace."""


@dataclass(frozen=True)
class Operation:
    """One read or write: `kind` is "R" or "W", `index` is trace-global and dense."""

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
    starting at 0, in load order.  `ops[i].index == i` always holds.
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
        grouped: dict[str, list[tuple[str, str, int]]] = {}
        for proc, kind, var, val in rows:
            if kind not in (READ, WRITE):
                raise ValueError(f"bad operation kind {kind!r}")
            grouped.setdefault(proc, []).append((kind, var, val))
        procs: dict[str, tuple[Operation, ...]] = {}
        ops: list[Operation] = []
        for proc, seq in grouped.items():
            section = []
            for kind, var, val in seq:
                op = Operation(len(ops), kind, proc, var, val)
                ops.append(op)
                section.append(op)
            procs[proc] = tuple(section)
        return Trace(processes=procs, ops=tuple(ops))

    @property
    def n(self) -> int:
        return len(self.ops)

    def process_ids(self) -> tuple[str, ...]:
        return tuple(self.processes)

    def rows(self) -> list[tuple[str, str, str, int]]:
        """The trace as build()-style rows, grouped by process section."""
        return [
            (o.process, o.kind, o.variable, o.value)
            for p in self.processes
            for o in self.processes[p]
        ]

    @functools.cached_property
    def variant(self) -> Variant:
        """Classification by variable count and write-value uniqueness.

        Multi-variable means at least two distinct variables occur among all
        operations; duplicate means some variable is written the same value
        twice.  Computed once per trace.
        """
        variables = {o.variable for o in self.ops}
        seen: set[tuple[str, int]] = set()
        duplicate = False
        for o in self.ops:
            if o.is_write:
                key = (o.variable, o.value)
                if key in seen:
                    duplicate = True
                    break
                seen.add(key)
        multi = len(variables) >= 2
        if multi:
            return Variant.MD if duplicate else Variant.MU
        return Variant.SD if duplicate else Variant.SU


class Variant(enum.Enum):
    """Trace classification: single/multi variable x unique/duplicate write values."""

    SU = "SU"
    MU = "MU"
    SD = "SD"
    MD = "MD"

    @property
    def has_duplicates(self) -> bool:
        return self in (Variant.SD, Variant.MD)


def classify(trace: Trace) -> Variant:
    """Classify a trace by variable count and write-value uniqueness (`Trace.variant`)."""
    return trace.variant


@dataclass(frozen=True)
class VisibleProjection:
    """The operations a focus process must order: all writes plus its own reads.

    `ops` keeps original indices and global order; per-process subsequences
    therefore preserve program order.
    """

    focus: str
    ops: tuple[Operation, ...]
    by_process: Mapping[str, tuple[Operation, ...]]

    def focus_reads(self) -> tuple[Operation, ...]:
        return tuple(o for o in self.by_process.get(self.focus, ()) if o.is_read)


def visible(trace: Trace, focus: str) -> VisibleProjection:
    """Project `trace` onto what `focus` must schedule: every write + its own reads."""
    if focus not in trace.processes:
        raise UnknownProcessError(f"unknown process {focus!r}")
    kept = tuple(o for o in trace.ops if o.is_write or o.process == focus)
    by_proc: dict[str, list[Operation]] = {}
    for o in kept:
        by_proc.setdefault(o.process, []).append(o)
    return VisibleProjection(
        focus=focus,
        ops=kept,
        by_process={p: tuple(seq) for p, seq in by_proc.items()},
    )


def build_read_mapping(proj: VisibleProjection) -> dict[int, int]:
    """Map each visible read's index to the one write with its variable and value.

    Raises UnmatchedReadError when a read's value was never written to its
    variable, and DuplicateValueError when more than one write matches (the
    unique-values precondition of the polynomial verifiers is violated).
    """
    writers: dict[tuple[str, int], list[int]] = {}
    for o in proj.ops:
        if o.is_write:
            writers.setdefault((o.variable, o.value), []).append(o.index)
    dictate: dict[int, int] = {}
    for r in proj.focus_reads():
        candidates = writers.get((r.variable, r.value), [])
        if not candidates:
            raise UnmatchedReadError(r.index)
        if len(candidates) > 1:
            raise DuplicateValueError(
                f"read #{r.index} ({r.pretty()}) has {len(candidates)} candidate writes"
            )
        dictate[r.index] = candidates[0]
    return dictate


def parse_trace(text: str | bytes) -> Trace:
    """Parse the line-oriented trace format.

    Grammar per line: `<process> <R|W> <variable> <int64>`, '#'-comments and
    blank lines ignored.  A process's lines must form one contiguous section;
    program order is the order of lines within the section.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows: list[tuple[str, str, str, int]] = []
    current: str | None = None
    closed: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise TraceParseError(f"expected 4 fields, got {len(fields)}", lineno)
        proc, kind, var, val_text = fields
        if kind not in (READ, WRITE):
            raise TraceParseError(f"operation kind must be R or W, got {kind!r}", lineno)
        if not _IDENT.match(proc):
            raise TraceParseError(f"bad process id {proc!r}", lineno)
        if not _IDENT.match(var):
            raise TraceParseError(f"bad variable id {var!r}", lineno)
        try:
            val = int(val_text)
        except ValueError:
            raise TraceParseError(f"non-integer value {val_text!r}", lineno) from None
        if not INT64_MIN <= val <= INT64_MAX:
            raise TraceParseError(f"value {val} outside signed 64-bit range", lineno)
        if proc != current:
            if proc in closed:
                raise TraceParseError(f"duplicate process section {proc!r}", lineno)
            if current is not None:
                closed.add(current)
            current = proc
        rows.append((proc, kind, var, val))
    return Trace.build(rows)


def serialize_trace(trace: Trace) -> str:
    """Canonical text for a trace: one section per process, no comments."""
    lines = [
        f"{o.process} {o.kind} {o.variable} {o.value}"
        for p in trace.processes
        for o in trace.processes[p]
    ]
    return "".join(line + "\n" for line in lines)
