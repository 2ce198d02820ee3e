"""Schedules and legality: when a total order of operations makes every read true.

A schedule is legal when each read returns the value of the latest preceding
write on its variable; a read with no preceding write on its variable is
illegal (there is no initial-value convention).  `check_pram_witness` bundles
the full acceptance condition for a candidate witness schedule: it must be a
permutation of the focus process's visible operations, legal, and must respect
every process's program order.  `Verdict` is the outcome every verifier returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .model import WRITE, Operation, Trace, UnknownProcessError, visible

if TYPE_CHECKING:
    from .opgraph import Cycle, OperationGraph

_INDEX = re.compile(r"[0-9]+\Z")


class Schedule(tuple):
    """A total order over operations: a tuple of operation indices."""


class _BuiltOnFirstRead:
    """A field holding a value or a zero-argument builder; the first read builds and keeps it."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        value = None if obj is None else obj.__dict__[self.name]  # None: the field's default
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value) -> None:  # a default given in `field()` arrives as self
        obj.__dict__[self.name] = None if value is self else value


@dataclass(frozen=True)
class Verdict:
    """Outcome of one focus-process verification.

    `witness` is present on acceptance (a legal schedule), `cycle` on
    rejections caused by a precedence cycle; rejections for a read without any
    dictating write carry no cycle, only `reason`.  The polynomial verifiers
    attach the precedence graph they built as `graph` (edge-less when a read
    has no dictating write); the oracle keeps none.  `witness` and `graph`
    each hold a value or a zero-argument builder of one, run once on the
    first read (`==`, `hash` and `repr` read `witness`, never `graph`).  The
    verifiers pass `partial`s, no closures that keep their tables alive: a
    witness never read is never sorted, and read-centric's graph gets the
    unsettled operations' `PO` and `WR` edges only when read.
    """

    consistent: bool
    focus: str
    algorithm: str
    witness: Schedule | None = _BuiltOnFirstRead()
    cycle: Cycle | None = None
    reason: str | None = None
    graph: OperationGraph | None = field(default=_BuiltOnFirstRead(), compare=False, repr=False)


class NotAPermutationError(ValueError):
    """The schedule is not a permutation of the expected operation set."""


def parse_schedule(text: str) -> Schedule:
    """Parse the schedule format: one operation index (ASCII `[0-9]+`) per line.

    Blank lines and '#'-comments are skipped.
    """
    indices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _INDEX.match(line):
            raise ValueError(f"line {lineno}: not an operation index: {line!r}")
        # at most 19 significant digits, like a trace value: int() refuses 4,301
        digits = line.lstrip("0") or "0"
        if len(digits) > 19:
            raise ValueError(f"line {lineno}: operation index of {len(digits)} digits is too large")
        indices.append(int(digits))
    return Schedule(indices)


def serialize_schedule(sched: Schedule) -> str:
    return "".join(f"{i}\n" for i in sched)


def _check_permutation(sched: Schedule, ops: Mapping[int, Operation]) -> None:
    """Raise naming the first repeated or foreign index, else the first missing operation."""
    if len(sched) == len(ops) and set(sched) == ops.keys():
        return
    seen: set[int] = set()
    for i in sched:
        if i not in ops:
            raise NotAPermutationError(f"index {i} is not a visible operation")
        if i in seen:
            raise NotAPermutationError(f"index {i} ({ops[i].pretty()}) appears twice")
        seen.add(i)
    missing = min(ops.keys() - seen)
    raise NotAPermutationError(f"operation {missing} ({ops[missing].pretty()}) is missing")


def legality_violation(sched: Schedule, ops: Mapping[int, Operation]) -> int | None:
    """Index of the first read that is wrong under `sched`, or None if legal.

    `ops` maps operation index -> Operation for exactly the scheduled set.
    A read is wrong when no write on its variable precedes it, or the latest
    preceding one assigned a different value.
    """
    _check_permutation(sched, ops)
    last_write: dict[str, int] = {}
    for i in sched:
        op = ops[i]
        if op.kind == WRITE:
            last_write[op.variable] = op.value
        else:
            if op.variable not in last_write or last_write[op.variable] != op.value:
                return i
    return None


@dataclass(frozen=True)
class WitnessCheck:
    """Outcome of check_pram_witness: truthy iff the schedule is a valid witness."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_pram_witness(trace: Trace, focus: str, sched: Schedule) -> WitnessCheck:
    """Decide whether `sched` proves the trace PRAM-consistent from `focus`'s view.

    The schedule must be a permutation of all writes plus `focus`'s reads, be
    legal, and respect program order.  The write-to constraint is checked
    against the schedule-induced read mapping (the latest preceding write), so
    the check is meaningful on duplicate-value traces too; on unique-value
    traces the induced mapping coincides with the static one.
    """
    try:
        proj = visible(trace, focus)
    except UnknownProcessError as exc:
        return WitnessCheck(False, str(exc))
    ops = {o.index: o for o in proj.ops}
    try:
        bad_read = legality_violation(sched, ops)
    except NotAPermutationError as exc:
        return WitnessCheck(False, f"not a permutation of visible operations: {exc}")
    if bad_read is not None:
        return WitnessCheck(False, f"illegal read {ops[bad_read].pretty()}")
    pos = {op: i for i, op in enumerate(sched)}
    for seq in proj.by_process.values():
        for a, b in zip(seq, seq[1:]):
            if pos[a.index] >= pos[b.index]:
                return WitnessCheck(
                    False, f"program order violated: {a.pretty()} after {b.pretty()}"
                )
    return WitnessCheck(True)
