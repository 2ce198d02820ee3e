"""Schedules and legality: when a total order of operations makes every read true.

A schedule is legal when each read returns the value of the latest preceding
write on its variable; a read with no preceding write on its variable is
illegal (there is no initial-value convention).  `check_pram_witness` bundles
the full acceptance condition for a candidate witness schedule: it must be a
permutation of the focus process's visible operations, legal, and must respect
every process's program order.  `Verdict` is the outcome every verifier returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from .model import Operation, Trace, UnknownProcessError, visible

if TYPE_CHECKING:
    from .opgraph import Cycle, OperationGraph


@dataclass(frozen=True)
class Schedule:
    """A total order over operations, stored as a tuple of operation indices."""

    seq: tuple[int, ...]

    def __init__(self, seq: Iterable[int]):
        object.__setattr__(self, "seq", tuple(seq))

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self):
        return iter(self.seq)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one focus-process verification.

    `witness` is present on acceptance (a legal schedule), `cycle` on
    rejections caused by a precedence cycle; rejections for a read without any
    dictating write carry no cycle, only `reason`.  The polynomial verifiers
    attach the precedence graph they built as `graph` (edge-less when a read
    has no dictating write); the oracle keeps none.
    """

    consistent: bool
    focus: str
    algorithm: str
    witness: Schedule | None = None
    cycle: Cycle | None = None
    reason: str | None = None
    graph: OperationGraph | None = field(default=None, compare=False, repr=False)


class NotAPermutationError(ValueError):
    """The schedule is not a permutation of the expected operation set."""


def parse_schedule(text: str) -> Schedule:
    """Parse the schedule format: one operation index per line, '#'-comments allowed."""
    indices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            indices.append(int(line))
        except ValueError:
            raise ValueError(f"line {lineno}: not an operation index: {line!r}") from None
    return Schedule(indices)


def serialize_schedule(sched: Schedule) -> str:
    return "".join(f"{i}\n" for i in sched)


def _check_permutation(sched: Schedule, ops: Mapping[int, Operation]) -> None:
    if len(sched) != len(ops) or set(sched.seq) != set(ops):
        raise NotAPermutationError(
            f"schedule covers {len(set(sched.seq))} distinct of {len(ops)} expected operations"
        )


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
        if op.is_write:
            last_write[op.variable] = op.value
        else:
            if op.variable not in last_write or last_write[op.variable] != op.value:
                return i
    return None


def is_legal(sched: Schedule, ops: Mapping[int, Operation]) -> bool:
    """True iff every scheduled read returns its latest preceding same-variable write."""
    return legality_violation(sched, ops) is None


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
    pos = {op: i for i, op in enumerate(sched.seq)}
    for seq in proj.by_process.values():
        for a, b in zip(seq, seq[1:]):
            if pos[a.index] >= pos[b.index]:
                return WitnessCheck(
                    False, f"program order violated: {a.pretty()} after {b.pretty()}"
                )
    return WitnessCheck(True)
