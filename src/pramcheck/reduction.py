"""Encode triple-partition feasibility as a PRAM-consistency question.

An instance asks for `sizes` (3m positive numbers, each strictly between B/4
and B/2, summing to mB) to be split into m triples each summing to B.  The
reduced trace uses one variable and six constant values; the focus process P0
reads m "slots", each expecting three openings, B units, and three closings:

* P0:   per slot, (R 1, R 2) x3, then (R 3, R 4) xB, then (R 5, R 6) x3
* Pa_i: W 2, then sizes[i] x W 4, then W 6     (one process per number)
* Pc1:  3m x W 1;  Pc2: mB x W 3;  Pc3: 3m x W 5

Reading "2" (an opening) forces some Pa_i to start, and its units (value 4)
must all be consumed as that slot's B units before its closing "6" can satisfy
the slot's closings - so a legal schedule exists iff the three processes
opened in a slot have sizes summing to exactly B, i.e. iff the instance is
feasible.
"""

from __future__ import annotations

from collections import deque

from .legality import Schedule
from .model import READ, WRITE, Trace
from .oracle import ThreePartitionInstance

VAR = "x"
FOCUS = "P0"

# the six constant values of the encoding
OPEN_SIGNAL, OPEN_ACK = 1, 2
UNIT_SIGNAL, UNIT_ACK = 3, 4
CLOSE_SIGNAL, CLOSE_ACK = 5, 6


class InvalidInstanceError(ValueError):
    """The instance violates the canonical form; names every failed condition."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def validate_instance(inst: ThreePartitionInstance) -> None:
    problems = []
    if inst.m < 1:
        problems.append(f"m must be >= 1, got {inst.m}")
    if inst.B < 1:
        problems.append(f"B must be >= 1, got {inst.B}")
    if len(inst.sizes) != 3 * inst.m:
        problems.append(f"expected 3m = {3 * inst.m} sizes, got {len(inst.sizes)}")
    bad = [s for s in inst.sizes if not isinstance(s, int) or s < 1]
    if bad:
        problems.append(f"sizes must be positive integers, got {bad}")
    out_of_band = [s for s in inst.sizes if not (4 * s > inst.B and 2 * s < inst.B)]
    if out_of_band:
        problems.append(
            f"every size must lie strictly between B/4 and B/2, violated by {out_of_band}"
        )
    if sum(inst.sizes) != inst.m * inst.B:
        problems.append(
            f"sizes must sum to m*B = {inst.m * inst.B}, got {sum(inst.sizes)}"
        )
    if problems:
        raise InvalidInstanceError(problems)


def number_process(i: int) -> str:
    """Process name for the i-th size (0-based): Pa1, Pa2, ..."""
    return f"Pa{i + 1}"


def reduce_3partition(inst: ThreePartitionInstance) -> Trace:
    """The trace whose PRAM consistency (from P0) encodes instance feasibility."""
    validate_instance(inst)
    rows: list[tuple[str, str, str, int]] = []
    for _slot in range(inst.m):
        for _ in range(3):
            rows.append((FOCUS, READ, VAR, OPEN_SIGNAL))
            rows.append((FOCUS, READ, VAR, OPEN_ACK))
        for _ in range(inst.B):
            rows.append((FOCUS, READ, VAR, UNIT_SIGNAL))
            rows.append((FOCUS, READ, VAR, UNIT_ACK))
        for _ in range(3):
            rows.append((FOCUS, READ, VAR, CLOSE_SIGNAL))
            rows.append((FOCUS, READ, VAR, CLOSE_ACK))
    for i, size in enumerate(inst.sizes):
        proc = number_process(i)
        rows.append((proc, WRITE, VAR, OPEN_ACK))
        rows.extend((proc, WRITE, VAR, UNIT_ACK) for _ in range(size))
        rows.append((proc, WRITE, VAR, CLOSE_ACK))
    rows.extend(("Pc1", WRITE, VAR, OPEN_SIGNAL) for _ in range(3 * inst.m))
    rows.extend(("Pc2", WRITE, VAR, UNIT_SIGNAL) for _ in range(inst.m * inst.B))
    rows.extend(("Pc3", WRITE, VAR, CLOSE_SIGNAL) for _ in range(3 * inst.m))
    return Trace.build(rows)


def build_partition_witness(
    trace: Trace, inst: ThreePartitionInstance, partition: list[tuple[int, int, int]]
) -> Schedule:
    """The legal schedule a feasible partition induces on the reduced trace.

    Slot by slot: open the triple's three processes while consuming three
    opening signals, alternate unit signals with the opened processes' units
    (exactly B because the triple sums to B), then close all three.
    """
    queues = {p: deque(o.index for o in seq) for p, seq in trace.processes.items()}
    out: list[int] = []

    def take(proc: str) -> None:
        out.append(queues[proc].popleft())

    for triple in partition:
        for j in triple:
            take("Pc1")
            take(FOCUS)
            take(number_process(j))
            take(FOCUS)
        for j in triple:
            for _ in range(inst.sizes[j]):
                take("Pc2")
                take(FOCUS)
                take(number_process(j))
                take(FOCUS)
        for j in triple:
            take("Pc3")
            take(FOCUS)
            take(number_process(j))
            take(FOCUS)
    return Schedule(out)
