"""Exhaustive reference decision procedure and the exact triple-partition solver.

`oracle_verify` searches the space of interleavings of the focus process's
visible operations directly: writes are always schedulable, a read only when
the latest scheduled write on its variable holds the read's value.  It is the
only verifier here that handles duplicate write values, at exponential cost;
a state budget keeps it honest, and running out of budget is reported as a
distinct Timeout, never as a verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .legality import Schedule, Verdict
from .model import READ, Trace, visible

ALGORITHM = "oracle"

DEFAULT_MAX_STATES = 10_000_000


@dataclass(frozen=True)
class OracleTimeout:
    """Search budget exhausted before a verdict; deliberately not a Verdict."""

    focus: str
    states: int
    max_states: int
    max_seconds: float | None = None


class _Budget(Exception):
    pass


def oracle_verify(
    trace: Trace,
    focus: str,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_seconds: float | None = None,
) -> Verdict | OracleTimeout:
    """Decide consistency from `focus`'s view by memoized depth-first search.

    The search state is the per-process frontier over visible operations plus
    the last value written per variable; states proven hopeless are memoized.
    Three safe accelerations: an enabled read is scheduled immediately (reads
    do not change the store, so this loses no schedules), branching prefers
    the write that would enable the focus's next read, and the memo key
    identifies states whose remaining per-lane suffixes form the same multiset
    (lanes with identical remaining work are interchangeable).
    """
    proj = visible(trace, focus)
    lanes = list(proj.by_process.values())
    lane_ids = list(proj.by_process.keys())
    focus_lane = lane_ids.index(focus) if focus in proj.by_process else None
    variables = sorted({o.variable for o in proj.ops})
    slot = {v: i for i, v in enumerate(variables)}
    total = len(proj.ops)

    # suffix_sig[li][f]: identity of lane li's remaining (kind, variable,
    # value) sequence from position f on; equal signatures mean equal futures.
    intern: dict[tuple, int] = {(): 0}
    suffix_sig: list[list[int]] = []
    for lane in lanes:
        sigs = [0] * (len(lane) + 1)
        for f in range(len(lane) - 1, -1, -1):
            op = lane[f]
            key = (op.kind, op.variable, op.value, sigs[f + 1])
            sigs[f] = intern.setdefault(key, len(intern))
        suffix_sig.append(sigs)

    # One tuple per lane position, so the search reads no Operation
    # attribute: (variable slot, value, index, (variable, value)).
    # reading[li][f] is the slot of the read at position f, -1 for a write,
    # and -2 one past the lane's end.
    cells = [
        [(slot[o.variable], o.value, o.index, (o.variable, o.value)) for o in lane]
        for lane in lanes
    ]
    reading = [[slot[o.variable] if o.kind == READ else -1 for o in lane] + [-2] for lane in lanes]
    lane_nums = range(len(lanes))

    # Remaining-supply bound: every maximal same-value run among the focus's
    # remaining reads of a variable needs its own write of that value (only
    # the first run can ride on the current store), so a value whose
    # unscheduled writes fall short of its remaining runs is a dead end.
    supply = {pair: len(ws) for pair, ws in trace.writers.items()}
    focus_ops = lanes[focus_lane] if focus_lane is not None else ()
    _wall = object()  # a pending focus write separates runs
    runs_at: list[dict[tuple[str, int], int]] = [{} for _ in range(len(focus_ops) + 1)]
    first_at: list[dict[int, object]] = [{} for _ in range(len(focus_ops) + 1)]
    runs: dict[tuple[str, int], int] = {}
    first: dict[int, object] = {}
    for f in range(len(focus_ops) - 1, -1, -1):
        op = focus_ops[f]
        s = slot[op.variable]
        if op.kind == READ:
            if first.get(s) != op.value:
                pair = (op.variable, op.value)
                runs[pair] = runs.get(pair, 0) + 1
            first[s] = op.value
        else:
            first[s] = _wall
        runs_at[f] = dict(runs)
        first_at[f] = dict(first)
    # focus_reads_of[slot]: the distinct (value, (variable, value)) the focus reads there
    focus_reads_of: list[tuple[tuple[int, tuple[str, int]], ...]] = [() for _ in variables]
    for o in focus_ops:
        if o.kind == READ:
            s = slot[o.variable]
            read = (o.value, (o.variable, o.value))
            if read not in focus_reads_of[s]:
                focus_reads_of[s] += (read,)

    frontier = [0] * len(lanes)
    lastvals: list[int | None] = [None] * len(variables)
    sched: list[int] = []
    failed: set[tuple] = set()
    states = 0
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None

    def starved(s: int) -> bool:
        if focus_lane is None:
            return False
        need = runs_at[frontier[focus_lane]]
        head = first_at[frontier[focus_lane]].get(s)
        store = lastvals[s]
        for val, pair in focus_reads_of[s]:
            want = need.get(pair, 0)
            if want and head == val == store:
                want -= 1
            if supply.get(pair, 0) < want:
                return True
        return False

    def search() -> bool:
        nonlocal states
        # Schedule every enabled read right away: reads do not change the
        # store, so any solution can be rearranged to take them first.
        forced: list[int] = []
        while True:
            for li in lane_nums:
                f = frontier[li]
                s = reading[li][f]
                if s >= 0 and lastvals[s] == cells[li][f][1]:
                    break
            else:
                break
            sched.append(cells[li][f][2])
            frontier[li] = f + 1
            forced.append(li)
        won = False
        try:
            if len(sched) == total:
                won = True
                return True
            key = (
                tuple(sorted(suffix_sig[li][f] for li, f in enumerate(frontier))),
                tuple(lastvals),
            )
            if key in failed:
                return False
            states += 1
            if states > max_states:
                raise _Budget
            if deadline is not None and states % 2048 == 0 and time.monotonic() > deadline:
                raise _Budget

            need: tuple[str, int] | None = None
            if focus_lane is not None:
                f = frontier[focus_lane]
                if reading[focus_lane][f] >= 0:
                    need = cells[focus_lane][f][3]
            candidates: list[tuple[int, int]] = []
            for li in lane_nums:
                f = frontier[li]
                if reading[li][f] == -1:
                    candidates.append((0 if need == cells[li][f][3] else 1, li))
            candidates.sort()
            tried_sigs: set[int] = set()
            for _, li in candidates:
                f = frontier[li]
                sig = suffix_sig[li][f]
                if sig in tried_sigs:  # an identical lane already branched here
                    continue
                tried_sigs.add(sig)
                s, val, index, pair = cells[li][f]
                prev = lastvals[s]
                lastvals[s] = val
                frontier[li] = f + 1
                sched.append(index)
                supply[pair] -= 1
                if not starved(s) and search():
                    won = True
                    return True
                supply[pair] += 1
                sched.pop()
                frontier[li] = f
                lastvals[s] = prev
            failed.add(key)
            return False
        finally:
            if not won:
                for li in reversed(forced):
                    frontier[li] -= 1
                    sched.pop()

    try:
        found = search()
    except _Budget:
        return OracleTimeout(
            focus=focus, states=states, max_states=max_states, max_seconds=max_seconds
        )
    finally:
        # search refers to itself through its closure cell; clearing the cell
        # frees the memo now instead of at the next cyclic garbage collection.
        search = None
    if found:
        return Verdict(
            consistent=True, focus=focus, algorithm=ALGORITHM, witness=Schedule(sched)
        )
    return Verdict(
        consistent=False,
        focus=focus,
        algorithm=ALGORITHM,
        reason="search exhausted: no legal schedule exists",
    )


@dataclass(frozen=True)
class ThreePartitionInstance:
    """Numbers to split into m triples, each summing to B."""

    m: int
    B: int
    sizes: tuple[int, ...]


def solve_3partition(inst: ThreePartitionInstance) -> list[tuple[int, int, int]] | None:
    """Exact search for a partition of `sizes` into m triples summing to B each.

    Exploits the fixed group size of three: anchor the largest unassigned
    element, enumerate completing pairs, skip value-equal pairs already tried.
    Returns index triples into `sizes`, or None when no partition exists.
    The search keeps one generator per open triple on an explicit stack, so
    its depth is not bounded by Python's recursion limit.
    """
    sizes = list(inst.sizes)
    if len(sizes) != 3 * inst.m or sum(sizes) != inst.m * inst.B:
        return None
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    used = [False] * len(sizes)
    triples: list[tuple[int, int, int]] = []

    def completions():
        """Anchor the largest unused element and yield each triple it can close."""
        anchor = next(i for i in order if not used[i])
        used[anchor] = True
        rest = [i for i in order if not used[i]]
        tried: set[tuple[int, int]] = set()
        for x in range(len(rest)):
            j = rest[x]
            for y in range(x + 1, len(rest)):
                k = rest[y]
                if sizes[anchor] + sizes[j] + sizes[k] != inst.B:
                    continue
                pair = (sizes[j], sizes[k])
                if pair in tried:
                    continue
                tried.add(pair)
                yield anchor, j, k
        used[anchor] = False

    stack = []  # stack[t] yields the choices for triples[t]
    while len(triples) < inst.m:
        if len(stack) == len(triples):
            stack.append(completions())
        triple = next(stack[-1], None)
        if triple is not None:
            used[triple[1]] = used[triple[2]] = True
            triples.append(triple)
            continue
        stack.pop()  # no completion left: undo the parent's choice
        if not triples:
            return None
        _, j, k = triples.pop()
        used[j] = used[k] = False
    return triples
