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
from .model import Trace, visible

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

    # Remaining-supply bound: every maximal same-value run among the focus's
    # remaining reads of a variable needs its own write of that value (only
    # the first run can ride on the current store), so a value whose
    # unscheduled writes fall short of its remaining runs is a dead end.
    supply: dict[tuple[str, int], int] = {}
    for o in proj.ops:
        if o.is_write:
            supply[(o.variable, o.value)] = supply.get((o.variable, o.value), 0) + 1
    focus_ops = lanes[focus_lane] if focus_lane is not None else ()
    _wall = object()  # a pending focus write separates runs
    runs_at: list[dict[tuple[str, int], int]] = [{} for _ in range(len(focus_ops) + 1)]
    first_at: list[dict[str, object]] = [{} for _ in range(len(focus_ops) + 1)]
    runs: dict[tuple[str, int], int] = {}
    first: dict[str, object] = {}
    for f in range(len(focus_ops) - 1, -1, -1):
        op = focus_ops[f]
        if op.is_read:
            if first.get(op.variable) != op.value:
                pair = (op.variable, op.value)
                runs[pair] = runs.get(pair, 0) + 1
            first[op.variable] = op.value
        else:
            first[op.variable] = _wall
        runs_at[f] = dict(runs)
        first_at[f] = dict(first)
    focus_read_values: dict[str, tuple[int, ...]] = {}
    for o in focus_ops:
        if o.is_read:
            vals = focus_read_values.setdefault(o.variable, ())
            if o.value not in vals:
                focus_read_values[o.variable] = vals + (o.value,)

    frontier = [0] * len(lanes)
    lastvals: list[int | None] = [None] * len(variables)
    sched: list[int] = []
    failed: set[tuple] = set()
    states = 0
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None

    def starved(var: str) -> bool:
        if focus_lane is None:
            return False
        need = runs_at[frontier[focus_lane]]
        head = first_at[frontier[focus_lane]].get(var)
        store = lastvals[slot[var]]
        for val in focus_read_values.get(var, ()):
            want = need.get((var, val), 0)
            if want and head == val == store:
                want -= 1
            if supply.get((var, val), 0) < want:
                return True
        return False

    def search() -> bool:
        nonlocal states
        # Schedule every enabled read right away: reads do not change the
        # store, so any solution can be rearranged to take them first.
        forced: list[int] = []
        while True:
            hit = -1
            for li, lane in enumerate(lanes):
                f = frontier[li]
                if f < len(lane):
                    op = lane[f]
                    if op.is_read and lastvals[slot[op.variable]] == op.value:
                        hit = li
                        break
            if hit < 0:
                break
            sched.append(lanes[hit][frontier[hit]].index)
            frontier[hit] += 1
            forced.append(hit)
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
            if focus_lane is not None and frontier[focus_lane] < len(lanes[focus_lane]):
                nxt = lanes[focus_lane][frontier[focus_lane]]
                if nxt.is_read:
                    need = (nxt.variable, nxt.value)
            candidates: list[tuple[int, int]] = []
            for li, lane in enumerate(lanes):
                f = frontier[li]
                if f < len(lane):
                    op = lane[f]
                    if op.is_write:
                        pri = 0 if need == (op.variable, op.value) else 1
                        candidates.append((pri, li))
            candidates.sort()
            tried_sigs: set[int] = set()
            for _, li in candidates:
                sig = suffix_sig[li][frontier[li]]
                if sig in tried_sigs:  # an identical lane already branched here
                    continue
                tried_sigs.add(sig)
                op = lanes[li][frontier[li]]
                s = slot[op.variable]
                prev = lastvals[s]
                lastvals[s] = op.value
                frontier[li] += 1
                sched.append(op.index)
                pair = (op.variable, op.value)
                supply[pair] -= 1
                if not starved(op.variable) and search():
                    won = True
                    return True
                supply[pair] += 1
                sched.pop()
                frontier[li] -= 1
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
    """
    sizes = list(inst.sizes)
    if len(sizes) != 3 * inst.m or sum(sizes) != inst.m * inst.B:
        return None
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    used = [False] * len(sizes)
    triples: list[tuple[int, int, int]] = []

    def rec() -> bool:
        if len(triples) == inst.m:
            return True
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
                used[j] = used[k] = True
                triples.append((anchor, j, k))
                if rec():
                    return True
                triples.pop()
                used[j] = used[k] = False
        used[anchor] = False
        return False

    return triples if rec() else None
