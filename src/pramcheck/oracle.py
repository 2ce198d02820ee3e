"""Exhaustive reference decision procedure for any trace, duplicate values included.

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

# Re-exported only because the benchmark imports them from here; the line goes
# with the benchmark change of ROADMAP item 1.
from .reduction import ThreePartitionInstance, solve_3partition  # noqa: F401

ALGORITHM = "oracle"

DEFAULT_MAX_STATES = 10_000_000


@dataclass(frozen=True)
class OracleTimeout:
    """Search budget exhausted before a verdict; deliberately not a Verdict."""

    focus: str
    states: int
    max_states: int
    max_seconds: float | None = None


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

    The search is one loop over an explicit stack of frames, one per open
    state, so no recursion limit bounds its depth.  A frame holds its state's
    forced reads, memo key, untried branches and the write to undo before
    the next branch; a memoised state gets a frame with no branches, so every
    frame undoes its forced reads in the same place when it closes.
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

    # A frame is (lanes of the reads forced on entering the state, memo key,
    # iterator over the sorted branch candidates, lane signatures already
    # branched on, write to undo).  The current state's frame is held in the
    # locals below, and its ancestors' frames on `stack`.
    stack: list[tuple] = []
    enter = True  # the last write led to a new state: open a frame for it
    while True:
        if enter:
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
            if len(sched) == total:
                return Verdict(
                    consistent=True, focus=focus, algorithm=ALGORITHM, witness=Schedule(sched)
                )
            key = (
                tuple(sorted(suffix_sig[li][f] for li, f in enumerate(frontier))),
                tuple(lastvals),
            )
            candidates: list[tuple[int, int]] = []
            if key not in failed:  # a memoised state opens a frame with no candidates
                states += 1
                if states > max_states or (
                    deadline is not None and states % 2048 == 0 and time.monotonic() > deadline
                ):
                    return OracleTimeout(
                        focus=focus, states=states, max_states=max_states, max_seconds=max_seconds
                    )
                need: tuple[str, int] | None = None
                if focus_lane is not None:
                    f = frontier[focus_lane]
                    if reading[focus_lane][f] >= 0:
                        need = cells[focus_lane][f][3]
                for li in lane_nums:
                    f = frontier[li]
                    if reading[li][f] == -1:
                        candidates.append((0 if need == cells[li][f][3] else 1, li))
                candidates.sort()
            branches, tried_sigs, undo = iter(candidates), set(), None
        if undo is not None:
            li, s, prev, pair = undo
            supply[pair] += 1
            sched.pop()
            frontier[li] -= 1
            lastvals[s] = prev
        for _, li in branches:
            f = frontier[li]
            sig = suffix_sig[li][f]
            if sig in tried_sigs:  # an identical lane already branched here
                continue
            tried_sigs.add(sig)
            s, val, index, pair = cells[li][f]
            undo = (li, s, lastvals[s], pair)
            lastvals[s] = val
            frontier[li] = f + 1
            sched.append(index)
            supply[pair] -= 1
            enter = not starved(s)  # a starved state is undone on the next turn
            if enter:
                stack.append((forced, key, branches, tried_sigs, undo))
            break
        else:  # every branch failed: the state is hopeless
            failed.add(key)
            for li in reversed(forced):
                frontier[li] -= 1
                sched.pop()
            if not stack:
                return Verdict(
                    consistent=False,
                    focus=focus,
                    algorithm=ALGORITHM,
                    reason="search exhausted: no legal schedule exists",
                )
            forced, key, branches, tried_sigs, undo = stack.pop()
            enter = False
