"""Exhaustive reference decision procedure for any trace, duplicate values included.

`oracle_verify` searches the space of interleavings of the focus process's
visible operations directly: writes are always schedulable, a read only when
the latest scheduled write on its variable holds the read's value.  The search
names each (variable, value) pair by a small int, its pair id.  It is the only
verifier here that handles duplicate write values, at exponential cost; a
state budget keeps it honest, and running out of budget is reported as a
distinct Timeout, never as a verdict.

Its set-up is linear in the focus: past one pass over the trace to project
it, it reads each visible operation a constant number of times before the
first search state.  Apart from the memo, which the budget bounds, a search's
memory is linear in the focus too.  `max_states` and `max_seconds` bound the
search.  `max_states` counts the distinct search states that the oracle enters
and has not already proven hopeless; forced reads and memo hits do not count.
The search keeps its open states on an explicit stack: it has no depth limit.

To cut the heavy tail of duplicate-value searches, the search restarts on a
Luby schedule of dead ends, keeping its memo (Gomes, Selman & Kautz, AAAI
1998); `max_states` counts the states of every slice, re-entered ones too.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from operator import getitem

from .legality import Schedule, Verdict
from .model import READ, Trace, visible

# Re-exported only because the benchmark imports them from here; the line goes
# with the benchmark change of ROADMAP item 1.
from .reduction import ThreePartitionInstance, solve_3partition  # noqa: F401

ALGORITHM = "oracle"

DEFAULT_MAX_STATES = 10_000_000

# Dead ends per unit of the restart schedule.  Of 16, 32 and 64, 32 left the
# fewest budget-5,000 timeouts on four benchmark `dup-mix` seeds (1 of 9,084
# requests, against 2 and 3), and 64 took the most time.
_UNIT = 32


@dataclass(frozen=True)
class OracleTimeout:
    """Search budget exhausted before a verdict; deliberately not a Verdict.

    `states` counts the states entered over all slices, and `restarts` the
    slices begun after the first."""

    focus: str
    states: int
    max_states: int
    max_seconds: float | None = None
    restarts: int = 0


def _luby(j: int) -> int:
    """Term j (from 0) of Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, ..."""
    i = j + 1
    while i & (i + 1):  # i is not 2**k - 1, so it repeats term i - 2**(k-1) + 1
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) >> 1


def oracle_verify(
    trace: Trace,
    focus: str,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_seconds: float | None = None,
) -> Verdict | OracleTimeout:
    """Decide consistency from `focus`'s view by memoized depth-first search.

    The search state is the per-process frontier over visible operations plus
    the pair id last written per variable; states proven hopeless are memoized.
    Three safe accelerations: an enabled read is scheduled immediately (reads
    do not change the store, so this loses no schedules), branching prefers
    the write that would enable the focus's next read, and the memo key
    identifies states whose remaining per-lane suffixes form the same multiset
    (lanes with identical remaining work are interchangeable).

    The search is one loop over an explicit stack of frames, one per open
    state, so no recursion limit bounds its depth.  A frame holds the number
    of its state's forced reads, its memo key, its untried branches and the
    write to undo before the next branch.

    After a write of pair p over pair q, the supply bound checks only p and
    q.  Any other pair on the variable passed at its last write on this path,
    or, with none, still has all its writes, and has only lost runs since.  A
    pair short of writes from the start fails at every write there: `starved`.

    The loop runs in slices.  Slice j may meet 32 * luby(j) dead ends (states
    found hopeless, and starvation prunes); the next one ends it, and slice
    j + 1 starts from the root with the lanes shuffled, deterministically, by
    `random.Random(f"{focus}:{j + 1}")`.  Slice 0 keeps the lanes' order, so a
    search with at most 32 dead ends never restarts.  The memo, whose key does
    not depend on the lane order, is kept, and the slices grow without bound,
    so the search stays complete.  `max_states` bounds the states entered
    over all slices, and `max_seconds` is checked every 2,048 of them.
    """
    proj = visible(trace, focus)
    lanes = list(proj.by_process.values())
    focus_ops = proj.by_process[focus]
    variables = sorted({o.variable for o in proj.ops})
    slot = {v: i for i, v in enumerate(variables)}
    total = len(proj.ops)

    # Pair ids: (variable, value) -> small int, written pairs first, so that
    # `all_writes[pid]` counts the writes of each pair, and a slice's
    # `supply[pid]` its unscheduled ones.
    pair_id = {pair: i for i, pair in enumerate(trace.writers)}
    all_writes = [len(ws) for ws in trace.writers.values()]
    for o in focus_ops:
        if (o.variable, o.value) not in pair_id:
            pair_id[(o.variable, o.value)] = len(all_writes)
            all_writes.append(0)

    # suffix_sig[li][f]: identity of lane li's remaining (kind, pair)
    # sequence from position f on; equal signatures mean equal futures.
    intern: dict[tuple, int] = {(): 0}
    suffix_sig: list[list[int]] = []
    for lane in lanes:
        sigs = [0] * (len(lane) + 1)
        for f in range(len(lane) - 1, -1, -1):
            op = lane[f]
            key = (op.kind, pair_id[(op.variable, op.value)], sigs[f + 1])
            sigs[f] = intern.setdefault(key, len(intern))
        suffix_sig.append(sigs)

    # One (variable slot, index, pair id, suffix signature) cell per write,
    # so the search reads no Operation attribute; a focus read and a lane's
    # end hold None.  Only the focus lane has reads: `visible` keeps only the
    # writes of every other process, so those lanes are write queues.
    cells = [
        [
            (slot[o.variable], o.index, pair_id[(o.variable, o.value)], sig)
            if o.kind != READ
            else None
            for o, sig in zip(lane, sigs)
        ]
        + [None]
        for lane, sigs in zip(lanes, suffix_sig)
    ]
    fl = list(proj.by_process).index(focus)  # `visible` keeps the focus's whole section
    # the focus lane at each position: the read's slot and pair id (-1 at a
    # write and one past the end), and the operation's index
    rslot = [slot[o.variable] if o.kind == READ else -1 for o in focus_ops] + [-1]
    rpid = [pair_id[(o.variable, o.value)] if o.kind == READ else -1 for o in focus_ops] + [-1]
    ridx = [o.index for o in focus_ops]

    # Remaining-supply bound: every maximal same-value run among the focus's
    # remaining reads of a variable needs its own write of that value (only
    # the first run can ride on the current store), so a pair whose
    # unscheduled writes fall short of its remaining runs is a dead end.
    # One backward scan records each slot's focus positions, closed by one
    # past the end, each read pair's run ends (where the slot's next focus
    # operation, `pos[-1]`, reads no such pair) and the starved slots.
    positions: list[list[int]] = [[len(focus_ops)] for _ in variables]
    ends: list[list[int]] = [[] for _ in all_writes]
    starved = [False] * len(variables)
    for f in range(len(focus_ops) - 1, -1, -1):
        pos = positions[slot[focus_ops[f].variable]]
        p = rpid[f]
        if p >= 0 and rpid[pos[-1]] != p:
            ends[p].append(f)
            starved[rslot[f]] |= len(ends[p]) > all_writes[p]
        pos.append(f)
    for seq in itertools.chain(positions, ends):
        seq.reverse()

    failed: set[tuple] = set()
    states = 0
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None

    # One slice per turn; `failed` does not depend on the lane order.
    for restarts in itertools.count():
        order = list(range(len(lanes)))  # the order in which the lanes branch
        if restarts:
            random.Random(f"{focus}:{restarts}").shuffle(order)
        frontier = [0] * len(lanes)
        store: list[int | None] = [None] * len(variables)  # slot -> last write's pair id
        sched: list[int] = []
        supply = all_writes[:]
        allowed = _UNIT * _luby(restarts)
        dead_ends = 0

        # A frame is (number of reads forced on entering the state, memo key,
        # iterator over the branch candidates, write to undo).  The current
        # state's frame is held in the locals below, and its ancestors' frames
        # on `stack`.
        stack: list[tuple] = []
        enter = True  # the last write led to a new state: open a frame for it
        while dead_ends <= allowed:
            if enter:
                # Schedule every enabled read right away: reads do not change
                # the store, so any solution can be rearranged to take them first.
                f = start = frontier[fl]
                s = rslot[f]
                while s >= 0 and store[s] == rpid[f]:
                    sched.append(ridx[f])
                    f += 1
                    s = rslot[f]
                forced = f - start
                frontier[fl] = f
                if len(sched) == total:
                    return Verdict(
                        consistent=True, focus=focus, algorithm=ALGORITHM, witness=Schedule(sched)
                    )
                # the memo key: the lanes' signatures as a multiset, then the store
                key = sorted(map(getitem, suffix_sig, frontier))
                key += store
                key = tuple(key)
                branches, undo = (), None  # a memoised state has none: it fails at once
                if key not in failed:
                    states += 1
                    if states > max_states or (
                        deadline is not None and states % 2048 == 0 and time.monotonic() > deadline
                    ):
                        return OracleTimeout(focus, states, max_states, max_seconds, restarts)
                    # The writes that would enable the focus's next read go
                    # first; of lanes with equal remaining work, only the first
                    # branches.
                    need = rpid[frontier[fl]]
                    candidates: list[int] = []
                    later: list[int] = []
                    seen: set[int] = set()
                    for li in order:
                        c = cells[li][frontier[li]]
                        if c is not None and c[3] not in seen:
                            seen.add(c[3])
                            (candidates if c[2] == need else later).append(li)
                    candidates += later
                    branches = iter(candidates)
            if undo is not None:
                li, s, prev, pid = undo
                supply[pid] += 1
                sched.pop()
                frontier[li] -= 1
                store[s] = prev
            for li in branches:
                s, index, pid, _ = cells[li][frontier[li]]
                prev = store[s]
                undo = (li, s, prev, pid)
                store[s] = pid
                frontier[li] += 1
                sched.append(index)
                supply[pid] -= 1
                # Only pid and prev can fall short (see the docstring); a run of
                # pid rides on the store if the focus's next operation on s reads it.
                f = frontier[fl]
                pos = positions[s]
                ride = rpid[pos[bisect_left(pos, f)]] == pid
                e = ends[pid]
                enter = not starved[s] and supply[pid] + ride >= len(e) - bisect_left(e, f)
                if enter and prev not in (None, pid):
                    e = ends[prev]
                    enter = supply[prev] >= len(e) - bisect_left(e, f)
                if enter:
                    stack.append((forced, key, branches, undo))
                else:  # a state short of supply is undone on the next turn
                    dead_ends += 1
                break
            else:  # every branch failed, or a memo hit: back to the parent
                dead_ends += key not in failed  # a memo hit is no new dead end
                failed.add(key)
                if forced:
                    frontier[fl] -= forced
                    del sched[-forced:]
                if not stack:
                    return Verdict(
                        consistent=False,
                        focus=focus,
                        algorithm=ALGORITHM,
                        reason="search exhausted: no legal schedule exists",
                    )
                forced, key, branches, undo = stack.pop()
                enter = False
