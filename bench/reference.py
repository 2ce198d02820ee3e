"""Independent reference decider for small traces.

A plain memoised search over lane frontiers and the store: no forced reads,
no pruning and no lane symmetry, and none of `pramcheck`'s verifiers.  A
focus is PRAM-consistent when some interleaving of every process's writes and
the focus's own reads, each lane in program order, makes every read return
the latest preceding write of its variable.
"""

from __future__ import annotations

from pramcheck.model import Trace


def reference_consistent(trace: Trace, focus: str) -> bool:
    """True iff a legal schedule of `focus`'s visible operations exists."""
    lanes = [
        [(o.is_read, o.variable, o.value) for o in seq if o.is_write or proc == focus]
        for proc, seq in trace.processes.items()
    ]
    lanes = [lane for lane in lanes if lane]
    slot = {v: i for i, v in enumerate(sorted({var for lane in lanes for _, var, _ in lane}))}
    total = sum(len(lane) for lane in lanes)
    dead: set[tuple[tuple[int, ...], tuple]] = set()

    def search(frontier: tuple[int, ...], store: tuple, placed: int) -> bool:
        if placed == total:
            return True
        if (frontier, store) in dead:
            return False
        for li, lane in enumerate(lanes):
            f = frontier[li]
            if f == len(lane):
                continue
            is_read, var, value = lane[f]
            s = slot[var]
            if is_read:
                if store[s] != value:
                    continue
                nxt_store = store
            else:
                nxt_store = store[:s] + (value,) + store[s + 1 :]
            nxt = frontier[:li] + (f + 1,) + frontier[li + 1 :]
            if search(nxt, nxt_store, placed + 1):
                return True
        dead.add((frontier, store))
        return False

    return search((0,) * len(lanes), (None,) * len(slot), 0)
