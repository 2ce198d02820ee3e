"""Seeded workload generator and trace mutations.

``gen_pram_trace`` simulates replicas connected by per-writer FIFO channels:
a write goes to the local replica immediately and is queued to every other
replica; before a process issues an operation, a random prefix of its queues
is delivered.  Reads return the local replica's current value, so the issue
order itself is PRAM-consistent from every focus by construction.

``mutate_trace`` plants violations (or near-misses) for negative testing.
"""

from __future__ import annotations

import random
from collections import deque

from .model import READ, WRITE, MutationError, Trace

MUTATIONS = ("swap-write-values", "reorder-reads", "retarget-read")


def _variable_names(count: int) -> list[str]:
    base = ["x", "y", "z"]
    if count <= len(base):
        return base[:count]
    return base + [f"v{i}" for i in range(4, count + 1)]


def gen_pram_trace(
    seed: int,
    *,
    processes: int = 3,
    variables: int = 2,
    ops: int = 40,
    policy: str = "unique",
    read_fraction: float = 0.5,
) -> Trace:
    """Generate a PRAM-consistent trace of exactly `ops` operations.

    policy="unique" gives every write a fresh per-variable value (single- or
    multi-variable unique traces); policy="duplicate" draws values from a tiny
    pool so repeats are overwhelmingly likely.
    """
    if processes < 1 or variables < 1 or ops < 0:
        raise ValueError("processes, variables must be >= 1 and ops >= 0")
    if policy not in ("unique", "duplicate"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed)
    procs = [f"p{i}" for i in range(1, processes + 1)]
    names = _variable_names(variables)
    counters = dict.fromkeys(names, 0)
    replica: dict[str, dict[str, int]] = {p: {} for p in procs}
    inbox: dict[str, dict[str, deque[tuple[str, int]]]] = {
        p: {q: deque() for q in procs if q != p} for p in procs
    }
    rows: list[tuple[str, str, str, int]] = []
    while len(rows) < ops:
        p = rng.choice(procs)
        # deliver a random prefix of the incoming channels, FIFO per writer
        while True:
            ready = [q for q, chan in inbox[p].items() if chan]
            if not ready or rng.random() < 0.4:
                break
            var, val = inbox[p][rng.choice(ready)].popleft()
            replica[p][var] = val
        if replica[p] and rng.random() < read_fraction:
            var = rng.choice(sorted(replica[p]))
            rows.append((p, READ, var, replica[p][var]))
        else:
            var = rng.choice(names)
            if policy == "unique":
                counters[var] += 1
                val = counters[var]
            else:
                val = rng.randint(1, 3)
            replica[p][var] = val
            for q in procs:
                if q != p:
                    inbox[q][p].append((var, val))
            rows.append((p, WRITE, var, val))
    return Trace.build(rows)


def mutate_trace(seed: int, trace: Trace, kind: str) -> Trace:
    """Apply one named mutation; raises MutationError when inapplicable.

    swap-write-values  exchange the values of two writes to one variable
    reorder-reads      swap two reads within one process
    retarget-read      repoint one read at another write's value on the same
                       variable, or at a value nobody wrote
    """
    rng = random.Random(seed)
    rows = trace.rows()
    if kind == "swap-write-values":
        by_var: dict[str, list[int]] = {}
        for i, (_, k, var, _v) in enumerate(rows):
            if k == WRITE:
                by_var.setdefault(var, []).append(i)
        pools = [idxs for idxs in by_var.values() if len(idxs) >= 2]
        if not pools:
            raise MutationError("no variable has two writes to swap")
        i, j = rng.sample(rng.choice(sorted(pools)), 2)
        pi, ki, vi, a = rows[i]
        pj, kj, vj, b = rows[j]
        rows[i] = (pi, ki, vi, b)
        rows[j] = (pj, kj, vj, a)
    elif kind == "reorder-reads":
        by_proc: dict[str, list[int]] = {}
        for i, (p, k, _var, _v) in enumerate(rows):
            if k == READ:
                by_proc.setdefault(p, []).append(i)
        pools = [idxs for idxs in by_proc.values() if len(idxs) >= 2]
        if not pools:
            raise MutationError("no process has two reads to reorder")
        i, j = sorted(rng.sample(rng.choice(sorted(pools)), 2))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "retarget-read":
        reads = [i for i, (_, k, _var, _v) in enumerate(rows) if k == READ]
        if not reads:
            raise MutationError("trace has no reads")
        i = rng.choice(reads)
        p, k, var, val = rows[i]
        written = sorted({v for (_, kk, vv, v) in rows if kk == WRITE and vv == var})
        others = [v for v in written if v != val]
        unused = (max(written, default=0)) + 1 + rng.randrange(3)
        if others and rng.random() < 0.75:
            new = rng.choice(others)
        else:
            new = unused
        rows[i] = (p, k, var, new)
    else:
        raise MutationError(f"unknown mutation {kind!r}")
    return Trace.build(rows)
