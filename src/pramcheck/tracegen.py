"""Seeded workload generator and trace mutations.

``gen_pram_trace`` simulates replicas that exchange writes through one
append-only log per writer: a write goes to the local replica immediately and
onto its writer's log; each replica counts how many writes it has taken from
every other writer's log, so writer q's log and reader p's count are the FIFO
channel from q to p.  Before a process issues an operation, it takes a random
number of writes, each the next one of a random writer's log.  Reads return
the local replica's current value, so the issue order itself is
PRAM-consistent from every focus by construction.

``mutate_trace`` plants violations (or near-misses) for negative testing.
"""

from __future__ import annotations

import bisect
import random

from .model import INT64_MAX, INT64_MIN, READ, WRITE, MutationError, Trace

MUTATIONS = ("swap-write-values", "reorder-reads", "retarget-read")


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
    pool so repeats are overwhelmingly likely.  Processes are p1, p2, ...;
    variables are x, y, z, then v4, v5, ...
    """
    if processes < 1 or variables < 1 or ops < 0:
        raise ValueError("processes, variables must be >= 1 and ops >= 0")
    if policy not in ("unique", "duplicate"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed)
    logs: dict[int, list[tuple[str, int]]] = {}  # writer -> its writes, in order
    writers: list[int] = []  # the keys of `logs`, ascending: the order of `ready`
    # process -> (name, writer -> writes taken from its log, local replica)
    state: dict[int, tuple[str, dict[int, int], dict[str, int]]] = {}
    counters: dict[str, int] = {}
    rows: list[tuple[str, str, str, int]] = []
    while len(rows) < ops:
        p = rng.randrange(processes)
        if p not in state:
            state[p] = (f"p{p + 1}", {}, {})
        proc, got, local = state[p]
        # take a random prefix of the other writers' logs, in each one's order
        ready = [q for q in writers if q != p and got.get(q, 0) < len(logs[q])]
        while ready and rng.random() >= 0.4:
            k = rng.randrange(len(ready))
            q = ready[k]
            n = got[q] = got.get(q, 0) + 1
            var, val = logs[q][n - 1]
            local[var] = val
            if n == len(logs[q]):
                del ready[k]
        if local and rng.random() < read_fraction:
            var = rng.choice(sorted(local))
            rows.append((proc, READ, var, local[var]))
        else:
            i = rng.randrange(variables)
            var = "xyz"[i] if i < 3 else f"v{i + 1}"
            if policy == "unique":
                val = counters[var] = counters.get(var, 0) + 1
            else:
                val = rng.randint(1, 3)
            local[var] = val
            if p not in logs:
                logs[p] = []
                bisect.insort(writers, p)
            logs[p].append((var, val))
            rows.append((proc, WRITE, var, val))
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
        pools = [idxs for idxs in trace.writes_on.values() if len(idxs) >= 2]
        if not pools:
            raise MutationError("no variable has two writes to swap")
        i, j = rng.sample(rng.choice(sorted(pools)), 2)
        pi, ki, vi, a = rows[i]
        pj, kj, vj, b = rows[j]
        rows[i] = (pi, ki, vi, b)
        rows[j] = (pj, kj, vj, a)
    elif kind == "reorder-reads":
        pools = [[o.index for o in seq if o.kind == READ] for seq in trace.processes.values()]
        pools = [idxs for idxs in pools if len(idxs) >= 2]
        if not pools:
            raise MutationError("no process has two reads to reorder")
        i, j = sorted(rng.sample(rng.choice(sorted(pools)), 2))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "retarget-read":
        reads = [o.index for o in trace.ops if o.kind == READ]
        if not reads:
            raise MutationError("trace has no reads")
        i = rng.choice(reads)
        p, k, var, val = rows[i]
        written = sorted(v for (wvar, v) in trace.writers if wvar == var)
        others = [v for v in written if v != val]
        unused = max(written, default=0) + 1 + rng.randrange(3)
        if unused > INT64_MAX:  # stay an int64: the least value no write assigns
            unused = next(v for v in range(INT64_MIN, INT64_MAX) if v not in written)
        if others and rng.random() < 0.75:
            new = rng.choice(others)
        else:
            new = unused
        rows[i] = (p, k, var, new)
    else:
        raise MutationError(f"unknown mutation {kind!r}")
    return Trace.build(rows)
