"""Precedence graphs over visible operations.

Nodes are operation indices; edges are tagged with why they exist: "PO"
(program order), "WR" (a write precedes the reads it dictates), or "WpW" (an
overwritten write must precede the overwriting one).  Both polynomial verifiers
build their graph here.  A graph is its edge tables alone, with no node list:
`add_edge`, their only writer, gives a node its tables on its first edge, and
a node without them is edge-less.  Read-centric stores only the edges of the
operations its reads settle; `add_rule_a_b` seeds every `PO` and `WR` edge,
for rw-closure or on the first read of a read-centric verdict's graph.  The
graph keeps no closure: `downset` walks the edges, so it answers on any graph
at any time.  Every cycle a verifier reports is built here, by
`misordered_read_cycle` or by `shortest_cycle_through`, which `find_cycle`
calls once on a cyclic graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from .legality import Schedule
from .model import Operation, VisibleProjection

PO = "PO"
WR = "WR"
WPW = "WpW"


def add_rule_a_b(
    graph: "OperationGraph", proj: VisibleProjection, mapping: Mapping[int, int]
) -> "OperationGraph":
    """Seed a graph with the always-true precedences; returns the graph.

    Program order: consecutive visible operations of the same process.
    Write-to order: each dictating write before the read it dictates.
    Edges already stored keep their tags.
    """
    for seq in proj.by_process.values():
        for a, b in zip(seq, seq[1:]):
            graph.add_edge(a.index, b.index, PO)
    for read_idx, write_idx in mapping.items():
        graph.add_edge(write_idx, read_idx, WR)
    return graph


@dataclass(frozen=True)
class Cycle:
    """A directed cycle: `nodes` starts and ends with the same operation index."""

    nodes: tuple[int, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        assert len(self.nodes) >= 2 and self.nodes[0] == self.nodes[-1]
        assert len(self.tags) == len(self.nodes) - 1

    def pretty(self, ops: Sequence[Operation] | Mapping[int, Operation]) -> str:
        parts = [ops[self.nodes[0]].pretty()]
        for node, tag in zip(self.nodes[1:], self.tags):
            parts.append(f"-{tag}-> {ops[node].pretty()}")
        return " ".join(parts)


def misordered_read_cycle(
    reads: Iterable[Operation], mapping: Mapping[int, int], ops: Sequence[Operation]
) -> Cycle | None:
    """The cycle of the first read that precedes its dictating write, or None.

    Such a read r and d = mapping[r] are one process's, whose section is one
    run of indices (see `Trace`): r -PO-> ... -PO-> d -WR-> r.
    """
    for r in reads:
        d = mapping[r.index]
        if d > r.index and ops[d].process == r.process:
            tags = (PO,) * (d - r.index) + (WR,)
            return Cycle(nodes=(*range(r.index, d + 1), r.index), tags=tags)
    return None


class OperationGraph:
    """A tagged precedence graph over sparse successor and predecessor tables."""

    def __init__(self):
        self.succs: dict[int, dict[int, str]] = {}  # node -> successor -> tag
        self.preds: dict[int, set[int]] = {}

    # -- construction -------------------------------------------------------

    def add_edge(self, src: int, dst: int, tag: str) -> bool:
        """Add src -> dst; returns False (and keeps the old tag) if already present."""
        succs, preds = self.succs, self.preds
        out = succs.get(src)
        if out is None:
            out = succs[src] = {}
            preds[src] = set()
        elif dst in out:
            return False
        ins = preds.get(dst)
        if ins is None:
            ins = preds[dst] = set()
            succs[dst] = {}
        out[dst] = tag
        ins.add(src)
        return True

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.succs.get(src, ())

    def edges(self) -> Iterator[tuple[int, int, str]]:
        for src in sorted(self.succs):
            for dst in sorted(self.succs[src]):
                yield src, dst, self.succs[src][dst]

    # -- reachability, orderings and cycles ------------------------------------

    def close(self) -> None:
        """A no-op, kept only because the benchmark's tracer (`bench/tracing.py`) wraps it."""

    def downset(self, node: int, exclude: AbstractSet[int] = frozenset()) -> set[int]:
        """`node` plus every operation reaching it by a path outside `exclude`.

        When `exclude` is down-closed (a union of downsets) and lacks `node`,
        this is the downset of `node` minus `exclude`.
        """
        out = {node}
        stack = [node] if node in self.preds else []  # a node's predecessors have tables
        preds = self.preds
        while stack:
            for p in preds[stack.pop()]:
                if p not in out and p not in exclude:
                    out.add(p)
                    stack.append(p)
        return out

    def topo_sort(self, block: Mapping[int, int]) -> list[int]:
        """Topological order of `block`'s keys, in one Kahn pass.

        Each step takes the ready node v of least (block[v], v).  The keys
        must be down-closed: each node's predecessors are among them.  On a
        cyclic graph the order is short: it leaves out every node on a cycle
        or after one.
        """
        indeg = {v: len(self.preds.get(v, ())) for v in block}
        ready = [(block[v], v) for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            v = heapq.heappop(ready)[1]
            out.append(v)
            for s in self.succs.get(v, ()):
                if s in indeg:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, (block[s], s))
        return out

    def find_cycle(self) -> Cycle | None:
        """A shortest cycle through one edge that lies on a cycle, or None if acyclic.

        The nodes `topo_sort` leaves out are those on or after a cycle; none
        means the graph is acyclic.  Else a walk back from the least leftover
        node, each step to its least leftover predecessor (every leftover node
        has one), repeats a node; the edge that closes the walk lies on a cycle.
        """
        left = self.preds.keys() - set(self.topo_sort(dict.fromkeys(self.preds, 0)))
        if not left:
            return None
        v = min(left)
        walked: set[int] = set()
        while v not in walked:
            walked.add(v)
            v, dst = min(p for p in self.preds[v] if p in left), v
        return self.shortest_cycle_through(v, dst)

    def shortest_cycle_through(self, src: int, dst: int) -> Cycle | None:
        """Shortest cycle using the existing edge src -> dst, via BFS dst => src."""
        if not self.has_edge(src, dst):
            return None
        parent: dict[int, int] = {dst: dst}
        frontier = [dst]
        while frontier and src not in parent:
            nxt: list[int] = []
            for v in frontier:
                for s in sorted(self.succs[v]):
                    if s not in parent:
                        parent[s] = v
                        nxt.append(s)
            frontier = nxt
        if src not in parent:
            return None
        back = [src]
        while back[-1] != dst:
            back.append(parent[back[-1]])
        loop = [src, *reversed(back)]  # src, then the path dst ... src
        tags = tuple(self.succs[a][b] for a, b in zip(loop, loop[1:]))
        return Cycle(nodes=tuple(loop), tags=tags)


def build_dag_schedule(graph: OperationGraph, proj: VisibleProjection) -> Schedule:
    """Turn an acyclic precedence graph into a legal schedule.

    Block per focus read, in program order: the read's downset minus the
    earlier blocks.  Each block is a downset difference, so a node's
    predecessors lie in its own block or an earlier one, and one `topo_sort`
    keyed by (block, index) schedules the blocks in turn, each in its
    lexicographically smallest topological order.  The operations preceding
    no read follow in index order: in the verifiers' graphs their only
    out-edges are `PO` edges, which run up in index.  A cyclic graph, whose
    sort comes out short, raises RuntimeError.
    """
    block: dict[int, int] = {}
    for b, r in enumerate(proj.focus_reads()):
        block.update(dict.fromkeys(graph.downset(r.index, block.keys()), b))
    order = graph.topo_sort(block)
    if len(order) != len(block):
        raise RuntimeError("topo_sort met a cycle")
    return Schedule(order + [o.index for o in proj.ops if o.index not in block])
