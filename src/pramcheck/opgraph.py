"""Precedence graphs over visible operations.

Nodes are operation indices; edges are tagged with why they exist: "PO"
(program order), "WR" (a write precedes the reads it dictates), or "WpW" (an
overwritten write must precede the overwriting one).  Both polynomial verifiers
build their graph here; `downset` and `build_dag_schedule` walk the edges alone.
A node gets its tables on its first stored edge; a node without them is
edge-less.  Read-centric stores only the edges of the operations its reads
settle; `add_rule_a_b` seeds every `PO` and `WR` edge, for rw-closure or on
the first read of a read-centric verdict's graph.  The graph keeps no
closure: `reaches` walks `downset`, so it answers on any graph at any time.
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
    succs, preds = graph.succs, graph.preds
    for v in set(graph.nodes) - succs.keys():  # tables for the nodes that have none yet
        succs[v], preds[v] = {}, set()
    for seq in proj.by_process.values():  # add_edge inlined: it runs once per visible op
        idx = [o.index for o in seq]
        for a, b in zip(idx, idx[1:]):
            succs[a].setdefault(b, PO)
            preds[b].add(a)
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


class OperationGraph:
    """A tagged precedence graph over sparse successor and predecessor tables."""

    def __init__(self, ops: Iterable[Operation]):
        self.nodes: list[int] = sorted(o.index for o in ops)
        self.succs: dict[int, dict[int, str]] = {}  # node -> successor -> tag
        self.preds: dict[int, set[int]] = {}

    # -- construction -------------------------------------------------------

    def add_edge(self, src: int, dst: int, tag: str) -> bool:
        """Add src -> dst; returns False (and keeps the old tag) if already present."""
        succs, preds = self.succs, self.preds
        for v in (src, dst):
            if v not in succs:
                succs[v], preds[v] = {}, set()
        if dst in succs[src]:
            return False
        succs[src][dst] = tag
        preds[dst].add(src)
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

    def reaches(self, src: int, dst: int) -> bool:
        """Reflexive reachability: every operation reaches itself."""
        return src in self.downset(dst)

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

    def topo_sort(
        self, block: Mapping[int, int] | None = None, nodes: Iterable[int] | None = None
    ) -> list[int]:
        """Topological order of `nodes` (default: all), in one Kahn pass.

        Each step takes the ready node v of least (block[v], v); nodes
        missing from `block` are in block 0.  `nodes` must be down-closed:
        each node's predecessors are among them.  Callers sort acyclic
        graphs only; a cycle raises RuntimeError.
        """
        rank = (block or {}).get
        indeg = {v: len(self.preds.get(v, ())) for v in (self.nodes if nodes is None else nodes)}
        ready = [(rank(v, 0), v) for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            v = heapq.heappop(ready)[1]
            out.append(v)
            for s in self.succs.get(v, ()):
                if s in indeg:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, (rank(s, 0), s))
        if len(out) != len(indeg):
            raise RuntimeError("topo_sort met a cycle")
        return out

    def find_cycle(self) -> Cycle | None:
        """Some directed cycle over the sparse edges, or None if acyclic.

        A Kahn pass that drains every node proves the graph acyclic; only a
        graph it leaves undrained gets the depth-first search, whose roots and
        successors go in index order, so the cycle it returns is fixed.
        """
        indeg = {v: len(p) for v, p in self.preds.items()}
        drained = [v for v, d in indeg.items() if not d]
        for v in drained:  # grows while it is walked
            for s in self.succs[v]:
                indeg[s] -= 1
                if not indeg[s]:
                    drained.append(s)
        if len(drained) == len(indeg):
            return None
        on_path: dict[int, bool] = {}  # visited node -> on the current path
        for root in sorted(self.succs):  # a node without tables is on no cycle
            if root in on_path:
                continue
            on_path[root] = True
            stack: list[tuple[int, Iterator[int]]] = [(root, iter(sorted(self.succs[root])))]
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if on_path.get(nxt):
                        trail = [v for v, _ in stack]
                        loop = trail[trail.index(nxt):] + [nxt]
                        tags = tuple(self.succs[a][b] for a, b in zip(loop, loop[1:]))
                        return Cycle(nodes=tuple(loop), tags=tags)
                    if nxt not in on_path:
                        on_path[nxt] = True
                        stack.append((nxt, iter(sorted(self.succs[nxt]))))
                        break
                else:
                    on_path[node] = False
                    stack.pop()
        return None

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
    earlier blocks; operations preceding no read form a final block.  Each
    block is a downset difference, so a node's predecessors lie in its own
    block or an earlier one, and one `topo_sort` keyed by (block, index) over
    the read blocks schedules them in turn, each in its lexicographically
    smallest topological order.  The final block follows in index order when
    its edges all run up in index, as in the verifiers' graphs (it carries
    only `PO` edges); otherwise the sort takes it too, last.
    """
    reads = proj.focus_reads()
    block: dict[int, int] = {}
    for b, r in enumerate(reads):
        block.update(dict.fromkeys(graph.downset(r.index, block.keys()), b))
    rest = [v for v in graph.nodes if v not in block]  # edges from rest stay in rest
    if any(s < v for v in rest for s in graph.succs.get(v, ())):
        return Schedule(graph.topo_sort({**dict.fromkeys(rest, len(reads)), **block}))
    return Schedule(graph.topo_sort(block, block.keys()) + rest)
