"""Precedence graphs over visible operations.

Nodes are operation indices; edges are tagged with why they exist: "PO"
(program order), "WR" (a write precedes the reads it dictates), or "WpW" (an
overwritten write must precede the overwriting one).  Both polynomial verifiers
build their graph here; `downset` and `build_dag_schedule` walk the edges alone.
A node gets its tables on its first stored edge; a node without them is
edge-less.  Read-centric stores only the edges of the operations its reads
settle; `add_rule_a_b` seeds every `PO` and `WR` edge, for rw-closure or on
the first read of a read-centric verdict's graph.
Only rw-closure's rule loop needs `close()`, which keeps transitive closure as
bitset rows (Python ints), one strict-reachability bit per node pair; `reaches`
is reflexive on top of that.
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
    """A tagged precedence graph with on-demand transitive closure."""

    def __init__(self, ops: Iterable[Operation]):
        self.nodes: list[int] = sorted(o.index for o in ops)
        self.succs: dict[int, dict[int, str]] = {}  # node -> successor -> tag
        self.preds: dict[int, set[int]] = {}
        self._rows: list[int] | None = None  # strict reachability, bit j of _rows[i]
        self.pos: dict[int, int] = {}  # node -> its bit position; filled by close()

    # -- construction -------------------------------------------------------

    def add_edge(self, src: int, dst: int, tag: str) -> bool:
        """Add src -> dst; returns False (and keeps the old tag) if already present.

        Reachability queries keep answering from the last close() snapshot;
        callers batching edge additions re-close when the batch is done.
        """
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

    # -- transitive closure -------------------------------------------------

    def close(self) -> None:
        """Recompute strict transitive closure from the current edge set."""
        n = len(self.nodes)
        self.pos = {v: i for i, v in enumerate(self.nodes)}
        rows = [0] * n
        for src, out in self.succs.items():
            i = self.pos[src]
            for dst in out:
                rows[i] |= 1 << self.pos[dst]
        for k in range(n):
            if not rows[k]:
                continue
            bit = 1 << k
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rows[k]
        self._rows = rows

    def _require_closed(self) -> list[int]:
        if self._rows is None:
            raise RuntimeError("call close() before reachability queries")
        return self._rows

    def strictly_reaches(self, src: int, dst: int) -> bool:
        rows = self._require_closed()
        return bool(rows[self.pos[src]] >> self.pos[dst] & 1)

    def reaches(self, src: int, dst: int) -> bool:
        """Reflexive reachability: every operation reaches itself."""
        return src == dst or self.strictly_reaches(src, dst)

    def cyclic(self) -> bool:
        rows = self._require_closed()
        return any(rows[i] >> i & 1 for i in range(len(self.nodes)))

    # -- orderings and cycles ------------------------------------------------

    def downset(self, node: int, exclude: AbstractSet[int] = frozenset()) -> set[int]:
        """`node` plus every operation reaching it by a path outside `exclude`.

        Needs no close().  When `exclude` is down-closed (a union of downsets)
        and lacks `node`, this is the downset of `node` minus `exclude`.
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
        """Some directed cycle over the sparse edges, or None if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self.nodes}
        for root in sorted(self.succs):  # a node without tables is on no cycle
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, Iterator[int]]] = [(root, iter(sorted(self.succs[root])))]
            color[root] = GRAY
            trail = [root]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GRAY:
                        i = trail.index(nxt)
                        loop = trail[i:] + [nxt]
                        tags = tuple(self.succs[a][b] for a, b in zip(loop, loop[1:]))
                        return Cycle(nodes=tuple(loop), tags=tags)
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(sorted(self.succs[nxt]))))
                        trail.append(nxt)
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
                    trail.pop()
        return None

    def shortest_cycle_through(self, src: int, dst: int) -> Cycle | None:
        """Shortest cycle using the existing edge src -> dst, via BFS dst => src."""
        if not self.has_edge(src, dst):
            return None
        if src == dst:
            return Cycle(nodes=(src, src), tags=(self.succs[src][dst],))
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
        path = list(reversed(back))  # dst ... src
        loop = [src] + path
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
