"""Precedence graphs over visible operations.

Nodes are operation indices; edges are tagged with why they exist: "PO"
(program order), "WR" (a write precedes the reads it dictates), or "WpW" (an
overwritten write must precede the overwriting one).  Both polynomial verifiers
build their graph here; `downset` and `build_dag_schedule` walk the edges alone.
Only rw-closure's rule loop needs `close()`, which keeps transitive closure as
bitset rows (Python ints), one strict-reachability bit per node pair; `reaches`
is reflexive on top of that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping

from .legality import Schedule
from .model import Operation, VisibleProjection

PO = "PO"
WR = "WR"
WPW = "WpW"


def add_rule_a_b(
    graph: "OperationGraph", proj: VisibleProjection, mapping: Mapping[int, int]
) -> None:
    """Seed a graph with the always-true precedences.

    Program order: consecutive visible operations of the same process.
    Write-to order: each dictating write before the read it dictates.
    """
    for seq in proj.by_process.values():
        for a, b in zip(seq, seq[1:]):
            graph.add_edge(a.index, b.index, PO)
    for read_idx, write_idx in mapping.items():
        graph.add_edge(write_idx, read_idx, WR)


@dataclass(frozen=True)
class Cycle:
    """A directed cycle: `nodes` starts and ends with the same operation index."""

    nodes: tuple[int, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        assert len(self.nodes) >= 2 and self.nodes[0] == self.nodes[-1]
        assert len(self.tags) == len(self.nodes) - 1

    def pretty(self, ops: Mapping[int, Operation]) -> str:
        parts = [ops[self.nodes[0]].pretty()]
        for node, tag in zip(self.nodes[1:], self.tags):
            parts.append(f"-{tag}-> {ops[node].pretty()}")
        return " ".join(parts)


class OperationGraph:
    """A tagged precedence graph with on-demand transitive closure."""

    def __init__(self, ops: Iterable[Operation]):
        self.ops: dict[int, Operation] = {o.index: o for o in ops}
        self.nodes: list[int] = sorted(self.ops)
        self.pos: dict[int, int] = {v: i for i, v in enumerate(self.nodes)}
        self.succs: dict[int, dict[int, str]] = {v: {} for v in self.nodes}
        self.preds: dict[int, set[int]] = {v: set() for v in self.nodes}
        self._rows: list[int] | None = None  # strict reachability, bit j of _rows[i]

    # -- construction -------------------------------------------------------

    def add_edge(self, src: int, dst: int, tag: str) -> bool:
        """Add src -> dst; returns False (and keeps the old tag) if already present.

        Reachability queries keep answering from the last close() snapshot;
        callers batching edge additions re-close when the batch is done.
        """
        if dst in self.succs[src]:
            return False
        self.succs[src][dst] = tag
        self.preds[dst].add(src)
        return True

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.succs[src]

    def edges(self) -> Iterator[tuple[int, int, str]]:
        for src in self.nodes:
            for dst in sorted(self.succs[src]):
                yield src, dst, self.succs[src][dst]

    # -- transitive closure -------------------------------------------------

    def close(self) -> None:
        """Recompute strict transitive closure from the current edge set."""
        n = len(self.nodes)
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
        stack = [node]
        while stack:
            for p in self.preds[stack.pop()]:
                if p not in out and p not in exclude:
                    out.add(p)
                    stack.append(p)
        return out

    def topo_sort(self, subset: Iterable[int] | None = None) -> list[int]:
        """Topological order of `subset` (default: all nodes), ties by lowest index.

        Only edges with both endpoints inside the subset constrain the order.
        Callers sort acyclic graphs only; a cycle raises RuntimeError.
        """
        members = set(self.nodes) if subset is None else set(subset)
        indeg = {
            v: sum(1 for p in self.preds[v] if p in members) for v in members
        }
        ready = [v for v in members if indeg[v] == 0]
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for s in self.succs[v]:
                if s in members:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, s)
        if len(out) != len(members):
            raise RuntimeError("topo_sort met a cycle")
        return out

    def find_cycle(self) -> Cycle | None:
        """Some directed cycle over the sparse edges, or None if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self.nodes}
        for root in self.nodes:
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

    Block per focus read, in program order: the read's downset minus
    everything already scheduled, topologically sorted (ties by lowest
    operation index); operations preceding no read form a final block.
    """
    out: list[int] = []
    done: set[int] = set()
    for r in proj.focus_reads():
        delta = graph.downset(r.index, done)
        out.extend(graph.topo_sort(delta))
        done.update(delta)
    rest = set(graph.nodes) - done
    out.extend(graph.topo_sort(rest))
    return Schedule(out)
