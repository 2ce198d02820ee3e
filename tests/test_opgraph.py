import random

import pytest

from pramcheck.model import Operation, Trace, build_read_mapping, visible
from pramcheck.opgraph import PO, WPW, WR, Cycle, OperationGraph, add_rule_a_b, build_dag_schedule
from testutil import (
    T,
    random_trace_rows,
    reference_dag_schedule,
    reference_find_cycle,
    unread_out_edges_off_po,
)


def _write_ops(n):
    return [Operation(i, "W", f"q{i}", "x", i) for i in range(n)]


def _random_graph(rng, n, density):
    g = OperationGraph()
    edges = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                g.add_edge(u, v, WPW)
                edges.add((u, v))
    return g, edges


def _dfs_reachable(edges, n, src):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = set()
    stack = [src]
    while stack:
        u = stack.pop()
        for v in adj.get(u, []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def test_edges_and_duplicates():
    g = OperationGraph()
    assert g.add_edge(0, 1, PO)
    assert not g.add_edge(0, 1, WPW)  # second add is a no-op
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert list(g.edges()) == [(0, 1, PO)]


def test_closure_matches_dfs_oracle():
    """Membership in `downset` equals plain DFS reachability, made reflexive."""
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randrange(2, 15)
        g, edges = _random_graph(rng, n, density=rng.choice([0.05, 0.15, 0.4]))
        for src in range(n):
            expect = _dfs_reachable(edges, n, src) | {src}
            got = {v for v in range(n) if src in g.downset(v)}
            assert got == expect, (trial, src)


def test_reaches_is_reflexive_closure():
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    for src in range(3):
        expect = _dfs_reachable({(0, 1)}, 3, src) | {src}
        assert {v for v in range(3) if src in g.downset(v)} == expect
    assert 0 in g.downset(0) and 0 in g.downset(1) and 1 not in g.downset(0)


def test_downset_includes_self_and_ancestors():
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    g.add_edge(1, 2, WPW)
    assert g.downset(2) == {0, 1, 2}
    assert g.downset(3) == {3}


def _dfs_ancestors(edges, n, dst):
    return _dfs_reachable({(v, u) for u, v in edges}, n, dst)


def test_sparse_downset_matches_dfs_ancestors_without_close():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randrange(2, 15)
        g, edges = _random_graph(rng, n, density=rng.choice([0.05, 0.15, 0.4]))
        for v in range(n):
            assert g.downset(v) == _dfs_ancestors(edges, n, v) | {v}, (trial, v)


def test_downset_exclude_subtracts_a_union_of_downsets():
    rng = random.Random(12)
    for trial in range(60):
        n = rng.randrange(2, 15)
        g, _ = _random_graph(rng, n, density=rng.choice([0.05, 0.15, 0.4]))
        excluded = set()
        for u in rng.sample(range(n), rng.randrange(n)):
            excluded |= g.downset(u)
        for v in range(n):
            if v not in excluded:
                assert g.downset(v, excluded) == g.downset(v) - excluded, (trial, v)


def test_cyclic_and_find_cycle():
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    g.add_edge(1, 2, WPW)
    g.add_edge(2, 0, WPW)
    g.add_edge(2, 3, WR)
    c = g.find_cycle()
    assert c is not None
    assert c.nodes[0] == c.nodes[-1]
    assert len(c.tags) == len(c.nodes) - 1
    for (u, v), tag in zip(zip(c.nodes, c.nodes[1:]), c.tags):
        assert g.has_edge(u, v) and (u, v, tag) in set(g.edges())


def test_acyclic_has_no_cycle():
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    g.add_edge(1, 2, PO)
    assert g.find_cycle() is None


def test_find_cycle_makes_one_shortest_cycle_call_per_cyclic_graph(monkeypatch):
    calls = []
    through = OperationGraph.shortest_cycle_through

    def counting(self, src, dst):
        calls.append((src, dst))
        return through(self, src, dst)

    monkeypatch.setattr(OperationGraph, "shortest_cycle_through", counting)
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for trial in range(300):
        n = rng.randrange(1, 12)
        g, edges = _random_graph(rng, n, density=rng.choice([0.05, 0.1, 0.2, 0.4]))
        cyclic = any(u in _dfs_reachable(edges, n, u) for u in range(n))
        calls.clear()
        c = g.find_cycle()
        assert (c is not None) is cyclic, trial
        assert len(calls) == cyclic, trial
        if cyclic:
            assert (c.nodes[0], c.nodes[1]) == calls[0]
            assert all((u, v, tag) in set(g.edges()) for u, v, tag in zip(c.nodes, c.nodes[1:], c.tags))
        seen[cyclic] += 1
    assert min(seen.values()) > 50, seen


def test_find_cycle_walks_back_from_the_least_leftover_node():
    """Node 0 lies downstream of two cycles: 2 -> 3 -> 4 -> 5 -> 2, with the
    shortcut 2 -> 9 -> 5, and 7 <-> 8.  The Kahn pass drains 6 and 1, which
    feeds 0 and 2.  The walk back takes the least leftover predecessor at
    each step, 0, 5, 4, 3, 2, and meets 5 again: 5 -> 2 closes it, and the
    cycle is the shortest through that edge, not the walk's own loop."""
    g = OperationGraph()
    for u, v, tag in [
        (6, 1, PO), (1, 0, PO), (1, 2, PO),
        (2, 3, PO), (3, 4, PO), (4, 5, PO), (5, 2, WPW), (2, 9, WR), (9, 5, WPW),
        (7, 8, PO), (8, 7, WPW), (5, 0, WR), (7, 0, WR),
    ]:
        g.add_edge(u, v, tag)
    assert g.find_cycle() == Cycle(nodes=(5, 2, 9, 5), tags=(WPW, WR, WPW))


def test_shortest_cycle_through_edge():
    g = OperationGraph()
    # two cycles through (0 -> 1): a long one via 2,3 and a short one via 4
    g.add_edge(0, 1, WPW)
    g.add_edge(1, 2, PO)
    g.add_edge(2, 3, PO)
    g.add_edge(3, 0, WPW)
    g.add_edge(1, 4, PO)
    g.add_edge(4, 0, WPW)
    c = g.shortest_cycle_through(0, 1)
    assert c.nodes == (0, 1, 4, 0)
    g.add_edge(2, 2, WPW)
    assert g.shortest_cycle_through(2, 2) == Cycle(nodes=(2, 2), tags=(WPW,))
    assert g.shortest_cycle_through(1, 0) is None  # no such edge


def test_topo_sort_breaks_ties_by_index():
    g = OperationGraph()
    g.add_edge(3, 1, PO)
    g.add_edge(3, 0, PO)
    assert g.topo_sort(dict.fromkeys(range(5), 0)) == [2, 3, 0, 1, 4]


def test_topo_sort_orders_ready_nodes_by_block_then_index():
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    g.add_edge(3, 2, PO)
    # 3 and 2 form block 0
    assert g.topo_sort({0: 1, 1: 1, 2: 0, 3: 0, 4: 2}) == [3, 2, 0, 1, 4]
    assert g.topo_sort({0: 0, 1: 0, 4: 0, 3: 1, 2: 1}) == [0, 1, 4, 3, 2]
    # only the keys are sorted: {2, 3} is down-closed
    assert g.topo_sort({3: 0, 2: 0}) == [3, 2]


def test_dag_schedule_equals_the_per_block_reference_on_random_dags():
    rng = random.Random(7)
    for _ in range(300):
        processes, ops = rng.randint(1, 4), rng.randint(1, 30)
        rows = random_trace_rows(rng, processes=processes, variables=2, ops=ops, value_pool=range(4))
        trace = Trace.build(rows)
        proj = visible(trace, rng.choice(rows)[0])
        reads = [r.index for r in proj.focus_reads()]
        g = OperationGraph()
        add_rule_a_b(g, proj, {})
        # extra edges follow a random interleaving of the processes, so index
        # order is no topological order; as in the verifiers' graphs, each
        # ends at an operation that already reaches a read
        lanes = [[o.index for o in seq] for seq in proj.by_process.values()]
        order = []
        while lanes:
            lane = rng.choice(lanes)
            order.append(lane.pop(0))
            lanes = [lane for lane in lanes if lane]
        for i, u in enumerate(order):
            for v in order[i + 1 :]:
                if rng.random() < 0.15 and any(v in g.downset(r) for r in reads):
                    g.add_edge(u, v, WPW)
        assert unread_out_edges_off_po(g, proj) == []
        assert build_dag_schedule(g, proj) == reference_dag_schedule(g, proj)


def test_topo_sort_leaves_out_the_nodes_a_cycle_reaches():
    """On a cyclic graph `topo_sort` returns, in topological order, exactly
    the nodes that no node on a cycle reaches: 0 <-> 1 reaches 2, not 3."""
    g = OperationGraph()
    for u, v in [(0, 1), (1, 0), (1, 2), (3, 2), (3, 4)]:
        g.add_edge(u, v, PO)
    assert g.topo_sort(dict.fromkeys(range(6), 0)) == [3, 4, 5]
    rng = random.Random(5)
    cyclic = 0
    for trial in range(300):
        n = rng.randrange(1, 12)
        g, edges = _random_graph(rng, n, density=rng.choice([0.05, 0.1, 0.2, 0.4]))
        reach = {u: _dfs_reachable(edges, n, u) for u in range(n)}
        on_cycle = [u for u in range(n) if u in reach[u]]
        after = set(on_cycle).union(*(reach[u] for u in on_cycle))
        order = g.topo_sort(dict.fromkeys(range(n), 0))
        assert set(order) == set(range(n)) - after and len(order) == len(set(order)), trial
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in edges if v in pos), trial
        cyclic += bool(on_cycle)
    assert 50 < cyclic < 250, cyclic


def test_build_dag_schedule_raises_on_a_cyclic_graph():
    t = T("p1 W x 1\np1 R x 1")
    proj = visible(t, "p1")
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    g.add_edge(1, 0, WPW)
    with pytest.raises(RuntimeError, match="met a cycle"):
        build_dag_schedule(g, proj)


def test_find_cycle_equals_the_plain_kahn_reference():
    """`find_cycle` on the leftover of `topo_sort` equals the same walk back
    over a plain Kahn pass's leftover, on random cyclic and acyclic graphs."""
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randrange(1, 14)
        g, _ = _random_graph(rng, n, density=rng.choice([0.03, 0.08, 0.15, 0.3]))
        c = g.find_cycle()
        assert c == reference_find_cycle(g), trial
        seen[c is not None] += 1
    assert min(seen.values()) > 100, seen


def test_reachability_queries_require_close():
    """Queries no longer require `close()`: it is a no-op that changes no answer."""
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    before = [[s in g.downset(d) for d in range(2)] for s in range(2)]
    assert before == [[True, True], [False, True]]
    g.close()
    assert [[s in g.downset(d) for d in range(2)] for s in range(2)] == before


def test_incremental_close_absorbs_new_edges():
    """`downset` follows each edge as soon as it is added."""
    g = OperationGraph()
    assert 0 not in g.downset(1)  # edge-less nodes have no tables yet
    g.add_edge(0, 1, PO)
    assert 0 in g.downset(1) and 0 not in g.downset(2)
    g.add_edge(1, 2, WPW)
    assert 0 in g.downset(2) and 2 not in g.downset(0)


def test_rule_a_b_seeding():
    t = T("""
        p1 W x 1
        p1 W y 2
        p2 R x 1
        p2 R y 2
    """)
    proj = visible(t, "p2")
    g = OperationGraph()
    add_rule_a_b(g, proj, build_read_mapping(t, "p2"))
    assert set(g.edges()) == {
        (0, 1, PO),  # p1's writes in order
        (2, 3, PO),  # p2's reads in order
        (0, 2, WR),
        (1, 3, WR),
    }


def test_cycle_pretty_names_operations():
    ops = _write_ops(2)
    g = OperationGraph()
    g.add_edge(0, 1, PO)
    g.add_edge(1, 0, WPW)
    c = g.find_cycle()
    text = c.pretty(ops)
    assert "Wx0@q0#0" in text and "-PO->" in text
