import random

import pytest

from pramcheck.model import Operation, Trace, build_read_mapping, visible
from pramcheck.opgraph import PO, WPW, WR, Cycle, OperationGraph, add_rule_a_b, build_dag_schedule
from testutil import T, random_trace_rows, reference_dag_schedule


def _write_ops(n):
    return [Operation(i, "W", f"q{i}", "x", i) for i in range(n)]


def _random_graph(rng, n, density):
    g = OperationGraph(_write_ops(n))
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
    g = OperationGraph(_write_ops(3))
    assert g.add_edge(0, 1, PO)
    assert not g.add_edge(0, 1, WPW)  # second add is a no-op
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert list(g.edges()) == [(0, 1, PO)]


def test_closure_matches_dfs_oracle():
    """`reaches` equals plain DFS reachability, made reflexive."""
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randrange(2, 15)
        g, edges = _random_graph(rng, n, density=rng.choice([0.05, 0.15, 0.4]))
        for src in range(n):
            expect = _dfs_reachable(edges, n, src) | {src}
            got = {v for v in range(n) if g.reaches(src, v)}
            assert got == expect, (trial, src)


def test_reaches_is_reflexive_closure():
    g = OperationGraph(_write_ops(3))
    g.add_edge(0, 1, PO)
    for src in range(3):
        expect = _dfs_reachable({(0, 1)}, 3, src) | {src}
        assert {v for v in range(3) if g.reaches(src, v)} == expect
    assert g.reaches(0, 0) and g.reaches(0, 1) and not g.reaches(1, 0)


def test_downset_includes_self_and_ancestors():
    g = OperationGraph(_write_ops(4))
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
    g = OperationGraph(_write_ops(4))
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
    g = OperationGraph(_write_ops(3))
    g.add_edge(0, 1, PO)
    g.add_edge(1, 2, PO)
    assert g.find_cycle() is None


def test_shortest_cycle_through_edge():
    g = OperationGraph(_write_ops(5))
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
    g = OperationGraph(_write_ops(5))
    g.add_edge(3, 1, PO)
    g.add_edge(3, 0, PO)
    assert g.topo_sort() == [2, 3, 0, 1, 4]


def test_topo_sort_orders_ready_nodes_by_block_then_index():
    g = OperationGraph(_write_ops(5))
    g.add_edge(0, 1, PO)
    g.add_edge(3, 2, PO)
    # 3 and 2 form block 0; nodes missing from the mapping are in block 0 too
    assert g.topo_sort({0: 1, 1: 1, 2: 0, 3: 0, 4: 2}) == [3, 2, 0, 1, 4]
    assert g.topo_sort({0: 1, 1: 1, 4: 2}) == [3, 2, 0, 1, 4]
    assert g.topo_sort({4: 0, 3: 1, 2: 1}) == [0, 1, 4, 3, 2]


def test_dag_schedule_equals_the_per_block_reference_on_random_dags():
    rng = random.Random(7)
    for _ in range(300):
        processes, ops = rng.randint(1, 4), rng.randint(1, 30)
        rows = random_trace_rows(rng, processes=processes, variables=2, ops=ops, value_pool=range(4))
        trace = Trace.build(rows)
        proj = visible(trace, rng.choice(rows)[0])
        g = OperationGraph(proj.ops)
        add_rule_a_b(g, proj, {})
        # extra edges follow a random interleaving of the processes, so index
        # order is no topological order
        lanes = [[o.index for o in seq] for seq in proj.by_process.values()]
        order = []
        while lanes:
            lane = rng.choice(lanes)
            order.append(lane.pop(0))
            lanes = [lane for lane in lanes if lane]
        for i, u in enumerate(order):
            for v in order[i + 1 :]:
                if rng.random() < 0.15:
                    g.add_edge(u, v, WPW)
        assert build_dag_schedule(g, proj).seq == reference_dag_schedule(g, proj).seq


def test_dag_schedule_sorts_unread_operations_with_a_downward_edge():
    t = T("""
        p1 W x 1
        p1 R x 1
        p2 W y 1
        p2 W y 2
        p3 W y 3
    """)
    proj = visible(t, "p1")
    g = OperationGraph(proj.ops)
    add_rule_a_b(g, proj, build_read_mapping(t, "p1"))
    g.add_edge(4, 2, WPW)  # among the operations no read reaches, against index order
    g.add_edge(0, 3, WPW)  # from the read's block into them
    assert build_dag_schedule(g, proj).seq == reference_dag_schedule(g, proj).seq == (0, 1, 4, 2, 3)


def test_topo_sort_raises_on_cycle():
    g = OperationGraph(_write_ops(3))
    g.add_edge(0, 1, PO)
    g.add_edge(1, 0, WPW)
    with pytest.raises(RuntimeError):
        g.topo_sort()


def test_reachability_queries_require_close():
    """Queries no longer require `close()`: it is a no-op that changes no answer."""
    g = OperationGraph(_write_ops(2))
    g.add_edge(0, 1, PO)
    before = [[g.reaches(s, d) for d in range(2)] for s in range(2)]
    assert before == [[True, True], [False, True]]
    g.close()
    assert [[g.reaches(s, d) for d in range(2)] for s in range(2)] == before


def test_incremental_close_absorbs_new_edges():
    """`reaches` follows each edge as soon as it is added."""
    g = OperationGraph(_write_ops(3))
    assert not g.reaches(0, 1)  # edge-less nodes have no tables yet
    g.add_edge(0, 1, PO)
    assert g.reaches(0, 1) and not g.reaches(0, 2)
    g.add_edge(1, 2, WPW)
    assert g.reaches(0, 2) and not g.reaches(2, 0)


def test_rule_a_b_seeding():
    t = T("""
        p1 W x 1
        p1 W y 2
        p2 R x 1
        p2 R y 2
    """)
    proj = visible(t, "p2")
    g = OperationGraph(proj.ops)
    add_rule_a_b(g, proj, build_read_mapping(t, "p2"))
    assert set(g.edges()) == {
        (0, 1, PO),  # p1's writes in order
        (2, 3, PO),  # p2's reads in order
        (0, 2, WR),
        (1, 3, WR),
    }


def test_cycle_pretty_names_operations():
    ops = _write_ops(2)
    g = OperationGraph(ops)
    g.add_edge(0, 1, PO)
    g.add_edge(1, 0, WPW)
    c = g.find_cycle()
    text = c.pretty(ops)
    assert "Wx0@q0#0" in text and "-PO->" in text
