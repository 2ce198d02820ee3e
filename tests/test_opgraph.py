import random

import pytest

from pramcheck.model import Operation, build_read_mapping, visible
from pramcheck.opgraph import PO, WPW, WR, OperationGraph, add_rule_a_b
from testutil import T


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
    """Strict reachability after close() equals plain DFS reachability."""
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randrange(2, 15)
        g, edges = _random_graph(rng, n, density=rng.choice([0.05, 0.15, 0.4]))
        g.close()
        for src in range(n):
            expect = _dfs_reachable(edges, n, src)
            got = {v for v in range(n) if g.strictly_reaches(src, v)}
            assert got == expect, (trial, src)


def test_reaches_is_reflexive_closure():
    g = OperationGraph(_write_ops(2))
    g.add_edge(0, 1, PO)
    g.close()
    assert g.reaches(0, 0) and not g.strictly_reaches(0, 0)
    assert g.reaches(0, 1) and g.strictly_reaches(0, 1)


def test_downset_includes_self_and_ancestors():
    g = OperationGraph(_write_ops(4))
    g.add_edge(0, 1, PO)
    g.add_edge(1, 2, WPW)
    g.close()
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
        with pytest.raises(RuntimeError):  # still never closed
            g.reaches(0, 1)


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
    g.close()
    assert g.cyclic()
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
    g.close()
    assert not g.cyclic()
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


def test_topo_sort_breaks_ties_by_index():
    g = OperationGraph(_write_ops(5))
    g.add_edge(3, 1, PO)
    g.add_edge(3, 0, PO)
    assert g.topo_sort() == [2, 3, 0, 1, 4]


def test_topo_sort_subset_ignores_outside_edges():
    g = OperationGraph(_write_ops(4))
    g.add_edge(0, 1, PO)
    g.add_edge(3, 2, PO)
    assert g.topo_sort({1, 2}) == [1, 2]


def test_topo_sort_raises_on_cycle():
    g = OperationGraph(_write_ops(3))
    g.add_edge(0, 1, PO)
    g.add_edge(1, 0, WPW)
    with pytest.raises(RuntimeError):
        g.topo_sort()


def test_reachability_queries_require_close():
    g = OperationGraph(_write_ops(2))
    g.add_edge(0, 1, PO)
    with pytest.raises(RuntimeError):
        g.reaches(0, 1)


def test_incremental_close_absorbs_new_edges():
    g = OperationGraph(_write_ops(3))
    g.add_edge(0, 1, PO)
    g.close()
    assert not g.reaches(0, 2)
    g.add_edge(1, 2, WPW)
    g.close()
    assert g.reaches(0, 2)


def test_rule_a_b_seeding():
    t = T("""
        p1 W x 1
        p1 W y 2
        p2 R x 1
        p2 R y 2
    """)
    proj = visible(t, "p2")
    g = OperationGraph(proj.ops)
    add_rule_a_b(g, proj, build_read_mapping(proj))
    assert set(g.edges()) == {
        (0, 1, PO),  # p1's writes in order
        (2, 3, PO),  # p2's reads in order
        (0, 2, WR),
        (1, 3, WR),
    }


def test_cycle_pretty_names_operations():
    g = OperationGraph(_write_ops(2))
    g.add_edge(0, 1, PO)
    g.add_edge(1, 0, WPW)
    c = g.find_cycle()
    text = c.pretty(g.ops)
    assert "Wx0@q0#0" in text and "-PO->" in text
