"""Whole-graph verifier: alternate transitive closure with overwrite-precedence edges.

The decision rule for a focus process: build the precedence graph over its
visible operations (program order + dictating writes), then repeatedly add the
forced write order - whenever some other write w' on the same variable
precedes a read r, w' must precede r's dictating write - until nothing new
appears.  The trace is consistent from this focus iff the result is acyclic;
an acyclic result converts into a legal witness schedule, a cycle is the
counterexample.
"""

from __future__ import annotations

from functools import partial

from .legality import Verdict
from .model import Trace, UnmatchedReadError, build_read_mapping, visible
from .opgraph import WPW, OperationGraph, add_rule_a_b, build_dag_schedule

ALGORITHM = "rw-closure"


def verify_rw_closure(trace: Trace, focus: str) -> Verdict:
    """Decide consistency from `focus`'s viewpoint by closure iteration.

    Raises DuplicateValueError when a focus read has several candidate
    writes (see `build_read_mapping`).
    The verdict carries the final graph, closure included - useful for dumps
    and for property checks on the saturated edge set (edge-less when a read
    has no dictating write).
    """
    proj = visible(trace, focus)
    graph = OperationGraph(proj.ops)
    try:
        mapping = build_read_mapping(trace, focus)
    except UnmatchedReadError as exc:
        return Verdict(False, focus, ALGORITHM, reason=str(exc), graph=graph)
    add_rule_a_b(graph, proj, mapping)

    writes_on: dict[str, list[int]] = {}
    for o in proj.ops:
        if o.is_write:
            writes_on.setdefault(o.variable, []).append(o.index)
    focus_reads = proj.focus_reads()

    last_added: tuple[int, int] | None = None
    while True:
        graph.close()
        added_any = False
        for r in focus_reads:
            w = mapping[r.index]
            for other in writes_on.get(r.variable, ()):
                if other == w:
                    continue
                if graph.strictly_reaches(other, r.index) and not graph.reaches(other, w):
                    if graph.add_edge(other, w, WPW):
                        added_any = True
                        last_added = (other, w)
        if not added_any:
            break

    if graph.cyclic():
        cycle = None
        if last_added is not None:
            cycle = graph.shortest_cycle_through(*last_added)
        if cycle is None:
            cycle = graph.find_cycle()
        return Verdict(
            consistent=False,
            focus=focus,
            algorithm=ALGORITHM,
            cycle=cycle,
            reason="precedence cycle",
            graph=graph,
        )

    witness = partial(build_dag_schedule, graph, proj)
    return Verdict(
        consistent=True, focus=focus, algorithm=ALGORITHM, witness=witness, graph=graph
    )
