"""Whole-graph verifier: add overwrite-precedence edges until none is forced.

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
    """Decide consistency from `focus`'s viewpoint by rounds of the overwrite rule.

    Raises DuplicateValueError when a focus read has several candidate writes
    (see `build_read_mapping`).  The verdict carries the saturated graph, for
    dumps and property checks (edge-less when a read has no dictating write).
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
    while True:  # each round answers from the graph as it stood at its start
        forced, above_r = [], set()
        for r in focus_reads:  # program order: r's downset holds every earlier read's
            w = mapping[r.index]
            above_r |= graph.downset(r.index, above_r)
            above_w = graph.downset(w)
            forced += ((o, w) for o in writes_on[r.variable] if o in above_r and o not in above_w)
        added = [e for e in forced if graph.add_edge(*e, WPW)]
        if not added:
            break
        last_added = added[-1]

    cycle = graph.find_cycle()
    if cycle is not None:
        if last_added is not None:
            cycle = graph.shortest_cycle_through(*last_added) or cycle
        return Verdict(False, focus, ALGORITHM, cycle=cycle, reason="precedence cycle", graph=graph)

    witness = partial(build_dag_schedule, graph, proj)
    return Verdict(True, focus, ALGORITHM, witness=witness, graph=graph)
