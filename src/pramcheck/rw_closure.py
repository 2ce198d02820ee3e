"""Whole-graph verifier: add overwrite-precedence edges until none is forced.

The decision rule for a focus process: build the precedence graph over its
visible operations (program order + dictating writes), then repeatedly add the
forced write order - whenever some other write w' on the same variable
precedes a read r, w' must precede r's dictating write - until nothing new
appears.  The trace is consistent from this focus iff the result is acyclic;
an acyclic result converts into a legal witness schedule, a cycle is the
counterexample: the program-order cycle of the first focus read that precedes
its own dictating write, with read-centric's reason, else `find_cycle`'s.
"""

from __future__ import annotations

from functools import partial

from .legality import Verdict
from .model import Trace, UnmatchedReadError, build_read_mapping, visible
from .opgraph import WPW, OperationGraph, add_rule_a_b, build_dag_schedule, misordered_read_cycle

ALGORITHM = "rw-closure"


def verify_rw_closure(trace: Trace, focus: str) -> Verdict:
    """Decide consistency from `focus`'s viewpoint by rounds of the overwrite rule.

    Raises DuplicateValueError when a focus read has several candidate writes
    (see `build_read_mapping`).  The verdict carries the saturated graph, for
    dumps and property checks (edge-less when a read has no dictating write).
    """
    proj = visible(trace, focus)
    try:
        mapping = build_read_mapping(trace, focus)
    except UnmatchedReadError as exc:
        return Verdict(False, focus, ALGORITHM, reason=str(exc), graph=OperationGraph())
    graph = add_rule_a_b(OperationGraph(), proj, mapping)
    focus_reads = proj.focus_reads()

    while True:  # each round answers from the graph as it stood at its start
        forced, above_r = [], set()
        for r in focus_reads:  # program order: r's downset holds every earlier read's
            w = mapping[r.index]
            above_r |= graph.downset(r.index, above_r)
            above_w = graph.downset(w)
            writes = trace.writes_on[r.variable]
            forced += ((o, w) for o in writes if o in above_r and o not in above_w)
        added = [e for e in forced if graph.add_edge(*e, WPW)]
        if not added:
            break

    cycle = graph.find_cycle()
    if cycle is not None:
        misordered = misordered_read_cycle(focus_reads, mapping, trace.ops)
        reason = "precedence cycle" if misordered is None else "read precedes its dictating write"
        cycle = misordered or cycle
        return Verdict(False, focus, ALGORITHM, cycle=cycle, reason=reason, graph=graph)

    witness = partial(build_dag_schedule, graph, proj)
    return Verdict(True, focus, ALGORITHM, witness=witness, graph=graph)
