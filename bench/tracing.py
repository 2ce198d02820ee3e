"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install()` replaces public functions at the names their callers look
them up (for example `pramcheck.cli.verify_read_centric` or
`OperationGraph.close`) with wrappers that time each call.  A span's self time
is its duration minus the time of the spans opened inside it.  Totals are
kept in memory per span name; nothing is patched outside `install()`.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

from pramcheck import cli, opgraph, oracle, read_centric
from pramcheck.oracle import OracleTimeout

After = Callable[[Any, tuple, float], None]


class Tracer:
    """Span totals, call counts and counters for the wrapped layer boundaries."""

    def __init__(self) -> None:
        self._open: list[list[float]] = []  # child seconds of each open span
        self.verdicts: list[tuple[Any, str, Any]] = []  # (trace, focus, result) per request
        self.reset()

    def reset(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.timeout_states = 0
        self.timeout_seconds = 0.0

    def _wrap(self, original: Callable, name: str, after: After | None) -> Callable:
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                self.seconds[name] += dt
                self.self_seconds[name] += dt - frame[0]
                self.calls[name] += 1
                if not ok:
                    self.counts[name + ".raised"] += 1
                elif after is not None:
                    after(result, args, dt)
                if self._open:  # counters are bookkeeping, not the caller's work
                    self._open[-1][0] += perf_counter() - t0

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Patch every traced boundary; restore the originals on exit.

        `auto` never routes the benchmark's requests to rw-closure, so only the
        names that the CLI, read-centric and the oracle look up are wrapped.
        """

        def verdict(result, args, _dt):
            self.verdicts.append((args[0], args[1], result))

        def oracle_done(result, args, dt):
            verdict(result, args, dt)
            if isinstance(result, OracleTimeout):
                self.counts["oracle.timeouts"] += 1
                self.timeout_states += result.states
                self.timeout_seconds += dt

        def closed(_result, args, _dt):
            self.counts["opgraph.close_nodes"] += len(args[0].nodes)

        def final_graph(graph, _args, _dt):
            for out in graph.succs.values():
                self.counts.update("opgraph.edges_" + tag for tag in out.values())

        Checker = read_centric.ReadCentricChecker
        spans = [
            (cli, "main", "cli", None),
            (cli, "parse_trace", "model.parse_trace", None),
            (cli, "classify", "model.classify", None),
            (read_centric, "classify", "model.classify", None),
            (read_centric, "visible", "model.visible", None),
            (oracle, "visible", "model.visible", None),
            (read_centric, "build_read_mapping", "model.build_read_mapping", None),
            (cli, "verify_read_centric", "read_centric.verify", verdict),
            (cli, "oracle_verify", "oracle.verify", oracle_done),
            (Checker, "update_reachability", "read_centric.update_reachability", None),
            (Checker, "topo_schedule", "read_centric.topo_schedule", None),
            (Checker, "final_graph", "read_centric.final_graph", final_graph),
            (read_centric, "build_dag_schedule", "rw_closure.build_dag_schedule", None),
            (opgraph.OperationGraph, "close", "opgraph.close", closed),
            (opgraph.OperationGraph, "downset", "opgraph.downset", None),
            (opgraph.OperationGraph, "topo_sort", "opgraph.topo_sort", None),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans]
        original_run = Checker.run

        def run(checker):
            result = original_run(checker)
            self.counts["read_centric.rulec_edges"] += checker.rulec_edges
            return result

        try:
            for owner, attr, name, after in spans:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name, after))
            Checker.run = run
            yield self
        finally:
            Checker.run = original_run
            for owner, attr, original in originals:
                setattr(owner, attr, original)
