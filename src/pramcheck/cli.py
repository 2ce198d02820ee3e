"""Command-line front end.

Subcommands: `verify` (decide consistency, optionally emitting witness
schedules and precedence-graph dumps), `check-schedule` (validate a witness),
`reduce` (emit the trace encoding a triple-partition instance), and `gen`
(seeded random workloads, optionally with a planted mutation).

Exit codes: 0 consistent / success, 1 violation found, 2 search budget
exhausted, 64 usage errors, malformed or unreadable input, and unwritable
output paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .legality import check_pram_witness, parse_schedule, serialize_schedule
from .model import (
    DuplicateValueError,
    Trace,
    TraceParseError,
    classify,
    parse_trace,
    serialize_trace,
)
from .oracle import DEFAULT_MAX_STATES, OracleTimeout, ThreePartitionInstance, oracle_verify, solve_3partition
from .read_centric import verify_read_centric
from .reduction import (
    FOCUS,
    InvalidInstanceError,
    build_partition_witness,
    reduce_3partition,
)
from .rw_closure import verify_rw_closure
from .tracegen import MUTATIONS, gen_pram_trace, mutate_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad invocation or unreadable/malformed input; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    parse_args keeps no state between calls, and _Parser.error raises
    instead of exiting, so one parser serves every main() call.
    """
    parser = _Parser(
        prog="pramcheck",
        description="Decide PRAM consistency of read/write traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify", help="decide consistency of a trace file")
    p.add_argument("trace", type=Path, help="trace file")
    who = p.add_mutually_exclusive_group()
    who.add_argument("--focus", metavar="PROCESS", help="verify this viewpoint only")
    who.add_argument(
        "--all", action="store_true",
        help="verify every process's viewpoint (the default)",
    )
    p.add_argument(
        "--algorithm",
        choices=("auto", "rw-closure", "read-centric", "oracle"),
        default="auto",
        help="auto picks read-centric, or the oracle on duplicate-value traces",
    )
    p.add_argument(
        "--budget", type=int, default=DEFAULT_MAX_STATES, metavar="N",
        help="oracle search-state budget (default %(default)s)",
    )
    p.add_argument(
        "--witness-out", type=Path, metavar="PATH",
        help="write accepted viewpoints' schedules here (suffixed per focus with --all)",
    )
    p.add_argument(
        "--dump-graph", type=Path, metavar="PATH",
        help="write the final precedence graph as 'src dst tag' lines (not for the oracle)",
    )
    p.add_argument("--json", action="store_true", dest="as_json", help="machine-readable report")

    p = sub.add_parser("check-schedule", help="check a schedule file as a witness")
    p.add_argument("trace", type=Path)
    p.add_argument("schedule", type=Path)
    p.add_argument("--focus", required=True, metavar="PROCESS")

    p = sub.add_parser("reduce", help="emit the trace encoding a 3-partition instance")
    p.add_argument("--m", type=int, required=True, help="number of triples")
    p.add_argument("--B", type=int, required=True, help="target triple sum")
    p.add_argument("--sizes", required=True, help="comma-separated list of 3m sizes")
    p.add_argument("-o", "--output", type=Path, help="trace file (default stdout)")
    p.add_argument(
        "--with-witness", type=Path, metavar="PATH",
        help="also solve the instance and write the induced schedule",
    )

    p = sub.add_parser("gen", help="generate a seeded random PRAM-consistent trace")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--processes", type=int, default=3)
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--ops", type=int, default=40)
    p.add_argument("--policy", choices=("unique", "duplicate"), default="unique")
    p.add_argument(
        "--mutate", choices=MUTATIONS,
        help="plant a violation (or near-miss) after generating",
    )
    p.add_argument("-o", "--output", type=Path, help="trace file (default stdout)")
    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _load_trace(path: Path) -> Trace:
    try:
        return parse_trace(_read(path))
    except TraceParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _suffixed(path: Path, focus: str, multi: bool) -> Path:
    return path.with_name(f"{path.name}.{focus}") if multi else path


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)


def _cmd_verify(args) -> int:
    trace = _load_trace(args.trace)
    variant = classify(trace)
    if args.focus is not None:
        if args.focus not in trace.processes:
            raise UsageError(f"unknown focus process {args.focus!r}")
        focuses = [args.focus]
    else:
        focuses = sorted(trace.processes)
    multi = len(focuses) > 1

    per_process = []
    results = []
    any_violation = any_timeout = False
    for focus in focuses:
        algorithm = args.algorithm
        if algorithm == "auto":
            algorithm = "oracle" if variant.has_duplicates else "read-centric"
        try:
            if algorithm == "rw-closure":
                result = verify_rw_closure(trace, focus)
            elif algorithm == "read-centric":
                result = verify_read_centric(trace, focus)
            else:
                result = oracle_verify(trace, focus, max_states=args.budget)
        except DuplicateValueError as exc:
            raise UsageError(
                f"--algorithm {algorithm} needs unique write values ({exc}); "
                "use --algorithm oracle"
            ) from exc

        entry: dict = {"focus": focus, "algorithm": algorithm}
        if isinstance(result, OracleTimeout):
            any_timeout = True
            entry["verdict"] = "timeout"
            entry["reason"] = f"budget exhausted after {result.states} search states"
        elif result.consistent:
            entry["verdict"] = "consistent"
            if args.witness_out is not None and result.witness is not None:
                path = _suffixed(args.witness_out, focus, multi)
                _write(path, serialize_schedule(result.witness))
                entry["witness_file"] = str(path)
        else:
            any_violation = True
            entry["verdict"] = "inconsistent"
            if result.reason:
                entry["reason"] = result.reason
            if result.cycle is not None:
                entry["cycle"] = {
                    "nodes": list(result.cycle.nodes),
                    "ops": [trace.ops[i].pretty() for i in result.cycle.nodes],
                    "tags": list(result.cycle.tags),
                }
        if args.dump_graph is not None:
            graph = None if isinstance(result, OracleTimeout) else result.graph
            if graph is not None:
                path = _suffixed(args.dump_graph, focus, multi)
                _write(path, "".join(f"{u} {v} {tag}\n" for u, v, tag in graph.edges()))
                entry["graph_file"] = str(path)
            else:
                print(
                    f"note: --dump-graph skipped for focus {focus} (oracle keeps no graph)",
                    file=sys.stderr,
                )
        per_process.append(entry)
        results.append(result)

    consistent: bool | None
    if any_violation:
        consistent = False
    elif any_timeout:
        consistent = None
    else:
        consistent = True

    if args.as_json:
        report = {
            "consistent": consistent,
            "variant": variant.value,
            "n": trace.n,
            "per_process": per_process,
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"trace: {trace.n} operations, {len(trace.processes)} processes, variant {variant.value}")
        ops = {o.index: o for o in trace.ops}
        for entry, result in zip(per_process, results):
            line = f"focus {entry['focus']}: {entry['verdict']} ({entry['algorithm']})"
            print(line)
            if "reason" in entry:
                print(f"  reason: {entry['reason']}")
            if "cycle" in entry:
                print(f"  cycle: {result.cycle.pretty(ops)}")
            if "witness_file" in entry:
                print(f"  witness: {entry['witness_file']}")
            if "graph_file" in entry:
                print(f"  graph: {entry['graph_file']}")
        overall = {True: "consistent", False: "inconsistent", None: "unknown (timeout)"}[consistent]
        print(f"overall: {overall}")

    if any_violation:
        return EXIT_VIOLATION
    if any_timeout:
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_check_schedule(args) -> int:
    trace = _load_trace(args.trace)
    if args.focus not in trace.processes:
        raise UsageError(f"unknown focus process {args.focus!r}")
    try:
        sched = parse_schedule(_read(args.schedule))
    except ValueError as exc:
        raise UsageError(f"{args.schedule}: {exc}") from exc
    check = check_pram_witness(trace, args.focus, sched)
    if check:
        print("LEGAL")
        return EXIT_OK
    print(f"ILLEGAL: {check.reason}")
    return EXIT_VIOLATION


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"--sizes must be comma-separated integers: {exc}") from exc


def _cmd_reduce(args) -> int:
    inst = ThreePartitionInstance(m=args.m, B=args.B, sizes=_parse_sizes(args.sizes))
    try:
        trace = reduce_3partition(inst)
    except InvalidInstanceError as exc:
        raise UsageError(f"invalid instance: {exc}") from exc
    _emit(serialize_trace(trace), args.output)
    if args.with_witness is not None:
        partition = solve_3partition(inst)
        if partition is None:
            print("instance is infeasible; no witness schedule exists", file=sys.stderr)
        else:
            sched = build_partition_witness(trace, inst, partition)
            _write(args.with_witness, serialize_schedule(sched))
            print(f"witness written to {args.with_witness} (focus {FOCUS})", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        trace = gen_pram_trace(
            args.seed,
            processes=args.processes,
            variables=args.vars,
            ops=args.ops,
            policy=args.policy,
        )
        if args.mutate is not None:
            trace = mutate_trace(args.seed, trace, args.mutate)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(serialize_trace(trace), args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "check-schedule":
            return _cmd_check_schedule(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "gen":
            return _cmd_gen(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
