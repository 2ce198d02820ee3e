"""Command-line front end.

Subcommands: `verify` (decide consistency, optionally emitting witness
schedules and precedence-graph dumps), `check-schedule` (validate a witness),
`reduce` (emit the trace encoding a triple-partition instance), and `gen`
(seeded random workloads, optionally with a planted mutation).

Exit codes: 0 consistent / success, 1 violation found, 2 search budget
exhausted, 64 usage errors, malformed or unreadable input, and unwritable
output paths or stdout, 70 internal errors (a bug in pramcheck).  Writing
stderr is best effort: a failure there changes no exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import json
import os
import stat
import sys
import tempfile
import traceback
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
from .oracle import DEFAULT_MAX_STATES, OracleTimeout, oracle_verify
from .read_centric import verify_read_centric
from .reduction import (
    FOCUS,
    InvalidInstanceError,
    ThreePartitionInstance,
    build_partition_witness,
    reduce_3partition,
    solve_3partition,
)
from .rw_closure import verify_rw_closure
from .tracegen import MUTATIONS, gen_pram_trace, mutate_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


class UsageError(Exception):
    """Bad invocation or unreadable/malformed input; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")

    def print_help(self, file=None):  # noqa: D102 - argparse ignores a failed write
        if file is not None:
            return super().print_help(file)
        _stdout(self.format_help())


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
    p.set_defaults(run=_cmd_verify)
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
        help="auto picks read-centric, or the oracle for a focus with an ambiguous read",
    )
    p.add_argument(
        "--budget", type=int, default=DEFAULT_MAX_STATES, metavar="N",
        help="oracle search-state budget, at least 1 (default %(default)s)",
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
    p.set_defaults(run=_cmd_check_schedule)
    p.add_argument("trace", type=Path)
    p.add_argument("schedule", type=Path)
    p.add_argument("--focus", required=True, metavar="PROCESS")

    p = sub.add_parser("reduce", help="emit the trace encoding a 3-partition instance")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("--m", type=int, required=True, help="number of triples")
    p.add_argument("--B", type=int, required=True, help="target triple sum")
    p.add_argument("--sizes", required=True, help="comma-separated list of 3m sizes")
    p.add_argument("-o", "--output", type=Path, help="trace file (default stdout)")
    p.add_argument(
        "--with-witness", type=Path, metavar="PATH",
        help="also solve the instance and write the induced schedule",
    )

    p = sub.add_parser("gen", help="generate a seeded random PRAM-consistent trace")
    p.set_defaults(run=_cmd_gen)
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
        return path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL, a lone surrogate, bad UTF-8
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_all(outputs: list[tuple[Path, str]]) -> None:
    """Write every (path, text) pair, or none of them; refuse two pairs that
    name one regular or missing file, where the later write would win.

    A target that is missing or an ordinary file is staged: its text goes to a
    temporary file beside it, and the temporary files replace their targets
    only after every one is written.  A replaced target keeps its mode; a new
    one gets the umask's.  A path that is a symbolic link writes to the file
    it points to, as open() does.

    Any other target is written in place, since replacing it would lose what
    it is: a device, a FIFO or pipe (/dev/stdout), a file with more than one
    hard link, or a file whose directory takes no temporary file.  Such a
    target is opened, without truncation, before anything is replaced, and
    written after the staged files.  On a failure before that point the
    temporary files are removed and every target is left as it was.
    """
    mask = os.umask(0)
    os.umask(mask)
    staged: list[tuple[Path, str, Path]] = []  # (path given, temporary file, target)
    direct = []  # (path given, text, open file, is an ordinary file)
    seen = set()  # each target's (device, inode), or its real path if missing
    path = None
    try:
        with contextlib.ExitStack() as opened:
            for path, text in outputs:
                try:
                    st = os.stat(path)
                except FileNotFoundError:
                    st = None
                if st is not None and stat.S_ISDIR(st.st_mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                regular = st is not None and stat.S_ISREG(st.st_mode)
                ident = os.path.realpath(path) if st is None else (st.st_dev, st.st_ino)
                if ident in seen and (st is None or regular):  # not a device or FIFO
                    raise ValueError("another output names the same file")
                seen.add(ident)
                if st is None or (regular and st.st_nlink == 1):
                    target = Path(os.path.realpath(path))
                    try:
                        fd, tmp = tempfile.mkstemp(
                            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
                        )
                    except PermissionError:
                        if st is None:
                            raise
                    else:
                        staged.append((path, tmp, target))
                        os.fchmod(fd, stat.S_IMODE(st.st_mode) if st else 0o666 & ~mask)
                        with open(fd, "w") as out:
                            out.write(text)
                        continue
                out = opened.enter_context(open(os.open(path, os.O_WRONLY), "w"))
                direct.append((path, text, out, regular))
            for path, tmp, target in staged:
                os.replace(tmp, target)
            staged.clear()
            for path, text, out, regular in direct:
                if regular:
                    out.truncate(0)
                out.write(text)
                out.flush()
    except (OSError, ValueError) as exc:  # ValueError: a path the OS cannot take
        for _, tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise UsageError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _load_trace(path: Path) -> Trace:
    try:
        return parse_trace(_read(path))
    except TraceParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _suffixed(path: Path, focus: str, multi: bool) -> Path:
    if multi and not path.name:  # "." or "/": a directory, which with_name() refuses
        raise UsageError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    return path.with_name(f"{path.name}.{focus}") if multi else path


def _drop(stream) -> None:
    """Point `stream`'s descriptor at the null device, so that the flush at
    interpreter exit drops what its buffer holds instead of failing again."""
    with contextlib.suppress(OSError, ValueError):  # a stream without a descriptor
        fd = stream.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _stdout(text: str) -> None:
    """Write and flush `text` to stdout; failing to is an unwritable output."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _drop(sys.stdout)
        raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _stderr(text: str) -> None:
    """Write and flush `text` to stderr, best effort: failing to changes no exit code."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _drop(sys.stderr)


def _emit(text: str, out: Path | None, others: tuple[tuple[Path, str], ...] = ()) -> None:
    """Write `text` to `out`, or to stdout when it is None, and `others`: all or none."""
    _write_all([*others] if out is None else [(out, text), *others])
    if out is None:
        _stdout(text)


def _decide(trace: Trace, focus: str, algorithm: str, budget: int):
    """Decide one focus: (the algorithm that decided it, its Verdict or OracleTimeout).

    `auto` runs read-centric, and the budgeted oracle when a focus read has
    several candidate writes.  The verifiers are looked up in this module's
    globals at each call, so that wrappers set on `cli.verify_read_centric`
    or `cli.oracle_verify` (the benchmark's tracer, tests) see every call.
    """
    try:
        if algorithm == "rw-closure":
            return algorithm, verify_rw_closure(trace, focus)
        if algorithm != "oracle":
            return "read-centric", verify_read_centric(trace, focus)
    except DuplicateValueError as exc:  # a focus read with several candidate writes
        if algorithm != "auto":
            raise UsageError(
                f"--algorithm {algorithm} cannot decide focus {focus}: {exc}; "
                "use --algorithm oracle"
            ) from exc
    return "oracle", oracle_verify(trace, focus, max_states=budget)


def _cmd_verify(args) -> int:
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    trace = _load_trace(args.trace)
    variant = classify(trace)
    if args.focus is not None and args.focus not in trace.processes:
        raise UsageError(f"unknown focus process {args.focus!r}")
    focuses = sorted(trace.processes) if args.focus is None else [args.focus]
    multi = len(focuses) > 1

    # One record per focus, shaped for its view; past the first three keys, one text line each.
    per_process = []
    outputs: list[tuple[Path, str]] = []  # written together once every focus is decided
    for focus in focuses:
        algorithm, result = _decide(trace, focus, args.algorithm, args.budget)
        entry: dict = {"focus": focus, "algorithm": algorithm}
        if isinstance(result, OracleTimeout):
            entry["verdict"] = "timeout"
            entry["reason"] = f"budget exhausted after {result.states} search states"
        elif result.consistent:
            entry["verdict"] = "consistent"
            if args.witness_out is not None and result.witness is not None:
                path = _suffixed(args.witness_out, focus, multi)
                outputs.append((path, serialize_schedule(result.witness)))
                entry["witness_file"] = str(path)
        else:
            entry["verdict"] = "inconsistent"
            if result.reason:
                entry["reason"] = result.reason
            cycle = result.cycle
            if cycle is not None:
                entry["cycle"] = cycle.pretty(trace.ops) if not args.as_json else {
                    "nodes": list(cycle.nodes),
                    "ops": [trace.ops[i].pretty() for i in cycle.nodes],
                    "tags": list(cycle.tags),
                }
        if args.dump_graph is not None:
            graph = None if isinstance(result, OracleTimeout) else result.graph
            if graph is not None:
                path = _suffixed(args.dump_graph, focus, multi)
                outputs.append((path, "".join(f"{u} {v} {tag}\n" for u, v, tag in graph.edges())))
                entry["graph_file"] = str(path)
            else:
                _stderr(f"note: --dump-graph skipped for focus {focus} (oracle keeps no graph)\n")
        per_process.append(entry)
    _write_all(outputs)

    verdicts = {entry["verdict"] for entry in per_process}
    consistent = False if "inconsistent" in verdicts else None if "timeout" in verdicts else True

    if args.as_json:
        report = {
            "consistent": consistent,
            "variant": variant.value,
            "n": trace.n,
            "per_process": per_process,
        }
        lines = [json.dumps(report, indent=2)]
    else:
        procs = len(trace.processes)
        lines = [f"trace: {trace.n} operations, {procs} processes, variant {variant.value}"]
        for entry in per_process:
            lines.append(f"focus {entry['focus']}: {entry['verdict']} ({entry['algorithm']})")
            for key, value in list(entry.items())[3:]:
                lines.append(f"  {key.removesuffix('_file')}: {value}")
        overall = {True: "consistent", False: "inconsistent", None: "unknown (timeout)"}[consistent]
        lines.append(f"overall: {overall}")
    _stdout("\n".join(lines) + "\n")
    return {True: EXIT_OK, False: EXIT_VIOLATION, None: EXIT_TIMEOUT}[consistent]


def _cmd_check_schedule(args) -> int:
    trace = _load_trace(args.trace)
    if args.focus not in trace.processes:
        raise UsageError(f"unknown focus process {args.focus!r}")
    try:
        sched = parse_schedule(_read(args.schedule))
    except ValueError as exc:
        raise UsageError(f"{args.schedule}: {exc}") from exc
    check = check_pram_witness(trace, args.focus, sched)
    _stdout("LEGAL\n" if check else f"ILLEGAL: {check.reason}\n")
    return EXIT_OK if check else EXIT_VIOLATION


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
    witness = ()
    if args.with_witness is not None:  # solve before writing anything
        partition = solve_3partition(inst)
        if partition is None:
            _stderr("instance is infeasible; no witness schedule exists\n")
        else:
            sched = build_partition_witness(trace, inst, partition)
            witness = ((args.with_witness, serialize_schedule(sched)),)
    _emit(serialize_trace(trace), args.output, witness)
    if witness:
        _stderr(f"witness written to {args.with_witness} (focus {FOCUS})\n")
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
    """Run one command with the cyclic garbage collector paused process-wide, threads included.

    Safe: commands make no cycles, only the stdlib's few (README); the library never pauses."""
    paused = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        _stderr(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a verdict: never exit 1 ("violation found")
        _stderr(f"{traceback.format_exc()}error: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_SOFTWARE
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
