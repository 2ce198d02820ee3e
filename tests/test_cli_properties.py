"""Property test: `main()` exits only with a documented code (0, 1, 2 or 64).

Hypothesis draws argument lists over the four subcommands and their flags,
with path and focus strings from all of Unicode (NUL and lone surrogates
included) and trace and schedule files that are arbitrary bytes or
near-valid text.  Each example runs in a fresh directory and its paths hold
no "/", so every file it reads or writes is an entry of that directory.
Integer arguments stay small: `gen` makes one channel per ordered process
pair, and `reduce` emits O(m*B) rows.  The profile is fixed and
derandomized, so every run checks the same examples.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pramcheck.cli import main
from pramcheck.tracegen import MUTATIONS

PROFILE = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TRACE, SCHEDULE = "t.trace", "s.sched"  # the files each example writes first

any_char = st.characters(exclude_categories=())
any_text = st.text(any_char, max_size=8)
weird_names = st.one_of(
    st.sampled_from(["missing", ".", "..", "", "a\x00b", "\ud800"]),
    st.text(st.characters(exclude_characters="/", exclude_categories=()), max_size=8),
)


# Weights as sampled lists: integers() favours its bounds, one_of() merges equal branches.
rarely = st.sampled_from([False] * 7 + [True])
sometimes = st.sampled_from([False, False, True])


def mostly(usual: st.SearchStrategy, odd: st.SearchStrategy) -> st.SearchStrategy:
    """`usual` seven times in eight, so that most examples get past the parser."""
    return rarely.flatmap(lambda now: odd if now else usual)


outputs = mostly(st.sampled_from(["out", "w", TRACE]), weird_names)
focuses = mostly(st.sampled_from(["p1", "p2", "p3", "P0"]), any_text)


def small_int(lo: int, hi: int) -> st.SearchStrategy[str]:
    return mostly(st.integers(lo, hi).map(str), st.sampled_from(["", "x", "1.5"]))


@st.composite
def near_valid_text(draw, line: st.SearchStrategy, sort: bool = False) -> bytes:
    lines = draw(st.lists(line, max_size=12))
    if sort and not draw(rarely):  # one section per process, as the format asks
        lines.sort(key=lambda text: text.split()[0])
    if lines and draw(rarely):  # one line damaged by a stray character
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(any_char) + lines[i][j:]
    return "\n".join(lines).encode("utf-8", "surrogatepass")


trace_line = st.builds(
    "{} {} {} {}".format,
    st.sampled_from(["p1", "p2", "p3"]),
    st.sampled_from("RW"),
    st.sampled_from("xy"),
    st.integers(-1, 3),
)
trace_files = mostly(near_valid_text(trace_line, sort=True), st.binary(max_size=200))
schedule_files = mostly(near_valid_text(st.integers(-1, 12).map(str)), st.binary(max_size=60))
# (m, B, sizes): two feasible 3-Partition instances and an infeasible one
instances = st.sampled_from([(1, 6, "2,2,2"), (2, 20, "6,7,7,6,7,7"), (2, 20, "6,6,6,6,7,9")])


@st.composite
def options(draw, flags: dict, required: tuple[str, ...] = ()) -> list[str]:
    """Each flag, with a drawn value unless it is None.

    `required` flags are left out now and then, the others are put in now and then.
    """
    argv: list[str] = []
    for flag, value in flags.items():
        if not draw(rarely) if flag in required else draw(sometimes):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv


@st.composite
def argument_lists(draw) -> list[str]:
    commands = ["verify", "verify", "check-schedule", "reduce", "gen", "other"]
    command = draw(st.sampled_from(commands))
    if command == "verify":
        argv = [command, draw(mostly(st.just(TRACE), weird_names))] + draw(options({
            "--focus": focuses,
            "--all": None,
            "--algorithm": st.sampled_from(["auto", "rw-closure", "read-centric", "oracle", "x"]),
            "--budget": mostly(st.sampled_from(["1", "3", "5000"]), small_int(-1, 0)),
            "--witness-out": outputs,
            "--dump-graph": outputs,
            "--json": None,
        }))
    elif command == "check-schedule":
        files = [draw(mostly(st.just(name), weird_names)) for name in (TRACE, SCHEDULE)]
        argv = [command, *files] + draw(options({"--focus": focuses}, ("--focus",)))
    elif command == "reduce":
        m, b, sizes = draw(instances)
        argv = [command] + draw(options({
            "--m": mostly(st.just(str(m)), small_int(-1, 2)),
            "--B": mostly(st.just(str(b)), small_int(-1, 20)),
            "--sizes": mostly(st.just(sizes), any_text),
            "-o": outputs,
            "--with-witness": outputs,
        }, ("--m", "--B", "--sizes")))
    elif command == "gen":
        argv = [command] + draw(options({
            "--seed": small_int(-3, 1000),
            "--processes": small_int(-1, 8),
            "--vars": small_int(-1, 4),
            "--ops": small_int(-1, 60),
            "--policy": st.sampled_from(["unique", "duplicate", "x"]),
            "--mutate": st.sampled_from([*MUTATIONS, "x"]),
            "-o": outputs,
        }, ("--seed",)))
    else:
        argv = draw(st.lists(any_text, max_size=3))
    if draw(rarely):  # and now and then a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(any_text))
    return argv


@PROFILE
@given(argument_lists(), trace_files, schedule_files)
@example(["verify", "a\x00b"], b"", b"")  # paths the operating system cannot take
@example(["gen", "--seed", "1", "-o", "\ud800"], b"", b"")
@example(["verify", TRACE, "--dump-graph", "."], b"p1 W x 1\np2 R x 1\n", b"")
def test_main_exits_only_with_documented_codes(argv, trace, schedule):
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open(TRACE, "wb") as f:
                f.write(trace)
            with open(SCHEDULE, "wb") as f:
                f.write(schedule)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
