import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import resource
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pramcheck
from pramcheck import cli, read_centric, rw_closure
from pramcheck.cli import main
from pramcheck.model import serialize_trace
from pramcheck.tracegen import gen_pram_trace, mutate_trace

OK = "p1 W x 1\np1 W x 2\np2 R x 1\np2 R x 2\n"
BAD = "p1 W x 1\np1 W x 2\np2 R x 2\np2 R x 1\n"


def _trace(tmp_path, text, name="t.trace"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_verify_consistent_exit_zero(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, OK))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "focus p1: consistent" in out
    assert "overall: consistent" in out


def test_verify_violation_exit_one_and_prints_cycle(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, BAD))])
    out = capsys.readouterr().out
    assert rc == 1
    assert "focus p2: inconsistent" in out
    assert "-WpW->" in out or "-PO->" in out
    assert "overall: inconsistent" in out


def _run_module(
    module, *args, env=(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs
):
    src = str(Path(pramcheck.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict(env))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        stdout=stdout, stderr=stderr, text=True, env=env, timeout=60, **kwargs,
    )


def test_module_entry_point_reports_violation(tmp_path):
    # `python -m pramcheck.cli` must run main() and pass its exit code on
    proc = _run_module("pramcheck.cli", "verify", str(_trace(tmp_path, BAD)))
    assert proc.returncode == 1
    assert "overall: inconsistent" in proc.stdout


def test_package_entry_point_reports_violation(tmp_path):
    proc = _run_module("pramcheck", "verify", str(_trace(tmp_path, BAD)))
    assert proc.returncode == 1
    assert "overall: inconsistent" in proc.stdout


def test_verify_single_focus(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, BAD)), "--focus", "p1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p2" not in out.replace("2 processes", "")


def test_verify_json_shape(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, BAD)), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["consistent"] is False
    assert doc["variant"] == "SU"
    assert doc["n"] == 4
    by_focus = {e["focus"]: e for e in doc["per_process"]}
    assert by_focus["p1"]["verdict"] == "consistent"
    bad = by_focus["p2"]
    assert bad["verdict"] == "inconsistent"
    assert bad["cycle"]["nodes"][0] == bad["cycle"]["nodes"][-1]
    assert len(bad["cycle"]["tags"]) == len(bad["cycle"]["nodes"]) - 1


def test_verify_witness_files_get_focus_suffix(tmp_path, capsys):
    out_base = tmp_path / "w.sched"
    rc = main(["verify", str(_trace(tmp_path, OK)), "--witness-out", str(out_base)])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "w.sched.p1").exists()
    assert (tmp_path / "w.sched.p2").exists()


def test_verify_witness_file_passes_check_schedule(tmp_path, capsys):
    t = _trace(tmp_path, OK)
    w = tmp_path / "w.sched"
    main(["verify", str(t), "--focus", "p2", "--witness-out", str(w)])
    capsys.readouterr()
    rc = main(["check-schedule", str(t), str(w), "--focus", "p2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "LEGAL"


def test_check_schedule_illegal(tmp_path, capsys):
    t = _trace(tmp_path, OK)
    sched = tmp_path / "s"
    sched.write_text("2\n3\n0\n1\n")  # reads before any write
    rc = main(["check-schedule", str(t), str(sched), "--focus", "p2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("ILLEGAL:")


@pytest.mark.parametrize(
    "text,fault",
    [
        ("0\n0\n", "index 0 (Wx1@p1#0) appears twice"),
        ("5\n", "index 5 is not a visible operation"),
        ("", "operation 0 (Wx1@p1#0) is missing"),
    ],
)
def test_check_schedule_names_the_index_that_breaks_the_permutation(tmp_path, capsys, text, fault):
    t = _trace(tmp_path, "p1 W x 1\n")
    sched = tmp_path / "s"
    sched.write_text(text)
    rc = main(["check-schedule", str(t), str(sched), "--focus", "p1"])
    assert rc == 1
    assert capsys.readouterr().out == f"ILLEGAL: not a permutation of visible operations: {fault}\n"


def test_verify_dump_graph(tmp_path, capsys):
    # single focus writes to the bare path; --all adds per-focus suffixes
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
               "--dump-graph", str(tmp_path / "g")])
    capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "g").read_text().splitlines()
    assert lines
    for line in lines:
        src, dst, tag = line.split()
        assert tag in ("PO", "WR", "WpW")
        int(src), int(dst)


def test_dump_graph_note_names_only_the_oracle(tmp_path, capsys):
    # a read without a dictating write still leaves a (edge-less) graph to dump
    unmatched = _trace(tmp_path, "p1 W x 1\np2 R x 7\n")
    for algorithm in ("rw-closure", "read-centric"):
        rc = main(["verify", str(unmatched), "--focus", "p2", "--algorithm", algorithm,
                   "--dump-graph", str(tmp_path / algorithm)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "note" not in err
        assert (tmp_path / algorithm).read_text() == ""
    rc = main(["verify", str(unmatched), "--focus", "p2", "--algorithm", "oracle",
               "--dump-graph", str(tmp_path / "oracle")])
    assert rc == 1
    assert "(oracle keeps no graph)" in capsys.readouterr().err
    assert not (tmp_path / "oracle").exists()


def test_verify_algorithm_choice(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, OK)), "--algorithm", "rw-closure"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(rw-closure)" in out


def test_verify_budget_timeout_exit_two(tmp_path, capsys):
    dup = "p1 W x 1\np1 W x 2\np2 W x 2\np2 W x 1\np3 R x 1\np3 R x 2\np3 R x 1\n"
    rc = main(["verify", str(_trace(tmp_path, dup)), "--focus", "p3", "--budget", "3"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "timeout" in out
    assert "overall: unknown (timeout)" in out


def test_verify_deep_duplicate_trace_times_out_instead_of_crashing(tmp_path, capsys):
    # every focus needs thousands of nested search states
    trace = tmp_path / "deep.trace"
    assert main(["gen", "--seed", "1", "--ops", "3000", "--policy", "duplicate", "-o", str(trace)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(trace), "--budget", "5000"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "overall: unknown (timeout)" in out


def test_violation_beats_timeout(tmp_path, capsys):
    # p2's unreadable value is refuted within the budget; every other focus
    # times out, and the definite violation must win
    dup = (
        "p1 W x 1\np1 W x 2\n"
        "p2 R x 99\n"
        "p3 W x 2\np3 W x 1\n"
        "p4 R x 1\np4 R x 2\np4 R x 1\n"
    )
    rc = main(["verify", str(_trace(tmp_path, dup)), "--budget", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "timeout" in out and "overall: inconsistent" in out


def test_reduce_writes_trace_and_witness(tmp_path, capsys):
    t = tmp_path / "red.trace"
    w = tmp_path / "red.sched"
    rc = main(["reduce", "--m", "1", "--B", "6", "--sizes", "2,2,2",
               "-o", str(t), "--with-witness", str(w)])
    capsys.readouterr()
    assert rc == 0
    assert t.exists() and w.exists()
    rc = main(["check-schedule", str(t), str(w), "--focus", "P0"])
    assert rc == 0
    capsys.readouterr()


def test_reduce_infeasible_skips_witness(tmp_path, capsys):
    t = tmp_path / "inf.trace"
    w = tmp_path / "inf.sched"
    rc = main(["reduce", "--m", "2", "--B", "13", "--sizes", "4,4,4,4,4,6",
               "-o", str(t), "--with-witness", str(w)])
    err = capsys.readouterr().err
    assert rc == 0
    assert t.exists() and not w.exists()
    assert "infeasible" in err


def test_gen_roundtrips_through_verify(tmp_path, capsys):
    t = tmp_path / "g.trace"
    rc = main(["gen", "--seed", "4", "--ops", "20", "-o", str(t)])
    capsys.readouterr()
    assert rc == 0
    assert main(["verify", str(t)]) == 0
    capsys.readouterr()


def test_gen_mutate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["gen", "--seed", "9", "--ops", "24", "--mutate", "retarget-read",
              "-o", str(out)])
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_usage_errors_exit_64(tmp_path, capsys):
    assert main(["verify"]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["reduce", "--m", "1", "--B", "6", "--sizes", "nope"]) == 64
    assert main(["verify", str(tmp_path / "missing.trace")]) == 64
    assert main(["gen", "--seed", "1", "--mutate", "unknown-kind"]) == 64
    capsys.readouterr()
    for budget in ("0", "-5"):
        assert main(["verify", str(_trace(tmp_path, OK)), "--budget", budget]) == 64
        assert capsys.readouterr().err == f"error: --budget must be at least 1, got {budget}\n"


REDUCE = ["reduce", "--m", "1", "--B", "6", "--sizes", "2,2,2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{bad}"],
        ["check-schedule", "{bad}", "{sched}", "--focus", "p2"],
        ["check-schedule", "{ok}", "{bad}", "--focus", "p2"],
        ["verify", "{ok}", "--witness-out", "{missing}/w"],
        ["verify", "{ok}", "--dump-graph", "{missing}/g"],
        ["verify", "{ok}", "--dump-graph", "."],
        ["gen", "--seed", "1", "-o", "{missing}/t"],
        [*REDUCE, "-o", "{missing}/t"],
        [*REDUCE, "-o", "{tmp}/r.trace", "--with-witness", "{missing}/w"],
        ["verify", "{nul}"],
        ["verify", "{lone}"],
        ["check-schedule", "{ok}", "{lone}", "--focus", "p2"],
        ["verify", "{ok}", "--witness-out", "{nul}"],
        ["verify", "{ok}", "--witness-out", "{lone}"],
        ["gen", "--seed", "1", "-o", "{nul}"],
        [*REDUCE, "-o", "{tmp}/r.trace", "--with-witness", "{nul}"],
        [*REDUCE, "-o", "{tmp}/r.trace", "--with-witness", "{lone}"],
    ],
    ids=[
        "verify-trace-not-utf8",
        "check-schedule-trace-not-utf8",
        "check-schedule-schedule-not-utf8",
        "witness-out-missing-dir",
        "dump-graph-missing-dir",
        "dump-graph-dot-several-foci",
        "gen-output-missing-dir",
        "reduce-output-missing-dir",
        "with-witness-missing-dir",
        "verify-trace-path-nul",
        "verify-trace-path-lone-surrogate",
        "check-schedule-schedule-path-lone-surrogate",
        "witness-out-nul",
        "witness-out-lone-surrogate",
        "gen-output-nul",
        "with-witness-nul",
        "with-witness-lone-surrogate",
    ],
)
def test_unreadable_input_or_unwritable_output_exits_64(tmp_path, capfd, argv):
    # capfd: its stderr replaces what it cannot encode, as sys.stderr does
    # (backslashreplace), while capsys's would raise on a lone surrogate
    bad = tmp_path / "bad"
    bad.write_bytes(b"p1 W x 1\xff\n")
    paths = {
        "bad": bad,
        "ok": _trace(tmp_path, OK),
        "sched": _trace(tmp_path, "0\n2\n1\n3\n", name="s"),
        "missing": tmp_path / "missing",
        "tmp": tmp_path,
        "nul": tmp_path / "a\x00b",  # paths the operating system cannot take
        "lone": tmp_path / "\ud800",
    }
    rc = main([arg.format(**paths) for arg in argv])
    err = capfd.readouterr().err
    assert rc == 64
    assert err.startswith("error: ")


def test_trace_is_decoded_as_utf8_whatever_the_locale(tmp_path, monkeypatch):
    trace = tmp_path / "t.trace"
    trace.write_bytes(f"# caf\u00e9\n{OK}".encode("utf-8"))
    for name, value in (("PYTHONCOERCECLOCALE", "0"), ("PYTHONUTF8", "0"), ("LC_ALL", "C")):
        monkeypatch.setenv(name, value)
    proc = _run_module("pramcheck", "verify", str(trace))
    assert proc.returncode == 0, proc.stderr


def test_verify_unknown_focus_is_usage_error(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p9"])
    capsys.readouterr()
    assert rc == 64


def test_failed_output_write_leaves_no_file_behind(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "w.p2").write_text("old\n")
    argv = ["verify", str(_trace(tmp_path, OK)), "--witness-out", str(out / "w"),
            "--dump-graph", str(out / "missing" / "g")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out / 'missing' / 'g.p1'}: ")
    # nothing new, no temporary file, and the existing target untouched
    assert sorted(p.name for p in out.iterdir()) == ["w.p2"]
    assert (out / "w.p2").read_text() == "old\n"


def test_output_files_keep_a_replaced_targets_mode(tmp_path, capsys):
    old, new = tmp_path / "w", tmp_path / "g"
    old.write_text("old\n")
    old.chmod(0o600)
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
               "--witness-out", str(old), "--dump-graph", str(new)])
    capsys.readouterr()
    assert rc == 0
    assert old.read_text() == "0\n2\n1\n3\n"
    assert old.stat().st_mode & 0o777 == 0o600
    mask = os.umask(0)
    os.umask(mask)
    assert new.stat().st_mode & 0o777 == 0o666 & ~mask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "t.trace", "w"]


def test_output_through_a_symlink_writes_the_linked_file(tmp_path, capsys):
    real = tmp_path / "real"
    real.write_text("old\n")
    (tmp_path / "link").symlink_to(real)
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
               "--witness-out", str(tmp_path / "link")])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "link").is_symlink()
    assert real.read_text() == "0\n2\n1\n3\n"


def test_output_path_that_is_a_directory_writes_nothing(tmp_path, capsys):
    (tmp_path / "g").mkdir()
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
               "--witness-out", str(tmp_path / "w"), "--dump-graph", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 64
    assert err == f"error: cannot write {tmp_path / 'g'}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "t.trace"]


def test_internal_error_exits_70_with_traceback(tmp_path, capsys, monkeypatch):
    def broken(trace, focus, **_):
        raise KeyError("boom")

    monkeypatch.setattr("pramcheck.cli.verify_read_centric", broken)
    argv = ["verify", str(_trace(tmp_path, OK))]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 70
    assert captured.out == ""
    assert "Traceback (most recent call last):" in captured.err
    assert captured.err.endswith("error: internal error: KeyError: 'boom'\n")
    # the traceback and the exception leave no cycle for the paused collector
    assert _cyclic_garbage(main, argv) == 0
    capsys.readouterr()


def test_output_to_a_fifo_writes_through_it(tmp_path, capsys):
    fifo = tmp_path / "g"
    os.mkfifo(fifo)
    got = []
    # a daemon thread, so that a writer that replaces the FIFO fails the test
    # instead of leaving the reader blocked forever
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2", "--dump-graph", str(fifo)])
    reader.join(timeout=10)
    capsys.readouterr()
    assert rc == 0
    assert got == ["0 1 PO\n0 2 WR\n1 3 WR\n2 3 PO\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "t.trace"]


def test_output_to_a_hard_linked_file_keeps_the_links(tmp_path, capsys):
    target, other = tmp_path / "w", tmp_path / "w.other"
    target.write_text("old text, longer than the schedule\n")
    os.link(target, other)
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2", "--witness-out", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert target.read_text() == other.read_text() == "0\n2\n1\n3\n"
    assert target.stat().st_ino == other.stat().st_ino


def test_failed_write_leaves_an_in_place_target_untouched(tmp_path, capsys):
    target = tmp_path / "w"
    target.write_text("old\n")
    os.link(target, tmp_path / "w.other")
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2", "--witness-out", str(target),
               "--dump-graph", str(tmp_path / "missing" / "g")])
    capsys.readouterr()
    assert rc == 64
    assert target.read_text() == "old\n"


def _refuses_a_file_named_twice(argv, name, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert captured.err == f"error: cannot write {name}: another output names the same file\n"


def test_reduce_refuses_one_file_for_trace_and_witness(tmp_path, capsys):
    f = tmp_path / "f"
    _refuses_a_file_named_twice([*REDUCE, "-o", str(f), "--with-witness", str(f)], f, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("focus", [["--focus", "p2"], ["--all"]])
def test_verify_refuses_one_file_for_witness_and_graph(tmp_path, capsys, focus):
    """With --all, each focus's two suffixed paths name one file, and the
    first focus's pair is refused before anything is written."""
    t = _trace(tmp_path, OK)
    x = tmp_path / "x"
    argv = ["verify", str(t), *focus, "--witness-out", str(x), "--dump-graph", str(x)]
    name = x if focus[0] == "--focus" else tmp_path / "x.p1"
    _refuses_a_file_named_twice(argv, name, capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.trace"]


def test_verify_refuses_two_hard_links_to_one_file(tmp_path, capsys):
    target, other = tmp_path / "w", tmp_path / "g"
    target.write_text("old\n")
    os.link(target, other)
    argv = ["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
            "--witness-out", str(target), "--dump-graph", str(other)]
    _refuses_a_file_named_twice(argv, other, capsys)
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "t.trace", "w"]


def test_verify_writes_witness_and_graph_to_one_device(tmp_path, capsys):
    """A device is written in place, never replaced, so two outputs may name it."""
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
               "--witness-out", os.devnull, "--dump-graph", os.devnull])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"witness: {os.devnull}" in out and f"graph: {os.devnull}" in out


def test_output_beside_no_temporary_file_is_written_in_place(tmp_path, capsys, monkeypatch):
    # an existing file in a directory that takes no new file is still written
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    target = tmp_path / "w"
    target.write_text("old\n")
    monkeypatch.setattr("pramcheck.cli.tempfile.mkstemp", refuse)
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2", "--witness-out", str(target)])
    assert rc == 0
    assert target.read_text() == "0\n2\n1\n3\n"
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p2",
               "--witness-out", str(tmp_path / "new")])
    assert rc == 64
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'new'}: Permission denied\n"


class _FullStream(io.StringIO):
    """A stream that fails every write, as a full device does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


FULL_STDOUT = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{ok}"],
        ["verify", "--json", "{ok}"],
        ["check-schedule", "{ok}", "{sched}", "--focus", "p2"],
        ["reduce", "--m", "1", "--B", "6", "--sizes", "2,2,2"],
        ["gen", "--seed", "1"],
        ["--help"],
        ["verify", "--help"],
    ],
    ids=["verify", "verify-json", "check-schedule", "reduce", "gen", "help", "verify-help"],
)
def test_full_stdout_exits_64_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    paths = {"ok": _trace(tmp_path, OK), "sched": _trace(tmp_path, "0\n1\n2\n3\n", name="s")}
    monkeypatch.setattr(sys, "stdout", _FullStream())
    rc = main([arg.format(**paths) for arg in argv])
    assert (rc, capsys.readouterr().err) == (64, FULL_STDOUT)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_on_dev_full_exits_64_past_interpreter_exit(tmp_path, unbuffered):
    """A buffered stdout still holds the text that failed, and flushing it
    again at interpreter exit would turn the exit code into 120."""
    with open("/dev/full", "w") as full:
        proc = _run_module(
            "pramcheck", "verify", str(_trace(tmp_path, OK)),
            stdout=full, env={"PYTHONUNBUFFERED": unbuffered},
        )
    assert (proc.returncode, proc.stderr) == (64, FULL_STDOUT)


# A consistent trace whose p3 goes to the oracle, which writes a note on stderr
# under --dump-graph; and a missing trace, which writes an error line there.
STDERR_CASES = [
    (["verify", "{dup}", "--dump-graph", "{graph}"], 0),
    (["verify", "{missing}"], 64),
]


def _stderr_argv(tmp_path, argv):
    dup = _trace(tmp_path, "p1 W x 1\np2 W x 1\np3 R x 1\n")
    paths = {"dup": dup, "graph": tmp_path / "g", "missing": tmp_path / "missing.trace"}
    return [arg.format(**paths) for arg in argv]


@pytest.mark.parametrize("argv, code", STDERR_CASES, ids=["verify-note", "verify-missing"])
def test_full_stderr_changes_no_exit_code(tmp_path, capsys, monkeypatch, argv, code):
    argv = _stderr_argv(tmp_path, argv)
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert main(argv) == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv, code", STDERR_CASES, ids=["verify-note", "verify-missing"])
def test_stderr_on_dev_full_changes_no_exit_code(tmp_path, argv, code):
    argv = _stderr_argv(tmp_path, argv)
    with open("/dev/full", "w") as full:
        proc = _run_module("pramcheck", *argv, stderr=full)
    assert proc.returncode == code


def test_gen_output_to_dev_stdout_reaches_a_pipe():
    proc = _run_module("pramcheck", "gen", "--seed", "3", "-o", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _run_module("pramcheck", "gen", "--seed", "3").stdout != ""


def _address_space_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_gen_with_huge_process_and_variable_counts_fits_in_1_gib():
    # A generator that sized a table by --processes squared or by --vars
    # would end in MemoryError here, not in five lines of trace.
    proc = _run_module(
        "pramcheck", "gen", "--seed", "1", "--ops", "5",
        "--processes", "1000000", "--vars", "1000000000",
        preexec_fn=_address_space_1_gib,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 5


def test_check_schedule_names_the_line_of_an_index_too_long_for_int(tmp_path, capsys):
    sched = _trace(tmp_path, "0\n" + "1" * 5000 + "\n", name="s")
    rc = main(["check-schedule", str(_trace(tmp_path, OK)), str(sched), "--focus", "p2"])
    err = capsys.readouterr().err
    assert rc == 64
    assert err == f"error: {sched}: line 2: operation index of 5000 digits is too large\n"


def test_reduce_with_unwritable_witness_writes_no_trace(tmp_path, capsys):
    t = tmp_path / "r.trace"
    rc = main([*REDUCE, "-o", str(t), "--with-witness", str(tmp_path / "missing" / "w")])
    assert rc == 64
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


def test_reduce_without_output_prints_the_trace_after_the_witness(tmp_path, capsys):
    w = tmp_path / "w"
    assert main([*REDUCE, "--with-witness", str(w)]) == 0
    out = capsys.readouterr().out
    t = _trace(tmp_path, out)
    assert main(["check-schedule", str(t), str(w), "--focus", "P0"]) == 0
    assert main([*REDUCE, "--with-witness", str(tmp_path / "missing" / "w")]) == 64
    assert capsys.readouterr().out == "LEGAL\n"


@pytest.mark.parametrize("algorithm", ["read-centric", "rw-closure"])
def test_verify_builds_a_witness_only_for_witness_out(tmp_path, capsys, monkeypatch, algorithm):
    built = []
    for module in (read_centric, rw_closure):
        def counting(graph, proj, build=module.build_dag_schedule):
            built.append(proj.focus)
            return build(graph, proj)

        monkeypatch.setattr(module, "build_dag_schedule", counting)
    # six foci, of which p3 is inconsistent
    trace = mutate_trace(1, gen_pram_trace(1, processes=6, ops=240), "reorder-reads")
    path = str(_trace(tmp_path, serialize_trace(trace)))
    verify = ["verify", path, "--algorithm", algorithm]
    for extra in (["--focus", "p1"], ["--focus", "p3"], ["--json"], []):
        main([*verify, *extra])
        assert built == [], extra
    assert main([*verify, "--focus", "p1", "--witness-out", str(tmp_path / "one")]) == 0
    assert built == ["p1"]
    built.clear()
    w = tmp_path / "w"
    assert main([*verify, "--json", "--witness-out", str(w)]) == 1
    capsys.readouterr()
    assert built == ["p1", "p2", "p4", "p5", "p6"]
    files = {p.name: p.read_text() for p in sorted(tmp_path.glob("w.*"))}
    assert sorted(files) == ["w.p1", "w.p2", "w.p4", "w.p5", "w.p6"]
    assert (tmp_path / "one").read_text() == files["w.p1"]
    # the witness files these arguments wrote when every witness was sorted eagerly
    digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
    assert digest == "3374035ff39af3e56fa98063d2a21397860ce76a177b107d7ea0076a7a14b377"


def test_verify_completes_read_centric_graph_only_for_dump_graph(tmp_path, capsys, monkeypatch):
    """Read-centric stores only the settled operations' edges; seeding every
    `PO` and `WR` edge is left to a read of the verdict's graph."""

    def seeding(*_args):
        raise AssertionError("the whole graph was seeded")

    monkeypatch.setattr(read_centric, "add_rule_a_b", seeding)
    # six foci, of which p3 is inconsistent
    trace = mutate_trace(1, gen_pram_trace(1, processes=6, ops=240), "reorder-reads")
    path = str(_trace(tmp_path, serialize_trace(trace)))
    for focus in trace.processes:
        want = 1 if focus == "p3" else 0
        assert main(["verify", path, "--focus", focus]) == want
        assert main(["verify", path, "--focus", focus, "--witness-out", str(tmp_path / "w")]) == want
    assert main(["verify", path, "--json"]) == 1
    assert main(["verify", path, "--focus", "p1", "--dump-graph", str(tmp_path / "g")]) == 70
    capsys.readouterr()


def _cyclic_garbage(run, *args) -> int:
    """How many objects `gc.collect()` finds unreachable after `run(*args)`.

    The collector stays paused from one collection to the next, so it counts
    only what reference counting could not free: objects in reference cycles.
    """
    gc.disable()
    try:
        gc.collect()
        run(*args)
        return gc.collect()
    finally:
        gc.enable()


DUP = "p1 W x 1\np1 W x 2\np2 W x 2\np2 W x 1\np3 R x 1\np3 R x 2\np3 R x 1\n"


def _cycle_corpus_files(tmp: Path) -> dict[str, str]:
    """The files `CYCLE_CORPUS`'s argument lists name, written to `tmp`."""
    texts = {
        "ok": OK,
        # six foci; p3's reads were reordered and it is rejected with a cycle
        "gen": serialize_trace(
            mutate_trace(1, gen_pram_trace(1, processes=6, ops=240), "reorder-reads")
        ),
        "dup": DUP,
        "unmatched": "p1 W x 1\np2 R x 99\n",
        "malformed": "p1 Q x 1\n",
        "sched": "0\n2\n1\n3\n",
        "small": serialize_trace(gen_pram_trace(2, processes=3, ops=40)),
        "large": serialize_trace(gen_pram_trace(2, processes=16, ops=1600, read_fraction=0.35)),
    }
    paths = {name: str(_trace(tmp, text, name=name)) for name, text in texts.items()}
    paths["deep"] = str(tmp / "deep")
    assert main(["gen", "--seed", "1", "--ops", "3000", "--policy", "duplicate",
                 "-o", paths["deep"]]) == 0
    return {**paths, "missing": str(tmp / "missing"), "out": str(tmp)}


# (id, exit code, argument list): every way out of main(), each of which must
# leave no cyclic garbage behind while the collector is paused
CYCLE_CORPUS = [
    ("focus", 0, ["verify", "{gen}", "--focus", "p1"]),
    ("all-foci", 1, ["verify", "{gen}"]),
    ("rw-closure", 1, ["verify", "{gen}", "--algorithm", "rw-closure"]),
    ("witness-out-and-dump-graph", 1,
     ["verify", "{gen}", "--witness-out", "{out}/w", "--dump-graph", "{out}/g"]),
    ("auto-routes-to-oracle", 0, ["verify", "{dup}"]),
    ("oracle-timeout", 2, ["verify", "{deep}", "--budget", "5000"]),
    ("precedence-cycle", 1, ["verify", "{gen}", "--focus", "p3"]),
    ("no-dictating-write", 1, ["verify", "{unmatched}"]),
    ("malformed-text", 64, ["verify", "{malformed}"]),
    ("missing-file", 64, ["verify", "{missing}"]),
    ("unknown-focus", 64, ["verify", "{ok}", "--focus", "p9"]),
    ("unwritable-output", 64, ["verify", "{ok}", "--witness-out", "{missing}/w"]),
    ("budget-0", 64, ["verify", "{ok}", "--budget", "0"]),
    ("read-centric-on-ambiguous-focus", 64,
     ["verify", "{dup}", "--algorithm", "read-centric", "--focus", "p3"]),
    ("check-schedule", 0, ["check-schedule", "{ok}", "{sched}", "--focus", "p2"]),
    ("reduce", 0, [*REDUCE, "-o", "{out}/r.trace", "--with-witness", "{out}/r.sched"]),
    ("gen", 0, ["gen", "--seed", "4", "--ops", "20", "-o", "{out}/g.trace"]),
]


@pytest.fixture(scope="module")
def cycle_corpus_files(tmp_path_factory):
    return _cycle_corpus_files(tmp_path_factory.mktemp("cycles"))


@pytest.mark.parametrize("code, argv", [case[1:] for case in CYCLE_CORPUS],
                         ids=[case[0] for case in CYCLE_CORPUS])
def test_command_leaves_no_cyclic_garbage(cycle_corpus_files, capsys, code, argv):
    # main() runs with the collector paused, which is safe only because
    # reference counting frees everything a command builds
    argv = [arg.format(**cycle_corpus_files) for arg in argv]
    assert main(argv) == code
    capsys.readouterr()
    assert _cyclic_garbage(main, argv) == 0
    capsys.readouterr()


def test_json_report_leaves_only_the_encoders_garbage(cycle_corpus_files, capsys):
    # json.dumps(indent=2) runs the pure-Python encoder, whose nested
    # functions form a fixed number of cycles per call before Python 3.13;
    # the count must not grow with the trace
    small, large = (
        _cyclic_garbage(main, ["verify", cycle_corpus_files[name], "--json"])
        for name in ("small", "large")
    )
    capsys.readouterr()
    assert small == large


def test_rejected_arguments_leave_only_argparses_garbage(capsys):
    # Python 3.10's ArgumentParser.parse_known_args keeps the ArgumentError it
    # caught in a local, a cycle through its own frame; 3.11 binds it with
    # `except ... as`, which unbinds it, and leaves none
    def parse(argv):
        with contextlib.suppress(cli.UsageError):
            cli.build_parser().parse_args(argv)

    for argv in (["frobnicate"], ["verify", "t.trace", "--budget", "many"]):
        assert main(argv) == 64
        left = _cyclic_garbage(parse, argv)
        assert _cyclic_garbage(main, argv) == left
        assert left == 0 or sys.version_info < (3, 11), argv
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
def test_main_pauses_the_collector_and_restores_the_callers_setting(
    tmp_path, capsys, monkeypatch, enabled
):
    seen = []

    def watching(trace, focus, **kwargs):
        seen.append(gc.isenabled())
        if focus == "boom":
            raise KeyError("boom")
        return read_centric.verify_read_centric(trace, focus, **kwargs)

    monkeypatch.setattr(cli, "verify_read_centric", watching)
    ok, bad, dup, boom = (
        str(_trace(tmp_path, text, name=f"{i}.trace"))
        for i, text in enumerate((OK, BAD, DUP, "boom R x 0\n"))
    )
    cases = [
        (["verify", ok], 0),
        (["verify", bad], 1),
        (["verify", dup, "--focus", "p3", "--budget", "3"], 2),
        (["verify", str(tmp_path / "missing")], 64),
        (["verify", boom, "--focus", "boom"], 70),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in cases:
            assert main(argv) == code
            assert gc.isenabled() is enabled, argv
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert seen == [False] * 6  # two foci each of ok and bad, then dup and boom
