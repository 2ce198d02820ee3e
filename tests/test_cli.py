import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pramcheck
from pramcheck.cli import main

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


def _run_module(module, *args):
    src = str(Path(pramcheck.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=60,
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


REDUCE = ["reduce", "--m", "1", "--B", "6", "--sizes", "2,2,2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{bad}"],
        ["check-schedule", "{bad}", "{sched}", "--focus", "p2"],
        ["check-schedule", "{ok}", "{bad}", "--focus", "p2"],
        ["verify", "{ok}", "--witness-out", "{missing}/w"],
        ["verify", "{ok}", "--dump-graph", "{missing}/g"],
        ["gen", "--seed", "1", "-o", "{missing}/t"],
        [*REDUCE, "-o", "{missing}/t"],
        [*REDUCE, "-o", "{tmp}/r.trace", "--with-witness", "{missing}/w"],
    ],
    ids=[
        "verify-trace-not-utf8",
        "check-schedule-trace-not-utf8",
        "check-schedule-schedule-not-utf8",
        "witness-out-missing-dir",
        "dump-graph-missing-dir",
        "gen-output-missing-dir",
        "reduce-output-missing-dir",
        "with-witness-missing-dir",
    ],
)
def test_unreadable_input_or_unwritable_output_exits_64(tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"p1 W x 1\xff\n")
    paths = {
        "bad": bad,
        "ok": _trace(tmp_path, OK),
        "sched": _trace(tmp_path, "0\n2\n1\n3\n", name="s"),
        "missing": tmp_path / "missing",
        "tmp": tmp_path,
    }
    rc = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 64
    assert err.startswith("error: ")


def test_verify_unknown_focus_is_usage_error(tmp_path, capsys):
    rc = main(["verify", str(_trace(tmp_path, OK)), "--focus", "p9"])
    capsys.readouterr()
    assert rc == 64
