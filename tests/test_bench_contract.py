"""The benchmark's traced run wraps program names; every one must still resolve.

`bench/tracing.py` patches functions at the names their callers look them up
(`cli.verify_read_centric`, `read_centric.classify`, ...).  A rename in the
program breaks the traced benchmark, not the program, so this test runs one
traced request.  It only reads `bench/`.
"""

from __future__ import annotations

from pathlib import Path

from pramcheck import cli, gen_pram_trace, serialize_trace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_verify_counts_the_cli_and_read_centric_spans(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    trace = tmp_path / "t.trace"
    trace.write_text(serialize_trace(gen_pram_trace(1, ops=30)))
    with tracing.Tracer().install() as tracer:
        assert cli.main(["verify", str(trace), "--focus", "p1"]) == 0
    assert tracer.calls["cli"] == 1
    assert tracer.calls["read_centric.verify"] == 1
    assert tracer.calls["model.build_read_mapping"] == 1
    assert "consistent" in capsys.readouterr().out
