"""Frozen CLI output: `pramcheck verify` must keep printing and writing the same bytes.

Each case is one in-process `main(["verify", ...])` run over a seeded trace.
Its digest covers stdout, stderr, the exit code, and the name and bytes of
every witness and graph file the run writes; the temporary directory is
replaced by `<tmp>` first, because reports print file paths.  The expected
digests live in `golden_cli.json`; regenerate them (only when an output change
is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from pramcheck.cli import main
from pramcheck.model import MutationError, parse_trace, serialize_trace
from pramcheck.reduction import FOCUS, ThreePartitionInstance, reduce_3partition
from pramcheck.tracegen import MUTATIONS, gen_pram_trace, mutate_trace

from test_read_centric import DETECTED_IN_TOPO

GOLDEN = Path(__file__).with_name("golden_cli.json")
ALGORITHMS = ("auto", "rw-closure", "read-centric")


def _traces():
    """(name, trace, extra verify args) for every golden case."""
    for seed in range(8):
        ops = 20 + 15 * seed
        yield f"unique-{seed}", gen_pram_trace(seed, processes=3 + seed % 2, ops=ops), []
    for seed in range(4):
        yield f"duplicate-{seed}", gen_pram_trace(seed, ops=16, policy="duplicate"), []
    for seed in range(12):
        base = gen_pram_trace(100 + seed, processes=3, ops=30 + 5 * seed)
        for kind in MUTATIONS:
            try:
                mutated = mutate_trace(seed, base, kind)
            except MutationError:
                continue
            yield f"mutated-{seed}-{kind}", mutated, []
    yield "detected-in-topo", parse_trace(DETECTED_IN_TOPO), []
    inst = ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3))
    yield "reduction-2-10", reduce_3partition(inst), ["--focus", FOCUS]


def _digest(workdir: Path, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    written = {}
    for path in sorted(workdir.iterdir()):
        if path.name != "t.trace":
            written[path.name] = path.read_text()
            path.unlink()
    record = {
        "rc": rc,
        "stdout": out.getvalue().replace(str(workdir), "<tmp>"),
        "stderr": err.getvalue().replace(str(workdir), "<tmp>"),
        "files": written,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def run_cases(workdir: Path) -> dict[str, str]:
    trace_path = workdir / "t.trace"
    digests = {}
    for name, trace, extra in _traces():
        trace_path.write_text(serialize_trace(trace))
        for algorithm in ALGORITHMS:
            for as_json in (False, True):
                argv = [
                    "verify", str(trace_path), "--algorithm", algorithm,
                    "--witness-out", str(workdir / "w.sched"),
                    "--dump-graph", str(workdir / "g.dump"),
                    *extra,
                ]
                if as_json:
                    argv.append("--json")
                key = f"{name} {algorithm}{' json' if as_json else ''}"
                digests[key] = _digest(workdir, argv)
    return digests


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_cases(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
