"""Self-tests for the benchmark's own code: `python3 -m pytest bench -q`."""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from pramcheck import cli, gen_pram_trace  # noqa: E402
from pramcheck.model import Trace  # noqa: E402
from pramcheck.oracle import solve_3partition  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from reference import reference_consistent  # noqa: E402


def _rgs(n: int, kmax: int):
    """Restricted growth strings: each label first appears in increasing order."""
    if n == 0:
        yield ()
        return
    for prefix in _rgs(n - 1, kmax):
        for c in range(min(max(prefix, default=-1) + 2, kmax)):
            yield prefix + (c,)


def _tiny_traces(max_ops: int):
    for n in range(1, max_ops + 1):
        for procs in _rgs(n, 3):
            for vars_ in _rgs(n, 2):
                for kinds in itertools.product("RW", repeat=n):
                    for vals in itertools.product((1, 2), repeat=n):
                        yield Trace.build(
                            (f"p{p}", k, "xy"[v], val)
                            for p, k, v, val in zip(procs, kinds, vars_, vals)
                        )


def _exhaustive(trace: Trace, focus: str) -> bool:
    """Try every permutation of the visible operations."""
    ops = [o for o in trace.ops if o.is_write or o.process == focus]
    for perm in itertools.permutations(ops):
        last_index: dict[str, int] = {}
        store: dict[str, int] = {}
        for o in perm:
            if last_index.get(o.process, -1) > o.index:
                break
            last_index[o.process] = o.index
            if o.is_write:
                store[o.variable] = o.value
            elif store.get(o.variable) != o.value:
                break
        else:
            return True
    return False


def test_reference_agrees_with_exhaustive_search_on_all_tiny_traces():
    checked = 0
    for trace in _tiny_traces(4):
        for focus in trace.processes:
            assert reference_consistent(trace, focus) == _exhaustive(trace, focus), (
                trace.rows(), focus)
            checked += 1
    assert checked > 50_000


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_deterministic_per_seed(name, tmp_path):
    first = workloads.build(name, 5, tmp_path / "a")
    again = workloads.build(name, 5, tmp_path / "b")
    other = workloads.build(name, 6, tmp_path / "c")
    assert workloads.inputs_sha256(first) == workloads.inputs_sha256(again)
    assert workloads.inputs_sha256(first) != workloads.inputs_sha256(other)
    assert [r.argv()[2:] for r in first.requests] == [r.argv()[2:] for r in again.requests]
    deep = {id(r.input) for r in first.deep}
    assert not deep & {id(r.input) for r in first.requests}  # never timed
    assert len(first.deep) == (3 if name == "dup-mix" else 0)


def test_flag_transform_keeps_small_traces_consistent():
    with_duplicates = 0
    for seed in range(150):
        flagged = workloads.flag_trace(gen_pram_trace(seed, processes=4, variables=3, ops=24))
        values = [(o.variable, o.value) for o in flagged.ops if o.is_write]
        with_duplicates += len(values) != len(set(values))
        for focus in flagged.processes:
            assert reference_consistent(flagged, focus), (seed, focus)
    assert with_duplicates > 100


def test_reduction_answers_match_the_library_solver():
    instances = workloads.reduction_instances()
    assert sum(feasible for _, feasible in instances) == 10
    for inst, feasible in instances:
        assert (solve_3partition(inst) is not None) == feasible


def test_percentile_counts_inf_samples_and_reports_sample_count():
    samples = [0.3, math.inf, 0.1, 0.2, math.inf]
    assert run.percentile(samples, 50) == (0.3, 5)
    assert run.percentile(samples, 90) == (math.inf, 5)
    assert run.percentile([2.0], 90) == (2.0, 1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_a_wrong_verdict_is_caught(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("p1 W x 1\np1 W x 2\np2 R x 2\np2 R x 1\n")
    trace = Trace.build([("p1", "W", "x", 1), ("p1", "W", "x", 2),
                         ("p2", "R", "x", 2), ("p2", "R", "x", 1)])
    right = workloads.Input("bad", trace, path=path, expected={"p1": True, "p2": False})
    flipped = workloads.Input("bad", trace, path=path, expected={"p1": True, "p2": True})
    for focus in (None, "p2"):
        for inp, ok in ((right, True), (flipped, False)):
            request = workloads.Request(inp, focus)
            sample = run.send(cli, request)
            assert (run.check_output(request, sample.code, sample.out) is None) == ok


def test_traced_run_rejects_a_bad_witness():
    from types import SimpleNamespace

    from pramcheck.legality import Schedule, check_pram_witness
    from pramcheck.rw_closure import Verdict

    trace = Trace.build([("p1", "W", "x", 1), ("p2", "R", "x", 1)])
    good = Verdict(True, "p2", "test", witness=Schedule([0, 1]))
    bad = Verdict(True, "p2", "test", witness=Schedule([1, 0]))
    for verdict, ok in ((good, True), (bad, False)):
        tracer = SimpleNamespace(verdicts=[(trace, "p2", verdict)])
        _, problem = run.recheck_witnesses(tracer, check_pram_witness)
        assert (problem is None) == ok
        assert tracer.verdicts == []


def test_host_speed_scales_by_the_probes_near_a_request():
    from hostspeed import REFERENCE_PROBE_S, HostSpeed

    speed = HostSpeed()
    speed.at = [0.0, 0.1, 0.2, 5.0, 5.1]
    speed.took = [1.0, 2.0, 3.0, 10.0, 30.0]
    assert speed.factor(0.05, 0.15) == 2.0  # probes within the window
    assert speed.factor(2.4, 2.5) == 3.0  # no probe within it: the nearest
    assert speed.factor(3.0, 4.6) == 20.0
    assert speed.factor(9.0, 9.5) == 30.0
    assert speed.scale(4.0, 9.0, 9.5) == 4.0 * REFERENCE_PROBE_S / 30.0
    assert speed.median(since=4.0) == 20.0
    speed.probe(2)
    assert len(speed.took) == 7 and speed.at == sorted(speed.at)
