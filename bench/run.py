"""Benchmark `pramcheck verify`: time to a checked verdict on seeded workloads.

    python3 bench/run.py --workload {gen-large,dup-mix,small-mix} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  One
single-threaded closed-loop client sends one request at a time: a request is
one in-process `pramcheck.cli.main([...])` call with stdout captured.  Every
verdict is compared with the input's known answer (see `workloads.py`).

With `--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics; with `--trace 1` the same loop runs with per-layer spans installed
(`tracing.py`) and the JSON holds the per-layer metrics, each a mean per
timed request.  Every time and rate in the JSON is in reference seconds: the
measured value scaled by the host-speed probe of `hostspeed.py`.  The lines
before it are a readable report, which also gives the wall-clock values.
Trace files go to `.bench_work/` under the repository root and are removed
afterwards.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # process start, as seen from this script

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # input builds per run; setup_s takes their median
WARMUP_REQUESTS = 3  # the smallest inputs, sent before the timed loop
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
PROBE_EVERY_S = 0.1  # host-speed probe period in the timed loop: about 2% of its time
SETUP_PROBES = 3  # probes after the imports, after each build and after the warm-up


@dataclass
class Sample:
    """One request's outcome; `seconds` is +inf unless it ended in a verdict."""

    request: object
    start: float  # perf_counter seconds
    elapsed: float
    seconds: float
    code: int | None
    out: str = ""
    error: str | None = None
    wrong: str | None = None

    @property
    def failed(self) -> bool:
        return self.code not in (0, 1, 2)

    @property
    def decided(self) -> bool:
        return self.code in (0, 1)


def percentile(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the sample count; +inf samples sort last."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def shuffled(requests: list, seed: int) -> list:
    """A copy of `requests` in an order fixed by `seed`."""
    out = list(requests)
    random.Random(f"order:{seed}").shuffle(out)
    return out


def send(cli, request) -> Sample:
    """Make one request; a raised exception is recorded, not propagated.

    The output is checked later, with `check_output`, so that checking stays
    out of the timed loop.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(request.argv())
        except Exception as exc:  # a crash is a measured outcome, the run goes on
            error = type(exc).__name__
        elapsed = time.perf_counter() - t0
    seconds = elapsed if code in (0, 1) else math.inf
    return Sample(request, t0, elapsed, seconds, code, out.getvalue(), error)


def rescale(samples: list[Sample], speed) -> None:
    """Put every verdict's time in reference seconds; call once probes follow them."""
    for s in samples:
        if s.decided:
            s.seconds = speed.scale(s.elapsed, s.start, s.start + s.elapsed)


def check_output(request, code: int, out: str) -> str | None:
    """Why the output disagrees with the known answer, or None if it agrees."""
    inp = request.input
    if request.focus is None:
        try:
            doc = json.loads(out)
            verdicts = {e["focus"]: e["verdict"] for e in doc["per_process"]}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON report: {exc}"
        focuses = list(inp.trace.processes)
    else:
        verdicts = {}
        for line in out.splitlines():
            if line.startswith("focus ") and ": " in line:
                focus, rest = line[len("focus ") :].split(": ", 1)
                verdicts[focus] = rest.split(" ", 1)[0]
        focuses = [request.focus]
    if sorted(verdicts) != sorted(focuses):
        return f"reported focuses {sorted(verdicts)}, expected {sorted(focuses)}"
    for focus in focuses:
        got = verdicts[focus]
        if got == "timeout":
            continue
        if got not in ("consistent", "inconsistent"):
            return f"focus {focus}: unknown verdict {got!r}"
        if (got == "consistent") != inp.answer(focus):
            return f"focus {focus}: {got}, known answer is the opposite"
    states = set(verdicts.values())
    want = 1 if "inconsistent" in states else 2 if "timeout" in states else 0
    if code != want:
        return f"exit code {code} for verdicts {sorted(states)}"
    if request.focus is None and doc["consistent"] != {0: True, 1: False, 2: None}[want]:
        return f"overall consistent={doc['consistent']!r} for verdicts {sorted(states)}"
    return None


def recheck_witnesses(tracer, check_pram_witness) -> tuple[float, str | None]:
    """Check every accepted witness of the last request; seconds spent and any failure."""
    t0 = time.perf_counter()
    problem = None
    for trace, focus, result in tracer.verdicts:
        if getattr(result, "consistent", False):
            check = check_pram_witness(trace, focus, result.witness)
            if not check and problem is None:
                problem = f"focus {focus}: witness rejected: {check.reason}"
    tracer.verdicts.clear()
    return time.perf_counter() - t0, problem


def scaling_exponent(samples: list[Sample]) -> tuple[float, int]:
    """Log-log slope of median request time over the inputs' size classes."""
    groups: dict[int, list[Sample]] = {}
    for s in samples:
        if s.request.input.size is not None:
            groups.setdefault(s.request.input.size, []).append(s)
    if len(groups) < 2:
        raise ValueError("the scaling ladder needs at least two size classes")
    points = [
        (statistics.median(s.request.input.n for s in group),
         percentile([s.seconds for s in group], 50)[0])
        for group in groups.values()
    ]
    if not all(math.isfinite(y) for _, y in points):
        return math.inf, sum(map(len, groups.values()))
    return loglog_slope(points), sum(map(len, groups.values()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="gen-large, dup-mix or small-mix")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pramcheck" / "cli.py").is_file():
        print(f"error: no pramcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from hostspeed import REFERENCE_PROBE_S, HostSpeed

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    imported = time.perf_counter()
    speed = HostSpeed()
    speed.probe(SETUP_PROBES)
    import_s = speed.scale(imported - _START, _START, imported)
    workroot = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, digest = None, None
        build_s, build_wall_s, write_s, gen_s, reduce_s = [], [], [], [], []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            built = workloads.build(args.workload, args.seed, workroot / f"build{k}")
            t1 = time.perf_counter()
            speed.probe(SETUP_PROBES)
            to_ref = REFERENCE_PROBE_S / speed.factor(t0, t1)
            build_wall_s.append(t1 - t0)
            write_s.append(built.write_seconds)
            # creating the files is the file system's time, not the program's,
            # and varies far more from run to run than anything else here
            build_s.append((t1 - t0 - built.write_seconds) * to_ref)
            gen_s.append(built.gen_seconds * to_ref)
            reduce_s.append(built.reduce_seconds * to_ref)
            if workload is None:
                workload, digest = built, workloads.inputs_sha256(built)
            elif workloads.inputs_sha256(built) != digest:
                raise RuntimeError("the same seed produced different trace files")
            else:
                shutil.rmtree(workroot / f"build{k}")
        setup = {
            "before_warmup_s": import_s + statistics.median(build_s),
            "before_warmup_wall_s": imported - _START + statistics.median(build_wall_s),
            "write_wall_s": statistics.median(write_s),
            "tracegen.gen_pram_trace_s": statistics.median(gen_s),
            "reduction.reduce_3partition_s": statistics.median(reduce_s),
        }
        return measure(args, workload, digest, setup, speed)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.parent.rmdir()


def measure(args, workload, digest: str, setup: dict[str, float], speed) -> int:
    from pramcheck import cli
    from hostspeed import REFERENCE_PROBE_S
    from pramcheck.legality import check_pram_witness
    from tracing import Tracer

    tracer = Tracer()
    traced = args.trace == 1
    all_samples: list[Sample] = []
    outputs: dict[str, str] = {}  # one copy of each distinct output
    recheck_s = 0.0
    probing, next_probe = False, 0.0

    def run(request) -> Sample:
        nonlocal recheck_s, next_probe
        if probing and time.perf_counter() >= next_probe:
            speed.probe()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        sample = send(cli, request)
        sample.out = outputs.setdefault(sample.out, sample.out)
        if traced:
            dt, problem = recheck_witnesses(tracer, check_pram_witness)
            recheck_s += dt
            sample.wrong = sample.wrong or problem
        all_samples.append(sample)
        return sample

    with tracer.install() if traced else contextlib.nullcontext():
        warmup = []
        for request in sorted(workload.requests, key=lambda r: r.input.n)[:WARMUP_REQUESTS]:
            speed.probe()
            warmup.append(run(request))
        speed.probe(SETUP_PROBES)
        setup_wall_s = setup["before_warmup_wall_s"] + sum(s.elapsed for s in warmup)
        setup_s = setup["before_warmup_s"] + sum(
            speed.scale(s.elapsed, s.start, s.start + s.elapsed) for s in warmup)
        tracer.reset()
        recheck_s = 0.0
        probing = True

        order = shuffled(workload.requests, args.seed)
        timed: list[Sample] = []
        t0 = time.perf_counter()
        while (
            len(timed) < max(len(order), MIN_REQUESTS)
            or time.perf_counter() - t0 < args.seconds
        ):
            timed.append(run(order[len(timed) % len(order)]))
        t1 = time.perf_counter()
        wall = t1 - t0
        speed.probe()
        to_ref = REFERENCE_PROBE_S / speed.median(since=t0)
        layers = layer_metrics(tracer, setup, len(timed), recheck_s, to_ref) if traced else {}
        # all rungs of an untimed ladder are sent interleaved, so that a
        # change in the host's speed moves them alike
        ladder = [run(r) for r in shuffled(workload.scaling, args.seed)] or timed
        speed.probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # known-defect requests: sent once, untimed and outside `attempted`, but
    # their verdicts are checked like all others
    deep = [send(cli, r) for r in workload.deep]
    all_samples += deep
    wall_times = [s.seconds for s in timed]
    rescale(timed, speed)
    if ladder is not timed:
        rescale(ladder, speed)

    checked: dict[tuple[int, int, str], str | None] = {}
    for s in all_samples:
        if not s.failed:
            key = (id(s.request), s.code, s.out)
            if key not in checked:
                checked[key] = check_output(s.request, s.code, s.out)
            s.wrong = s.wrong or checked[key]

    slope, ladder_n = scaling_exponent(ladder)
    n = len(timed)
    failed = [s for s in timed if s.failed]
    wrong = [s for s in all_samples if s.wrong]
    times = [s.seconds for s in timed]
    p50, count = percentile(times, 50)
    p90, _ = percentile(times, 90)
    busy_s = sum(speed.scale(s.elapsed, s.start, s.start + s.elapsed) for s in timed)
    causes = dict(Counter(s.error or f"exit {s.code}" for s in failed))

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"inputs_sha256 {digest}  ({len(workload.inputs)} trace files, "
          f"{len(workload.requests)} distinct requests)")
    print(f"timed requests {n} in {wall:.2f} s; budget timeouts "
          f"{sum(s.code == 2 for s in timed)}; failed {len(failed)} {causes or ''}")
    if deep:
        deep_failed = [s for s in deep if s.failed]
        print(f"known defect (ROADMAP item 3), untimed: {len(deep_failed)} of {len(deep)} "
              f"requests on a {deep[0].request.input.n}-operation duplicate-value trace "
              f"failed {dict(Counter(s.error or f'exit {s.code}' for s in deep_failed)) or ''}")
    for s in wrong[:5]:
        print(f"  WRONG {s.request.argv()}: {s.wrong}")
    print(f"wall clock: request p50 {percentile(wall_times, 50)[0]:.6g} s, "
          f"p90 {percentile(wall_times, 90)[0]:.6g} s, {(n - len(failed)) / wall:.6g} "
          f"requests/s, setup {setup_wall_s:.6g} s with {setup['write_wall_s']:.6g} s "
          f"creating trace files; host-speed probe median "
          f"{speed.median(since=t0):.6g} s in the loop, {speed.median(until=t0):.6g} s "
          f"before it ({len(speed.took)} probes; reference {REFERENCE_PROBE_S} s)")

    # printed, but without a bound: both are 0 on some workloads
    report = {
        "failed_frac": (len(failed) / n, "ratio", n),
        "wrong_verdicts": (len(wrong), "count", len(all_samples)),
    }
    scaling = {"scaling_exp": (slope, "1", ladder_n)}
    if traced:
        metrics = {"traced.request_s_p50": (p50, "s", count), **scaling, **layers,
                   "oracle.deep_trace_failed": (sum(s.failed for s in deep), "count", len(deep))}
    else:
        metrics = {
            "request_s_p50": (p50, "s", count),
            "request_s_p90": (p90, "s", count),
            "requests_per_s": ((n - len(failed)) / busy_s, "1/s", n),
            "decided_frac": (sum(s.decided for s in timed) / n, "ratio", n),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
            "setup_s": (setup_s, "s", SETUP_REPEATS),
        }
        report.update(scaling)
    for name, (value, unit, samples) in {**metrics, **report}.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")

    bad = [name for name, (value, _, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: {', '.join(bad)} not finite: too many requests failed or timed out",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not wrong,
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, setup: dict[str, float], n: int, recheck_s: float,
                  to_ref: float) -> dict:
    """Per-layer metrics of the timed loop, each a mean per timed request.

    Loop times are multiplied by `to_ref` to put them in reference seconds;
    the set-up ones in `setup` already are.
    """
    per = lambda table, key: table.get(key, 0) / n  # noqa: E731
    calls, counts = tracer.calls, tracer.counts
    oracle_calls = calls["oracle.verify"]
    oracle_failed = counts["oracle.timeouts"] + counts["oracle.verify.raised"]
    out = {}
    for key in ("opgraph.close", "opgraph.downset", "opgraph.topo_sort",
                "read_centric.final_graph", "rw_closure.build_dag_schedule",
                "read_centric.verify", "read_centric.update_reachability",
                "oracle.verify", "model.parse_trace", "model.classify",
                "model.visible", "model.build_read_mapping"):
        out[key + "_s"] = (per(tracer.seconds, key) * to_ref, "s")
    out["read_centric.self_s"] = (per(tracer.self_seconds, "read_centric.verify") * to_ref, "s")
    out["cli.self_s"] = (per(tracer.self_seconds, "cli") * to_ref, "s")
    for key in ("opgraph.close", "read_centric.update_reachability",
                "read_centric.topo_schedule"):
        out[key + "_calls"] = (per(calls, key), "count")
    for key in ("opgraph.close_nodes", "read_centric.rulec_edges", "opgraph.edges_PO",
                "opgraph.edges_WR", "opgraph.edges_WpW", "oracle.timeouts"):
        out[key] = (per(counts, key), "count")
    out["oracle.calls"] = (per(calls, "oracle.verify"), "count")
    out["oracle.crashes"] = (per(counts, "oracle.verify.raised"), "count")
    out["oracle.decided_ratio"] = (
        (oracle_calls - oracle_failed) / oracle_calls if oracle_calls else 0.0, "ratio")
    out["oracle.timeout_states_per_s"] = (
        tracer.timeout_states / (tracer.timeout_seconds * to_ref)
        if tracer.timeout_seconds else 0.0, "1/s")
    out["legality.check_pram_witness_s"] = (recheck_s / n * to_ref, "s")
    for key in ("tracegen.gen_pram_trace_s", "reduction.reduce_3partition_s"):
        out[key] = (setup[key], "s")  # per input build, not per request
    return {name: (value, unit, n) for name, (value, unit) in out.items()}


if __name__ == "__main__":
    sys.exit(main())
