"""Seeded benchmark inputs, the requests made on them, and their known answers.

Every input is generated from the workload seed, serialized with
`serialize_trace` and written to a trace file; the program only ever sees
those files.  Each input carries the verdict it must get from every focus:

* unmutated `gen_pram_trace` traces are PRAM-consistent by construction (the
  generator simulates per-writer FIFO replicas);
* flag traces map values through a function and drop reads, and both keep a
  legal schedule legal, so they stay consistent;
* a 3-Partition reduction is consistent from `P0` exactly when the instance is
  feasible: a feasible instance is confirmed by checking its partition-induced
  witness with `check_pram_witness`, and infeasibility is established by the
  exhaustive `find_partition` below;
* the mixed small traces get their verdicts from the independent reference
  decider in `reference.py`, computed only for inputs a run actually requests.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from pramcheck import reduction, tracegen
from pramcheck.legality import check_pram_witness
from pramcheck.model import READ, MutationError, Trace, serialize_trace
from pramcheck.oracle import ThreePartitionInstance

from reference import reference_consistent

DUP_BUDGET = 5_000

# gen-large: traces of the polynomial path at scale.
LARGE = dict(processes=16, variables=2, read_fraction=0.35)
LARGE_OPS = 1600
LARGE_TRACES = 7
SCALING_OPS = (400, 800)
SCALING_TRACES = 3
SCALING_FOCUSES = 8

# dup-mix: ops -> duplicate-value traces per run, and flag traces per run,
# all with 4 processes so that their request costs overlap.
DUP_TRACES = {75: 110, 100: 380}
FLAG_TRACES = {100: 75}
# raises RecursionError in the oracle today (ROADMAP item 3): sent once per
# run after the timed loop, so that no timed request fails
DEEP_SEED, DEEP_OPS = 1, 3000

SMALL_TRACES = 400


@dataclass
class Input:
    """One trace file and the verdict each focus must get on it."""

    name: str
    trace: Trace
    size: int | None = None  # size class on the workload's scaling ladder
    path: Path | None = None
    expected: dict[str, bool] = field(default_factory=dict)  # focus -> consistent
    decide: Callable[[Trace, str], bool] | None = None  # fills in missing answers

    @property
    def n(self) -> int:
        return self.trace.n

    def answer(self, focus: str) -> bool:
        if focus not in self.expected:
            self.expected[focus] = self.decide(self.trace, focus)
        return self.expected[focus]


@dataclass
class Request:
    """One `pramcheck` invocation; `focus` None means every focus, as JSON."""

    input: Input
    focus: str | None
    extra: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        args = ["verify", str(self.input.path)]
        if self.focus is None:
            args.append("--json")
        else:
            args += ["--focus", self.focus]
        return args + list(self.extra)


@dataclass
class Workload:
    """Everything a run needs: timed requests plus the scaling ladder."""

    name: str
    inputs: list[Input]
    requests: list[Request]
    scaling: list[Request] = field(default_factory=list)  # untimed size ladder
    deep: list[Request] = field(default_factory=list)  # untimed known-defect requests
    gen_seconds: float = 0.0  # time inside gen_pram_trace while building
    reduce_seconds: float = 0.0  # time inside reduce_3partition while building
    write_seconds: float = 0.0  # time the file system took to create the trace files


def all_consistent(trace: Trace) -> dict[str, bool]:
    return dict.fromkeys(trace.processes, True)


def flag_trace(trace: Trace) -> Trace:
    """Fold `z` values mod 2 and drop odd-numbered processes' reads of `z`.

    Focuses without `z` reads keep unambiguous reads although the trace now
    has duplicate values; the rest need the exponential search.
    """
    rows = []
    for proc, kind, var, val in trace.rows():
        if var == "z":
            if kind == READ and int(proc[1:]) % 2 == 1:
                continue
            val %= 2
        rows.append((proc, kind, var, val))
    return Trace.build(rows)


def find_partition(sizes: tuple[int, ...], B: int) -> list[tuple[int, int, int]] | None:
    """Index triples splitting `sizes` into triples that each sum to B, or None.

    Exhaustive, and independent of the solver in `pramcheck.oracle`.
    """

    def rec(left: tuple[int, ...]) -> list[tuple[int, int, int]] | None:
        if not left:
            return []
        a, rest = left[0], left[1:]
        for j, k in itertools.combinations(rest, 2):
            if sizes[a] + sizes[j] + sizes[k] == B:
                tail = rec(tuple(x for x in rest if x not in (j, k)))
                if tail is not None:
                    return [(a, j, k)] + tail
        return None

    return rec(tuple(range(len(sizes)))) if len(sizes) % 3 == 0 else None


def reduction_instances() -> list[tuple[ThreePartitionInstance, bool]]:
    """The ten feasible criterion-7 instances and the infeasible criterion-8 one."""
    out = []
    for m in (1, 2):
        for B in range(1, 11):
            legal = [s for s in range(1, B) if 4 * s > B and 2 * s < B]
            for sizes in itertools.combinations_with_replacement(legal, 3 * m):
                sizes = tuple(sorted(sizes, reverse=True))
                if sum(sizes) == m * B and find_partition(sizes, B) is not None:
                    out.append((ThreePartitionInstance(m, B, sizes), True))
    # no three of 4,4,4,4,4,6 sum to 13
    out.append((ThreePartitionInstance(2, 13, (4, 4, 4, 4, 4, 6)), False))
    if len(out) != 11:
        raise RuntimeError(f"expected 11 reduction instances, built {len(out)}")
    return out


class _Maker:
    """Makes one workload's inputs, timing the generator and reduction calls."""

    def __init__(self):
        self.gen_seconds = 0.0
        self.reduce_seconds = 0.0

    def gen(self, seed: int, **kwargs) -> Trace:
        t0 = time.perf_counter()
        trace = tracegen.gen_pram_trace(seed, **kwargs)
        self.gen_seconds += time.perf_counter() - t0
        return trace

    def reduce(self, inst: ThreePartitionInstance) -> Trace:
        t0 = time.perf_counter()
        trace = reduction.reduce_3partition(inst)
        self.reduce_seconds += time.perf_counter() - t0
        return trace


def _per_focus(inp: Input, extra: tuple[str, ...] = ()) -> list[Request]:
    return [Request(inp, focus, extra) for focus in inp.trace.processes]


# a maker returns the inputs, the timed requests, the scaling ladder and the
# known-defect requests
_Made = tuple[list[Input], list[Request], list[Request], list[Request]]


def _gen_large(b: _Maker, rng: random.Random) -> _Made:
    inputs, requests = [], []
    for k in range(LARGE_TRACES):
        t = b.gen(rng.randrange(2**32), ops=LARGE_OPS, **LARGE)
        inp = Input(f"large-{k}", t, LARGE_OPS, expected=all_consistent(t))
        inputs.append(inp)
        requests += _per_focus(inp)
    ladder = inputs[:SCALING_TRACES]  # the 1600-op rung reuses timed inputs
    for ops in SCALING_OPS:
        for k in range(SCALING_TRACES):
            t = b.gen(rng.randrange(2**32), ops=ops, **LARGE)
            ladder.append(Input(f"scale{ops}-{k}", t, ops, expected=all_consistent(t)))
    inputs += ladder[SCALING_TRACES:]
    scaling = [
        Request(inp, f)
        for inp in ladder
        for f in rng.sample(sorted(inp.trace.processes), SCALING_FOCUSES)
    ]
    return inputs, requests, scaling, []


def _dup_mix(b: _Maker, rng: random.Random) -> _Made:
    budget = ("--budget", str(DUP_BUDGET))
    inputs = []
    for ops, count in DUP_TRACES.items():
        for k in range(count):
            t = b.gen(rng.randrange(2**32), processes=4, variables=2, ops=ops, policy="duplicate")
            inputs.append(Input(f"dup{ops}-{k}", t, ops, expected=all_consistent(t)))
    for ops, count in FLAG_TRACES.items():
        for k in range(count):
            t = flag_trace(b.gen(rng.randrange(2**32), processes=4, variables=3, ops=ops))
            inputs.append(Input(f"flag{ops}-{k}", t, expected=all_consistent(t)))
    requests = [r for inp in inputs for r in _per_focus(inp, budget)]
    for i, (inst, feasible) in enumerate(reduction_instances()):
        t = b.reduce(inst)
        if feasible:
            partition = find_partition(inst.sizes, inst.B)
            witness = reduction.build_partition_witness(t, inst, partition)
            check = check_pram_witness(t, reduction.FOCUS, witness)
            if not check:
                raise RuntimeError(f"partition witness rejected for {inst}: {check.reason}")
        expected = dict.fromkeys(t.processes, True)
        expected[reduction.FOCUS] = feasible
        inp = Input(f"3part-{i}", t, expected=expected)
        inputs.append(inp)
        requests.append(Request(inp, reduction.FOCUS, budget))
    deep = b.gen(DEEP_SEED, ops=DEEP_OPS, policy="duplicate")
    inp = Input("deep", deep, expected=all_consistent(deep))
    inputs.append(inp)
    return inputs, requests, [], _per_focus(inp, budget)


def _small_mix(b: _Maker, rng: random.Random) -> _Made:
    inputs = []
    for k in range(SMALL_TRACES):
        seed = rng.randrange(2**32)
        policy = "unique" if k % 2 == 0 else "duplicate"
        t = b.gen(seed, processes=3, variables=2, ops=10 + rng.randrange(31), policy=policy)
        if rng.random() < 0.6:
            try:
                t = tracegen.mutate_trace(seed, t, rng.choice(tracegen.MUTATIONS))
            except MutationError:
                pass
        size = min(t.n // 10, 3) * 10  # 10-19, 20-29 and 30-40 operations
        inputs.append(Input(f"small-{k}", t, size, decide=reference_consistent))
    return inputs, [Request(inp, None) for inp in inputs], [], []


_MAKERS = {"gen-large": _gen_large, "dup-mix": _dup_mix, "small-mix": _small_mix}
WORKLOADS = tuple(_MAKERS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate workload `name` for `seed` and write its trace files to `workdir`."""
    b = _Maker()
    rng = random.Random(f"{name}:{seed}")
    inputs, requests, scaling, deep = _MAKERS[name](b, rng)
    texts = [serialize_trace(inp.trace) for inp in inputs]
    t0 = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    for i, (inp, text) in enumerate(zip(inputs, texts)):
        inp.path = workdir / f"{i:04d}-{inp.name}.trace"
        inp.path.write_text(text)
    write_seconds = time.perf_counter() - t0
    return Workload(name, inputs, requests, scaling, deep,
                    b.gen_seconds, b.reduce_seconds, write_seconds)


def inputs_sha256(workload: Workload) -> str:
    """Hash of every trace file's name and bytes, in a fixed order."""
    h = hashlib.sha256()
    for inp in workload.inputs:
        h.update(inp.path.name.encode())
        h.update(b"\0")
        h.update(inp.path.read_bytes())
    return h.hexdigest()
