"""Metamorphic relations at scale: one verifier run twice, on a trace and on
a transformed copy whose answer follows from the first run's.

Brute force stops at a few operations, and the cross-verifier tests compare
the verifiers only with each other.  A relation checks a verifier against
itself, on traces of up to 12,800 operations and on duplicate values for the
oracle.  Each relation's proof is in its test's docstring, and each catches
a planted defect on a 1,600-operation trace.  The fourth relation, dropping a
focus read, is tested in `test_read_centric.py`.

The traces: the `gen` ladder of 1,600 to 12,800 operations (16 processes);
one 1,600-operation trace per mutation kind; the three chain shapes at
K = 1,000; the re-read family at K = 200, where one read-centric run takes
0.15 s (3.5 s at K = 1,000, where a CI step runs the relabelling and
appended-write checks below); twelve `dup-mix`-shaped duplicate-value
traces; and 36 small traces, unique and duplicate, each with one mutation.
An oracle run is budgeted, and a timeout on either side skips the pair.
"""

import functools
import random
from functools import partial

import pytest

from pramcheck import (
    MUTATIONS,
    DuplicateValueError,
    MutationError,
    OperationGraph,
    Schedule,
    Trace,
    Verdict,
    check_pram_witness,
    gen_pram_trace,
    mutate_trace,
    verify_rw_closure,
)
from pramcheck.oracle import OracleTimeout, oracle_verify
from pramcheck.read_centric import ReadCentricChecker, verify_read_centric
from testutil import chain_trace, reread_trace
from test_read_centric import CHAIN_SHAPES

VERIFIERS = {
    "read-centric": verify_read_centric,
    "rw-closure": verify_rw_closure,
    "oracle": partial(oracle_verify, max_states=5000),
}
ADDED = "added"  # the process and the variable that `_add_writer` adds


def _gen(seed: int, ops: int) -> Trace:
    return gen_pram_trace(seed, processes=16, variables=2, ops=ops, read_fraction=0.35)


@functools.cache
def _cases() -> tuple[tuple[Trace, dict[str, tuple[str, ...]]], ...]:
    """(trace, verifier name -> foci), built once for every relation."""
    rng = random.Random(32)
    cases = []
    for ops in (1600, 3200, 6400, 12800):
        t = _gen(ops, ops)
        foci = sorted(t.processes)
        if ops == 1600:
            cases.append((t, {"read-centric": foci, "rw-closure": foci[:6]}))
        else:
            cases.append((t, {"read-centric": rng.sample(foci, 3)}))
    for kind in MUTATIONS:
        t = mutate_trace(7, _gen(7, 1600), kind)
        foci = sorted(t.processes)
        cases.append((t, {"read-centric": foci, "rw-closure": foci[:6]}))
    for shape, at in CHAIN_SHAPES.items():
        cases.append((chain_trace(1000, None if at is None else at * 1000), {"read-centric": ["f"]}))
    cases.append((reread_trace(200), {"read-centric": ["f"]}))
    for k in range(12):  # dup-mix's shape
        t = gen_pram_trace(rng.randrange(2**32), processes=4, variables=2, ops=(75, 100)[k % 2], policy="duplicate")
        cases.append((t, dict.fromkeys(VERIFIERS, list(t.processes))))
    for k in range(36):  # rejections of every mutation kind, so that cycles are compared too
        policy = ("unique", "duplicate")[k % 2]
        t = gen_pram_trace(rng.randrange(2**32), processes=4, variables=2, ops=40, policy=policy)
        try:
            t = mutate_trace(k, t, MUTATIONS[k % 3])
        except MutationError:
            pass
        cases.append((t, dict.fromkeys(VERIFIERS, list(t.processes))))
    return tuple(cases)


def _run(verify, t: Trace, focus: str) -> Verdict | str | None:
    """The verdict; "refused" when a focus read has several candidate writes;
    None for an oracle timeout."""
    try:
        v = verify(t, focus)
    except DuplicateValueError:
        return "refused"
    return None if isinstance(v, OracleTimeout) else v


def _outcome(v: Verdict | str) -> bool | str:
    return v.consistent if isinstance(v, Verdict) else v


def _evidence(v: Verdict | str):
    """The verdict, its witness and its cycle, and the reason it gives with a
    cycle; an unmatched read's reason names its value, so it is left out."""
    if not isinstance(v, Verdict):
        return v
    cycle = None if v.cycle is None else (v.cycle.nodes, v.cycle.tags)
    return v.consistent, v.witness, cycle, None if cycle is None else v.reason


# -- the transformations -------------------------------------------------------


def _relabel_values(t: Trace, scale: int) -> Trace:
    """Each value v becomes scale * v + 1000: injective within every variable."""
    return Trace.build((p, kind, x, scale * v + 1000) for p, kind, x, v in t.rows())


def _rename_variables(t: Trace) -> Trace:
    """Variables renamed one to one, so that their names sort in reverse order."""
    names = sorted({o.variable for o in t.ops})
    new = {x: f"v{len(names) - i:06d}" for i, x in enumerate(names)}
    return Trace.build((p, kind, new[x], v) for p, kind, x, v in t.rows())


def _rename_processes(t: Trace) -> tuple[Trace, dict[str, str]]:
    """Processes renamed one to one, so that their names sort in reverse
    order, with every row in place; and the renaming."""
    names = sorted(t.processes)
    new = {p: f"q{len(names) - i:06d}" for i, p in enumerate(names)}
    return Trace.build((new[p], kind, x, v) for p, kind, x, v in t.rows()), new


def _append_fresh_write(t: Trace, p: str, var: str) -> tuple[Trace, int]:
    """`t` with a write of a value new to `var` at the end of p's section, and its index."""
    rows = t.rows()
    at = t.processes[p][-1].index + 1  # sections are index runs
    fresh = 1 + max((v for _, _, x, v in rows if x == var), default=0)
    rows.insert(at, (p, "W", var, fresh))
    return Trace.build(rows), at


def _add_writer(t: Trace, writes: int = 5) -> Trace:
    """`t` with a last process that writes `writes` values to a new variable."""
    assert ADDED not in t.processes and all(o.variable != ADDED for o in t.ops)
    return Trace.build(t.rows() + [(ADDED, "W", ADDED, v) for v in range(1, writes + 1)])


# -- the relations --------------------------------------------------------------


def _assert_relabelling_keeps_evidence(verify, exact: bool, t: Trace, copies, focus: str) -> int:
    """Relabelled copies of `t`, each with its renaming of processes (a
    process it leaves out keeps its name): with `exact`, the same verdict,
    witness and cycle; else the same verdict, and each witness legal on the
    copy.  Returns the pairs compared."""
    v = _run(verify, t, focus)
    checked = 0
    for u, new in copies:
        f = new.get(focus, focus)
        w = _run(verify, u, f)
        if v is None or w is None:
            continue
        if exact:
            assert _evidence(w) == _evidence(v), focus
        else:
            assert _outcome(w) == _outcome(v), focus
            if isinstance(v, Verdict) and v.consistent:
                assert check_pram_witness(u, f, v.witness).ok, focus
                assert check_pram_witness(u, f, w.witness).ok, focus
        checked += 1
    return checked


def _assert_added_writes_keep_the_verdict(verify, t, u, focus, shift, added) -> int:
    """`u` is `t` with writes added that no focus read reads: the same
    verdict, and the old witness, its indices moved by `shift`, followed by
    `added`, is legal on `u`.  Returns 1 if the pair was compared."""
    v, w = _run(verify, t, focus), _run(verify, u, focus)
    if v is None or w is None:
        return 0
    assert _outcome(w) == _outcome(v), focus
    if isinstance(v, Verdict) and v.consistent:
        sched = Schedule([shift(i) for i in v.witness] + added)
        assert check_pram_witness(u, focus, sched).ok, focus
    return 1


def _check_relabelling(verifiers, cases) -> int:
    checked = 0
    for t, foci_of in cases:
        copies = [(_relabel_values(t, 7), {}), (_relabel_values(t, -3), {}), (_rename_variables(t), {})]
        copies.append(_rename_processes(t))
        for name, foci in foci_of.items():
            for focus in foci:
                exact = name != "oracle"
                checked += _assert_relabelling_keeps_evidence(verifiers[name], exact, t, copies, focus)
    return checked


def _check_appended_write(verifiers, cases, rng: random.Random) -> int:
    checked = 0
    for t, foci_of in cases:
        variables = sorted({o.variable for o in t.ops})
        for focus in sorted(set().union(*foci_of.values())):
            p = rng.choice([q for q in t.processes if q != focus])
            u, at = _append_fresh_write(t, p, rng.choice(variables))
            shift = lambda i, at=at: i + (i >= at)  # noqa: E731
            for name, foci in foci_of.items():
                if focus in foci:
                    checked += _assert_added_writes_keep_the_verdict(
                        verifiers[name], t, u, focus, shift, [at]
                    )
    return checked


def _check_added_writer(verifiers, cases) -> int:
    checked = 0
    for t, foci_of in cases:
        u = _add_writer(t)
        added = list(range(len(t.ops), len(u.ops)))
        for name, foci in foci_of.items():
            for focus in foci:
                checked += _assert_added_writes_keep_the_verdict(
                    verifiers[name], t, u, focus, lambda i: i, added
                )
    return checked


def test_relabelling_keeps_every_verdict_witness_and_cycle():
    """An injective renaming of values within each variable, or a one-to-one
    renaming of variables, keeps every verdict, and the polynomial verifiers'
    witnesses and cycles index for index.

    Proof: the renaming keeps every row in place, so every index.  A read
    returns the value of the last write on its variable before it in a
    schedule exactly when it does so after the renaming, which is one to one
    on each variable's values; the same schedules are legal.  A read's
    candidate writes are the same operations, so refusals are kept too.
    The polynomial verifiers compare only indices, order keys and variables
    for equality, so they add the same edges in the same order.  The oracle
    orders its variable slots by name, so a renaming can change its search
    and its witness: both witnesses are checked on the renamed trace instead.
    Values go through v -> 7v + 1000 and v -> -3v + 1000, which reverses
    their order, and variable names are reversed in sort order.

    A one-to-one renaming of processes, with the focus mapped along, keeps
    every verdict too, and the polynomial verifiers' evidence index for
    index.  Proof: it keeps every row in place, so every index, and every
    process's operations in the same program order.  Legality of a schedule
    reads processes only through program order and through which process is
    the focus, and both are mapped along, so the same schedules are legal
    and the same writes are candidates.  The polynomial verifiers order
    processes by where their sections lie in the trace, never by name, so
    they add the same edges in the same order.  The oracle seeds its restart
    shuffles with the focus's name, so its witness is checked on the renamed
    trace instead.  Process names are reversed in sort order."""
    checked = _check_relabelling(VERIFIERS, _cases())
    assert checked >= 800, checked


def test_appending_a_fresh_write_keeps_every_verdict():
    """A write of a value that no operation on its variable has, appended at
    the end of a process other than the focus, keeps every verdict.

    Proof: given a legal schedule of the focus's view, the same schedule with
    the new write placed last is legal: it is last in its process, and no
    read follows it.  Conversely, no read returns the fresh value, so in a
    legal schedule of the larger trace no read lies between the new write and
    the next write on its variable; removing it leaves each read's last write
    on its variable as it was, and the schedule legal.  A read's candidate
    writes are unchanged, so refusals are kept too.  The old witness plus the
    write, placed last, is checked on the larger trace."""
    checked = _check_appended_write(VERIFIERS, _cases(), random.Random(5))
    assert checked >= 250, checked


def test_adding_a_writer_of_an_unread_variable_keeps_every_verdict():
    """A new last process that writes only a variable no focus reads keeps
    every verdict.

    Proof: as for the appended write.  The new writes are in program order
    and no read reads their variable, so they can be placed last in any legal
    schedule, or removed from one, without changing the last write on any
    read's variable.  The old witness plus the new process's writes, placed
    last, is checked on the larger trace."""
    checked = _check_added_writer(VERIFIERS, _cases())
    assert checked >= 250, checked


# -- planted defects ----------------------------------------------------------------


class _ValueOrderedGraph(OperationGraph):
    """`topo_sort` breaking ties between ready operations by value."""

    ops = ()

    def topo_sort(self, block):
        value = {v: self.ops[v].value for v in block}
        return super().topo_sort({v: (b, value[v]) for v, b in block.items()})


class _TiesByValue(ReadCentricChecker):
    """Planted defect: the witness sort breaks ties between ready operations
    by written value, where it must by index.  Its witnesses stay legal."""

    def __init__(self, trace, focus):
        super().__init__(trace, focus)
        self.graph = _ValueOrderedGraph()
        self.graph.ops = trace.ops


def _tied_by_value(t, focus):
    return _TiesByValue(t, focus).run()


def _short_of_each_last_operation(t, focus):
    """Planted defect: an off-by-one that reads every section but the
    focus's without its last operation."""
    last = {s[-1].index for p, s in t.processes.items() if p != focus}
    return verify_read_centric(Trace.build(r for o, r in zip(t.ops, t.rows()) if o.index not in last), focus)


def _short_of_the_last_process(t, focus):
    """Planted defect: an off-by-one that reads the trace without its last
    process, unless that is the focus."""
    last = list(t.processes)[-1]
    if last == focus:
        return verify_read_centric(t, focus)
    return verify_read_centric(Trace.build(r for r in t.rows() if r[0] != last), focus)


class _SectionsByName(dict):
    """Variable -> a focus-read variable's per-process write lists, handed
    out sorted by process name; `get` still gives the list itself."""

    def __init__(self, lw, ops):
        super().__init__(lw)
        self.ops = ops

    def __getitem__(self, var):
        return sorted(super().__getitem__(var), key=lambda ws: self.ops[ws[0]].process)


class _PassByName(ReadCentricChecker):
    """Planted defect: the proactive pass visits the processes that wrote on
    r's variable in name order, where it must in section order.  Only which
    source a rejection names, and so its cycle, can change."""

    def __init__(self, trace, focus):
        super().__init__(trace, focus)
        self.lw = _SectionsByName(self.lw, self.ops)


def _passed_by_name(t, focus):
    return _PassByName(t, focus).run()


def _defect_case():
    """A 1,600-operation trace, and the same with swapped write values, where
    two processes' writes close a cycle at one read."""
    t = _gen(1, 1600)
    u = mutate_trace(1, t, "swap-write-values")
    return tuple((x, {"read-centric": sorted(x.processes)}) for x in (t, u))


@pytest.mark.parametrize(
    "check,defect",
    [
        (_check_relabelling, _tied_by_value),
        (_check_relabelling, _passed_by_name),
        (partial(_check_appended_write, rng=random.Random(5)), _short_of_each_last_operation),
        (_check_added_writer, _short_of_the_last_process),
    ],
    ids=["relabelling", "renamed-processes", "appended-write", "added-writer"],
)
def test_each_relation_catches_its_planted_defect(check, defect):
    """On a 1,600-operation trace, each relation holds for read-centric and
    fails for its defect."""
    cases = _defect_case()
    assert check({"read-centric": verify_read_centric}, cases)
    with pytest.raises(AssertionError):
        check({"read-centric": defect}, cases)
