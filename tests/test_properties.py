"""Property tests: the verifiers against brute force on generated small traces.

Hypothesis draws traces of 2-3 processes, 1-2 variables and at most 10
operations, with unique or repeated write values.  The witness test adds
`gen_pram_trace` traces of up to 120 operations.  The profile is fixed and
derandomized, so every run checks the same examples.  The per-trace tables
`Trace.write_sections` and `Trace.variant` are checked against their first
definitions on the same traces and on the `gen` ladder.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pramcheck import (
    DuplicateValueError,
    Trace,
    check_pram_witness,
    gen_pram_trace,
    oracle_verify,
    verify_read_centric,
    verify_rw_closure,
    visible,
)
from testutil import (
    brute_force_consistent,
    reference_dag_schedule,
    reference_variant,
    reference_write_sections,
    verify_read_centric_checked,
)

PROFILE = settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_traces(draw) -> Trace:
    processes = draw(st.integers(2, 3))
    variables = "xy"[: draw(st.integers(1, 2))]
    unique = draw(st.booleans())
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(1, processes),
                st.sampled_from("RW"),
                st.sampled_from(variables),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=10,
        )
    )
    total = {var: sum(1 for op in ops if op[1:3] == ("W", var)) for var in variables}
    written = dict.fromkeys(variables, 0)
    rows = []
    for proc, kind, var, value in ops:
        if unique and kind == "W":  # 1, 2, ... per variable
            value = written[var] = written[var] + 1
        elif unique:  # any value written to var, or one nobody wrote
            value = draw(st.integers(1, total[var] + 1))
        rows.append((f"p{proc}", kind, var, value))
    return Trace.build(rows)


@PROFILE
@given(small_traces())
def test_verifiers_agree_with_brute_force(trace):
    for focus in trace.processes:
        want = brute_force_consistent(trace, focus)
        oracle = oracle_verify(trace, focus)
        assert oracle.consistent is want
        try:
            rc = verify_read_centric_checked(trace, focus)
        except DuplicateValueError:
            continue  # an ambiguous focus read: the polynomial verifiers refuse it
        verdicts = (rc, verify_rw_closure(trace, focus))
        for v in (oracle, *verdicts):
            assert v.consistent is want, v.algorithm
            if v.consistent:
                assert check_pram_witness(trace, focus, v.witness).ok, v.algorithm


@PROFILE
@given(
    st.one_of(
        small_traces(),
        st.builds(
            gen_pram_trace,
            st.integers(0, 10**6),
            processes=st.integers(2, 6),
            variables=st.integers(1, 3),
            ops=st.integers(10, 120),
        ),
    )
)
def test_witnesses_equal_the_per_block_reference_schedule(trace):
    for focus in trace.processes:
        try:
            verdicts = (verify_read_centric(trace, focus), verify_rw_closure(trace, focus))
        except DuplicateValueError:
            continue
        for v in verdicts:
            if v.consistent:
                want = reference_dag_schedule(v.graph, visible(trace, focus))
                assert v.witness == want, v.algorithm


def _assert_tables_equal_their_references(trace: Trace) -> None:
    sections = reference_write_sections(trace)
    assert list(trace.write_sections.items()) == list(sections.items())
    assert trace.variant is reference_variant(trace)


@PROFILE
@given(small_traces())
def test_trace_tables_equal_their_references(trace):
    _assert_tables_equal_their_references(trace)


def test_trace_tables_equal_their_references_on_the_gen_ladder():
    """Unique and duplicate values, one and two variables, 1,600 to 12,800 ops."""
    for ops in (1600, 3200, 6400, 12800):
        for policy in ("unique", "duplicate"):
            for variables in (1, 2):
                trace = gen_pram_trace(
                    ops, processes=16, variables=variables, ops=ops, policy=policy
                )
                _assert_tables_equal_their_references(trace)
