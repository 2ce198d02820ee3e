import pytest

from pramcheck import (
    MUTATIONS,
    classify,
    gen_pram_trace,
    mutate_trace,
    parse_trace,
    serialize_trace,
)
from pramcheck.model import MutationError
from pramcheck.oracle import oracle_verify
from pramcheck.read_centric import verify_read_centric
from testutil import T


def test_same_seed_same_trace():
    a = gen_pram_trace(123, processes=4, variables=3, ops=30)
    b = gen_pram_trace(123, processes=4, variables=3, ops=30)
    assert serialize_trace(a) == serialize_trace(b)


def test_different_seeds_differ():
    texts = {serialize_trace(gen_pram_trace(s, ops=30)) for s in range(20)}
    assert len(texts) == 20


def test_output_reparses_to_itself():
    t = gen_pram_trace(9, processes=3, variables=2, ops=25)
    assert parse_trace(serialize_trace(t)).rows() == t.rows()


def test_requested_operation_count():
    for seed in range(8):
        t = gen_pram_trace(seed, processes=3, variables=2, ops=40)
        assert t.n == 40
        assert len(t.processes) <= 3 and len({o.variable for o in t.ops}) <= 2


def test_policies_control_value_reuse():
    assert not classify(gen_pram_trace(11, ops=30)).has_duplicates
    assert classify(gen_pram_trace(11, policy="duplicate", ops=30)).has_duplicates


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        gen_pram_trace(0, policy="bogus")


def test_unique_outputs_are_always_consistent():
    for seed in range(40):
        t = gen_pram_trace(seed, processes=4, variables=3, ops=36)
        for focus in t.process_ids():
            assert verify_read_centric(t, focus).consistent, (seed, focus)


def test_duplicate_outputs_are_always_consistent():
    for seed in range(15):
        t = gen_pram_trace(seed, policy="duplicate", processes=3, variables=2, ops=16)
        for focus in t.process_ids():
            assert oracle_verify(t, focus).consistent, (seed, focus)


def test_mutations_are_deterministic_and_reparseable():
    base = gen_pram_trace(5, processes=3, variables=2, ops=24)
    for kind in MUTATIONS:
        a = mutate_trace(77, base, kind)
        b = mutate_trace(77, base, kind)
        assert serialize_trace(a) == serialize_trace(b)
        parse_trace(serialize_trace(a))
        # reordering two identical reads can be a textual no-op; some seed
        # must still produce a visible change
        assert any(
            serialize_trace(mutate_trace(s, base, kind)) != serialize_trace(base)
            for s in range(10)
        ), kind


def test_each_mutation_kind_can_break_consistency():
    for kind in MUTATIONS:
        broke = 0
        for seed in range(60):
            t = gen_pram_trace(seed, processes=3, variables=2, ops=24)
            try:
                m = mutate_trace(seed, t, kind)
            except MutationError:
                continue
            if any(not verify_read_centric(m, f).consistent for f in m.process_ids()):
                broke += 1
        assert broke > 0, kind


def test_inapplicable_mutations_raise():
    write_only = T("p1 W x 1")
    for kind in MUTATIONS:
        with pytest.raises(MutationError):
            mutate_trace(0, write_only, kind)
    with pytest.raises(MutationError):
        mutate_trace(0, gen_pram_trace(1), "bogus")
