import pytest

from pramcheck import check_pram_witness, classify
from pramcheck.model import Variant
from pramcheck.oracle import OracleTimeout, oracle_verify
from pramcheck.reduction import (
    FOCUS,
    InvalidInstanceError,
    ThreePartitionInstance,
    build_partition_witness,
    reduce_3partition,
    solve_3partition,
    validate_instance,
)

REFERENCE = ThreePartitionInstance(m=2, B=7, sizes=(3, 3, 2, 2, 2, 2))
INFEASIBLE = ThreePartitionInstance(m=2, B=13, sizes=(4, 4, 4, 4, 4, 6))


def test_validate_accepts_reference():
    validate_instance(REFERENCE)
    validate_instance(INFEASIBLE)  # infeasible but well-formed


@pytest.mark.parametrize(
    "inst,needle",
    [
        (ThreePartitionInstance(0, 7, ()), "m must be"),
        (ThreePartitionInstance(2, 7, (3, 3, 2, 2)), "3m"),
        (ThreePartitionInstance(1, 4, (1, 1, 2)), "strictly between"),
        (ThreePartitionInstance(1, 6, (2, 2, 3)), "sum to"),
        (ThreePartitionInstance(1, 0, (1, 1, 1)), "B must be"),
    ],
)
def test_validate_names_each_violation(inst, needle):
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
    assert any(needle in p for p in exc.value.problems)


def test_reduce_rejects_invalid_instances():
    with pytest.raises(InvalidInstanceError):
        reduce_3partition(ThreePartitionInstance(1, 6, (2, 2, 3)))


def test_reference_instance_shape():
    t = reduce_3partition(REFERENCE)
    assert len(t.ops) == 104
    lens = {p: len(t.processes[p]) for p in tuple(t.processes)}
    assert lens["P0"] == 52
    assert sorted(lens[f"Pa{i}"] for i in range(1, 7)) == [4, 4, 4, 4, 5, 5]
    assert (lens["Pc1"], lens["Pc2"], lens["Pc3"]) == (6, 14, 6)
    # single shared variable, focus only reads, every other process only writes
    assert {o.variable for o in t.ops} == {"x"}
    assert all(o.is_read for o in t.processes[FOCUS])
    assert all(o.is_write for p, ops in t.processes.items() if p != FOCUS for o in ops)
    assert classify(t) is Variant.SD


def test_operation_count_scales_as_advertised():
    for m, B, sizes in [
        (1, 6, (2, 2, 2)),
        (1, 9, (3, 3, 3)),
        (2, 10, (4, 3, 3, 4, 3, 3)),
    ]:
        t = reduce_3partition(ThreePartitionInstance(m, B, sizes))
        assert len(t.ops) == 24 * m + 4 * B * m


def test_partition_witness_is_a_pram_witness():
    for inst in [
        REFERENCE,
        ThreePartitionInstance(1, 7, (3, 2, 2)),
        ThreePartitionInstance(1, 10, (4, 3, 3)),
    ]:
        part = solve_3partition(inst)
        assert part is not None
        t = reduce_3partition(inst)
        sched = build_partition_witness(t, inst, part)
        assert check_pram_witness(t, FOCUS, sched).ok


def test_feasible_roundtrip_agrees():
    inst = ThreePartitionInstance(1, 6, (2, 2, 2))
    partition = solve_3partition(inst)
    assert partition == [(0, 1, 2)]
    t = reduce_3partition(inst)
    assert oracle_verify(t, FOCUS).consistent is True
    assert check_pram_witness(t, FOCUS, build_partition_witness(t, inst, partition)).ok


def test_infeasible_roundtrip_agrees():
    assert solve_3partition(INFEASIBLE) is None
    v = oracle_verify(reduce_3partition(INFEASIBLE), FOCUS, max_states=2_000_000)
    # a timeout is inconclusive, never acceptance
    assert isinstance(v, OracleTimeout) or v.consistent is False


def test_oracle_accepts_reference_reduction():
    t = reduce_3partition(REFERENCE)
    v = oracle_verify(t, FOCUS, max_states=10_000_000)
    assert not isinstance(v, OracleTimeout)
    assert v.consistent is True
    assert check_pram_witness(t, FOCUS, v.witness).ok
