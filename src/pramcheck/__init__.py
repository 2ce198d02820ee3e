"""pramcheck: decide PRAM consistency of read/write traces.

The verifiers answer, per focus process, whether some legal schedule of all
writes plus that process's reads respects program order; acceptance comes with
the schedule, rejection with a precedence cycle (or an unreadable read).
Duplicate write values make the question NP-complete, handled by a budgeted
exhaustive oracle; `reduction` carries the matching hardness construction.
"""

from .legality import (
    NotAPermutationError,
    Schedule,
    Verdict,
    WitnessCheck,
    check_pram_witness,
    is_legal,
    legality_violation,
    parse_schedule,
    serialize_schedule,
)
from .model import (
    DuplicateValueError,
    MutationError,
    Operation,
    Trace,
    TraceParseError,
    UnknownProcessError,
    UnmatchedReadError,
    Variant,
    classify,
    parse_trace,
    serialize_trace,
    visible,
)
from .opgraph import Cycle, OperationGraph
from .oracle import (
    DEFAULT_MAX_STATES,
    OracleTimeout,
    ThreePartitionInstance,
    oracle_verify,
    solve_3partition,
)
from .read_centric import verify_read_centric
from .reduction import (
    InvalidInstanceError,
    build_partition_witness,
    reduce_3partition,
    validate_instance,
)
from .rw_closure import verify_rw_closure
from .tracegen import MUTATIONS, gen_pram_trace, mutate_trace

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "DEFAULT_MAX_STATES",
    "DuplicateValueError",
    "InvalidInstanceError",
    "MUTATIONS",
    "MutationError",
    "NotAPermutationError",
    "Operation",
    "OperationGraph",
    "OracleTimeout",
    "Schedule",
    "ThreePartitionInstance",
    "Trace",
    "TraceParseError",
    "UnknownProcessError",
    "UnmatchedReadError",
    "Variant",
    "Verdict",
    "WitnessCheck",
    "build_partition_witness",
    "check_pram_witness",
    "classify",
    "gen_pram_trace",
    "is_legal",
    "legality_violation",
    "mutate_trace",
    "oracle_verify",
    "parse_schedule",
    "parse_trace",
    "reduce_3partition",
    "serialize_schedule",
    "serialize_trace",
    "solve_3partition",
    "validate_instance",
    "verify_read_centric",
    "verify_rw_closure",
    "visible",
]
