"""Exact-arithmetic toolkit for simultaneous core partitions.

Partitions, beta-sets (the abacus), charge/a/z/u coordinate systems,
exhaustive enumeration of (s,t)-cores and their self-conjugate and
arithmetic-progression variants, and exact weighted size statistics,
all backed by independent brute-force cross-checks.
"""

from .betaset import (
    ATuple,
    BetaSet,
    CTuple,
    a_coords,
    beta_from_partition,
    charge,
    conjugate_beta,
    hook_count,
    is_s_core,
    partition_from_a,
    partition_from_beta,
    random_s_core,
    s_push,
    s_set,
    t_core,
)
from .coords import (
    UTuple,
    ZTuple,
    a_to_z,
    is_self_conjugate_a,
    is_st_core_a,
    shift_constant,
    u_to_z,
    z_to_a,
    z_to_u,
)
from .enumeration import (
    CoreRecord,
    canonical_cyclic_rep,
    count_sc,
    count_st,
    count_triple,
    enum_sc_st_cores,
    enum_st_cores,
    enum_triple_asym,
    enum_triple_sym,
    iter_sc_st_cores,
    iter_st_cores,
    iter_triple_asym,
    iter_triple_sym,
    iter_weak_compositions,
)
from .errors import (
    CapExceededError,
    CoreError,
    InvalidSSetError,
    InvalidZError,
    InvariantError,
    NegativeEntryError,
    NonMonotoneError,
    NonzeroChargeError,
    NotACoreError,
    NotCoprimeError,
    NotSymmetricError,
    OutOfDiagramError,
    ParityError,
    TooLargeError,
)
from .partition import Partition
from .stats import (
    IdentityReport,
    attach_stabilizers,
    average_size,
    check_average,
    expected_average,
    moment_sum,
    size_from_a,
    size_from_c,
    stab_size,
    stab_size_sc,
    verify_cyclic_sum_identities,
)

# The oracle is the largest module.  It is imported on first use, so that
# work which never verifies (every ``cores`` command but ``verify``) does not
# compile it at each start.
_ORACLE_NAMES = (
    "VerifyReport",
    "brute_st_cores",
    "brute_stab_count",
    "enum_partitions_up_to",
    "motzkin_number",
    "run_verify_suite",
    "s_set_of",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_ORACLE_NAMES)
__version__ = "0.1.0"
