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
    size_from_a,
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

# ``stats`` (with ``fractions``) and the oracle, the largest module, are
# imported on first use of one of their names, so that work which needs
# neither (``cores enum``, ``count``, ``convert``, ``tcore``) does not load
# them at each start.
_LAZY = {
    "stats": (
        "IdentityReport",
        "attach_stabilizers",
        "average_size",
        "check_average",
        "expected_average",
        "moment_sum",
        "size_from_c",
        "stab_size",
        "stab_size_sc",
        "verify_cyclic_sum_identities",
    ),
    "oracle": (
        "VerifyReport",
        "brute_st_cores",
        "brute_stab_count",
        "enum_partitions_up_to",
        "motzkin_number",
        "run_verify_suite",
        "s_set_of",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name == "stats":
        return import_module(".stats", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


# The same list as with eager imports: the loaded names, the stats submodule
# and its names in sorted order, then the oracle names.
__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["stats", *_LAZY["stats"]]
) + list(_LAZY["oracle"])
__version__ = "0.1.0"
