"""Exact-arithmetic toolkit for simultaneous core partitions.

Partitions, beta-sets (the abacus), charge/a/z/u coordinate systems,
exhaustive enumeration of (s,t)-cores and their self-conjugate and
arithmetic-progression variants, and exact weighted size statistics,
all backed by independent brute-force cross-checks.

``import stcores`` loads no submodule: each public name is imported from its
home module on first use, so that a command loads only the modules it runs
(``cores count`` and ``cores avg`` start without the coordinate classes).
"""

from importlib import import_module

# Every public name and the module that defines it, in the order of
# ``__all__``.  A name that is its own home is that submodule.
_HOME = {
    "ATuple": "betaset", "BetaSet": "betaset", "CapExceededError": "errors",
    "CoreError": "errors", "CoreRecord": "enumeration", "IdentityReport": "oracle",
    "InvalidSSetError": "errors", "InvalidZError": "errors", "InvariantError": "errors",
    "NegativeEntryError": "errors", "NonMonotoneError": "errors", "NonzeroChargeError": "errors",
    "NotACoreError": "errors", "NotCoprimeError": "errors", "NotSymmetricError": "errors",
    "OutOfDiagramError": "errors", "Partition": "partition", "TooLargeError": "errors",
    "UTuple": "coords", "ZTuple": "coords", "a_coords": "betaset", "a_to_z": "coords",
    "attach_stabilizers": "enumeration", "average_size": "stats", "beta_from_partition": "betaset",
    "betaset": "betaset", "canonical_cyclic_rep": "enumeration", "charge": "betaset",
    "check_average": "oracle", "conjugate_beta": "betaset", "coords": "coords",
    "count_sc": "formulas", "count_st": "formulas", "count_triple": "formulas",
    "enumeration": "enumeration", "errors": "errors", "expected_average": "stats",
    "hook_count": "betaset", "is_s_core": "betaset", "is_self_conjugate_a": "coords",
    "is_st_core_a": "coords", "iter_sc_st_cores": "enumeration", "iter_st_cores": "enumeration",
    "iter_triple_asym": "enumeration", "iter_triple_sym": "enumeration",
    "iter_weak_compositions": "enumeration", "moment_sum": "stats", "partition": "partition",
    "partition_from_a": "betaset", "partition_from_beta": "betaset", "random_s_core": "betaset",
    "s_push": "betaset", "s_set": "betaset", "shift_constant": "coords", "size_from_a": "betaset",
    "size_from_c": "betaset", "stab_size": "coords", "stab_size_sc": "coords", "stats": "stats",
    "t_core": "betaset", "u_to_z": "coords", "verify_cyclic_sum_identities": "oracle",
    "z_to_a": "coords", "z_to_u": "coords", "VerifyReport": "runner", "brute_st_cores": "oracle",
    "brute_stab_count": "oracle", "enum_partitions_up_to": "oracle", "motzkin_number": "oracle",
    "run_verify_suite": "oracle", "s_set_of": "oracle",
}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__all__ = list(_HOME)
__version__ = "0.1.0"
