"""In-process traced passes: per-layer spans and counters around ``stcores``.

The library stays untouched.  :class:`Tracer` swaps every binding of each
traced function (module globals in every ``stcores`` module, because
``enumeration`` and ``stats`` import names directly, and class attributes
for methods and constructors) for a wrapper that records a span, and puts
the originals back on exit.  For a function that returns an iterator the
span covers the call plus each ``__next__``, so a generator's time is only
the time spent producing items.  A span's self time is its duration minus
the spans it encloses.
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from collections import defaultdict
from types import FunctionType

import stcores
import stcores.cli
from stcores import betaset, coords, enumeration, oracle, partition, stats

# (owner, attribute, span name).  Several attributes may share a span.
# Names follow NOTES.md; missing attributes are skipped so that a later
# refactor that removes a function leaves its span at zero, not a crash.
TARGETS = [
    (enumeration, "iter_weak_compositions", "enumeration.generate"),
    (enumeration, "_iter_signed_seqs", "enumeration.generate"),
    (enumeration, "iter_st_cores", "enumeration.iter"),
    (enumeration, "iter_sc_st_cores", "enumeration.iter"),
    (enumeration, "iter_triple_sym", "enumeration.iter"),
    (enumeration, "iter_triple_asym", "enumeration.iter"),
    (enumeration, "enum_st_cores", "enumeration.sort"),
    (enumeration, "enum_sc_st_cores", "enumeration.sort"),
    (enumeration, "enum_triple_sym", "enumeration.sort"),
    (enumeration, "enum_triple_asym", "enumeration.sort"),
    (enumeration, "record_from_z", "enumeration.record_from_z"),
    (coords.ZTuple, "__init__", "coords.ZTuple"),
    (coords, "z_to_a", "coords.z_to_a"),
    (coords, "z_to_u", "coords.z_to_u"),
    (coords, "u_to_z", "coords.u_to_z"),
    (betaset, "partition_from_a", "betaset.partition_from_a"),
    (betaset, "partition_from_beta", "betaset.partition_from_beta"),
    (betaset, "beta_from_partition", "betaset.beta_from_partition"),
    (betaset, "t_core", "betaset.t_core"),
    (betaset, "charge", "betaset.charge"),
    (partition.Partition, "__init__", "partition.Partition"),
    (partition.Partition, "hook_lengths", "partition.hook_lengths"),
    (partition.Partition, "conjugate", "partition.conjugate"),
    (partition.Partition, "t_core_by_diagram", "partition.t_core_by_diagram"),
    (stats, "average_size", "stats.average_size"),
    (stats, "moment_sum", "stats.moment_sum"),
    (stats, "multinomial", "stats.multinomial"),
    (stats, "stab_size", "stats.stab_size"),
    (stats, "stab_size_sc", "stats.stab_size_sc"),
    (stats, "verify_cyclic_sum_identities", "stats.verify_cyclic_sum_identities"),
    (oracle, "partitions_of", "oracle.partitions_of"),
    (oracle, "brute_st_cores", "oracle.brute_st_cores"),
    (oracle, "brute_stab_count", "oracle.brute_stab_count"),
    (oracle, "s_set_of", "oracle.s_set_of"),
    (oracle, "run_verify_suite", "oracle.run_verify_suite"),
    (enumeration.CoreRecord, "to_json_dict", "cli.serialize"),
    (enumeration.CoreRecord, "csv_row", "cli.serialize"),
    (stcores.cli, "main", "cli.main"),
]

SPANS = sorted({name for _, _, name in TARGETS})


class _Span:
    __slots__ = ("calls", "self_s", "yielded")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0


class Tracer:
    """Context manager that installs the span wrappers for its lifetime."""

    def __init__(self):
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.checked = 0
        self.checks_failed = 0
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn, args, kwargs, is_call: bool):
        child = self._child_time
        child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            span = self.spans[name]
            span.self_s += dur - child.pop()
            if is_call:
                span.calls += 1
            if child:
                child[-1] += dur

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._timed(name, fn, args, kwargs, True)
            if name == "oracle.run_verify_suite":
                tracer.checked += sum(rep.counts["checked"] for rep in result)
                tracer.checks_failed += sum(1 for rep in result if not rep.passed)
            if hasattr(result, "__next__"):
                return _TracedIter(tracer, name, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "stcores" or n.startswith("stcores.")]
        for owner, attr, name in TARGETS:
            orig = owner.__dict__.get(attr)
            if not isinstance(orig, FunctionType):
                continue
            wrapped = self._wrap(name, orig)
            holders = [owner] + [m for m in modules if m is not owner and m.__dict__.get(attr) is orig]
            for holder in holders:
                self._undo.append((holder, attr, orig))
                setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()


class _TracedIter:
    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer._timed(self._name, self._it.__next__, (), {}, False)
        self._tracer.spans[self._name].yielded += 1
        return item


def _raise_timeout(signum, frame):
    raise TimeoutError


def run_cli(argv: tuple[str, ...], timeout: float) -> tuple[int | None, bytes]:
    """``cores <argv>`` in this process, stdout captured; the exit code is
    None when the command ran past ``timeout`` seconds.  The lookup goes
    through the module so an installed tracer sees the call."""
    buf = io.StringIO()
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(buf):
            code = stcores.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except TimeoutError:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return code, buf.getvalue().encode()


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """Every per-layer figure of one traced pass, by NOTES.md name."""
    out: dict[str, float] = {}
    for name in SPANS:
        span = tracer.spans[name]
        out[f"{name}.calls"] = span.calls
        out[f"{name}.self_s"] = span.self_s
    visited = tracer.spans["enumeration.generate"].yielded
    yielded = tracer.spans["enumeration.iter"].yielded
    out["enumeration.compositions_visited"] = visited
    out["enumeration.cores_yielded"] = yielded
    out["enumeration.yield_ratio"] = yielded / visited if visited else 0.0
    out["oracle.partitions_of.yielded"] = tracer.spans["oracle.partitions_of"].yielded
    out["oracle.checked"] = tracer.checked
    out["oracle.checks_failed"] = tracer.checks_failed
    out["cli.bytes_out"] = bytes_out
    return out
