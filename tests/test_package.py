"""The public surface of ``import stcores`` and the modules each command loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stcores

PUBLIC = [
    "ATuple", "BetaSet", "CapExceededError", "CoreError", "CoreRecord", "IdentityReport",
    "InvalidSSetError", "InvalidZError", "InvariantError", "NegativeEntryError", "NonMonotoneError",
    "NonzeroChargeError", "NotACoreError", "NotCoprimeError", "NotSymmetricError", "OutOfDiagramError",
    "Partition", "TooLargeError", "UTuple", "ZTuple", "a_coords", "a_to_z", "attach_stabilizers",
    "average_size", "beta_from_partition", "betaset", "canonical_cyclic_rep", "charge", "check_average",
    "conjugate_beta", "coords", "count_sc", "count_st", "count_triple", "enumeration", "errors",
    "expected_average", "hook_count", "is_s_core", "is_self_conjugate_a", "is_st_core_a",
    "iter_sc_st_cores", "iter_st_cores", "iter_triple_asym", "iter_triple_sym",
    "iter_weak_compositions", "moment_sum", "partition", "partition_from_a", "partition_from_beta",
    "random_s_core", "s_push", "s_set", "shift_constant", "size_from_a", "size_from_c", "stab_size",
    "stab_size_sc", "stats", "t_core", "u_to_z", "verify_cyclic_sum_identities", "z_to_a", "z_to_u",
    "VerifyReport", "brute_st_cores", "brute_stab_count", "enum_partitions_up_to", "motzkin_number",
    "run_verify_suite", "s_set_of",
]
SUBMODULES = {"betaset", "coords", "enumeration", "errors", "partition", "stats"}


def test_all_is_the_published_list_in_order():
    assert stcores.__all__ == PUBLIC


def test_every_public_name_resolves_from_its_home():
    for name in PUBLIC:
        value = getattr(stcores, name)
        if name in SUBMODULES:
            assert value.__name__ == f"stcores.{name}"
        else:
            # defined where it is looked up, not re-exported from elsewhere
            home = sys.modules[value.__module__]
            assert home.__name__ == f"stcores.{stcores._HOME[name]}" and vars(home)[name] is value, name
    assert set(PUBLIC) <= set(dir(stcores))


@pytest.mark.parametrize("name", ["multinomial", "enum_st_cores", "enum_sc_st_cores", "enum_triple_sym",
                                  "enum_triple_asym", "ParityError", "CTuple"])
def test_a_name_outside_the_published_list_is_not_an_attribute(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(stcores, name)


def test_every_exception_class_is_raised_or_subclassed():
    src = Path(stcores.__file__).parent
    defined = {node.name for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    used = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                refs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            elif isinstance(node, ast.ClassDef):
                refs = node.bases
            else:
                continue
            used |= {ref.id if isinstance(ref, ast.Name) else ref.attr for ref in refs
                     if isinstance(ref, (ast.Name, ast.Attribute))}
    assert defined and not defined - used, sorted(defined - used)


def test_only_partition_writes_the_fields_of_a_value_object():
    # partition._Frozen writes every field, through __setstate__, and its
    # _unchecked is the one builder that skips __init__.
    src = Path(stcores.__file__).parent
    found, builders = [], 0
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "_unchecked":
                builders += 1
            if path.name == "partition.py":
                continue
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "object"
                    and node.attr in {"__setattr__", "__new__"}):
                found.append(f"{path.name}:{node.lineno} object.{node.attr}")
            elif isinstance(node, ast.FunctionDef) and node.name in {"_unchecked", "__setstate__"}:
                found.append(f"{path.name}:{node.lineno} def {node.name}")
            elif isinstance(node, ast.ImportFrom) and any(alias.name == "_set" for alias in node.names):
                found.append(f"{path.name}:{node.lineno} imports _set")
    assert found == [] and builders == 1, (found, builders)


# Run as perfbench runs a command: ``stcores.cli`` through runpy, with the
# loaded modules read at exit.
CHILD = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write(json.dumps(sorted(sys.modules))))
sys.argv = ["cores", *sys.argv[1:]]
runpy.run_module("stcores.cli", run_name="__main__", alter_sys=True)
"""
LEAN = {"dataclasses", "stcores.betaset", "stcores.coords", "stcores.enumeration", "stcores.partition",
        "stcores.oracle", "stcores.runner"}


def _loaded(code: str, *argv: str) -> tuple[str, set[str]]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(json.loads(proc.stderr))


@pytest.mark.parametrize("argv, out, loads, skips", [
    (["count", "9", "10"], "4862\n", {"stcores.formulas"}, LEAN),
    (["avg", "9", "10", "--weighted"], "33\n", {"stcores.stats", "fractions"}, LEAN),
    (["enum", "4", "5", "--with-stab"], None, {"stcores.enumeration", "stcores.coords"},
     {"stcores.stats", "fractions", "dataclasses", "stcores.runner"}),
    (["verify", "--smax", "2", "--tmax", "3", "--nmax", "6"], None, {"stcores.oracle", "stcores.runner"},
     {"dataclasses", "multiprocessing", "concurrent.futures", "subprocess", "pickle", "select"}),
], ids=["count", "avg", "enum-with-stab", "verify"])
def test_each_command_loads_only_the_modules_it_runs(argv, out, loads, skips):
    stdout, loaded = _loaded(CHILD, *argv)
    assert out is None or stdout == out
    assert loads <= loaded and not skips & loaded, sorted(skips & loaded)


def test_bare_import_loads_no_submodule():
    _, loaded = _loaded("import atexit, json, sys, stcores\n"
                        "atexit.register(lambda: sys.stderr.write(json.dumps(sorted(sys.modules))))")
    assert "stcores" in loaded
    assert sorted(m for m in loaded if m.startswith("stcores.")) == []
