"""Invariant guards must survive ``python -O``.

``-O`` strips ``assert`` statements and makes ``__debug__`` false; nothing
else changes.  So the library must hold no ``assert`` and read neither
``__debug__`` nor ``sys.flags``, and then it behaves the same under ``-O``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stcores"


def _reads_optimize_state(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    if isinstance(node, ast.Attribute):
        return node.attr == "flags" and isinstance(node.value, ast.Name) and node.value.id == "sys"
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name == "flags" for alias in node.names)
    return False


def _library_nodes(matches) -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return found


def test_library_has_no_assert_statements():
    assert _library_nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_library_reads_neither_debug_nor_sys_flags():
    assert _library_nodes(_reads_optimize_state) == []
    for source in ("if __debug__: pass", "sys.flags.optimize", "from sys import flags"):
        assert any(map(_reads_optimize_state, ast.walk(ast.parse(source)))), source
    assert not any(map(_reads_optimize_state, ast.walk(ast.parse("x.flags; sys.argv; debug"))))


def test_verify_prints_the_same_bytes_under_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = ["-m", "stcores.cli", "verify", "--smax", "3", "--tmax", "4", "--nmax", "8"]
    runs = [
        subprocess.run([sys.executable, *flags, *command], cwd=ROOT, env=env, capture_output=True, timeout=120)
        for flags in ((), ("-O",))
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout and runs[1].stdout == runs[0].stdout
