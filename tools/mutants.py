"""Operator mutation score of one stcores module.

Usage, from the repository root::

    python3 tools/mutants.py src/stcores/betaset.py

Each mutant swaps one operator of the module: + and -, < and <=, > and >=,
== and !=.  Mutants are written one at a time into a temporary copy of the
checkout that holds the module (its ``src``, ``tests``, ``pyproject.toml``
and ``perfbench/digests.json``, which ``tests/test_cli.py`` reads).  A
mutant is killed when ``cores verify`` exits or prints otherwise than with
the unmutated module, else when the module's own tests
(``tests/test_<module>.py``) fail, or when either run exceeds ``TIMEOUT_S``
seconds (a mutant may loop forever).  Every mutant is run, in a fixed order;
the survivors are printed with their lines, then the score.  Standard
library only, and not part of the test suite: a mutant takes about 4 s.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 60.0

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every swappable operator, in walk order: (BinOp, None) or (Compare,
    index into its ops)."""
    out: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
    return out


def mutate(source: str, k: int) -> tuple[str, int, str]:
    """The source with its k-th site swapped, the site's line and the swap."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    return ast.unparse(tree), node.lineno, f"{type(old).__name__} -> {type(new).__name__}"


def run(argv: list[str], cwd: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        res = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "timeout"
    return res.returncode, res.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", type=Path, help="path to src/stcores/<module>.py in a checkout")
    args = ap.parse_args()

    module = args.module.resolve()
    root = module.parents[2]
    source = module.read_text()
    lines = source.splitlines()
    ks = range(len(sites(ast.parse(source))))

    verify = [sys.executable, "-m", "stcores.cli", "verify"]
    tests = Path("tests") / f"test_{module.stem}.py"
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(tests)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for name in ("src", "tests"):
            shutil.copytree(root / name, work / name, ignore=ignore)
        shutil.copy(root / "pyproject.toml", work)
        (work / "perfbench").mkdir()
        shutil.copy(root / "perfbench" / "digests.json", work / "perfbench")
        target = work / module.relative_to(root)
        has_tests = (work / tests).exists()

        want = run(verify, work)
        if want[0] != 0 or (has_tests and run(pytest, work)[0] != 0):
            print("the unmutated module fails verify or its tests", file=sys.stderr)
            return 1

        survivors = []
        for k in ks:
            mutant, line, swap = mutate(source, k)
            target.write_text(mutant)
            killed = run(verify, work) != want or (
                has_tests and run(pytest, work)[0] != 0
            )
            if not killed:
                survivors.append(f"{module.name}:{line}: {swap}: {lines[line - 1].strip()}")
                print("survived", survivors[-1], flush=True)

    print(f"{module.name}: {len(ks) - len(survivors)}/{len(ks)} mutants killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
