"""Workload command lists, seeded argv generation, and library-free output checks.

Nothing here imports ``stcores``: the expected counts and averages are the
paper's closed forms recomputed with ``math.comb`` and ``fractions``, so a
defect in the library cannot also corrupt the check that should catch it.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Interpreter start, ``import stcores``, argparse and one O(1) closed form.
SETUP_ARGV = ("count", "200", "201")

# Commands of one pass, in canonical orientation.  Commands whose first two
# arguments are integers are (s,t) questions; the seed may swap those two.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Every core is built down to its partition, sorted and serialized.
    "enum-stream": (
        ("enum", "8", "11"),
        ("enum", "9", "10", "--format", "csv"),
        ("enum", "7", "12", "--with-stab"),
        ("enum", "13", "14", "--self-conjugate"),
        ("enum", "--triple", "11", "1", "--method", "asym"),
        ("enum", "--triple", "11", "1", "--method", "sym"),
    ),
    # The same iterators reduced to one exact rational; nothing is printed
    # per core, so record construction and stats arithmetic dominate.
    "exact-stats": (
        ("avg", "9", "10"),
        ("avg", "9", "10", "--weighted"),
        ("avg", "8", "11", "--weighted"),
        ("avg", "15", "16", "--weighted", "--self-conjugate"),
        ("avg", "10", "11", "--moment", "2"),
        ("avg", "8", "11", "--moment", "3", "--weighted"),
    ),
    # The only workload that runs the brute-force oracles and the diagram
    # side of ``partition``.
    "verify-suite": (
        ("verify",),
        ("verify", "--smax", "4", "--tmax", "5", "--format", "jsonl"),
    ),
}

VERIFY_SUMMARY = b"34/34 checks passed"


def is_oriented(argv: tuple[str, ...]) -> bool:
    return len(argv) >= 3 and argv[1].isdigit() and argv[2].isdigit()


def flipped(argv: tuple[str, ...]) -> tuple[str, ...]:
    return (argv[0], argv[2], argv[1], *argv[3:])


def all_variants() -> list[tuple[str, ...]]:
    """Every argv any seed can produce, plus the set-up command."""
    out = [SETUP_ARGV]
    for cmds in WORKLOADS.values():
        for argv in cmds:
            out.append(argv)
            if is_oriented(argv):
                out.append(flipped(argv))
    return out


def pass_pairs(workload: str, seed: int) -> Iterator[tuple[list[tuple[str, ...]], list[tuple[str, ...]]]]:
    """Endless seeded passes over ``workload``, in antithetic pairs.

    The seed picks the orientation of each (s,t) command in the first pass
    of a pair; the second pass flips every one of them.  Each pass gets a
    seed-chosen command order.  Orientation changes the work (``enum 7 12``
    walks 31,824 compositions, ``enum 12 7`` 18,564), so a pair covers both
    and no seed makes the workload heavier or lighter than another.
    """
    rng = random.Random(f"{workload}/{seed}")
    while True:
        flips = [is_oriented(a) and rng.random() < 0.5 for a in WORKLOADS[workload]]
        pair = []
        for second in (False, True):
            cmds = [
                flipped(a) if is_oriented(a) and flip != second else a
                for a, flip in zip(WORKLOADS[workload], flips)
            ]
            rng.shuffle(cmds)
            pair.append(cmds)
        yield pair[0], pair[1]


def argv_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


# --- closed forms ---------------------------------------------------------


def count_st(s: int, t: int) -> int:
    return math.comb(s + t, s) // (s + t)


def count_sc(s: int, t: int) -> int:
    return math.comb(s // 2 + t // 2, t // 2)


def count_triple(m: int, d: int) -> int:
    n = m + d
    total = sum(
        math.comb(n, i) * math.comb(n - i, i + d) for i in range(m // 2 + 1)
    )
    return total // n


def expected_average(s: int, t: int, weighted: bool, self_conjugate: bool) -> Fraction:
    if not weighted:
        return Fraction((s - 1) * (t - 1) * (s + t + 1), 24)
    if self_conjugate and t % 2 == 0:
        return Fraction((s - 1) * (t * t + 2), 24)
    return Fraction((s - 1) * (t * t - 1), 24)


def cores_covered(argv: tuple[str, ...]) -> int:
    """Cores one ``enum`` or ``avg`` command walks, from the closed forms;
    0 for commands that are not a single (s,t) or triple family."""
    if argv[0] not in ("enum", "avg"):
        return 0
    if "--triple" in argv:
        i = argv.index("--triple")
        return count_triple(int(argv[i + 1]), int(argv[i + 2]))
    s, t = int(argv[1]), int(argv[2])
    return count_sc(s, t) if "--self-conjugate" in argv else count_st(s, t)


# --- output checks -----------------------------------------------------------


def _records(argv: tuple[str, ...], out: str) -> list[tuple[tuple[int, ...], list[int], int]]:
    """(z, parts, size) per line of ``enum`` output in jsonl or csv form."""
    recs = []
    csv = "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    for line in out.splitlines():
        if csv:
            cells = line.split(";")
            z = tuple(int(v) for v in cells[0].split(","))
            parts = [int(v) for v in cells[2].split("+")] if cells[2] else []
            recs.append((z, parts, int(cells[3])))
        else:
            d = json.loads(line)
            recs.append((tuple(d["z"]), d["parts"], d["size"]))
    return recs


def check_output(argv: tuple[str, ...], code: int, out: bytes, digests: dict[str, str]) -> str | None:
    """Why the output of ``cores <argv>`` is wrong, or None when it passes.

    Each command family gets a structural check that needs no library
    code; then the stdout digest recorded for this argv must match.
    """
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code}"
    try:
        why = check_structure(argv, out)
    except (ValueError, KeyError, IndexError) as exc:
        why = f"unparseable output: {exc}"
    if why is not None:
        return why
    want = digests.get(argv_key(argv))
    if want is None:
        return "no recorded digest"
    return None if digest(out) == want else "stdout digest mismatch"


def check_structure(argv: tuple[str, ...], out: bytes) -> str | None:
    text = out.decode()
    if argv[0] == "count":
        s, t = int(argv[1]), int(argv[2])
        return None if text.strip() == str(count_st(s, t)) else "count differs from closed form"
    if argv[0] == "verify":
        lines = out.splitlines()
        return None if lines and lines[-1] == VERIFY_SUMMARY else "verify summary line missing"
    if argv[0] == "avg":
        if "--moment" in argv:
            return None
        s, t = int(argv[1]), int(argv[2])
        want = expected_average(s, t, "--weighted" in argv, "--self-conjugate" in argv)
        return None if Fraction(text.strip()) == want else f"average {text.strip()} != {want}"
    recs = _records(argv, text)
    if len(recs) != cores_covered(argv):
        return f"{len(recs)} records, closed form says {cores_covered(argv)}"
    zs = [z for z, _, _ in recs]
    if any(a >= b for a, b in zip(zs, zs[1:])):
        return "records not strictly sorted by z"
    if any(sum(parts) != size for _, parts, size in recs):
        return "a size differs from the sum of its parts"
    return None
