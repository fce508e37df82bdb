"""Record the sha256 of stdout for every command variant any seed can run.

Usage, from the repository root, only when CLI output is meant to change::

    python3 perfbench/record_digests.py

Each variant runs once as a subprocess and must pass the library-free
structural checks before its digest is written to digests.json.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    digests = {}
    for argv in workloads.all_variants():
        res = run.run_command(argv, run.CMD_TIMEOUT_S)
        why = res.error or (f"exit code {res.code}" if res.code else None)
        why = why or workloads.check_structure(argv, res.out)
        if why is not None:
            print(f"cores {' '.join(argv)}: {why}", file=sys.stderr)
            return 1
        digests[workloads.argv_key(argv)] = workloads.digest(res.out)
        print(f"{res.wall_s:7.3f} s  cores {' '.join(argv)}")
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
