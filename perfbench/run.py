"""Benchmark of the ``cores`` CLI: time to the exact answer, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload enum-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` times ``cores`` commands, each in a fresh interpreter that
runs ``stcores.cli`` as ``python -m`` would, one at a time from this process
(closed loop, one client), and reports the end-to-end metrics.
``--trace 1`` runs the same command lists in this process through
``stcores.cli.main`` with span wrappers installed and reports the per-layer
metrics.  Human-readable lines go first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metric names and units are documented in NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PAIRS = 2
SETUP_RUNS = 9
# The slowest command takes about 3 s on a quiet host.
CMD_TIMEOUT_S = 20.0
# After this many seconds every command gets a 1 s timeout and no further
# pair starts, so a run ends inside 180 s even when every command hangs.
RUN_DEADLINE_S = 120.0
# A fixed pure-Python task with no stcores code: a fresh interpreter walks
# the weak compositions of 10 into 9 parts and keeps the congruent ones.  It
# runs before, between and after the measured commands, and REF_NOMINAL_S
# over its wall time is the host's current speed.  On a shared VM that speed
# swings by a third within minutes, and passes slow down with it.  Timed
# end-to-end metrics are therefore given in seconds at nominal speed: each
# command's wall time scaled by the speed measured on either side of it.
REF_CODE = """
def rec(pos, rem, buf, out):
    if pos == len(buf) - 1:
        buf[pos] = rem
        out.append(tuple(buf))
        return
    for v in range(rem + 1):
        buf[pos] = v
        rec(pos + 1, rem - v, buf, out)
out = []
rec(0, 10, [0] * 9, out)
if sum(1 for c in out if sum(j * v for j, v in enumerate(c)) % 9 == 0) != 4862:
    raise SystemExit("reference task miscounted")
"""
REF_NOMINAL_S = 0.09
# ``python -m stcores.cli`` plus a report of the process's own peak RSS.
# ``ru_maxrss`` from ``wait4`` cannot serve: the kernel folds the spawning
# process's peak into it at exec, and this process outgrows every command.
# VmHWM belongs to the post-exec address space alone.
RSS_MARK = b"\0perfbench-vmhwm-kb="
CLI_CODE = f"""
import atexit, runpy, sys

def report_peak():
    try:
        with open("/proc/self/status") as f:
            kb = next((line.split()[1] for line in f if line.startswith("VmHWM:")), None)
    except OSError:
        return
    if kb is not None:
        sys.stderr.buffer.write({RSS_MARK!r} + kb.encode())
        sys.stderr.flush()

atexit.register(report_peak)
runpy.run_module("stcores.cli", run_name="__main__", alter_sys=True)
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "first_line_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported by the traced run: counts for every span, self time only for the
# spans every workload enters (see NOTES.md for the rest).
PER_LAYER_UNITS = {
    "enumeration.compositions_visited": "count",
    "enumeration.cores_yielded": "count",
    "enumeration.yield_ratio": "ratio",
    "enumeration.generate.self_s": "s",
    "enumeration.iter.self_s": "s",
    "enumeration.record_from_z.calls": "count",
    "enumeration.record_from_z.self_s": "s",
    "coords.ZTuple.calls": "count",
    "coords.ZTuple.self_s": "s",
    "coords.z_to_a.calls": "count",
    "coords.z_to_a.self_s": "s",
    "coords.z_to_u.calls": "count",
    "coords.u_to_z.calls": "count",
    "coords.u_to_z.self_s": "s",
    "betaset.partition_from_a.calls": "count",
    "betaset.partition_from_a.self_s": "s",
    "betaset.partition_from_beta.self_s": "s",
    "partition.Partition.calls": "count",
    "partition.Partition.self_s": "s",
    "enumeration.sort.calls": "count",
    "stats.multinomial.calls": "count",
    "stats.stab_size.calls": "count",
    "stats.stab_size.self_s": "s",
    "stats.stab_size_sc.calls": "count",
    "partition.hook_lengths.calls": "count",
    "partition.t_core_by_diagram.calls": "count",
    "partition.conjugate.calls": "count",
    "betaset.beta_from_partition.calls": "count",
    "betaset.t_core.calls": "count",
    "oracle.partitions_of.yielded": "count",
    "oracle.brute_stab_count.calls": "count",
    "oracle.s_set_of.calls": "count",
    "oracle.checked": "count",
    "oracle.checks_failed": "count",
    "cli.serialize.calls": "count",
    "cli.bytes_out": "B",
    "cli.main.self_s": "s",
    "trace_overhead_frac": "ratio",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


class CommandResult:
    __slots__ = ("argv", "code", "out", "err", "wall_s", "first_line_s", "rss_mb", "cpu_s", "error")

    def __init__(self, argv):
        self.argv = argv
        self.code = None
        self.out = b""
        self.err = b""
        self.wall_s = 0.0
        self.first_line_s = None
        self.rss_mb = 0.0
        self.cpu_s = 0.0
        self.error = None


def run_command(argv: tuple[str, ...], timeout: float, code: str = CLI_CODE) -> CommandResult:
    """Spawn ``python -c <code> <argv>``, by default ``cores <argv>``, and
    wait for it; a command still running after ``timeout`` seconds is
    killed and counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = CommandResult(argv)
    out, err = bytearray(), bytearray()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    deadline = start + timeout
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    res.error = f"timed out after {timeout:.0f} s"
                    break
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if res.first_line_s is None and key.data is out and b"\n" in chunk:
                        res.first_line_s = time.perf_counter() - start
    finally:
        if res.error is not None or sys.exc_info()[0] is not None:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        res.wall_s = time.perf_counter() - start
        proc.returncode = res.code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    res.out = bytes(out)
    res.err, _, peak_kb = bytes(err).partition(RSS_MARK)
    res.rss_mb = int(peak_kb) / 1024 if peak_kb else usage.ru_maxrss / 1024
    res.cpu_s = usage.ru_utime + usage.ru_stime
    if res.first_line_s is None:
        res.first_line_s = res.wall_s
    return res


class Run:
    """Bookkeeping shared by both modes: attempts, failures, the deadline."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.ref_walls: list[float] = []

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def record(self, argv: tuple[str, ...], why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            print(f"FAILED cores {' '.join(argv)}: {why}", file=sys.stderr)

    def command(self, argv: tuple[str, ...]) -> CommandResult:
        res = run_command(argv, self.timeout())
        why = res.error or workloads.check_output(argv, res.code, res.out, self.digests)
        if why is not None and res.err:
            why += f" (stderr: {res.err.decode(errors='replace').strip()[-300:]})"
        self.record(argv, why)
        return res

    def timeout(self) -> float:
        return min(CMD_TIMEOUT_S, max(self.left(), 1.0))

    def reference(self) -> float:
        """Wall seconds of one run of the reference task."""
        ref = run_command((), self.timeout(), REF_CODE)
        if ref.code != 0 or ref.error:
            raise SystemExit(f"reference task failed: {ref.error or ref.err.decode(errors='replace')}")
        self.ref_walls.append(ref.wall_s)
        return ref.wall_s

    def measured(self, cmds) -> list[tuple[CommandResult, float]]:
        """Run ``cmds`` with the reference task before, between and after
        them; pairs each result with the factor that converts its times to
        nominal host speed, from the reference runs on either side."""
        out = []
        before = self.reference()
        for argv in cmds:
            res = self.command(argv)
            after = self.reference()
            out.append((res, 2 * REF_NOMINAL_S / (before + after)))
            before = after
        return out


def keep_going(r: Run, pairs: list[float], budget_start: float, seconds: float) -> bool:
    """Another pass pair is due: fewer than MIN_PAIRS so far, or a median
    pair would end less than half a pair past the measuring window, and
    well before the deadline."""
    if len(pairs) < MIN_PAIRS:
        return not pairs or r.left() > 0
    typical = statistics.median(pairs)
    return time.perf_counter() - budget_start + typical / 2 <= seconds and r.left() > 2 * typical


def pair_median(values: list[float]) -> float:
    """Median over antithetic pairs of the pair mean; ``values`` holds one
    entry per pass, the two passes of a pair next to each other."""
    return statistics.median((a + b) / 2 for a, b in zip(values[::2], values[1::2]))


def median_pass(samples: dict[tuple[str, ...], list[float]], passes: int) -> float:
    """One pass's time assembled from per-command medians: each argv's
    median, weighted by the share of passes that ran it.  A slow spell of
    the host then spoils single samples of a command, not whole passes."""
    return sum(statistics.median(v) * len(v) / passes for v in samples.values())


def measure(workload: str, seed: int, seconds: float, r: Run) -> dict[str, float]:
    """End-to-end metrics of one workload, from subprocess passes."""
    warm, _ = next(workloads.pass_pairs(workload, seed))
    for argv in (workloads.SETUP_ARGV, *warm):  # fills __pycache__ and the page cache
        r.command(argv)
    budget_start = time.perf_counter()
    setup_runs = r.measured([workloads.SETUP_ARGV] * SETUP_RUNS)
    setup = [res.wall_s * scale for res, scale in setup_runs]
    walls, first_lines = defaultdict(list), defaultdict(list)
    raw_walls, cpu, rss, pairs = [], [], [], []
    for pair in workloads.pass_pairs(workload, seed):
        if not keep_going(r, pairs, budget_start, seconds):
            break
        t0 = time.perf_counter()
        for cmds in pair:
            results = r.measured(cmds)
            for res, scale in results:
                walls[res.argv].append(res.wall_s * scale)
                first_lines[res.argv].append(res.first_line_s * scale)
                raw_walls.append(res.wall_s)
                cpu.append(res.cpu_s)
            rss.append(max(res.rss_mb for res, _ in results))
        pairs.append(time.perf_counter() - t0)
    passes = 2 * len(pairs)
    wall = median_pass(walls, passes)
    cores = sum(workloads.cores_covered(argv) for argv in pair[0])
    print(
        f"{workload}: passes={passes} samples_per_command={min(map(len, walls.values()))}"
        f" setup_runs={len(setup)} raw_ref_s={statistics.median(r.ref_walls):.4f}"
        f" raw_setup_s={statistics.median(res.wall_s for res, _ in setup_runs):.4f}"
        f" raw_mean_pass_s={sum(raw_walls) / passes:.3f} raw_mean_pass_cpu_s={sum(cpu) / passes:.3f}"
        + (f" cores={cores} cores_per_s={cores / wall:.1f}" if cores else "")
    )
    return {
        "wall_s": wall,
        "first_line_s": median_pass(first_lines, passes),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }


def traced_pass(cmds, r: Run, tracer=None) -> tuple[float, int, int]:
    """One in-process pass, under ``tracer`` when given; returns (wall
    seconds, stdout bytes, lines that ``enum`` commands printed).  Outputs
    are checked after the clock stops."""
    import traced

    t0 = time.perf_counter()
    with tracer or contextlib.nullcontext():
        outputs = [traced.run_cli(argv, r.timeout()) for argv in cmds]
    wall = time.perf_counter() - t0
    for argv, (code, out) in zip(cmds, outputs):
        r.record(argv, workloads.check_output(argv, code, out, r.digests))
    nbytes = sum(len(out) for _, out in outputs)
    enum_lines = sum(out.count(b"\n") for argv, (_, out) in zip(cmds, outputs) if argv[0] == "enum")
    return wall, nbytes, enum_lines


def measure_layers(workload: str, seed: int, seconds: float, r: Run) -> dict[str, float]:
    """Per-layer metrics: each pass runs untraced, then traced, in this
    process; every figure is a median over pass pairs of traced passes."""
    sys.path.insert(0, str(SRC))
    import stcores
    import traced

    if Path(stcores.__file__).resolve().parent != SRC / "stcores":
        raise SystemExit(f"imported stcores from {stcores.__file__}, not from {SRC}")
    warm, _ = next(workloads.pass_pairs(workload, seed))
    traced_pass(warm, r)
    budget_start = time.perf_counter()
    plain, walls, samples, pairs = [], [], [], []
    for pair in workloads.pass_pairs(workload, seed):
        if not keep_going(r, pairs, budget_start, seconds):
            break
        t0 = time.perf_counter()
        for cmds in pair:
            plain.append(traced_pass(cmds, r)[0])
            tracer = traced.Tracer()
            wall, nbytes, enum_lines = traced_pass(cmds, r, tracer)
            walls.append(wall)
            sample = traced.layer_metrics(tracer, nbytes)
            serialized = sample["cli.serialize.calls"]
            why = None if serialized == enum_lines else f"{serialized} records serialized, {enum_lines} printed"
            r.record(("trace-check",), why)
            failed = sample["oracle.checks_failed"]
            r.record(("trace-check",), f"{failed} verify checks failed" if failed else None)
            samples.append(sample)
        pairs.append(time.perf_counter() - t0)
    layers = {k: pair_median([s[k] for s in samples]) for k in samples[0]}
    layers["trace_overhead_frac"] = pair_median(walls) / pair_median(plain) - 1
    print(f"{workload}: traced pairs={len(pairs)} plain_wall_s={pair_median(plain):.3f}"
          f" traced_wall_s={pair_median(walls):.3f}")
    for k in sorted(layers):
        print(f"  {k} = {layers[k]:.6g}")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stcores" / "cli.py").is_file():
        print(f"error: no stcores sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    print("env start", json.dumps(environment()))
    r = Run(workloads.load_digests())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    measure_one = measure_layers if args.trace else measure
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for name in names:
        got = measure_one(name, args.seed, args.seconds, r)
        prefix = f"{name}/" if args.workload == "all" else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": got[key], "unit": unit}
            if not args.trace:
                print(f"  {prefix}{key} = {got[key]:.6g} {unit}")
    print("env end", json.dumps(environment()))
    print(f"ops_failed_frac = {r.failed / r.attempted:.6g} ({r.failed}/{r.attempted})")
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
