"""The two-ended queue of ``cores verify``: which process runs which row."""

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stcores.oracle
import stcores.runner
from stcores import run_verify_suite

SRC = Path(__file__).resolve().parents[1] / "src"

NAMES = [r.check for r in run_verify_suite(1, 1, 2)]
CHILD_DIED = "the child process running this check ended with status {}"
SC_TRANSFER_WITNESS = stcores.oracle._sc_transfer_witness


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Every test sees two usable CPUs, so verify forks on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def runs(monkeypatch, tmp_path):
    """The (pid, check) of every check run in either process, in the order
    the checks started, read after the run."""
    log = tmp_path / "runs"
    run_check = stcores.runner._run_check

    def recorded(name, *rest):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {name}\n".encode())
        finally:
            os.close(fd)
        return run_check(name, *rest)

    monkeypatch.setattr(stcores.runner, "_run_check", recorded)
    return lambda: [(int(pid), name) for pid, name in (line.split() for line in log.read_text().splitlines())]


def _fields(reports):
    return [(r.check, r.params, r.witness, r.counts) for r in reports]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split(runs, parent):
    """The checks the parent ran and those the child ran, each in order."""
    return [name for pid, name in runs if pid == parent], [name for pid, name in runs if pid != parent]


def test_every_row_runs_exactly_once_and_the_parents_rows_are_a_prefix_in_row_order(runs):
    parent = os.getpid()
    reports = list(run_verify_suite(4, 5, 12, trials=10))
    assert [r.check for r in reports] == NAMES and all(r.passed for r in reports)
    ran = runs()
    assert sorted(name for _, name in ran) == sorted(NAMES)
    mine, childs = _split(ran, parent)
    assert len({pid for pid, _ in ran}) == 2 and childs
    assert mine == NAMES[: len(mine)]
    _no_child_left()


def test_the_child_takes_a_run_of_free_rows_from_the_back(runs):
    parent = os.getpid()
    list(run_verify_suite(5, 6, 20))
    mine, childs = _split(runs(), parent)
    # every row is free: the child's rows are a suffix, claimed from the back
    assert childs and childs == NAMES[::-1][: len(childs)]
    assert mine == NAMES[: len(NAMES) - len(childs)]


@pytest.mark.parametrize("bounds, trials", [((1, 1, 4), 60), ((2, 3, 6), 4), ((4, 5, 12), 10), ((5, 6, 20), 60)])
def test_the_reports_equal_those_of_one_process(monkeypatch, bounds, trials):
    forked = _fields(run_verify_suite(*bounds, trials=trials))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _fields(run_verify_suite(*bounds, trials=trials)) == forked
    monkeypatch.delattr(os, "fork")
    assert _fields(run_verify_suite(*bounds, trials=trials)) == forked
    assert [check for check, *_ in forked] == NAMES


def test_a_child_that_exits_in_its_first_row_fails_only_that_row(monkeypatch, runs):
    parent = os.getpid()
    cyclic_sums = stcores.oracle.verify_cyclic_sum_identities

    def exit_3_in_child(s, t):
        if os.getpid() != parent:
            os._exit(3)
        return cyclic_sums(s, t)

    # cyclic-sum-identities is the last row, the child's first claim
    monkeypatch.setattr(stcores.oracle, "verify_cyclic_sum_identities", exit_3_in_child)
    reports = list(run_verify_suite(4, 5, 12, trials=10))
    assert [r.check for r in reports] == NAMES
    failed = {r.check: (r.witness, r.counts) for r in reports if not r.passed}
    assert failed == {"cyclic-sum-identities": (CHILD_DIED.format(3), {"checked": 0})}
    mine, childs = _split(runs(), parent)
    assert childs == ["cyclic-sum-identities"] and mine == NAMES[:-1]
    _no_child_left()


def test_when_the_childs_first_row_is_slow_the_parent_runs_every_other_row(monkeypatch, runs):
    parent = os.getpid()
    gate_r, gate_w = os.pipe()
    cyclic_sums, oracle_witness = stcores.oracle.verify_cyclic_sum_identities, stcores.oracle._oracle_witness

    def wait_in_child(s, t):
        if os.getpid() != parent:
            select.select([gate_r], [], [], 60)
        return cyclic_sums(s, t)

    def open_gate(s, t):
        # the parent's last row before the child's
        os.write(gate_w, b"x")
        return oracle_witness(s, t)

    monkeypatch.setattr(stcores.oracle, "verify_cyclic_sum_identities", wait_in_child)
    monkeypatch.setattr(stcores.oracle, "_oracle_witness", open_gate)
    try:
        reports = list(run_verify_suite(4, 5, 12, trials=10))
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert [r.check for r in reports] == NAMES and all(r.passed for r in reports)
    assert _split(runs(), parent) == (NAMES[:-1], ["cyclic-sum-identities"])
    _no_child_left()


def _sc_transfer_cases(monkeypatch, log):
    """Log each case of self-conjugacy-transfer, with the pid that checks it."""

    def logged(s, t, p):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, json.dumps([os.getpid(), s, t, p.parts]).encode() + b"\n")
        finally:
            os.close(fd)
        return SC_TRANSFER_WITNESS(s, t, p)

    monkeypatch.setattr(stcores.oracle, "_sc_transfer_witness", logged)
    return lambda: [json.loads(line) for line in log.read_text().splitlines()]


def test_a_randomized_row_draws_the_same_cases_in_the_child(monkeypatch, tmp_path):
    parent = os.getpid()
    done_r, done_w = os.pipe()
    run_check = stcores.runner._run_check

    def hold_row_0_until_the_child_checked_row_19(name, *rest):
        if os.getpid() == parent and name == NAMES[0]:
            select.select([done_r], [], [], 60)
        rep = run_check(name, *rest)
        if os.getpid() != parent and name == "self-conjugacy-transfer":
            os.write(done_w, b"x")
        return rep

    monkeypatch.setattr(stcores.runner, "_run_check", hold_row_0_until_the_child_checked_row_19)
    forked = _sc_transfer_cases(monkeypatch, tmp_path / "forked")
    try:
        reports = list(run_verify_suite(4, 5, 12, trials=10))
    finally:
        os.close(done_r)
        os.close(done_w)
    assert [r.check for r in reports] == NAMES and all(r.passed for r in reports)
    cases = forked()
    assert cases and parent not in {pid for pid, *_ in cases}
    monkeypatch.setattr(stcores.runner, "_run_check", run_check)
    monkeypatch.delattr(os, "fork")
    alone = _sc_transfer_cases(monkeypatch, tmp_path / "alone")
    list(run_verify_suite(4, 5, 12, trials=10))
    assert [case for _, *case in alone()] == [case for _, *case in cases]
    _no_child_left()


# Runs the suite with the child killed at its n-th write of the token, that
# is while it holds the token; prints each report and each check run.
HOLDER = """
import json, os, sys
from stcores.oracle import run_verify_suite
import stcores.runner
os.sched_getaffinity = lambda pid: {0, 1}
parent, dies_at, log = os.getpid(), int(sys.argv[1]), sys.argv[2]
write, run_check, token_writes = os.write, stcores.runner._run_check, []

def write_or_die(fd, data):
    if os.getpid() != parent and len(data) == 2:
        token_writes.append(data)
        if len(token_writes) == dies_at:
            os._exit(4)
    return write(fd, data)

def recorded(name, *rest):
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    write(fd, f"{os.getpid() == parent} {name}\\n".encode())
    os.close(fd)
    return run_check(name, *rest)

os.write, stcores.runner._run_check = write_or_die, recorded
print(json.dumps([[r.check, r.witness] for r in run_verify_suite(2, 3, 6, trials=4)]))
"""


@pytest.mark.parametrize("dies_at", [1, 2])
def test_a_child_that_dies_holding_the_token_does_not_stop_the_parent(tmp_path, dies_at):
    log = tmp_path / "runs"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", HOLDER, str(dies_at), str(log)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[name, None] for name in NAMES]
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for _, name in ran) == sorted(NAMES)
    # the child reported each row it claimed before it died
    assert [name for here, name in ran if here == "False"] == ["cyclic-sum-identities"][: dies_at - 1]


# The parent's first select sees the token; before the parent reads it, the
# child takes it and dies holding it.  Prints each report.
STALE = """
import json, os, select
from stcores.oracle import run_verify_suite
os.sched_getaffinity = lambda pid: {0, 1}
parent, first = os.getpid(), []
seen_r, seen_w = os.pipe()
died_r, died_w = os.pipe()
real_select, real_read, real_write = select.select, os.read, os.write

def select_then_lose_the_token(rlist, *rest):
    ready = real_select(rlist, *rest)
    if not first and len(rlist) == 2 and rlist[0] in ready[0]:
        first.append(True)
        real_write(seen_w, b"x")
        real_select([died_r], [], [], 60)
    return ready

def read(fd, n):
    if os.getpid() != parent and n == 2 and not first:
        first.append(True)
        real_select([seen_r], [], [], 60)
    return real_read(fd, n)

def write(fd, data):
    if os.getpid() != parent and len(data) == 2:
        real_write(died_w, b"x")
        os._exit(4)
    return real_write(fd, data)

select.select, os.read, os.write = select_then_lose_the_token, read, write
print(json.dumps([[r.check, r.witness] for r in run_verify_suite(2, 3, 6, trials=4)]))
"""


def test_a_token_taken_after_the_parent_saw_it_does_not_stop_the_parent():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STALE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[name, None] for name in NAMES]


def _exit_code_within(pid, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return None


def test_a_child_waiting_for_the_token_exits_once_the_parent_is_gone():
    token = os.pipe()  # empty: the parent holds the token
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if not pid:
        os.close(read_fd)
        stcores.runner._report_to_pipe([], token, write_fd)
    os.close(write_fd)
    os.close(read_fd)  # nobody can read the reports any more
    try:
        assert _exit_code_within(pid, 30) == 1
    finally:
        os.close(token[0])
        os.close(token[1])
