"""The runner of ``cores verify``: which process runs which row, and what
each process does when the other fails.

Most tests run rows of their own, ``(name, params, cases, witness_of)``,
through ``runner._stream_reports``.  Each row's witness steers the run
itself: it logs the pid that runs it, waits on or writes to a pipe, exits,
writes to fds 1 and 2, sleeps, or raises.  This process always runs row 0,
so a test that needs the child to act first holds row 0 until the child has
acted.
"""

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stcores.oracle
from stcores import run_verify_suite, runner

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_DIED = "the child process running this check ended with status {}"
SC_TRANSFER_WITNESS = stcores.oracle._sc_transfer_witness


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Every test sees two usable CPUs, so the runner forks on any host, and
    every test ends with its child reaped."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pipe():
    """``pipe()``: the read and write ends of a new pipe, closed after the test."""
    fds = []

    def new():
        fds.extend(os.pipe())
        return fds[-2:]

    yield new
    for fd in fds:
        os.close(fd)


def _append(path, line):
    """Append ``line`` to ``path`` in one write, which either process may make."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


class _Log:
    """``log(row)`` records that this process ran ``row``, in either process;
    ``log.read()`` is every (pid, row) so far, in the order the rows started."""

    def __init__(self, path):
        self.path = path

    def __call__(self, row):
        _append(self.path, f"{os.getpid()} {row}\n")

    def read(self):
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def split(self):
        """The rows this process ran and those the child ran, each in order."""
        parent, ran = os.getpid(), self.read()
        return [row for pid, row in ran if pid == parent], [row for pid, row in ran if pid != parent]


@pytest.fixture
def log(tmp_path):
    return _Log(tmp_path / "log")


def _rows(n, witness_of):
    """Rows "0" to str(n - 1); row i has the one case (i,)."""
    return [(str(i), {}, [(i,)], witness_of) for i in range(n)]


def _wait(fd):
    """Take one byte from ``fd``, failing after 60 s without one."""
    assert select.select([fd], [], [], 60)[0], "nothing arrived within 60 s"
    os.read(fd, 1)


def _fields(reports):
    return [(r.check, r.params, r.witness, r.counts) for r in reports]


def _failed(reports):
    return {r.check: (r.witness, r.counts) for r in reports if not r.passed}


PASSED_8 = _fields(runner.VerifyReport(str(i), {}, None, {"checked": 1}) for i in range(8))


def _no_fork():
    raise AssertionError("os.fork was called")


def test_claim_order_is_every_row_once_from_row_0():
    for n in range(1, 41):
        order = runner._claim_order(n)
        assert sorted(order) == list(range(n)) and order[0] == 0
    assert runner._claim_order(8) == [0, 7, 6, 1, 5, 4, 2, 3]


def test_every_row_runs_exactly_once_and_each_process_runs_its_rows_in_claim_order(log, pipe):
    parent = os.getpid()
    ran_r, ran_w = pipe()

    def witness(i):
        log(i)
        if i == 0:
            _wait(ran_r)  # until the child has run a row
        elif os.getpid() != parent:
            os.write(ran_w, b"x")

    assert _fields(runner._stream_reports(_rows(8, witness))) == PASSED_8
    mine, childs = log.split()
    assert sorted(mine + childs) == list(range(8)) and mine[0] == 0 and childs
    for ran in (mine, childs):
        assert ran == [i for i in runner._claim_order(8) if i in ran]


def test_rows_that_race_for_claims_each_run_exactly_once_up_to_256_rows(log, pipe):
    parent = os.getpid()
    ran_r, ran_w = pipe()
    held = []

    def witness(i):
        log(i)
        if os.getpid() != parent:
            os.write(ran_w, b"x")
        elif not held:  # the first run's row 0 waits until the child has run a row
            held.append(_wait(ran_r))

    rows = _rows(256, witness)
    for k in range(1, 6):
        assert [(r.check, r.witness) for r in runner._stream_reports(rows)] == [(r[0], None) for r in rows]
        ran = log.read()
        assert len(ran) == 256 * k and sorted(row for _, row in ran[-256:]) == list(range(256))
    assert len({pid for pid, _ in ran}) > 1
    with pytest.raises(ValueError):
        list(runner._stream_reports(rows + rows[:1]))


def test_the_child_takes_a_run_of_free_rows_from_the_back(log, pipe):
    parent = os.getpid()
    second_r, second_w = pipe()
    childs = []

    def witness(i):
        log(i)
        if i == 0:
            _wait(second_r)
        elif os.getpid() != parent:
            childs.append(i)
            if len(childs) == 2:
                os.write(second_w, b"x")

    assert _fields(runner._stream_reports(_rows(8, witness))) == PASSED_8
    # while this process holds row 0, every other row is free: the child claims the last two first
    assert log.split()[1][:2] == [7, 6]


@pytest.mark.parametrize("bounds, trials", [((1, 1, 4), 60), ((2, 3, 6), 4), ((4, 5, 12), 10), ((5, 6, 20), 60)])
def test_the_reports_equal_those_of_one_process(monkeypatch, bounds, trials):
    forked = _fields(run_verify_suite(*bounds, trials=trials))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _fields(run_verify_suite(*bounds, trials=trials)) == forked
    monkeypatch.delattr(os, "fork")
    assert _fields(run_verify_suite(*bounds, trials=trials)) == forked


def _exit_3_in_the_childs_row(k, log, pipe):
    """The reports of 8 rows whose child exits with status 3 in the k-th row
    it runs; this process holds row 0 until then."""
    parent = os.getpid()
    died_r, died_w = pipe()
    childs = []

    def witness(i):
        log(i)
        if i == 0:
            _wait(died_r)
        elif os.getpid() != parent:
            childs.append(i)
            if len(childs) == k:
                os.write(died_w, b"x")
                os._exit(3)

    return list(runner._stream_reports(_rows(8, witness)))


def test_a_child_that_exits_in_its_first_row_fails_only_that_row(log, pipe):
    reports = _exit_3_in_the_childs_row(1, log, pipe)
    assert [r.check for r in reports] == [str(i) for i in range(8)]
    assert _failed(reports) == {"7": (CHILD_DIED.format(3), {"checked": 0})}
    assert log.split() == ([0, 6, 1, 5, 4, 2, 3], [7])


def test_rows_a_dead_child_never_reported_fail_with_its_exit_status(log, pipe):
    reports = _exit_3_in_the_childs_row(3, log, pipe)
    # the child reported rows 7 and 6 and died in row 1; the rows it never claimed ran here
    assert _failed(reports) == {"1": (CHILD_DIED.format(3), {"checked": 0})}
    assert log.split() == ([0, 5, 4, 2, 3], [7, 6, 1])


def test_when_the_childs_first_row_is_slow_the_parent_runs_every_other_row(pipe):
    parent = os.getpid()
    started_r, started_w = pipe()
    gate_r, gate_w = pipe()
    mine = []

    def witness(i):
        if os.getpid() != parent:
            os.write(started_w, b"x")
            _wait(gate_r)
            return
        if i == 0:
            _wait(started_r)
        mine.append(i)
        if len(mine) == 7:
            os.write(gate_w, b"x")

    assert _fields(runner._stream_reports(_rows(8, witness))) == PASSED_8
    assert mine == [0, 6, 1, 5, 4, 2, 3]


def test_the_childs_reports_are_given_while_this_process_still_runs_rows(pipe):
    parent = os.getpid()
    fourth_r, fourth_w = pipe()
    gate_r, gate_w = pipe()
    childs, mine, given = [], [], []

    def witness(i):
        if os.getpid() != parent:
            childs.append(i)
            if len(childs) == 4:
                os.write(fourth_w, b"x")
                _wait(gate_r)
            return
        if i == 0:
            _wait(fourth_r)
        mine.append((i, list(given)))
        if len(mine) == 4:
            os.write(gate_w, b"x")

    # This process starts row 0 once the child has reported rows 7, 6 and 1
    # and started row 5, where the child waits until this process starts its
    # last row.  Row 1 is given after this process's next row, 4.
    for rep in runner._stream_reports(_rows(8, witness)):
        given.append(int(rep.check))
    assert given == list(range(8))
    assert mine == [(0, []), (4, [0]), (2, [0, 1]), (3, [0, 1, 2])]


def _sc_transfer_cases(monkeypatch, path):
    """Log each case of self-conjugacy-transfer, with the pid that checks it."""

    def logged(s, t, p):
        _append(path, json.dumps([os.getpid(), s, t, p.parts]) + "\n")
        return SC_TRANSFER_WITNESS(s, t, p)

    monkeypatch.setattr(stcores.oracle, "_sc_transfer_witness", logged)
    return lambda: [json.loads(line) for line in path.read_text().splitlines()]


def test_a_randomized_row_draws_the_same_cases_in_the_child(monkeypatch, tmp_path, pipe):
    parent = os.getpid()
    done_r, done_w = pipe()
    run_check, held = runner._run_check, []

    def hold_row_0_until_the_child_checked_row_19(name, *rest):
        if os.getpid() == parent and not held:
            held.append(_wait(done_r))
        rep = run_check(name, *rest)
        if os.getpid() != parent and name == "self-conjugacy-transfer":
            os.write(done_w, b"x")
        return rep

    monkeypatch.setattr(runner, "_run_check", hold_row_0_until_the_child_checked_row_19)
    forked = _sc_transfer_cases(monkeypatch, tmp_path / "forked")
    reports = _fields(run_verify_suite(4, 5, 12, trials=10))
    assert all(witness is None for _, _, witness, _ in reports)
    cases = forked()
    assert cases and parent not in {pid for pid, *_ in cases}
    monkeypatch.setattr(runner, "_run_check", run_check)
    monkeypatch.delattr(os, "fork")
    alone = _sc_transfer_cases(monkeypatch, tmp_path / "alone")
    assert _fields(run_verify_suite(4, 5, 12, trials=10)) == reports
    assert [case for _, *case in alone()] == [case for _, *case in cases]


@pytest.mark.parametrize("dies_at", [1, 2])
def test_a_child_that_dies_before_a_claim_does_not_stop_the_parent(monkeypatch, log, pipe, dies_at):
    parent = os.getpid()
    died_r, died_w = pipe()
    read, claims = os.read, []

    def read_or_die(fd, n):
        if n == 1 and os.getpid() != parent:
            claims.append(fd)
            if len(claims) == dies_at:
                os.write(died_w, b"x")
                os._exit(4)
        return read(fd, n)

    def witness(i):
        log(i)
        if i == 0:
            _wait(died_r)

    monkeypatch.setattr(os, "read", read_or_die)
    assert _fields(runner._stream_reports(_rows(8, witness))) == PASSED_8
    # the child reported each row it claimed before it died; the rest ran here
    mine, childs = log.split()
    assert childs == [7, 6][: dies_at - 1] and sorted(mine + childs) == list(range(8))


def test_a_failed_fork_closes_its_pipe_and_runs_every_row_here(monkeypatch, log):
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        pipes.extend(pipe())
        return pipes[-2:]

    def failed_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failed_fork)
    assert _fields(runner._stream_reports(_rows(8, log))) == PASSED_8
    assert log.split() == (list(range(8)), [])
    assert len(pipes) == 4  # the claim pipe and the report pipe
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_line_cut_short_by_the_child_counts_as_unreported(monkeypatch, pipe):
    parent = os.getpid()
    cut_r, cut_w = pipe()
    write = os.write

    def write_half_and_exit(fd, data):
        if os.getpid() == parent or not data.endswith(b"\n"):
            return write(fd, data)
        write(fd, data[: len(data) // 2])
        write(cut_w, b"x")
        os._exit(5)

    def witness(i):
        if i == 0:
            _wait(cut_r)

    # the child's first line, of row 7, is cut short; this process waits in row 0 until then
    monkeypatch.setattr(os, "write", write_half_and_exit)
    reports = list(runner._stream_reports(_rows(8, witness)))
    assert _failed(reports) == {"7": (CHILD_DIED.format(5), {"checked": 0})}


def test_closing_the_stream_early_kills_and_reaps_the_child(tmp_path):
    parent, finished = os.getpid(), tmp_path / "finished"

    def slow(i):
        if os.getpid() != parent:
            time.sleep(1)
            finished.touch()

    # this process runs row 0; left to run, the child would wait out the
    # sleep and leave the file before its first write could fail
    reports = runner._Reports(runner._stream_reports(_rows(8, slow)))
    first = iter(reports)
    assert next(first).check == "0"
    first.close()
    assert not finished.exists()
    assert [r.check for r in reports] == ["0"]


# Kills itself with SIGKILL after its first report, which waits until the
# forked child is in its first check; the child stays there until the parent
# is gone, and a second check in it would keep an orphan alive for a minute.
ORPHANING = """
import os, time
from stcores import runner
os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()
started_r, started_w = os.pipe()

def orphaned_in_child(i):
    if os.getpid() == parent:
        os.read(started_r, 1)
    elif os.getppid() == parent:
        os.write(started_w, b"x")
        while os.getppid() == parent:
            time.sleep(0.01)
    else:
        time.sleep(60)

# named, for a stream dropped here would be closed, killing the child, before the kill below
reports = runner._stream_reports([(str(i), {}, [(i,)], orphaned_in_child) for i in range(4)])
next(reports)
os.kill(parent, 9)
"""


def test_a_child_whose_parent_is_killed_exits_after_its_current_check():
    read_fd, write_fd = os.pipe()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.Popen([sys.executable, "-c", ORPHANING], pass_fds=(write_fd,), env=env)
        os.close(write_fd)
        assert proc.wait(timeout=60) == -9
        # the child holds write_fd too, so the pipe ends once the child has exited
        assert select.select([read_fd], [], [], 10)[0] and os.read(read_fd, 1) == b""
    finally:
        os.close(read_fd)


def test_the_child_writes_nothing_to_stdout_or_stderr(capfd, pipe):
    parent = os.getpid()
    noisy_r, noisy_w = pipe()

    def noisy(i):
        if os.getpid() != parent:
            os.write(1, b"out\n")
            os.write(2, b"err\n")
            os.write(noisy_w, b"x")
        elif i == 0:
            _wait(noisy_r)  # until the child has written

    assert _fields(runner._stream_reports(_rows(8, noisy))) == PASSED_8
    assert capfd.readouterr() == ("", "")


def test_an_interrupt_in_a_check_kills_and_reaps_the_child():
    def interrupt(i):
        if i == 0:
            raise KeyboardInterrupt

    # this process runs row 0 and is interrupted in it; the fixture checks the reaping
    with pytest.raises(KeyboardInterrupt):
        list(runner._stream_reports(_rows(8, interrupt)))


def test_a_second_pass_replays_the_reports_of_the_first(log):
    reports = runner._Reports(runner._stream_reports(_rows(8, log)))
    first = list(reports)
    second = list(reports)
    assert _fields(first) == PASSED_8 and second == first and all(a is b for a, b in zip(first, second))
    assert len(log.read()) == 8
