"""The claim pipe of ``cores verify``: which process runs which row."""

import json
import os
import select

import pytest

import stcores.oracle
import stcores.runner
from stcores import run_verify_suite

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


def test_claim_order_is_every_row_once_from_row_0():
    for n in range(1, 41):
        order = stcores.runner._claim_order(n)
        assert sorted(order) == list(range(n)) and order[0] == 0
    assert stcores.runner._claim_order(8) == [0, 7, 6, 1, 5, 4, 2, 3]


def test_every_row_runs_exactly_once_and_each_process_runs_its_rows_in_claim_order(runs):
    parent = os.getpid()
    reports = list(run_verify_suite(4, 5, 12, trials=10))
    assert [r.check for r in reports] == NAMES and all(r.passed for r in reports)
    ran = runs()
    assert sorted(name for _, name in ran) == sorted(NAMES)
    mine, childs = _split(ran, parent)
    assert len({pid for pid, _ in ran}) == 2 and childs and mine[0] == NAMES[0]
    order = [NAMES[i] for i in stcores.runner._claim_order(len(NAMES))]
    for names in (mine, childs):
        assert names == [name for name in order if name in names]
    _no_child_left()


def test_rows_that_race_for_claims_each_run_exactly_once_up_to_256_rows(runs, hold_row_0):
    ran_r, ran_w = os.pipe()
    rows = [(str(i), {}, [()], lambda: os.write(ran_w, b"x") and None) for i in range(256)]
    hold_row_0(ran_r)  # the first run's row 0 waits until the child has run a row
    for k in range(1, 6):
        assert [(r.check, r.witness) for r in stcores.runner._stream_reports(rows)] == [(r[0], None) for r in rows]
        ran = runs()
        assert len(ran) == 256 * k and sorted(name for _, name in ran[-256:]) == sorted(r[0] for r in rows)
    assert len({pid for pid, _ in ran}) > 1
    with pytest.raises(ValueError):
        list(stcores.runner._stream_reports(rows + rows[:1]))
    os.close(ran_r)
    os.close(ran_w)
    _no_child_left()


def test_the_child_takes_a_run_of_free_rows_from_the_back(monkeypatch, runs, hold_row_0):
    parent = os.getpid()
    second_r, second_w = os.pipe()
    run_check, childs = stcores.runner._run_check, []

    def signal_the_childs_second_row(name, *rest):
        if os.getpid() != parent:
            childs.append(name)
            if len(childs) == 2:
                os.write(second_w, b"x")
        return run_check(name, *rest)

    monkeypatch.setattr(stcores.runner, "_run_check", signal_the_childs_second_row)
    hold_row_0(second_r)
    try:
        reports = list(run_verify_suite(5, 6, 20))
    finally:
        os.close(second_r)
        os.close(second_w)
    assert [r.check for r in reports] == NAMES and all(r.passed for r in reports)
    mine, childs = _split(runs(), parent)
    # while this process holds row 0, every other row is free: the child claims the last two first
    assert childs[:2] == NAMES[:-3:-1] and mine[0] == NAMES[0]
    _no_child_left()


@pytest.mark.parametrize("bounds, trials", [((1, 1, 4), 60), ((2, 3, 6), 4), ((4, 5, 12), 10), ((5, 6, 20), 60)])
def test_the_reports_equal_those_of_one_process(monkeypatch, bounds, trials):
    forked = _fields(run_verify_suite(*bounds, trials=trials))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _fields(run_verify_suite(*bounds, trials=trials)) == forked
    monkeypatch.delattr(os, "fork")
    assert _fields(run_verify_suite(*bounds, trials=trials)) == forked
    assert [check for check, *_ in forked] == NAMES


def test_a_child_that_exits_in_its_first_row_fails_only_that_row(monkeypatch, runs, hold_row_0):
    parent = os.getpid()
    died_r, died_w = os.pipe()
    run_check = stcores.runner._run_check

    def exit_3_in_child(name, *rest):
        if os.getpid() != parent:
            run_check(name, {}, [], None)  # logs the row, checks nothing
            os.write(died_w, b"x")
            os._exit(3)
        return run_check(name, *rest)

    monkeypatch.setattr(stcores.runner, "_run_check", exit_3_in_child)
    hold_row_0(died_r)
    try:
        reports = list(run_verify_suite(4, 5, 12, trials=10))
    finally:
        os.close(died_r)
        os.close(died_w)
    assert [r.check for r in reports] == NAMES
    mine, childs = _split(runs(), parent)
    assert len(childs) == 1 and sorted(mine + childs) == sorted(NAMES)
    failed = {r.check: (r.witness, r.counts) for r in reports if not r.passed}
    assert failed == {childs[0]: (CHILD_DIED.format(3), {"checked": 0})}
    _no_child_left()


def test_when_the_childs_first_row_is_slow_the_parent_runs_every_other_row(monkeypatch, hold_row_0):
    parent = os.getpid()
    started_r, started_w = os.pipe()
    gate_r, gate_w = os.pipe()
    run_check, mine = stcores.runner._run_check, []

    def wait_in_child(*row):
        if os.getpid() != parent:
            os.write(started_w, b"x")
            select.select([gate_r], [], [], 60)
        else:
            mine.append(row[0])
            if len(mine) == len(NAMES) - 1:
                os.write(gate_w, b"x")  # the parent's last row
        return run_check(*row)

    monkeypatch.setattr(stcores.runner, "_run_check", wait_in_child)
    hold_row_0(started_r)
    try:
        reports = list(run_verify_suite(4, 5, 12, trials=10))
    finally:
        for fd in (started_r, started_w, gate_r, gate_w):
            os.close(fd)
    assert [r.check for r in reports] == NAMES and all(r.passed for r in reports)
    assert len(set(mine)) == len(NAMES) - 1
    _no_child_left()


def test_the_childs_reports_are_given_while_this_process_still_runs_rows(monkeypatch, runs, hold_row_0):
    parent = os.getpid()
    fourth_r, fourth_w = os.pipe()
    gate_r, gate_w = os.pipe()
    run_check, childs, mine, given = stcores.runner._run_check, [], [], []

    def pace(name, *rest):
        if os.getpid() != parent:
            childs.append(name)
            if len(childs) == 4:
                os.write(fourth_w, b"x")
                select.select([gate_r], [], [], 60)
        else:
            mine.append(list(given))
            if len(mine) == 3:
                os.write(gate_w, b"x")
        return run_check(name, *rest)

    # This process starts row 0 once the child has reported three rows, and
    # the child starts its fourth row; the child waits there until this
    # process starts its third row.
    monkeypatch.setattr(stcores.runner, "_run_check", pace)
    hold_row_0(fourth_r)
    try:
        for rep in run_verify_suite(4, 5, 12, trials=10):
            given.append(rep.check)
    finally:
        for fd in (fourth_r, fourth_w, gate_r, gate_w):
            os.close(fd)
    assert given == NAMES
    here, there = _split(runs(), parent)
    done = {*here[:2], *there[:3]}
    assert mine[2] == NAMES[: next(i for i, name in enumerate(NAMES) if name not in done)] != mine[1]
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


@pytest.mark.parametrize("dies_at", [1, 2])
def test_a_child_that_dies_before_a_claim_does_not_stop_the_parent(monkeypatch, runs, hold_row_0, dies_at):
    parent = os.getpid()
    died_r, died_w = os.pipe()
    read, claims = os.read, []

    def read_or_die(fd, n):
        if n == 1 and os.getpid() != parent:
            claims.append(fd)
            if len(claims) == dies_at:
                os.write(died_w, b"x")
                os._exit(4)
        return read(fd, n)

    monkeypatch.setattr(os, "read", read_or_die)
    hold_row_0(died_r)
    try:
        reports = list(run_verify_suite(2, 3, 6, trials=4))
    finally:
        os.close(died_r)
        os.close(died_w)
    assert [(r.check, r.witness) for r in reports] == [(name, None) for name in NAMES]
    # the child reported each row it claimed before it died; the rest ran here
    mine, childs = _split(runs(), parent)
    assert len(childs) == dies_at - 1 and sorted(mine + childs) == sorted(NAMES)
    _no_child_left()
