"""The runner of the verify suite: each check as a report, on up to two processes.

A check is a row (name, params, cases, witness_of): ``cases`` is a lazy
iterable of argument tuples and ``witness_of(*case)`` returns None or a
witness string naming a counterexample.  :func:`_run_check` counts the
cases, stops a check at its first witness and builds the report; an
exception raised while a check generates or checks its cases becomes that
check's failure.  A row may run in either process, so its cases must not
depend on the rows run before it.

:func:`_stream_reports` yields one report per row, in row order, each as
soon as it and every row before it have ended.  A child made by
``os.fork`` shares the rows with this process through a two-ended queue, a
pipe that holds one token of two bytes ``(lo, hi)``: rows ``lo`` to
``hi - 1`` are unclaimed.  Reading the token takes it, and the one write
that puts it back releases it.  This process claims rows from the front,
in row order; the child claims them from the back and writes one JSON line
``[row, witness, checked]`` per row it runs.  If the child dies, each row
it claimed but never reported fails with a witness naming its exit status,
and each row it never claimed runs here.  Where no child starts, every row
runs here, in row order.
"""

from __future__ import annotations

import json
import os
import select
from typing import Callable, Iterable, Iterator, NoReturn

from .betaset import _Frozen, _set


class VerifyReport(_Frozen):
    """One check's name, params, first counterexample (None if it passed) and counts."""

    __slots__ = ("check", "params", "witness", "counts")
    check: str
    params: dict
    witness: str | None
    counts: dict | None

    def __init__(self, check: str, params: dict, witness: str | None = None, counts: dict | None = None):
        _set(self, "check", check)
        _set(self, "params", params)
        _set(self, "witness", witness)
        _set(self, "counts", counts)

    @property
    def passed(self) -> bool:
        """A check passes when it found no witness against it."""
        return self.witness is None

    def to_json_dict(self) -> dict:
        return {"check": self.check, "params": self.params, "pass": self.passed, "witness": self.witness}


def _run_check(name: str, params: dict, cases: Iterable[tuple], witness_of: Callable[..., str | None]) -> VerifyReport:
    """Call ``witness_of(*case)`` on each case until one returns a witness.

    An exception raised while generating or checking a case is the check's
    failure, with the witness ``"<ExceptionType>: <message>"``.
    """
    checked = 0
    witness = None
    try:
        for case in cases:
            checked += 1
            witness = witness_of(*case)
            if witness is not None:
                break
    except Exception as exc:
        witness = f"{type(exc).__name__}: {exc}"
    return VerifyReport(name, params, witness, {"checked": checked})


# POSIX fixes the number of SIGKILL; the signal module would be one more import.
_SIGKILL = 9


def _stream_reports(rows: list[tuple]) -> Iterator[VerifyReport]:
    """The reports of ``rows``, in row order, each as soon as it can be given.

    On the first ``next``, a child process (see :func:`_start_child`)
    starts on the rows from the back while this process claims them from
    the front.  Once a claim finds that the child holds the next row, this
    process reads the child's reports.  However the iteration ends, even
    by ``close`` or an exception, the child is killed if it still runs and
    reaped.
    """
    child = _start_child(rows)
    if child is None:
        yield from (_run_check(*row) for row in rows)
        return
    queue = _Queue(rows, *child)
    try:
        for i, row in enumerate(rows):
            if not queue.claim():
                # The child holds row i and every row after it.
                yield from map(queue.report_of, range(i, len(rows)))
                return
            yield _run_check(*row)
    finally:
        queue.close()


class _Queue:
    """This process's end of the two-ended queue of rows.

    It has claimed ``rows[:lo]``; the child has claimed ``rows[hi:]`` as far
    as this process has seen.  ``status`` is the child's exit code once it
    has been reaped.
    """

    def __init__(self, rows: list[tuple], pid: int, token: tuple[int, int], report_fd: int):
        self.rows, self.pid, (self.token_r, self.token_w), self.report_fd = rows, pid, token, report_fd
        self.lo, self.hi = 0, len(rows)
        self.reports: dict[int, VerifyReport] = {}
        self.reported = 0
        self.partial = b""
        self.status: int | None = None

    def claim(self) -> bool:
        """Take the next row from the front; False if the child holds it.

        While waiting for the token, this reads the child's reports, so it
        sees the child end, and once the child has ended it no longer waits.
        """
        held = False
        while self.status is None and not held:
            ready = select.select([self.token_r, self.report_fd], [], [])[0]
            if self.report_fd in ready:
                self._read_reports()
            held = self.token_r in ready and self.status is None and self._take_token()
        got = self.lo < self.hi
        self.lo += got
        if held:
            os.write(self.token_w, bytes([self.lo, self.hi]))
        return got

    def _take_token(self) -> bool:
        # The token pipe does not block: the child may have taken the token
        # since select saw it, and it may die before it puts it back.
        try:
            self.hi = os.read(self.token_r, 2)[1]
        except BlockingIOError:
            return False
        return True

    def report_of(self, row: int) -> VerifyReport:
        """The child's report of ``row``, which it claimed."""
        while row not in self.reports and self.status is None:
            self._read_reports()
        if row in self.reports:
            return self.reports.pop(row)
        name, params = self.rows[row][:2]
        witness = f"the child process running this check ended with status {self.status}"
        return VerifyReport(name, params, witness, {"checked": 0})

    def _read_reports(self) -> None:
        data = os.read(self.report_fd, 1 << 16)
        if not data:
            self._child_ended()
            return
        *lines, self.partial = (self.partial + data).split(b"\n")
        for line in lines:
            row, witness, checked = json.loads(line)
            name, params = self.rows[row][:2]
            self.reports[row] = VerifyReport(name, params, witness, {"checked": checked})
            self.reported += 1

    def _child_ended(self) -> None:
        # A line the child did not finish is dropped.  The child puts the
        # token back before it runs the row it claimed, so a token that is
        # lost with the child covers no unreported row.
        self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if not self._take_token():
            self.hi = len(self.rows) - self.reported

    def close(self) -> None:
        for fd in (self.token_r, self.token_w, self.report_fd):
            os.close(fd)
        if self.status is None:
            # The child has ended, has nothing left to report, or is no
            # longer wanted.  A child already exiting keeps its exit status.
            os.kill(self.pid, _SIGKILL)
            os.waitpid(self.pid, 0)


def _start_child(rows: list[tuple]) -> tuple[int, tuple[int, int], int] | None:
    """Fork a child that runs rows from the back (see
    :func:`_report_to_pipe`), and return its pid, both ends of the token
    pipe and the read end of its report pipe.

    Returns None, starting nothing, where ``os.fork`` does not exist, where
    this process may run on fewer than two CPUs (there the split adds a
    process and no speed), or where the fork fails.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    # Both processes read the token from one pipe and write it back to it.
    # One byte per end of the queue: at most 255 rows.
    token = os.pipe()
    os.set_blocking(token[0], False)
    read_fd, write_fd = os.pipe()
    os.write(token[1], bytes([0, len(rows)]))
    try:
        pid = os.fork()
    except OSError:
        for fd in (*token, read_fd, write_fd):
            os.close(fd)
        return None
    if not pid:
        os.close(read_fd)
        _report_to_pipe(rows, token, write_fd)
    os.close(write_fd)
    return pid, token, read_fd


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _report_to_pipe(rows: list[tuple], token: tuple[int, int], write_fd: int) -> NoReturn:
    """The forked child: claim rows from the back until none is left,
    and write one line per report.

    It leaves only through ``os._exit``, so no ``atexit`` hook runs and no
    buffer inherited from the parent is flushed; its stdout and stderr
    point at the null device.  If the parent dies without killing it, the
    child exits at its next write of a report or while it waits for the
    token, which the parent may have held when it died.
    """
    status = 1
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        waiting = select.poll()
        waiting.register(token[0], select.POLLIN)
        # The report pipe polls POLLERR once no process can read it, that is
        # once the parent is gone.
        waiting.register(write_fd, 0)
        while all(fd != write_fd for fd, _ in waiting.poll()):
            try:
                lo, hi = os.read(token[0], 2)
            except BlockingIOError:
                continue  # the parent took the token first
            got = lo < hi
            hi -= got
            os.write(token[1], bytes([lo, hi]))
            if not got:
                status = 0
                break
            rep = _run_check(*rows[hi])
            os.write(write_fd, json.dumps([hi, rep.witness, rep.counts["checked"]]).encode() + b"\n")
    finally:
        os._exit(status)


class _Reports:
    """The reports of one suite run, in row order.  The first pass streams
    them as the checks end; a later pass replays the reports already made
    and runs no check twice.  Closing a pass early stops the
    run (``perfbench/traced.py`` reads the reports twice before the CLI
    prints them)."""

    def __init__(self, source: Iterator[VerifyReport]):
        self._source = source
        self._made: list[VerifyReport] = []

    def __iter__(self) -> Iterator[VerifyReport]:
        try:
            yield from self._made
            for rep in self._source:
                self._made.append(rep)
                yield rep
        finally:
            self._source.close()
