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
``os.fork`` shares the rows with this process through a claim pipe.
Before the fork, the pipe is filled with the numbers of rows 1 to n - 1,
one byte each, in claim order (:func:`_claim_order`), and its write end is
closed.  This process runs row 0, so the first line never waits for the
child.  Each process claims a row by reading one byte; the kernel gives
each byte to one reader, and an empty read means every row is claimed, so
no read of the claim pipe ever waits.  One byte per row number allows at
most 256 rows.  The child writes one JSON line ``[row, witness, checked]``
per row it runs.  If the child dies, each row it claimed but never
reported fails with a witness naming its exit status, and the rows it
never claimed are still in the pipe and run here.  If this process dies,
the child exits at its next write of a report.  Where no child starts,
every row runs here, in row order.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterable, Iterator, NoReturn

from .partition import _Frozen


class VerifyReport(_Frozen):
    """One check's name, params, first counterexample (None if it passed) and counts."""

    __slots__ = ("check", "params", "witness", "counts")
    check: str
    params: dict
    witness: str | None
    counts: dict | None

    def __init__(self, check: str, params: dict, witness: str | None = None, counts: dict | None = None):
        self.__setstate__((check, params, witness, counts))

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
    starts claiming rows, while this process runs row 0 and then claims
    rows too.  After each of its own checks it reads the reports the child
    has finished, without waiting; once every row is claimed, it waits for
    them.  However the iteration ends, even by ``close`` or an exception,
    the child is killed if it still runs and reaped.
    """
    started = _start_child(rows)
    if started is None:
        yield from (_run_check(*row) for row in rows)
        return
    claims, child = started
    reports: dict[int, VerifyReport] = {}
    try:
        reports[0] = _run_check(*rows[0])
        for row in range(len(rows)):
            while row not in reports:
                claim = os.read(claims, 1)
                if claim:
                    reports[claim[0]] = _run_check(*rows[claim[0]])
                elif child.status is None:
                    os.set_blocking(child.report_fd, True)  # every row is claimed: wait for the child
                else:
                    name, params = rows[row][:2]
                    witness = f"the child process running this check ended with status {child.status}"
                    reports[row] = VerifyReport(name, params, witness, {"checked": 0})
                if child.status is None:
                    child.read(reports)
            yield reports.pop(row)
    finally:
        os.close(claims)
        child.close()


class _Child:
    """The forked child as this process sees it: the read end of its report
    pipe, the start of a line not yet read in full, and its exit status once
    it has been reaped."""

    def __init__(self, rows: list[tuple], pid: int, report_fd: int):
        self.rows, self.pid, self.report_fd = rows, pid, report_fd
        self.partial = b""
        self.status: int | None = None

    def read(self, reports: dict[int, VerifyReport]) -> None:
        """Add each report the child has finished to ``reports``, by row;
        reap the child once its pipe has ended.  A line the child did not
        finish is dropped."""
        try:
            data = os.read(self.report_fd, 1 << 16)
        except BlockingIOError:
            return
        if not data:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            return
        *lines, self.partial = (self.partial + data).split(b"\n")
        for line in lines:
            row, witness, checked = json.loads(line)
            name, params = self.rows[row][:2]
            reports[row] = VerifyReport(name, params, witness, {"checked": checked})

    def close(self) -> None:
        os.close(self.report_fd)
        if self.status is None:
            # The child has ended, has nothing left to report, or is no
            # longer wanted.  A child already exiting keeps its exit status.
            os.kill(self.pid, _SIGKILL)
            os.waitpid(self.pid, 0)


def _claim_order(n: int) -> list[int]:
    """Rows 0 to n - 1 in the order they are claimed: 0, n - 1, n - 2, 1,
    n - 3, n - 4, 2, and so on, one row from the front and then two from
    the back.

    The front rows are the next lines to print, so this process reaches
    them early; the back rows keep the child busy meanwhile.  Claimed front
    to back, the suite's longest check, ``triple-enumerations-agree``
    (row 23 of 34), starts late and the default run takes longer.
    """
    left, order = list(range(n)), []
    while left:
        order.append(left.pop(0))
        order.extend(reversed(left[-2:]))
        del left[-2:]
    return order


def _start_child(rows: list[tuple]) -> tuple[int, _Child] | None:
    """Fork a child that claims rows (see :func:`_report_to_pipe`), and
    return the read end of the claim pipe and the child.

    Returns None, starting nothing, where ``os.fork`` does not exist, where
    this process may run on fewer than two CPUs (there the split adds a
    process and no speed), or where the fork fails.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    order = bytes(_claim_order(len(rows))[1:])  # ValueError past 256 rows
    claims, fill = os.pipe()
    os.write(fill, order)
    os.close(fill)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (claims, read_fd, write_fd):
            os.close(fd)
        return None
    if not pid:
        os.close(read_fd)
        _report_to_pipe(rows, claims, write_fd)
    os.close(write_fd)
    os.set_blocking(read_fd, False)
    return claims, _Child(rows, pid, read_fd)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _report_to_pipe(rows: list[tuple], claims: int, write_fd: int) -> NoReturn:
    """The forked child: claim rows until none is left, and write one line
    per report.

    It leaves only through ``os._exit``, so no ``atexit`` hook runs and no
    buffer inherited from the parent is flushed; its stdout and stderr
    point at the null device.  If the parent dies without killing it, the
    child's next write of a report fails, and it exits with status 1.
    """
    status = 1
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        while claim := os.read(claims, 1):
            rep = _run_check(*rows[claim[0]])
            os.write(write_fd, json.dumps([claim[0], rep.witness, rep.counts["checked"]]).encode() + b"\n")
        status = 0
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
