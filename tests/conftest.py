import os
import select

import pytest
from hypothesis import settings

import stcores.runner

# A deadline fails correct but slower code, at random on a loaded host; the
# property tests are judged on their results alone.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


@pytest.fixture
def hold_row_0(monkeypatch):
    """``hold_row_0(fd)``: the calling process, which always runs row 0 of a
    verify run, starts that row only once a byte has arrived on ``fd``.
    Tests use it to let the forked child act first."""

    def hold(until_fd):
        parent, run_check, held = os.getpid(), stcores.runner._run_check, []

        def held_row_0(*row):
            if os.getpid() == parent and not held:
                held.append(True)
                assert select.select([until_fd], [], [], 60)[0], "nothing arrived within 60 s"
            return run_check(*row)

        monkeypatch.setattr(stcores.runner, "_run_check", held_row_0)

    return hold
