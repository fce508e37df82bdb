"""``cores convert``: every view of one core reads back to the same views,
down to the smallest moduli and sums."""

import json

import pytest

from stcores.cli import main

# The (3,4)-core (3,1,1) in every view that convert writes.
VIEWS = {
    "partition": [3, 1, 1], "size": 5, "beta": {"members": [2], "gaps": [-3]}, "t": 4, "is_t_core": True,
    "a": [0, -3, 6, 3], "z": {"t": 4, "s": 3, "z": [3, 0, 0, 0]}, "u": {"t": 4, "s": 3, "u": [1, 0, 0]},
}


def convert(capsys, *argv):
    code = main(["convert", *argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if code == 0 else None, captured.err


@pytest.mark.parametrize("given", [
    ("--partition", "3,1,1"),
    ("--beta", json.dumps(VIEWS["beta"])),
    ("--a", "0,-3,6,3"),
    ("--z", "3,0,0,0"),
    ("--u", "1,0,0"),
])
def test_every_view_reads_back_to_all_views(capsys, given):
    assert convert(capsys, *given, "--t", "4", "--s", "3") == (0, VIEWS, "")


def test_moduli_of_1_are_accepted(capsys):
    # the empty partition is the one 1-core, and z = (1) its (1,1) view
    empty = {
        "partition": [], "size": 0, "beta": {"members": [], "gaps": []}, "t": 1, "is_t_core": True,
        "a": [0], "z": {"t": 1, "s": 1, "z": [1]}, "u": {"t": 1, "s": 1, "u": [0]},
    }
    assert convert(capsys, "--partition", "", "--t", "1", "--s", "1") == (0, empty, "")
    assert convert(capsys, "--z", "1") == (0, empty, "")
    code, out, err = convert(capsys, "--partition", "3,1", "--t", "1", "--s", "1")
    assert (code, err, out["is_t_core"], "a" in out) == (0, "", False, False)
