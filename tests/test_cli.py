import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stcores.betaset
import stcores.coords
import stcores.runner
from stcores import enumeration, oracle
from stcores.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_general(capsys):
    code, out, _ = run(capsys, "count", "3", "4")
    assert code == 0 and out == "5\n"


def test_count_prints_answers_beyond_the_int_str_digit_limit(capsys):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)  # CPython's default, as in a fresh interpreter
    code, out, err = run(capsys, "count", "10000", "10001")
    assert (code, err) == (0, "")
    assert len(out.strip()) > 4300
    assert int(out) == math.comb(20001, 10000) // 20001


def test_count_self_conjugate(capsys):
    code, out, _ = run(capsys, "count", "3", "4", "--self-conjugate")
    assert code == 0 and out == "3\n"


def test_count_triple(capsys):
    code, out, _ = run(capsys, "count", "triple", "3", "1")
    assert code == 0 and out == "4\n"


def test_count_non_coprime_exits_2(capsys):
    code, _, err = run(capsys, "count", "2", "4")
    assert code == 2 and "2 and 4 must be coprime" in err
    code, _, err = run(capsys, "count", "triple", "2", "4")
    assert code == 2 and "2 and 4 must be coprime" in err


def test_count_malformed_exits_2(capsys):
    for argv, message in (
        (("2",), "usage: cores count <s> <t> [--self-conjugate]"),
        (("triple", "3"), "usage: cores count triple <m> <d>"),
        (("triple", "3", "1", "--self-conjugate"), "usage: cores count triple <m> <d>"),
        (("x", "4"), "s must be an integer, got 'x'"),
    ):
        assert run(capsys, "count", *argv) == (2, "", f"error: {message}\n"), argv


def test_enum_malformed_exits_2(capsys):
    for argv, message in (
        (("3", "4", "--triple", "3", "1"), "--triple takes no positional s t and no --self-conjugate"),
        (("3",), "usage: cores enum <s> <t> [--self-conjugate] | cores enum --triple <m> <d>"),
    ):
        assert run(capsys, "enum", *argv) == (2, "", f"error: {message}\n"), argv


def test_nonpositive_parameters_exit_2(capsys):
    code, _, err = run(capsys, "count", "0", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "avg", "0", "5")
    assert code == 2 and "moduli must be >= 1, got 0 and 5" in err
    code, _, err = run(capsys, "enum", "--triple", "0", "1")
    assert code == 2 and "got 0 and 1" in err
    code, out, err = run(capsys, "verify", "--smax", "0", "--tmax", "0", "--nmax", "0")
    assert code == 2 and "s_max must be >= 1" in err and out == ""
    code, out, err = run(capsys, "verify", "--tmax", "-1")
    assert code == 2 and "t_max must be >= 1" in err and out == ""
    code, _, err = run(capsys, "tcore", "0", "--partition", "1")
    assert code == 2 and "error" in err


def test_enum_csv(capsys):
    assert run(capsys, "enum", "2", "3", "--format", "csv") == (0, "0,1,1;0,1,2;;0\n2,0,0;3,1,-1;1;1\n", "")
    assert run(capsys, "enum", "2", "3", "--format", "csv", "--with-stab") == (
        0, "0,1,1;0,1,2;;0;1\n2,0,0;3,1,-1;1;1;2\n", "")
    # parts joined by "+"; the empty partition is an empty cell
    code, out, _ = run(capsys, "enum", "6", "7", "--format", "csv")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 132
    assert lines[97] == "1,2,1,0,0,2,0;7,1,9,3,-3,-2,6;3+2+2;7"
    assert sum(line.split(";")[2] == "" for line in lines) == 1


def test_enum_jsonl_with_stab(capsys):
    assert run(capsys, "enum", "2", "3") == (0, (
        '{"z":[0,1,1],"a":[0,1,2],"parts":[],"size":0}\n'
        '{"z":[2,0,0],"a":[3,1,-1],"parts":[1],"size":1}\n'
    ), "")
    assert run(capsys, "enum", "2", "3", "--with-stab", "--format", "jsonl") == (0, (
        '{"z":[0,1,1],"a":[0,1,2],"parts":[],"size":0,"stab":1}\n'
        '{"z":[2,0,0],"a":[3,1,-1],"parts":[1],"size":1,"stab":2}\n'
    ), "")


def test_enum_json_and_plain(capsys):
    assert run(capsys, "enum", "2", "3", "--format", "json") == (0, (
        '[{"z":[0,1,1],"a":[0,1,2],"parts":[],"size":0},{"z":[2,0,0],"a":[3,1,-1],"parts":[1],"size":1}]\n'
    ), "")
    assert run(capsys, "enum", "2", "3", "--format", "json", "--with-stab") == (0, (
        '[{"z":[0,1,1],"a":[0,1,2],"parts":[],"size":0,"stab":1},'
        '{"z":[2,0,0],"a":[3,1,-1],"parts":[1],"size":1,"stab":2}]\n'
    ), "")
    assert run(capsys, "enum", "2", "3", "--format", "plain") == (
        0, "z=0,1,1 a=0,1,2 parts= size=0\nz=2,0,0 a=3,1,-1 parts=1 size=1\n", "")
    assert run(capsys, "enum", "2", "3", "--format", "plain", "--with-stab") == (
        0, "z=0,1,1 a=0,1,2 parts= size=0 stab=1\nz=2,0,0 a=3,1,-1 parts=1 size=1 stab=2\n", "")
    assert run(capsys, "enum", "--triple", "3", "2", "--format", "plain") == (0, (
        "z=0,0,1,1,0 a=5,1,2,3,-1 parts=1 size=1\n"
        "z=0,1,0,0,1 a=0,1,2,3,4 parts= size=0\n"
        "z=1,-1,1,0,1 a=5,1,2,-2,4 parts=1+1 size=2\n"
        "z=1,0,-1,1,1 a=0,1,7,-2,4 parts=3+1 size=4\n"
        "z=1,1,0,1,-1 a=0,6,2,3,-1 parts=2 size=2\n"
        "z=1,1,1,-1,0 a=0,6,-3,3,4 parts=2+1+1 size=4\n"
    ), "")


def test_enum_non_coprime_exits_2(capsys):
    code, _, err = run(capsys, "enum", "2", "4")
    assert code == 2 and "coprime" in err


def test_enum_self_conjugate(capsys):
    code, out, _ = run(capsys, "enum", "3", "4", "--self-conjugate")
    assert code == 0 and len(out.splitlines()) == 3


def test_enum_triple_methods_agree(capsys):
    code, sym_out, _ = run(capsys, "enum", "--triple", "3", "2", "--format", "jsonl")
    assert code == 0
    code, asym_out, _ = run(capsys, "enum", "--triple", "3", "2", "--method", "asym", "--format", "jsonl")
    assert code == 0
    sym = {tuple(json.loads(l)["parts"]) for l in sym_out.splitlines()}
    asym = {tuple(json.loads(l)["parts"]) for l in asym_out.splitlines()}
    assert sym == asym and len(sym) == 6


def test_enum_triple_with_stab_rejected(capsys):
    code, _, err = run(capsys, "enum", "--triple", "3", "2", "--with-stab")
    assert code == 2 and "stab" in err


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_enum_output_matches_the_recorded_digests(capsys):
    # every enum command of the benchmark, in both orientations
    digests = json.loads(DIGESTS.read_text())
    keys = [key for key in digests if key.startswith("enum ")]
    oriented = [key.split() for key in keys if "--triple" not in key]
    assert len(keys) == 10
    assert all(" ".join([argv[0], argv[2], argv[1], *argv[3:]]) in keys for argv in oriented)
    for key in keys:
        code, out, err = run(capsys, *key.split())
        assert (code, err) == (0, ""), key
        assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key


@pytest.mark.parametrize("argv, records", [
    pytest.param(["4", "5"], lambda: enumeration.iter_st_cores(4, 5), id="general"),
    pytest.param(["4", "5", "--with-stab"], lambda: enumeration.attach_stabilizers(enumeration.iter_st_cores(4, 5)),
                 id="general-stab"),
    pytest.param(["5", "7", "--self-conjugate"], lambda: enumeration.iter_sc_st_cores(5, 7), id="sc"),
    pytest.param(["5", "7", "--self-conjugate", "--with-stab"],
                 lambda: enumeration.attach_stabilizers(enumeration.iter_sc_st_cores(5, 7), self_conjugate=True),
                 id="sc-stab"),
    pytest.param(["--triple", "3", "2"], lambda: enumeration.iter_triple_sym(3, 2), id="triple-sym"),
    pytest.param(["--triple", "3", "2", "--method", "asym"], lambda: enumeration.iter_triple_asym(3, 2),
                 id="triple-asym"),
    # 429 records: more than one block of lines
    pytest.param(["7", "8"], lambda: enumeration.iter_st_cores(7, 8), id="blocks"),
])
def test_jsonl_lines_are_compact_json_of_the_record(capsys, argv, records):
    from stcores.cli import _compact_json

    code, out, err = run(capsys, "enum", *argv)
    expected = [_compact_json(rec.to_json_dict()) for rec in records()]
    assert (code, err) == (0, "") and len(expected) > 1
    assert out.splitlines() == expected
    assert run(capsys, "enum", *argv, "--format", "json") == (0, "[" + ",".join(expected) + "]\n", "")


class _Recording:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv", "plain"])
@pytest.mark.parametrize("s, t", [(2, 3), (7, 8), (7, 9)])
def test_emit_records_writes_the_first_line_alone_then_blocks(capsys, fmt, s, t):
    from stcores.cli import _BLOCK, _compact_json, _emit_records

    records = list(enumeration.iter_st_cores(s, t))
    out = _Recording()
    _emit_records(records, fmt, out)
    code, text, err = run(capsys, "enum", str(s), str(t), "--format", fmt)
    assert (code, err, "".join(out.writes)) == (0, "", text)
    if fmt == "json":
        assert out.writes[0] == "[" + _compact_json(records[0].to_json_dict())
    else:
        assert out.writes[0] == text.splitlines(keepends=True)[0]
    # 2, 429 and 715 records: none, one and two full blocks after the first line
    assert len(out.writes) <= 2 + math.ceil(len(records) / _BLOCK)


def test_enum_of_a_closed_pipe_exits_141_quietly():
    # 3,978 lines, far more than a pipe buffers, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "stcores.cli", "enum", "8", "11"],
        env=_env_with_src(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert json.loads(first)["z"] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 5] and err == b""


def test_enum_method_needs_triple(capsys):
    for method in ("asym", "sym"):
        code, out, err = run(capsys, "enum", "3", "4", "--method", method)
        assert (code, out) == (2, "") and "--method" in err and "--triple" in err
    assert run(capsys, "enum", "--triple", "3", "2") == run(capsys, "enum", "--triple", "3", "2", "--method", "sym")


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_stats_fractions_and_json_unloaded():
    # stcores.convert too: only convert and tcore compile it
    code = "import sys, stcores.cli; print(sorted({'stcores.stats', 'stcores.convert', 'fractions', 'json'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_avg(capsys):
    assert run(capsys, "avg", "2", "3") == (0, "1/2\n", "")
    assert run(capsys, "avg", "2", "3", "--weighted") == (0, "1/3\n", "")
    assert run(capsys, "avg", "3", "2", "--weighted", "--self-conjugate") == (0, "1/2\n", "")
    assert run(capsys, "avg", "1", "2") == (0, "0\n", "")
    assert run(capsys, "avg", "19", "20") == (0, "570\n", "")  # 1.77e9 cores


def test_avg_moment(capsys):
    assert run(capsys, "avg", "2", "3", "--moment", "0") == (0, "2\n", "")
    assert run(capsys, "avg", "2", "3", "--moment", "2") == (0, "1\n", "")
    # the sum over all 742,900 cores, as enumeration computes it
    assert run(capsys, "avg", "13", "14", "--moment", "2") == (0, "35681338420\n", "")
    # no cap on E: the cost O(s^2 t e^2) is stated in the help
    assert run(capsys, "avg", "2", "3", "--moment", "9") == (0, "1\n", "")
    assert oracle.enumerated_moment_sums(2, 3, 9)[9] == 1
    assert run(capsys, "avg", "2", "3", "--moment", "-1") == (2, "", "error: --moment must be >= 0\n")


def test_tcore(capsys):
    code, out, _ = run(capsys, "tcore", "4", "--partition", "5,5")
    assert code == 0 and out == "[1,1]\n"
    code, out, _ = run(capsys, "tcore", "3", "--partition", "")
    assert code == 0 and out == "[]\n"
    code, _, err = run(capsys, "tcore", "0", "--partition", "5,5")
    assert code == 2 and "t must be >= 1" in err


def test_convert_from_partition(capsys):
    code, out, _ = run(capsys, "convert", "--partition", "1", "--t", "3", "--s", "2")
    assert code == 0
    d = json.loads(out)
    assert d["partition"] == [1] and d["size"] == 1
    assert d["beta"] == {"members": [0], "gaps": [-1]}
    assert d["is_t_core"] and d["a"] == [3, 1, -1]
    assert d["z"] == {"t": 3, "s": 2, "z": [2, 0, 0]}
    assert d["u"] == {"t": 3, "s": 2, "u": [1, 0]}


def test_convert_from_z(capsys):
    code, out, _ = run(capsys, "convert", "--z", "2,0,0")
    assert code == 0
    d = json.loads(out)
    assert d["partition"] == [1] and d["a"] == [3, 1, -1]


def test_convert_z_names_the_flag_it_rejects(capsys):
    for z in ("1,-1", "0,0"):
        code, out, err = run(capsys, "convert", "--z", z)
        assert (code, out) == (2, "") and "--z entries must sum to s >= 1, got 0" in err
    code, out, err = run(capsys, "convert", "--z", "2,0,0", "--t", "4")
    assert (code, out) == (2, "") and "--t 4 disagrees with --z" in err
    code, out, err = run(capsys, "convert", "--z", "1,x")
    assert (code, out) == (2, "") and "cannot parse z-tuple '1,x': invalid literal" in err
    code, out, err = run(capsys, "convert", "--z", "2,0,0", "--s", "3")
    assert (code, out) == (2, "") and "--s 3 disagrees with --z" in err
    code, out, _ = run(capsys, "convert", "--z", "2,0,0", "--t", "3", "--s", "2")
    assert code == 0 and json.loads(out)["z"] == {"t": 3, "s": 2, "z": [2, 0, 0]}


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ("--z", "0,2,-1"),
            '{"partition":[1,1],"size":2,"beta":{"members":[0],"gaps":[-2]},"t":3,"is_t_core":true,'
            '"a":[3,-2,2],"z":{"t":3,"s":1,"z":[0,2,-1]}}\n',
        ),
        (
            ("--z=3,-1,0,-1",),
            '{"partition":[4,1,1,1],"size":7,"beta":{"members":[3],"gaps":[-4]},"t":4,"is_t_core":true,'
            '"a":[-4,1,2,7],"z":{"t":4,"s":1,"z":[3,-1,0,-1]},"u":{"t":4,"s":1,"u":[1,-1,0]}}\n',
        ),
        (
            ("--u=-1,2", "--t", "3", "--s", "2"),
            '{"partition":[3,1,1],"size":5,"beta":{"members":[2],"gaps":[-3]},"t":3,"is_t_core":true,'
            '"a":[-3,1,5],"z":{"t":3,"s":2,"z":[-2,2,2]},"u":{"t":3,"s":2,"u":[-1,2]}}\n',
        ),
    ],
    ids=["z-0,2,-1", "z=3,-1,0,-1", "u=-1,2"],
)
def test_convert_general_z_with_negative_entries(capsys, argv, out):
    # z_to_a on t-cores that are not (s,t)-cores
    assert run(capsys, "convert", *argv) == (0, out, "")


def test_convert_takes_a_leading_minus_after_a_space_or_an_equals_sign(capsys):
    for args in (("--z", "-1,1,1"), ("--z=-1,1,1",)):
        code, out, _ = run(capsys, "convert", *args)
        assert code == 0 and json.loads(out)["z"] == {"t": 3, "s": 1, "z": [-1, 1, 1]}
    for args in (("--a", "-3,1,5"), ("--u", "-1,2", "--t", "3", "--s", "2")):
        code, out, _ = run(capsys, "convert", *args)
        assert code == 0 and json.loads(out)["a"] == [-3, 1, 5]
    # an option after the flag is still an option, and an unknown one still exits 2
    for args, message in (
        (("--z", "--bogus"), "--z: expected one argument"),
        (("--bogus", "-1,1,1"), "unrecognized arguments: --bogus -1,1,1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["convert", *args])
        assert exc.value.code == 2 and message in capsys.readouterr().err


def test_convert_a_takes_t_from_its_length(capsys):
    code, out, err = run(capsys, "convert", "--a", "2,-1", "--t", "3")
    assert (code, out) == (2, "") and err == "error: --t 3 disagrees with --a, which has 2 entries\n"
    for extra in ((), ("--t", "2")):
        code, out, _ = run(capsys, "convert", "--a", "2,-1", *extra)
        assert code == 0 and json.loads(out)["t"] == 2 and json.loads(out)["a"] == [2, -1]


def test_convert_names_a_modulus_below_1(capsys):
    for args, message in (
        (("--partition", "3,1", "--t", "0"), "--t must be >= 1, got 0"),
        (("--partition", "3,1", "--t", "-2"), "--t must be >= 1, got -2"),
        (("--partition", "3,1", "--t", "3", "--s", "0"), "--s must be >= 1, got 0"),
        (("--z", "2,0,0", "--t", "0"), "--t must be >= 1, got 0"),
        (("--u", "0,1", "--t", "3", "--s", "0"), "--s must be >= 1, got 0"),
    ):
        code, out, err = run(capsys, "convert", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n"), args


def test_convert_s_without_t_exits_2(capsys):
    for flag, value in (("--partition", "5,5"), ("--beta", '{"members":[0],"gaps":[-1]}')):
        code, out, err = run(capsys, "convert", flag, value, "--s", "2")
        assert (code, out) == (2, "") and "--s needs --t" in err
    for extra in ((), ("--t", "3"), ("--s", "2")):
        assert run(capsys, "convert", "--u", "0,1", *extra) == (2, "", "error: --u needs both --t and --s\n")


def test_convert_from_beta(capsys):
    code, out, _ = run(capsys, "convert", "--beta", '{"members":[0,2],"gaps":[-2,-3]}')
    assert code == 0
    assert json.loads(out)["partition"] == [3, 2, 2]


def test_convert_beta_takes_integers_only(capsys):
    for payload, why in (
        ('{"members":[1.5],"gaps":[-1]}', "members[0] = 1.5 is not an integer"),
        ('{"members":[true],"gaps":[-1]}', "members[0] = True is not an integer"),
        ('{"members":[0],"gaps":[-1.0]}', "gaps[0] = -1.0 is not an integer"),
        ('{"members":["0"],"gaps":[-1]}', "members[0] = '0' is not an integer"),
        ("[1]", "expected an object with members and gaps"),
    ):
        code, out, err = run(capsys, "convert", "--beta", payload)
        assert (code, out) == (2, "") and err == f"error: bad --beta payload: {why}\n"


def test_convert_from_u(capsys):
    code, out, _ = run(capsys, "convert", "--u", "0,1", "--t", "2", "--s", "3")
    assert code == 0
    assert json.loads(out)["partition"] == []


def test_convert_non_t_core_skips_coordinates(capsys):
    code, out, _ = run(capsys, "convert", "--partition", "5,5", "--t", "4")
    assert code == 0
    d = json.loads(out)
    assert d["is_t_core"] is False and "a" not in d


def test_convert_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "convert", "--partition", "1", "--z", "2,0,0")
    assert code == 2 and "exactly one" in err


def test_verify_small_passes(capsys):
    code, out, _ = run(capsys, "verify", "--smax", "2", "--tmax", "2", "--nmax", "6")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "--smax", "1", "--tmax", "1", "--nmax", "2", "--format", "jsonl")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert set(first) == {"check", "params", "pass", "witness"}


def test_verify_detects_injected_fault(capsys, monkeypatch):
    monkeypatch.setattr(stcores.coords, "stab_size", lambda z: 1)
    code, out, _ = run(capsys, "verify", "--smax", "2", "--tmax", "3", "--nmax", "6")
    assert code == 1
    assert any(line.startswith("FAIL") and "witness=" in line for line in out.splitlines())


def test_verify_reports_a_raising_check_as_fail(capsys, monkeypatch):
    monkeypatch.setattr(stcores.betaset, "t_core", lambda p, t: p)
    code, out, _ = run(capsys, "verify", "--smax", "2", "--tmax", "3", "--nmax", "6")
    lines = out.splitlines()
    assert code == 1
    assert any(line.startswith("FAIL") and "witness=NotACoreError: " in line for line in lines)
    passed = sum(1 for line in lines if line.startswith("PASS"))
    assert 0 < passed < 34 and lines[-1] == f"{passed}/34 checks passed"


class _FlushRecorder(io.StringIO):
    """A stdout that keeps what had been written at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


def test_verify_writes_and_flushes_each_line_as_its_check_ends(monkeypatch):
    out = _FlushRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "--smax", "0"]) == 2
    assert out.getvalue() == "" and out.flushed in ([], [""])
    run_check, seen = stcores.runner._run_check, []

    def record_then_check(*row):
        seen.append(out.flushed[-1] if out.flushed else "")
        return run_check(*row)

    # In one process, each check starts once every line before it is out;
    # tests/test_runner.py checks the lines of two processes.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(stcores.runner, "_run_check", record_then_check)
    assert main(["verify", "--smax", "2", "--tmax", "3", "--nmax", "6"]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert lines[-1] == "34/34 checks passed\n" and seen == ["".join(lines[:i]) for i in range(34)]


def test_verify_kills_its_child_when_writing_a_line_raises(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    class Interrupted(io.StringIO):
        def flush(self):
            raise KeyboardInterrupt

    monkeypatch.setattr(sys, "stdout", Interrupted())
    with pytest.raises(KeyboardInterrupt) as info:
        main(["verify", "--smax", "2", "--tmax", "3", "--nmax", "6"])
    # info keeps the frames of main and cmd_verify, and so the report stream, alive
    assert "cmd_verify" in [entry.name for entry in info.traceback]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_output_byte_stability(capsys):
    first = run(capsys, "enum", "4", "5", "--format", "jsonl")
    second = run(capsys, "enum", "4", "5", "--format", "jsonl")
    assert first == second
    v1 = run(capsys, "verify", "--smax", "2", "--tmax", "3", "--nmax", "6")
    v2 = run(capsys, "verify", "--smax", "2", "--tmax", "3", "--nmax", "6")
    assert v1 == v2
