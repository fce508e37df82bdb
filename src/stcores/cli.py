"""Command-line front end: ``cores count | enum | avg | convert | tcore | verify``.

Output is byte-stable across runs for identical arguments: enumerations come
in lexicographic order of z and stream, the first record written as soon as
it is generated and the rest in blocks of lines; rationals are rendered in
canonical reduced form, and the verify suite seeds its randomness
deterministically.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 141 (128 + SIGPIPE) when the reader closes stdout early, as
``cores enum 8 11 | head -1`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from .errors import UsageError


def _compact_json(obj) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"))


_JSON_LINE = '{{"z":[{z}],"a":[{a}],"parts":[{parts}],"size":{size}{stab}}}'
# format -> (joiner of parts, line template, stab template, and the opening,
# separator and closing of the stream)
_LINES = {
    "json": (",", _JSON_LINE, ',"stab":{}', ("[", ",", "]\n")),
    "jsonl": (",", _JSON_LINE + "\n", ',"stab":{}', ("", "", "")),
    "csv": ("+", "{z};{a};{parts};{size}{stab}\n", ";{}", ("", "", "")),
    "plain": ("+", "z={z} a={a} parts={parts} size={size}{stab}\n", " stab={}", ("", "", "")),
}
FORMATS = tuple(_LINES)


# Lines per write after the first line: on an unbuffered stdout every write
# is a system call.
_BLOCK = 256


def _emit_records(records, fmt: str, out) -> None:
    """Write one line per record, filled in from its ``to_json_dict()``: the
    first as soon as it is formatted, the rest joined in blocks of at most
    ``_BLOCK`` lines.  A ``jsonl`` line is ``_compact_json`` of that dict,
    and ``json`` frames those lines as one array, byte-identical to dumping
    the collected list."""
    join_parts, line, stab_field, (opening, between, closing) = _LINES[fmt]

    def text(rec) -> str:
        d = rec.to_json_dict()
        stab = d.get("stab")
        return line.format(
            z=",".join(map(str, d["z"])),
            a=",".join(map(str, d["a"])),
            parts=join_parts.join(map(str, d["parts"])),
            size=d["size"],
            stab="" if stab is None else stab_field.format(stab),
        )

    lines = map(text, records)
    out.write(opening + next(lines, ""))
    while block := list(islice(lines, _BLOCK)):
        out.write(between + between.join(block))
    out.write(closing)


def cmd_count(args) -> int:
    from . import formulas

    params = args.params
    if params and params[0] == "triple":
        if len(params) != 3 or args.self_conjugate:
            raise UsageError("usage: cores count triple <m> <d>")
        m, d = _as_int(params[1], "m"), _as_int(params[2], "d")
        print(formulas.count_triple(m, d))
        return 0
    if len(params) != 2:
        raise UsageError("usage: cores count <s> <t> [--self-conjugate]")
    s, t = _as_int(params[0], "s"), _as_int(params[1], "t")
    print((formulas.count_sc if args.self_conjugate else formulas.count_st)(s, t))
    return 0


def cmd_enum(args) -> int:
    from . import enumeration

    if args.triple is not None:
        if args.params or args.self_conjugate:
            raise UsageError("--triple takes no positional s t and no --self-conjugate")
        if args.with_stab:
            raise UsageError("--with-stab is not defined for triple enumerations")
        m, d = args.triple
        records = (enumeration.iter_triple_asym if args.method == "asym" else enumeration.iter_triple_sym)(m, d)
    else:
        if args.method is not None:
            raise UsageError("--method chooses how --triple enumerates; it needs --triple")
        if len(args.params) != 2:
            raise UsageError("usage: cores enum <s> <t> [--self-conjugate] | cores enum --triple <m> <d>")
        s, t = _as_int(args.params[0], "s"), _as_int(args.params[1], "t")
        records = (enumeration.iter_sc_st_cores if args.self_conjugate else enumeration.iter_st_cores)(s, t)
        if args.with_stab:
            records = enumeration.attach_stabilizers(records, self_conjugate=args.self_conjugate)
    _emit_records(records, args.format, sys.stdout)
    return 0


def cmd_avg(args) -> int:
    from . import stats

    s, t = args.s, args.t
    if args.moment is not None:
        if args.moment < 0:
            raise UsageError("--moment must be >= 0")
        value = stats.moment_sum(s, t, args.moment, args.weighted, args.self_conjugate)
    else:
        value = stats.average_size(s, t, args.weighted, args.self_conjugate)
    print(value)
    return 0


def cmd_tcore(args) -> int:
    from . import betaset
    from .convert import parse_partition

    print(_compact_json(betaset.t_core(parse_partition(args.partition), args.t).to_json()))
    return 0


def cmd_convert(args) -> int:
    from .convert import convert

    print(_compact_json(convert(args)))
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    reports = iter(oracle.run_verify_suite(args.smax, args.tmax, args.nmax))
    passed = total = 0
    try:
        for rep in reports:
            if args.format == "jsonl":
                line = _compact_json(rep.to_json_dict())
            else:
                line = f"{'PASS' if rep.passed else 'FAIL'} {rep.check} {_compact_json(rep.params)}"
                if not rep.passed:
                    line += f" witness={rep.witness}"
            print(line, flush=True)
            passed += rep.passed
            total += 1
    finally:
        reports.close()
    print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


def _as_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cores",
        description="Exact enumeration and statistics of simultaneous core partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="closed-form counts")
    p_count.add_argument("params", nargs="+", help="<s> <t>, or: triple <m> <d>")
    p_count.add_argument("--self-conjugate", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enum", help="stream every core")
    p_enum.add_argument("params", nargs="*", help="<s> <t>")
    p_enum.add_argument("--self-conjugate", action="store_true")
    p_enum.add_argument("--triple", nargs=2, type=int, metavar=("M", "D"))
    p_enum.add_argument("--method", choices=("sym", "asym"))
    p_enum.add_argument("--with-stab", action="store_true")
    p_enum.add_argument("--format", choices=FORMATS, default="jsonl")
    p_enum.set_defaults(func=cmd_enum)

    avg_help = (
        "exact average size or moment sum, by one prefix-sum DP for all or for self-conjugate cores:"
        " O(s^2 t e^2) operations for moment E (e = 1 for the average)"
    )
    p_avg = sub.add_parser("avg", help=avg_help, description=avg_help)
    p_avg.add_argument("s", type=int)
    p_avg.add_argument("t", type=int)
    p_avg.add_argument("--weighted", action="store_true")
    p_avg.add_argument("--self-conjugate", action="store_true")
    p_avg.add_argument("--moment", type=int, metavar="E")
    p_avg.set_defaults(func=cmd_avg)

    p_tcore = sub.add_parser("tcore", help="t-core of a partition")
    p_tcore.add_argument("t", type=int)
    p_tcore.add_argument("--partition", required=True, help="comma-separated parts, e.g. 5,5")
    p_tcore.set_defaults(func=cmd_tcore)

    p_conv = sub.add_parser("convert", help="translate one object between views")
    p_conv.add_argument("--partition", help="comma-separated parts")
    p_conv.add_argument("--beta", help='JSON {"members":[...],"gaps":[...]}')
    p_conv.add_argument("--a", help="comma-separated a-coordinates")
    p_conv.add_argument("--z", help="comma-separated z-coordinates")
    p_conv.add_argument("--u", help="comma-separated u-coordinates")
    p_conv.add_argument("--t", type=int)
    p_conv.add_argument("--s", type=int)
    p_conv.set_defaults(func=cmd_convert)

    p_verify = sub.add_parser("verify", help="run the structural cross-check suite",
                              description="Runs the checks on up to two processes and prints one line per check as it ends.")
    p_verify.add_argument("--smax", type=int, default=5)
    p_verify.add_argument("--tmax", type=int, default=6)
    p_verify.add_argument("--nmax", type=int, default=20)
    p_verify.add_argument("--format", choices=("plain", "jsonl"), default="plain")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact answers can exceed CPython's default 4300-digit limit on int -> str;
    # interpreters older than that limit have no setter and need none.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        set_limit(0)
    # --z -1,1,1 as --z=-1,1,1 (also --a, --u): argparse reads "-1,1,1" as an option
    glued = []
    for arg in sys.argv[1:] if argv is None else argv:
        if glued and glued[-1] in ("--a", "--z", "--u") and arg.startswith("-") and arg[1:2].isdigit():
            arg = glued.pop() + "=" + arg
        glued.append(arg)
    args = build_parser().parse_args(glued)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (UsageError, ValueError) as exc:
        # CoreError subclasses ValueError, so both contract violations and
        # plainly malformed values (s = 0, bad ranges) land here
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
