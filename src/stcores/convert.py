"""``cores convert`` and the parsing of ``cores tcore``: one partition read
from any of its views (parts, beta-set, a-, z- or u-coordinates) and
written in all of them.

This code lives apart from :mod:`stcores.cli`, which every ``cores``
command compiles at start when no bytecode is cached, and is imported only
by the two commands that use it.  Bad input raises
:class:`~stcores.errors.UsageError` (exit code 2).
"""

from __future__ import annotations

from . import betaset, coords
from .errors import UsageError
from .partition import Partition


def parse_partition(text: str) -> Partition:
    return Partition(parse_ints(text, "partition") if text.strip() else ())


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def convert(args) -> dict:
    """The views of the partition given by exactly one of ``args.partition``,
    ``beta``, ``a``, ``z`` and ``u``, as a JSON-ready dict; the t-core and
    (s,t) views need ``args.t`` and ``args.s``."""
    given = [name for name in ("partition", "beta", "a", "z", "u") if getattr(args, name) is not None]
    if len(given) != 1:
        raise UsageError("convert needs exactly one of --partition/--beta/--a/--z/--u")
    t = args.t
    s = args.s
    for flag, v in (("--t", t), ("--s", s)):
        if v is not None and v < 1:
            raise UsageError(f"{flag} must be >= 1, got {v}")

    if args.partition is not None:
        p = parse_partition(args.partition)
    elif args.beta is not None:
        import json

        try:
            d = json.loads(args.beta)
            if type(d) is not dict:
                raise TypeError("expected an object with members and gaps")
            b = betaset.BetaSet(d["members"], d["gaps"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad --beta payload: {exc}") from None
        p = betaset.partition_from_beta(b)
    elif args.a is not None:
        entries = parse_ints(args.a, "a-tuple")
        if t not in (None, len(entries)):
            raise UsageError(f"--t {t} disagrees with --a, which has {len(entries)} entries")
        t = len(entries)
        p = betaset.partition_from_a(betaset.ATuple(entries))
    elif args.z is not None:
        entries = parse_ints(args.z, "z-tuple")
        t_z, s_z = len(entries), sum(entries)
        if s_z < 1:
            raise UsageError(f"--z entries must sum to s >= 1, got {s_z}")
        if t not in (None, t_z):
            raise UsageError(f"--t {t} disagrees with --z, which has {t_z} entries")
        if s not in (None, s_z):
            raise UsageError(f"--s {s} disagrees with --z, whose entries sum to {s_z}")
        t, s = t_z, s_z
        p = betaset.partition_from_a(coords.z_to_a(coords.ZTuple(entries)))
    else:
        if t is None or s is None:
            raise UsageError("--u needs both --t and --s")
        entries = parse_ints(args.u, "u-tuple")
        zt = coords.u_to_z(coords.UTuple(t, s, entries))
        p = betaset.partition_from_a(coords.z_to_a(zt))
    if s is not None and t is None:
        raise UsageError("--s needs --t with --partition or --beta")

    b = betaset.beta_from_partition(p)
    out: dict = {"partition": p.to_json(), "size": p.size, "beta": b.to_json_dict()}
    if t is not None:
        out["t"] = t
        out["is_t_core"] = betaset.is_s_core(b, t)
        if out["is_t_core"]:
            a = betaset.a_coords(p, t)
            out["a"] = a.to_json()
            if s is not None:
                zt = coords.a_to_z(a, s)
                out["z"] = zt.to_json_dict()
                if coords.is_self_conjugate_a(a):
                    out["u"] = coords.z_to_u(zt).to_json_dict()
    return out
