"""Command-line surface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain/usage error, 2 resource error, 3 verification mismatch.

Exit code 141 (128 + SIGPIPE) means the reader closed stdout before the
output ended, as in `nc-forge construct --r 10 --s 100 --all | head -1`;
no traceback is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import re
import sys

from .certify import (
    Schedule,
    certify_lower_bound,
    enumerate_certificate,
    parse_threshold,
    verify_certificate,
)
from .construction import (
    FamilyMember, build_family, build_member, family_products, int_to_decimal, member_to_dict,
)
from .errors import DomainError, ResourceError
from .novak import count_nc, is_nc_criterion, list_nc
from .sieve import build_tables, check_budget, check_ceiling
from .smoothness import (
    YRule,
    check_shift_domain,
    check_z_values,
    conjecture_table,
    dickman_rho,
    pi_smooth_count,
    psi_charge,
    psi_count,
    rows_to_csv,
    rows_to_json,
    shift_charge,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_MISMATCH = 3
EXIT_PIPE = 141  # what a shell reports for a writer that SIGPIPE ends

CONSTRUCT_ALL_CAP = 20  # 2^pi members; refuse beyond this many set bits
NC_LIST_BATCH = 4096  # members nc list formats per write
NC_LIST_BATCH_BYTES = 128 * NC_LIST_BATCH  # a list slot, a str and its text twice (the joined batch, its bytes)
Z_VALUE_BYTES = 40  # a z of a range: its list slot and its int
MAX_NOTATION_DIGITS = 4001  # up to 10^4000, so every value prints: str() stops at 4 300 digits

_E_NOTATION = re.compile(  # '2.5e6': sign, whole digits, fraction digits, exponent
    r"(?P<sign>[+-]?)(?P<whole>[0-9]*)\.?(?P<frac>[0-9]*)[eE](?P<exp>[+-]?[0-9]+)"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _scaled(digits: str, k: int) -> int:
    """int(digits) * 10^k, exactly; ValueError unless it is an integer."""
    digits = digits.lstrip("0")
    significant = digits.rstrip("0")
    if not significant:
        return 0
    k += len(digits) - len(significant)
    if k < 0:
        raise ValueError("not an integer")
    if len(significant) + k > MAX_NOTATION_DIGITS:  # checked before the integer is built
        raise ResourceError(f"a {len(significant) + k}-digit number is beyond the supported notation range")
    return int(significant) * 10**k


def parse_natural(text: str) -> int:
    """Natural number from '123', '1_000_000', '10^7', '1e6' or '2.5e6', read exactly."""
    t = str(text).strip().replace("_", "")
    try:
        if t.startswith("10^"):
            n = _scaled("1", int(t[3:]))
        elif (m := _E_NOTATION.fullmatch(t)) and (m["whole"] or m["frac"]):
            digits = m["whole"] + m["frac"]
            if m["sign"] == "-" and digits.strip("0"):
                raise ValueError("negative")  # at any size, before the notation range is checked
            n = _scaled(digits, int(m["exp"]) - len(m["frac"]))
        else:
            n = int(t)
    except ValueError as exc:
        raise DomainError(f"not a natural number: {text!r}") from exc
    if n < 0:
        raise DomainError(f"not a natural number: {text!r}")
    return n


def _parse_z_values(text: str, memory_budget: int | None) -> list[int]:
    """Comma list ('10^4,10^5') or inclusive arithmetic range 'lo..hi..step'.

    Either form meets the 2^40 ceiling as z; a range meets it and the memory
    budget, counted from lo, hi and step, before its list is built.
    """
    t = text.strip()
    if ".." in t:
        parts = t.split("..")
        if len(parts) != 3:
            raise DomainError("range syntax is lo..hi..step")
        lo, hi, step = (parse_natural(p) for p in parts)
        if step < 1 or hi < lo:
            raise DomainError("range needs lo <= hi and step >= 1")
        check_ceiling("z", hi)
        check_budget({"z list": Z_VALUE_BYTES * ((hi - lo) // step + 1)}, memory_budget)
        return list(range(lo, hi + 1, step))
    zs = [parse_natural(p) for p in t.split(",") if p]
    check_ceiling("z", max(zs, default=0))
    return zs


def parse_y_rule(text: str) -> YRule:
    """Smoothness bound rule from 'fixed:Y', 'power:U', or 'hild'."""
    t = text.strip()
    if t == "hild":
        return YRule(kind="hild")
    if t.startswith("fixed:"):
        return YRule(kind="fixed", value=parse_natural(t[6:]))
    if t.startswith("power:"):
        try:
            u = float(t[6:])
        except ValueError as exc:
            raise DomainError(f"power rule needs a number, got {t[6:]!r}") from exc
        if not 0 < u:
            raise DomainError("power rule needs u > 0")
        return YRule(kind="power", value=u)
    raise DomainError(f"unknown y rule {text!r}; use fixed:y, power:u, or hild")


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _verdict_dict(v) -> dict:
    witness = None if v.is_nc else {v.witness_kind: v.witness}
    return {"n": v.n, "is_nc": v.is_nc, "witness": witness}


def _cmd_nc_check(args) -> int:
    v = is_nc_criterion(parse_natural(args.n))
    if args.format == "json":
        _emit(_verdict_dict(v))
    elif v.is_nc:
        print("true")
    else:
        print(f"false {v.witness_kind} {v.witness}")
    return EXIT_OK


def _cmd_nc_count(args) -> int:
    x = parse_natural(args.limit)
    c = count_nc(x, memory_budget=args.limit_memory)
    if args.format == "json":
        _emit({"x": x, "count": c})
    else:
        print(c)
    return EXIT_OK


def _cmd_nc_list(args) -> int:
    """One member a line, or _emit's JSON list, written NC_LIST_BATCH members at a time.

    Only one batch of strings exists at once; list_nc charges it beside the list.
    """
    x = parse_natural(args.limit)
    members = list_nc(x, memory_budget=args.limit_memory, beside={"output batch": NC_LIST_BATCH_BYTES})
    head, sep, tail = ("[", ",", "]\n") if args.format == "json" else ("", "\n", "\n")
    sys.stdout.write(head)
    for lo in range(0, len(members), NC_LIST_BATCH):
        sys.stdout.write((sep if lo else "") + sep.join(map(str, members[lo : lo + NC_LIST_BATCH])))
    sys.stdout.write(tail)
    return EXIT_OK


def _cmd_smooth_psi(args) -> int:
    x, y = parse_natural(args.x), parse_natural(args.y)
    check_ceiling("x", x)  # first, so a huge x is refused by name before anything is charged
    check_budget(psi_charge(x, y), args.limit_memory)
    c = psi_count(x, y)
    if args.format == "json":
        _emit({"x": x, "y": y, "psi": c})
    else:
        print(c)
    return EXIT_OK


def _cmd_smooth_pi(args) -> int:
    x, y = parse_natural(args.x), parse_natural(args.y)
    check_ceiling("x", x)
    check_shift_domain("pi_smooth_count", x, y)  # before the tables are built
    tables = build_tables(x, memory_budget=args.limit_memory, beside=shift_charge())
    c = pi_smooth_count(x, y, tables.primes, tables.factors)
    if args.format == "json":
        _emit({"x": x, "y": y, "pi_smooth": c})
    else:
        print(c)
    return EXIT_OK


def _cmd_smooth_rho(args) -> int:
    v = dickman_rho(args.u)
    if args.format == "json":
        _emit({"u": args.u, "rho": v})
    else:
        print(f"{v:.12g}")
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    zs = _parse_z_values(args.z, args.limit_memory)
    rule = parse_y_rule(args.y_rule)
    zs = check_z_values("conjecture_table", zs, rule)  # before the tables are built
    top = zs[-1]  # y_for is monotone in z, so the last row's psi_count builds the most
    beside = {"z list": Z_VALUE_BYTES * len(zs), **shift_charge(), **psi_charge(top, rule.y_for(top))}
    tables = build_tables(top, memory_budget=args.limit_memory, beside=beside)
    rows = conjecture_table(zs, rule, tables)
    if args.format == "json":
        _emit(rows_to_json(rows))
    elif args.format == "csv":
        sys.stdout.write(rows_to_csv(rows))
    else:
        print(f"{'z':>12} {'y':>10} {'pi':>9} {'pi_smooth':>9} {'psi':>12} {'lhs':>14} {'rhs':>14}")
        for r in rows:
            print(
                f"{r.z:>12} {r.y:>10} {r.pi:>9} {r.pi_smooth:>9} {r.psi:>12} "
                f"{r.lhs_ratio:>14.6g} {r.rhs_ratio:>14.6g}"
            )
    return EXIT_OK


def _member_line(member) -> str:
    return f"E={int_to_decimal(member.value)} subset={','.join(str(p) for p in member.subset)}"


def _cmd_construct(args) -> int:
    r, s = parse_natural(args.r), parse_natural(args.s)
    base, pset = build_family(s, r, memory_budget=args.limit_memory)
    if args.subset is not None:
        subset = [parse_natural(p) for p in args.subset.split(",") if p]
        member = build_member(base, subset, pset)
        if args.format == "json":
            _emit(member_to_dict(member))
        else:
            print(_member_line(member))
    elif args.all:
        if pset.count > CONSTRUCT_ALL_CAP:
            raise ResourceError(
                f"--all would build 2^{pset.count} members; cap is 2^{CONSTRUCT_ALL_CAP}"
            )
        members = (  # streamed: one member in memory at a time
            FamilyMember(base, subset, value)
            for k in range(pset.count + 1)
            for subset, value in family_products(base.value, pset.members, k)
        )
        if args.format == "json":
            d_text = int_to_decimal(base.value)
            sep = "["  # _emit's text for the whole list, written member by member
            for m in members:  # k = 0 always yields D itself, so the list is never empty
                sys.stdout.write(sep + json.dumps(member_to_dict(m, d_text), separators=(",", ":")))
                sep = ","
            sys.stdout.write("]\n")
        else:
            for m in members:
                print(_member_line(m))
    else:
        info = {
            "D": int_to_decimal(base.value),
            "exponents": [[p, e] for p, e in base.exponents],
            "pi": pset.count,
        }
        if args.format == "json":
            _emit(info)
        else:
            expo = " ".join(f"{p}^{e}" for p, e in base.exponents)
            print(f"D={info['D']} ({expo}) pi={pset.count}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    x = parse_threshold(args.x)
    if args.r is not None or args.s is not None:
        if args.r is None or args.s is None:
            raise _UsageError("certify: manual schedules need both --r and --s")
        sched = Schedule.manual(x, parse_natural(args.r), parse_natural(args.s))
    elif args.schedule == "t1":
        if args.u is None:
            raise _UsageError("certify: --schedule t1 needs --u")
        sched = Schedule.t1(x, args.u)
    elif args.schedule == "t2":
        sched = Schedule.t2(x)
    else:
        raise _UsageError("certify: give --r/--s or --schedule t1/t2")
    cert = certify_lower_bound(sched, memory_budget=args.limit_memory)
    if args.format == "json":
        _emit(cert.to_dict())
    else:
        print(json.dumps(cert.to_dict(), indent=2))
    if args.enumerate:
        report = enumerate_certificate(cert, memory_budget=args.limit_memory)
        print(
            f"enumerated {report.members} members: distinct={report.distinct} "
            f"bounded={report.all_at_most_x} valid={report.all_criterion_valid}",
            file=sys.stderr,
        )
        if not report.ok:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read certificate: {exc}") from exc
    except ValueError as exc:  # bad JSON, or a JSON number over the int/str digit limit
        raise DomainError(f"cannot parse certificate: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("cannot parse certificate: not a JSON object")
    ok, mismatches = verify_certificate(data, memory_budget=args.limit_memory)
    if ok:
        print("ok")
        return EXIT_OK
    for line in mismatches:
        print(line, file=sys.stderr)
    return EXIT_MISMATCH


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    common.add_argument(
        "--limit-memory", type=parse_natural, default=None, metavar="BYTES",
        help="byte budget for what a command builds: the factor table and prime array "
        "with the Pi working room, smooth psi's prime list and pi table, conjecture's z list "
        "beside both, nc count's counters, and nc list's counters, list and output batch (default 2 GiB)",
    )

    # --help stops before the pipe note: perfbench/golden.json records its text byte for byte
    top = _Parser(prog="nc-forge", description=__doc__.rsplit("\n\n", 1)[0])
    sub = top.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="membership, counting, listing")
    ncsub = nc.add_subparsers(dest="nc_command", required=True)
    p = ncsub.add_parser("check", parents=[common])
    p.add_argument("n")
    p.set_defaults(func=_cmd_nc_check)
    p = ncsub.add_parser("count", parents=[common])
    p.add_argument("--limit", required=True)
    p.set_defaults(func=_cmd_nc_count)
    p = ncsub.add_parser("list", parents=[common])
    p.add_argument("--limit", required=True)
    p.set_defaults(func=_cmd_nc_list)

    smooth = sub.add_parser("smooth", help="smooth counts and the Dickman rho")
    ssub = smooth.add_subparsers(dest="smooth_command", required=True)
    p = ssub.add_parser("psi", parents=[common])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_smooth_psi)
    p = ssub.add_parser("pi", parents=[common])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_smooth_pi)
    p = ssub.add_parser("rho", parents=[common])
    p.add_argument("--u", type=float, required=True)
    p.set_defaults(func=_cmd_smooth_rho)

    p = sub.add_parser("conjecture", parents=[common], help="ratio table rows")
    p.add_argument("--z", required=True, help="comma list or lo..hi..step")
    p.add_argument("--y-rule", required=True, dest="y_rule", help="fixed:y, power:u, or hild")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("construct", parents=[common], help="family base and members")
    p.add_argument("--r", required=True)
    p.add_argument("--s", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--subset", help="comma-separated primes")
    group.add_argument("--all", action="store_true", help="every subset")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", parents=[common], help="emit a lower-bound certificate")
    p.add_argument("--x", required=True, help="digits, 10^k, or e^k")
    p.add_argument("--schedule", choices=["t1", "t2"])
    p.add_argument("--u", type=float)
    p.add_argument("--r")
    p.add_argument("--s")
    p.add_argument("--enumerate", action="store_true", help="rebuild and check every member")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", parents=[common], help="re-validate a certificate file")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    return top


def run(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit writes nowhere
        return EXIT_PIPE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    """The console script: run() on sys.argv, with the import-time objects out of the collector's way.

    gc.freeze moves every object alive now (numpy's and this package's, from
    import) to a generation no collection walks, so neither the command's own
    collections nor the one at interpreter shutdown traverse them.
    """
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
