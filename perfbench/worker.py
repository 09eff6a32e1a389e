"""One pass of one workload, in a fresh process.

run.py starts this script once per pass.  It sets up (imports nc_forge,
loads golden.json, draws the seeded inputs), prints ``ready``, runs the
workload's ops one after another, checks every output, and prints one JSON
line with the pass's measurements.  For ``cli`` it imports nothing from the
package: every op is a fresh ``nc-forge`` child, and set-up runs one
``nc-forge --help`` child.  run.py sets its working directory (where the
``cli`` children write their output) and ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

import inputs
from tracing import Pass, SeedFailure, Tracer

HERE = Path(__file__).resolve().parent
ENUMERATION_CAP = 100_000  # enumerate_certificate's default cap
CHILD_TIMEOUT_S = 120.0
SMALL_CHILD_RSS_MB = 100.0  # a small command after the big `nc check` must read below this
RHO_SMALL_TOL = 1e-9  # documented absolute accuracy of dickman_rho for u <= 20
RHO_LARGE_TOL = 1e-15  # documented noise floor; rho(u) is far below it for u >= 38
CLI_ENTRY = "import sys\nfrom nc_forge.cli import main\nsys.exit(main())"  # the console script

BIG_T1_FAILURE = SeedFailure(inputs.SEED_FAILURE, inputs.SEED_FAILURE_TEXT)


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def table_bytes(tables) -> int:
    return int(tables.primes.primes.nbytes + tables.factors.spf_odd.nbytes)


# --- count --------------------------------------------------------------------


def run_count(p: Pass, nf, inp: dict, golden: dict) -> None:
    tr = p.tr
    members = inp["members"]
    with p.op("build_tables"):
        with tr.span("sieve.build_tables"):
            tables = nf.build_tables(inp["table"])
        p.counts["sieve.table_bytes"] += table_bytes(tables)
        with p.checking():
            want = golden["pi"][str(inp["table"])]
            p.expect(tables.primes.count == want, f"pi({inp['table']}) = {tables.primes.count}, want {want}")

    for x in inp["count_x"]:
        with p.op(f"count_nc {x}"):
            with tr.span("novak.count_nc"):
                got = nf.count_nc(x)
            p.counts["novak.count_nc_x"] += x
            with p.checking():
                want = golden["nc"][str(x)]
                p.expect(got == want, f"count_nc({x}) = {got}, want {want}")

    x = inp["list_x"]
    with p.op(f"list_nc {x}"):
        with tr.span("novak.list_nc"):
            got = nf.list_nc(x)
        p.counts["novak.list_nc_members"] += len(got)
        with p.checking():
            want = members[: bisect.bisect_right(members, x)]
            p.expect(got == want, f"list_nc({x}) differs from the golden list ({len(got)} vs {len(want)})")

    queries = inp["queries"]
    with p.op(f"is_nc_criterion x{len(queries)}"):
        factors = tables.factors
        crit = nf.is_nc_criterion
        with tr.span("novak.is_nc_criterion"):
            verdicts = [crit(n, factors) for n in queries]
        p.counts["novak.is_nc_criterion_calls"] += len(queries)
        with p.checking():
            member_set = inp["member_set"]
            for i, (n, v) in enumerate(zip(queries, verdicts)):
                is_member = n in member_set
                p.expect(v.n == n and v.is_nc == is_member, f"is_nc_criterion({n}) = {v.is_nc}")
                if not is_member:
                    w = v.witness
                    p.expect(
                        v.witness_kind == "prime" and n % w == 0 and n % (w - 1) != 0,
                        f"is_nc_criterion({n}) gave witness {v.witness_kind} {w}",
                    )
                if i % 8 == 0:  # Carmichael's lambda divides n exactly for members
                    lam = nf.carmichael_lambda(n, factors)
                    p.expect((n % lam == 0) == is_member, f"lambda({n}) = {lam} disagrees")


# --- smooth -------------------------------------------------------------------


def run_smooth(p: Pass, nf, inp: dict, golden: dict) -> None:
    tr = p.tr
    with p.op("build_tables"):
        with tr.span("sieve.build_tables"):
            tables = nf.build_tables(inp["table"])
        p.counts["sieve.table_bytes"] += table_bytes(tables)
        with p.checking():
            want = golden["pi"][str(inp["table"])]
            p.expect(tables.primes.count == want, f"pi({inp['table']}) = {tables.primes.count}, want {want}")

    for z in inp["zs"]:
        for y in (inputs.y_hild(z), inputs.y_sqrt(z)):
            key = f"{z}:{y}"
            with p.op(f"psi_count {key}"):
                with tr.span("smoothness.psi_count"):
                    got = nf.psi_count(z, y, tables.factors)
                with p.checking():
                    p.expect(got == golden["psi"][key], f"psi({key}) = {got}, want {golden['psi'][key]}")
            with p.op(f"pi_smooth_count {key}"):
                with tr.span("smoothness.pi_smooth_count"):
                    got = nf.pi_smooth_count(z, y, tables.primes, tables.factors)
                with p.checking():
                    want = golden["pi_smooth"][key]
                    p.expect(got == want, f"pi_smooth({key}) = {got}, want {want}")

    zs = inp["report_zs"]
    with p.op("conjecture_table"):
        with tr.span("smoothness.conjecture_table"):
            rows = nf.conjecture_table(zs, nf.YRule(kind="hild"), tables)
        with p.checking():
            p.expect([r.z for r in rows] == sorted(zs), "conjecture_table rows")
            for r in rows:
                key = f"{r.z}:{inputs.y_hild(r.z)}"
                want = (inputs.y_hild(r.z), golden["pi"][str(r.z)], golden["pi_smooth"][key], golden["psi"][key])
                p.expect((r.y, r.pi, r.pi_smooth, r.psi) == want, f"conjecture row {r}")
                p.expect(r.lhs_ratio == r.pi_smooth / r.pi and r.rhs_ratio == r.psi / r.z, f"ratios {r}")

    with p.op("hildebrand_report"):
        with tr.span("smoothness.hildebrand_report"):
            rows = nf.hildebrand_report(zs, tables)
        with p.checking():
            p.expect([r.z for r in rows] == sorted(zs), "hildebrand_report rows")
            for r in rows:
                y = inputs.y_hild(r.z)
                p.expect((r.y, r.psi) == (y, golden["psi"][f"{r.z}:{y}"]), f"hildebrand row {r}")
                lz = math.log(r.z)
                expo = -math.log(r.psi / r.z) / (math.sqrt(lz) * math.log(lz))
                p.expect(math.isclose(r.exponent, expo, rel_tol=1e-12), f"hildebrand exponent {r}")

    small = set(inputs.rho_us(inp["scale"])[0])
    for u in inp["rho"]:
        with p.op(f"dickman_rho {u}"):
            with tr.span("smoothness.dickman_rho"):
                got = nf.dickman_rho(u)
            with p.checking():
                if u in small:
                    want = golden["rho"][repr(u)]
                    p.expect(abs(got - want) <= RHO_SMALL_TOL, f"rho({u}) = {got!r}, want {want!r}")
                else:
                    p.expect(0.0 <= got <= RHO_LARGE_TOL, f"rho({u}) = {got!r}, want below {RHO_LARGE_TOL}")


# --- certify ------------------------------------------------------------------


def certify_roundtrip(p: Pass, nf, x_text: str, make_schedule, want: dict) -> None:
    """parse -> certify -> to_dict and JSON -> verify -> enumerate within the cap."""
    tr = p.tr
    with tr.span("certify.parse_threshold"):
        x = nf.parse_threshold(x_text)
    with tr.span("certify.certify_lower_bound"):
        cert = nf.certify_lower_bound(make_schedule(x))
    with tr.span("certify.roundtrip"):
        data = json.loads(json.dumps(cert.to_dict()))
    with p.checking():
        p.expect(cert.count == math.comb(cert.pi, cert.A), f"count != binomial(pi, A) for {x_text}")
        p.expect(data == want, f"certificate for {x_text} differs from golden")
    with tr.span("certify.verify_certificate"):
        ok, mismatches = nf.verify_certificate(data)
    with p.checking():
        p.expect(ok and not mismatches, f"verify_certificate({x_text}): {mismatches}")
    if cert.count <= ENUMERATION_CAP:
        with tr.span("certify.enumerate_certificate"):
            report = nf.enumerate_certificate(data)
        p.counts["certify.members_enumerated"] += report.members
        with p.checking():
            p.expect(report.ok and report.members == cert.count, f"enumeration of {x_text}: {report}")


def run_certify(p: Pass, nf, inp: dict, golden: dict) -> None:
    tr = p.tr
    certs = golden["cert"]
    for r, s, x in inp["manual"]:
        with p.op(f"certify manual r={r} s={s}"):
            certify_roundtrip(
                p, nf, x, lambda th, r=r, s=s: nf.Schedule.manual(th, r, s), certs[f"manual:{r}:{s}:{x}"]
            )
    x, u = inp["t1"]
    with p.op(f"certify t1 {x}"):
        certify_roundtrip(p, nf, x, lambda th: nf.Schedule.t1(th, u), certs[f"t1:{x}:{u}"])
    x = inp["t2"]
    with p.op(f"certify t2 {x}"):
        certify_roundtrip(p, nf, x, nf.Schedule.t2, certs[f"t2:{x}"])

    s, r = inp["family"]
    subsets = inp["subsets"]
    with p.op(f"verify_family s={s} r={r} x{len(subsets)}"):
        with tr.span("sieve.build_tables"):
            tables = nf.build_tables(s)
        p.counts["sieve.table_bytes"] += table_bytes(tables)
        with tr.span("smoothness.shifted_smooth_set"):
            pset = nf.shifted_smooth_set(s, r, tables.primes, tables.factors)
        with tr.span("construction.build_base"):
            base = nf.build_base(s, r, tables.primes)
        with p.checking():
            p.expect(list(pset.members) == golden["pset"][f"{s}:{r}"], "shifted_smooth_set differs")
            p.expect([list(e) for e in base.exponents] == golden["base"][f"{s}:{r}"], "build_base exponents")
        with tr.span("construction.verify_family"):
            ok = nf.verify_family(base, pset, subsets)
        p.counts["construction.members_checked"] += len(subsets)
        with p.checking():
            p.expect(ok is True, "verify_family rejected a family member")

    x, u = inp["big_t1"]
    with p.op(f"certify t1 {x} emit", BIG_T1_FAILURE):
        with tr.span("certify.parse_threshold"):
            th = nf.parse_threshold(x)
        with tr.span("certify.certify_lower_bound"):
            cert = nf.certify_lower_bound(nf.Schedule.t1(th, u))
        with tr.span("certify.roundtrip"):
            text = json.dumps(cert.to_dict())
        with p.checking():
            p.expect(cert.count == math.comb(cert.pi, cert.A), f"count != binomial(pi, A) for {x}")
            p.expect(json.loads(text) == certs[f"t1:{x}:{u}"], f"certificate for {x} differs from golden")


# --- cli ----------------------------------------------------------------------


def _kill(pid: int) -> None:
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], stdout_path: str) -> dict:
    """Run one ``nc-forge`` child in the working directory; rusage from wait4."""
    with open(stdout_path, "wb") as out, open("stderr.txt", "wb") as err:
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-c", CLI_ENTRY, *argv],
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    with open(stdout_path, "rb") as fh:
        stdout = fh.read().decode("utf-8", "replace")
    with open("stderr.txt", "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "stdout": stdout,
        "stderr": stderr,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_cli(p: Pass, inp: dict, golden: dict) -> None:
    tr = p.tr
    p.gauges["child_cpu_s"] = 0.0
    p.gauges["child_rss_mb"] = 0.0
    for span, argv in inp["commands"]:
        want = golden["cli"][" ".join(argv)]
        seed_failure = BIG_T1_FAILURE if span == "cli.certify_t1_big" else None
        with p.op(span, seed_failure):
            with tr.span(span):
                res = run_child(argv, "cert.json" if span == "cli.certify_enumerate" else "stdout.txt")
            p.gauges["child_cpu_s"] += res["cpu"]
            p.gauges["child_rss_mb"] = max(p.gauges["child_rss_mb"], res["rss_mb"])
            if span in ("cli.nc_check_big", "cli.nc_count"):
                p.gauges[f"{span}_rss_mb"] = res["rss_mb"]
            with p.checking():
                detail = f"{' '.join(argv)}: exit {res['exit']}, stderr {res['stderr'][-300:]!r}"
                p.expect(res["exit"] == want["exit"] and "Traceback" not in res["stderr"], detail)
                p.expect(res["stdout"] == want["stdout"], f"{' '.join(argv)}: stdout differs from the record")
                if span == "cli.nc_list":  # runs right after the big `nc check`
                    p.expect(
                        res["rss_mb"] < SMALL_CHILD_RSS_MB,
                        f"per-child RSS of a small command reads {res['rss_mb']:.0f} MB",
                    )


# --- main ---------------------------------------------------------------------


def setup(workload: str, seed: int, scale: str, root: Path, golden: dict):
    """Import the package (not for cli) and draw the inputs; returns (nf, inputs)."""
    if workload == "cli":
        run_child(["--help"], "stdout.txt")  # what a user pays before any work
        return None, inputs.draw_cli(seed, scale)
    import nc_forge as nf

    if Path(nf.__file__).resolve().parent != (root / "src" / "nc_forge").resolve():
        raise SystemExit(f"nc_forge imported from {nf.__file__}, not from the checkout")
    if workload == "count":
        members = golden["nc_members"]
        inp = inputs.draw_count(seed, scale, members)
        inp["members"] = members
        inp["member_set"] = set(members)
    elif workload == "smooth":
        inp = inputs.draw_smooth(seed, scale)
        inp["scale"] = scale
    else:
        s, r = inputs.SCALES[scale]["family"][:2]
        inp = inputs.draw_certify(seed, scale, golden["pset"][f"{s}:{r}"])
    return nf, inp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=["count", "smooth", "certify", "cli"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--scale", default="full", choices=sorted(inputs.SCALES))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    golden = load_golden()
    nf, inp = setup(args.workload, args.seed, args.scale, args.root.resolve(), golden)
    p = Pass(Tracer(bool(args.trace)))
    print("ready", flush=True)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    if args.workload == "count":
        run_count(p, nf, inp, golden)
    elif args.workload == "smooth":
        run_smooth(p, nf, inp, golden)
    elif args.workload == "certify":
        run_certify(p, nf, inp, golden)
    else:
        run_cli(p, inp, golden)
    wall = perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    if args.workload == "cli":
        cpu += p.gauges.pop("child_cpu_s")
        rss_mb = p.gauges.pop("child_rss_mb")  # the largest single child
    else:
        rss_mb = ru1.ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "wall_s": wall,
                "cpu_s": cpu,
                "peak_rss_mb": rss_mb,
                "attempted": p.attempted,
                "failures": p.failures,
                "counts": dict(p.counts),
                "gauges": p.gauges,
                "self_times": p.tr.self_times(),
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
