"""Regenerate perfbench/golden.json: the answer at every point of every input grid.

Each value is computed by nc_forge and cross-checked once against an
independent path (oracle.py, tests/oracles.py, exact integer arithmetic); any
disagreement stops the script.  The ``cli`` records are the program's stdout
at this commit, byte for byte.  For the one command that fails at this commit
(the t1 e^100000 certificate, over the int/str digit limit) the record is the
output the documented JSON format requires, built from the checked
certificate.  Takes a few minutes:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import bisect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath

import inputs
import oracle
from run import worker_env
from worker import CLI_ENTRY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import nc_forge as nf  # noqa: E402
from oracles import dickman_oracle  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"golden cross-check failed: {what}")


def golden_count(g: dict, scale: str) -> None:
    c = inputs.SCALES[scale]
    xs = [x for pair in inputs.count_xs(scale) for x in pair]
    lists = inputs.list_xs(scale)
    members = oracle.nc_members(max(xs + lists + [c["query_table"]]))
    if scale == "full":
        check(bisect.bisect_right(members, 10**7) == 15_297, "N_C(10^7) = 15 297")
    for x in xs:
        want = bisect.bisect_right(members, x)
        check(nf.count_nc(x) == want, f"count_nc({x}) = {want}")
        g["nc"][str(x)] = want
    for x in lists:
        check(nf.list_nc(x) == members[: bisect.bisect_right(members, x)], f"list_nc({x})")
    top = max(lists + [c["query_table"]])
    if len(g["nc_members"]) < bisect.bisect_right(members, top):
        g["nc_members"] = members[: bisect.bisect_right(members, top)]
    golden_pi(g, c["query_table"])


def golden_pi(g: dict, n: int) -> None:
    want = oracle.prime_count(n)
    check(nf.sieve_primes(n).count == want, f"pi({n})")
    g["pi"][str(n)] = want


def golden_smooth(g: dict, scale: str) -> None:
    c = inputs.SCALES[scale]
    tables = nf.build_tables(c["smooth_table"])
    golden_pi(g, c["smooth_table"])
    for slot, grid in enumerate(inputs.smooth_zs(scale)):
        for z in grid:
            if slot < c["report_z"]:
                golden_pi(g, z)
            for y in (inputs.y_hild(z), inputs.y_sqrt(z)):
                key = f"{z}:{y}"
                psi = oracle.psi(z, y)
                check(nf.psi_count(z, y, tables.factors) == psi, f"psi({key})")
                pis = len(oracle.shifted_smooth_primes(z, y))
                check(nf.pi_smooth_count(z, y, tables.primes, tables.factors) == pis, f"pi_smooth({key})")
                g["psi"][key] = psi
                g["pi_smooth"][key] = pis
    small, large = inputs.rho_us(scale)
    for u in small:
        want = dickman_oracle(u)
        check(abs(nf.dickman_rho(u) - want) <= 1e-9, f"rho({u})")
        g["rho"][repr(u)] = want
    for u in large:  # rho(u) <= 1/Gamma(u + 1), far below the noise floor here
        check(math.exp(-math.lgamma(u + 1.0)) < 1e-15, f"rho({u}) bound")
        check(0.0 <= nf.dickman_rho(u) <= 1e-15, f"rho({u}) within the noise floor")


def check_certificate(d: dict, x: int, r: int, s: int) -> None:
    """Recheck a certificate's fields from (x, r, s) with independent code."""
    pset = oracle.shifted_smooth_primes(s, r)
    exps = oracle.base_exponents(s, r)
    base = math.prod(p**e for p, e in exps)
    a = d["A"]
    what = f"certificate x={d['x']} r={r} s={s}"
    check((d["r"], d["s"], d["pi"]) == (r, s, len(pset)), what)
    check(d["exponents"] == [list(e) for e in exps], what)
    check(base * s**a <= x and (a == len(pset) or base * s ** (a + 1) > x), f"{what}: A is maximal")
    check(d["max_member_check"] and base * math.prod(pset[len(pset) - a :]) <= x, f"{what}: max member")
    check(int(d["count"]) == math.comb(len(pset), a), f"{what}: count")


def floor_exp(k: int) -> int:
    with mpmath.workdps(int(k / math.log(10)) + 60):
        return int(mpmath.floor(mpmath.exp(k)))


def certify_golden(g: dict, key: str, sched, x: int) -> dict:
    cert = nf.certify_lower_bound(sched)
    d = json.loads(json.dumps(cert.to_dict()))
    check(nf.verify_certificate(d) == (True, []), f"verify {key}")
    check_certificate(d, x, cert.r, cert.s)
    g["cert"][key] = d
    return d


def golden_certify(g: dict, scale: str) -> None:
    c = inputs.SCALES[scale]
    for r, s, a in c["shapes"]:
        for x in inputs.shape_xs(r, s, a):
            d = certify_golden(g, f"manual:{r}:{s}:{x}", nf.Schedule.manual(x, r, s), int(x))
            check(d["A"] == a, f"shape ({r}, {s}, {a}) at x={x}")
    for k in inputs.formula_ks(scale):
        x = floor_exp(k)
        certify_golden(g, f"t1:e^{k}:0.5", nf.Schedule.t1(f"e^{k}", 0.5), x)
        certify_golden(g, f"t2:e^{k}", nf.Schedule.t2(f"e^{k}"), x)
    x, u = inputs.BIG_T1
    certify_golden(g, f"t1:{x}:{u}", nf.Schedule.t1(x, u), floor_exp(int(x[2:])))
    s, r = c["family"][:2]
    pset = oracle.shifted_smooth_primes(s, r)
    tables = nf.build_tables(s)
    check(list(nf.shifted_smooth_set(s, r, tables.primes, tables.factors).members) == pset, "family pset")
    g["pset"][f"{s}:{r}"] = pset
    g["base"][f"{s}:{r}"] = [list(e) for e in oracle.base_exponents(s, r)]


def golden_cli(g: dict, scale: str, work: Path) -> None:
    env = worker_env(ROOT)
    ns = inputs.cli_check_ns(scale)
    for i, n in enumerate(ns):
        for span, argv in inputs.cli_commands(scale, n):
            key = " ".join(argv)
            if i and span != "cli.nc_check_big":
                continue
            out = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY, *argv], cwd=work, env=env, capture_output=True, text=True
            )
            if span == "cli.certify_enumerate":
                (work / "cert.json").write_text(out.stdout)
            rec = {"stdout": out.stdout, "exit": out.returncode}
            if span == "cli.certify_t1_big":
                x, u = inputs.BIG_T1
                fixed = json.dumps(g["cert"][f"t1:{x}:{u}"], separators=(",", ":")) + "\n"
                seed_fail = out.returncode == 1 and inputs.SEED_FAILURE_TEXT in out.stderr
                check(seed_fail or (out.returncode == 0 and out.stdout == fixed), key)
                rec = {"stdout": fixed, "exit": 0}
            else:
                check(out.returncode == 0 and "Traceback" not in out.stderr, f"{key}: {out.stderr[-300:]}")
            g["cli"][key] = rec
        n_check = ns[i]
        w = oracle.nc_witness(n_check)
        want = "true\n" if w is None else f"false prime {w}\n"
        check(g["cli"][f"nc check {n_check}"]["stdout"] == want, f"nc check {n_check}")
    count_arg = inputs.SCALES[scale]["cli_count"]
    count_key = f"nc count --limit {count_arg}"
    check(g["cli"][count_key]["stdout"] == f"{len(oracle.nc_members(10 ** int(count_arg[3:])))}\n", count_key)
    flagship = json.loads(g["cli"]["certify --x 10^30 --r 10 --s 100 --enumerate --format json"]["stdout"])
    check_certificate(flagship, 10**30, 10, 100)
    want_list = "".join(f"{m}\n" for m in oracle.nc_members(20))
    check(g["cli"]["nc list --limit 20"]["stdout"] == want_list, "nc list --limit 20")
    check(g["cli"]["smooth psi --x 100 --y 5"]["stdout"] == f"{oracle.psi(100, 5)}\n", "smooth psi")
    check(g["cli"]["smooth pi --x 10 --y 3"]["stdout"] == f"{len(oracle.shifted_smooth_primes(10, 3))}\n", "smooth pi")
    check(g["cli"]["verify --cert cert.json"]["stdout"] == "ok\n", "verify")


def main() -> None:
    sys.set_int_max_str_digits(0)  # the t1 e^100000 certificate count has 5 999 digits
    g = {k: {} for k in ("nc", "pi", "psi", "pi_smooth", "rho", "cert", "pset", "base", "cli")}
    g["nc_members"] = []
    work = ROOT / ".perfbench_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for scale in ("tiny", "full"):
            print(f"{scale}: count", flush=True)
            golden_count(g, scale)
            print(f"{scale}: smooth", flush=True)
            golden_smooth(g, scale)
            print(f"{scale}: certify", flush=True)
            golden_certify(g, scale)
            print(f"{scale}: cli", flush=True)
            golden_cli(g, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(g, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
