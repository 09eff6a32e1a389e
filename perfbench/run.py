"""Run one nc-forge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Workloads: count, smooth, certify, cli (or ``all``, which runs the four one
after another).  Each pass of a workload runs in a fresh worker process
(worker.py), one pass at a time; passes repeat until ``--seconds`` is used
up (at least MIN_PASSES of them).  End-to-end metrics are medians over
untraced passes.  With ``--trace 1`` the run alternates untraced and traced
passes: the traced ones give the per-layer metrics (self time of the spans
around the benchmark's calls into each module) and the difference of the
two medians is ``trace.overhead_s``.

Every line but the last is for people: metrics with unit, sample count and
range, failures, and the machine.  The last line is one JSON object with
the keys correct, attempted, failed and metrics.  Exits with 2 when the
checkout holds no nc_forge sources, and with 1 when a worker breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("count", "smooth", "certify", "cli")
SCALES = ("full", "tiny")

MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # of each kind in a --trace 1 run
RUN_LIMIT_S = 120.0  # start no pass that would end after this
PASS_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (name, unit, source): "span" is the self time of span <name minus _s>,
# "count" and "gauge" are recorded by the worker, the rest are derived.
PER_LAYER = (
    ("sieve.build_tables_s", "s", "span"),
    ("sieve.table_bytes", "bytes", "count"),
    ("novak.count_nc_s", "s", "span"),
    ("novak.count_nc_rate", "1/s", "rate"),
    ("novak.list_nc_s", "s", "span"),
    ("novak.list_nc_members", "count", "count"),
    ("novak.is_nc_criterion_s", "s", "span"),
    ("novak.is_nc_criterion_calls", "count", "count"),
    ("smoothness.psi_count_s", "s", "span"),
    ("smoothness.pi_smooth_count_s", "s", "span"),
    ("smoothness.conjecture_table_s", "s", "span"),
    ("smoothness.hildebrand_report_s", "s", "span"),
    ("smoothness.dickman_rho_s", "s", "span"),
    ("smoothness.shifted_smooth_set_s", "s", "span"),
    ("construction.build_base_s", "s", "span"),
    ("construction.verify_family_s", "s", "span"),
    ("construction.members_checked", "count", "count"),
    ("certify.parse_threshold_s", "s", "span"),
    ("certify.certify_lower_bound_s", "s", "span"),
    ("certify.roundtrip_s", "s", "span"),
    ("certify.verify_certificate_s", "s", "span"),
    ("certify.enumerate_certificate_s", "s", "span"),
    ("certify.members_enumerated", "count", "count"),
    ("cli.help_s", "s", "span"),
    ("cli.nc_check_s", "s", "span"),
    ("cli.nc_check_big_s", "s", "span"),
    ("cli.nc_count_s", "s", "span"),
    ("cli.nc_list_s", "s", "span"),
    ("cli.smooth_psi_s", "s", "span"),
    ("cli.smooth_pi_s", "s", "span"),
    ("cli.smooth_rho_s", "s", "span"),
    ("cli.conjecture_s", "s", "span"),
    ("cli.construct_s", "s", "span"),
    ("cli.certify_enumerate_s", "s", "span"),
    ("cli.certify_t1_s", "s", "span"),
    ("cli.certify_t1_big_s", "s", "span"),
    ("cli.verify_s", "s", "span"),
    ("cli.nc_check_big_rss_mb", "MB", "gauge"),
    ("cli.nc_count_rss_mb", "MB", "gauge"),
    ("bench.check_s", "s", "span"),
    ("trace.overhead_s", "s", "overhead"),
    ("fail_rate", "ratio", "fail_rate"),
)


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def worker_env(root: Path) -> dict:
    """The caller's environment, with no program knob set and only the checkout's sources."""
    env = {k: v for k, v in os.environ.items() if k not in ("NC_FORGE_THREADS", "COLUMNS", "LINES")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_pass(root: Path, work: Path, workload: str, seed: int, scale: str, traced: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--trace", "1" if traced else "0",
    ]
    err_path = work / "worker_stderr.txt"
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=work, env=worker_env(root), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
        )
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{tail}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["traced"] = traced
    return result


def warm_up(root: Path, work: Path) -> None:
    """Compile the package's bytecode once, as a first install would, before timing."""
    subprocess.run(
        [sys.executable, "-c", "import nc_forge.cli"], cwd=work, env=worker_env(root),
        stdin=subprocess.DEVNULL, check=True, timeout=PASS_TIMEOUT_S,
    )


def run_passes(root: Path, work: Path, workload: str, seed: int, seconds: float, trace: bool, scale: str):
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(root, work, workload, seed, scale, traced=trace and len(passes) % 2 == 1))
        elapsed = perf_counter() - start
        per_pass = elapsed / len(passes)
        n_traced = sum(p["traced"] for p in passes)
        if trace:
            enough = min(n_traced, len(passes) - n_traced) >= MIN_TRACED_PASSES
        else:
            enough = len(passes) >= MIN_PASSES
        if (enough and elapsed + per_pass > seconds) or elapsed + per_pass > RUN_LIMIT_S:
            return passes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_value(name: str, source: str, traced: list, untraced: list, attempted: int, failed: int) -> float:
    if source == "span":
        return _median(p["self_times"].get(name[:-2], 0.0) for p in traced)
    if source == "count":
        return _median(p["counts"].get(name, 0) for p in traced)
    if source == "gauge":
        return _median(p["gauges"].get(name, 0.0) for p in traced + untraced)
    if source == "rate":
        return _median(
            p["counts"].get("novak.count_nc_x", 0) / p["self_times"]["novak.count_nc"]
            if p["self_times"].get("novak.count_nc") else 0.0
            for p in traced
        )
    if source == "overhead":
        return _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in untraced)
    return failed / attempted  # fail_rate


def summarise(workload: str, passes: list, trace: bool) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    e2e = {}
    for name, unit in END_TO_END:
        values = [p[name] for p in (passes if name == "setup_s" else untraced)]
        e2e[name] = (statistics.median(values), unit, values)
    layers = {
        name: (layer_value(name, source, traced, untraced, attempted, len(failures)), unit)
        for name, unit, source in PER_LAYER
    }
    return {
        "workload": workload,
        "correct": all(f["seed_failure"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "e2e": e2e,
        "layers": layers if trace else {},
        "n_traced": len(traced),
        "unattributed": [p["wall_s"] - sum(p["self_times"].values()) for p in traced],
        "traced_wall": _median(p["wall_s"] for p in traced),
    }


def report(s: dict) -> None:
    """Human-readable lines; the JSON line comes last, separately."""
    n_untraced = len(s["e2e"]["wall_s"][2])
    print(f"# {s['workload']}: {n_untraced} untraced and {s['n_traced']} traced passes, each in a fresh worker")
    for name, (value, unit, values) in s["e2e"].items():
        print(f"{s['workload']:8} {name:34} {value:14.6g} {unit:6} n={len(values)} "
              f"range [{min(values):.6g}, {max(values):.6g}]")
    print(f"{s['workload']:8} {'fail_rate':34} {s['failed'] / s['attempted']:14.6g} {'ratio':6} "
          f"{s['failed']} of {s['attempted']} ops failed")
    for name, (value, unit) in s["layers"].items():
        if value and name != "fail_rate":
            print(f"{s['workload']:8} {name:34} {value:14.6g} {unit:6} n={s['n_traced']} (traced median)")
    if s["n_traced"]:
        print(f"# {s['workload']}: traced wall {s['traced_wall']:.6g} s, time outside any span "
              f"{_median(s['unattributed']):.3g} s")
    seen = set()
    for f in s["failures"]:
        key = (f["op"], f["seed_failure"])
        if key not in seen:
            seen.add(key)
            label = f"known seed failure: {f['seed_failure']}" if f["seed_failure"] else "UNEXPECTED"
            print(f"# {s['workload']}: failed op {f['op']!r} ({label}): {f['error'][:200]}")


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown' (read, not run)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path, seed: int, scale: str) -> dict:
    def cache_bytes(level: int):
        """Size of the first cache of this level listed for cpu0, or None."""
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                if int((index / "level").read_text()) == level:
                    size = (index / "size").read_text().strip()
                    return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
            except (OSError, ValueError):
                pass
        return None

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "ram_gib": round(pages * page / 2**30, 1),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "commit": git_commit(root),
        "seed": seed,
        "scale": scale,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="Run an nc-forge benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--scale", default="full", choices=SCALES, help="tiny is for the smoke test")
    args = ap.parse_args()

    root = HERE.parent
    if not (root / "src" / "nc_forge" / "__init__.py").is_file():
        print(f"perfbench: no nc_forge sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        warm_up(root, work)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = [
            summarise(w, run_passes(root, work, w, args.seed, args.seconds, trace, args.scale), trace)
            for w in names
        ]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    print("# machine " + json.dumps(machine(root, args.seed, args.scale)))
    metrics = {}
    for s in summaries:
        report(s)
        chosen = s["layers"] if trace else {k: (v, u) for k, (v, u, _) in s["e2e"].items()}
        prefix = f"{s['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
