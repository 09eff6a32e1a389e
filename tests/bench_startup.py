"""Microbenchmark of start-up: a fresh interpreter that imports the package, and one that runs --help.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_startup.py -s

Each round starts one child and waits for it: ``python -c "import nc_forge.cli"``,
or the body of the ``nc-forge`` console script with ``--help`` or ``nc check 7``,
as the benchmark's ``cli`` workload starts every command.  pytest-benchmark times the
wall clock; the child's CPU (user + system, from RUSAGE_CHILDREN) goes in
``extra_info`` and is printed, since a helper thread that spins while the
main thread loads shows in the CPU and not in the wall time.
"""

import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROUNDS = 20
SRC = Path(__file__).resolve().parents[1] / "src"
CLI_ENTRY = "import sys\nfrom nc_forge.cli import main\nsys.exit(main())"  # the console script
CHILDREN = {
    "import": ["-c", "import nc_forge.cli"],
    "help": ["-c", CLI_ENTRY, "--help"],
    "nc_check": ["-c", CLI_ENTRY, "nc", "check", "7"],
}


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("child", CHILDREN)
def test_start(benchmark, child):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, *CHILDREN[child]]
    cpu_s = []

    def start():
        before = _children_cpu_s()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        cpu_s.append(_children_cpu_s() - before)

    benchmark.pedantic(start, rounds=ROUNDS, warmup_rounds=1)
    timed = cpu_s[-ROUNDS:]
    benchmark.extra_info["child_cpu_s_median"] = statistics.median(timed)
    benchmark.extra_info["child_cpu_s_min"] = min(timed)
    print(f"\n{child}: child cpu median {statistics.median(timed):.4f} s, min {min(timed):.4f} s")
