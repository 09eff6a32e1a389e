"""The package keeps numpy's OpenBLAS pool at one thread, and calls nothing that would use more.

nc_forge/__init__.py loads numpy with OPENBLAS_NUM_THREADS=1 unless the caller set
a BLAS thread count or loaded numpy first.  Each case runs in a fresh interpreter:
pytest's plugins may have imported numpy into this one already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = "len(os.listdir('/proc/self/task'))"

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="threads are counted from /proc/self/task"
)


def _child(code, **blas_env):
    """Run code in a fresh interpreter with only the given BLAS variables set; its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import os, json\n" + code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its pool at the CPUs this process may run on")


@needs_proc
def test_import_leaves_one_thread():
    assert _child(f"import nc_forge\nprint({THREADS})") == 1


@needs_proc
def test_every_layer_runs_in_one_thread():
    code = f"""
import logging
from nc_forge import (
    Schedule, build_tables, certify_lower_bound, count_nc, parse_threshold, pi_smooth_count, psi_count,
)
routes = []
class Routes(logging.Handler):
    def emit(self, record):
        routes.append(record.getMessage().rsplit(", ", 1)[1])
log = logging.getLogger("nc_forge.smoothness")
log.setLevel(logging.DEBUG)
log.addHandler(Routes())
threads = [{THREADS}]
t = build_tables(10**5)
threads.append({THREADS})
for x in (10**5, 5000):  # enumerated, then walked
    pi_smooth_count(x, 30, t.primes, t.factors)
    threads.append({THREADS})
pi_routes = list(routes)
psi_count(10**6, 100)
threads.append({THREADS})
count_nc(10**5)
threads.append({THREADS})
certify_lower_bound(Schedule.manual(parse_threshold("10^30"), 10, 100))
threads.append({THREADS})
print(json.dumps([threads, pi_routes]))
"""
    threads, routes = _child(code)
    assert routes == ["enumerate", "walk"]
    assert threads == [1] * 7


@needs_proc
@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_callers_thread_count_is_kept(var):
    _two_cpus()
    assert _child(f"import nc_forge\nprint({THREADS})", **{var: "2"}) == 2


@needs_proc
def test_numpy_loaded_first_is_left_as_it_was():
    _two_cpus()
    alone = _child(f"import numpy\nprint({THREADS})")
    assert alone > 1  # the default pool: one thread a CPU
    assert _child(f"import numpy, nc_forge\nprint({THREADS})") == alone


@pytest.mark.parametrize("blas_env", [{}, {"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "1"}])
def test_import_leaves_the_environment_as_it_was(blas_env):
    code = "before = dict(os.environ)\nimport nc_forge\nprint(json.dumps(before == dict(os.environ)))"
    assert _child(code, **blas_env) is True


BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "outer", "tensordot", "einsum", "linalg"}


def test_the_package_calls_no_blas_routine():
    """A BLAS call would run in the one thread the pin leaves, so none may creep in unnoticed."""
    found = []
    for path in sorted((SRC / "nc_forge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.MatMult):
                found.append(f"{path.name}: the @ operator")
                continue
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split(".")) | {node.asname}
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                continue
            found += [f"{path.name}:{getattr(node, 'lineno', '?')}: {n}" for n in sorted(names & BLAS_NAMES)]
    assert not found, (
        "nc_forge/__init__.py pins numpy's OpenBLAS pool to one thread, on the ground that the "
        f"package calls no BLAS routine; these would: {found}"
    )
