import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/certificate_demo.py"],
        ["scripts/conjecture_report.py", "--zmax", "10^4"],
    ],
    ids=["certificate_demo", "conjecture_report"],
)
def test_script_runs(argv):
    out = run_script(*argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_certificate_demo_t1_exponent_rows():
    """Each printed t1 row at u = 0.5 is feasible, with r, s from the schedule's formula."""
    lines = run_script("scripts/certificate_demo.py").stdout.splitlines()
    start = lines.index("--- realized exponents, t1 u=0.5 (target 0.5)")
    assert lines[start + 1] == "x,r,s,A,log10_count,exponent"
    rows = [line.split(",") for line in lines[start + 2 :] if line]
    assert [row[0] for row in rows] == ["10^30", "10^60", "10^120", "e^1000"]
    for x, r, s, _, log10_count, exponent in rows:
        big_l = float(x[2:]) if x.startswith("e^") else int(x[3:]) * math.log(10)
        assert int(r) == math.floor(big_l / math.log(big_l) ** 2)
        assert int(s) == int(r) ** 2
        assert exponent != "NA"
        assert abs(float(exponent) - float(log10_count) * math.log(10) / big_l) < 1e-3
