"""Smoke test of the benchmark at the tiny scale.  It has no timing gate.

It checks that every metric BENCHMARK.json names is printed with its unit,
that fail_rate is the known seed value, that the traced spans account for
the traced wall time, and that the benchmark refuses to run without the
package sources.  It is kept out of the tier-1 suite (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Ops per tiny pass that fail at the seed, and ops per tiny pass: certify and
# cli each fail once per pass on the t1 e^100000 certificate.
SEED_FAIL_RATE = {"count": 0.0, "smooth": 0.0, "certify": 1 / 5, "cli": 1 / 14}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_match_the_runner():
    sys.path.insert(0, str(HERE))
    import run as runner

    assert [m["name"] for m in BENCH["per_layer"]] == [n for n, _, _ in runner.PER_LAYER]
    assert [m["name"] for m in BENCH["end_to_end"]] == [n for n, _ in runner.END_TO_END]
    assert [w["name"] for w in BENCH["workloads"]] == list(runner.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_emits_every_layer_metric(workload):
    out = run("--workload", workload, "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["metrics"]["fail_rate"]["value"] == pytest.approx(SEED_FAIL_RATE[workload])
    assert result["failed"] == round(SEED_FAIL_RATE[workload] * result["attempted"])
    # the spans cover the traced pass: what lies outside them is loop bookkeeping
    wall, outside = map(float, re.search(r"traced wall (\S+) s, time outside any span (\S+) s", out.stdout).groups())
    assert abs(outside) <= 0.02 * wall + 0.01


def test_untraced_run_emits_every_end_to_end_metric():
    out = run("--workload", "all", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert result["correct"] is True
    want = {f"{w['name']}.{m['name']}": m["unit"] for w in BENCH["workloads"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "# machine " in out.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "count", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
