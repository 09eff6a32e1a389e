"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <name>: PASS` line on success (visible
with `pytest -sv tests/test_acceptance.py`); a failed assertion shows up as
an ordinary pytest failure.
"""

import json
import math
import time

from nc_forge.certify import Schedule, certify_lower_bound, enumerate_certificate
from nc_forge.cli import EXIT_MISMATCH, EXIT_OK, run
from nc_forge.construction import build_base, build_family, build_member, verify_family
from nc_forge.novak import carmichael_lambda, count_nc, is_nc_criterion
from nc_forge.sieve import sieve_primes
from nc_forge.smoothness import (
    YRule,
    conjecture_table,
    dickman_rho,
    pi_smooth_count,
    psi_count,
    shifted_smooth_set,
)

from oracles import check_binomial_floor, definition_witness, nc_flags_sieve
from test_construction import all_subsets


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_oracle_triangle(tables_small):
    start = time.perf_counter()
    table = tables_small.factors
    for n in range(1, 5001):
        a = is_nc_criterion(n, table).is_nc
        b = definition_witness(n) is None
        c = n % carmichael_lambda(n, table) == 0
        assert a == b == c, f"oracle mismatch at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle triangle took {elapsed:.1f}s"
    _report("oracle-triangle")


def test_golden_counts(tables_small):
    assert count_nc(10) == 5
    assert count_nc(100) == 23
    assert psi_count(100, 5, tables_small.factors) == 34
    assert pi_smooth_count(10, 3, tables_small.primes, tables_small.factors) == 4
    assert pi_smooth_count(100, 10, tables_small.primes, tables_small.factors) == 17
    assert sieve_primes(100).count == 25
    _report("golden-counts")


def test_family_exhaustive(tables_small):
    start = time.perf_counter()
    base = build_base(10, 3, tables_small.primes)
    assert base.value == 72
    pset = shifted_smooth_set(10, 3, tables_small.primes, tables_small.factors)
    subsets = all_subsets(pset.members)
    values = {build_member(base, s, pset).value for s in subsets}
    assert len(values) == 16
    assert 2520 in values  # the {5, 7} member
    assert verify_family(base, pset, subsets)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"family check took {elapsed:.2f}s"
    _report("family-exhaustive")


def test_certificate_soundness_at_scale():
    start = time.perf_counter()
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    assert cert.pi == 17
    assert math.prod(p**e for p, e in cert.exponents) == 6350400
    assert cert.A == 11
    assert cert.count == 12376
    assert cert.max_member_check
    report = enumerate_certificate(cert)
    assert report.members == 12376
    assert report.distinct and report.all_at_most_x and report.all_criterion_valid
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"soundness enumeration took {elapsed:.1f}s"
    _report("certificate-soundness")


def test_enumeration_at_the_largest_benchmark_shape():
    start = time.perf_counter()
    base, _ = build_family(5000, 30)
    cert = certify_lower_bound(Schedule.manual(base.value * 5000**2, 30, 5000))
    assert (cert.pi, cert.A, cert.count) == (249, 2, 30876)
    report = enumerate_certificate(cert)
    assert report.members == 30876
    assert report.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"enumeration at (30, 5000) took {elapsed:.1f}s"
    _report("enumeration-largest-shape")


def test_binomial_floor_sweep():
    start = time.perf_counter()
    assert check_binomial_floor(60)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"binomial sweep took {elapsed:.2f}s"
    _report("binomial-floor")


def test_dickman_values():
    start = time.perf_counter()
    assert dickman_rho(0.5) == 1.0
    assert abs(dickman_rho(2.0) - (1.0 - math.log(2.0))) <= 1e-9
    assert abs(dickman_rho(3.0) - 0.0486084) <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"dickman checks took {elapsed:.2f}s"
    _report("dickman")


def test_conjecture_ratio_table(tables_1e6):
    start = time.perf_counter()
    rows = conjecture_table([10**4, 10**5, 10**6], YRule(kind="hild"), tables_1e6)
    for row in rows:
        assert 0.0 < row.lhs_ratio < 1.0
        assert 0.0 < row.rhs_ratio < 1.0
    lhs = [r.lhs_ratio for r in rows]
    rhs = [r.rhs_ratio for r in rows]
    assert all(a > b for a, b in zip(lhs, lhs[1:]))
    assert all(a > b for a, b in zip(rhs, rhs[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"ratio table took {elapsed:.1f}s"
    _report("conjecture-table")


def test_performance_floor():
    start = time.perf_counter()
    count = count_nc(10**7)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"count to 1e7 took {elapsed:.1f}s"
    assert count >= count_nc(10**6)
    assert count_nc(10**6) == int(nc_flags_sieve(10**6).sum())
    _report("performance-floor")


def test_certificate_roundtrip(capsys, tmp_path):
    emitted = []
    for argv in (
        ["certify", "--x", "10^30", "--r", "10", "--s", "100", "--format", "json"],
        ["certify", "--x", "2520", "--r", "3", "--s", "10", "--format", "json"],
        ["certify", "--x", "e^10000", "--schedule", "t1", "--u", "0.5", "--format", "json"],
        ["certify", "--x", "e^1000", "--schedule", "t2", "--format", "json"],
        ["certify", "--x", "10^30", "--schedule", "t2", "--format", "json"],  # zero-cert
    ):
        assert run(argv) == EXIT_OK
        emitted.append(json.loads(capsys.readouterr().out))

    # every emitted certificate re-validates
    for i, cert in enumerate(emitted):
        path = tmp_path / f"cert{i}.json"
        path.write_text(json.dumps(cert))
        assert run(["verify", "--cert", str(path)]) == EXIT_OK
        capsys.readouterr()

    # semantics-changing mutation of any field exits 3
    mutations = {
        "x": "10^24",
        "r": 11,
        "s": 90,
        "pi": 18,
        "exponents": [[2, 5], [3, 4], [5, 2], [7, 2]],
        "A": 12,
        "count": "12377",
        "log10_count": 4.5,
        "max_member_check": False,
        "lemma2_applicable": True,
    }
    flagship = emitted[0]
    for field, value in mutations.items():
        mutated = dict(flagship)
        mutated[field] = value
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(mutated))
        assert run(["verify", "--cert", str(path)]) == EXIT_MISMATCH, field
        capsys.readouterr()
    _report("certificate-roundtrip")
