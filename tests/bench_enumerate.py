"""Microbenchmark of certificate enumeration and of certifying at t1 e^100000.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_enumerate.py

The shapes are those of the benchmark's ``certify`` workload: the 12 376-member
(10, 100) certificate at 10^30, the 30 876-member (30, 5000) certificate, and
the t1 certificate at e^100000 with u = 0.5, whose A = 7 428 largest members
are multiplied together.
"""

import pytest

from nc_forge.certify import Schedule, certify_lower_bound, enumerate_certificate, parse_threshold
from nc_forge.construction import build_family

ROUNDS = 10


def _largest_shape():
    base, _ = build_family(5000, 30)
    return Schedule.manual(base.value * 5000**2, 30, 5000)


@pytest.mark.parametrize(
    "make_schedule, members",
    [(lambda: Schedule.manual("10^30", 10, 100), 12_376), (_largest_shape, 30_876)],
    ids=["r10-s100", "r30-s5000"],
)
def test_enumerate_certificate(benchmark, make_schedule, members):
    cert = certify_lower_bound(make_schedule())
    report = benchmark.pedantic(enumerate_certificate, args=(cert,), rounds=ROUNDS)
    assert report.ok and report.members == members


def test_certify_t1_e100000(benchmark):
    sched = Schedule.t1(parse_threshold("e^100000"), 0.5)
    cert = benchmark.pedantic(certify_lower_bound, args=(sched,), rounds=ROUNDS)
    assert cert.A == 7428 and cert.max_member_check
