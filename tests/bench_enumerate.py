"""Microbenchmark of certificate enumeration and of certifying at t1 e^100000.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_enumerate.py

The shapes are those of the benchmark's ``certify`` workload: the 12 376-member
(10, 100) certificate at 10^30 and the manual (r, s, A) shapes (7, 150, 5),
(20, 300, 3) and (30, 5000, 2) at x = D s^A, with 20 349, 14 190 and 30 876
members; and the t1 certificate at e^100000 with u = 0.5, whose A = 7 428
largest members are multiplied together.  The near-pi corner (1223, 1223)
has pi = 200 and A = 198, so each of its 19 900 members multiplies D by 198
primes.
"""

import pytest

from nc_forge.certify import Schedule, certify_lower_bound, enumerate_certificate, parse_threshold
from nc_forge.construction import build_family

ROUNDS = 10


def _shape(r, s, a=None):
    """Schedule.manual(D s^a, r, s); a = None stands for pi - 2."""

    def make():
        base, pset = build_family(s, r)
        return Schedule.manual(base.value * s ** (pset.count - 2 if a is None else a), r, s)

    return make


@pytest.mark.parametrize(
    "make_schedule, members",
    [
        (lambda: Schedule.manual("10^30", 10, 100), 12_376),
        (_shape(7, 150, 5), 20_349),
        (_shape(20, 300, 3), 14_190),
        (_shape(30, 5000, 2), 30_876),
        (_shape(1223, 1223), 19_900),
    ],
    ids=["r10-s100", "r7-s150", "r20-s300", "r30-s5000", "near-pi-s1223"],
)
def test_enumerate_certificate(benchmark, make_schedule, members):
    cert = certify_lower_bound(make_schedule())
    report = benchmark.pedantic(enumerate_certificate, args=(cert,), rounds=ROUNDS)
    assert report.ok and report.members == members


def test_certify_t1_e100000(benchmark):
    sched = Schedule.t1(parse_threshold("e^100000"), 0.5)
    cert = benchmark.pedantic(certify_lower_bound, args=(sched,), rounds=ROUNDS)
    assert cert.A == 7428 and cert.max_member_check
