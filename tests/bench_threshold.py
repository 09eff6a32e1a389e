"""Microbenchmark of e^k thresholds: parsing x and certifying below it.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_threshold.py

Each round parses a threshold e^k with a k no earlier round used, as a fresh
process sees it, and certifies the t1 schedule at u = 0.5 below it, as the
benchmark's ``certify`` workload does near e^28000 and at e^100000.  The
exact floor(e^k) (``Threshold.value``) is timed at the same two k, on a fresh
threshold per round so that no round reads a cached value.
"""

import itertools

import pytest

from nc_forge.certify import Schedule, certify_lower_bound, parse_threshold

ROUNDS = 10


@pytest.mark.parametrize("k", [28000, 100000])
def test_parse_and_certify_t1(benchmark, k):
    ks = itertools.count(k)
    cert = benchmark.pedantic(
        lambda x: certify_lower_bound(Schedule.t1(parse_threshold(x), 0.5)),
        setup=lambda: ((f"e^{next(ks)}",), {}),
        rounds=ROUNDS,
    )
    assert cert.count > 0 and cert.max_member_check


@pytest.mark.parametrize("k", [28000, 100000])
def test_exact_value(benchmark, k):
    value = benchmark.pedantic(
        lambda t: t.value, setup=lambda: ((parse_threshold(f"e^{k}"),), {}), rounds=ROUNDS
    )
    t = parse_threshold(f"e^{k}")
    assert t.lo <= value <= t.hi
