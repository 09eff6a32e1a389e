"""Microbenchmark of e^k thresholds: parsing x and certifying below it.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_threshold.py

Each round parses a threshold e^k with a k no earlier round used, as a fresh
process sees it, and certifies the t1 schedule at u = 0.5 below it, as the
benchmark's ``certify`` workload does near e^28000 and at e^100000.  The
exact floor(e^k) (``Threshold.value``) is timed at the same two k, on a fresh
threshold per round so that no round reads a cached value.  With the family
built in setup (``build_family`` keeps it), ``certify_lower_bound`` alone is
timed at e^28000, e^100000 and e^1000000: the A search, the member check
and the count, as a round trip's second call or verify sees it.  The count
binomial(pi, A) is timed alone at the e^100000 certificate's (21 400, 7 428)
and at (500 000, 58 000), against CPython's math.comb.
"""

import itertools
import math

import pytest

from nc_forge.certify import Schedule, binomial, certify_lower_bound, parse_threshold
from nc_forge.construction import build_family

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


@pytest.mark.parametrize("k", [28000, 100000, 1000000])
def test_certify_warm_family(benchmark, k):
    sched = Schedule.t1(parse_threshold(f"e^{k}"), 0.5)
    warm = lambda: build_family(sched.s, sched.r, memory_budget=None) and ((sched,), {})  # the key certify uses
    cert = benchmark.pedantic(certify_lower_bound, setup=warm, rounds=ROUNDS)
    assert cert.count > 0 and cert.max_member_check


@pytest.mark.parametrize("k", [28000, 100000])
def test_exact_value(benchmark, k):
    value = benchmark.pedantic(
        lambda t: t.value, setup=lambda: ((parse_threshold(f"e^{k}"),), {}), rounds=ROUNDS
    )
    t = parse_threshold(f"e^{k}")
    assert t.lo <= value <= t.hi


@pytest.mark.parametrize("n, k", [(21_400, 7_428), (500_000, 58_000)])
@pytest.mark.parametrize("method", [binomial, math.comb], ids=["factorised", "math.comb"])
def test_binomial(benchmark, method, n, k):
    value = benchmark.pedantic(method, args=(n, k), rounds=ROUNDS)
    assert value > 0 and value.bit_length() > n // 4
