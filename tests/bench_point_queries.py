"""Microbenchmark of the factor-table layer: the table build and its point queries.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_point_queries.py

The query mix follows the benchmark's ``count`` workload: 10^5 seeded n <= 10^7
through is_nc_criterion, and carmichael_lambda on every eighth of them.
"""

import random

import pytest

from nc_forge.novak import carmichael_lambda, is_nc_criterion
from nc_forge.sieve import build_tables

LIMIT = 10**7
QUERIES = 10**5


@pytest.fixture(scope="module")
def table():
    return build_tables(LIMIT).factors


@pytest.fixture(scope="module")
def queries():
    rng = random.Random(20)
    return [rng.randrange(1, LIMIT + 1) for _ in range(QUERIES)]


def test_build_tables(benchmark):
    tables = benchmark(build_tables, LIMIT)
    assert tables.limit == LIMIT


def test_is_nc_criterion_point_queries(benchmark, table, queries):
    verdicts = benchmark(lambda: [is_nc_criterion(n, table) for n in queries])
    assert len(verdicts) == QUERIES


def test_carmichael_lambda_point_queries(benchmark, table, queries):
    sample = queries[::8]
    values = benchmark(lambda: [carmichael_lambda(n, table) for n in sample])
    assert len(values) == len(sample) == 12_500
