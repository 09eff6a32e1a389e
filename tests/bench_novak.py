"""Microbenchmark of the N_C layer: count_nc and list_nc over the closed prime sets.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_novak.py

count_nc is timed at x = 5*10^6 and 3*10^7, the two ends of the benchmark's
``count`` workload pair, and at 10^10, where the walk over 32 365 closed
sets dominates; list_nc is timed at 10^7, next to its list.  Both take one
walk over the closed sets S, with the cofactors k <= x // M(S) built from
S's primes: count_nc counts them and list_nc multiplies and sorts them.
N_C(10^11) is pinned in one round.
"""

import pytest

from nc_forge.novak import count_nc, list_nc

COUNTS = {5 * 10**6: 10_434, 3 * 10**7: 28_039, 10**10: 681_237}


@pytest.mark.parametrize("x", COUNTS, ids=["5e6", "3e7", "1e10"])
def test_count_nc(benchmark, x):
    assert benchmark(count_nc, x) == COUNTS[x]


def test_count_nc_1e11(benchmark):
    assert benchmark.pedantic(count_nc, args=(10**11,), rounds=1) == 2_401_085


def test_list_nc(benchmark):
    assert len(benchmark(list_nc, 10**7)) == 15_297
