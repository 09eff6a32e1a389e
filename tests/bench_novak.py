"""Microbenchmark of the N_C layer: count_nc and list_nc over the closed prime sets.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_novak.py

count_nc is timed at x = 5*10^6 and 3*10^7, the two ends of the benchmark's
``count`` workload pair, and list_nc at 10^7, next to its list.  Both take
one walk over the closed sets S, with the cofactors k <= x // M(S) built
from S's primes: count_nc counts them and list_nc multiplies and sorts them.
"""

import pytest

from nc_forge.novak import count_nc, list_nc

COUNTS = {5 * 10**6: 10_434, 3 * 10**7: 28_039}


@pytest.mark.parametrize("x", COUNTS, ids=["5e6", "3e7"])
def test_count_nc(benchmark, x):
    assert benchmark(count_nc, x) == COUNTS[x]


def test_list_nc(benchmark):
    assert len(benchmark(list_nc, 10**7)) == 15_297
