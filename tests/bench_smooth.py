"""Microbenchmark of the smoothness layer: the primes and tables it reads, Pi(z, y) by either
route, Psi(z, y) by recursion with pi-table leaves, and a cold Dickman rho.

Run it by name; the ``bench_`` prefix keeps it out of the default test run:

    PYTHONPATH=src python -m pytest tests/bench_smooth.py

z = 10^7 with the two y of the benchmark's ``smooth`` workload: the hild
y = round(e^sqrt(log z)) = 55 and y = isqrt(z) = 3162.  sieve_primes and
build_tables, each to 10^7 and 10^8, are timed on their own, fresh each
round, and each one's tracemalloc peak, from one more call outside the timed
rounds, is printed (run with -s) and kept in extra_info; the Pi calls
read one pair built outside the timed calls.  Pi is timed at y = 55, which
enumerates its 24 055 odd smooth cofactors, at y = 3162, which walks every
prime, and at y = 200, a walk just past the choice (which enumerates up to
y = 159 at 10^7).  Psi(10^9, 31 622) and Psi(10^10, 10^5) are
the large points, where y is near sqrt(x) and each count is mostly its pi
table; Psi(10^9, 10^3) is the small-y point, where the leaves start below
(y + 1)^2 and the recursion above them does most of the work.  The cold
rho runs each round on a fresh coefficient cache: at u = 177, the last unit
interval whose series is built, and at u = 390, the far end of the
workload's cold rho, past the cutoff, where none is.
"""

import math
import tracemalloc

import pytest

from nc_forge import smoothness
from nc_forge.sieve import build_tables, sieve_primes
from nc_forge.smoothness import dickman_rho, pi_smooth_count, psi_count

Z = 10**7
YS = {"hild": round(math.exp(math.sqrt(math.log(Z)))), "sqrt": math.isqrt(Z)}
PI = {55: 16_826, 200: 71_609, 3162: 282_700}
PSI = {55: 115_696, 3162: 3_362_157}


@pytest.fixture(scope="module")
def tables():
    return build_tables(Z)


def _record_peak(benchmark, name, fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_bytes"] = peak
    print(f"\n{name}: tracemalloc peak {peak / 1e6:.2f} MB")


@pytest.mark.parametrize("limit, count", [(Z, 664_579), (10**8, 5_761_455)], ids=["1e7", "1e8"])
def test_sieve_primes(benchmark, limit, count):
    primes = benchmark.pedantic(sieve_primes, args=(limit,), rounds=20)
    assert primes.count == count
    _record_peak(benchmark, f"sieve_primes({limit})", sieve_primes, limit)


@pytest.mark.parametrize("limit, count", [(Z, 664_579), (10**8, 5_761_455)], ids=["1e7", "1e8"])
def test_build_tables(benchmark, limit, count):
    tables = benchmark.pedantic(build_tables, args=(limit,), rounds=20)
    assert tables.primes.count == count
    _record_peak(benchmark, f"build_tables({limit})", build_tables, limit)


@pytest.mark.parametrize("y", PI)
def test_pi_smooth_count(benchmark, tables, y):
    assert benchmark(pi_smooth_count, Z, y, tables.primes, tables.factors) == PI[y]


@pytest.mark.parametrize("rule", YS)
def test_psi_count(benchmark, rule):
    y = YS[rule]
    assert benchmark(psi_count, Z, y) == PSI[y]


@pytest.mark.parametrize(
    "x, y, want",
    [(10**9, 31_622, 328_899_981), (10**10, 10**5, 3_265_474_310), (10**9, 10**3, 59_244_184)],
    ids=["1e9", "1e10", "1e9-small-y"],
)
def test_psi_count_large(benchmark, x, y, want):
    assert benchmark.pedantic(psi_count, args=(x, y), rounds=3) == want


@pytest.mark.parametrize("u", [177.0, 390.0])
def test_dickman_rho_cold(benchmark, monkeypatch, u):
    def fresh_cache():
        monkeypatch.setattr(smoothness, "_SERIES", smoothness._DickmanSeries())

    assert benchmark.pedantic(dickman_rho, args=(u,), setup=fresh_cache, rounds=20) == 0.0
