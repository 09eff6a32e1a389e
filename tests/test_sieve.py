import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nc_forge.errors import DomainError, ResourceError
from nc_forge import sieve
from nc_forge.novak import is_nc_criterion
from nc_forge.sieve import (
    FactorTable,
    build_tables,
    check_budget,
    prime_count_bound,
    prime_powers,
    sieve_primes,
)
from nc_forge.cli import EXIT_OK, EXIT_RESOURCE, run
from nc_forge.smoothness import (
    PRIME_LIST_BYTES, pi_smooth_count, pi_table_bytes, psi_count, shifted_smooth_set,
)

from oracles import flag_sieve, spf_many, trial_factorize, trial_primes, trial_spf


def test_sieve_first_primes():
    t = sieve_primes(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    assert t.count == 4


def test_sieve_smallest_limit():
    t = sieve_primes(2)
    assert t.primes.tolist() == [2]
    assert t.count == 1


def test_prime_count_100():
    assert sieve_primes(100).count == 25


def test_prime_count_bound_is_at_least_pi():
    """Dusart's bound, which sizes every prime array and charge, against exact counts."""
    assert prime_count_bound(0) == prime_count_bound(1) == 0
    limits = np.arange(2, 10**5 + 1)
    pi = np.searchsorted(flag_sieve(10**5), limits, side="right")
    bounds = np.array([prime_count_bound(int(limit)) for limit in limits])
    assert np.all(bounds >= pi), limits[bounds < pi][:5]
    for limit, count in ((10**6, 78_498), (10**7, 664_579)):
        assert count <= prime_count_bound(limit) <= 1.0075 * count


def test_prime_table_pi_lookups():
    t = sieve_primes(1000)
    assert t.pi(100) == 25
    assert t.pi(2) == 1
    assert t.pi(1) == 0
    assert t.pi(97) - t.pi(96) == 1  # 97 is prime
    assert t.pi(91) == t.pi(90)  # 91 = 7 * 13 is not
    with pytest.raises(DomainError):
        t.pi(1001)


def test_sieve_matches_trial_division_to_1e4():
    assert sieve_primes(10_000).primes.tolist() == trial_primes(10_000)


def test_prime_count_matches_trial_division_to_1e5():
    assert sieve_primes(100_000).count == len(trial_primes(100_000))


@pytest.mark.parametrize("bad", [0, 1, -5])
def test_sieve_rejects_small_limits(bad):
    with pytest.raises(DomainError):
        sieve_primes(bad)


def test_sieve_rejects_huge_limits():
    with pytest.raises(ResourceError):
        sieve_primes((1 << 40) + 1)


def test_factor_table_examples():
    t = build_tables(100).factors
    assert spf_many(t, np.array([12, 9, 11, 91, 2])).tolist() == [2, 3, 11, 7, 2]
    assert t.spf_odd[[1 >> 1, 9 >> 1, 11 >> 1, 91 >> 1]].tolist() == [0, 3, 0, 7]


def test_factor_table_prime_fixed_points():
    t = build_tables(1000).factors
    primes = set(trial_primes(1000))
    for n in range(2, 1001):
        spf = next(prime_powers(n, t))[0]
        if n in primes:
            assert spf == n
        else:
            assert spf < n


def test_factor_table_matches_trial_division():
    """Every limit to 300 and 10^5: slot k holds spf(2k+1), or 0 when 2k+1 is a prime or 1.
    At limit = p^2 the strike of p starts on the last slot; at p^2 - 1, p strikes nothing."""
    want = [0 if trial_spf(n) == n else trial_spf(n) for n in range(1, 10**5 + 1, 2)]
    for limit in [*range(2, 301), 10**5]:
        table = build_tables(limit).factors
        assert table.spf_odd.tolist() == want[: (limit + 1) // 2], limit


def test_factor_table_build_allocates_nothing_beside_the_table():
    tracemalloc.start()
    try:
        spf_odd = sieve._strike_factor_table(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * spf_odd.nbytes


def test_sieve_primes_allocates_nothing_beside_the_primes():
    """The output is sized once by a bound within 1 % and trimmed in place, so the
    strike buffer and one piece's int64 indices are all that sit beside it."""
    tracemalloc.start()
    try:
        primes = sieve_primes(10**7).primes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(primes) == 664_579
    assert peak <= 1.01 * primes.nbytes + sieve.SIEVE_BLOCK + 8 * sieve.SIEVE_PIECE


def test_prime_list_budget_covers_the_measured_peak():
    tracemalloc.start()
    try:
        primes = sieve_primes(10**6).primes.tolist()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(primes) == 78_498
    with pytest.raises(ResourceError, match="budget"):
        check_budget({"prime list": PRIME_LIST_BYTES * prime_count_bound(10**6)}, peak)


def test_build_tables_budget_counts_the_prime_array():
    check_budget({"factor table": sieve._factor_table_bytes(10**6)}, 1_000_000)  # the table alone fits
    with pytest.raises(ResourceError, match="factor table 1000000 \\+ prime array \\d+ \\+ read piece \\d+ bytes"):
        build_tables(10**6, memory_budget=1_000_000)


def test_build_tables_peak_is_within_what_the_budget_charged():
    tracemalloc.start()
    try:
        tables = build_tables(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prime_array = tables.primes.primes.itemsize * prime_count_bound(10**7)
    charged = tables.factors.spf_odd.nbytes + prime_array + 10 * sieve.SIEVE_PIECE
    assert tables.primes.primes.nbytes <= prime_array
    assert peak <= charged
    with pytest.raises(ResourceError):
        build_tables(10**7, memory_budget=charged - 1)


def test_psi_peak_is_within_what_the_budget_charged(capsys):
    x, y = 10**9, 31_622
    tracemalloc.start()
    try:
        assert psi_count(x, y) == 328_899_981
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    charged = PRIME_LIST_BYTES * prime_count_bound(y) + pi_table_bytes(x, y)
    assert peak <= charged
    argv = ["smooth", "psi", "--x", str(x), "--y", str(y), "--limit-memory"]
    assert run([*argv, str(charged - 1)]) == EXIT_RESOURCE
    assert "prime list" in capsys.readouterr().err
    assert run([*argv, str(charged)]) == EXIT_OK
    assert capsys.readouterr().out == "328899981\n"


def test_wider_tables_read_like_uint16(tables_small):
    """Tables at or above 2^32 store uint32; the memoryview chain and the walk must read them alike."""
    t16 = tables_small.factors
    assert t16.spf_odd.dtype == np.uint16
    primes = tables_small.primes
    for wide in (np.uint32, np.uint64):
        twide = FactorTable(limit=t16.limit, spf_odd=t16.spf_odd.astype(wide))
        assert twide.spf_view.format != t16.spf_view.format
        for n in range(2, t16.limit + 1):
            assert tuple(prime_powers(n, twide)) == tuple(prime_powers(n, t16))
            assert is_nc_criterion(n, twide) == is_nc_criterion(n, t16)
        for x, y in ((2, 1), (100, 3), (5000, 70), (t16.limit, 97), (t16.limit, t16.limit)):
            assert pi_smooth_count(x, y, primes, twide) == pi_smooth_count(x, y, primes, t16)
            assert shifted_smooth_set(x, y, primes, twide) == shifted_smooth_set(x, y, primes, t16)


def test_table_dtype_switches_at_2_to_32():
    assert sieve._factor_table_bytes(2**32 - 1) == 2**31 * 2
    assert sieve._factor_table_bytes(2**32) == 2**31 * 4


def test_prime_array_dtype_switches_at_2_to_32():
    assert sieve._prime_array_bytes(2**32 - 1) == 4 * prime_count_bound(2**32 - 1)
    assert sieve._prime_array_bytes(2**32) == 8 * prime_count_bound(2**32)
    assert sieve.table_charge(2**32 - 1)["prime array"] == sieve._prime_array_bytes(2**32 - 1)


def test_prime_table_pi_casts_no_array(tables_1e7):
    """A Python-int key would cast the 10^7 table's 2.7 MB of uint32 primes to int64 on every call."""
    primes = tables_1e7.primes
    tracemalloc.start()
    try:
        counts = [primes.pi(x) for x in (10**7, 3162, 2, 1, 0, -1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [664_579, 446, 1, 0, 0, 0]
    assert peak < 1024


@pytest.mark.parametrize("n", [2**40 - 1, 2**40 - 87, 2 * (2**39 - 111)], ids=["2^40-1", "prime", "even"])
def test_factoring_without_a_table_near_2_to_40(n):
    """The odd part lies above 2^32, past the uint32 primes it is reduced by, so the reduction is in int64."""
    want = trial_factorize(n)
    assert list(prime_powers(n)) == want
    verdict = is_nc_criterion(n)
    failing = [p for p, _ in want if p > 2 and n % (p - 1)]
    assert verdict.is_nc == (not failing)
    assert verdict.witness == (failing[0] if failing else None)


def test_factor_table_rejects_bad_limits():
    with pytest.raises(DomainError):
        build_tables(1)
    with pytest.raises(ResourceError):
        build_tables((1 << 40) + 1)


def test_build_tables_checks_the_budget_before_sieving(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"struck a table to {limit} before the budget check")

    monkeypatch.setattr(sieve, "_strike_factor_table", refuse)
    with pytest.raises(ResourceError):
        build_tables(10**8, memory_budget=1000)


def _block_edges(block):
    """Limits whose odd slots end one short of, on, or one past the first and second block ends."""
    return [2 * k * block + d for k in (1, 2) for d in (-2, -1, 0, 1)]


@pytest.mark.parametrize(
    "limits, block",
    [
        (range(2, 301), None),
        (_block_edges(sieve.STRIKE_BLOCK), None),
        (_block_edges(sieve.SIEVE_BLOCK), None),
        (_block_edges(sieve.SIEVE_PIECE), None),
        ([10**7], None),
        ([10**6], 1 << 12),
        ([10**6], 9973),
    ],
    ids=["2..300", "strike-block", "sieve-block", "sieve-piece", "1e7", "1e6-block-4096", "1e6-block-9973"],
)
def test_sieve_primes_matches_flag_sieve(monkeypatch, limits, block):
    """sieve_primes against one flag per integer: every limit to 300, the limits whose odd
    slots end next to the first and second ends of a factor-table block (the second and fourth
    sieve block ends), a sieve block and a piece, and 10^7.  At 10^6 the block is also
    shrunk, to a power of 2 and to an odd size, and the primes must not change."""
    if block:
        monkeypatch.setattr(sieve, "SIEVE_BLOCK", block)
    for limit in limits:
        got = sieve_primes(limit).primes
        assert got.dtype == np.uint32
        assert np.array_equal(got, flag_sieve(limit)), limit


@pytest.mark.parametrize(
    "limits",
    [
        range(2, 301),
        _block_edges(sieve.STRIKE_BLOCK),
        _block_edges(sieve.SIEVE_BLOCK),
        _block_edges(sieve.SIEVE_PIECE),
        [10**5],
    ],
    ids=["2..300", "strike-block", "sieve-block", "sieve-piece", "1e5"],
)
def test_build_tables_primes_match_sieve_primes(monkeypatch, limits):
    """The prime list read off the table's zeros, a piece at a time, is sieve_primes', read a
    block at a time, at the edges of both; and no second sieve runs."""
    want = {limit: sieve_primes(limit) for limit in limits}

    def refuse(limit):
        raise AssertionError(f"build_tables sieved primes to {limit}")

    monkeypatch.setattr(sieve, "sieve_primes", refuse)
    for limit in limits:
        got = build_tables(limit).primes
        assert np.array_equal(got.primes, want[limit].primes), limit
        assert got.count == want[limit].count == len(got.primes), limit


def test_factor_table_memory_budget_points_at_table_free_calls():
    with pytest.raises(ResourceError, match="count_nc, list_nc, .* need no factor table"):
        build_tables(10**6, memory_budget=1000)


def test_factorize_examples(tables_small):
    t = tables_small.factors
    assert tuple(prime_powers(12, t)) == ((2, 2), (3, 1))
    assert tuple(prime_powers(2520, t)) == ((2, 3), (3, 2), (5, 1), (7, 1))
    assert 8 * 9 * 5 * 7 == 2520
    assert tuple(prime_powers(97, t)) == ((97, 1),)


def test_factorize_rejects_out_of_range(tables_small):
    for bad in (0, 1, tables_small.factors.limit + 1):
        with pytest.raises(DomainError):
            tuple(prime_powers(bad, tables_small.factors))
    for bad in (0, 1):
        with pytest.raises(DomainError):
            tuple(prime_powers(bad))
    with pytest.raises(ResourceError):
        tuple(prime_powers((1 << 40) + 1))


def test_factorize_reconstructs_exhaustively_to_1e6(tables_1e6):
    """Chain-walk every n <= 10^6: product restores n, primes ascend, all prime."""
    table = tables_1e6.factors
    is_prime = np.zeros(10**6 + 1, dtype=bool)
    is_prime[tables_1e6.primes.primes] = True
    n = np.arange(2, 10**6 + 1, dtype=np.int64)
    rebuilt = np.ones(n.shape, dtype=np.int64)
    prev = np.ones(n.shape, dtype=np.int64)
    m = n.copy()
    idx = np.flatnonzero(m > 1)
    while idx.size:
        p = spf_many(table, m[idx])
        assert bool(is_prime[p].all())
        assert bool((p >= prev[idx]).all())
        prev[idx] = p
        rebuilt[idx] *= p
        m[idx] //= p
        idx = idx[m[idx] > 1]
    assert bool((rebuilt == n).all())


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10_000))
def test_factorize_matches_trial_division(tables_small, n):
    assert list(prime_powers(n, tables_small.factors)) == trial_factorize(n)
    assert list(prime_powers(n)) == trial_factorize(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10_000))
def test_factorization_value_roundtrip(tables_small, n):
    f = tuple(prime_powers(n, tables_small.factors))
    assert math.prod(p**e for p, e in f) == n
    assert all(e >= 1 for _, e in f)
