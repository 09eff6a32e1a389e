import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nc_forge import novak
from nc_forge.errors import DomainError, ResourceError
from nc_forge.novak import NovakVerdict, carmichael_lambda, count_nc, is_nc_criterion, list_nc
from nc_forge.sieve import build_tables, prime_powers

from oracles import closed_sets_scan, definition_witness, group_exponent, nc_flags_sieve, trial_factorize


@pytest.fixture(scope="module")
def oracle_flags():
    return nc_flags_sieve(200_000)


@pytest.fixture(scope="module")
def table_2e6():
    return build_tables(2 * 10**6).factors


def test_criterion_examples(tables_small):
    t = tables_small.factors
    assert is_nc_criterion(1, t).is_nc
    v = is_nc_criterion(561, t)
    assert not v.is_nc and v.witness_kind == "prime" and v.witness == 3
    assert is_nc_criterion(2520, t).is_nc


def test_criterion_witness_is_smallest_failing_prime(tables_small):
    v = is_nc_criterion(3 * 5 * 7, tables_small.factors)
    assert v.witness == 3


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=2 * 10**5))
def test_criterion_witness_matches_trial_division(tables_1e6, n):
    """Verdict and witness equal the smallest odd prime p | n with (p-1) not dividing n."""
    failing = [p for p, _ in trial_factorize(n) if p > 2 and n % (p - 1)]
    v = is_nc_criterion(n, tables_1e6.factors)
    assert (v.n, v.is_nc) == (n, not failing)
    assert (v.witness_kind, v.witness) == (("prime", failing[0]) if failing else (None, None))


def test_criterion_rejects_out_of_range(tables_small):
    with pytest.raises(DomainError):
        is_nc_criterion(0, tables_small.factors)
    with pytest.raises(DomainError):
        is_nc_criterion(tables_small.factors.limit + 1, tables_small.factors)


def test_definition_examples():
    assert definition_witness(1) is None
    assert definition_witness(4) is None
    assert definition_witness(3) == 2


def test_lambda_examples(tables_small):
    t = tables_small.factors
    assert carmichael_lambda(8, t) == 2
    assert carmichael_lambda(12, t) == 2
    assert carmichael_lambda(2520, t) == 12
    assert math.lcm(2, 6, 4, 6) == 12
    assert carmichael_lambda(1, t) == 1
    assert carmichael_lambda(2, t) == 1
    assert carmichael_lambda(4, t) == 2


def test_lambda_matches_group_exponent(tables_small):
    for n in range(1, 200):
        assert carmichael_lambda(n, tables_small.factors) == group_exponent(n)


def test_count_examples():
    assert count_nc(10) == 5
    assert count_nc(100) == 23
    assert count_nc(2) == 2
    assert count_nc(1) == 1


def test_list_examples():
    assert list_nc(20) == [1, 2, 4, 6, 8, 12, 16, 18, 20]
    assert list_nc(1) == [1]
    members = list_nc(50)
    assert 42 in members and 30 not in members


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
@example(1)
@example(2)
@example(17)
@example(1000)
@example(4096)
def test_list_length_equals_count(oracle_flags, x):
    members = list_nc(x)
    flags = oracle_flags[: x + 1]
    assert count_nc(x) == len(members) == int(flags.sum())
    assert all(a < b for a, b in zip(members, members[1:]))
    assert members == np.flatnonzero(flags).tolist()


@pytest.fixture(scope="module")
def running_count_2000():
    return np.cumsum(nc_flags_sieve(2000))


def test_count_matches_the_running_oracle_count_at_every_x_to_2000(running_count_2000):
    assert [count_nc(x) for x in range(1, 2001)] == running_count_2000[1:].tolist()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=2000))
@example(6)
@example(42)
@example(1806)
def test_count_keeps_x_equal_to_m_of_a_closed_set(running_count_2000, x):
    """6 = M({2, 3}), 42 = M({2, 3, 7}) and 1806 = M({2, 3, 7, 43}) are members: a DFS that
    stops at M(S) q >= x in place of > x loses n = x there."""
    assert count_nc(x) == running_count_2000[x]


def test_count_nondecreasing():
    counts = [count_nc(x) for x in range(1, 200)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_cross_checked_against_definition(tables_small):
    want = sum(1 for n in range(1, 101) if definition_witness(n) is None)
    assert count_nc(100) == want == 23


def test_three_way_oracle_agreement(tables_small):
    t = tables_small.factors
    for n in range(1, 2001):
        a = is_nc_criterion(n, t).is_nc
        b = definition_witness(n) is None
        c = n % carmichael_lambda(n, t) == 0
        assert a == b == c, f"oracles disagree at n={n}"


def test_members_are_even_except_one():
    members = list_nc(10**6)
    assert members[0] == 1
    assert all(m % 2 == 0 for m in members[1:])


def test_closure_under_prime_multiplication(tables_small):
    """If n passes and p | n, then n*p passes (factor set is unchanged)."""
    t = tables_small.factors
    for n in list_nc(10**4):
        if n == 1:
            continue
        fs = tuple(prime_powers(n, t))
        for p, _ in fs:
            m = n * p
            assert all(m % (q - 1) == 0 for q, _ in fs if q > 2), (n, p)


def test_segmented_agrees_with_monolithic():
    """The closed-set walk, set by set, agrees with the whole-range criterion sieve oracle."""
    assert count_nc(10**6) == 4292 == int(nc_flags_sieve(10**6).sum())
    assert list_nc(10**5) == np.flatnonzero(nc_flags_sieve(10**5)).tolist()


def _sets(pairs):
    return sorted((tuple(s), m) for s, m in pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
@example(2)
@example(3)
@example(10)
@example(100)
@example(10**4)
@example(10**6)
@example(10**7)
def test_counter_dfs_matches_the_scan(x):
    """The counter-driven walk yields the (S, M(S)) pairs of a scan that tests every prime at every node."""
    assert _sets(novak._closed_sets(x)) == _sets(closed_sets_scan(x))


def _peak(f, *args):
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counting_fits_its_charge():
    """count_nc holds at most its charge, list_nc that plus MEMBER_BYTES a member; a byte less is refused."""
    x = 10**8
    charge = sum(novak._charge("count_nc", x).values())
    count, peak = _peak(count_nc, x)
    assert peak <= charge
    members, peak = _peak(list_nc, x)
    whole = charge + novak.MEMBER_BYTES * len(members)
    assert peak <= whole
    assert count_nc(x, memory_budget=charge) == count == len(members) == 54_382
    with pytest.raises(ResourceError, match="closure counters \\d+ bytes exceed"):
        count_nc(x, memory_budget=charge - 1)
    assert list_nc(x, memory_budget=whole) == members
    with pytest.raises(ResourceError, match="member list \\d+ bytes exceed"):
        list_nc(x, memory_budget=whole - 1)


@pytest.mark.parametrize("x, want", [(10**8, 54_382), (10**9, 192_826)], ids=["1e8", "1e9"])
def test_count_above_1e7(x, want):
    assert count_nc(x) == want


def test_count_rejects_bad_arguments():
    with pytest.raises(DomainError):
        count_nc(0)
    with pytest.raises(ResourceError):
        count_nc((1 << 40) + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10_000))
def test_witnesses_verify(tables_small, n):
    t = tables_small.factors
    v = is_nc_criterion(n, t)
    if not v.is_nc:
        assert n % v.witness == 0
        assert n % (v.witness - 1) != 0
    w = definition_witness(n)
    assert (w is None) == v.is_nc
    if w is not None:
        assert math.gcd(w, n) == 1
        assert pow(w, n, n) != 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2 * 10**6))
@example(1)
@example(2)
@example(9)
@example(561)
@example(2 * 10**6)
@example(1_999_993)  # prime
@example(1413 * 1413)  # cofactor square just below sqrt(2e6)
@example(1 << 20)
def test_table_free_criterion_matches_table(table_2e6, n):
    assert is_nc_criterion(n) == is_nc_criterion(n, table_2e6)
    assert carmichael_lambda(n) == carmichael_lambda(n, table_2e6)


def test_table_walk_matches_table_free_on_every_n():
    """The early-exit spf walk gives the table-free verdict and witness for every n up to the limit."""
    t = build_tables(10**5).factors
    assert [is_nc_criterion(n, t) for n in range(1, t.limit + 1)] == [
        is_nc_criterion(n) for n in range(1, t.limit + 1)
    ]
    # Edges of the walk: no odd part (n = 1, 2, 2^k), and the table's last slot.
    assert is_nc_criterion(1, t) == NovakVerdict(1, True)
    assert all(is_nc_criterion(1 << k, t) == NovakVerdict(1 << k, True) for k in range(1, 17))
    assert is_nc_criterion(t.limit, t) == NovakVerdict(10**5, True)
    assert is_nc_criterion(t.limit - 1, t) == NovakVerdict(99_999, False, "prime", 3)
    with pytest.raises(DomainError, match="outside table range"):
        is_nc_criterion(t.limit + 1, t)


def test_table_free_criterion_pinned_points():
    assert is_nc_criterion(10**12).is_nc
    assert is_nc_criterion(1 << 40).is_nc
    v = is_nc_criterion((1 << 40) - 1)
    assert (v.is_nc, v.witness_kind, v.witness) == (False, "prime", 3)
    assert carmichael_lambda(1 << 40) == 1 << 38


def test_table_free_criterion_rejects_bad_arguments():
    with pytest.raises(DomainError):
        is_nc_criterion(0)
    with pytest.raises(DomainError):
        carmichael_lambda(0)
    with pytest.raises(ResourceError, match="exceeds the supported ceiling 2\\^40"):
        is_nc_criterion((1 << 40) + 1)
