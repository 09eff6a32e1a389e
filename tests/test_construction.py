import json
import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from nc_forge import construction
from nc_forge.construction import (
    build_base,
    build_family,
    build_member,
    family_products,
    int_from_decimal,
    member_to_dict,
    verify_family,
)
from nc_forge.errors import DomainError, ResourceError
from nc_forge.sieve import DEFAULT_MEMORY_BUDGET
from nc_forge.smoothness import ShiftedSmoothSet, shifted_smooth_set

import oracles
from oracles import criterion_over, trial_primes


def all_subsets(members):
    return list(chain.from_iterable(combinations(members, k) for k in range(len(members) + 1)))


def test_base_examples(tables_small):
    b = build_base(10, 3, tables_small.primes)
    assert b.exponents == ((2, 3), (3, 2))
    assert b.value == 72
    assert build_base(2, 2, tables_small.primes).value == 2
    b2 = build_base(100, 10, tables_small.primes)
    assert b2.value == 2**6 * 3**4 * 5**2 * 7**2 == 6350400


def test_base_rejects_bad_parameters(tables_small):
    with pytest.raises(DomainError):
        build_base(10, 1, tables_small.primes)
    with pytest.raises(DomainError):
        build_base(10, 11, tables_small.primes)


@settings(max_examples=100, deadline=None)
@given(s=st.integers(min_value=2, max_value=5000), r=st.integers(min_value=2, max_value=5000))
def test_exponents_are_exact(tables_small, s, r):
    if r > s:
        r, s = s, r
    b = build_base(s, r, tables_small.primes)
    for p, e in b.exponents:
        assert p**e <= s < p ** (e + 1)
    assert b.value == math.prod(p**e for p, e in b.exponents)


@settings(max_examples=60, deadline=None)
@given(s=st.integers(min_value=2, max_value=5000), r=st.integers(min_value=2, max_value=5000))
def test_log_bound(tables_small, s, r):
    if r > s:
        r, s = s, r
    b = build_base(s, r, tables_small.primes)
    assert b.log_value <= tables_small.primes.pi(r) * math.log(s) * (1 + 1e-12)


def test_member_examples(tables_small):
    base = build_base(10, 3, tables_small.primes)
    pset = shifted_smooth_set(10, 3, tables_small.primes, tables_small.factors)
    assert build_member(base, {5, 7}, pset).value == 72 * 35 == 2520
    assert build_member(base, set(), pset).value == 72
    assert build_member(base, {2}, pset).value == 144


def test_member_rejects_foreign_primes(tables_small):
    base = build_base(10, 3, tables_small.primes)
    pset = shifted_smooth_set(10, 3, tables_small.primes, tables_small.factors)
    for foreign in ({11}, {4}, {5, 6}, {1}):  # above, between and below the members (2, 3, 5, 7)
        with pytest.raises(DomainError):
            build_member(base, foreign, pset)


def test_member_rejects_mismatched_set(tables_small):
    base = build_base(10, 3, tables_small.primes)
    other = shifted_smooth_set(100, 10, tables_small.primes, tables_small.factors)
    with pytest.raises(DomainError):
        build_member(base, {5}, other)


def test_verify_family_raises_the_member_errors(tables_small):
    base = build_base(10, 3, tables_small.primes)
    pset = shifted_smooth_set(10, 3, tables_small.primes, tables_small.factors)
    other = shifted_smooth_set(100, 10, tables_small.primes, tables_small.factors)
    with pytest.raises(DomainError, match="set mismatch"):
        verify_family(base, other, [(5,)])
    for foreign, named in (({11}, 11), ({4}, 4), ({5, 6}, 6), ({1}, 1)):
        with pytest.raises(DomainError, match=f"^prime {named} is not in the shifted-smooth set$"):
            verify_family(base, pset, [(2, 3), foreign])


def test_family_exhaustive_for_small_set(tables_small):
    base = build_base(10, 3, tables_small.primes)
    pset = shifted_smooth_set(10, 3, tables_small.primes, tables_small.factors)
    subsets = all_subsets(pset.members)
    assert len(subsets) == 16
    assert verify_family(base, pset, subsets)
    values = [build_member(base, s, pset).value for s in subsets]
    assert len(set(values)) == 16  # distinct subsets give distinct members


def test_family_random_sample(tables_small):
    base = build_base(100, 10, tables_small.primes)
    pset = shifted_smooth_set(100, 10, tables_small.primes, tables_small.factors)
    rng = random.Random(20260809)
    samples = [
        rng.sample(pset.members, rng.randint(0, 5)) for _ in range(100)
    ]
    assert verify_family(base, pset, samples)
    values = {build_member(base, s, pset).value for s in samples}
    assert len(values) == len({tuple(sorted(s)) for s in samples})


def test_family_degenerate_base(tables_small):
    base = build_base(2, 2, tables_small.primes)
    pset = shifted_smooth_set(2, 2, tables_small.primes, tables_small.factors)
    assert pset.members == (2,)
    assert verify_family(base, pset, [(2,)])
    assert build_member(base, (2,), pset).value == 4


def test_base_primes_lie_in_the_smooth_set(tables_small):
    base = build_base(100, 10, tables_small.primes)
    pset = shifted_smooth_set(100, 10, tables_small.primes, tables_small.factors)
    assert {p for p, _ in base.exponents} <= set(pset.members)


def with_foreign_prime(pset, q):
    """pset with q added, as a set that was not computed by shifted_smooth_set."""
    members = tuple(sorted(pset.members + (q,)))
    return ShiftedSmoothSet(x=pset.x, y=pset.y, members=members, count=len(members))


def test_member_check_needs_each_shift_to_divide_the_base(tables_small):
    base = build_base(100, 10, tables_small.primes)
    pset = shifted_smooth_set(100, 10, tables_small.primes, tables_small.factors)
    forged = with_foreign_prime(pset, 23)
    assert verify_family(base, forged, [(), (11,)])
    assert not verify_family(base, forged, [(23,)])
    # E = D * 11 * 23 passes the divisor criterion, but 22 = 23 - 1 does not divide D
    e = build_member(base, (11, 23), forged).value
    assert criterion_over(e, trial_primes(100))
    assert base.value % 22 != 0
    assert not verify_family(base, forged, [(11, 23)])


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=400),
    r=st.integers(min_value=2, max_value=400),
    data=st.data(),
)
def test_family_members_pass_an_independent_criterion(tables_small, s, r, data):
    if r > s:
        r, s = s, r
    base = build_base(s, r, tables_small.primes)
    pset = shifted_smooth_set(s, r, tables_small.primes, tables_small.factors)
    subset = st.lists(st.sampled_from(pset.members), max_size=6, unique=True)
    subsets = data.draw(st.lists(subset, min_size=1, max_size=5))
    assert verify_family(base, pset, subsets)
    primes = trial_primes(s)
    for sub in subsets:
        assert criterion_over(build_member(base, sub, pset).value, primes)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=60),
    r=st.integers(min_value=2, max_value=60),
    data=st.data(),
)
def test_family_products_match_combinations(tables_small, s, r, data):
    if r > s:
        r, s = s, r
    base = build_base(s, r, tables_small.primes)
    pset = shifted_smooth_set(s, r, tables_small.primes, tables_small.factors)
    a = data.draw(st.integers(min_value=-1, max_value=pset.count + 1))
    walk = list(family_products(base.value, pset.members, a))
    if a < 0:  # the oracle's combinations raises ValueError here
        assert walk == []
        return
    want = oracles.family_products(base.value, pset.members, a)
    assert walk == want
    assert len(want) == math.comb(pset.count, a)
    if a == 0:
        assert want == [((), base.value)]


def test_build_family_matches_its_parts(tables_small):
    base, pset = build_family(100, 10)
    assert base == build_base(100, 10, tables_small.primes)
    assert pset == shifted_smooth_set(100, 10, tables_small.primes, tables_small.factors)
    with pytest.raises(DomainError, match="need 2 <= r <= s"):
        build_family(1, 5)
    with pytest.raises(ResourceError):
        build_family(10**8, 5, memory_budget=1000)


def test_build_family_keeps_one_family(family_builds):
    first = build_family(100, 10, memory_budget=10**7)
    assert build_family(100, 10, memory_budget=10**7) is first and family_builds == [100]
    build_family(100, 11, memory_budget=10**7)  # another r
    build_family(101, 11, memory_budget=10**7)  # another s
    build_family(101, 11, memory_budget=10**8)  # another budget
    assert family_builds == [100, 100, 101, 101]
    assert build_family(100, 10, memory_budget=10**7) == first  # evicted: one entry only
    assert len(family_builds) == 5 and construction._family.cache_info().currsize == 1


def test_build_family_memo_ignores_how_the_budget_is_spelled(family_builds):
    """The budget left out, passed as None and passed as the default it stands for are one key."""
    first = build_family(100, 10)
    assert build_family(100, 10, memory_budget=None) is first
    assert build_family(100, 10, memory_budget=DEFAULT_MEMORY_BUDGET) is first
    assert family_builds == [100]


def test_a_refused_family_is_refused_again(family_builds):
    kept = build_family(100, 10, memory_budget=None)
    for _ in range(2):
        with pytest.raises(ResourceError, match="budget"):
            build_family(10**8, 5, memory_budget=1000)
        with pytest.raises(DomainError, match="need 2 <= r <= s"):
            build_family(4, 5, memory_budget=None)
    assert family_builds == [100, 10**8, 4, 10**8, 4]  # each refusal ran again; none was kept
    assert build_family(100, 10, memory_budget=None) is kept and len(family_builds) == 5


def test_member_json_roundtrip(tables_small):
    base = build_base(10, 3, tables_small.primes)
    pset = shifted_smooth_set(10, 3, tables_small.primes, tables_small.factors)
    member = build_member(base, {5, 7}, pset)
    data = member_to_dict(member)
    assert data == {"D": "72", "subset": [5, 7], "E": "2520"}
    assert int_from_decimal(data["E"]) == member.value


def test_member_json_roundtrip_over_the_int_str_limit(tables_1e6):
    base = build_base(10**6, 20_000, tables_1e6.primes)
    pset = shifted_smooth_set(10**6, 20_000, tables_1e6.primes, tables_1e6.factors)
    member = build_member(base, pset.members[-3:], pset)
    data = member_to_dict(member)
    assert len(data["D"]) > 4300 and len(data["E"]) > 4300
    again = json.loads(json.dumps(data))
    assert int_from_decimal(again["D"]) == base.value
    assert int_from_decimal(again["E"]) == member.value
