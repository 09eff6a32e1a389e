import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nc_forge import smoothness
from nc_forge.errors import DomainError
from nc_forge.novak import _smooth_numbers
from nc_forge.sieve import build_tables, prime_powers, sieve_primes
from nc_forge.smoothness import (
    CSV_HEADER,
    YRule,
    conjecture_table,
    hildebrand_report,
    pi_smooth_count,
    psi_count,
    rows_to_csv,
    rows_to_json,
    shifted_smooth_set,
)

from oracles import shifted_smooth_primes, smooth_count, trial_factorize, trial_gpf, trial_primes

SUBSET_X = 10_000
SMALL_PRIMES = trial_primes(60)


@pytest.fixture(scope="module")
def supports():
    """supports[n] is the set of prime factors of n, by trial division."""
    return [frozenset(p for p, _ in trial_factorize(n)) for n in range(SUBSET_X + 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10_000))
def test_gpf_matches_trial_division(tables_small, n):
    """The spf chain ascends, so its last prime is the greatest prime factor."""
    assert tuple(prime_powers(n, tables_small.factors))[-1][0] == trial_gpf(n)


def test_psi_examples(tables_small):
    t = tables_small.factors
    assert psi_count(100, 5, t) == 34
    assert psi_count(100, 100, t) == 100
    assert psi_count(100, 1, t) == 1


def icbrt(n):
    c = round(n ** (1 / 3))
    while c**3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def leaf_edges(test):
    """Examples where count_smooth's leaves start: x next to q^2, q prime, with y at
    q - 1, q and the prime below q; x next to (y + 1)^2 for a prime y, where y + 1
    bounds the first prime above y; then y = isqrt(x) and y = icbrt(x)."""
    for q in (3, 5, 31, 97, 997):
        for x in (q * q - 1, q * q, q * q + 1):
            for y in {q - 1, q, trial_primes(q - 1)[-1]}:
                test = example(x=x, y=y)(test)
    for y in (3, 31, 97, 997):
        for x in ((y + 1) ** 2 - 1, (y + 1) ** 2, (y + 1) ** 2 + 1):
            test = example(x=x, y=y)(test)
    for x in (5_000, 123_457, 999_999, 10**6):
        for y in (math.isqrt(x), icbrt(x)):
            test = example(x=x, y=y)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(x=st.integers(min_value=1, max_value=3000), y=st.integers(min_value=1, max_value=3000))
@example(x=300, y=2)
@example(x=300, y=3)
@example(x=300, y=7)
@example(x=300, y=20)
@leaf_edges
def test_psi_matches_brute_force(tables_small, x, y):
    table = tables_small.factors if x <= tables_small.limit else None  # a table only bounds x
    assert psi_count(x, y, table) == smooth_count(x, y)


@settings(max_examples=100, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=SUBSET_X),
    mask=st.lists(st.booleans(), min_size=len(SMALL_PRIMES), max_size=len(SMALL_PRIMES)),
)
def test_count_smooth_matches_listing_and_brute_force(supports, x, mask):
    """_smooth_numbers, the listing count_nc and list_nc share, over arbitrary supports;
    test_psi_matches_brute_force covers count_smooth, which takes only the primes <= y."""
    s = [p for p, keep in zip(SMALL_PRIMES, mask) if keep]
    allowed = set(s)
    brute = sum(1 for n in range(1, x + 1) if supports[n] <= allowed)
    assert len(_smooth_numbers(x, s)) == brute


def test_psi_pinned_at_1e7(tables_1e7):
    f = tables_1e7.factors
    assert psi_count(10**7, 55, f) == 115_696
    assert psi_count(10**7, 3162, f) == 3_362_157
    assert psi_count(10**7, 10**5, f) == 6_917_610


def test_psi_pinned_above_the_tables():
    """The top term is a leaf here: 31 623 = y + 1, the bound that stands in for the first
    prime above y, exceeds sqrt(10^9)."""
    assert psi_count(10**9, 31_622) == 328_899_981


def test_psi_equals_x_when_y_large(tables_small):
    for x in (1, 17, 500):
        assert psi_count(x, x, tables_small.factors) == x


def test_psi_lists_no_primes_when_y_covers_x(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieved to {limit} although y >= x")

    monkeypatch.setattr(smoothness, "sieve_primes", refuse)
    assert psi_count(10**12, 10**12) == 10**12
    assert psi_count(10**6, 10**30) == 10**6


def test_psi_rejects_out_of_range(tables_small):
    with pytest.raises(DomainError):
        psi_count(tables_small.factors.limit + 1, 5, tables_small.factors)
    with pytest.raises(DomainError):
        psi_count(0, 5, tables_small.factors)


def test_shifted_smooth_examples(tables_small):
    p, f = tables_small.primes, tables_small.factors
    s = shifted_smooth_set(10, 3, p, f)
    assert s.members == (2, 3, 5, 7)
    assert s.count == 4
    assert shifted_smooth_set(100, 10, p, f).count == 17
    assert shifted_smooth_set(100, 97, p, f).count == 25


def test_shifted_smooth_matches_brute_force(tables_small):
    p, f = tables_small.primes, tables_small.factors
    for x, y in ((100, 10), (300, 7), (1000, 4)):
        assert list(shifted_smooth_set(x, y, p, f).members) == shifted_smooth_primes(x, y)


def members(masks):
    """The marked candidates of a route's (candidates, mask) pairs, sorted."""
    return sorted(np.concatenate([c[mask] for c, mask in masks]).tolist())


def walked(x, y, p, f):
    return members(smoothness._walk_masks(x, y, p, f))


def enumerated(x, y, p, f):
    return members(smoothness._enumerate_masks(x, smoothness._smooth_cofactors(x, y, p), f))


def refuse_route(*args):
    raise AssertionError("took the other route")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=3000).flatmap(
    lambda x: st.tuples(st.just(x), st.integers(min_value=1, max_value=x + 10))
))
@example((2, 1))
@example((3, 1))
@example((17, 2))
@example((2999, 2998))
@example((23, 11))  # 23 - 1 = 2 * 11: the odd part is y and passes unread
@example((23, 10))  # ... and y + 1, a prime: its 0 slot fails it
@example((31, 15))  # 31 - 1 = 2 * 15: the odd part is y
@example((31, 14))  # ... and y + 1 = 3 * 5, which walks to 5 <= y
@example((2999, 1000))  # 2999 = 2 * 1499 + 1, 1499 a prime above y: a 0 slot
@example((1019, 1))
@example((1019, 2))
@example((1019, 1018))  # y = x - 1
@example((1019, 1019))  # y = x
def test_shifted_smooth_walk_matches_brute_force(tables_small, xy):
    x, y = xy
    p, f = tables_small.primes, tables_small.factors
    want = shifted_smooth_primes(x, y)
    assert list(shifted_smooth_set(x, y, p, f).members) == want
    assert pi_smooth_count(x, y, p, f) == len(want)
    y = min(y, x - 1)  # as the public calls do; below 2 they keep only p = 2 and walk nothing
    if y >= 2:
        assert walked(x, y, p, f) == want


def test_shifted_smooth_walk_ignores_chunk_boundaries(tables_1e6, monkeypatch):
    p, f = tables_1e6.primes, tables_1e6.factors
    ys = (1, 2, 3, 30, 316, 10**5)
    whole = {y: shifted_smooth_set(10**5, y, p, f).members for y in ys}
    walks = {y: walked(10**5, min(y, 10**5 - 1), p, f) for y in ys if y >= 2}
    monkeypatch.setattr(smoothness, "PI_CHUNK", 97)
    for y in ys:
        assert shifted_smooth_set(10**5, y, p, f).members == whole[y]
        assert pi_smooth_count(10**5, y, p, f) == len(whole[y])
        if y >= 2:
            assert walked(10**5, min(y, 10**5 - 1), p, f) == walks[y] == list(whole[y])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=3000).flatmap(
    lambda x: st.tuples(st.just(x), st.integers(min_value=2, max_value=min(60, x - 1)))
))
@example((3, 2))
@example((257, 2))  # a Fermat prime at x itself
@example((2049, 2))  # 2049 = 2^11 + 1 = 3 * 683: the top level's one candidate is no prime
@example((2999, 60))
@example((23, 11))  # 23 - 1 = 2 * 11: the cofactor is y
@example((23, 10))
def test_shifted_smooth_enumeration_matches_brute_force(tables_small, xy):
    x, y = xy
    p, f = tables_small.primes, tables_small.factors
    assert enumerated(x, y, p, f) == shifted_smooth_primes(x, y)


def test_fermat_primes_are_the_2_smooth_shifts(tables_1e6, monkeypatch):
    """At y = 2 the one odd cofactor is 1, so only 2^a + 1 is tested: 2 and the Fermat primes."""
    p, f = tables_1e6.primes, tables_1e6.factors
    monkeypatch.setattr(smoothness, "_walk_masks", refuse_route)
    assert pi_smooth_count(10**6, 2, p, f) == 6
    assert shifted_smooth_set(10**6, 2, p, f).members == (2, 3, 5, 17, 257, 65_537)


@pytest.mark.parametrize(
    "y, want, other", [(55, 16_826, "_walk_masks"), (3162, 282_700, "_smooth_cofactors")]
)
def test_route_choice_at_1e7(tables_1e7, monkeypatch, y, want, other):
    """The hild y enumerates its few smooth shifts; y = isqrt(x) walks every prime."""
    p, f = tables_1e7.primes, tables_1e7.factors
    monkeypatch.setattr(smoothness, other, refuse_route)
    assert pi_smooth_count(10**7, y, p, f) == want


@pytest.mark.parametrize(
    "x, route, estimate",
    [(5_000, "walk", "646.6"), (100_000, "enumerate", "2107")],
    ids=["5000-walk", "100000-enumerate"],
)
def test_few_primes_are_walked(tables_1e6, caplog, x, route, estimate):
    """At y = 30 both estimates are small; Pi(5000, 30) walks only because its estimate
    passes pi(5000) / 2 = 334.5, while Pi(10^5, 30) stays under pi(10^5) / 2 = 4796."""
    p, f = tables_1e6.primes, tables_1e6.factors
    with caplog.at_level(logging.DEBUG, logger="nc_forge.smoothness"):
        assert pi_smooth_count(x, 30, p, f) == len(shifted_smooth_primes(x, 30))
    assert caplog.records[0].message == f"pi_smooth_count({x}, 30): estimate {estimate}, {route}"


def test_enumeration_past_the_cap_falls_back_to_the_walk(tables_1e6, monkeypatch, caplog):
    p, f = tables_1e6.primes, tables_1e6.factors
    want = {y: shifted_smooth_set(10**6, y, p, f).members for y in (2, 30, 41)}
    monkeypatch.setattr(smoothness, "SHIFT_WORKING_BYTES", 1000)  # 83 uint32 cofactors
    with caplog.at_level(logging.DEBUG, logger="nc_forge.smoothness"):
        for y in (30, 41):
            assert shifted_smooth_set(10**6, y, p, f).members == want[y]
            assert pi_smooth_count(10**6, y, p, f) == len(want[y])
        assert pi_smooth_count(10**6, 2, p, f) == len(want[2])  # one cofactor fits any cap
    routes = [rec.message.rsplit(", ", 1)[1] for rec in caplog.records]
    assert routes == ["walk"] * 4 + ["enumerate"]
    assert all("over the cap" in rec.message for rec in caplog.records[:4])


def test_route_decision_is_logged_at_debug(tables_1e7, caplog):
    """The estimate against pi(x) / 2 alone picks the route, however few the primes <= x:
    Pi(10^4, 21) enumerates (461 against 614.5) and Pi(5000, 30) walks (647 against 334.5)."""
    p, f = tables_1e7.primes, tables_1e7.factors
    with caplog.at_level(logging.DEBUG, logger="nc_forge.smoothness"):
        pi_smooth_count(10**7, 55, p, f)
        shifted_smooth_set(10**5, 316, p, f)
        assert pi_smooth_count(10**4, 21, p, f) == len(shifted_smooth_primes(10**4, 21))
    assert [(rec.levelno, rec.message) for rec in caplog.records] == [
        (logging.DEBUG, "pi_smooth_count(10000000, 55): estimate 4.649e+04, enumerate"),
        (logging.DEBUG, "shifted_smooth_set(100000, 316): estimate 3.067e+04, walk"),
        (logging.DEBUG, "pi_smooth_count(10000, 21): estimate 460.9, enumerate"),
    ]
    for x, y in ((10**4, 21), (5000, 30)):
        assert walked(x, y, p, f) == enumerated(x, y, p, f) == shifted_smooth_primes(x, y)


def test_a_table_one_short_of_x_takes_the_walk(monkeypatch):
    """The walk reads slots of (p - 1) / 2^a only; the enumeration would read p's own slot."""
    primes, table = sieve_primes(101), build_tables(100).factors
    monkeypatch.setattr(smoothness, "_smooth_cofactors", refuse_route)
    assert pi_smooth_count(101, 5, primes, table) == len(shifted_smooth_primes(101, 5)) == 15


@pytest.mark.parametrize("share", [0.0, math.inf], ids=["walk", "enumerate"])
def test_both_routes_raise_the_same_domain_errors(tables_small, monkeypatch, share):
    """The arguments are checked before a route is chosen, so either route names them alike."""
    p, f = tables_small.primes, tables_small.factors
    monkeypatch.setattr(smoothness, "ENUMERATE_SHARE", share)
    for name, call in (("pi_smooth_count", pi_smooth_count), ("shifted_smooth_set", shifted_smooth_set)):
        for x, y, text in (
            (1, 5, f"{name} needs x >= 2 and y >= 1, got x=1, y=5"),
            (100, 0, f"{name} needs x >= 2 and y >= 1, got x=100, y=0"),
            (10_001, 5, "x=10001 exceeds table limits"),
        ):
            with pytest.raises(DomainError) as err:
                call(x, y, p, f)
            assert str(err.value) == text
    assert pi_smooth_count(10_000, 55, p, f) == len(shifted_smooth_primes(10_000, 55))
    assert pi_smooth_count(10_000, 10**6, p, f) == p.pi(10_000)  # y is clipped to x - 1 first


def test_pi_smooth_count_builds_no_prime_list(tables_1e7):
    """Pi(10^7, 3162) holds one chunk's arrays at a time, far less than its 282 700 members."""
    p, f = tables_1e7.primes, tables_1e7.factors
    tracemalloc.start()
    try:
        assert pi_smooth_count(10**7, 3162, p, f) == 282_700
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 48 * smoothness.PI_CHUNK  # bytes an entry of one chunk's walk may hold
    assert peak <= bound < 8 * 282_700


def test_pi_smooth_enumeration_holds_its_cofactors_only(tables_1e7):
    """Pi(10^7, 55) enumerates 24 055 odd cofactors, one doubling level at a time."""
    p, f = tables_1e7.primes, tables_1e7.factors
    assert len(smoothness._smooth_cofactors(10**7, 55, p)) == 24_055
    tracemalloc.start()
    try:
        assert pi_smooth_count(10**7, 55, p, f) == 16_826
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= smoothness.SHIFT_WORKING_BYTES == 48 * smoothness.PI_CHUNK


def test_pi_smooth_pinned_at_1e7(tables_1e7):
    p, f = tables_1e7.primes, tables_1e7.factors
    assert pi_smooth_count(10**7, 55, p, f) == 16_826
    assert pi_smooth_count(10**7, 3162, p, f) == 282_700


def test_two_is_always_a_member(tables_small):
    p, f = tables_small.primes, tables_small.factors
    for y in (1, 2, 5):
        assert 2 in shifted_smooth_set(50, y, p, f).members


def test_pi_smooth_equals_pi_when_y_covers_shifts(tables_small):
    p, f = tables_small.primes, tables_small.factors
    for x in (10, 100, 977):
        assert pi_smooth_count(x, x - 1, p, f) == p.pi(x)


@settings(max_examples=60, deadline=None)
@given(
    x1=st.integers(min_value=2, max_value=2000),
    dx=st.integers(min_value=0, max_value=500),
    y1=st.integers(min_value=1, max_value=2000),
    dy=st.integers(min_value=0, max_value=500),
)
def test_counts_monotone_in_x_and_y(tables_small, x1, dx, y1, dy):
    p, f = tables_small.primes, tables_small.factors
    assert psi_count(x1 + dx, y1 + dy, f) >= psi_count(x1, y1, f)
    assert pi_smooth_count(x1 + dx, y1 + dy, p, f) >= pi_smooth_count(x1, y1, p, f)


def test_counts_monotone_on_large_grid(tables_1e6):
    p, f = tables_1e6.primes, tables_1e6.factors
    xs = (10**5, 5 * 10**5, 10**6)
    ys = (10, 100, 1000)
    psi = {(x, y): psi_count(x, y, f) for x in xs for y in ys}
    pis = {(x, y): pi_smooth_count(x, y, p, f) for x in xs for y in ys}
    for grid in (psi, pis):
        for x1, x2 in zip(xs, xs[1:]):
            for y in ys:
                assert grid[(x1, y)] <= grid[(x2, y)]
        for y1, y2 in zip(ys, ys[1:]):
            for x in xs:
                assert grid[(x, y1)] <= grid[(x, y2)]


def test_conjecture_rows_examples(tables_small):
    rows = conjecture_table([100], YRule(kind="fixed", value=10), tables_small)
    (row,) = rows
    assert (row.pi, row.pi_smooth) == (25, 17)
    assert row.lhs_ratio == 17 / 25  # 0.68
    (row,) = conjecture_table([100], YRule(kind="fixed", value=97), tables_small)
    assert row.lhs_ratio == 1.0
    (row,) = conjecture_table([100], YRule(kind="fixed", value=5), tables_small)
    assert row.rhs_ratio == 34 / 100


def test_conjecture_rejects_empty_z(tables_small):
    with pytest.raises(DomainError):
        conjecture_table([], YRule(kind="fixed", value=10), tables_small)


def test_tables_reject_z_below_2(tables_small):
    for zs in ([0], [1, 100]):
        with pytest.raises(DomainError, match="each at least 2"):
            conjecture_table(zs, YRule(kind="hild"), tables_small)
        with pytest.raises(DomainError, match="each at least 2"):
            hildebrand_report(zs, tables_small)


def test_conjecture_rows_sorted_by_z(tables_small):
    rows = conjecture_table([500, 100, 300], YRule(kind="fixed", value=7), tables_small)
    assert [r.z for r in rows] == [100, 300, 500]


def test_power_rule_hits_exact_powers():
    rule = YRule(kind="power", value=0.5)
    assert rule.y_for(100) == 10
    assert YRule(kind="power", value=1 / 3).y_for(10**6) == 100


def test_csv_schema(tables_small):
    rows = conjecture_table([100, 300], YRule(kind="fixed", value=10), tables_small)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "z,y,pi,pi_smooth,psi,lhs_ratio,rhs_ratio"
    assert lines[1].startswith("100,10,25,17,")
    # ratios carry 12 significant digits
    lhs = lines[2].split(",")[5]
    assert len(lhs.replace("0.", "").rstrip("0")) <= 12


def test_json_schema_matches_csv_fields(tables_small):
    rows = conjecture_table([100], YRule(kind="fixed", value=10), tables_small)
    payload = rows_to_json(rows)
    assert list(payload[0].keys()) == CSV_HEADER.split(",")
    json.dumps(payload)  # serializable


def test_hildebrand_exponents_approach_the_constant(tables_1e7):
    rows = hildebrand_report([10**4, 10**5, 10**6, 10**7], tables_1e7)
    exps = [r.exponent for r in rows]
    assert all(e > 0 for e in exps)
    gaps = [abs(e - 0.5) for e in exps]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    ratios = [r.ratio for r in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_hildebrand_y_values(tables_small):
    (row,) = hildebrand_report([10**4], build_tables(10**4))
    assert row.y == round(math.exp(math.sqrt(math.log(10**4))))
