import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from nc_forge import certify
from nc_forge.certify import (
    ENUMERATION_CAP,
    LowerBoundCertificate,
    Schedule,
    binomial,
    certify_lower_bound,
    enumerate_certificate,
    parse_threshold,
    verify_certificate,
)
from nc_forge.construction import build_family, family_products
from nc_forge.errors import DomainError, ResourceError
from nc_forge.novak import count_nc, list_nc
from nc_forge.sieve import sieve_primes
from nc_forge.smoothness import ShiftedSmoothSet

from oracles import check_binomial_floor, pascal_binomial, shifted_smooth_primes, trial_gpf

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_binomial_examples():
    assert binomial(17, 11) == 12376 == pascal_binomial(17, 11)
    assert binomial(5, 9) == binomial(5, -1) == 0
    # (21 400, 7 428) is the count at e^100000 (t1, u = 0.5); the others are the edges.
    for n, k in [(21_400, 7_428), (100_000, 20_000), (0, 0), (1, 0), (1, 1), (5_000, 0), (5_000, 5_000)]:
        assert binomial(n, k) == math.comb(n, k), (n, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(-1, n + 1))))
@example((0, -1))
@example((0, 1))
@example((300, 150))
def test_binomial_matches_pascal(nk):
    n, k = nk
    assert binomial(n, k) == pascal_binomial(n, k)


def test_threshold_decimal_and_int():
    assert parse_threshold("12345").value == 12345
    assert parse_threshold(12345).value == 12345
    assert parse_threshold("1_000").value == 1000
    with pytest.raises(DomainError):
        parse_threshold("0")
    with pytest.raises(DomainError):
        parse_threshold("12.5")


def test_threshold_power_of_ten():
    t = parse_threshold("10^30")
    assert t.value == 10**30
    assert abs(t.log - 30 * math.log(10)) < 1e-9


def test_threshold_e_power_matches_high_precision_floor():
    with mpmath.workdps(80):
        want = int(mpmath.floor(mpmath.exp(100)))
    t = parse_threshold("e^100")
    assert t.value == want
    assert t.log == 100.0


@pytest.mark.parametrize("k", ["0", "1", "2.75", "0.1", "100", "1000", "1000.1", "2800.5", "28000"])
def test_e_power_bracket_covers_exactly(k):
    with mpmath.workdps(int(float(k) / math.log(10)) + 60):  # the guard-digit oracle above
        exact = int(mpmath.floor(mpmath.exp(mpmath.mpf(k))))
    t = parse_threshold(f"e^{k}")
    assert t.lo <= exact <= t.hi
    assert (t.hi - t.lo) << 100 <= t.lo  # narrow, so almost no comparison falls back
    for n in {exact + d for d in range(-3, 4)} | {t.lo - 1, t.lo, t.hi, t.hi + 1}:
        assert t.covers(n) == (n <= exact), n


def test_e_power_round_trip_never_needs_the_exact_value(monkeypatch):
    bracket = certify._exp_bracket

    def refuse(k_text, bits=128):
        if bits > 128:
            raise AssertionError(f"floor(e^{k_text}) computed")
        return bracket(k_text, bits)

    monkeypatch.setattr(certify, "_exp_bracket", refuse)
    cert = certify_lower_bound(Schedule.t1("e^1000", 0.5))
    assert cert.count > 0
    assert verify_certificate(cert.to_dict())[0]
    assert enumerate_certificate(cert.to_dict()).ok
    big = certify_lower_bound(Schedule.t1("e^100000", 0.5))
    assert verify_certificate(json.loads(json.dumps(big.to_dict())))[0]
    with pytest.raises(AssertionError, match="computed"):  # the patch is live
        parse_threshold("e^1000").value


def floor_e_power(k_text):
    """floor(e^k) from mpmath with guard digits, the oracle of the bracket tests."""
    with mpmath.workdps(int(float(k_text) / math.log(10)) + 60):
        return int(mpmath.floor(mpmath.exp(mpmath.mpf(k_text))))


# k = m / 10^d with 0 <= k <= 30 000 and d <= 3, written as parse_threshold reads it.
_E_EXPONENTS = st.integers(min_value=0, max_value=3).flatmap(
    lambda d: st.integers(min_value=0, max_value=30_000 * 10**d).map(
        lambda m: f"{m // 10**d}.{m % 10**d:0{d}d}" if d else str(m)
    )
)


@settings(max_examples=40, deadline=None)
@given(k=_E_EXPONENTS)
@example(k="0")
@example(k="0.001")
@example(k="30000")
def test_e_power_bracket_is_narrow_and_covers_the_floor(k):
    lo, hi = certify._exp_bracket(k)
    assert lo <= floor_e_power(k) <= hi
    assert (hi - lo) << 100 <= lo


@pytest.mark.parametrize("k", ["2.75", "1000.1", "28000"])
def test_e_power_value_is_the_exact_floor(k):
    assert parse_threshold(f"e^{k}").value == floor_e_power(k)


def test_certificates_never_import_mpmath():
    script = """
import sys
sys.modules["mpmath"] = None  # an import of mpmath now raises ImportError
from nc_forge.certify import Schedule, certify_lower_bound, enumerate_certificate, verify_certificate
cert = certify_lower_bound(Schedule.t1("e^1000", 0.5))
assert cert.count > 0 and verify_certificate(cert.to_dict())[0] and enumerate_certificate(cert).ok
assert certify_lower_bound(Schedule.t1("e^100000", 0.5)).max_member_check
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr


def test_threshold_rejects_garbage():
    for bad in ("", "2^30", "ten", "-5"):
        with pytest.raises(DomainError):
            parse_threshold(bad)


def test_schedule_params_t1_at_huge_x():
    sched = Schedule.t1(parse_threshold("e^10000"), 0.5)
    assert (sched.r, sched.s) == (117, 13689)
    assert math.floor(10**4 / math.log(10**4) ** 2) == 117


def test_schedule_params_t1_at_desk_scale():
    sched = Schedule.t1(10**6, 0.5)
    assert (sched.r, sched.s) == (2, 4)


def test_schedule_params_manual_passthrough():
    sched = Schedule.manual(10**6, 10, 100)
    assert (sched.r, sched.s) == (10, 100)
    sched = Schedule.manual(10**6, 5, 3)  # held as given; certify_lower_bound reports r > s
    assert (sched.r, sched.s) == (5, 3)
    assert "need 2 <= r <= s" in certify_lower_bound(sched).infeasible_reason


def test_schedule_params_requires_x_16_for_formulas():
    with pytest.raises(DomainError):
        Schedule.t1(15, 0.5)
    with pytest.raises(DomainError):
        Schedule.t2(15)
    # manual schedules work below 16
    sched = Schedule.manual(10, 2, 2)
    assert (sched.r, sched.s) == (2, 2)


def test_schedule_params_t1_overflow_is_a_resource_error():
    for u in (0.001, 5e-324):  # 3.0 ** 1000 overflows; 1 / 5e-324 is inf, so s would be
        with pytest.raises(ResourceError, match="schedule s overflows"):
            Schedule.t1("10^30", u)


def test_schedule_rejects_bad_u():
    with pytest.raises(DomainError):
        Schedule.t1(10**6, 0.0)
    with pytest.raises(DomainError):
        Schedule.t1(10**6, 1.0)


def test_certificate_flagship_example():
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    assert cert.pi == 17
    assert dict(cert.exponents) == {2: 6, 3: 4, 5: 2, 7: 2}
    assert cert.A == 11
    assert cert.count == 12376
    assert cert.max_member_check
    assert not cert.lemma2_applicable  # 11 > 17/2 + 1
    assert abs(cert.log10_count - math.log10(12376)) < 1e-12


def test_certificate_boundary_example():
    cert = certify_lower_bound(Schedule.manual(2520, 3, 10))
    assert (cert.pi, cert.A, cert.count) == (4, 1, 4)
    assert cert.max_member_check
    assert cert.lemma2_applicable


@pytest.mark.parametrize(
    "x, r, s, pi, a, applicable",
    [(720 * 20**5, 5, 20, 8, 5, True), (6_350_400 * 100**10, 10, 100, 17, 10, False)],
    ids=["2A=pi+2", "2A=pi+3"],
)
def test_lemma2_applies_up_to_2a_equal_to_pi_plus_2(x, r, s, pi, a, applicable):
    """lemma2_applicable is 2A <= pi + 2; x = D s^A puts A at 5 for pi = 8 and at 10 for pi = 17."""
    cert = certify_lower_bound(Schedule.manual(x, r, s))
    assert (cert.pi, cert.A, 2 * cert.A - cert.pi) == (pi, a, 2 if applicable else 3)
    assert cert.lemma2_applicable is applicable


def test_certificate_tiny_example():
    cert = certify_lower_bound(Schedule.manual(10, 2, 2))
    assert (cert.pi, cert.A, cert.count) == (1, 1, 1)
    assert cert.max_member_check


def test_a_selection_is_maximal_for_the_power_check():
    for args in (("10^30", 10, 100), (2520, 3, 10), (10, 2, 2)):
        cert = certify_lower_bound(Schedule.manual(*args))
        x = parse_threshold(args[0]).value
        d = math.prod(p**e for p, e in cert.exponents)
        assert d * cert.s**cert.A <= x or cert.A == cert.pi
        assert d * cert.s ** (cert.A + 1) > x or cert.A + 1 > cert.pi


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=10**40),
    r=st.integers(min_value=2, max_value=300),
    s=st.integers(min_value=2, max_value=300),
)
def test_a_is_the_capped_power_bound_and_the_largest_members_fit(x, r, s):
    r, s = min(r, s), max(r, s)
    cert = certify_lower_bound(Schedule.manual(x, r, s))
    if cert.count == 0:
        return
    assert cert.max_member_check
    d = math.prod(p**e for p, e in cert.exponents)
    a = 0
    while d * s ** (a + 1) <= x:
        a += 1
    pset = shifted_smooth_primes(s, r)
    assert cert.pi == len(pset)
    assert cert.A == min(cert.pi, a)
    assert d * math.prod(pset[len(pset) - cert.A :]) <= x  # D times the A largest members


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 10**8), a=st.integers(0, 2_000))
@example(b=10**8, a=2_000)
@example(b=2**32 - 1, a=1_999)
def test_power_bracket_encloses_the_power_narrowly(b, a):
    lo, hi, sh = certify._power_bracket(b, a)
    power = b**a
    assert lo << sh <= power <= hi << sh
    assert (hi - lo) << certify.BRACKET_BITS <= lo


def _counting_covers(monkeypatch) -> list[int]:
    """Patch Threshold.covers to record each n it is asked about; _fits calls it only to fall back."""
    calls, covers = [], certify.Threshold.covers
    monkeypatch.setattr(certify.Threshold, "covers", lambda self, n: calls.append(n) or covers(self, n))
    return calls


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 10**30),
    b=st.integers(1, 10**8),
    a=st.integers(0, 2_000),
    scale=st.integers(0, 400),  # x = v + offset * 2^-scale * v, so the bracket is tested at every distance
    offset=st.integers(-(2**8), 2**8),
    near=st.integers(-1, 1),
)
@example(d=1, b=10**8, a=2_000, scale=0, offset=0, near=0)
@example(d=1, b=10**8, a=2_000, scale=0, offset=0, near=-1)
@example(d=7, b=3, a=1_000, scale=0, offset=0, near=1)
@example(d=1, b=3, a=101, scale=0, offset=0, near=0)  # 161 bits: one truncation, so lo = floor(3^101 / 2)
def test_fits_is_the_exact_power_comparison(d, b, a, scale, offset, near):
    v = d * b**a
    x = max(1, v + (offset * v >> scale) + near)
    assert certify._fits(parse_threshold(x), d, b, a) == (v <= x)


@settings(max_examples=30, deadline=None)
@given(k=_E_EXPONENTS, d=st.integers(1, 10**12), b=st.integers(2, 10**8), step=st.integers(-1, 1))
@example(k="28000", d=1, b=2, step=0)
@example(k="0.001", d=1, b=2, step=0)
def test_fits_against_e_powers_matches_the_mpmath_floor(k, d, b, step):
    x = parse_threshold(f"e^{k}")
    exact = floor_e_power(k)
    a = max(0, math.floor((float(k) - math.log(d)) / math.log(b)) + step)  # on either side of the edge
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_covers(patch)
        assert certify._fits(x, d, b, a) == (d * b**a <= exact)
        assert certify._fits(x, d, b, a + 1) == (d * b ** (a + 1) <= exact)
    assert calls == []  # e^k is within 2^-128 of no such d * b^a here, so the brackets decide


def test_fits_falls_back_when_the_brackets_straddle_x(monkeypatch):
    power = 3**1_000  # 1 585 bits, so the 160-bit bracket is truncated and cannot decide at x = power
    lo, hi, sh = certify._power_bracket(3, 1_000)
    assert lo << sh < power < hi << sh
    calls = _counting_covers(monkeypatch)
    assert certify._fits(parse_threshold(5 * power), 5, 3, 1_000)
    assert not certify._fits(parse_threshold(5 * power - 1), 5, 3, 1_000)
    assert calls == [5 * power, 5 * power]
    # One unit of the bracket away, the bracket alone decides.
    assert certify._fits(parse_threshold(5 * hi << sh), 5, 3, 1_000)
    assert not certify._fits(parse_threshold((5 * lo << sh) - 1), 5, 3, 1_000)
    assert len(calls) == 2


def test_e_power_round_trip_settles_a_from_brackets(monkeypatch):
    sched = Schedule.t1("e^100000", 0.5)  # its x >= 16 check is a covers call; make it first
    calls, fits, powers = _counting_covers(monkeypatch), certify._fits, []
    monkeypatch.setattr(certify, "_fits", lambda x, d, b, a: powers.append((b, a)) or fits(x, d, b, a))
    cert = certify_lower_bound(sched)
    assert (cert.A, cert.max_member_check) == (7428, True)
    members = build_family(sched.s, sched.r, memory_budget=None)[1].members
    assert powers[-1] == (max(members), cert.A)  # the member check compares the largest member's power
    assert verify_certificate(json.loads(json.dumps(cert.to_dict())))[0]
    assert calls == []  # the base, every step of the A search and the member check: no power built


def test_the_largest_members_fit_at_t1_e100000():
    # trial_primes to s = 568 516 takes seconds; sieve_primes is tested against it in test_sieve.
    cert = certify_lower_bound(Schedule.t1("e^100000", 0.5))
    assert (cert.r, cert.s, cert.A) == (754, 568516, 7428) and cert.max_member_check
    primes = reversed(sieve_primes(cert.s).primes.tolist())
    largest = list(itertools.islice((p for p in primes if trial_gpf(p - 1) <= cert.r), cert.A))
    d = math.prod(p**e for p, e in cert.exponents)
    assert d * math.prod(largest) <= parse_threshold("e^100000").lo  # lo <= floor(e^100000)


def test_closed_form_floor_holds_when_applicable():
    cert = certify_lower_bound(Schedule.manual(2520, 3, 10))
    assert cert.lemma2_applicable
    # count >= (pi/A)^A in exact rational form
    assert cert.count * cert.A**cert.A >= cert.pi**cert.A


def test_infeasible_schedule_yields_zero_certificate():
    cert = certify_lower_bound(Schedule.manual(10**6, 5, 3))
    assert cert.count == 0
    assert not cert.max_member_check
    assert cert.infeasible_reason is not None
    cert2 = certify_lower_bound(Schedule.t2("10^30"))
    assert cert2.count == 0 and cert2.infeasible_reason is not None


def test_base_above_x_yields_zero_certificate():
    cert = certify_lower_bound(Schedule.manual(1000, 10, 100))
    assert cert.count == 0
    assert cert.pi == 17  # facts about (s, r) are still reported
    assert "exceeds" in cert.infeasible_reason


def test_formula_certificates_verify():
    for cert in (
        certify_lower_bound(Schedule.t1(parse_threshold("e^10000"), 0.5)),
        certify_lower_bound(Schedule.t2("e^1000")),
    ):
        ok, mismatches = verify_certificate(cert)
        assert ok, mismatches


def test_verify_roundtrip_through_json():
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    data = json.loads(json.dumps(cert.to_dict()))
    ok, mismatches = verify_certificate(data)
    assert ok, mismatches
    assert LowerBoundCertificate.from_dict(data) == cert


def test_roundtrip_of_count_over_the_int_str_limit():
    cert = certify_lower_bound(Schedule.t1(parse_threshold("e^100000"), 0.5))
    assert len(cert.to_dict()["count"]) == 5999
    data = json.loads(json.dumps(cert.to_dict()))
    assert LowerBoundCertificate.from_dict(data) == cert
    ok, mismatches = verify_certificate(data)
    assert ok, mismatches
    with pytest.raises(ResourceError):
        enumerate_certificate(data)


MUTATIONS = {
    "x": "10^24",
    "r": 11,
    "s": 90,
    "pi": 18,
    "exponents": [[2, 5], [3, 4], [5, 2], [7, 2]],
    "A": 12,
    "count": "12377",
    "log10_count": 4.5,
    "max_member_check": False,
    "lemma2_applicable": True,
}


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_verify_flags_any_mutated_field(field):
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    data = cert.to_dict()
    data[field] = MUTATIONS[field]
    ok, mismatches = verify_certificate(data)
    assert not ok
    assert mismatches


@pytest.mark.parametrize("field", ["r", "s"])
def test_infinite_r_or_s_is_a_named_mismatch(field):
    data = json.loads(json.dumps(certify_lower_bound(Schedule.manual("10^30", 10, 100)).to_dict()))
    data[field] = json.loads("1e400")
    ok, mismatches = verify_certificate(data)
    assert not ok
    assert mismatches[0].startswith(f"unparseable field {field!r}")
    named = f"malformed certificate: unparseable field {field!r}: cannot convert float infinity"
    with pytest.raises(DomainError, match=named):
        LowerBoundCertificate.from_dict(data)
    with pytest.raises(DomainError, match=named):
        enumerate_certificate(data)


@pytest.mark.parametrize("data", [None, [1, 2], 5, "abc", [["x", "10^30"]]])
def test_a_certificate_that_is_not_a_dict_is_a_domain_error(data):
    with pytest.raises(DomainError, match="not a JSON object"):
        LowerBoundCertificate.from_dict(data)
    with pytest.raises(DomainError, match="not a JSON object"):
        verify_certificate(data)
    with pytest.raises(DomainError, match="not a JSON object"):
        enumerate_certificate(data)


def test_verify_flags_missing_and_extra_fields():
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    data = cert.to_dict()
    del data["count"]
    assert not verify_certificate(data)[0]
    data = cert.to_dict()
    data["bonus"] = 1
    assert not verify_certificate(data)[0]


def _golden_schedule(key):
    """The schedule a perfbench/golden.json cert key names: manual:r:s:x, t1:x:u or t2:x."""
    kind, *args = key.split(":")
    if kind == "manual":
        r, s, x = args
        return Schedule.manual(x, int(r), int(s))
    if kind == "t1":
        x, u = args
        return Schedule.t1(x, float(u))
    return Schedule.t2(*args)


def test_every_golden_certificate_recomputes_equal():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cert"]
    assert len(golden) == 129
    for key, want in golden.items():
        assert certify_lower_bound(_golden_schedule(key)).to_dict() == want, key


def test_verify_zero_certificates_roundtrip():
    for cert in (
        certify_lower_bound(Schedule.manual(10**6, 5, 3)),
        certify_lower_bound(Schedule.manual(1000, 10, 100)),
    ):
        ok, mismatches = verify_certificate(cert.to_dict())
        assert ok, mismatches


def test_binomial_floor_sweep():
    assert check_binomial_floor(4)
    assert math.comb(6, 3) == 20 >= (6 / 3) ** 3
    assert math.comb(2, 1) == 2  # equality case
    assert check_binomial_floor(60)


def test_enumeration_of_boundary_certificate():
    cert = certify_lower_bound(Schedule.manual(2520, 3, 10))
    report = enumerate_certificate(cert)
    assert report.members == 4
    assert report.ok


def test_enumeration_respects_cap():
    cert = certify_lower_bound(Schedule.manual("10^50", 10, 300))
    assert cert.count > ENUMERATION_CAP == 100_000
    with pytest.raises(ResourceError, match="cap 100000"):
        enumerate_certificate(cert)


def test_enumeration_flags_a_member_that_fails_the_criterion(monkeypatch):
    cert = certify_lower_bound(Schedule.manual(6350400 * 100, 10, 100))
    assert cert.A == 1 and enumerate_certificate(cert).ok
    base, pset = build_family(100, 10)
    members = tuple(sorted(pset.members + (23,)))  # 22 = 23 - 1 does not divide D
    forged = ShiftedSmoothSet(x=100, y=10, members=members, count=len(members))
    monkeypatch.setattr(certify, "build_family", lambda s, r, memory_budget=None: (base, forged))
    assert not enumerate_certificate(cert).all_criterion_valid


@pytest.mark.parametrize("a, walked", [(-1, 0), (0, 1), (1, 17), (17, 1), (18, 0)])
def test_enumeration_of_a_forged_size_matches_the_walk(a, walked):
    # The counts are those of a walk over the size-a subsets of P(100, 10), pi = 17.
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100)).to_dict()
    assert cert["pi"] == 17 and cert["count"] == "12376"
    report = enumerate_certificate({**cert, "A": a})
    assert report.members == walked == (math.comb(17, a) if a >= 0 else 0)
    assert not report.count_matches
    assert report.distinct and report.all_at_most_x and report.all_criterion_valid


def test_enumeration_flags_a_member_above_x():
    cert = certify_lower_bound(Schedule.manual(6350400 * 100, 10, 100)).to_dict()
    base, pset = build_family(100, 10)
    assert cert["A"] == 1 and pset.members[-1] == 97
    cert["x"] = str(base.value * 97 - 1)  # only the largest member exceeds x
    report = enumerate_certificate(cert)
    assert not report.all_at_most_x
    assert report.count_matches and report.distinct and report.all_criterion_valid


def test_enumeration_flags_a_repeated_prime(monkeypatch):
    cert = certify_lower_bound(Schedule.manual(6350400 * 100, 10, 100))
    base, pset = build_family(100, 10)
    members = tuple(sorted(pset.members + (11,)))  # two members E = 11 D
    forged = ShiftedSmoothSet(x=100, y=10, members=members, count=len(members))
    monkeypatch.setattr(certify, "build_family", lambda s, r, memory_budget=None: (base, forged))
    report = enumerate_certificate(cert)
    assert report.members == cert.count + 1
    assert not report.distinct and not report.count_matches
    assert report.all_at_most_x and report.all_criterion_valid


def test_enumeration_memory_does_not_grow_with_the_member_count():
    # The near-pi corner (400, 400): pi = 78, A = 76, 3 003 members of about 1.4 KB each.
    base, pset = build_family(400, 400)
    cert = certify_lower_bound(Schedule.manual(base.value * 400 ** (pset.count - 2), 400, 400))
    assert (cert.pi, cert.A, cert.count) == (78, 76, 3003)
    tracemalloc.start()
    try:
        report = enumerate_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.members == 3003
    assert peak < 64 * 1024  # a walk that keeps every value peaks near 0.7 MB here


@pytest.fixture(scope="module")
def nc_up_to_1e6():
    return set(list_nc(10**6))


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=10**6),
    r=st.integers(min_value=2, max_value=7),
    s=st.integers(min_value=2, max_value=40),
)
def test_every_walked_member_is_novak_carmichael(nc_up_to_1e6, x, r, s):
    r, s = min(r, s), max(r, s)
    cert = certify_lower_bound(Schedule.manual(x, r, s))
    if cert.count == 0:
        return
    base, pset = build_family(s, r)
    values = {value for _, value in family_products(base.value, pset.members, cert.A)}
    assert len(values) == cert.count
    assert all(value <= x and value in nc_up_to_1e6 for value in values)


@pytest.mark.parametrize("x", [10**7, 10**8, 10**9])
def test_certified_counts_stay_below_the_exact_count(x):
    exact = count_nc(x)
    counts = [
        certify_lower_bound(Schedule.manual(x, r, s)).count
        for r in (3, 5, 7)
        for s in (10, 30, 100)
    ]
    assert 0 < max(counts) <= exact
    if x == 10**9:
        assert certify_lower_bound(Schedule.manual(x, 5, 30)).count == 56 <= exact == 192_826


def test_a_round_trip_builds_its_family_once(family_builds):
    cert = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    data = json.loads(json.dumps(cert.to_dict()))
    assert verify_certificate(data) == (True, [])
    assert enumerate_certificate(data).ok
    assert family_builds == [100]
    certify_lower_bound(Schedule.manual("10^30", 11, 100))  # another (s, r) builds again
    certify_lower_bound(Schedule.manual("10^30", 11, 100), memory_budget=10**7)  # and another budget
    assert family_builds == [100, 100, 100]


def test_enumeration_of_zero_certificate_is_trivially_ok():
    cert = certify_lower_bound(Schedule.manual(10**6, 5, 3))
    assert enumerate_certificate(cert).ok

