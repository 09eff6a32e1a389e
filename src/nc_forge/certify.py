"""Finite lower-bound certificates for the Novak-Carmichael counting function.

A Schedule resolves the parameters (r, s) once, by formula (t1, t2) or as
given (manual).  A certificate takes the shifted-smooth prime set P(s, r)
with cardinality pi, the base D(s, r), and a subset size A, and records
that D * max(P(s, r))^A stays at or below the threshold x (exact
big-integer comparison, boundary E = x included).  Every size-A subset
then yields a distinct member <= x, so binomial(pi, A) is a proven lower
bound for the count up to x.  D and P(s, r) come from
construction.build_family, whose one-entry memo lets a round trip
(certify_lower_bound, verify_certificate and enumerate_certificate at the
same s, r and budget) build them once.  binomial computes the count from
the prime powers that Legendre's formula gives; CPython 3.11's math.comb
takes about six times as long at binomial(21 400, 7 428), the count at
e^100000.  Enumeration streams at most ENUMERATION_CAP
members, one per itertools.combinations subset, keeping only their number
and the largest; distinct subsets of the strictly increasing P(s, r) have
distinct products, and the divisor criterion is checked once per distinct
prime.

A is the exact maximum of a with D * s^a <= x, capped at pi.  Floating
point only proposes the starting point; integer comparisons settle it.
Every member of P(s, r) is at most s, so the recorded bound holds by this
choice.  Degenerate schedules (r < 2, r > s, or D > x) produce an
explanatory zero-certificate rather than an error.

For x = e^k the threshold holds integers lo <= floor(e^k) <= hi from one
BRACKET_BITS-bit interval exp in integer arithmetic (_exp_bracket:
binary-splitting Taylor series and repeated squaring).  Threshold.covers
settles n <= x from lo and hi unless n falls inside [lo, hi]; only then, or
when .value is read, is floor(e^k) computed to all of its digits, by the
same interval exp at a precision that makes lo = hi.  The comparisons
D * b^a <= x that settle A and max_member_check go through _fits, which
brackets b^a by truncated binary powering (_power_bracket, after Brent and
Zimmermann, Modern Computer Arithmetic, 2010, section 3.3) and compares the
bracket's ends with x's; only a power whose bracket meets x's is built in
full and handed to Threshold.covers.  Every decision is an exact integer
comparison either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass

from .construction import build_family, int_from_decimal, int_to_decimal
from .errors import DomainError, ResourceError
from .sieve import sieve_primes

MAX_NOTATION_EXPONENT = 10**6
BRACKET_BITS = 128  # precision of e^k's bracket; _power_bracket keeps 32 bits more
ENUMERATION_CAP = 100_000  # members enumerate_certificate walks at most

_FIELD_PARSERS = {  # each certificate field and how from_dict reads it
    "x": str,
    "r": int,
    "s": int,
    "pi": int,
    "exponents": lambda pairs: tuple((int(p), int(e)) for p, e in pairs),
    "A": int,
    "count": int_from_decimal,
    "log10_count": float,
    "max_member_check": bool,
    "lemma2_applicable": bool,
}
CERT_FIELDS = tuple(_FIELD_PARSERS)

_POW10_RE = re.compile(r"^10\^(\d+)$")
_POWE_RE = re.compile(r"^e\^(\d+(?:\.\d+)?)$")


@dataclass(frozen=True)
class Threshold:
    """The bound x: integers lo <= x <= hi plus its original notation.

    For digits, ints and 10^k, lo and hi are both x.  For e^k, x is
    floor(e^k), and lo, hi are the floors of a proven enclosure of e^k, at
    most a relative 2^-100 apart for k <= 10^6.  text is echoed verbatim
    into certificates; log is the natural log as a float, used only to
    propose parameters.
    """

    text: str
    lo: int
    hi: int
    log: float

    def covers(self, n: int) -> bool:
        """n <= x, exactly; computes value only when lo < n <= hi."""
        if n <= self.lo:
            return True
        return n <= self.hi and n <= self.value

    @functools.cached_property
    def value(self) -> int:
        """x itself; for e^k with lo < hi, _exp_bracket at doubling precision until lo = hi.

        Starting at k / ln 2 + 64 bits, which covers the integer part of
        e^k, one pass settles it unless e^k lies within about 2^-64 of an
        integer.  The binary-splitting series keeps the pass affordable:
        about 0.2 s at e^100000 on a 2-vCPU Xeon (Python 3.11).
        """
        lo, hi, k_text = self.lo, self.hi, self.text[2:]
        bits = int(self.log / math.log(2.0)) + 64
        while lo < hi:
            lo, hi = _exp_bracket(k_text, bits)
            bits *= 2
        return lo


def parse_threshold(notation: str | int) -> Threshold:
    """Parse x given as a decimal string, an int, 10^k, or e^k.

    e^k is bracketed by one BRACKET_BITS-bit interval exp (_exp_bracket); the
    threshold compares exactly either way, and computes floor(e^k) only
    when a comparison falls inside the bracket.
    """
    if isinstance(notation, int):
        if notation < 1:
            raise DomainError(f"x must be positive, got {notation}")
        return Threshold(int_to_decimal(notation), notation, notation, math.log(notation))
    text = notation.strip().replace("_", "")
    m = _POW10_RE.match(text)
    if m:
        k = int(m.group(1))
        if k > MAX_NOTATION_EXPONENT:
            raise ResourceError(f"10^{k} is beyond the supported notation range")
        return Threshold(text, 10**k, 10**k, k * math.log(10.0))
    m = _POWE_RE.match(text)
    if m:
        k = float(m.group(1))
        if k > MAX_NOTATION_EXPONENT:
            raise ResourceError(f"e^{m.group(1)} is beyond the supported notation range")
        return Threshold(text, *_exp_bracket(m.group(1)), k)
    if text.isdecimal():
        value = int_from_decimal(text)
        if value < 1:
            raise DomainError("x must be positive")
        return Threshold(text, value, value, math.log(value))
    raise DomainError(f"cannot parse threshold {notation!r}; use digits, 10^k, or e^k")


def _exp_bracket(k_text: str, bits: int = BRACKET_BITS) -> tuple[int, int]:
    """(lo, hi) with lo <= floor(e^k) <= hi, from an integer interval exp at the given bits.

    k = num/den is read exactly from its decimal text and reduced to
    t = k/2^j < 1.  The Taylor series of e^t to n terms is the exact rational
    T/Q (_split), so 2^w e^t lies in [L, L + err] with L = floor(2^w T/Q)
    and err bounding the rounding and the tail.  Squaring j times, each time
    truncating L down and bounding err up, carries the enclosure to e^k.
    The w = bits + j + 8 working bits absorb the doubling of the relative
    error per squaring, so hi - lo is below e^k / 2^(bits + 4), plus one.
    """
    whole, _, frac = k_text.partition(".")
    num, den = int(whole + frac), 10 ** len(frac)
    if num == 0:
        return 1, 1
    j = (num // den).bit_length()  # the least j with k < 2^j
    q = den << j  # t = num / q
    w = bits + j + 8
    n, size, step = 1, 0.0, math.log2(q) - math.log2(num)
    while size < w + 8:  # floats propose n with t^n / n! < 2^-(w + 8); tail below bounds it exactly
        size += step + math.log2(n)
        n += 1
    big_q, t, big_p = _split(num, q, 0, n)
    sh = max(0, big_q.bit_length() - w - 32)  # divide at about w bits; costs under one unit of L
    lo = ((t >> sh) << w) // -(-big_q >> sh)
    # The tail past n terms is at most 2 t^n / n! = 2 P num / (Q q n) < 2^(tail - w).
    tail = w + 2 + (big_p * num).bit_length() - (big_q * q * n).bit_length()
    err = 2 + (1 << max(tail, 0))
    s = -w  # e^k lies in [lo, lo + err] * 2^s
    for _ in range(j):
        c = 2 * lo.bit_length() - w  # keeps lo at w - 1 or w bits
        err = (err * (2 * lo + err) >> c) + 2
        lo = lo * lo >> c
        s = 2 * s + c
    hi = lo + err
    return (lo >> -s, hi >> -s) if s < 0 else (lo << s, hi << s)


def _split(p: int, q: int, a: int, b: int) -> tuple[int, int, int]:
    """(Q, T, P) with T/Q the sum over a <= i < b of the products over a <= m <= i of p/(q m).

    The factor at m = 0 is 1, so T/Q of _split(p, q, 0, n) is the sum of
    (p/q)^i / i! for i < n, and P is the product of the numerators.  Binary
    splitting (Haible and Papanikolaou, 1998) multiplies numbers of similar
    size, which keeps the full-precision exp of Threshold.value affordable.
    """
    if b - a == 1:
        return (1, 1, 1) if a == 0 else (q * a, p, p)
    m = (a + b) // 2
    q1, t1, p1 = _split(p, q, a, m)
    q2, t2, p2 = _split(p, q, m, b)
    return q1 * q2, t1 * q2 + p1 * t2, p1 * p2


def _power_bracket(b: int, a: int) -> tuple[int, int, int]:
    """(lo, hi, sh) with lo * 2^sh <= b^a <= hi * 2^sh, for b >= 1 and a >= 0.

    Left-to-right binary powering on both ends at once: after each square
    or multiply, lo is truncated down and hi rounded up to BRACKET_BITS + 32
    bits.  Each rounding widens the bracket by a relative 2^-(BRACKET_BITS + 30)
    at most, and a squaring doubles what came before, so hi / lo - 1 stays
    below 8a / 2^(BRACKET_BITS + 32) (about a / 2^(BRACKET_BITS + 34)
    measured): far inside e^k's bracket for any A a certificate reaches.
    """
    keep = BRACKET_BITS + 32
    lo = hi = 1
    sh = 0
    for bit in bin(a)[2:]:
        lo, hi, sh = lo * lo, hi * hi, 2 * sh
        if bit == "1":
            lo, hi = lo * b, hi * b
        c = hi.bit_length() - keep
        if c > 0:
            lo, hi, sh = lo >> c, -(-hi >> c), sh + c
    return lo, hi, sh


def _fits(x: Threshold, d: int, b: int, a: int) -> bool:
    """d * b^a <= x, exactly, for d, b >= 1 and a >= 0; builds b^a only when its bracket meets x's.

    With b^a in [lo, hi] * 2^sh, d * hi * 2^sh <= x.lo proves the bound and
    d * lo * 2^sh > x.hi refutes it.  Since d * hi and d * lo are integers,
    these read d * hi <= x.lo >> sh and d * lo > x.hi >> sh, which shift x
    down instead of the power up.  Otherwise Threshold.covers decides the
    power built in full.
    """
    lo, hi, sh = _power_bracket(b, a)
    if d * hi <= x.lo >> sh:
        return True
    if d * lo > x.hi >> sh:
        return False
    return x.covers(d * b**a)


@dataclass(frozen=True)
class Schedule:
    """The parameters (r, s) chosen below a threshold x.

    t1: r = floor(log x / (loglog x)^2), s = floor(r^(1/u)) for a fixed
        u in (0, 1); certifies toward the x^(1-u) regime.
    t2: r = floor(log x / (loglog x)^3), s = floor(e^((loglog x -
        3 logloglog x)^2)); the sub-exponential regime.
    manual: r and s given directly, at any x.

    The formulas need loglog x, so t1 and t2 require x >= 16.  Any (r, s)
    is held; certify_lower_bound reports r < 2 or r > s as infeasible.
    """

    x: Threshold
    r: int
    s: int

    @classmethod
    def t1(cls, x: Threshold | str | int, u: float) -> "Schedule":
        if not 0.0 < u < 1.0:
            raise DomainError(f"u must lie in (0, 1), got {u}")
        x = _as_threshold(x)
        ll = _loglog(x)
        r = math.floor(x.log / ll**2)
        try:
            s = math.floor(float(r) ** (1.0 / u)) if r >= 1 else 0
        except OverflowError as exc:  # r^(1/u) beyond a float, or 1/u itself infinite
            raise ResourceError(f"schedule s overflows at r={r}, u={u}") from exc
        return cls(x, r, s)

    @classmethod
    def t2(cls, x: Threshold | str | int) -> "Schedule":
        x = _as_threshold(x)
        ll = _loglog(x)
        expo = (ll - 3.0 * math.log(ll)) ** 2
        if expo > 700.0:
            raise ResourceError(f"schedule s overflows (exponent {expo:.1f})")
        return cls(x, math.floor(x.log / ll**3), math.floor(math.exp(expo)))

    @classmethod
    def manual(cls, x: Threshold | str | int, r: int, s: int) -> "Schedule":
        return cls(_as_threshold(x), int(r), int(s))


def _as_threshold(x: Threshold | str | int) -> Threshold:
    return x if isinstance(x, Threshold) else parse_threshold(x)


def _loglog(x: Threshold) -> float:
    if not x.covers(16):
        raise DomainError(f"formula schedules need x >= 16, got x={x.value}")
    return math.log(x.log)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Self-contained record proving count(x) >= binomial(pi, A).

    max_member_check True means D * max(P(s, r))^A <= x, settled exactly by
    _fits; D times any A members of P(s, r) is at most that, so all
    binomial(pi, A) size-A members fit under x.  lemma2_applicable records
    whether A <= pi/2 + 1, in which case count >= (pi/A)^A as well.  The
    defaults are those of a zero-certificate, which names its
    infeasible_reason.
    """

    x: str
    r: int
    s: int
    pi: int = 0
    exponents: tuple[tuple[int, int], ...] = ()
    A: int = 0
    count: int = 0
    log10_count: float = 0.0
    max_member_check: bool = False
    lemma2_applicable: bool = False
    infeasible_reason: str | None = None

    def to_dict(self) -> dict:
        data = {key: getattr(self, key) for key in CERT_FIELDS}
        data["exponents"] = [[p, e] for p, e in self.exponents]
        data["count"] = int_to_decimal(self.count)
        if self.infeasible_reason is not None:
            data["infeasible_reason"] = self.infeasible_reason
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "LowerBoundCertificate":
        """Read a certificate dict; DomainError names the first missing or unparseable field."""
        if not isinstance(data, dict):
            raise DomainError(f"malformed certificate: not a JSON object but {type(data).__name__}")
        fields = {}
        for key, parse in _FIELD_PARSERS.items():
            if key not in data:
                raise DomainError(f"malformed certificate: missing field {key!r}")
            try:
                fields[key] = parse(data[key])
            except (TypeError, ValueError, OverflowError) as exc:  # JSON's 1e400 is inf
                raise DomainError(f"malformed certificate: unparseable field {key!r}: {exc}") from exc
        return cls(**fields, infeasible_reason=data.get("infeasible_reason"))


def certify_lower_bound(
    sched: Schedule,
    *,
    memory_budget: int | None = None,
) -> LowerBoundCertificate:
    """Produce a lower-bound certificate for the schedule's threshold.

    Infeasible schedules yield an explanatory zero-certificate; tables up
    to s beyond the 2^40 ceiling or over memory_budget raise ResourceError.
    """
    x, r, s = sched.x, sched.r, sched.s
    if not 2 <= r <= s:
        reason = f"infeasible schedule: need 2 <= r <= s, got r={r}, s={s}"
        return LowerBoundCertificate(x.text, r, s, infeasible_reason=reason)
    base, pset = build_family(s, r, memory_budget=memory_budget)
    d, pi = base.value, pset.count
    if not _fits(x, d, s, 0):
        reason = "base value exceeds x; no member fits"
        return LowerBoundCertificate(x.text, r, s, pi, base.exponents, infeasible_reason=reason)

    # A = max{a <= pi : D * s^a <= x}.  Floats propose a, capped at pi first so
    # that no step passes pi; _fits settles each step from power brackets.
    a = min(pi, max(0, math.floor((x.log - base.log_value) / math.log(s))))
    while a > 0 and not _fits(x, d, s, a):
        a -= 1
    while a < pi and _fits(x, d, s, a + 1):
        a += 1

    count = binomial(pi, a)
    return LowerBoundCertificate(
        x=x.text,
        r=r,
        s=s,
        pi=pi,
        exponents=base.exponents,
        A=a,
        count=count,
        log10_count=math.log10(count) if count else 0.0,
        # Each member is <= s, so this holds by the choice of A; it is recorded, not repaired.
        max_member_check=_fits(x, d, pset.members[-1], a),  # members increase, so the last is max(P)
        lemma2_applicable=a >= 1 and 2 * a <= pi + 2,
    )


def binomial(n: int, k: int) -> int:
    """binomial(n, k) exactly, and 0 for k outside [0, n], from its prime factorisation.

    Each prime p <= n divides binomial(n, k) to the power sum over i >= 1 of
    floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i) (Legendre's formula; see
    Goetgheluck, Amer. Math. Monthly 94, 1987).  The prime powers, each at
    most n, are multiplied pairwise in a balanced product tree, so the big
    multiplications have factors of similar size.  The primes come from
    sieve_primes(n), and n = |P(s, r)| < s, so they take less memory than
    the tables build_family charged for P(s, r).
    """
    if not 0 <= k <= n:
        return 0
    factors = []
    for p in sieve_primes(max(n, 2)).primes.tolist():
        e, q = 0, p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        if e:
            factors.append(p**e)
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = list(map(operator.mul, factors[::2], factors[1::2])) + odd
    return factors[0] if factors else 1


def verify_certificate(
    data: dict | LowerBoundCertificate,
    *,
    memory_budget: int | None = None,
) -> tuple[bool, list[str]]:
    """Recompute a certificate from its (x, r, s) and compare every field.

    Returns (ok, mismatches).  Any divergence -- altered counts, exponent
    vectors, flags, or extra/missing keys -- is reported.  Data that is
    neither a certificate nor a dict raises DomainError.
    """
    given = data.to_dict() if isinstance(data, LowerBoundCertificate) else data
    if not isinstance(given, dict):
        raise DomainError(f"malformed certificate: not a JSON object but {type(given).__name__}")
    mismatches = []
    for key in CERT_FIELDS:
        if key not in given:
            mismatches.append(f"missing field {key!r}")
    if mismatches:
        return False, mismatches
    parsed = {}
    for key, parse in (("x", lambda v: parse_threshold(str(v))), ("r", int), ("s", int)):
        try:
            parsed[key] = parse(given[key])
        except (TypeError, ValueError, OverflowError) as exc:  # JSON's 1e400 is inf
            return False, [f"unparseable field {key!r}: {exc}"]
    recomputed = certify_lower_bound(
        Schedule.manual(parsed["x"], parsed["r"], parsed["s"]), memory_budget=memory_budget
    ).to_dict()
    for key in sorted(set(given) | set(recomputed)):
        if key not in recomputed:
            mismatches.append(f"unexpected field {key!r}")
        elif key not in given:
            mismatches.append(f"missing field {key!r}")
        elif given[key] != recomputed[key]:
            mismatches.append(f"{key}: certificate has {given[key]!r}, recomputed {recomputed[key]!r}")
    return not mismatches, mismatches


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of walking every size-A member of a certificate.

    members is the number of members walked; count_matches compares it with
    the certified count.  distinct means P(s, r) is strictly increasing (or
    at most one member was walked): distinct subsets of distinct primes have
    distinct products, so no member repeats.  all_at_most_x compares the
    largest member with x.  all_criterion_valid means q - 1 divides D for
    every distinct prime q of the members walked (the base primes, and all of
    P(s, r) when A >= 1).  Each member is E = D * prod(subset), so D divides
    E and E passes the divisor criterion: q - 1 divides E for every prime q
    of E.
    """

    members: int
    count_matches: bool
    distinct: bool
    all_at_most_x: bool
    all_criterion_valid: bool

    @property
    def ok(self) -> bool:
        return self.count_matches and self.distinct and self.all_at_most_x and self.all_criterion_valid


def enumerate_certificate(
    cert: LowerBoundCertificate | dict,
    *,
    memory_budget: int | None = None,
) -> EnumerationReport:
    """Walk all binomial(pi, A) members and check the certified properties.

    The walk streams D * prod(subset) over itertools.combinations(P(s, r), A)
    and keeps only the number of members and the largest subset product, so
    it holds O(A) integers.  It must visit cert.count members, each distinct,
    at most x and passing the divisor criterion (see EnumerationReport).
    Raises ResourceError when the member count exceeds ENUMERATION_CAP.
    """
    if not isinstance(cert, LowerBoundCertificate):
        cert = LowerBoundCertificate.from_dict(cert)
    if cert.count == 0:
        return EnumerationReport(0, True, True, True, True)
    if cert.count > ENUMERATION_CAP:
        raise ResourceError(
            f"binomial({cert.pi}, {cert.A}) members exceed the enumeration cap {ENUMERATION_CAP}"
        )
    x = parse_threshold(cert.x)
    base, pset = build_family(cert.s, cert.r, memory_budget=memory_budget)

    d, members = base.value, pset.members
    products = map(math.prod, itertools.combinations(members, cert.A)) if cert.A >= 0 else ()
    tally = itertools.count()  # zip draws one number per product, so next(tally) counts them
    largest, _ = max(zip(products, tally), default=(None, None))
    walked = next(tally)
    # A walk with 1 <= A <= pi puts every member of P(s, r) in some subset.
    primes = (tuple(p for p, _ in base.exponents) + (members if cert.A else ())) if walked else ()
    return EnumerationReport(
        members=walked,
        count_matches=walked == cert.count,
        distinct=walked <= 1 or all(map(operator.lt, members, members[1:])),
        all_at_most_x=largest is None or x.covers(d * largest),
        all_criterion_valid=all(d % (q - 1) == 0 for q in primes),
    )
