"""The multiplicative family construction.

The base D(s, r) is the product over primes p <= r of the largest power of p
not exceeding s.  Multiplying D by any subset of the shifted-smooth prime set
P(s, r) yields a Novak-Carmichael number: every prime q of the product has
q - 1 composed of prime powers that already divide D.  All exponent decisions
use exact integer comparisons; logarithms are informational only.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError
from .smoothness import ShiftedSmoothSet
from .sieve import PrimeTable


@dataclass(frozen=True)
class ConstructionBase:
    """D = prod p^e_p over primes p <= r, with p^e_p <= s < p^(e_p + 1)."""

    s: int
    r: int
    exponents: tuple[tuple[int, int], ...]
    value: int
    log_value: float  # natural log, informational


@dataclass(frozen=True)
class FamilyMember:
    """E = D times a product of distinct shifted-smooth primes."""

    base: ConstructionBase
    subset: tuple[int, ...]
    value: int


def build_base(s: int, r: int, primes: PrimeTable) -> ConstructionBase:
    """Build D(s, r).  Requires 2 <= r <= s and a prime table covering r.

    Exponents are found by repeated multiplication (p^e <= s < p^(e+1)),
    never by floating-point logarithms.
    """
    if r < 2 or r > s:
        raise DomainError(f"need 2 <= r <= s, got r={r}, s={s}")
    if primes.limit < r:
        raise DomainError(f"prime table limit {primes.limit} does not cover r={r}")
    exponents = []
    value = 1
    log_value = 0.0
    for p in primes.primes[: primes.pi(r)]:
        p = int(p)
        q, e = p, 1
        while q * p <= s:
            q *= p
            e += 1
        exponents.append((p, e))
        value *= q
        log_value += e * math.log(p)
    return ConstructionBase(s=s, r=r, exponents=tuple(exponents), value=value, log_value=log_value)


def build_member(
    base: ConstructionBase,
    subset: Iterable[int],
    pset: ShiftedSmoothSet,
) -> FamilyMember:
    """Multiply the base by a set of distinct primes drawn from pset."""
    if pset.x != base.s or pset.y != base.r:
        raise DomainError(
            f"set mismatch: base is (s={base.s}, r={base.r}) but the prime set "
            f"was computed for (x={pset.x}, y={pset.y})"
        )
    chosen = tuple(sorted({int(p) for p in subset}))
    allowed = set(pset.members)
    for p in chosen:
        if p not in allowed:
            raise DomainError(f"prime {p} is not in the shifted-smooth set")
    value = base.value
    for p in chosen:
        value *= p
    return FamilyMember(base=base, subset=chosen, value=value)


def shifted_part_divides_base(q: int, base: ConstructionBase) -> bool:
    """Check q - 1 | D by factoring q - 1 over the base primes.

    Each prime power of q - 1 must be at most the corresponding base
    exponent; any leftover cofactor means a prime above r and fails.
    """
    if q == 2:
        return True
    m = q - 1
    for p, e in base.exponents:
        if m % p == 0:
            b = 0
            while m % p == 0:
                m //= p
                b += 1
            if b > e:
                return False
        if m == 1:
            break
    return m == 1


def verify_family(
    base: ConstructionBase,
    pset: ShiftedSmoothSet,
    subsets: Iterable[Sequence[int]],
) -> bool:
    """True iff every sampled member satisfies the divisor criterion.

    The criterion is re-derived from the known factor structure (the primes
    of E are exactly the base primes plus the subset), so no factor table
    covering the huge member values is needed.  A direct big-integer
    divisibility check backs up the bookkeeping.
    """
    cache: dict[int, bool] = {}
    base_primes = [p for p, _ in base.exponents]
    for subset in subsets:
        member = build_member(base, subset, pset)
        for q in sorted(set(base_primes) | set(member.subset)):
            ok = cache.get(q)
            if ok is None:
                ok = shifted_part_divides_base(q, base)
                cache[q] = ok
            if not ok:
                return False
            if q > 2 and member.value % (q - 1) != 0:
                return False
    return True


def int_to_decimal(value: int) -> str:
    """str(value) at any length (str() stops at 4 300 digits)."""
    return str(decimal.Decimal(value))


def int_from_decimal(value) -> int:
    """int(value), but digit strings convert at any length (int() stops at 4 300 digits)."""
    if isinstance(value, str) and value.isdecimal():
        return int(decimal.Decimal(value))
    return int(value)


def member_to_dict(member: FamilyMember) -> dict:
    """JSON form with big integers as decimal strings."""
    return {
        "D": int_to_decimal(member.base.value),
        "subset": [int(p) for p in member.subset],
        "E": int_to_decimal(member.value),
    }


def member_from_dict(data: dict, base: ConstructionBase, pset: ShiftedSmoothSet) -> FamilyMember:
    """Rebuild a member from its JSON form, checking the recorded products."""
    member = build_member(base, data["subset"], pset)
    if int_to_decimal(member.base.value) != data["D"] or int_to_decimal(member.value) != data["E"]:
        raise DomainError("serialized member is inconsistent with its base and subset")
    return member
