"""The multiplicative family construction.

The base D(s, r) is the product over primes p <= r of the largest power of p
not exceeding s.  Multiplying D by any subset of the shifted-smooth prime set
P(s, r) yields a Novak-Carmichael number: every prime q of the product has
q - 1 composed of prime powers that already divide D.  All exponent decisions
use exact integer comparisons; logarithms are informational only.
build_family sets up D and P(s, r) for certificates, their enumeration and
``nc-forge construct``; family_products walks every size-A member for
``construct --all``, one itertools.combinations subset at a time.  The
divisor criterion is a fact about each prime q (q - 1 divides D), so
verify_family and the certificate enumeration check it once per distinct
prime.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, show_int
from .smoothness import ShiftedSmoothSet, shift_charge, shifted_smooth_set
from .sieve import PrimeTable, build_tables, check_ceiling


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
        raise DomainError(f"need 2 <= r <= s, got r={show_int(r)}, s={show_int(s)}")
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


@functools.lru_cache(maxsize=1)
def build_family(
    s: int,
    r: int,
    *,
    memory_budget: int | None = None,
) -> tuple[ConstructionBase, ShiftedSmoothSet]:
    """D(s, r) and P(s, r), from tables up to max(s, 2).

    The tables come first, so a ceiling or budget refusal (ResourceError,
    naming s) precedes build_base's check of 2 <= r <= s (DomainError).
    The budget covers the tables and the working room of P(s, r)'s route.

    The last result is memoised, keyed by the arguments as spelled: callers
    in this package pass memory_budget by keyword, so a certificate round
    trip builds its family once.  The memo keeps one D and one member tuple
    alive (both immutable) and none of the tables; a refusal raises and is
    not kept, so a repeated call is refused again.
    """
    check_ceiling("s", s)
    tables = build_tables(max(s, 2), memory_budget=memory_budget, beside=shift_charge())
    base = build_base(s, r, tables.primes)
    return base, shifted_smooth_set(s, r, tables.primes, tables.factors)


def build_member(
    base: ConstructionBase,
    subset: Iterable[int],
    pset: ShiftedSmoothSet,
) -> FamilyMember:
    """Multiply the base by a set of distinct primes drawn from pset."""
    chosen = {int(p) for p in subset}
    _check_drawn_from(base, pset, chosen)
    return FamilyMember(base=base, subset=tuple(sorted(chosen)), value=base.value * math.prod(chosen))


def _check_drawn_from(base: ConstructionBase, pset: ShiftedSmoothSet, primes: set[int]) -> None:
    """DomainError unless pset was computed for the base's (s, r) and holds every prime of primes."""
    if pset.x != base.s or pset.y != base.r:
        raise DomainError(
            f"set mismatch: base is (s={base.s}, r={base.r}) but the prime set "
            f"was computed for (x={pset.x}, y={pset.y})"
        )
    foreign = primes.difference(pset.members)
    if foreign:
        raise DomainError(f"prime {min(foreign)} is not in the shifted-smooth set")


def family_products(
    base_value: int, members: Sequence[int], a: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (subset, D * prod(subset)) for every size-a subset of members.

    Subsets come in itertools.combinations order; none comes for a < 0
    (where combinations raises) or a > len(members).
    """
    if a >= 0:
        for subset in itertools.combinations(members, a):
            yield subset, base_value * math.prod(subset)


def verify_family(
    base: ConstructionBase,
    pset: ShiftedSmoothSet,
    subsets: Iterable[Sequence[int]],
) -> bool:
    """True iff q - 1 divides D for each base prime and each prime of the sampled subsets.

    The primes of E are the base primes and the subset, and D divides E, so
    this is the divisor criterion for each member, checked once per distinct
    prime and with no factor table covering the huge member values.  As in
    build_member, a pset computed for another (s, r), or a subset prime
    outside it, raises DomainError; membership is one set difference, and no
    member value is built.
    """
    primes = {int(p) for p in set().union(*subsets)}  # int() once per distinct prime
    _check_drawn_from(base, pset, primes)
    primes.update(p for p, _ in base.exponents)
    return all(base.value % (q - 1) == 0 for q in primes)


def int_to_decimal(value: int) -> str:
    """str(value) at any length (str() stops at 4 300 digits)."""
    return str(decimal.Decimal(value))


def int_from_decimal(value) -> int:
    """int(value), but digit strings convert at any length (int() stops at 4 300 digits)."""
    if isinstance(value, str) and value.isdecimal():
        return int(decimal.Decimal(value))
    return int(value)


def member_to_dict(member: FamilyMember, d_text: str | None = None) -> dict:
    """JSON form with big integers as decimal strings.

    d_text, when given, is D in decimal, converted once for all members of a base.
    """
    return {
        "D": int_to_decimal(member.base.value) if d_text is None else d_text,
        "subset": list(member.subset),
        "E": int_to_decimal(member.value),
    }
