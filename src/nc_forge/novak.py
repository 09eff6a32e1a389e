"""Novak-Carmichael membership, counting, and listing.

A positive integer n is Novak-Carmichael when a^n = 1 (mod n) for every a
coprime to n; equivalently, every prime p dividing n satisfies (p-1) | n.
Two routes decide membership here: the divisor criterion, and
divisibility of n by the Carmichael function.  The test suite checks both
against the defining congruence itself (tests/oracles.py).  n = 1 counts
as a member (the defining congruence holds vacuously).

Counting and listing rest on the structure the criterion forces.  Let S be
the set of prime factors of n > 1.  Then n is a member exactly when S is
*closed* (2 lies in S, and every prime factor of q-1 lies in S for each q
in S) and M(S) = lcm(prod S, lcm of q-1 over q in S) divides n.  So the
members above 1 are the numbers M(S)*k, one for each closed S and each
k <= x / M(S) whose prime factors all lie in S; S is n's own support, so
each member arises once, and count_nc counts the k that list_nc lists.
Closed sets are enumerated depth first over the primes in increasing order:
the prime factors of q-1 are smaller than q, so their membership is settled
before q is tried.  Only primes up to isqrt(x) + 1 can occur, because
q(q-1) divides M(S) <= x for odd q in S.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .errors import DomainError, show_int
from .sieve import FactorTable, check_ceiling, prime_powers, sieve_primes


class NovakVerdict(NamedTuple):
    """Membership verdict with a checkable witness on rejection.

    witness_kind is "prime" (a prime p | n with (p-1) not dividing n); None
    when is_nc is True.
    """

    n: int
    is_nc: bool
    witness_kind: str | None = None
    witness: int | None = None


def is_nc_criterion(n: int, table: FactorTable | None = None) -> NovakVerdict:
    """Divisor criterion: every prime p | n must satisfy (p-1) | n.

    On rejection the witness is the smallest prime p > 2 with p | n and
    (p-1) not dividing n.  n is factored by the table when one is given
    (n <= table.limit) and by trial division over the primes <= sqrt(n)
    otherwise (n <= 2^40).  Verdict and witness do not depend on the
    factor source: a table is optional and only speeds up many queries
    below its limit.
    """
    if n < 1:
        raise DomainError(f"is_nc_criterion needs n >= 1, got {n}")
    if n == 1:
        return NovakVerdict(1, True)
    for p, _ in prime_powers(n, table):  # ascending, so the first failure is the smallest
        if p > 2 and n % (p - 1):
            return NovakVerdict(n, False, "prime", p)
    return NovakVerdict(n, True)


def carmichael_lambda(n: int, table: FactorTable | None = None) -> int:
    """Exponent of the multiplicative group mod n; n is factored as in is_nc_criterion."""
    if n < 1:
        raise DomainError(f"carmichael_lambda needs n >= 1, got {n}")
    if n == 1:
        return 1
    parts = [p ** (a - 1) * (p - 1) for p, a in prime_powers(n, table)]  # phi(p^a)
    if n % 8 == 0:  # lambda(2^a) = phi(2^a) / 2 for a >= 3, and 2 comes first
        parts[0] //= 2
    return math.lcm(*parts)


def _closed_sets(x: int) -> Iterator[tuple[list[int], int]]:
    """Every closed prime set S with M(S) <= x, as (S ascending, M(S)); needs x >= 2."""
    primes = sieve_primes(math.isqrt(x) + 1).primes.tolist()

    def extend(s: list[int], prod_s: int, m: int, start: int) -> Iterator[tuple[list[int], int]]:
        yield s, m
        for j in range(start, len(primes)):
            q = primes[j]
            if m * q > x:  # M only grows, and so does q
                return
            # q-1 divides prod_s^b, where its bit length b bounds every
            # exponent, exactly when every prime factor of q-1 lies in S.
            if pow(prod_s, (q - 1).bit_length(), q - 1) == 0:
                grown = math.lcm(m, q - 1) * q
                if grown <= x:
                    yield from extend(s + [q], prod_s * q, grown, j + 1)

    yield from extend([2], 2, 2, 1)


def _smooth_numbers(y: int, primes: list[int]) -> list[int]:
    """All k <= y whose prime factors lie in primes (k = 1 included)."""
    out = [1]
    for p in primes:
        grown = []
        for k in out:
            while k <= y:
                grown.append(k)
                k *= p
        out = grown
    return out


def _cofactors(name: str, x: int) -> Iterator[tuple[int, list[int]]]:
    """(M(S), the k <= x // M(S) whose prime factors all lie in S) for each closed S."""
    if x < 1:
        raise DomainError(f"{name} needs x >= 1, got {show_int(x)}")
    check_ceiling("x", x)
    if x > 1:
        for s, m in _closed_sets(x):
            yield m, _smooth_numbers(x // m, s)


def count_nc(x: int) -> int:
    """Exact count of Novak-Carmichael numbers <= x (n = 1 included)."""
    return 1 + sum(len(ks) for _, ks in _cofactors("count_nc", x))


def list_nc(x: int) -> list[int]:
    """Ordered members <= x; length equals count_nc(x)."""
    return [1] + sorted(m * k for m, ks in _cofactors("list_nc", x) for k in ks)
