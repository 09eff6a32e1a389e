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
Only primes up to isqrt(x) + 1 can occur, because q(q-1) divides M(S) <= x
for odd q in S.

Closed sets are enumerated depth first, each S grown by primes above its
largest, with counters in place of closure tests.  One spf walk over the
table to isqrt(x) + 1 gives, for each odd prime q there, need[q], the
number of odd primes of q-1 not yet in S, and watchers[p], the q with
p | q-1 in increasing order.  The sorted ready list holds the q whose need
is 0: exactly the primes that keep S closed, so children are read from it
alone.  Adding r to S decrements need for the watchers w of r up to
x // M(S + {r}) only, since every set below S + {r} that takes w has
M >= M(S + {r}) * w; the w that reach 0 join ready.  Backtracking undoes
both.  A node thus does work in proportion to its children and to the
watchers it wakes, not to the number of primes.

Beside its output, counting holds the table to isqrt(x) + 1 while the
counters are built, and the counters (COUNTER_BYTES per prime) while the
sets are walked; list_nc charges its members at MEMBER_BYTES each as the
walk finds them, so every call fits the memory budget it is given.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from typing import NamedTuple

from .errors import DomainError, show_int
from .sieve import (
    FactorTable, build_tables, check_budget, check_ceiling, prime_count_bound, prime_powers, table_charge,
)

# Per prime <= isqrt(x) + 1: its need byte, its watcher list and its places in
# others'; tracemalloc reads 83-87 bytes a prime up to x = 2^40.
COUNTER_BYTES = 112
MEMBER_BYTES = 48  # per list_nc member: a 32-byte int below 2^60, its list slot, growth and sort room


class NovakVerdict(NamedTuple):
    """Membership verdict with a checkable witness on rejection.

    witness_kind is "prime" (a prime p | n with (p-1) not dividing n); None
    when is_nc is True.
    """

    n: int
    is_nc: bool
    witness_kind: str | None = None
    witness: int | None = None


# Builds a NovakVerdict from all four fields, as NamedTuple._make does, without
# its Python-level __new__, which took half the time of a point query on a table.
_verdict = tuple.__new__


def is_nc_criterion(n: int, table: FactorTable | None = None) -> NovakVerdict:
    """Divisor criterion: every prime p | n must satisfy (p-1) | n.

    On rejection the witness is the smallest prime p > 2 with p | n and
    (p-1) not dividing n.  n is factored by the table when one is given
    (n <= table.limit) and by trial division over the primes <= sqrt(n)
    otherwise (n <= 2^40).  Verdict and witness do not depend on the
    factor source: a table is optional and only speeds up many queries
    below its limit.  On a table the spf chain of n's odd part is walked
    here, 3 found by m % 3 as it has no slots, and left at the first
    failing p, so most n cost one or two steps.
    """
    if n < 1:
        raise DomainError(f"is_nc_criterion needs n >= 1, got {n}")
    if n == 1:
        return NovakVerdict(1, True)
    if table is not None and n <= table.limit:
        spf = table.spf_view
        m = n >> ((n & -n).bit_length() - 1)  # the odd part: p = 2 always passes
        while m > 1:  # the chain ascends, so the first failure is the smallest
            p = 3 if m % 3 == 0 else spf[m // 3] or m  # 0 marks a prime
            if n % (p - 1):
                return _verdict(NovakVerdict, (n, False, "prime", p))
            m //= p  # a repeated p passes again
        return _verdict(NovakVerdict, (n, True, None, None))
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


def _counters(root: int) -> tuple[bytearray, dict[int, list[int]], list[int]]:
    """need, watchers and ready over the odd primes q <= root, from one spf walk of each q - 1.

    need[q >> 1] is the number of odd primes dividing q - 1, watchers[p]
    lists the q with p | q - 1 in increasing order, and ready lists the q
    whose need is 0 (q - 1 a power of 2).
    """
    tables = build_tables(root)
    spf = tables.factors.spf_view
    need = bytearray((root + 1) // 2)
    watchers: dict[int, list[int]] = {}
    odd_primes = tables.primes.primes[1:].tolist()
    for q in odd_primes:
        m = q - 1
        m >>= (m & -m).bit_length() - 1  # the odd part of q - 1
        while m > 1:
            p = 3 if m % 3 == 0 else spf[m // 3] or m  # 3 has no slots
            watchers.setdefault(p, []).append(q)
            need[q >> 1] += 1
            while m % p == 0:
                m //= p
    ready = [q for q in odd_primes if not need[q >> 1]]
    return need, watchers, ready


def _closed_sets(x: int) -> Iterator[tuple[list[int], int]]:
    """Every closed prime set S with M(S) <= x, as (S ascending, M(S)); needs x >= 2."""
    need, watchers, ready = _counters(math.isqrt(x) + 1)

    def extend(s: list[int], m: int) -> Iterator[tuple[list[int], int]]:
        yield s, m
        j = bisect_right(ready, s[-1])
        while j < len(ready):  # each child restores ready before the next is read
            q = ready[j]
            if m * q > x:  # M only grows, and so does q
                return
            grown = math.lcm(m, q - 1) * q
            if grown <= x:
                # A watcher w joins a descendant only if M grows by w at least.
                ws = watchers.get(q, ())
                woken = ws[: bisect_right(ws, x // grown)]
                for w in woken:
                    need[w >> 1] -= 1
                    if not need[w >> 1]:
                        insort(ready, w)
                yield from extend(s + [q], grown)
                for w in woken:
                    if not need[w >> 1]:
                        del ready[bisect_left(ready, w)]
                    need[w >> 1] += 1
            j += 1

    yield from extend([2], 2)


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


def _charge(name: str, x: int) -> dict[str, int]:
    """What counting to x holds beside its output, as {name: bytes}, once x is checked."""
    if x < 1:
        raise DomainError(f"{name} needs x >= 1, got {show_int(x)}")
    check_ceiling("x", x)
    root = math.isqrt(x) + 1
    return {**table_charge(root), "closure counters": COUNTER_BYTES * prime_count_bound(root)}


def _cofactors(x: int) -> Iterator[tuple[int, list[int]]]:
    """(M(S), the k <= x // M(S) whose prime factors all lie in S) for each closed S."""
    if x > 1:
        for s, m in _closed_sets(x):
            yield m, _smooth_numbers(x // m, s)


def count_nc(x: int, *, memory_budget: int | None = None) -> int:
    """Exact count of Novak-Carmichael numbers <= x (n = 1 included)."""
    check_budget(_charge("count_nc", x), memory_budget)
    return 1 + sum(len(ks) for _, ks in _cofactors(x))


def list_nc(
    x: int, *, memory_budget: int | None = None, beside: dict[str, int] | None = None
) -> list[int]:
    """Ordered members <= x; length equals count_nc(x).

    The members are charged at MEMBER_BYTES each as the walk finds them:
    the set that would overfill the budget is refused before its products
    are built.  beside, what the caller will hold with the list as
    {name: bytes}, is charged in the same checks.
    """
    charge = {**_charge("list_nc", x), **(beside or {})}
    room = check_budget(charge, memory_budget) // MEMBER_BYTES
    members = [1]
    for m, ks in _cofactors(x):
        if len(members) + len(ks) > room:
            check_budget({**charge, "member list": MEMBER_BYTES * (len(members) + len(ks))}, memory_budget)
        members.extend(m * k for k in ks)
    members.sort()
    return members
