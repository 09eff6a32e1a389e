"""Prime sieves and smallest-prime-factor tables.

Tables are immutable after construction and safe to share across threads.
sieve_primes takes the base primes <= sqrt(limit) from one flag array and
strikes their multiples out of the rest segment by segment, so its working
set beyond the output is one segment; the primes do not depend on the
segment size.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ResourceError, show_int

SEGMENT_SIZE = 1 << 20  # flags per segment of the sieve above sqrt(limit)
MAX_LIMIT = 1 << 40
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes allowed for the big arrays of one call


def check_ceiling(name: str, value: int) -> None:
    """ResourceError when value, the input called name, exceeds the supported ceiling 2^40."""
    if value > MAX_LIMIT:
        raise ResourceError(f"{name}={show_int(value)} exceeds the supported ceiling 2^40")


def check_budget(arrays: dict[str, int], memory_budget: int | None) -> None:
    """ResourceError when the arrays a call will build, as {name: bytes}, exceed the budget."""
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if sum(arrays.values()) > budget:
        sizes = " + ".join(f"{name} {show_int(n)}" for name, n in arrays.items())
        hint = "" if "factor table" not in arrays else (
            ".  sieve_primes, count_nc, list_nc, is_nc_criterion (nc check) "
            "and psi_count (smooth psi) need no factor table"
        )
        raise ResourceError(f"{sizes} bytes exceed the {budget}-byte budget; raise the budget{hint}")


def prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit): 1.26 limit / ln(limit) (Rosser and Schoenfeld, 1962)."""
    return limit if limit < 17 else 126 * limit // (100 * int(math.log(limit)))


def _check_limit(limit: int) -> None:
    if limit < 2:
        raise DomainError(f"limit must be at least 2, got {show_int(limit)}")
    check_ceiling("limit", limit)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to ``limit`` in increasing order, with count lookups."""

    limit: int
    primes: np.ndarray
    count: int

    def pi(self, x: int) -> int:
        """Number of primes <= x.  Requires x <= limit."""
        if x > self.limit:
            raise DomainError(f"pi({x}) not covered by a table with limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))


@dataclass(frozen=True, eq=False)
class FactorTable:
    """Smallest prime factor of every n in [2, limit].

    Only odd n are stored (even n have spf 2); prime_powers walks the
    chain through spf_view.
    """

    limit: int
    spf_odd: np.ndarray  # spf_odd[k] = smallest prime factor of 2k+1; slot 0 holds 1

    @cached_property
    def spf_view(self) -> memoryview:
        return self.spf_odd.data  # indexing yields Python ints, not boxed numpy scalars


@dataclass(frozen=True, eq=False)
class Tables:
    """A prime table and a factor table sharing one limit."""

    primes: PrimeTable
    factors: FactorTable

    @property
    def limit(self) -> int:
        return min(self.primes.limit, self.factors.limit)


def _sieve_monolithic(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _sieve_segmented(limit: int, segment_size: int) -> np.ndarray:
    root = math.isqrt(limit)
    base = _sieve_monolithic(root)
    chunks = [base]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                flags[start - lo :: p] = False
        chunks.append((np.flatnonzero(flags) + lo).astype(np.int64))
        lo = hi
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes up to limit (inclusive, at least 2)."""
    _check_limit(limit)
    primes = _sieve_segmented(limit, SEGMENT_SIZE)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, count=len(primes))


def _factor_table_dtype(limit: int) -> type:
    _check_limit(limit)
    return np.uint32 if limit < 2**32 else np.uint64


def _factor_table_bytes(limit: int) -> int:
    return (limit + 1) // 2 * np.dtype(_factor_table_dtype(limit)).itemsize  # n = 1, 3, 5, ...


def build_factor_table(
    limit: int,
    *,
    memory_budget: int | None = None,
) -> FactorTable:
    """Build the smallest-prime-factor table for [2, limit], with no array beside it.

    Each odd n starts as its own spf.  The odd primes p <= sqrt(limit) then
    strike their odd multiples from p^2 on, largest first, so the smallest wins.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, at least 2.
    memory_budget : int, optional
        Maximum bytes for the internal array (default 2 GiB).  A limit
        whose table would not fit raises ResourceError; sieve_primes,
        count_nc, list_nc, is_nc_criterion and psi_count need no table.
    """
    check_budget({"factor table": _factor_table_bytes(limit)}, memory_budget)
    spf_odd = np.arange(1, limit + 1, 2, dtype=_factor_table_dtype(limit))
    for p in reversed(_sieve_monolithic(math.isqrt(limit))[1:].tolist()):
        spf_odd[(p * p) >> 1 :: p] = p
    spf_odd.setflags(write=False)
    return FactorTable(limit=limit, spf_odd=spf_odd)


def build_tables(limit: int, *, memory_budget: int | None = None) -> Tables:
    """A matched PrimeTable/FactorTable pair.

    The budget covers the factor table and the int64 prime array, sized by
    prime_count_bound, and is checked before any sieve runs.
    """
    check_budget(
        {"factor table": _factor_table_bytes(limit), "prime array": 8 * prime_count_bound(limit)},
        memory_budget,
    )
    return Tables(
        primes=sieve_primes(limit),
        factors=build_factor_table(limit, memory_budget=memory_budget),
    )


def prime_powers(n: int, table: FactorTable | None = None) -> Iterator[tuple[int, int]]:
    """Yield (p, e) for each p^e exactly dividing n >= 2, p increasing; 2 is divided out first.

    With a table, n must lie in [2, table.limit] and the odd primes are read
    off its spf chain.  Without one, n must lie in [2, 2^40]: every odd prime
    up to sqrt(m), m the odd part, is tested at once, and what remains of m
    above 1 is a prime.  A caller that stops early skips the rest.
    """
    if table is None:
        if n < 2:
            raise DomainError(f"prime_powers({n}) needs n >= 2")
        check_ceiling("n", n)
    elif n < 2 or n > table.limit:
        raise DomainError(f"prime_powers({n}) outside table range [2, {table.limit}]")
    e = (n & -n).bit_length() - 1  # exponent of 2 in n
    m = n >> e
    if e:
        yield 2, e
    if table is None:
        if m >= 9:
            primes = sieve_primes(math.isqrt(m)).primes
            for p in primes[m % primes == 0].tolist():
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                yield p, e
        if m > 1:
            yield m, 1
        return
    spf = table.spf_view
    while m > 1:
        p = spf[m >> 1]
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        yield p, e
