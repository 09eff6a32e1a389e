"""Prime sieves and smallest-prime-factor tables.

Tables are immutable after construction and safe to share across threads.
Every prime comes from one block routine, _strike: the odd primes p <=
sqrt(limit) write themselves into the slots of their odd multiples from p^2
on, a block of odd numbers at a time, and the zeros left are the odd primes
and n = 1.  One routine, _write_primes, turns zeros into primes, in an array
sized once by prime_count_bound (Dusart's bound, which sets every memory
charge for primes too) and trimmed in place.  sieve_primes hands it one
reused bool buffer per block, its base primes sieved one level down;
build_tables hands it a factor table's zeros a piece at a time, so a matched
pair costs one sieve.

A factor table holds, for each odd n <= limit, the smallest prime factor of
n when n is composite and 0 when n is a prime or 1: 2 bytes an odd n below
2^32, 4 bytes from there to 2^40.  A prime array switches at the same
limit: uint32 below 2^32, int64 from there.  Readers take its primes out by
.tolist(), int() or astype, or compare them with keys of its own dtype.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ResourceError, show_int

STRIKE_BLOCK = 1 << 19  # factor-table slots every base prime strikes before the next block
SIEVE_BLOCK = 1 << 18  # slots of sieve_primes' bool buffer: under 5 % of the primes to 10^7
SIEVE_PIECE = 1 << 14  # is-prime slots read at a time; each read's index array is its own
MAX_LIMIT = 1 << 40
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes allowed for the big arrays of one call


def check_ceiling(name: str, value: int) -> None:
    """ResourceError when value, the input called name, exceeds the supported ceiling 2^40."""
    if value > MAX_LIMIT:
        raise ResourceError(f"{name}={show_int(value)} exceeds the supported ceiling 2^40")


def check_budget(arrays: dict[str, int], memory_budget: int | None) -> int:
    """The bytes left once the arrays a call will build, as {name: bytes}, are charged.

    ResourceError when they exceed the budget.
    """
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    left = budget - sum(arrays.values())
    if left < 0:
        sizes = " + ".join(f"{name} {show_int(n)}" for name, n in arrays.items())
        hint = "" if "factor table" not in arrays else (
            ".  sieve_primes, count_nc, list_nc, is_nc_criterion (nc check) "
            "and psi_count (smooth psi) need no factor table to x"
        )
        raise ResourceError(f"{sizes} bytes exceed the {budget}-byte budget; raise the budget{hint}")
    return left


def prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit): (limit / L)(1 + 1.2762 / L) + 1, L = ln limit; 0 below 2.

    Dusart (Math. Comp. 68, 1999).  It lies 0.75 % above pi(limit) at 10^6,
    10^7 and 10^8, and the float rounding is far inside the + 1.
    """
    if limit < 2:
        return 0
    log = math.log(limit)
    return int(limit / log * (1 + 1.2762 / log)) + 1


def _check_limit(limit: int) -> None:
    if limit < 2:
        raise DomainError(f"limit must be at least 2, got {show_int(limit)}")
    check_ceiling("limit", limit)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to ``limit`` in increasing order, with count lookups.

    primes is uint32 for limits below 2^32 and int64 from there (_prime_dtype).
    """

    limit: int
    primes: np.ndarray
    count: int

    def pi(self, x: int) -> int:
        """Number of primes <= x.  Requires x <= limit.

        The key takes the array's dtype: a Python int would cast every prime
        to int64 first.
        """
        if x > self.limit:
            raise DomainError(f"pi({x}) not covered by a table with limit {self.limit}")
        if x < 2:
            return 0
        return int(np.searchsorted(self.primes, self.primes.dtype.type(x), side="right"))


@dataclass(frozen=True, eq=False)
class FactorTable:
    """Smallest prime factor of every composite n in [2, limit].

    Only odd n are stored (even n have spf 2).  A composite odd n holds its
    spf, at most sqrt(limit): uint16 for limits below 2^32, uint32 up to
    2^40.  A prime holds 0, and so does slot 0 (n = 1), so the spf of an odd
    n >= 3 reads ``spf_odd[n >> 1] or n``.  prime_powers walks the chain
    through spf_view.
    """

    limit: int
    spf_odd: np.ndarray  # spf_odd[k] = smallest prime factor of 2k+1 if composite, else 0

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


def _strike(block: np.ndarray, lo: int, base: list[int]) -> None:
    """Strike the odd primes in base, increasing, into block: the odd-number slots [lo, lo + len(block)).

    Slot k holds n = 2k+1, and the odd multiples of p are the slots
    k = p >> 1 (mod p).  Each p writes itself into those from the slot of p^2
    on, the largest p first, so the smallest wins and the primes keep 0.
    Only the p with p^2 below the block's end strike it.
    """
    hi = lo + len(block)
    for i in reversed(range(bisect_right(base, math.isqrt(2 * hi)))):
        p = base[i]
        block[max((p * p) >> 1, lo + ((p >> 1) - lo) % p) - lo :: p] = p


def _base_primes(limit: int) -> list[int]:
    """The odd primes <= sqrt(limit): those that strike a sieve to limit."""
    root = math.isqrt(limit)
    return _sieve(root)[1:].tolist() if root >= 3 else []


def _prime_dtype(limit: int) -> type:
    return np.uint32 if limit < 2**32 else np.int64  # the factor table widens at the same limit


def _write_primes(limit: int, blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    """The primes up to limit >= 2, as _prime_dtype(limit), from (lo, flags) blocks covering its odd slots in order.

    flags[k] is true when n = 2(lo + k) + 1 is a prime or 1.  They are read
    SIEVE_PIECE slots at a time into an array of prime_count_bound(limit)
    entries, trimmed in place at the end; slot 0 (n = 1) gives its place to 2.
    Each piece's int64 indices become its primes in place and are then
    copied into the output, which casts them.
    """
    primes = np.empty(prime_count_bound(limit), dtype=_prime_dtype(limit))
    i = 0
    for lo, flags in blocks:
        for start in range(0, len(flags), SIEVE_PIECE):
            found = np.flatnonzero(flags[start : start + SIEVE_PIECE])
            found *= 2
            found += 2 * (lo + start) + 1
            primes[i : i + len(found)] = found
            i += len(found)
    primes.resize(i, refcheck=False)
    primes[0] = 2
    return primes


def _sieve(limit: int) -> np.ndarray:
    """The primes up to limit >= 2 (uint32 below 2^32), SIEVE_BLOCK odd-number slots at a time.

    One bool buffer is cleared, struck and inverted per block and handed to
    _write_primes.  Beside the primes, a call holds the buffer, the base
    primes and one piece's index array.
    """
    base = _base_primes(limit)
    slots = (limit + 1) // 2
    buffer = np.empty(min(slots, SIEVE_BLOCK), dtype=bool)

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for lo in range(0, slots, SIEVE_BLOCK):
            block = buffer[: slots - lo]
            block.fill(False)
            _strike(block, lo, base)
            np.logical_not(block, out=block)
            yield lo, block

    return _write_primes(limit, blocks())


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes up to limit (inclusive, at least 2)."""
    _check_limit(limit)
    primes = _sieve(limit)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, count=len(primes))


def _factor_table_dtype(limit: int) -> type:
    _check_limit(limit)
    return np.uint16 if limit < 2**32 else np.uint32  # spf <= sqrt(limit) fits


def _factor_table_bytes(limit: int) -> int:
    return (limit + 1) // 2 * np.dtype(_factor_table_dtype(limit)).itemsize  # n = 1, 3, 5, ...


def _prime_array_bytes(limit: int) -> int:
    return prime_count_bound(limit) * np.dtype(_prime_dtype(limit)).itemsize


def _strike_factor_table(limit: int) -> np.ndarray:
    """The spf_odd array of a FactorTable: zeros, with each odd composite's spf struck in.

    Each STRIKE_BLOCK slice is struck in place, so it stays in cache while
    every base prime strikes it.
    """
    spf_odd = np.zeros((limit + 1) // 2, dtype=_factor_table_dtype(limit))
    base = _base_primes(limit)
    for lo in range(0, len(spf_odd), STRIKE_BLOCK):
        _strike(spf_odd[lo : lo + STRIKE_BLOCK], lo, base)
    return spf_odd


def table_charge(limit: int) -> dict[str, int]:
    """The bytes build_tables(limit) holds, as {name: bytes} for check_budget.

    They are the factor table, the prime array sized by prime_count_bound
    (4 bytes a prime below 2^32, 8 from there), and the read piece: two
    pieces' bool flags, and their int64 indices at one prime in two odd
    slots or fewer, since a piece's arrays are freed only once the next
    piece's exist.
    """
    return {
        "factor table": _factor_table_bytes(limit),
        "prime array": _prime_array_bytes(limit),
        "read piece": 10 * SIEVE_PIECE,
    }


def build_tables(
    limit: int, *, memory_budget: int | None = None, beside: dict[str, int] | None = None
) -> Tables:
    """A matched PrimeTable/FactorTable pair from one strike pass.

    The prime list is read off the factor table's zeros by _write_primes, one
    SIEVE_PIECE slice of spf_odd == 0 at a time.  The budget covers
    table_charge(limit) and beside, what the caller will hold with the
    tables as {name: bytes}, in one check before the strike pass runs.
    """
    check_budget({**table_charge(limit), **(beside or {})}, memory_budget)
    spf_odd = _strike_factor_table(limit)
    pieces = range(0, len(spf_odd), SIEVE_PIECE)
    primes = _write_primes(limit, ((lo, spf_odd[lo : lo + SIEVE_PIECE] == 0) for lo in pieces))
    spf_odd.setflags(write=False)
    primes.setflags(write=False)
    return Tables(
        primes=PrimeTable(limit=limit, primes=primes, count=len(primes)),
        factors=FactorTable(limit=limit, spf_odd=spf_odd),
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
            for p in primes[np.int64(m) % primes == 0].tolist():  # m may not fit the primes' uint32
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
        p = spf[m >> 1] or m  # 0 marks a prime
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        yield p, e
