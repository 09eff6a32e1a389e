"""Reference computations that share no code with nc_forge.

make_golden.py uses these to cross-check every golden value once, so the
benchmark's stored answers do not rest on the layer they are meant to check.
They favour plain algorithms over speed.
"""

from __future__ import annotations

import math

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by a plain Eratosthenes sieve."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _strip_primes(values: np.ndarray, y: int) -> np.ndarray:
    """values with every prime factor <= y divided out."""
    rest = values.astype(np.int64, copy=True)
    for p in primes_upto(y).tolist():
        hit = np.flatnonzero(rest % p == 0)
        while hit.size:
            rest[hit] //= p
            hit = hit[rest[hit] % p == 0]
    return rest


def psi(x: int, y: int) -> int:
    """Number of n <= x with no prime factor above y (n = 1 included)."""
    rest = np.arange(1, x + 1, dtype=np.int64)  # rest[i] belongs to n = i + 1
    for p in primes_upto(y).tolist():
        q = p
        while q <= x:  # each multiple of p^k loses one factor p
            rest[q - 1 :: q] //= p
            q *= p
    return int((rest == 1).sum())


def shifted_smooth_primes(x: int, y: int) -> list[int]:
    """Primes p <= x whose shift p - 1 has no prime factor above y."""
    ps = primes_upto(x)
    return ps[_strip_primes(ps - 1, y) == 1].tolist()


def prime_count(x: int) -> int:
    return len(primes_upto(x))


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def nc_witness(n: int) -> int | None:
    """Smallest prime p | n with (p - 1) not dividing n, or None if n is NC."""
    for p, _ in trial_factor(n):
        if n % (p - 1):
            return p
    return None


def nc_members(x: int) -> list[int]:
    """All Novak-Carmichael numbers <= x, sorted, by closed prime sets.

    n > 1 with prime support S is NC iff S is closed (every prime factor of
    q - 1 lies in S for q in S) and M(S) = lcm(prod S, q - 1 for q in S)
    divides n.  So the members with support S are M(S) * k for every k <=
    x / M(S) built only from primes of S.  A prime q in S has q(q - 1) <= x,
    and q - 1 only has smaller primes, so a depth-first search over primes
    in increasing order decides every factor of q - 1 before q.
    """
    cands = [p for p in primes_upto(math.isqrt(x) + 1).tolist() if p * (p - 1) <= x]
    shift = {q: {p for p, _ in trial_factor(q - 1)} for q in cands}
    out = [1]

    def emit(m: int, support: list[int], start: int) -> None:
        out.append(m)
        for i in range(start, len(support)):
            if m * support[i] <= x:
                emit(m * support[i], support, i)

    def search(first: int, support: list[int], m: int) -> None:
        for i in range(first, len(cands)):
            q = cands[i]
            if m * q > x:
                break
            if not shift[q] <= set(support):
                continue
            mq = math.lcm(m * q, q - 1)
            if mq > x:
                continue
            support.append(q)
            emit(mq, support, 0)
            search(i + 1, support, mq)
            support.pop()

    search(0, [], 1)
    return sorted(out)


def base_exponents(s: int, r: int) -> list[tuple[int, int]]:
    """(p, e) for primes p <= r with p^e <= s < p^(e+1)."""
    out = []
    for p in primes_upto(r).tolist():
        e, q = 1, p
        while q * p <= s:
            q *= p
            e += 1
        out.append((p, e))
    return out
