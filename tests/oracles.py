"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately slow and simple: trial division, a sieve
of Eratosthenes with one flag per integer, smallest- and
greatest-prime-factor sieves over every integer, a divisor-criterion sieve, a closed-set search that tests every prime at
every node, the defining congruence over every base, subset
products by itertools.combinations, Pascal's triangle, and a trapezoid
solver of the integral form of the rho delay equation.  None of it shares
code with the package under test.
"""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np


def trial_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def flag_sieve(limit):
    """The primes <= limit >= 2 as int64, from one flag per integer: each p <= sqrt(limit) clears p^2, p^2 + p, ..."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def trial_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_spf(n):
    """Smallest prime factor of n >= 2 by trial division; 1 for n = 1."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


@lru_cache(maxsize=2)
def spf_sieve(limit):
    """spf[n] for every n <= limit >= 4, as int64 (spf[1] = 1): each prime p <= sqrt(limit),
    largest first, overwrites p^2, p^2 + p, ..., so the smallest prime factor writes last."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in reversed(flag_sieve(math.isqrt(limit)).tolist()):
        spf[p * p :: p] = p
    return spf


def trial_gpf(n):
    if n == 1:
        return 1
    return trial_factorize(n)[-1][0]


@lru_cache(maxsize=None)
def gpf_sieve(limit):
    """gpf[n] for n <= limit (gpf[1] = 1): each prime, ascending, overwrites its multiples."""
    gpf = np.ones(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if gpf[p] == 1:
            gpf[p::p] = p
    return gpf


def smooth_count(x, y):
    """The n <= x (n = 1 included) whose greatest prime factor is at most y."""
    gpf = gpf_sieve(max(1 << 12, 1 << (x - 1).bit_length()))  # one sieve serves many x
    return int(np.count_nonzero(gpf[1 : x + 1] <= y))


def shifted_smooth_primes(x, y):
    return [p for p in trial_primes(x) if trial_gpf(p - 1) <= y]


def nc_flags_sieve(x):
    """flags[n] is True iff n <= x is Novak-Carmichael, by the divisor criterion.

    One sieve pass over [2, x]: each prime p <= sqrt(x) checks (p-1) | n on
    its multiples and divides itself out; what is left above 1 is a single
    prime factor larger than sqrt(x), checked last.
    """
    flags = np.zeros(x + 1, dtype=bool)
    flags[1:] = True
    n = np.arange(x + 1, dtype=np.int64)
    residual = n.copy()
    for p in trial_primes(math.isqrt(x)):
        idx = np.arange(p, x + 1, p)
        flags[idx] &= n[idx] % (p - 1) == 0
        rem = residual[idx] // p
        live = np.flatnonzero(rem % p == 0)
        while live.size:
            rem[live] //= p
            live = live[rem[live] % p == 0]
        residual[idx] = rem
    big = np.flatnonzero(residual > 1)
    flags[big] &= n[big] % (residual[big] - 1) == 0
    return flags


def closed_sets_scan(x):
    """Every closed prime set S with M(S) <= x >= 2, as (S ascending, M(S)), by a scan over the primes.

    Depth first, each node tries every prime q above its largest while
    M(S) q <= x, and q joins when q - 1 divides prod(S)^b, b the bit length
    of q - 1, which bounds every exponent: that is, when every prime factor
    of q - 1 lies in S.
    """
    primes = flag_sieve(math.isqrt(x) + 1).tolist()

    def extend(s, prod_s, m, start):
        yield s, m
        for j in range(start, len(primes)):
            q = primes[j]
            if m * q > x:
                return
            if pow(prod_s, (q - 1).bit_length(), q - 1) == 0:
                grown = math.lcm(m, q - 1) * q
                if grown <= x:
                    yield from extend(s + [q], prod_s * q, grown, j + 1)

    yield from extend([2], 2, 2, 1)


def definition_witness(n):
    """Smallest base a coprime to n >= 1 with a^n != 1 (mod n); None when n is Novak-Carmichael."""
    return next((a for a in range(2, n) if math.gcd(a, n) == 1 and pow(a, n, n) != 1), None)


def criterion_over(n, primes):
    """Divisor criterion for n by trial division over primes: (p-1) | n for each prime p | n.

    Also False when primes do not account for every prime factor of n.
    """
    m = n
    for p in primes:
        if m % p == 0:
            if n % (p - 1):
                return False
            while m % p == 0:
                m //= p
    return m == 1


def family_products(D, members, a):
    """(subset, D * prod(subset)) for every size-a subset, in combinations order."""
    return [(subset, D * math.prod(subset)) for subset in combinations(members, a)]


def pascal_binomial(n, k):
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[k]


def check_binomial_floor(a_max):
    """binomial(a, b) >= (a/b)^b for all 2 <= a <= a_max, 1 <= b <= a/2 + 1.

    Compared in exact integer arithmetic: binomial(a, b) * b^b >= a^b.
    """
    return all(
        math.comb(a, b) * b**b >= a**b for a in range(2, a_max + 1) for b in range(1, a // 2 + 2)
    )


def group_exponent(n):
    """Exponent of the multiplicative group mod n, by brute-force orders."""
    if n == 1:
        return 1
    result = 1
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        order = 1
        v = a % n
        while v != 1:
            v = v * a % n
            order += 1
        result = math.lcm(result, order)
    return result


def _rho_trapezoid(u, k):
    """Solve u*rho(u) = integral of rho over [u-1, u] on a 2^-k grid."""
    m = 1 << k
    h = 1.0 / m
    total = round(u * m)
    assert abs(u * m - total) < 1e-9, "oracle needs u on the refinement grid"
    v = [1.0] * (m + 1)
    window = float(m - 1)  # sum of v[i-m+1 .. i-1] at the first solved node
    for i in range(m + 1, total + 1):
        t = i * h
        vi = h * (0.5 * v[i - m] + window) / (t - 0.5 * h)
        v.append(vi)
        window += vi - v[i - m + 1]
    return v[total]


def dickman_oracle(u, tol=1e-9):
    """Dickman rho by step-halving trapezoid with Richardson extrapolation."""
    prev = _rho_trapezoid(u, 11)
    for k in range(12, 17):
        cur = _rho_trapezoid(u, k)
        if abs(cur - prev) < tol:
            return (4.0 * cur - prev) / 3.0
        prev = cur
    raise RuntimeError(f"dickman oracle did not stabilise at u={u}")
