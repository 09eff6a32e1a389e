"""Smooth-number counts, shifted-smooth prime sets, and the Dickman rho function.

Psi(x, y) is counted by count_smooth from the primes <= y and a table of
pi(x // j) below (y + 1)^2: a term whose range leaves each n room for at
most one prime factor above the primes it allows (y + 1 standing in for the
first prime above y) is a leaf, summed from the table instead of recursed
into.  Pi(x, y) and the set P(x, y) take one of two exact routes, chosen
from (x, y) alone.  The walk divides the 2s and 3s out of each p - 1 and
goes up the spf chain of what is left, PI_CHUNK primes at a time, and stops
as soon as the cofactor left is at most y or a prime factor above y turns
up.  Where the estimate x rho(log x / log y) of the y-smooth shifts is at
most ENUMERATE_SHARE of pi(x), the one rule, the odd y-smooth cofactors k
are enumerated instead and each 2^a k + 1 prime to 3 is looked up in the
factor table, one doubling level at a time.  Either route holds at most
SHIFT_WORKING_BYTES beside the tables.
Dickman's rho is summed from a power series with positive coefficients on
each unit interval, so its values carry relative, not absolute, accuracy.

Conventions: the greatest prime factor of 1 is 1, so n = 1 counts as y-smooth
for every y >= 1 and the prime 2 always belongs to the shifted-smooth set.
"""

from __future__ import annotations

import logging
import math
import threading
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .sieve import FactorTable, PrimeTable, Tables, check_ceiling, prime_count_bound, sieve_primes

logger = logging.getLogger(__name__)

RHO_CUTOFF = 178.0  # rho(u) <= 1/Gamma(u + 1) < 2^-1075 beyond this, so no series is built
PI_CHUNK = 1 << 15  # primes per chunk of the shifted-smooth walk; its arrays stay in cache
SHIFT_WORKING_BYTES = 48 * PI_CHUNK  # what either Pi route holds beside the tables
ENUMERATE_SHARE = 0.5  # enumerate when x rho(u) is at most this share of pi(x); see README Limits


@dataclass(frozen=True)
class ShiftedSmoothSet:
    """Primes p <= x whose shift p-1 has no prime factor above y."""

    x: int
    y: int
    members: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class ConjectureRow:
    """One row of the ratio table comparing smooth shifted primes to smooth integers."""

    z: int
    y: int
    pi: int
    pi_smooth: int
    psi: int
    lhs_ratio: float  # pi_smooth / pi
    rhs_ratio: float  # psi / z


@dataclass(frozen=True)
class HildebrandRow:
    """Empirical decay exponent of psi(z, y)/z at y = round(exp(sqrt(log z)))."""

    z: int
    y: int
    psi: int
    ratio: float
    exponent: float


@dataclass(frozen=True)
class YRule:
    """How the smoothness bound y is derived from z in a ratio table."""

    kind: str  # "fixed" | "power" | "hild"
    value: int | float | None = None

    def y_for(self, z: int) -> int:
        if self.kind == "fixed":
            y = int(self.value)
        elif self.kind == "power":
            try:
                y = round(z ** float(self.value))
            except OverflowError as exc:
                raise DomainError(f"power rule u={self.value} overflows y at z={z}") from exc
        elif self.kind == "hild":
            y = round(math.exp(math.sqrt(math.log(z))))
        else:
            raise DomainError(f"unknown y rule {self.kind!r}")
        if y < 1:
            raise DomainError(f"y rule yields y={y} < 1 at z={z}")
        return y


def _pi_entries(x: int, limit: int) -> tuple[int, int, int]:
    """(n, j0, j1) of the pi table of x up to limit: n small entries, large j0..j1; see _pi_table."""
    r = math.isqrt(x)
    return min(r, limit) + 1, x // (limit + 1) + 1, x // (r + 1)


def _pi_table(x: int, limit: int, primes: Sequence[int]) -> tuple[memoryview, memoryview, int]:
    """pi(v) for every v = x // j <= limit, as (small, large, j0).

    small[v] = pi(v) for v <= min(isqrt(x), limit); large[j - j0] = pi(x // j) for
    j0 <= j <= x // (isqrt(x) + 1), the j with isqrt(x) < x // j <= limit.  Legendre's
    recurrence in Lucy's form (Lagarias, Miller and Odlyzko, Math. Comp. 44, 1985):
    S(v) starts at v - 1, and each prime p <= sqrt(limit) in turn strikes the
    S(v // p) - S(p - 1) numbers left in [2, v] whose smallest prime factor is p,
    for every v >= p^2.  v // p of a value x // j is x // (j p), again in the set.
    primes must hold every prime <= sqrt(limit).  Beside the table's int64 entries,
    no update holds temporaries of more than half as many.  Both views index to
    Python ints.
    """
    n, j0, j1 = _pi_entries(x, limit)
    small = np.arange(-1, n - 1, dtype=np.int64)
    small[0] = 0
    large = np.arange(j0, max(j0, j1 + 1), dtype=np.int64)
    np.floor_divide(x, large, out=large)
    large -= 1
    block = max(1, (n + len(large)) // 4)  # two temporaries of this many per gather
    for c, p in enumerate(primes):  # c = S(p - 1), the primes below p
        pp = p * p
        if pp > limit:
            break
        hi = min(j1, x // pp)  # the large values x // j >= p^2
        mid = min(hi, j1 // p)  # up to here x // (j p) is a large value too
        if mid >= j0:
            large[: mid - j0 + 1] -= large[j0 * p - j0 : mid * p - j0 + 1 : p] - c
        for lo in range(max(j0, mid + 1), hi + 1, block):
            part = large[lo - j0 : min(hi, lo + block - 1) - j0 + 1]
            part -= small[x // p // np.arange(lo, lo + len(part), dtype=np.int64)]
            part += c
        if pp < n:  # after the large values have read the old small ones
            rows = (n - pp) // p  # v = p (p + i) + e, 0 <= e < p, reads S(p + i)
            tail = int(small[p + rows]) - c
            grid = small[pp : pp + p * rows].reshape(rows, p)
            grid -= (small[p : p + rows] - c)[:, None]
            small[pp + p * rows :] -= tail
    return small.data, large.data, j0


def count_smooth(x: int, primes: Sequence[int], y: int) -> int:
    """Psi(x, y) for 2 <= y < x; primes are the primes <= y, ascending.

    Grouping n > 1 by its largest prime factor p_j gives the memoised recursion
    C(m, k) = 1 + sum over j < k with p_j <= m of C(m // p_j, j + 1) (Hildebrand and
    Tenenbaum, JTNB 5, 1993).  Each level divides m by 2 or more: depth <= log2(x).
    C(m, 1) counts the powers of 2, m.bit_length() of them, and C(m, k) = m when
    every prime <= m is allowed and m <= y.  Let q = p_k, or y + 1 for k = len(primes).
    C(m, k) is a leaf when q^2 > m: each n <= m has at most one prime factor outside
    p_0..p_{k-1}, and it is q or more, so C(m, k) = m - sum over t <= m // q of
    (pi(m // t) - k).  A t with y < m // t below the first prime above y adds 0, so
    y + 1 serves.  Every m // t is some x // j <= min(x, (y + 1)^2 - 1), from a _pi_table.
    """
    memo: dict[tuple[int, int], int] = {}
    small, large, j0 = _pi_table(x, min(x, (y + 1) ** 2 - 1), primes)
    r = math.isqrt(x)

    def count(m: int, k: int) -> int:
        below = bisect_right(primes, m)
        if k >= below:
            if m <= y:
                return m
            k = below  # primes above m divide no n <= m
        if k == 1:
            return m.bit_length()
        key = (m, k)
        total = memo.get(key)
        if total is None:
            if (q := y + 1 if k == len(primes) else primes[k]) ** 2 > m:
                t_end = m // q
                t_mid = min(t_end, m // (r + 1))  # up to here m // t > isqrt(x)
                total = m + k * t_end
                for t in range(1, t_mid + 1):
                    total -= large[x // (m // t) - j0]
                for t in range(t_mid + 1, t_end + 1):
                    total -= small[m // t]
            else:
                total = 1
                for j in range(k):
                    total += count(m // primes[j], j + 1)
            memo[key] = total
        return total

    return count(x, len(primes))


PI_ENTRY_BYTES = 12  # a pi-table entry: its int64 and at most half as much in temporaries
# A prime psi_count lists: its 4-byte sieve entry, a list slot and its int.  tracemalloc
# reads 39.7 bytes a prime at 10^6 and 10^7; pymalloc puts each 28-byte int in a
# 32-byte block, so the process holds about 44, and 48 keeps a margin over that.
PRIME_LIST_BYTES = 48


def pi_table_bytes(x: int, y: int) -> int:
    """Bytes charged for the pi table that psi_count(x, y) builds, y < x: its v < (y + 1)^2."""
    n, j0, j1 = _pi_entries(x, min(x, (y + 1) ** 2 - 1))
    return PI_ENTRY_BYTES * (n + max(0, j1 - j0 + 1))


def psi_charge(x: int, y: int) -> dict[str, int]:
    """What psi_count(x, y) builds, as check_budget's {name: bytes}; nothing unless 2 <= y < x."""
    if not 2 <= y < x:
        return {}
    return {"prime list": PRIME_LIST_BYTES * prime_count_bound(y), "pi table": pi_table_bytes(x, y)}


def psi_count(x: int, y: int, table: FactorTable | None = None) -> int:
    """Count the y-smooth integers n <= x (n = 1 included), from the primes <= y and a pi table.

    Beside the list of the primes <= y, count_smooth builds a table of pi(v) for the
    v = x // j below (y + 1)^2: min(isqrt(x), (y + 1)^2 - 1) + 1 int64 entries for
    v <= isqrt(x) and one for each larger such v, at most isqrt(x).  The
    primes <= y come from sieve_primes(y); no factor table is read, not even for its
    zeros.  One that is passed bounds the domain: x above table.limit raises
    DomainError.  Without one, x above 2^40 raises ResourceError.
    For y >= x every n <= x counts, and x returns with no primes listed.
    """
    if x < 1:
        raise DomainError(f"psi_count needs x >= 1, got {x}")
    if y < 1:
        raise DomainError(f"psi_count needs y >= 1, got {y}")
    if table is not None and x > table.limit:
        raise DomainError(f"x={x} exceeds table limit {table.limit}")
    check_ceiling("x", x)
    if y >= x:
        return x
    if y < 2:
        return 1
    return count_smooth(x, sieve_primes(y).primes.tolist(), y)


def shift_charge() -> dict[str, int]:
    """What either Pi route holds beside the tables, as check_budget's {name: bytes}."""
    return {"shift working room": SHIFT_WORKING_BYTES}


Masks = Iterator[tuple[np.ndarray, np.ndarray]]  # (candidates, mask); the marked ones are members


def check_shift_domain(name: str, x: int, y: int) -> None:
    """DomainError, naming the caller name, unless x >= 2 and y >= 1: Pi and P's domain."""
    if x < 2 or y < 1:
        raise DomainError(f"{name} needs x >= 2 and y >= 1, got x={x}, y={y}")


def _walk_masks(x: int, y: int, primes: PrimeTable, table: FactorTable) -> Masks:
    """Yield (chunk, mask) over the primes p <= x, PI_CHUNK at a time; mask marks y-smooth p-1.

    2 <= y < x.  p-1 loses its factors of 2 at once, then its factors of 3,
    and its cofactor m, prime to 6, walks up the spf chain in uint32 values
    (uint64 from x > 2^32), whatever the table's dtype.  3 | m is tested
    without a division: m times the inverse of 3 mod 2^32 (2^64) is m / 3
    when 3 | m and above a third of 2^32 (2^64) when not.  At y = 2 only
    m = 1 passes.  An entry passes as soon as m <= y, since no factor of m
    then exceeds y.  It fails at a 0 slot (m itself a prime, above y) or at
    an spf above y.  Each step divides the entries still walking and
    compacts them with one index.
    """
    ps = primes.primes[: primes.pi(x)]
    dtype = np.uint32 if x <= 2**32 else np.uint64
    inverse = dtype(0xAAAAAAAB if dtype is np.uint32 else 0xAAAAAAAAAAAAAAAB)  # 3 * inverse = 1
    third = dtype(np.iinfo(dtype).max // 3)
    spf_odd = table.spf_odd
    for lo in range(0, len(ps), PI_CHUNK):
        chunk = ps[lo : lo + PI_CHUNK]
        m = chunk.astype(dtype)
        m -= 1
        low = np.negative(m)  # wraps: low & m is the lowest set bit of m
        low &= m
        m //= low  # the odd part
        if y == 2:  # no slot holds a multiple of 3, and 3 fails anyway
            yield chunk, m == 1
            continue
        threes = np.flatnonzero(m * inverse <= third)
        while threes.size:
            m[threes] //= 3
            threes = threes[m[threes] * inverse <= third]
        mask = m <= y
        idx = np.flatnonzero(~mask)
        m = m[idx]
        while idx.size:
            spf = spf_odd.take(m // 3)
            ok = (spf != 0) & (spf <= y)
            m //= np.maximum(spf, 1)  # m stays above y at a 0 slot or an spf above y
            done = m <= y
            mask[idx] = done
            keep = np.flatnonzero(ok & ~done)
            idx, m = idx[keep], m[keep]
        yield chunk, mask


def _smooth_cofactors(x: int, y: int, primes: PrimeTable) -> np.ndarray | None:
    """The odd y-smooth k <= (x - 1) / 2, sorted, 2 <= y < x; None once they outgrow the cap.

    They are built one odd prime q <= y at a time: each k so far is
    multiplied by q, q^2, ... while it stays in range.  They sit in uint32
    (uint64 from x > 2^32), and the cap allows three entries' bytes for each,
    SHIFT_WORKING_BYTES in all.  It is checked before each concatenation,
    which holds two.  _enumerate_masks then holds ks, a byte a k, and one
    chunk's working arrays: at the cap (20 + 19) PI_CHUNK bytes, or (18 + 29)
    from x > 2^32, within SHIFT_WORKING_BYTES = 48 PI_CHUNK.
    """
    dtype = np.uint32 if x <= 2**32 else np.uint64
    cap = SHIFT_WORKING_BYTES // (3 * np.dtype(dtype).itemsize)
    top = (x - 1) >> 1
    ks = np.ones(1, dtype=dtype)
    for q in primes.primes[1 : primes.pi(y)].tolist():
        powers = [ks]
        size = len(ks)
        new = ks
        while len(new := new[new <= top // q] * dtype(q)):
            size += len(new)
            if size > cap:
                return None
            powers.append(new)
        ks = np.concatenate(powers)
    ks.sort()
    return ks


def _enumerate_masks(x: int, ks: np.ndarray, table: FactorTable) -> Masks:
    """Yield (candidates, mask) per doubling level, mask marking the primes; p = 2 and 3 come first.

    ks are the sorted odd smooth cofactors of _smooth_cofactors, and
    3 <= x <= table.limit.  Level a reads the slots p // 3 of the prefix of
    ks with p = 2^a k + 1 <= x, PI_CHUNK at a time.  3 divides p exactly
    when 2^a k = 2 (mod 3), that is when k = 1 (mod 3) for odd a and k = 2
    for even a: those p have no slot, so their reads are clipped to the
    table and unmarked.  The slots are made in place and then overwritten by
    p.  Beside ks and their residues mod 3 (uint8), a chunk holds its
    candidates, take's intp copy of their slots and one gather from the
    table, or then the mask and one bool temporary, while the caller still
    holds the last chunk's pair: at most 19 bytes a candidate, 29 from
    x > 2^32.
    """
    yield np.array([2, 3], dtype=ks.dtype), np.ones(2, dtype=bool)
    spf_odd = table.spf_odd
    residues = (ks % 3).astype(np.uint8)
    for a in range(1, (x - 1).bit_length()):
        shift = ks.dtype.type(a)
        n = np.searchsorted(ks, ks.dtype.type((x - 1) >> a), side="right")  # an int key would cast ks
        for lo in range(0, n, PI_CHUNK):
            k = ks[lo : min(n, lo + PI_CHUNK)]
            p = k << shift
            p |= 1
            p //= 3
            mask = spf_odd.take(p, mode="clip") == 0
            mask &= residues[lo : lo + len(k)] != 2 - (a & 1)
            np.left_shift(k, shift, out=p)
            p |= 1
            yield p, mask


def _shifted_smooth_masks(
    name: str, x: int, y: int, primes: PrimeTable, table: FactorTable
) -> Masks:
    """(candidates, mask) pairs whose marked entries are the primes p <= x with y-smooth p - 1.

    Each pair's candidates ascend.  Two exact routes: the walk (_walk_masks)
    reads every prime <= x; the enumeration (_smooth_cofactors, then
    _enumerate_masks) does work in proportion to Psi(x, y), for which
    x rho(log x / log y) stands as a cost estimate and never enters a count.
    It runs when that estimate is at most ENUMERATE_SHARE of pi(x) and
    x <= table.limit, since it reads the slot of p itself.  It hands over to
    the walk when its cofactors outgrow SHIFT_WORKING_BYTES.  Either route
    holds at most SHIFT_WORKING_BYTES beside the tables.  y < 2 keeps only p = 2.
    """
    check_shift_domain(name, x, y)
    if x > primes.limit or x - 1 > table.limit:
        raise DomainError(f"x={x} exceeds table limits")
    y = min(y, x - 1)  # no factor of p-1 exceeds x-1
    if y < 2:
        return iter([(primes.primes[:1], np.ones(1, dtype=bool))])
    estimate = x * dickman_rho(math.log(x) / math.log(y))
    if estimate <= ENUMERATE_SHARE * primes.pi(x) and x <= table.limit:
        ks = _smooth_cofactors(x, y, primes)
        if ks is not None:
            logger.debug("%s(%d, %d): estimate %.4g, enumerate", name, x, y, estimate)
            return _enumerate_masks(x, ks, table)
        logger.debug("%s(%d, %d): estimate %.4g, over the cap, walk", name, x, y, estimate)
    else:
        logger.debug("%s(%d, %d): estimate %.4g, walk", name, x, y, estimate)
    return _walk_masks(x, y, primes, table)


def pi_smooth_count(x: int, y: int, primes: PrimeTable, table: FactorTable) -> int:
    """Count primes p <= x with p-1 being y-smooth, by either route of _shifted_smooth_masks."""
    masks = _shifted_smooth_masks("pi_smooth_count", x, y, primes, table)
    return sum(int(np.count_nonzero(mask)) for _, mask in masks)


def shifted_smooth_set(
    x: int,
    y: int,
    primes: PrimeTable,
    table: FactorTable,
) -> ShiftedSmoothSet:
    """Materialise the set of primes p <= x with y-smooth shift p-1, in increasing order.

    The walk of _shifted_smooth_masks finds its members in order; the
    enumeration's doubling levels interleave, so only then is a sort needed.
    """
    masks = _shifted_smooth_masks("shifted_smooth_set", x, y, primes, table)
    found = np.concatenate([c[mask] for c, mask in masks])
    if np.any(found[1:] < found[:-1]):
        found.sort()
    members = tuple(found.tolist())
    return ShiftedSmoothSet(x=x, y=y, members=members, count=len(members))


# ---------------------------------------------------------------------------
# Dickman rho
# ---------------------------------------------------------------------------

_TERMS = 60  # series terms per unit interval; at xi = 1 the tail is below 2^-60 of the sum


class _DickmanSeries:
    """Power series of rho on each unit interval, built interval by interval.

    coeffs[k - 1] holds c_0..c_59 with rho(k - xi) = sum of c_i xi^i for 0 <= xi <= 1
    (Marsaglia, Zaman and Marsaglia, Math. Comp. 53, 1989); rho = 1 on [0, 1].
    u rho'(u) = -rho(u-1) gives c_{m+1}^(k) = (c_m^(k-1) + m c_m^(k)) / (k (m+1)),
    and k rho(k) = integral of rho over [k-1, k] gives
    c_0^(k) = sum over i >= 1 of c_i^(k) / ((i+1)(k-1)).  For k = 2 these are the
    coefficients of 1 - ln(2 - xi) = 1 - ln 2 + sum over i >= 1 of (xi/2)^i / i.
    Every coefficient is positive, so each value is a sum of positive terms.
    """

    def __init__(self) -> None:
        self.coeffs: list[list[float]] = [[1.0] + [0.0] * (_TERMS - 1)]
        self._lock = threading.Lock()

    def extend_to(self, k: int) -> None:
        with self._lock:
            while len(self.coeffs) < k:
                k_new = len(self.coeffs) + 1
                prev = self.coeffs[-1]
                c = [0.0] * _TERMS
                for m in range(_TERMS - 1):
                    c[m + 1] = (prev[m] + m * c[m]) / (k_new * (m + 1))
                c[0] = sum(c[i] / (i + 1) for i in range(1, _TERMS)) / (k_new - 1)
                self.coeffs.append(c)

    def eval(self, u: float) -> float:
        k = max(1, math.ceil(u))  # u = 0 lies in the first interval too
        self.extend_to(k)
        xi = k - u
        v = 0.0
        for c in reversed(self.coeffs[k - 1]):
            v = v * xi + c
        return v


_SERIES = _DickmanSeries()


def dickman_rho(u: float) -> float:
    """Dickman's rho: 1 on [0, 1], then u rho'(u) = -rho(u-1).

    Every value is a sum of positive series terms, so its error is relative:
    below 2e-15 of rho(u) while rho(u) is a normal double (u up to about
    127.3).  Subnormal values lose digits, and from about u = 132.8 rho(u) is
    below the smallest double and 0.0 is returned.  rho(u) <= 1/Gamma(u + 1)
    (Tenenbaum, Introduction to Analytic and Probabilistic Number Theory,
    III.5), below half the smallest double once lgamma(u + 1) > 1075 ln 2,
    from about u = 177.5; so for u > RHO_CUTOFF = 178 no series is built
    and 0.0 is returned at once (logged).
    """
    u = float(u)
    if not u >= 0:  # nan too
        raise DomainError(f"dickman_rho needs u >= 0, got {u}")
    if u > RHO_CUTOFF:
        logger.warning("dickman_rho(%g): underflow-to-zero beyond u=%g", u, RHO_CUTOFF)
        return 0.0
    return _SERIES.eval(u)


# ---------------------------------------------------------------------------
# Ratio tables
# ---------------------------------------------------------------------------

def _round_sig(v: float, digits: int = 12) -> float:
    return float(f"{v:.{digits}g}")


def check_z_values(name: str, z_values: Iterable[int], y_rule: YRule) -> list[int]:
    """The z values sorted; DomainError unless there are some, each >= 2, where y_rule gives a y."""
    zs = sorted(int(z) for z in z_values)
    if not zs or zs[0] < 2:  # pi(z) > 0 and log(log z) need z >= 2
        raise DomainError(f"{name} needs z values, each at least 2")
    y_rule.y_for(zs[0])  # y_for is monotone in z, so the two ends bound every y
    y_rule.y_for(zs[-1])
    return zs


def conjecture_table(
    z_values: Sequence[int],
    y_rule: YRule,
    tables: Tables,
) -> list[ConjectureRow]:
    """Exact ratio rows: shifted-smooth primes over all primes vs smooth integers over z."""
    zs = check_z_values("conjecture_table", z_values, y_rule)
    rows = []
    for z in zs:
        if z > tables.limit:
            raise DomainError(f"z={z} exceeds table limit {tables.limit}")
        y = y_rule.y_for(z)
        n_primes = tables.primes.pi(z)
        n_shifted = pi_smooth_count(z, y, tables.primes, tables.factors)
        n_smooth = psi_count(z, y, tables.factors)
        rows.append(
            ConjectureRow(
                z=z,
                y=y,
                pi=n_primes,
                pi_smooth=n_shifted,
                psi=n_smooth,
                lhs_ratio=n_shifted / n_primes,
                rhs_ratio=n_smooth / z,
            )
        )
    return rows


CSV_HEADER = "z,y,pi,pi_smooth,psi,lhs_ratio,rhs_ratio"


def rows_to_csv(rows: Iterable[ConjectureRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.z},{r.y},{r.pi},{r.pi_smooth},{r.psi},"
            f"{r.lhs_ratio:.12g},{r.rhs_ratio:.12g}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[ConjectureRow]) -> list[dict]:
    return [
        {**asdict(r), "lhs_ratio": _round_sig(r.lhs_ratio), "rhs_ratio": _round_sig(r.rhs_ratio)}
        for r in rows
    ]


def hildebrand_report(
    z_values: Sequence[int],
    tables: Tables,
) -> list[HildebrandRow]:
    """Observed exponent e(z) = -log(psi/z) / (sqrt(log z) loglog z) at y = round(e^sqrt(log z))."""
    rule = YRule("hild")
    rows = []
    for z in check_z_values("hildebrand_report", z_values, rule):
        lz = math.log(z)
        y = rule.y_for(z)
        n_smooth = psi_count(z, y, tables.factors)
        ratio = n_smooth / z
        exponent = -math.log(ratio) / (math.sqrt(lz) * math.log(lz))
        rows.append(HildebrandRow(z=z, y=y, psi=n_smooth, ratio=ratio, exponent=exponent))
    return rows
