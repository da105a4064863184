"""Smooth-integer arithmetic: prime sieves, canonical factorizations,
S(x, y) = {n <= x : P(n) <= y} as an ordered columnar table (and as a
stream of factorizations read from it), and exact counts of |S(x, y)| by
two independent methods.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import inf, isqrt, log
from typing import Iterator

import numpy as np

from friabilis._backend import kernels
from friabilis.errors import DomainError, ResourceLimitError

SIEVE_CEILING = 10**7  # largest admissible sieve limit
ENUM_CEILING = 10**8  # largest admissible |S(x, y)| per enumeration
MEMO_CEILING = 10**7  # largest admissible recursion memo table
N_CEILING = 2**62  # divisor products must stay inside int64
MEMORY_CEILING = 4 * 2**30  # largest admissible estimated bytes of a smooth_table
# Bytes per row of S(x, y) that smooth_table's estimate charges.  The build
# alone peaks at 66 (tracemalloc: 194 MB for the 2,944,730 rows of
# S(1e9, 100), with every row gather along axis 0); a whole `average` run,
# the heaviest caller, at 181 (peak RSS 1,590 MB for the 8,800,084 rows of
# S(1e10, 100)).  The larger, rounded up: at this rate S(1e10, 100) needs
# 1.7 GB and S(1e11, 100), 24.9M rows, 4.8 GB, past the ceiling.
ROW_BYTES = 192


class _PrimeCache:
    """The primes up to the largest limit sieved so far, as a read-only array.

    The sieved range grows geometrically, to at most SIEVE_CEILING, so a run
    of requests with rising limits sieves a logarithmic number of times and
    every answer is a slice.
    """

    def __init__(self):
        self.size = 0  # integers 0..size-1 are sieved
        self.primes = np.zeros(0, dtype=np.int64)

    def primes_upto(self, limit: int) -> np.ndarray:
        if limit >= self.size:
            grown = max(limit, min(2 * self.size, SIEVE_CEILING))
            self.primes = np.flatnonzero(kernels.prime_mask(grown)).astype(np.int64)
            self.primes.flags.writeable = False
            self.size = grown + 1
        return self.primes[: np.searchsorted(self.primes, limit, side="right")]


_primes = _PrimeCache()


def sieve_primes(limit) -> np.ndarray:
    """All primes <= limit as an ascending, read-only int64 array.

    Values below 2 give an empty array; limits above SIEVE_CEILING raise
    ResourceLimitError before any sieving.
    """
    limit = int(limit)
    if limit > SIEVE_CEILING:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}"
        )
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return _primes.primes_upto(limit)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization n = prod p**e with strictly increasing primes.

    The empty tuple represents n = 1.  Exponents are >= 1; both constraints
    are enforced on construction.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise DomainError("primes must be strictly increasing")
            if e < 1:
                raise DomainError("exponents must be >= 1")
            last = p

    @cached_property
    def n(self) -> int:
        value = 1
        for p, e in self.factors:
            value *= p**e
        return value

    @cached_property
    def log_n(self) -> float:
        return sum(e * log(p) for p, e in self.factors)

    @property
    def tau(self) -> int:
        t = 1
        for _, e in self.factors:
            t *= e + 1
        return t

    @property
    def omega(self) -> int:
        return len(self.factors)


_TRIAL_FIRST = 1_000  # the first prefix of trial primes that factorize() takes
_TRIAL_GROWTH = 32  # and the factor by which each later prefix grows


def factorize(n) -> Factorization:
    """Factor n by trial division over sieved primes.

    n must satisfy 1 <= n < 2**62 so downstream divisor products stay in
    int64.  Trial primes are taken in growing prefixes, the primes up to
    _TRIAL_FIRST and then _TRIAL_GROWTH times further each time, with one
    vectorized m % p pass per prefix picking the ones that divide what is
    left, m.  The walk stops once the last prime tried is at least sqrt(m),
    so a smooth n sieves and divides no further than its own primes need;
    the cofactor m is then 1 or prime.  Past SIEVE_CEILING a cofactor that
    trial division cannot certify raises ResourceLimitError rather than
    guessing.
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    if n >= N_CEILING:
        raise DomainError(f"n must be < 2**62, got an integer of {n.bit_length()} bits")
    factors = []
    m = n
    tried = 1  # every prime <= tried is divided out of m
    limit = _TRIAL_FIRST
    while tried < min(isqrt(m), SIEVE_CEILING):
        top = min(limit, isqrt(m), SIEVE_CEILING)
        primes = sieve_primes(top)
        primes = primes[np.searchsorted(primes, tried, side="right") :]
        for p in primes[m % primes == 0].tolist():  # m < 2**62 fits in int64
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        tried = top
        limit *= _TRIAL_GROWTH
    if m > 1:
        if isqrt(m) > tried:
            raise ResourceLimitError(
                f"cofactor {m} has no prime factor <= {SIEVE_CEILING}; "
                "certifying it needs trial division past the sieve ceiling"
            )
        factors.append((m, 1))
    return Factorization(tuple(factors))


_ITER_BLOCK = 4096  # rows turned into Python tuples at a time by factorizations()


@dataclass(frozen=True)
class SmoothTable:
    """S(x, y) as columns, one row per n in increasing order.

    n is int64.  basis holds every prime <= min(x, y), the primes a slot
    can take.  slots and exps (int8) are matrices of shape (rows, width):
    row i holds the factorization of n[i], its primes ascending in the
    first omega(n[i]) slots, each slot as the index of its prime in basis.
    The rest is padding, slot len(basis) with e = 0.  slots has the
    smallest unsigned dtype that holds len(basis) (uint8 while
    pi(y) <= 255).
    """

    n: np.ndarray
    slots: np.ndarray
    exps: np.ndarray
    basis: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    @cached_property
    def _slot_primes(self) -> np.ndarray:
        return np.append(self.basis, 1)

    def primes(self, index) -> np.ndarray:
        """The int64 primes in slots[index] (some rows, or (rows, columns)),
        1 in padding.  An index array of rows is gathered along axis 0."""
        if isinstance(index, np.ndarray):
            return np.take(self._slot_primes, np.take(self.slots, index, axis=0))
        return self._slot_primes[self.slots[index]]

    def factorizations(self) -> Iterator[Factorization]:
        """Every row as a Factorization, in increasing n."""
        for lo in range(0, len(self.n), _ITER_BLOCK):
            block = slice(lo, lo + _ITER_BLOCK)
            widths = np.count_nonzero(self.exps[block], axis=1).tolist()
            rows = zip(
                self.n[block].tolist(),
                self.primes(block).tolist(),
                self.exps[block].tolist(),
                widths,
            )
            for n, ps, es, w in rows:
                f = Factorization(tuple(zip(ps[:w], es[:w])))
                f.__dict__["n"] = n
                yield f


def smooth_table(x, y) -> SmoothTable:
    """S(x, y) as a SmoothTable, for 1 <= x < 2**62; |S(x, y)| >
    ENUM_CEILING raises ResourceLimitError.

    Rows grow from n = 1 one prime at a time, in ascending order, so a new
    factor always lands in the next free slot, and each row is complete
    when it is made: a copy of its parent's row with one slot written.  The
    slot width, the most primes any n <= x can have, is known up front.  A
    prime p <= sqrt(x) gives every row with n p^k <= x a child n p^k.  Only
    the live rows, those with n <= x / p, can take p or a later prime; each
    prime filters them and adds its children, so no step rescans the whole
    table.  A prime p > sqrt(x) divides n at most once and as its largest
    prime, so its children are p times the live rows up to x / p, a prefix
    of them sorted by n.  The row count, and the bytes estimated from it at
    ROW_BYTES a row, are checked against ENUM_CEILING and MEMORY_CEILING
    before each step allocates its rows.
    """
    x = int(x)
    y = int(y)
    if x < 1:
        raise DomainError("x must be >= 1")
    if x >= N_CEILING:
        raise DomainError(f"x must be < 2**62, got an integer of {x.bit_length()} bits")
    basis = sieve_primes(min(x, y))
    slot_type = np.min_scalar_type(len(basis))
    root = isqrt(x)

    def check(size: int) -> None:
        if size > ENUM_CEILING:
            raise ResourceLimitError(
                f"enumeration of S({x}, {y}) exceeds ceiling {ENUM_CEILING}"
            )
        if size * ROW_BYTES > MEMORY_CEILING:
            raise ResourceLimitError(
                f"table of S({x}, {y}) needs at least {size} rows, an estimated "
                f"{size * ROW_BYTES} bytes, past the memory ceiling {MEMORY_CEILING}"
            )

    def keep(rows, mask):
        return tuple(np.compress(mask, c, axis=0) for c in rows)

    def times(rows, i, k, pk):  # i and pk may hold one value per row
        n, omega, slots, exps = rows
        slots, exps = slots.copy(), exps.copy()
        at = np.arange(len(n)), omega
        slots[at] = i
        exps[at] = k
        return n * pk, omega + 1, slots, exps

    width, product = 0, 1  # the most primes of any n <= x: the first ones
    for p in basis.tolist():
        product *= p
        if product > x:
            break
        width += 1
    width = max(width, 1)  # n = 1 keeps one padding slot
    # a row is (n, omega, slots, exps); live holds the rows with n <= x / p
    live = (
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.int8),
        np.full((1, width), len(basis), dtype=slot_type),
        np.zeros((1, width), dtype=np.int8),
    )
    blocks = [live]
    size = 1
    small = int(np.searchsorted(basis, root, side="right"))
    for i, p in enumerate(basis[:small].tolist()):
        live = keep(live, live[0] <= x // p)
        grown, rows, pk, k = [live], live, p, 1
        while len(rows[0]):
            size += len(rows[0])
            check(size)
            grown.append(times(rows, i, k, pk))
            pk *= p
            k += 1
            rows = keep(rows, rows[0] <= x // pk)
        blocks += grown[1:]
        live = tuple(np.concatenate(c) for c in zip(*grown))

    if small < len(basis):
        large = basis[small:]
        order = np.argsort(live[0])
        counts = np.searchsorted(live[0][order], x // large, side="right")
        total = int(counts.sum())
        check(size + total)
        starts = np.cumsum(counts) - counts
        par = order[np.arange(total) - np.repeat(starts, counts)]
        index = np.repeat(np.arange(small, len(basis), dtype=slot_type), counts)
        parents = tuple(np.take(c, par, axis=0) for c in live)
        blocks.append(times(parents, index, 1, np.repeat(large, counts)))

    # freed before the sort copies the columns: at S(1e9, 100) the traced
    # peak falls from 71 to 66 bytes a row
    del live
    n, _, slots, exps = (np.concatenate(c) for c in zip(*blocks))
    del blocks
    order = np.argsort(n)
    n, slots, exps = (np.take(c, order, axis=0) for c in (n, slots, exps))
    return SmoothTable(n=n, slots=slots, exps=exps, basis=basis)


@dataclass(frozen=True)
class SmoothSet:
    """S(x, y) as a restartable stream of factorizations in increasing n.

    Each __iter__ call builds the table afresh and streams its rows, so one
    SmoothSet can back several consumers.
    """

    x: int
    y: int

    def __iter__(self) -> Iterator[Factorization]:
        return smooth_table(self.x, self.y).factorizations()


def enumerate_smooth(x, y) -> SmoothSet:
    """The stream of y-smooth integers n <= x, ascending, as Factorizations.

    Starting the stream raises ResourceLimitError, before the first item,
    if the count passes ENUM_CEILING.
    """
    x = int(x)
    y = int(y)
    if x < 1:
        raise DomainError("x must be >= 1")
    if y < 2:
        raise DomainError("y must be >= 2")
    return SmoothSet(x, y)


def _psi_floor(x: int, primes: np.ndarray) -> int:
    """A lower bound on |S(x, y)|, given the primes <= min(x, y): n = 1, the
    primes themselves and the products pq <= x with p <= q, all distinct."""
    x = min(x, N_CEILING)  # keeps x // p in int64; a smaller x bounds lower
    q_max = np.searchsorted(primes, x // primes, side="right")
    pairs = np.maximum(q_max - np.arange(len(primes)), 0)
    return 1 + len(primes) + int(pairs.sum())


def psi_exact(x, y, *, limit: int = ENUM_CEILING) -> int:
    """|S(x, y)| by explicit enumeration (depth-first product walk).

    Every smooth integer is visited once; no counting identities are used,
    which keeps the count independent of psi_recursive.  When the count
    passes `limit` it raises ResourceLimitError, before walking at all if
    _psi_floor or psi_recursive's recursion, stopped past `limit`, does.
    """
    x = int(x)
    y = int(y)
    if x < 1:
        return 0
    if y < 2:
        return 1
    primes = sieve_primes(min(x, y))
    floor = _psi_floor(x, primes)
    primes = primes.tolist()
    if floor <= limit:  # the floor is weak at small y: count up to the budget
        floor = min(_psi_count(x, primes, stop=limit + 1), limit + 1)
    if floor > limit:
        raise ResourceLimitError(
            f"enumeration of S({x}, {y}) exceeds ceiling {limit}: "
            f"it has at least {floor} elements"
        )
    total = 0
    stack = [(x, 0)]
    while stack:
        bound, i = stack.pop()
        total += 1
        if total > limit:
            raise ResourceLimitError(
                f"enumeration of S({x}, {y}) exceeds ceiling {limit}"
            )
        for j in range(i, len(primes)):
            p = primes[j]
            if p > bound:
                break
            stack.append((bound // p, j))
    return total


def psi_recursive(x, y) -> int:
    """|S(x, y)| via the memoized recursion Psi(x, y) = 1 + sum over p <= y
    of Psi(x/p, p), splitting on the largest prime factor.
    """
    x = int(x)
    y = int(y)
    if x < 1:
        return 0
    if y < 2:
        return 1
    return _psi_count(x, sieve_primes(min(x, y)).tolist())


def _psi_count(x: int, primes: list[int], stop: float = inf) -> int:
    """psi_recursive's count over the primes <= min(x, y).  A running total
    that reaches `stop` is returned at once, unmemoized: a floor >= stop."""
    memo: dict[tuple[int, int], int] = {}

    def rec(bound: int, k: int) -> int:
        # number of integers <= bound composed of the first k primes
        if k and primes[k - 1] > bound:
            k = bisect_right(primes, bound, 0, k)
        if k == 0:
            return 1 if bound >= 1 else 0
        if k == 1:  # the powers of 2 up to bound; keeps the depth near log_3 x
            return bound.bit_length()
        key = (bound, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 1
        for j in range(k):
            total += rec(bound // primes[j], j + 1)
            if total >= stop:
                return total
        if len(memo) >= MEMO_CEILING:
            raise ResourceLimitError(f"memo table exceeds ceiling {MEMO_CEILING}")
        memo[key] = total
        return total

    return rec(x, len(primes))
