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

from friabilis import _kernels_py as kernels
from friabilis.errors import DomainError, ResourceLimitError

SIEVE_CEILING = 10**7  # largest admissible sieve limit
ENUM_CEILING = 10**8  # largest admissible |S(x, y)| per enumeration
MEMO_CEILING = 10**7  # largest admissible recursion memo table
N_CEILING = 2**62  # divisor products must stay inside int64
MEMORY_CEILING = 4 * 2**30  # largest admissible estimated bytes of one growth of S(x, y)
# Bytes per row of S(x, y) that smooth_table's estimate charges.  The build
# alone peaks at 61 (tracemalloc: 180 MB for the 2,944,730 rows of
# S(1e9, 100), with every row gather along axis 0); a whole `average` run,
# the heaviest caller, at 181 (peak RSS 1,590 MB for the 8,800,084 rows of
# S(1e10, 100)).  The larger, rounded up: at this rate S(1e10, 100) needs
# 1.7 GB and S(1e11, 100), 24.9M rows, 4.8 GB, past the ceiling.
ROW_BYTES = 192
LARGE_BLOCK = 2**16  # most rows of a smooth_blocks block of n with P(n) > sqrt(x)


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


def _check_x(x: int) -> None:
    if x < 1:
        raise DomainError("x must be >= 1")
    if x >= N_CEILING:
        raise DomainError(f"x must be < 2**62, got an integer of {x.bit_length()} bits")


def _check_size(x: int, y: int, size: int, row_bytes: int) -> None:
    """Refuse S(x, y) when `size`, a count of its rows or a floor of it,
    passes ENUM_CEILING, or its bytes at row_bytes a row pass
    MEMORY_CEILING."""
    if size > ENUM_CEILING:
        raise ResourceLimitError(
            f"enumeration of S({x}, {y}) exceeds ceiling {ENUM_CEILING}"
        )
    if size * row_bytes > MEMORY_CEILING:
        raise ResourceLimitError(
            f"S({x}, {y}) needs at least {size} rows, an estimated "
            f"{size * row_bytes} bytes, past the memory ceiling {MEMORY_CEILING}"
        )


def _keep(rows: tuple, mask: np.ndarray) -> tuple:
    return tuple(np.compress(mask, c, axis=0) for c in rows)


def smooth_blocks(x, y, row_bytes: int, root: tuple, times) -> Iterator[tuple]:
    """S(x, y), for 1 <= x < 2**62, in the blocks its growth makes: the row
    n = 1, then for each prime p <= sqrt(x), ascending, the rows n p^k for
    k = 1, 2, ..., then the n whose largest prime passes sqrt(x), at most
    LARGE_BLOCK rows a block.  Blocks are disjoint, and every n of S(x, y)
    is in one.

    A block is a tuple of columns, n (int64) first, each with one entry
    (or row) per n.  root is the block of n = 1, and times(rows, i, k, pk) is a block of rows
    times p^k, pk = p**k and p = basis[i], basis the primes <= min(x, y).
    Past sqrt(x), i and pk hold one value a row, and k = 1.  A block
    yielded is also a parent of later ones: read it, do not write it.

    Rows grow from n = 1 one prime at a time, in ascending order, so a new
    factor is always the largest so far.  A prime p <= sqrt(x) gives every
    row with n p^k <= x a child n p^k.  Only the live rows, those with
    n <= x / p, can take p or a later prime; each prime's parents and
    children are filtered to the next prime's bound before they are joined
    into the next live rows, so no step rescans S(x, y).  A prime
    p > sqrt(x) divides n at most once and as its largest prime, so its
    children are p times the live rows up to x / p, a prefix of them
    sorted by n.  Before each block is made, the count of rows so far is
    checked against ENUM_CEILING, and the bytes it needs at row_bytes a
    row against MEMORY_CEILING; either raises ResourceLimitError.  x is
    checked at the call.
    """
    x = int(x)
    y = int(y)
    _check_x(x)

    def grow() -> Iterator[tuple]:
        basis = sieve_primes(min(x, y))
        small = int(np.searchsorted(basis, isqrt(x), side="right"))
        # x // the next prime: the bound of the live rows after each prime
        # (none are kept after the last)
        bounds = (x // basis[1:]).tolist() + [0]
        yield root
        live, size = root, 1
        for i, p in enumerate(basis[:small].tolist()):
            bound = bounds[i]
            grown, rows, pk, k = [_keep(live, live[0] <= bound)], live, p, 1
            while len(rows[0]):
                size += len(rows[0])
                _check_size(x, y, size, row_bytes)
                block = times(rows, i, k, pk)
                yield block
                grown.append(_keep(block, block[0] <= bound))
                pk *= p
                k += 1
                rows = _keep(rows, rows[0] <= x // pk)
            live = tuple(np.concatenate(c) for c in zip(*grown))
            del grown
        if small < len(basis):
            large = basis[small:]
            order = np.argsort(live[0])
            live = tuple(np.take(c, order, axis=0) for c in live)
            del order
            # each large prime's parents are a prefix of the live rows
            counts = np.searchsorted(live[0], x // large, side="right")
            ends = np.cumsum(counts)
            starts = ends - counts
            total = int(ends[-1])
            _check_size(x, y, size + total, row_bytes)
            for lo in range(0, total, LARGE_BLOCK):
                at = np.arange(lo, min(lo + LARGE_BLOCK, total))
                j = np.searchsorted(ends, at, side="right")
                parents = tuple(np.take(c, at - starts[j], axis=0) for c in live)
                yield times(parents, small + j, 1, large[j])

    return grow()


def smooth_table(x, y) -> SmoothTable:
    """S(x, y) as a SmoothTable, for 1 <= x < 2**62; |S(x, y)| >
    ENUM_CEILING, or |S(x, y)| ROW_BYTES > MEMORY_CEILING, raises
    ResourceLimitError before any row is made.  When x itself passes a
    ceiling (|S(x, y)| <= x), _psi_past bounds the rows first: _psi_floor
    alone refuses S(1e13, 1e7), and the capped count takes about 3 ms at
    S(1e8, 30) and 0.2 s to refuse S(1e11, 100).

    The rows are smooth_blocks' (n, omega, slots, exps).  A prime joins a
    row in ascending order, so it always lands in the next free slot, and
    each row is complete when it is made: a copy of its parent's row with
    one slot written.  The slot width, the most primes any n <= x can
    have, is known up front.  The blocks are joined and sorted by n.
    """
    x = int(x)
    y = int(y)
    _check_x(x)
    basis = sieve_primes(min(x, y))
    cap = min(ENUM_CEILING, MEMORY_CEILING // ROW_BYTES)
    if x > cap:
        _check_size(x, y, _psi_past(x, basis, cap)[0], ROW_BYTES)
    slot_type = np.min_scalar_type(len(basis))

    def times(rows, i, k, pk):
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
    root = (
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.int8),
        np.full((1, width), len(basis), dtype=slot_type),
        np.zeros((1, width), dtype=np.int8),
    )
    # the growth ends before the join, so its live rows are freed first
    blocks = list(smooth_blocks(x, y, ROW_BYTES, root, times))
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


def _psi_past(x: int, primes: np.ndarray, limit: int) -> tuple[int, bool]:
    """(floor, counted): a floor of |S(x, y)|, given the primes <= min(x, y),
    past `limit` if |S(x, y)| is: _psi_floor where that passes `limit`, else
    psi_recursive's count stopped one row past it (counted is True)."""
    floor = _psi_floor(x, primes)
    if floor > limit:
        return floor, False
    return _psi_count(x, primes.tolist(), stop=limit + 1), True


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
    floor, counted = _psi_past(x, primes, limit)
    if floor > limit:
        raise ResourceLimitError(
            f"enumeration of S({x}, {y}) exceeds ceiling {limit}: "
            f"it has at least {min(floor, limit + 1) if counted else floor} elements"
        )
    primes = primes.tolist()
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
