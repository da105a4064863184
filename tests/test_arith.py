"""Factorization, smooth enumeration, and Psi counting against brute-force
oracles that share no code with the implementations under test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friabilis.arith import (
    ENUM_CEILING,
    SIEVE_CEILING,
    Factorization,
    SmoothSet,
    _psi_floor,
    enumerate_smooth,
    factorize,
    psi_exact,
    psi_recursive,
    sieve_primes,
    smooth_table,
)
from friabilis.errors import DomainError, ResourceLimitError


def brute_factor(n: int) -> tuple[tuple[int, int], ...]:
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
    return tuple(out)


def brute_psi(x: int, y: int) -> int:
    # largest-prime-factor scan, O(x log x), fully independent of the package
    lpf = np.zeros(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if lpf[p] == 0:
            lpf[p::p] = p
    return 1 + int(np.count_nonzero(lpf[2:] <= y))


@pytest.mark.parametrize("n", [1, 2, 12, 97, 720720, 2**19, 2**61, 3**37, 104729**2])
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == brute_factor(n)


def test_factorize_refuses_uncertifiable_cofactor():
    # 2**62 - 1 = 3 * 715827883 * 2147483647; the big primes sit past the
    # sieve ceiling, so trial division cannot certify the cofactor
    with pytest.raises(ResourceLimitError):
        factorize(2**62 - 1)
    # so does the prime 2**61 - 1, with the same message as before the
    # trial primes were walked in prefixes
    with pytest.raises(ResourceLimitError) as err:
        factorize(2**61 - 1)
    assert str(err.value) == (
        f"cofactor {2**61 - 1} has no prime factor <= {SIEVE_CEILING}; "
        "certifying it needs trial division past the sieve ceiling"
    )


def brute_factor_vectorized(n: int) -> tuple[tuple[int, int], ...]:
    # every d <= sqrt(cofactor) that divides it, in ascending blocks of
    # 2**20; the ones that still divide it when reached are its primes
    out = []
    lo = 2
    while lo <= math.isqrt(n):
        d = np.arange(lo, min(lo + 2**20, math.isqrt(n) + 1), dtype=np.int64)
        for p in d[n % d == 0].tolist():
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        lo += 2**20
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _seeded_large_n() -> list[int]:
    rng = np.random.default_rng(2016)
    seeded = rng.integers(10**12, 10**13, size=12).tolist()
    return seeded + [
        6 * 1_000_000_007,  # a prime cofactor past 1e7
        9_999_991 * 9_999_973,  # two primes near the sieve ceiling
        9_999_991**2,  # p**2 with p near 1e7
        2**61,
        2**5 * 3**3 * 997 * 991 * 983,  # smooth, primes near the first prefix
    ]


@pytest.mark.parametrize("n", _seeded_large_n())
def test_factorize_matches_vectorized_trial_division(n):
    assert factorize(n).factors == brute_factor_vectorized(n)


def test_factorize_of_smooth_n_sieves_only_its_prefix(monkeypatch):
    from friabilis import arith

    monkeypatch.setattr(arith, "_primes", arith._PrimeCache())
    n = 997 * 991 * 983 * 977 * 11  # 1000-smooth, about 1.04e13
    assert factorize(n).factors == ((11, 1), (977, 1), (983, 1), (991, 1), (997, 1))
    assert arith._primes.size - 1 <= 1_000


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_roundtrip(n):
    f = factorize(n)
    prod = 1
    for p, e in f.factors:
        prod *= p**e
    assert prod == n == f.n
    assert all(e >= 1 for _, e in f.factors)
    assert list(dict(f.factors)) == sorted(p for p, _ in f.factors)


def test_factorize_domain():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(2**62)


def test_factorization_accessors():
    f = factorize(360)
    assert f.tau == 24
    assert f.omega == 3
    assert f.max_prime == 5
    assert f.log_n == pytest.approx(math.log(360), rel=1e-15)
    one = factorize(1)
    assert one.tau == 1 and one.omega == 0 and one.max_prime == 1


def test_sieve_primes_small():
    assert sieve_primes(50).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_sieve_ceiling_refuses_before_sieving(monkeypatch):
    from friabilis import arith

    def no_sieve(limit):
        raise AssertionError(f"sieved {limit} past the ceiling")

    monkeypatch.setattr(arith, "_primes", arith._PrimeCache())
    monkeypatch.setattr(arith.kernels, "prime_mask", no_sieve)
    with pytest.raises(ResourceLimitError, match=str(SIEVE_CEILING)):
        sieve_primes(SIEVE_CEILING + 1)


def test_sieve_slices_one_growing_mask(monkeypatch):
    from friabilis import arith

    real = arith.kernels.prime_mask
    limits = []

    def counting_mask(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "_primes", arith._PrimeCache())
    monkeypatch.setattr(arith.kernels, "prime_mask", counting_mask)
    for limit in [*range(1000, 100_000, 997), 50, 999]:
        primes = sieve_primes(limit)
        np.testing.assert_array_equal(primes, np.flatnonzero(real(limit)))
        assert not primes.flags.writeable
    # 98 rising limits cost a logarithmic number of sieves, smaller ones none
    assert len(limits) <= 8, limits


@pytest.mark.parametrize(
    "x,y",
    [(1, 2), (10, 3), (100, 2), (100, 3), (1000, 7), (5000, 13), (300, 300)],
)
def test_psi_against_brute_scan(x, y):
    expect = brute_psi(x, y)
    assert psi_exact(x, y) == expect
    assert psi_recursive(x, y) == expect


def test_enumeration_matches_brute_membership():
    x, y = 2000, 11
    got = sorted(f.n for f in enumerate_smooth(x, y))
    lpf = np.zeros(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if lpf[p] == 0:
            lpf[p::p] = p
    expect = [1] + [n for n in range(2, x + 1) if lpf[n] <= y]
    assert got == expect


def test_enumeration_factorizations_are_consistent():
    for f in enumerate_smooth(3000, 7):
        assert f.factors == brute_factor(f.n)
        assert f.max_prime <= 7


def test_heap_and_range_paths_agree():
    # y >= x takes the sieve path; a filtered heap run must agree with it
    range_ns = [f.n for f in SmoothSet(400, 400)]
    heap_ns = [f.n for f in SmoothSet(400, 397)]  # 397 is the largest prime <= 400
    assert range_ns == heap_ns


def test_smoothset_is_restartable():
    s = enumerate_smooth(500, 5)
    assert [f.n for f in s] == [f.n for f in s]


@pytest.mark.parametrize(
    "y,size,dtype",
    [(1613, 255, np.uint8), (1619, 256, np.uint16)],
    ids=["pi-255", "pi-256"],
)
def test_smooth_table_slots_at_the_uint8_edge(y, size, dtype):
    # pi(1613) = 255 is the largest basis whose padding index fits in uint8
    x = 3 * 10**4
    table = smooth_table(x, y)
    assert len(table.basis) == size
    assert table.slots.dtype == dtype
    pad = table.exps == 0
    assert np.all(table.slots[pad] == size)
    assert np.all(table.slots[~pad] < size)
    assert np.all(table.primes(np.arange(len(table)))[pad] == 1)
    assert len(table) == psi_recursive(x, y)
    want = [factorize(n) for n in table.n.tolist()]
    assert list(table.factorizations()) == want


def test_enumeration_is_sorted_unique():
    ns = [f.n for f in enumerate_smooth(10**5, 13)]
    assert ns == sorted(set(ns))


def test_enumeration_limit_raises():
    with pytest.raises(ResourceLimitError):
        list(SmoothSet(10**6, 7, limit=10))


@pytest.mark.parametrize("x,y", [(1000, 10), (10**4, 150)])
def test_smooth_table_memory_ceiling(monkeypatch, x, y):
    # (1e4, 150) reaches its last rows through the large-prime step
    from friabilis import arith

    rows = psi_recursive(x, y)
    monkeypatch.setattr(arith, "MEMORY_CEILING", rows * arith.ROW_BYTES)
    assert len(smooth_table(x, y)) == rows
    monkeypatch.setattr(arith, "MEMORY_CEILING", rows * arith.ROW_BYTES - 1)
    with pytest.raises(ResourceLimitError, match="memory ceiling"):
        smooth_table(x, y)


def test_psi_conventions_and_limits():
    # degenerate corners take the counting convention, not an error:
    # nothing is <= 0, and only n = 1 is 1-smooth
    assert psi_exact(0, 10) == 0
    assert psi_exact(10, 1) == 1
    assert psi_recursive(0, 10) == 0
    assert psi_recursive(10, 1) == 1
    with pytest.raises(ResourceLimitError):
        psi_exact(10**6, 97, limit=100)
    assert ENUM_CEILING >= 10**8


def test_psi_floor_is_a_lower_bound():
    # y >= x on part of the grid: there the floor counts every prime <= x
    for x in [1, 2, 3, 4, 10, 30, 97, 100, 360, 1000, 4096]:
        for y in [2, 3, 5, 13, 97, 1000, 5000]:
            floor = _psi_floor(x, sieve_primes(min(x, y)))
            assert floor <= psi_recursive(x, y), (x, y)
    # past int64 the floor is taken at a smaller x and the walk still runs
    assert psi_exact(10**20, 3) == psi_recursive(10**20, 3)


def test_psi_exact_refuses_before_walking():
    # the floor at (1e12, 1e6) is 3.08e9, far past a 5M budget
    floor = _psi_floor(10**12, sieve_primes(10**6))
    assert floor > 3 * 10**9
    with pytest.raises(ResourceLimitError, match=str(floor)):
        psi_exact(10**12, 10**6, limit=5_000_000)


@given(
    st.integers(min_value=2, max_value=3000),
    st.sampled_from([2, 3, 5, 7, 11, 13, 19, 97]),
)
@settings(max_examples=80, deadline=None)
def test_psi_pair_agreement(x, y):
    assert psi_exact(x, y) == psi_recursive(x, y)


def test_factorization_rejects_bad_tuples():
    with pytest.raises(DomainError):
        Factorization(((3, 1), (2, 1)))  # out of order
    with pytest.raises(DomainError):
        Factorization(((2, 1), (2, 1)))  # repeated prime
    with pytest.raises(DomainError):
        Factorization(((2, 0),))  # zero exponent
