"""The NumPy kernels against definitions and against each other."""

import numpy as np
import pytest

from friabilis import _kernels_py as kpy


def test_fallback_prime_mask_small():
    mask = kpy.prime_mask(30)
    primes = np.nonzero(mask)[0].tolist()
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_fallback_spf_matches_definition():
    spf = kpy.spf_sieve(500)
    for n in range(2, 501):
        p = int(spf[n])
        assert n % p == 0
        for q in range(2, p):
            assert n % q != 0


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 10**4, 10**5 + 1])
def test_tau_sieve_matches_moment_scan(limit):
    # moment_scan builds tau multiplicatively over prime powers and shares
    # no code with the divisor-pair sieve
    np.testing.assert_array_equal(kpy.tau_sieve(limit), kpy.moment_scan(limit)[0])


def test_tau_sieve_against_definition():
    tau = kpy.tau_sieve(200)
    for n in range(1, 201):
        assert tau[n] == sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("v", [0.25, 0.5, 1.0])
def test_small_divisor_count_against_definition(v):
    counts = kpy.small_divisor_count_sieve(300, v)
    for n in range(1, 301):
        brute = sum(1 for d in range(1, n + 1) if n % d == 0 and d <= n**v + 1e-12)
        # the kernel resolves d <= n^v exactly; the float fudge above only
        # widens the brute count, so compare both ways of rounding the edge
        exact = sum(
            1
            for d in range(1, n + 1)
            if n % d == 0 and _le_pow(d, n, v)
        )
        assert counts[n] == exact, (n, v, counts[n], exact, brute)


def test_small_divisor_count_rational_edges():
    # at v = j/k the edge d = n^v is an integer whenever n is a k-th power,
    # so the brute count decides d <= n^v as d^k <= n^j in integers
    limit = 20_000
    divisors = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for n in range(d, limit + 1, d):
            divisors[n].append(d)
    for j, k in [(1, 4), (1, 3), (1, 2), (3, 5), (2, 3), (3, 4), (1, 1)]:
        counts = kpy.small_divisor_count_sieve(limit, j / k)
        brute = [0] + [
            sum(1 for d in divisors[n] if d**k <= n**j) for n in range(1, limit + 1)
        ]
        np.testing.assert_array_equal(counts, brute, err_msg=f"v = {j}/{k}")
    np.testing.assert_array_equal(
        kpy.small_divisor_count_sieve(limit, 1.0), kpy.tau_sieve(limit)
    )


def _le_pow(d: int, n: int, v: float) -> bool:
    # d <= n^v with the edge decided in exact integers when 1/v is integral
    inv = 1.0 / v
    if abs(inv - round(inv)) < 1e-12:
        return d ** round(inv) <= n
    import math

    return math.log(d) <= v * math.log(n)
