"""The NumPy kernels against definitions and against each other."""

import math
from fractions import Fraction

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
    counts = kpy.small_divisor_count_sieve(kpy.tau_sieve(300), v)
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
    tau = kpy.tau_sieve(limit)
    for j, k in [(1, 4), (1, 3), (1, 2), (3, 5), (2, 3), (3, 4), (1, 1)]:
        counts = kpy.small_divisor_count_sieve(tau, j / k)
        brute = [0] + [
            sum(1 for d in divisors[n] if d**k <= n**j) for n in range(1, limit + 1)
        ]
        np.testing.assert_array_equal(counts, brute, err_msg=f"v = {j}/{k}")
    np.testing.assert_array_equal(
        kpy.small_divisor_count_sieve(tau, 1.0), kpy.tau_sieve(limit)
    )


def _brute_small_divisor_counts(limit, v):
    # d <= n^v decided as the kernel does: exactly as d^k <= n^j when v is
    # within 1e-12 of j/k with k <= 100, else by comparing float logs
    frac = Fraction(v).limit_denominator(100)
    exact = abs(v - frac) < 1e-12
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for n in range(d, limit + 1, d):
            if exact:
                counts[n] += d**frac.denominator <= n**frac.numerator
            else:
                counts[n] += math.log(d) <= v * math.log(n)
    return np.array(counts)


@pytest.mark.parametrize(
    "v", [0.5, 0.5 + 5e-13, 0.5 - 5e-13, 0.5 + 1e-9, 0.5 - 1e-9, 1 / 3, 2 / 3, 0.25, 1.0]
)
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 3_000])
def test_small_divisor_count_against_brute(limit, v):
    # v = 1/2 and the values within 1e-12 of it take the pairing identity,
    # 1/2 +- 1e-9 the float-log sieves on either side of it
    tau = kpy.tau_sieve(limit)
    np.testing.assert_array_equal(
        kpy.small_divisor_count_sieve(tau, v), _brute_small_divisor_counts(limit, v)
    )


def _brute_by_slices(limit, v):
    # _brute_small_divisor_counts's rule, with a slice for each small
    # divisor d over its multiples and for each cofactor q of the divisors
    # d > sqrt(limit) over n = d * q; float logs decide d <= n^v except
    # near a tie, which the loop's own test settles
    frac = Fraction(v).limit_denominator(100)
    exact = abs(v - frac) < 1e-12

    def holds(d, n):
        if exact:
            return d**frac.denominator <= n**frac.numerator
        return math.log(d) <= v * math.log(n)

    logs = np.zeros(limit + 1)
    logs[1:] = np.log(np.arange(1, limit + 1))
    counts = np.zeros(limit + 1, dtype=np.int64)

    def add(ns, log_d, divisor):
        gap = v * logs[ns] - log_d
        ok = gap >= 0.0
        for i in np.nonzero(np.abs(gap) < 1e-9)[0].tolist():
            ok[i] = holds(divisor(i), ns.start + i * ns.step)
        counts[ns] += ok

    root = math.isqrt(limit)
    for d in range(1, root + 1):
        add(slice(d, limit + 1, d), logs[d], lambda i, d=d: d)
    for q in range(1, limit // (root + 1) + 1):
        add(slice((root + 1) * q, limit + 1, q), logs[root + 1 : limit // q + 1], lambda i: root + 1 + i)
    return counts


_SEGMENT = kpy._SEGMENT_BYTES // 2  # uint16 entries in one segment
_EDGE_LIMITS = [5039, 5040, 5041, 10081, _SEGMENT - 1, _SEGMENT + 1, 3 * _SEGMENT + 7]


@pytest.mark.parametrize("limit", _EDGE_LIMITS)
def test_divisor_sieves_across_wheel_and_segment_edges(limit):
    # one wheel period of 5040 either side of the array's end, and one and
    # three cache segments; moment_scan and the brute counts share no code
    # with the wheel or the segments
    tau = kpy.tau_sieve(limit)
    np.testing.assert_array_equal(tau, kpy.moment_scan(limit)[0])
    for v in [0.25, 1 / 3, 0.3, 0.5, 0.6, 0.75, 0.999]:
        expect = _brute_by_slices(limit, v)
        if limit <= 10081:
            np.testing.assert_array_equal(expect, _brute_small_divisor_counts(limit, v))
        np.testing.assert_array_equal(
            kpy.small_divisor_count_sieve(tau, v), expect, err_msg=f"v = {v}"
        )
    # every divisor d of n has d <= n
    np.testing.assert_array_equal(kpy.small_divisor_count_sieve(tau, 1.0), tau)


@pytest.mark.parametrize(
    "length", [1, 100, 5039, 5040, 5041, 3 * 5040, _SEGMENT - 1, _SEGMENT + 1, 3 * _SEGMENT + 7]
)
def test_add_progressions_is_the_strided_loop(length):
    rng = np.random.default_rng(length)
    wheel = [d for d in range(1, 5041) if 5040 % d == 0]
    progressions = []
    for d in wheel + [11, 13, 97, 1009, 4096, 4097, 6007, 5040 * 3]:
        # starts at 0, in the first half, past it and past the end
        for s in {0, d, int(rng.integers(0, length)), length // 2 + 1, length - 1, length + d}:
            progressions.append((d, s))
    for inc in (1, 2, 65535, int(rng.integers(0, 65536))):  # 65535 is -1 modulo 2**16
        start = rng.integers(0, 65536, size=length, dtype=np.uint16)
        expect = start.copy()
        for d, s in progressions:
            expect[s::d] += np.uint16(inc)
        out = start.copy()
        kpy._add_progressions(out, progressions, inc)
        np.testing.assert_array_equal(out, expect, err_msg=f"inc = {inc}")


@pytest.mark.parametrize("v", [0.25, 0.5, 0.5 + 1e-9, 0.75, 1.0])
def test_small_divisor_count_leaves_tau_alone(v):
    tau = kpy.tau_sieve(1_000)
    before = tau.copy()
    counts = kpy.small_divisor_count_sieve(tau, v)
    np.testing.assert_array_equal(tau, before)
    counts[:] = 7  # the result owns its memory
    np.testing.assert_array_equal(tau, before)


def test_tau_sieve_is_uint16():
    tau = kpy.tau_sieve(10)
    assert tau.dtype == np.uint16
    for v in (0.25, 0.5, 0.75):
        assert kpy.small_divisor_count_sieve(tau, v).dtype == np.uint16, v


def test_small_divisor_count_in_a_signed_dtype():
    # the v > 1/2 path adds -1 cast to tau's dtype: 65535 in uint16, whose
    # sum wraps, and -1 itself in int64, whose dtype max would not wrap
    limit = 10_081
    for v in (0.25, 0.75):
        np.testing.assert_array_equal(
            kpy.small_divisor_count_sieve(kpy.moment_scan(limit)[0], v),
            kpy.small_divisor_count_sieve(kpy.tau_sieve(limit), v),
            err_msg=f"v = {v}",
        )


def test_tau_sieve_refuses_limits_past_1e17(monkeypatch):
    # tau(n) first reaches 2**16 near n = 1.07e17; the guard must refuse
    # before allocating, so np.zeros is replaced by a spy that never allocates
    class Allocated(Exception):
        pass

    def spy(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(kpy.np, "zeros", spy)
    with pytest.raises(ValueError, match="uint16"):
        kpy.tau_sieve(10**17 + 1)
    with pytest.raises(Allocated):
        kpy.tau_sieve(10**17)


def test_tau_256_at_1081080():
    # 1,081,080 = 2^3 3^3 5 7 11 13 is the least n with tau(n) = 256, past
    # what uint8 holds; it is no square, so half its divisors lie below sqrt(n)
    n = 1_081_080
    tau = kpy.tau_sieve(n)
    assert int(tau[n]) == 256
    assert int(tau[:n].max()) < 256
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(divisors) == 256
    assert int(kpy.small_divisor_count_sieve(tau, 0.5)[n]) == 128
    for j, k in [(1, 4), (3, 4)]:
        counts = kpy.small_divisor_count_sieve(tau, j / k)
        assert int(counts[n]) == sum(1 for d in divisors if d**k <= n**j), (j, k)


def _le_pow(d: int, n: int, v: float) -> bool:
    # d <= n^v with the edge decided in exact integers when 1/v is integral
    inv = 1.0 / v
    if abs(inv - round(inv)) < 1e-12:
        return d ** round(inv) <= n
    return math.log(d) <= v * math.log(n)
