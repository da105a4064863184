"""The sieve and summation kernels, in NumPy.

The library reaches them through friabilis._backend.kernels.  Each sieve
loops in Python over primes or over divisors d and does its work in
strided whole-array updates, one per d.
"""

import math

import numpy as np

BACKEND_NAME = "python"


def kahan_sum(values):
    """Sum of a float64 array, correctly rounded.

    This is math.fsum: it tracks every partial round-off exactly and
    rounds once at the end, so the result does not depend on the order of
    the values.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return math.fsum(arr.tolist())


def prime_mask(limit):
    """Boolean array of length limit+1, True exactly at primes."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    mask = np.ones(limit + 1, dtype=bool)
    mask[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def spf_sieve(limit):
    """Smallest-prime-factor table for 0..limit (spf[0] = 0, spf[1] = 1)."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    spf = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        spf[1] = 1
    if limit >= 2:
        spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            sl = spf[p * p :: 2 * p]  # odd multiples; even ones already marked
            sl[sl == 0] = p
    # untouched odd entries are primes
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    if limit >= 0:
        spf[0] = 0
    return spf


def moment_scan(limit):
    """Divisor-law summary for every n in 0..limit.

    Returns (tau, m2, m4): divisor counts int64, and the second and fourth
    central moments of the uniform log-divisor law, float64.  Row n of m2 is
    sum over p^nu || n of nu(nu+2)(log p)^2 / 12, row n of m4 is
    sum of nu(nu+2)(3nu^2+6nu-4)(log p)^4 / 240.  tau[0] = 0 by convention.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    tau = np.ones(limit + 1, dtype=np.int64)
    m2 = np.zeros(limit + 1, dtype=np.float64)
    m4 = np.zeros(limit + 1, dtype=np.float64)
    if limit >= 0:
        tau[0] = 0
    primes = np.nonzero(prime_mask(limit))[0]
    for p in primes.tolist():
        lp2 = math.log(p) ** 2
        lp4 = lp2 * lp2
        k = 1
        pk = p
        prev2 = 0.0
        prev4 = 0.0
        while pk <= limit:
            cur2 = k * (k + 2) * lp2 / 12.0
            cur4 = k * (k + 2) * (3 * k * k + 6 * k - 4) * lp4 / 240.0
            m2[pk::pk] += cur2 - prev2
            m4[pk::pk] += cur4 - prev4
            if k == 1:
                tau[pk::pk] *= 2
            else:
                t = tau[pk::pk]
                t //= k
                t *= k + 1
            prev2, prev4 = cur2, cur4
            k += 1
            pk *= p
    return tau, m2, m4


def divisor_products(primes, exponents):
    """All divisors of prod p**e as a sorted int64 array.

    Iterated convolution over the prime powers; the caller guards that the
    product fits in int64 and that the divisor count stays under its ceiling.
    """
    primes = np.asarray(primes, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    divs = np.ones(1, dtype=np.int64)
    for p, e in zip(primes.tolist(), exponents.tolist()):
        powers = p ** np.arange(e + 1, dtype=np.int64)
        divs = (divs[:, None] * powers[None, :]).ravel()
    divs.sort()
    return divs


def tau_sieve(limit):
    """Divisor counts tau(n) for n in 0..limit (tau[0] = 0).

    Divisors of n pair up as d and n/d with d <= sqrt(n), so each
    d <= isqrt(limit) adds 2 at the multiples n >= d*d; at n = d*d the pair
    is d twice, which the final -1 takes back.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    tau = np.zeros(limit + 1, dtype=np.int64)
    root = math.isqrt(limit)
    for d in range(1, root + 1):
        tau[d * d :: d] += 2
    tau[np.arange(1, root + 1) ** 2] -= 1
    return tau


def small_divisor_count_sieve(limit, v):
    """Counts of divisors d of n with d <= n**v, for every n in 0..limit.

    Only divisors d with d**(1/v) <= limit can contribute, so the outer loop
    is short for v < 1.  Thresholds are resolved exactly in integers when 1/v
    is integral (the cases the arcsine comparison uses).
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if not 0.0 < v <= 1.0:
        raise ValueError("v must lie in (0, 1]")
    out = np.zeros(limit + 1, dtype=np.int64)
    inv = 1.0 / v
    inv_int = round(inv)
    exact = abs(inv - inv_int) < 1e-12
    for d in range(1, limit + 1):
        m0 = _pow_threshold(d, v, inv_int if exact else None)
        if m0 > limit:
            break
        start = ((m0 + d - 1) // d) * d
        if start > limit:
            continue
        out[start::d] += 1
    return out


def _pow_threshold(d, v, inv_int):
    """Smallest integer m with d <= m**v, exact when 1/v is integral."""
    if inv_int is not None:
        return d**inv_int
    if d == 1:
        return 1
    m0 = max(1, math.floor(d ** (1.0 / v)))
    while v * math.log(m0) < math.log(d):
        m0 += 1
    while m0 > 1 and v * math.log(m0 - 1) >= math.log(d):
        m0 -= 1
    return m0
