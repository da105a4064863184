"""The sieve and summation kernels, in NumPy.

The library reaches them through friabilis._backend.kernels.  Each sieve
loops in Python over primes or over divisors d and does its work in
strided whole-array updates, one per d.

tau_sieve's divisor counts are uint16, two bytes per n: the largest tau(n)
for n <= 1e17 is 64,512, so tau_sieve refuses any limit past 10**17.  tau
is sieved once per run, and small_divisor_count_sieve reads that one array
for every v and counts in tau's dtype: the count at v = 1/2 follows from
tau by the pairing of d with n/d, and any other v sieves only divisors
d <= sqrt(limit), into zeros for v < 1/2 or off a copy of tau for v > 1/2.
"""

import math
from fractions import Fraction

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


_TAU_MAX_LIMIT = 10**17  # largest limit whose tau(n) all fit in uint16


def tau_sieve(limit):
    """Divisor counts tau(n) for n in 0..limit (tau[0] = 0), as uint16.

    Divisors of n pair up as d and n/d with d <= sqrt(n), so each
    d <= isqrt(limit) adds 2 at the multiples n >= d*d; at n = d*d the pair
    is d twice, which the final -1 takes back.  uint16 holds every count up
    to limit = 10**17: the largest tau(n) for n <= 1e17 is 64,512
    (at n = 74,801,040,398,884,800), and tau first reaches 65,536 near
    n = 1.07e17.  A larger limit raises ValueError before any allocation.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > _TAU_MAX_LIMIT:
        raise ValueError(f"limit must be <= {_TAU_MAX_LIMIT}, past which tau overflows uint16")
    tau = np.zeros(limit + 1, dtype=np.uint16)
    root = math.isqrt(limit)
    for d in range(1, root + 1):
        tau[d * d :: d] += 2
    tau[np.arange(1, root + 1) ** 2] -= 1
    return tau


_MAX_DENOM = 100  # largest k of a fraction j/k that v snaps to


def small_divisor_count_sieve(tau, v):
    """Counts of divisors d of n with d <= n**v, for every n in 0..limit,
    where limit = len(tau) - 1.

    tau is tau_sieve(limit), which this reads and never modifies, so one
    tau sieve serves every v.  The counts come in tau's dtype (uint16 from
    tau_sieve), which holds them since none exceeds tau(n).  Divisors pair
    up as d and e = n/d, and d <= n**v exactly when e >= n**(1-v).  At
    v = 1/2 that is one divisor of each pair d != sqrt(n), and sqrt(n)
    itself once, so the count is (tau(n) + [n is a square]) // 2 with no
    sieve.  Otherwise, for v < 1/2 each d adds 1 at the multiples n with
    d <= n**v, and for v > 1/2 the count is tau(n) less the divisors
    e < n**(1-v); either way only d (or e) <= sqrt(limit) can contribute.
    When v is within 1e-12 of a fraction j/k with k <= _MAX_DENOM, the edge
    d = n**v is decided exactly, as d**k <= n**j in integers; otherwise it
    is decided by comparing float logs.
    """
    limit = len(tau) - 1
    if limit < 0:
        raise ValueError("tau must hold at least tau(0)")
    if not 0.0 < v <= 1.0:
        raise ValueError("v must lie in (0, 1]")
    frac = Fraction(v).limit_denominator(_MAX_DENOM)
    exact = frac > 0 and abs(v - frac) < 1e-12
    if exact and frac == Fraction(1, 2):
        out = tau.copy()
        out[np.arange(1, math.isqrt(limit) + 1) ** 2] += 1
        out //= 2
        return out
    if v <= 0.5:
        out = np.zeros(limit + 1, dtype=tau.dtype)
        c, strict = (frac if exact else v), False
    else:
        out = tau.copy()
        if exact and frac == 1:
            return out
        c, strict = (1 - frac if exact else 1.0 - v), True
    if exact:
        c = (c.numerator, c.denominator)
    for d in range(1, limit + 1):
        m0 = _least_n(d, c, strict, limit)
        if m0 > limit:
            break
        start = -(-m0 // d) * d  # first multiple of d at or past m0
        if v <= 0.5:
            out[start::d] += 1
        else:  # -= 1, since uint16 += -1 raises OverflowError
            out[start::d] -= 1
    return out


def _least_n(d, c, strict, limit):
    """Smallest integer m >= 1 with d <= m**c (d < m**c when strict).

    c in (0, 1) is a pair (j, k) for c = j/k, compared exactly as m**j
    against d**k in integers, or a float, compared through logs, in which
    case an m past limit may be returned as limit + 1.
    """
    if isinstance(c, tuple):
        j, k = c
        target = d**k + strict  # m**j >= target
        if j == 1:
            return target
        m = max(1, round(math.exp(math.log(target) / j)))
        while m**j < target:
            m += 1
        while m > 1 and (m - 1) ** j >= target:
            m -= 1
        return m
    if math.log(d) > c * (math.log(limit + 1) + 1.0):
        return limit + 1  # keeps d ** (1 / c) below float overflow

    def holds(m):
        lhs, rhs = c * math.log(m), math.log(d)
        return lhs > rhs if strict else lhs >= rhs

    m = max(1, math.floor(d ** (1.0 / c)))
    while not holds(m):
        m += 1
    while m > 1 and holds(m - 1):
        m -= 1
    return m
