"""The sieve and summation kernels, in NumPy.

The library imports this module directly.  The prime sieves loop in
Python over primes and do their work in strided whole-array updates, one
per prime.  The two divisor sieves hand their arithmetic progressions to
one helper, _add_progressions: every d that divides the wheel 5040 is
added in one broadcast pass of period 5040, and the other d run strided
over one cache-sized segment of the array at a time, or, when a segment
would hold few of their terms, over the whole array once.

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
    is d twice, which the final -1 takes back.  All these progressions go to
    _add_progressions at once: the d that divide 5040 take one broadcast
    pass, the others cache-sized segments.  uint16 holds every count up
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
    _add_progressions(tau, [(d, d * d) for d in range(1, root + 1)], 2)
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
    The progressions of their multiples go to _add_progressions at once;
    for v > 1/2 each adds -1 cast to tau's dtype, 65535 in uint16.  When v
    is within 1e-12 of a fraction j/k with k <= _MAX_DENOM, the edge
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
    progressions = []
    for d in range(1, limit + 1):
        m0 = _least_n(d, c, strict, limit)
        if m0 > limit:
            break
        progressions.append((d, -(-m0 // d) * d))  # first multiple of d at or past m0
    # v > 1/2 takes 1 off by adding -1 cast to the dtype, which for uint16
    # is its max: uint16 addition wraps modulo 2**16, where += -1 raises
    _add_progressions(out, progressions, 1 if v <= 0.5 else np.array(-1).astype(out.dtype))
    return out


_WHEEL = 5040  # 2**4 * 3**2 * 5 * 7: its 60 divisors d hold 3.84 of sum 1/d
_SEGMENT_BYTES = 1 << 21  # one core's 2 MiB L2 cache on the Xeon VM it was tuned on
_SEGMENT_RUN = 256  # fewest terms a d adds to a segment to be run by segments


def _add_progressions(out, progressions, inc):
    """out[s::d] += inc for every (d, s) in progressions, in place.

    out is a contiguous integer array and inc a value of its dtype.
    Integer additions wrap modulo 2**bits, so their order does not change
    the result.  Every d that divides _WHEEL, with its start s in the
    first half of out, joins one pattern of period _WHEEL at every n = s
    (mod d); one broadcast over a (periods, _WHEEL) view of out adds the
    pattern, and the terms below each s, fewer than half of those the
    pattern added for d, are taken back.  Every other d runs strided, one
    segment of _SEGMENT_BYTES at a time, so that a segment stays in cache
    while all of them add to it.  A d that would add fewer than
    _SEGMENT_RUN terms to a segment would cost more in Python per slice
    than it saves in memory traffic, and runs over the whole array once.
    """
    n = len(out)
    wheel = [(d, s) for d, s in progressions if _WHEEL % d == 0 and 2 * s < n]
    rest = [(d, s) for d, s in progressions if _WHEEL % d or 2 * s >= n]
    if wheel:
        pattern = np.zeros(_WHEEL, dtype=out.dtype)
        for d, s in wheel:
            pattern[s % d :: d] += inc
        body = n - n % _WHEEL
        periods = out[:body].reshape(-1, _WHEEL)
        periods += pattern
        out[body:] += pattern[: n - body]
        for d, s in wheel:
            out[s % d : s : d] -= inc
    segment = _SEGMENT_BYTES // out.itemsize
    runs = [[s, d] for d, s in rest if d * _SEGMENT_RUN <= segment]
    for d, s in rest:
        if d * _SEGMENT_RUN > segment:
            out[s::d] += inc
    for end in range(segment, n + segment, segment):
        for run in runs:
            s, d = run
            if s < end:
                terms = out[s:end:d]
                terms += inc
                run[0] = s + len(terms) * d


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
