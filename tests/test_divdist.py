"""Exact log-divisor law: atoms, moments, tails, and the additive statistics,
all checked against sqrt-divisor brute force."""

import math
from fractions import Fraction
from math import isqrt, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friabilis.arith import Factorization, factorize
from friabilis.divdist import (
    additive_fk,
    exact_law,
    exact_upper_tail,
    model_mean_additive,
    moments,
    nudge_off_atom,
)
from friabilis.errors import DomainError, ResourceLimitError
from friabilis.saddle import make_context

INTERESTING = [2, 4, 6, 12, 36, 60, 97, 1024, 30030, 720720, 9699690]


def brute_divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in small if d * d != n]
    return sorted(small + large)


@pytest.mark.parametrize("n", INTERESTING)
def test_law_matches_brute_divisors(n):
    law = exact_law(factorize(n))
    ds = brute_divisors(n)
    assert law.tau == len(ds)
    assert law.divisors.tolist() == ds
    assert int(law.counts.sum()) == law.tau
    # no float log collisions at this scale: one atom per divisor
    assert len(law.values) == len(ds)
    assert np.all(np.diff(law.values) > 0)


@pytest.mark.parametrize("n", INTERESTING)
def test_moments_against_brute_law(n):
    mom = moments(factorize(n))
    ld = np.log(np.array(brute_divisors(n), dtype=np.float64))
    centered = ld - 0.5 * math.log(n)
    assert np.mean(ld) == pytest.approx(0.5 * math.log(n), rel=1e-12)
    assert mom.m2 == pytest.approx(float(np.mean(centered**2)), rel=1e-12)
    # m4 accumulates per prime-power component, not the composite law
    brute_m4 = 0.0
    for p, e in factorize(n).factors:
        grid = np.arange(e + 1) * log(p)
        brute_m4 += float(np.mean((grid - grid.mean()) ** 4))
    assert mom.m4 == pytest.approx(brute_m4, rel=1e-12)
    assert mom.t_max == pytest.approx(
        max((e + 1) * log(p) for p, e in factorize(n).factors)
    )


def test_moments_trivial_and_prime():
    one = moments(Factorization(()))
    assert (one.tau, one.m2, one.m4, one.w, one.t_max) == (1, 0.0, 0.0, 1.0, 0.0)
    pm = moments(factorize(97))
    assert pm.w == pytest.approx(1.0, rel=1e-15)  # single squarefree factor
    assert pm.sigma_sq == pm.m2
    assert pm.sigma == pytest.approx(math.sqrt(pm.m2), rel=1e-15)


def test_balance_ratio_floor():
    # w = m2^2/m4 bottoms out at 5/9 for a single high power
    for n in INTERESTING + [2**40, 3**30]:
        mom = moments(factorize(n))
        assert mom.w >= 5.0 / 9.0 - 1e-12, n
    assert moments(factorize(2**40)).w == pytest.approx(
        (40 * 42 / 12.0) ** 2 / (40 * 42 * (3 * 1600 + 240 - 4) / 240.0), rel=1e-13
    )


@pytest.mark.parametrize("n", INTERESTING)
def test_tail_symmetry_integer_counts(n):
    law = exact_law(factorize(n))
    ds = law.divisors
    for d in ds.tolist():
        assert int(np.sum(ds >= d)) == int(np.sum(ds <= n // d)), (n, d)


def test_tail_queries_n6():
    law = exact_law(factorize(6))
    assert law.tau == 4
    at2 = float(law.values[1])  # the atom at log 2
    assert law.count_ge(at2) == 3  # closed: {2, 3, 6}
    assert law.count_le(at2) == 2  # {1, 2}
    assert law.upper_tail(at2) == pytest.approx(0.75)
    assert exact_upper_tail(law, at2) == law.upper_tail(at2)
    mid = 0.5 * (float(law.values[1]) + float(law.values[2]))
    assert law.count_ge(mid) + law.count_le(mid) == law.tau
    assert law.count_ge(-1.0) == 4
    assert law.count_le(-1.0) == 0
    assert law.count_ge(math.log(6) + 1.0) == 0


@pytest.mark.parametrize("n", INTERESTING)
def test_atom_masses_sum_to_one(n):
    law = exact_law(factorize(n))
    total = sum(mass for _, mass in law.atoms())
    assert total == Fraction(1)


def test_nudge_off_atom():
    law = exact_law(factorize(36))
    t = float(law.values[3])
    nudged, moved = nudge_off_atom(law, t)
    assert moved
    assert nudged != t
    assert law.nearest_atom_gap(nudged) >= 1e-12
    # off-atom queries come back untouched
    clear = t + 0.3 * (float(law.values[4]) - t)
    assert nudge_off_atom(law, clear) == (clear, False)
    # n = 1: single atom at 0, returned as-is by convention
    law1 = exact_law(factorize(1))
    assert nudge_off_atom(law1, 0.0) == (0.0, False)


def test_exact_law_ceilings():
    with pytest.raises(ResourceLimitError):
        exact_law(factorize(720720), tau_ceiling=100)
    with pytest.raises(DomainError):
        exact_law(Factorization(((2, 62),)))  # n = 2**62 breaches int64 room


def test_additive_fk_basics():
    f = factorize(720720)
    assert additive_fk(f, 0) == f.omega
    assert additive_fk(f, 1) == pytest.approx(f.log_n, rel=1e-14)
    assert additive_fk(f, 2) == pytest.approx(
        sum((e * log(p)) ** 2 for p, e in f.factors), rel=1e-14
    )
    assert additive_fk(Factorization(()), 3) == 0.0
    with pytest.raises(DomainError):
        additive_fk(f, 9)
    with pytest.raises(DomainError):
        additive_fk(f, -1)


def test_model_mean_defining_equation():
    # k = 1 recovers the tilt equation: the model mean of log n is log x
    for x, y in [(10**4, 30), (10**6, 100)]:
        ctx = make_context(x, y)
        assert model_mean_additive(ctx, 1) == pytest.approx(
            math.log(x), abs=3e-12 * math.log(x)
        )


def test_model_mean_k0_matches_direct_sum():
    ctx = make_context(10**4, 30)
    direct = 0.0
    for lp in ctx.log_primes.tolist():
        direct += math.exp(-ctx.alpha * lp)  # P(nu >= 1) = p^-alpha
    assert model_mean_additive(ctx, 0) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DomainError):
        model_mean_additive(ctx, 9)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_law_properties_random(n):
    f = factorize(n)
    law = exact_law(f)
    assert law.tau == f.tau
    assert int(law.counts.sum()) == law.tau
    assert np.all(np.diff(law.values) > 0)
    w = np.average(law.values, weights=law.counts)
    assert w == pytest.approx(0.5 * math.log(n), abs=1e-10)
    # closed upper tail at the mirror point matches the lower count
    ds = law.divisors
    d = int(ds[len(ds) // 2])
    assert int(np.sum(ds >= d)) == int(np.sum(ds <= n // d))
