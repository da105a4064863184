"""Saddle-point machinery: the tilt equation, the truncated Euler product,
and counting estimates, checked against self-contained oracles."""

import math

import pytest

from friabilis.arith import psi_exact, sieve_primes
from friabilis.errors import DomainError
from friabilis.saddle import (
    make_context,
    psi_saddle_estimate,
    psi_saddle_log,
    sigma2_star,
    sigma_bar_sq,
    solve_alpha,
    zeta_partial_log,
)

GRID = [(x, y) for x in (10**3, 10**4, 10**5, 10**6) for y in (10, 100, 1000)]


def oracle_alpha_bisection(x: int, y: int, steps: int = 200) -> float:
    """From-scratch bisection on the tilt equation, sharing no solver code."""
    primes = [p for p in range(2, y + 1) if all(p % q for q in range(2, p))]
    target = math.log(x)

    def residual(a: float) -> float:
        return sum(math.log(p) / (p**a - 1) for p in primes) - target

    lo, hi = 1e-9, 64.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_alpha_known_values():
    # x = y = 2: log 2 / (2^a - 1) = log 2 at a = 1
    assert solve_alpha(2, 2) == pytest.approx(1.0, abs=1e-10)
    # x = 4, y = 2: 2^a = 3/2
    assert solve_alpha(4, 2) == pytest.approx(math.log(1.5) / math.log(2), abs=1e-10)


def test_alpha_against_bisection_oracle():
    for x, y in [(100, 10), (1000, 7), (10**4, 100)]:
        assert solve_alpha(x, y) == pytest.approx(oracle_alpha_bisection(x, y), abs=1e-9)


def test_alpha_residual_on_grid():
    for x, y in GRID:
        a = solve_alpha(x, y)
        lp = [math.log(p) for p in sieve_primes(y).tolist()]
        resid = math.fsum(v / math.expm1(a * v) for v in lp) - math.log(x)
        assert abs(resid) <= 1e-12 * math.log(x), (x, y, resid)


def test_alpha_monotone_in_x_and_y():
    for y in (10, 100, 1000):
        alphas = [solve_alpha(x, y) for x in (10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(alphas, alphas[1:])), (y, alphas)
    for x in (10**3, 10**4, 10**5, 10**6):
        alphas = [solve_alpha(x, y) for y in (10, 100, 1000)]
        assert all(a < b for a, b in zip(alphas, alphas[1:])), (x, alphas)


def test_alpha_domain():
    with pytest.raises(DomainError):
        solve_alpha(10, 11)  # needs x >= y
    with pytest.raises(DomainError):
        solve_alpha(4, 1)


def test_zeta_partial_known_value():
    # prod over p in {2,3,5} of (1 - 1/p)^{-1} = 2 * 3/2 * 5/4 = 15/4
    assert math.exp(zeta_partial_log(1.0, 6)) == pytest.approx(3.75, rel=1e-13)
    assert math.exp(zeta_partial_log(1.0, 2)) == pytest.approx(2.0, rel=1e-13)


def test_zeta_partial_against_direct_product():
    for s, y in [(0.5, 30), (1.3, 100), (2.0, 13)]:
        direct = 1.0
        for p in sieve_primes(y).tolist():
            direct *= 1.0 / (1.0 - p ** (-s))
        assert zeta_partial_log(s, y) == pytest.approx(math.log(direct), rel=1e-12)


def test_sigma2_star_matches_derivative():
    # sigma2* is minus the derivative of the tilt sum at alpha
    x, y = 10**4, 30
    a = solve_alpha(x, y)
    h = 1e-6
    lp = [math.log(p) for p in sieve_primes(y).tolist()]

    def tilt(alpha):
        return math.fsum(v / math.expm1(alpha * v) for v in lp)

    fd = -(tilt(a + h) - tilt(a - h)) / (2 * h)
    assert sigma2_star(a, y) == pytest.approx(fd, rel=1e-8)


def test_sigma_bar_below_sigma2_star():
    # per-prime: (t + 2/3)/2 < t + 1 for t > 0
    for x, y in GRID:
        a = solve_alpha(x, y)
        assert 0 < sigma_bar_sq(a, y) < sigma2_star(a, y)


def test_context_fields():
    ctx = make_context(10**6, 100)
    assert ctx.u == pytest.approx(3.0, rel=1e-12)
    assert ctx.u_bar == pytest.approx(3.0, rel=1e-12)
    assert ctx.sigma_bar == pytest.approx(math.sqrt(ctx.sigma_bar_sq), rel=1e-15)
    ctx2 = make_context(10**6, 10)
    assert ctx2.u_bar == pytest.approx(4.0)  # capped at pi(10)


def test_hildebrand_tenenbaum_ratio_sane():
    for x, y in [(10**4, 30), (10**5, 20), (1000, 10)]:
        ctx = make_context(x, y)
        ratio = psi_saddle_estimate(ctx) / psi_exact(x, y)
        assert 0.9 < ratio < 1.1, (x, y, ratio)


def test_psi_saddle_log_consistent():
    ctx = make_context(10**5, 20)
    assert math.exp(psi_saddle_log(ctx)) == pytest.approx(
        psi_saddle_estimate(ctx), rel=1e-12
    )
