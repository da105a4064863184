"""Saddle-point machinery: the tilt equation, the truncated Euler product,
and counting estimates, checked against self-contained oracles."""

import math

import numpy as np
import pytest

import friabilis.saddle as saddle
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


def oracle_alpha_fsum_every_step(x, y) -> float:
    """The solver as it was before its bisection signs came from a bounded
    cheap sum: every residual is a math.fsum, so alpha must match bit for bit."""
    x = float(x)
    lp = np.log(sieve_primes(int(y)).astype(np.float64))
    log_x = math.log(x)
    target = 1e-12 * log_x

    def residual(alpha):
        return math.fsum((lp / np.expm1(alpha * lp)).tolist()) - log_x

    lo, hi = 1e-6, 2.0
    assert residual(lo) >= 0
    while residual(hi) >= 0:
        lo = hi
        hi *= 2.0
    alpha = 0.5 * (lo + hi)
    for _ in range(60):
        alpha = 0.5 * (lo + hi)
        r = residual(alpha)
        if abs(r) <= target:
            return alpha
        if r > 0:
            lo = alpha
        else:
            hi = alpha
    for _ in range(8):
        r = residual(alpha)
        if abs(r) <= target:
            break
        t = np.expm1(alpha * lp)
        alpha += r / math.fsum((lp * lp * (t + 1.0) / (t * t)).tolist())
        if not lo <= alpha <= hi:
            alpha = 0.5 * (lo + hi)
    return alpha


@pytest.mark.parametrize(
    "x, y",
    [(2, 2), (4, 2), (10**6, 2), (7, 7), (1000, 1000), (10**5, 10**5)]
    + GRID
    + [(10**8, 30), (10**12, 10**6), (10**300, 2), (10**300, 10**6)],
)
def test_alpha_bit_identical_to_fsum_every_step(x, y):
    assert solve_alpha(x, y) == oracle_alpha_fsum_every_step(x, y)


def test_alpha_two_brackets_the_root():
    # solve_alpha bisects on [1e-6, 2]: the residual at alpha = 2 must be
    # negative for every x >= y >= 2, so the sum there stays below log 2
    # (over all primes it tends to -zeta'(2)/zeta(2) = 0.5700)
    lp = np.log(sieve_primes(10**6).astype(np.float64))
    assert math.fsum((lp / np.expm1(2.0 * lp)).tolist()) < math.log(2)


def test_make_context_sums_exactly_only_near_the_root(monkeypatch):
    calls = []
    exact = saddle.kernels.kahan_sum

    def counted(values):
        calls.append(1)
        return exact(values)

    monkeypatch.setattr(saddle.kernels, "kahan_sum", counted)
    make_context(10**12, 10**6)
    assert len(calls) <= 15


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
    for solve in (solve_alpha, make_context):  # float(10**400) overflows
        with pytest.raises(DomainError, match="float range"):
            solve(10**400, 100)


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


@pytest.mark.parametrize("x,y", [(10**7, 100), (10**8, 30), (10**10, 100)])
def test_sigma_bar_sq_is_twice_the_model_mean_of_sigma_n_sq(x, y):
    # sigma_n^2 sums (log p)^2 nu (nu + 2) / 12 over p^nu || n; under the
    # tilted model nu is geometric with ratio q = p^-alpha, and sigma_bar^2
    # is 2 sum_p (log p)^2 E[nu (nu + 2)] / 12, the series summed term by term
    a = solve_alpha(x, y)
    per_prime = []
    for p in sieve_primes(y).tolist():
        q = p**-a
        mean = math.fsum((1.0 - q) * q**k * k * (k + 2) for k in range(1, 4000))
        per_prime.append(math.log(p) ** 2 * mean / 12.0)
    assert sigma_bar_sq(a, y) == pytest.approx(2.0 * math.fsum(per_prime), rel=1e-14)


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
