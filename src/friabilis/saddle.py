"""Saddle-point machinery for smooth-integer counting: the tilt alpha(x, y)
solving sum over p <= y of log p / (p^alpha - 1) = log x, the truncated Euler
product zeta(s, y), its curvature sigma2_star, the averaged-law width
sigma_bar_sq, and the resulting second-order count estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, log, pi, sqrt

import numpy as np

from friabilis._backend import kernels
from friabilis.arith import sieve_primes
from friabilis.errors import ConvergenceError, DomainError

ALPHA_TOL = 1e-12
_BISECT_STEPS = 60
_EPS = float(np.finfo(np.float64).eps)


def _log_primes(y: int) -> np.ndarray:
    primes = sieve_primes(y)
    if primes.size == 0:
        raise DomainError("no primes <= y; need y >= 2")
    return np.log(primes.astype(np.float64))


def zeta_partial_log(s, y) -> float:
    """log of the Euler product over p <= y of (1 - p^-s)^-1, for real s > 0."""
    s = float(s)
    if s <= 0:
        raise DomainError("zeta_partial_log needs s > 0")
    lp = _log_primes(int(y))
    return -kernels.kahan_sum(np.log1p(-np.exp(-s * lp)))


def _tilt_side(alpha: float, lp: np.ndarray, log_x: float, target: float) -> int:
    """Where the residual sum log p / (p^alpha - 1) - log x, strictly
    decreasing in alpha, lies: 1 above target, -1 below -target, 0 within
    target of zero.

    The answer is always the correctly rounded residual's.  The terms are
    positive, so np.sum is within len * eps * sum of their exact sum; the
    slack below covers that and the final subtractions twice over, and the
    math.fsum of kahan_sum runs only when the cheap sum cannot decide.
    """
    terms = lp / np.expm1(alpha * lp)
    cheap = float(np.sum(terms))
    r = cheap - log_x
    slack = (terms.size + 4) * _EPS * (cheap + log_x)
    if r - slack > target:
        return 1
    if r + slack < -target:
        return -1
    if abs(r) + slack < target:
        return 0
    r = kernels.kahan_sum(terms) - log_x
    if abs(r) <= target:
        return 0
    return 1 if r > 0 else -1


def sigma2_star(alpha, y) -> float:
    """Second log-derivative of log zeta(s, y) at s = alpha:
    sum over p <= y of (log p)^2 p^alpha / (p^alpha - 1)^2."""
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("sigma2_star needs alpha > 0")
    lp = _log_primes(int(y))
    t = np.expm1(alpha * lp)
    return kernels.kahan_sum(lp * lp * (t + 1.0) / (t * t))


def sigma_bar_sq(alpha, y) -> float:
    """Width parameter of the averaged divisor law:
    (1/2) sum over p <= y of (p^alpha - 1/3)(log p)^2 / (p^alpha - 1)^2.

    With nu geometric of ratio p^-alpha (the tilted model's exponent of p),
    this is 2 sum_p (log p)^2 E[nu (nu + 2)] / 12: twice the model mean of
    sigma_n^2, the variance of log d over the divisors d of n.  The abstract
    alone cannot settle whether the factor 2 is intended.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("sigma_bar_sq needs alpha > 0")
    lp = _log_primes(int(y))
    t = np.expm1(alpha * lp)
    return 0.5 * kernels.kahan_sum(lp * lp * (t + 2.0 / 3.0) / (t * t))


def _float_x(x) -> float:
    """x as a float; DomainError for an integer x past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError("x is past the float range (about 1.8e308)") from None


def solve_alpha(x, y) -> float:
    """The unique positive root of sum over p <= y of log p/(p^alpha - 1)
    = log x.

    Bisection on [1e-6, 2], stopping once the residual is within
    ALPHA_TOL * log x of zero.  Requires x >= y >= 2, with x in the float range.
    """
    x = _float_x(x)
    y = int(y)
    if y < 2:
        raise DomainError("y must be >= 2")
    if x < y:
        raise DomainError("x must be >= y")
    lp = _log_primes(y)
    log_x = log(x)
    target = ALPHA_TOL * log_x

    # At alpha = 2 the sum over every prime is -zeta'(2)/zeta(2) = 0.5700
    # < log 2 <= log x, so hi = 2 always brackets the root; 60 halvings
    # reach one ulp of alpha, where the residual is far under the target.
    lo, hi = 1e-6, 2.0
    if _tilt_side(lo, lp, log_x, 0.0) < 0:
        raise ConvergenceError("residual negative at the bracket floor")
    for _ in range(_BISECT_STEPS):
        alpha = 0.5 * (lo + hi)
        side = _tilt_side(alpha, lp, log_x, target)
        if side == 0:
            return alpha
        if side > 0:
            lo = alpha
        else:
            hi = alpha
    raise ConvergenceError(f"alpha solve did not reach tolerance {target}")


@dataclass(frozen=True)
class SaddleContext:
    """Everything the estimates need at one (x, y), computed once.

    u = log x / log y, u_bar = min(u, pi(y)).
    """

    x: float
    y: int
    u: float
    u_bar: float
    alpha: float
    log_zeta: float
    sigma2_star: float
    sigma_bar_sq: float
    log_primes: np.ndarray = field(repr=False)

    @property
    def sigma_bar(self) -> float:
        return sqrt(self.sigma_bar_sq)


def make_context(x, y) -> SaddleContext:
    """The SaddleContext at (x, y); requires x >= y >= 2, with x in the float
    range."""
    x = _float_x(x)
    y = int(y)
    alpha = solve_alpha(x, y)
    lp = _log_primes(y)
    u = log(x) / log(y)
    return SaddleContext(
        x=x,
        y=y,
        u=u,
        u_bar=min(u, float(lp.size)),
        alpha=alpha,
        log_zeta=zeta_partial_log(alpha, y),
        sigma2_star=sigma2_star(alpha, y),
        sigma_bar_sq=sigma_bar_sq(alpha, y),
        log_primes=lp,
    )


def psi_saddle_log(ctx: SaddleContext) -> float:
    """log of the saddle-point estimate of |S(x, y)|."""
    return (
        ctx.alpha * log(ctx.x)
        + ctx.log_zeta
        - log(ctx.alpha)
        - 0.5 * log(2.0 * pi * ctx.sigma2_star)
    )


def psi_saddle_estimate(ctx: SaddleContext) -> float:
    """Saddle-point estimate x^alpha zeta(alpha, y) / (alpha sqrt(2 pi
    sigma2_star)), assembled in log space to dodge overflow."""
    return exp(psi_saddle_log(ctx))
