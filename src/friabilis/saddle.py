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
_NEWTON_STEPS = 8

# prime logs keyed by y; contexts at many x share the same y
_logp_cache: dict[int, np.ndarray] = {}
_LOGP_CACHE_SLOTS = 8


def _log_primes(y: int) -> np.ndarray:
    arr = _logp_cache.get(y)
    if arr is None:
        primes = sieve_primes(y)
        if primes.size == 0:
            raise DomainError("no primes <= y; need y >= 2")
        arr = np.log(primes.astype(np.float64))
        if len(_logp_cache) >= _LOGP_CACHE_SLOTS:
            _logp_cache.pop(next(iter(_logp_cache)))
        _logp_cache[y] = arr
    return arr


def zeta_partial_log(s, y) -> float:
    """log of the Euler product over p <= y of (1 - p^-s)^-1, for real s > 0."""
    s = float(s)
    if s <= 0:
        raise DomainError("zeta_partial_log needs s > 0")
    lp = _log_primes(int(y))
    return -kernels.kahan_sum(np.log1p(-np.exp(-s * lp)))


def _tilt_residual(alpha: float, lp: np.ndarray, log_x: float) -> float:
    # sum log p / (p^alpha - 1) - log x, strictly decreasing in alpha
    return kernels.kahan_sum(lp / np.expm1(alpha * lp)) - log_x


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
    (1/2) sum over p <= y of (p^alpha - 1/3)(log p)^2 / (p^alpha - 1)^2."""
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("sigma_bar_sq needs alpha > 0")
    lp = _log_primes(int(y))
    t = np.expm1(alpha * lp)
    return 0.5 * kernels.kahan_sum(lp * lp * (t + 2.0 / 3.0) / (t * t))


def solve_alpha(x, y, *, tol: float = ALPHA_TOL) -> float:
    """The unique positive root of sum over p <= y of log p/(p^alpha - 1)
    = log x.

    Bracketed bisection (doubling the upper end until the sign flips)
    followed by Newton polish; stops once the residual drops under
    tol * log x.  Requires x >= y >= 2.
    """
    x = float(x)
    y = int(y)
    if y < 2:
        raise DomainError("y must be >= 2")
    if x < y:
        raise DomainError("x must be >= y")
    lp = _log_primes(y)
    log_x = log(x)
    target = tol * log_x

    lo, hi = 1e-6, 2.0
    r_lo = _tilt_residual(lo, lp, log_x)
    if r_lo < 0:
        raise ConvergenceError("residual negative at the bracket floor")
    for _ in range(64):
        if _tilt_residual(hi, lp, log_x) < 0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the tilt")

    alpha = 0.5 * (lo + hi)
    for _ in range(_BISECT_STEPS):
        alpha = 0.5 * (lo + hi)
        r = _tilt_residual(alpha, lp, log_x)
        if abs(r) <= target:
            return alpha
        if r > 0:
            lo = alpha
        else:
            hi = alpha

    for _ in range(_NEWTON_STEPS):
        r = _tilt_residual(alpha, lp, log_x)
        if abs(r) <= target:
            break
        step = r / sigma2_star(alpha, y)  # residual' = -sigma2_star
        alpha += step
        if not lo <= alpha <= hi:
            alpha = 0.5 * (lo + hi)
    return alpha


@dataclass(frozen=True)
class SaddleContext:
    """Everything the estimates need at one (x, y), computed once.

    u = log x / log y, u_bar = min(u, pi(y)); prime logs are cached per y
    across contexts.
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

    @classmethod
    def build(cls, x, y, *, tol: float = ALPHA_TOL) -> "SaddleContext":
        x = float(x)
        y = int(y)
        alpha = solve_alpha(x, y, tol=tol)
        lp = _log_primes(y)
        u = log(x) / log(y)
        return cls(
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

    @property
    def sigma_bar(self) -> float:
        return sqrt(self.sigma_bar_sq)


def make_context(x, y, *, tol: float = ALPHA_TOL) -> SaddleContext:
    return SaddleContext.build(x, y, tol=tol)


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
