"""Tail machinery for the log-divisor law of a single n: the moment
generating function Z(s) = E exp(s log d), derivatives of log Z through
order four, the tilt beta solving the saddle equation, the tilted-Gaussian
tail approximation, and the truncated contour integral of the tail.

Z(s) is a product over p^e || n of the mean of p^{js}, 0 <= j <= e, so the
k-th derivative of log Z is a sum over those factors of the k-th cumulant
of j log p under the weights p^{js}, each taken from its weights directly.

The contour integral (1/2 pi i) int_{beta-iT}^{beta+iT} tau Z(s) e^{-ts}/s ds
is taken in closed form, one divisor d at a time: with l = log d - t it is
[l > 0] - Im E1(-l (beta + iT)) / pi, because -E1(-ls) is an antiderivative
of e^{ls}/s whose branch cut the segment crosses exactly when l > 0.  As
l -> 0 the term tends to atan(T/beta)/pi.  A query costs tau(n) evaluations
of E1, computed here with NumPy alone: a power series near zero and next to
the negative real axis, elsewhere a continued fraction whose depth falls
with |z|.  perron_tail_quadrature's `steps`, once its panel count, is
checked and otherwise unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, exp, isfinite, isnan, log, pi, sqrt

import numpy as np

from friabilis.arith import Factorization, factorize
from friabilis.divdist import MERGE_TOL, DivisorLaw, exact_law, moments, nudge_off_atom
from friabilis.errors import ConvergenceError, DomainError

_SQRT2 = sqrt(2.0)

def log_mgf_derivative(f: Factorization, s: float, order: int) -> float:
    """Derivative of log Z(s) of the given order (1 through 4) at real s.

    log Z(s) is the sum over p^e || n of log mean_{0<=j<=e} p^{js}, so its
    order-th derivative sums, over the factors, the order-th cumulant of
    j log p under the weights p^{js}: the mean, the variance, the third
    central moment and mu4 - 3 mu2^2.  Each factor's weights are the powers
    r^k of r = p^{-|s|} <= 1, counted from the heavier end (k = e - j for
    s > 0, which flips the sign of the odd cumulants), so none overflows
    and no two large parts are subtracted.  At s = 0 the values are the
    law's cumulants: half log n, the variance, 0, and the fourth cumulant.
    """
    if order not in (1, 2, 3, 4):
        raise DomainError("order must be 1, 2, 3, or 4")
    s = float(s)
    flip = s > 0
    total = 0.0
    for p, e in f.factors:
        lp = log(p)
        r = exp(-abs(s) * lp)
        mass = mean = 0.0
        w = 1.0
        for k in range(e + 1):
            mass += w
            mean += k * w
            w *= r
        mean /= mass
        if order == 1:
            total += lp * (e - mean if flip else mean)
            continue
        m2 = m3 = m4 = 0.0
        w = 1.0
        for k in range(e + 1):
            d = k - mean
            wd2 = w * d * d
            m2 += wd2
            m3 += wd2 * d
            m4 += wd2 * d * d
            w *= r
        if order == 2:
            c = m2 / mass
        elif order == 3:
            c = (-m3 if flip else m3) / mass
        else:
            c = m4 / mass - 3.0 * (m2 / mass) ** 2
        total += lp**order * c
    return total


def log_mgf(f: Factorization, s: float) -> float:
    """log Z(s) at real s, via per-factor shifted geometric sums."""
    s = float(s)
    total = 0.0
    for p, e in f.factors:
        ls = log(p) * s
        shift = max(e * ls, 0.0)
        acc = 0.0
        for j in range(e + 1):
            acc += exp(j * ls - shift)
        total += shift + log(acc) - log(e + 1)
    return total


def mgf(f: Factorization, s):
    """Z(s) = E exp(s log d) for complex s, as the product over p^e || n of
    the equal-weight geometric sums (1/(e+1)) sum_j p^{js}.

    s is a scalar, for which the result is a complex, or an array of any
    shape, evaluated elementwise into a complex128 array of that shape.
    The sum form is entire, so there are no pole special cases.
    """
    grid = np.asarray(s, dtype=np.complex128)
    z = np.ones_like(grid)
    for p, e in f.factors:
        w = np.exp(log(p) * grid)
        acc = w + 1.0  # Horner: 1 + w (1 + w (... (1 + w)))
        for _ in range(e - 1):
            acc *= w
            acc += 1.0
        z *= acc
    z /= f.tau
    return complex(z) if grid.ndim == 0 else z


def gaussian_tail(z) -> float:
    """Upper tail of the standard normal via the platform's erfc."""
    return 0.5 * erfc(float(z) / _SQRT2)


_BETA_TOL = 1e-10
_BETA_MAX_ITER = 100


def solve_beta(f: Factorization, z, *, t: float | None = None) -> float:
    """The tilt beta >= 0 with (log Z)'(beta) = t, where t defaults to
    half log n + z sigma.

    Newton iteration guarded by a maintained bracket, for at most
    _BETA_MAX_ITER steps; the residual stops under _BETA_TOL * log n.  z must
    lie in [0, log n / (2 sigma)); the supremum itself (and anything past
    it) is outside the reachable range.  A given t is the query after
    nudge_off_atom moved it (within 64e-9 log n of the z threshold); z = 0
    keeps beta = 0 whatever t is.
    """
    z = float(z)
    mom = moments(f)
    if mom.m2 == 0.0:
        raise DomainError("n = 1 has a degenerate law")
    if isnan(z):
        raise DomainError("z is NaN; give a number >= 0")
    if z < 0:
        raise DomainError("z must be >= 0; use the law's symmetry for z < 0")
    if z == 0.0:
        return 0.0
    log_n = f.log_n
    target = 0.5 * log_n + z * mom.sigma if t is None else float(t)
    if target >= log_n:
        raise DomainError(
            f"z = {z} is at or beyond the supremum {log_n / (2 * mom.sigma)}"
        )
    resid_tol = _BETA_TOL * log_n

    lo = 0.0
    hi = 1.0
    grow = 0
    while log_mgf_derivative(f, hi, 1) < target:
        lo = hi
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise ConvergenceError("tilt bracket failed to close")

    beta = min(hi, z * mom.sigma / mom.m2)  # first-order guess
    if beta <= lo:
        beta = 0.5 * (lo + hi)
    for _ in range(_BETA_MAX_ITER):
        r = log_mgf_derivative(f, beta, 1) - target
        if abs(r) <= resid_tol:
            return beta
        if r > 0:
            hi = beta
        else:
            lo = beta
        curv = log_mgf_derivative(f, beta, 2)
        step = r / curv if curv > 0 else 0.0
        beta -= step
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
    raise ConvergenceError(f"tilt solve did not reach tolerance {resid_tol}")


@dataclass(frozen=True)
class SaddleTail:
    """Tilted-Gaussian tail approximation and its ingredients.

    value = exp(exponent) * Phi(beta * mu2), where mu2 is the curvature
    sqrt((log Z)''(beta)) and exponent collects the tilt correction; the
    exponent vanishes at z = 0, making value exactly one half there.
    """

    value: float
    beta: float
    mu2: float
    exponent: float


def saddle_tail_approx(f: Factorization, z, *, t: float | None = None) -> SaddleTail:
    """Approximate P(log d >= t) by tilting the law; t defaults to
    half log n + z sigma (see solve_beta)."""
    z = float(z)
    beta = solve_beta(f, z, t=t)
    target = 0.5 * f.log_n + z * moments(f).sigma if t is None else float(t)
    return _saddle_tail(f, beta, target)


def _saddle_tail(f: Factorization, beta: float, t: float) -> SaddleTail:
    """saddle_tail_approx at the tilt beta solved for t."""
    curv = log_mgf_derivative(f, beta, 2)
    mu2 = sqrt(curv)
    exponent = log_mgf(f, beta) - t * beta + 0.5 * beta * beta * curv
    return SaddleTail(
        value=exp(exponent) * gaussian_tail(beta * mu2),
        beta=beta,
        mu2=mu2,
        exponent=exponent,
    )


# _exp1's series region, and the least continued-fraction depth that keeps
# each band of |z|, from its lower bound on, within 2e-15 relative error
_E1_SERIES_BOUND = 3.0  # series where |z| + Re z < 3: terms cancel by <= e^3
_E1_BANDS = (  # (least |z|, depth); from 60 on, also next to the negative real axis
    (0.0, 59), (6.0, 49), (10.0, 41), (15.0, 31), (25.0, 16), (40.0, 7), (60.0, 5), (120.0, 4))
_E1_BOUNDS = np.array([lo for lo, _ in _E1_BANDS[1:]])


def _exp1(z: np.ndarray) -> np.ndarray:
    """E1(z) = int_z^inf e^{-u}/u du on its principal branch, elementwise
    over a complex array off zero and the negative real axis: the power
    series -gamma - log z - sum_{k>=1} (-z)^k/(k k!) where |z| < 60 and
    |z| + Re z < 3, and elsewhere the even part of the continued fraction of
    DLMF 6.9.1, e^{-z}/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))), evaluated
    backward from the depth that _E1_BANDS gives |z|.  Each element's value
    depends on that element alone.
    """
    r = np.abs(z)
    out = np.empty_like(z)
    series = (r < 60.0) & (r + z.real < _E1_SERIES_BOUND)
    if series.any():
        w = z[series]
        term = -np.ones_like(w)
        acc = np.zeros_like(w)
        done = np.zeros(w.shape, dtype=bool)
        for k in range(1, 200):  # |z| < 60 takes at most 134 terms
            term = term * (-w / k)  # NumPy's *= rounds one element differently
            inc = np.where(done, 0.0, term / k)
            acc += inc
            done |= np.abs(inc) <= 1e-16 * np.abs(acc)
            if done.all():
                break
        out[series] = acc - np.euler_gamma - np.log(w)
    band = np.searchsorted(_E1_BOUNDS, r, side="right")
    band[series] = len(_E1_BANDS)  # past every band, so no fraction runs
    for b in np.flatnonzero(np.bincount(band)[: len(_E1_BANDS)]):
        sel = band == b
        w, depth = z[sel], _E1_BANDS[b][1]
        acc = w + (2 * depth + 1)
        for k in range(depth, 0, -1):
            acc = w + (2 * k - 1) - k * k / acc
        out[sel] = np.exp(-w) / acc
    return out


def _contour_tail(law: DivisorLaw, t: float, beta: float, T: float, steps: int) -> float:
    """perron_tail_quadrature for a built law and its tilt beta at t."""
    T = float(T)
    if not (isfinite(T) and T >= 1.0):
        raise DomainError("T must be finite and >= 1")
    if int(steps) < 1:
        raise DomainError("steps must be >= 1")
    if not beta > 0:
        raise DomainError("the contour needs z > 0")
    if law.nearest_atom_gap(t) < MERGE_TOL:
        d0 = law.divisors[np.abs(law.values - t).argmin()]
        raise DomainError(f"query t = {t} collides with the atom log {d0}")
    lam = law.values - t
    im = _exp1(-lam * complex(beta, T)).imag.sum()
    return (law.count_ge(t) - im / pi) / law.tau


def perron_tail_quadrature(
    f: Factorization,
    z,
    *,
    T: float = 200.0,
    steps: int = 200_000,
    t: float | None = None,
) -> float:
    """Tail probability as the contour integral of Z(s) e^{-ts}/s over the
    truncated vertical line Re s = beta, |Im s| <= T, in the closed form of
    the module docstring.

    Accuracy is limited by the truncation at T.  T must be finite and
    >= 1, z must be positive (beta = 0 puts the contour on the pole) and
    the query point t, half log n + z sigma unless given (see solve_beta),
    must not be an atom: within MERGE_TOL of a log-divisor, as
    nudge_off_atom decides it.  steps must be >= 1 and is otherwise unused.
    """
    z = float(z)
    mom = moments(f)
    if mom.m2 == 0.0:
        raise DomainError("n = 1 has a degenerate law")
    t = 0.5 * f.log_n + z * mom.sigma if t is None else float(t)
    # solve_beta refuses z < 0 and NaN, and _contour_tail beta = 0 (z = 0)
    return _contour_tail(exact_law(f), t, solve_beta(f, z, t=t), T, steps)


@dataclass(frozen=True)
class TailReport:
    """One n, one z: the exact tail next to its three approximations."""

    n: int
    z: float
    t: float
    nudged: bool
    exact_tail: float
    gaussian: float
    saddle: float
    perron: float | None
    beta: float
    mu2: float
    exponent: float
    rel_err_gaussian: float
    rel_err_saddle: float


def tail_report(
    n_or_f, z, *, perron: tuple[float, int] | None = None
) -> TailReport:
    """Assemble a TailReport for P(log d >= half log n + z sigma).

    When that threshold sits on an atom it is nudged off it first, and the
    exact, saddle and Perron tails are all evaluated at the resolved t,
    from one law and one tilt.  `perron`, when given, is (T, steps) for
    the contour evaluation; it is skipped otherwise.  n = 1 is excluded
    (degenerate law).
    """
    f = n_or_f if isinstance(n_or_f, Factorization) else factorize(n_or_f)
    z = float(z)
    law = exact_law(f)
    mom = moments(f)
    if mom.m2 == 0.0:
        raise DomainError("n = 1 has a degenerate law")
    t = 0.5 * f.log_n + z * mom.sigma
    t, nudged = nudge_off_atom(law, t)
    exact = law.upper_tail(t)
    gauss = gaussian_tail(z)
    beta = solve_beta(f, z, t=t)
    tilted = _saddle_tail(f, beta, t)
    perron_val = None
    if perron is not None:
        perron_val = _contour_tail(law, t, beta, *perron)
    return TailReport(
        n=f.n,
        z=z,
        t=t,
        nudged=nudged,
        exact_tail=exact,
        gaussian=gauss,
        saddle=tilted.value,
        perron=perron_val,
        beta=tilted.beta,
        mu2=tilted.mu2,
        exponent=tilted.exponent,
        rel_err_gaussian=abs(gauss / exact - 1.0) if exact > 0 else float("inf"),
        rel_err_saddle=abs(tilted.value / exact - 1.0) if exact > 0 else float("inf"),
    )
