"""Tail machinery for the log-divisor law of a single n: the moment
generating function Z(s) = E exp(s log d), derivatives of log Z through
order four, the tilt beta solving the saddle equation, the tilted-Gaussian
tail approximation, and the truncated contour integral of the tail.

Z(s) is a product over p^e || n of the mean of p^{js}, 0 <= j <= e, so the
k-th derivative of log Z is a sum over those factors of the k-th cumulant
of j log p under the weights p^{js}.  One pass over the factors gives log Z
and those sums together.  The tilt is solved on the gap log n - (log Z)'(s),
summed per factor so that it does not cancel near the supremum, and every
entry point reads the query convention from one prologue, _query.

The contour integral (1/2 pi i) int_{beta-iT}^{beta+iT} tau Z(s) e^{-ts}/s ds
is taken in closed form, one divisor d at a time: with l = log d - t it is
[l > 0] - Im E1(-l (beta + iT)) / pi, because -E1(-ls) is an antiderivative
of e^{ls}/s whose branch cut the segment crosses exactly when l > 0.  As
l -> 0 the term tends to atan(T/beta)/pi.  A query costs tau(n) evaluations
of E1, computed here with NumPy alone: a power series near zero and next to
the negative real axis, elsewhere a continued fraction whose depth falls
with |z|.  The truncation T is the contour's only parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, exp, isfinite, isnan, log, log2, pi, sqrt

import numpy as np

from friabilis.arith import Factorization, factorize
from friabilis.divdist import MERGE_TOL, DivisorLaw, exact_law, moments, nudge_off_atom
from friabilis.errors import ConvergenceError, DomainError

_SQRT2 = sqrt(2.0)


def _log_z(f: Factorization, s: float, order: int) -> tuple[float, list[float]]:
    """log Z(s) at real s and, for m = 1 .. order (at most 4), the sum over
    p^e || n of (log p)^m times the m-th cumulant of k under the weights r^k,
    r = p^{-|s|}: the mean, the variance, the third central moment and
    mu4 - 3 mu2^2.  k counts from each factor's heavier end (k = e - j for
    s > 0, else k = j), so no weight overflows and no two large parts are
    subtracted.  The sums are (log Z)^{(m)}(s) for s <= 0; for s > 0 the odd
    ones change sign, and the first is the gap log n - (log Z)'(s).
    """
    log_z = 0.0
    sums = [0.0] * order
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
        log_z += log(mass / (e + 1))
        sums[0] += lp * mean
        if order == 1:
            continue
        m2 = m3 = m4 = 0.0
        w = 1.0
        for k in range(e + 1):
            d = k - mean
            wd2 = w * d * d
            m2 += wd2
            if order > 2:
                m3 += wd2 * d
                m4 += wd2 * d * d
            w *= r
        m2 /= mass
        sums[1] += lp * lp * m2
        if order > 2:
            sums[2] += lp**3 * m3 / mass
        if order > 3:
            sums[3] += lp**4 * (m4 / mass - 3.0 * m2 * m2)
    if s > 0:  # the weights p^{js} were divided by p^{es}
        log_z += s * f.log_n
    return log_z, sums


def log_mgf_derivative(f: Factorization, s: float, order: int) -> float:
    """Derivative of log Z(s) of the given order (1 through 4) at real s,
    from _log_z's per-factor cumulant sums.  At s = 0 the values are the
    law's cumulants: half log n, the variance, 0, and the fourth cumulant.
    """
    if order not in (1, 2, 3, 4):
        raise DomainError("order must be 1, 2, 3, or 4")
    s = float(s)
    c = _log_z(f, s, order)[1][order - 1]
    if s <= 0 or order % 2 == 0:
        return c
    return f.log_n - c if order == 1 else -c


def log_mgf(f: Factorization, s: float) -> float:
    """log Z(s) at real s, from _log_z's per-factor pass."""
    return _log_z(f, float(s), 1)[0]


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


def _query(f: Factorization, z, t: float | None = None):
    """The query convention of every tail entry point: (z, moments, t), with
    t = half log n + z sigma unless given.  It refuses n = 1, whose law is
    degenerate, NaN z and negative z, before any law is built.
    """
    z = float(z)
    mom = moments(f)
    if mom.m2 == 0.0:
        raise DomainError("n = 1 has a degenerate law")
    if isnan(z):
        raise DomainError("z is NaN; give a number >= 0")
    if z < 0:
        raise DomainError("z must be >= 0; use the law's symmetry for z < 0")
    return z, mom, 0.5 * f.log_n + z * mom.sigma if t is None else float(t)


_BETA_TOL = 1e-10
_BETA_MAX_ITER = 100


def solve_beta(f: Factorization, z, *, t: float | None = None) -> float:
    """The tilt beta >= 0 with (log Z)'(beta) = t, where t defaults to
    half log n + z sigma.

    It solves gap(beta) = log n - t, the gap summed per factor by _log_z,
    and stops once the residual is at most _BETA_TOL (log n - t).  Newton
    steps on log gap, nearly linear in beta near the supremum, start from
    the first-order guess z sigma / m2, take one pass each and stay inside
    a bracket.  Its top end is closed-form: each factor's share of the gap
    is at most log p x/(1 - x)^2 with x = 2^{-beta} >= r, so gap(beta) <=
    log n x/(1 - x)^2.  z must lie in [0, log n / (2 sigma)).  A given t is
    the query after nudge_off_atom moved it (within 64e-9 log n of the z
    threshold); z = 0 keeps beta = 0 whatever t is.
    """
    z, mom, t = _query(f, z, t)
    if z == 0.0:
        return 0.0
    log_n = f.log_n
    goal = log_n - t
    if goal <= 0:
        raise DomainError(f"z = {z} is at or beyond the supremum {log_n / (2 * mom.sigma)}")
    tol = _BETA_TOL * goal
    c = goal / log_n  # x/(1 - x)^2 = c at x = 2c / (1 + 2c + sqrt(1 + 4c))
    lo, hi = 0.0, -log2(2 * c / (1 + 2 * c + sqrt(1 + 4 * c)))
    beta = z * mom.sigma / mom.m2  # first-order guess
    if not beta < hi:
        beta = 0.5 * hi
    for _ in range(_BETA_MAX_ITER):
        _, (gap, curv) = _log_z(f, beta, 2)
        r = gap - goal
        if abs(r) <= tol:
            return beta
        if r > 0:
            lo = beta
        else:
            hi = beta
        beta += gap * log(gap / goal) / curv if gap > 0 and curv > 0 else 0.0
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
    raise ConvergenceError(f"tilt solve did not reach tolerance {tol}")


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
    z, _, t = _query(f, z, t)
    return _saddle_tail(f, solve_beta(f, z, t=t), t)


def _saddle_tail(f: Factorization, beta: float, t: float) -> SaddleTail:
    """saddle_tail_approx at the tilt beta solved for t."""
    log_z, (_, curv) = _log_z(f, beta, 2)
    mu2 = sqrt(curv)
    exponent = log_z - t * beta + 0.5 * beta * beta * curv
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


def _contour_tail(law: DivisorLaw, t: float, beta: float, T: float) -> float:
    """perron_tail_quadrature for a built law and its tilt beta at t."""
    T = float(T)
    if not (isfinite(T) and T >= 1.0):
        raise DomainError("T must be finite and >= 1")
    if not beta > 0:
        raise DomainError("the contour needs z > 0")
    if law.nearest_atom_gap(t) < MERGE_TOL:
        d0 = law.divisors[np.abs(law.values - t).argmin()]
        raise DomainError(f"query t = {t} collides with the atom log {d0}")
    lam = law.values - t
    # past the float range, -lam (beta + iT) has an infinite part and E1 a NaN
    if not isfinite(T * float(np.abs(lam).max())):
        raise DomainError(
            f"T = {T:g} is too large: T |log d - t| passes the float range"
        )
    im = _exp1(-lam * complex(beta, T)).imag.sum()
    return (law.count_ge(t) - im / pi) / law.tau


def perron_tail_quadrature(
    f: Factorization, z, *, T: float = 200.0, t: float | None = None
) -> float:
    """Tail probability as the contour integral of Z(s) e^{-ts}/s over the
    truncated vertical line Re s = beta, |Im s| <= T, in the closed form of
    the module docstring.

    Accuracy is limited by the truncation at T.  T must be finite and
    >= 1, and T |log d - t| inside the float range for every divisor d
    (past it E1 gives NaN).  z must be positive (beta = 0 puts the contour
    on the pole) and the query point t, half log n + z sigma unless given
    (see solve_beta), must not be an atom: within MERGE_TOL of a
    log-divisor, as nudge_off_atom decides it.
    """
    z, _, t = _query(f, z, t)
    # _contour_tail refuses beta = 0, the tilt of z = 0
    return _contour_tail(exact_law(f), t, solve_beta(f, z, t=t), T)


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


def tail_report(n_or_f, z, *, perron: float | None = None) -> TailReport:
    """Assemble a TailReport for P(log d >= half log n + z sigma).

    When that threshold sits on an atom it is nudged off it first, and the
    exact, saddle and Perron tails are all evaluated at the resolved t,
    from one law and one tilt.  `perron`, when given, is the truncation T
    of the contour evaluation; it is skipped otherwise.  _query's refusals
    come first.
    """
    f = n_or_f if isinstance(n_or_f, Factorization) else factorize(n_or_f)
    z, _, t = _query(f, z)
    law = exact_law(f)
    t, nudged = nudge_off_atom(law, t)
    exact = law.upper_tail(t)
    gauss = gaussian_tail(z)
    beta = solve_beta(f, z, t=t)
    tilted = _saddle_tail(f, beta, t)
    perron_val = None
    if perron is not None:
        perron_val = _contour_tail(law, t, beta, perron)
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
