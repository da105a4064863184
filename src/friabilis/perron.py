"""Tail machinery for the log-divisor law of a single n: the moment
generating function Z(s) = E exp(s log d), derivatives of log Z through
order four, the tilt beta solving the saddle equation, the tilted-Gaussian
tail approximation, and a truncated contour-integral evaluation of the tail.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import erfc, exp, isfinite, isqrt, log, pi, sqrt

import numpy as np

from friabilis.arith import Factorization, factorize
from friabilis.divdist import exact_law, moments, nudge_off_atom
from friabilis.errors import ConvergenceError, DomainError

_SQRT2 = sqrt(2.0)

# even-index Bernoulli numbers B_2 .. B_26, exact
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
)


def _series_coeffs(order: int) -> tuple[float, ...]:
    # gt_j(v, s) = v**j * P_j(x) with x = v s; P_j in powers of x**2 with an
    # extra factor x for odd-regular orders; coefficients B_k prod (k-i) / k!
    out = []
    fact = 1
    for m, b in enumerate(_BERNOULLI, start=1):
        k = 2 * m
        fact = fact * (k - 1) * k
        coeff = b
        for i in range(1, order):
            coeff *= k - i
        if order >= 3 and k == 2:
            continue  # the (k-1)(k-2).. factor vanishes; skip the k=2 slot
        out.append(float(Fraction(coeff) / fact))
    return tuple(out)


_C1 = _series_coeffs(1)
_C2 = _series_coeffs(2)
_C3 = _series_coeffs(3)
_C4 = _series_coeffs(4)

_SWITCH_X = 0.9  # |v s| below this uses the series; above, the closed form


def _poly_even(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _gt(order: int, v: float, s: float) -> float:
    """Regular part of the order-th derivative kernel: g_order minus its
    v-independent pole term, evaluated without cancellation.

    g_1(v; s) = v / (1 - e^{-vs}) and g_{j+1} = d g_j / ds; the pole terms
    (-1)^{j-1} (j-1)!/s^j drop out of per-factor differences, so only the
    regular parts are ever combined.
    """
    x = v * s
    if abs(x) <= _SWITCH_X:
        t = x * x
        if order == 1:
            return v * (0.5 + x * _poly_even(_C1, t))
        if order == 2:
            return v * v * _poly_even(_C2, t)
        if order == 3:
            return v**3 * x * _poly_even(_C3, t)
        return v**4 * _poly_even(_C4, t)
    e = exp(-x)
    d = -np.expm1(-x)  # 1 - e^{-x}, sign-correct for x < 0
    if order == 1:
        return (x - 1.0 + e) / (s * d)
    if order == 2:
        return (d * d - x * x * e) / (s * d) ** 2
    if order == 3:
        return (x**3 * e * (1.0 + e) - 2.0 * d**3) / (s * d) ** 3
    return (6.0 * d**4 - x**4 * e * (1.0 + 4.0 * e + e * e)) / (s * d) ** 4


def log_mgf_derivative(f: Factorization, s: float, order: int) -> float:
    """Derivative of log Z(s) of the given order (1 through 4) at real s.

    Assembled per prime power as the difference of regular kernel parts at
    v = (e+1) log p and v = log p; exact values at s = 0 are the law's
    cumulants: half log n, the variance, 0, and the fourth cumulant.
    """
    if order not in (1, 2, 3, 4):
        raise DomainError("order must be 1, 2, 3, or 4")
    s = float(s)
    total = 0.0
    for p, e in f.factors:
        lp = log(p)
        total += _gt(order, (e + 1) * lp, s) - _gt(order, lp, s)
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


def _geometric_product(f: Factorization, powers):
    """tau(n) Z(s) = prod over p^e || n of 1 + w + ... + w^e, where `powers`
    yields the table w = p^s for each prime of f.factors in turn.

    The tables may be arrays of any one shape or scalars; n = 1 gives 1.0.
    """
    out = None
    for (_, e), w in zip(f.factors, powers):
        acc = w + 1.0  # Horner: 1 + w (1 + w (... (1 + w)))
        for _ in range(e - 1):
            acc *= w
            acc += 1.0
        if out is None:
            out = acc
        else:
            out *= acc
    return 1.0 if out is None else out


def mgf(f: Factorization, s):
    """Z(s) = E exp(s log d) for complex s, as the product over p^e || n of
    the equal-weight geometric sums (1/(e+1)) sum_j p^{js}.

    s is a scalar, for which the result is a complex, or an array of any
    shape, evaluated elementwise into a complex128 array of that shape.
    The sum form is entire, so there are no pole special cases.
    """
    grid = np.asarray(s, dtype=np.complex128)
    z = _geometric_product(f, (np.exp(log(p) * grid) for p, _ in f.factors)) / f.tau
    if grid.ndim == 0:
        return complex(z)
    return z if f.factors else np.ones_like(grid)


def gaussian_tail(z) -> float:
    """Upper tail of the standard normal via the platform's erfc."""
    return 0.5 * erfc(float(z) / _SQRT2)


def tail_quantile_domain(f: Factorization) -> float:
    """Supremum of admissible z for solve_beta: log n / (2 sigma)."""
    mom = moments(f)
    if mom.m2 == 0.0:
        raise DomainError("n = 1 has a degenerate law")
    return f.log_n / (2.0 * mom.sigma)


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
    if not z >= 0:  # also refuses NaN
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
    mom = moments(f)
    curv = log_mgf_derivative(f, beta, 2)
    mu2 = sqrt(curv)
    target = 0.5 * f.log_n + z * mom.sigma if t is None else float(t)
    exponent = log_mgf(f, beta) - target * beta + 0.5 * beta * beta * curv
    return SaddleTail(
        value=exp(exponent) * gaussian_tail(beta * mu2),
        beta=beta,
        mu2=mu2,
        exponent=exponent,
    )


_GL_X = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL_W = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)
_GL_Q = 0.5 * (1.0 + _GL_X)  # the nodes' offsets within a unit panel
# Nodes per chunk, so that a chunk's complex tables (256 KB each) stay in
# L2.  Swept with the workspace in place at T = 200, n = 60, 720720 and
# 223092870, 20,000 and 200,000 steps: 16,384 was the fastest in 13 of 18
# cases and within 9% of 8,192 or 32,768 in the rest; 4,096, 65,536 and
# 262,144 were slower in every case.
_CHUNK = 16_384


def _chunk_shape(m: int) -> tuple[int, int]:
    """(block, rows) of the node grid of a chunk of m panels: rows of
    `block` panels each, block near sqrt(m)/2.  The last row may run past
    the chunk, so the grid can hold more nodes than 4 m."""
    block = max(1, isqrt(m) // 2)
    return block, -(-m // block)


def perron_tail_quadrature(
    f: Factorization,
    z,
    *,
    T: float = 200.0,
    steps: int = 200_000,
    t: float | None = None,
) -> float:
    """Tail probability by integrating Z(s) e^{-ts}/s over the truncated
    vertical line Re s = beta, |Im s| <= T, using conjugate symmetry to fold
    onto [0, T] and 4-point Gauss-Legendre panels.

    Accuracy is limited by the truncation at T; the quadrature itself
    resolves the oscillation as long as panels are shorter than the fastest
    wavelength, and warns when they are not.  T must be finite and >= 1,
    z must be positive (beta = 0 puts the contour on the pole) and the
    query point t, half log n + z sigma unless given (see solve_beta), must
    not be an atom.

    The node exponentials are separable tables.  The nodes of panel
    k = start + B a + b sit at Im s = h (k + q_j), with panel width h and
    Gauss offsets q_j, so every factor e^{cs} of the integrand (p^s for
    each prime, and e^{-ts}) is e^{c (beta + i h (start + B a))} times
    e^{i c h (b + q_j)}: an outer product of two tables of about
    2 sqrt(m) entries each for a chunk of m panels, with B near sqrt(m)/2.
    That is O(sqrt(steps)) complex exps per prime (per chunk of at most
    _CHUNK/4 panels), where a direct grid takes one complex exp per node
    and prime.  The per-offset tables depend only on the chunk's shape, so
    they are made once for the full chunks and once for a shorter last one.
    A prime with exponent e then costs 2e + 1 passes over the nodes: the
    outer product, 1 + w, e - 1 Horner steps of a multiply and an add,
    and the multiply into the running product.

    A call allocates its node tables once, sized for the larger of the two
    chunk grids (the last chunk's padded grid can be the larger), and every
    node pass writes into them.  Fresh tables of this size would be mapped
    from the system and page-faulted anew for each chunk and prime.  The
    value may differ from the direct grid's in the last bits, by at most
    1e-12.
    """
    z = float(z)
    T = float(T)
    steps = int(steps)
    if not (isfinite(T) and T >= 1.0):
        raise DomainError("T must be finite and >= 1")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not z > 0:  # also refuses NaN
        raise DomainError("the contour needs z > 0")
    mom = moments(f)
    if mom.m2 == 0.0:
        raise DomainError("n = 1 has a degenerate law")
    t = 0.5 * f.log_n + z * mom.sigma if t is None else float(t)
    # an atom at the query point makes the truncated integral ill-posed
    d0 = round(exp(t))
    if d0 >= 1 and f.n % d0 == 0 and abs(log(d0) - t) < 1e-12:
        raise DomainError(f"query t = {t} collides with the atom log {d0}")
    beta = solve_beta(f, z, t=t)

    panel = T / steps
    max_freq = max(t, f.log_n - t)
    if max_freq > 0 and 2.0 * pi / max_freq < panel:
        warnings.warn(
            "panel width exceeds the fastest oscillation wavelength; "
            "increase steps or lower T",
            RuntimeWarning,
            stacklevel=2,
        )

    total = 0.0
    panels = max(1, _CHUNK // 4)
    cs = [log(p) for p, _ in f.factors] + [-t]  # e^{cs}: p^s for each prime, e^{-ts}
    # one workspace per call, sized for the larger of the two chunk shapes
    # (a full chunk and the last one, whose padded grid may hold more nodes)
    shapes = map(_chunk_shape, {min(panels, steps), (steps - 1) % panels + 1})
    size = max(4 * block * rows for block, rows in shapes)
    w, acc, vals = (np.empty(size, dtype=np.complex128) for _ in range(3))
    # the real tables of the last step reuse w and acc, free by then
    u = w.view(np.float64)[:size]
    num, den = acc.view(np.float64)[:size], acc.view(np.float64)[size:]
    m_shape = 0
    for start in range(0, steps, panels):
        m = min(panels, steps - start)
        if m != m_shape:  # the per-offset tables depend on the chunk shape alone
            m_shape = m
            block, rows = _chunk_shape(m)
            col_u = panel * (np.arange(block, dtype=np.float64)[:, None] + _GL_Q).ravel()
            cols = [np.exp(1j * (c * col_u)) for c in cs]
            grid = (rows, 4 * block)
            W, A, V, U = (a[: rows * 4 * block].reshape(grid) for a in (w, acc, vals, u))
        row_u = panel * (start + block * np.arange(rows, dtype=np.float64))
        row_tabs = [np.exp(c * beta + 1j * (c * row_u))[:, None] for c in cs]
        # e^{cs} at every node is the outer product of row_tabs[j] and cols[j]
        for j, (_, e) in enumerate(f.factors):
            np.multiply(row_tabs[j], cols[j], out=W)
            # Horner, 1 + w (1 + w (... (1 + w))); the first prime's goes into V
            horner = A if j else V
            np.add(W, 1.0, out=horner)
            for _ in range(e - 1):
                horner *= W
                horner += 1.0
            if j:
                V *= A
        V *= np.multiply(row_tabs[-1], cols[-1], out=W)
        np.add(row_u[:, None], col_u, out=U)
        # Re(vals / s) with s = beta + i u, cutting the last row at the chunk
        v, uu = vals[: 4 * m], u[: 4 * m]
        re = np.multiply(v.real, beta, out=num[: 4 * m])
        re += np.multiply(v.imag, uu, out=den[: 4 * m])
        sq = np.multiply(uu, uu, out=den[: 4 * m])
        sq += beta * beta
        re /= sq
        total += float((re.reshape(m, 4) @ _GL_W).sum())
    return 0.5 * panel * total / (pi * f.tau)


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
    exact, saddle and Perron tails are all evaluated at the resolved t.
    `perron`, when given, is (T, steps) for the contour evaluation; it is
    skipped otherwise.  n = 1 is excluded (degenerate law).
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
    tilted = saddle_tail_approx(f, z, t=t)
    perron_val = None
    if perron is not None:
        perron_val = perron_tail_quadrature(f, z, T=perron[0], steps=perron[1], t=t)
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
