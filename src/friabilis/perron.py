"""Tail machinery for the log-divisor law of a single n: the moment
generating function Z(s) = E exp(s log d), derivatives of log Z through
order four, the tilt beta solving the saddle equation, the tilted-Gaussian
tail approximation, and a truncated contour-integral evaluation of the tail.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import atan, erfc, exp, isfinite, isqrt, log, pi, sqrt

import numpy as np

from friabilis.arith import Factorization, factorize
from friabilis.divdist import MERGE_TOL, exact_law, moments, nudge_off_atom
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
# Largest divisor count of a group of prime powers, the inner size of its
# matrix products.  Swept over 4-32 at T = 200, 20,000 steps on the 300
# pointwise queries of seeds 1-3: 16 tied 6, 24 and 32 for the lowest
# median; 8 and 12 were 4% slower there and 12% faster for tau > 16.
_GROUP_TAU = 16
# perron_tail_quadrature's three complex node tables, one per row, in
# _workspace.tables: one set per thread, kept across that thread's calls and
# grown to the largest chunk grid it has asked for so far, since fresh tables
# would be mapped from the system and page-faulted anew on every call
_workspace = threading.local()


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
    not be an atom: within MERGE_TOL of a log-divisor, as nudge_off_atom
    decides it.

    The panels integrate Re((V - v0)/s), with V = tau Z(s) e^{-ts} and v0
    its real value at s = beta, and the pole term v0 atan(T / beta) is added
    in closed form: V' = 0 there, so the remainder is smooth at Im s = 0
    even where beta is far below the panel width and 1/s peaks too sharply.

    V is the divisor sum, sum over d | n of e^{(log d - t) s}, taken as a
    product over groups of prime powers with at most _GROUP_TAU divisors
    each.  Node j of panel k = start + B a + b sits at Im s = h (k + q_j),
    with panel width h, Gauss offsets q_j and B near sqrt(m)/2 for a chunk
    of m panels.  So over a group's log-divisors l, its factor at node
    (a, (b, j)) is R[a, :] . C[:, (b, j)], where R = e^{l beta + i l h
    (start + B a)} and C = e^{i l h (b + q_j)}: one matrix product over the
    chunk's node grid.  C, and R at start = 0, are made once per chunk
    shape; each chunk turns R by tau_g phases e^{i l h start}.  The sum of
    w Re((V - v0)/s) over the nodes is Re sum V g - v0 Re sum g, where
    g = w/s (zero past the chunk's 4 m nodes) takes every group's factor
    but the last, and the last is contracted as Re sum R * (g C^T), never
    formed.  A chunk costs one g table and one matrix product per group.

    g, the running product and the real tables of Im s are views of the
    calling thread's workspace (see _workspace), sized for the larger of the
    call's two chunk grids.  The value may differ from the direct grid's in
    the last bits, by at most 1e-12.
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
    law = exact_law(f)  # an atom at t makes the truncated integral ill-posed
    if law.nearest_atom_gap(t) < MERGE_TOL:
        d0 = law.divisors[np.abs(law.values - t).argmin()]
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

    v0 = _geometric_product(f, (p**beta for p, _ in f.factors)) * exp(-t * beta)
    total = 0.0
    panels = max(1, _CHUNK // 4)
    # the log-divisors of each group of prime powers; e^{-ts} rides in the first
    groups = [np.array([-t])]
    for p, e in f.factors:
        if 1 < len(groups[-1]) and len(groups[-1]) * (e + 1) > _GROUP_TAU:
            groups.append(np.zeros(1))  # a prime power wider than that stays alone
        groups[-1] = np.add.outer(groups[-1], log(p) * np.arange(e + 1)).ravel()
    # node tables for the larger of the two chunk shapes (a full chunk and
    # the last one, whose padded grid may hold more nodes)
    shapes = map(_chunk_shape, {min(panels, steps), (steps - 1) % panels + 1})
    size = max(4 * block * rows for block, rows in shapes)
    tables = getattr(_workspace, "tables", None)
    if tables is None or tables.shape[1] < size:
        tables = _workspace.tables = np.empty((3, size), dtype=np.complex128)
    g, prod, real = tables[:, :size]
    u, q = real.view(np.float64)[:size], real.view(np.float64)[size:]
    m_shape = 0
    for start in range(0, steps, panels):
        m = min(panels, steps - start)
        if m != m_shape:  # C and R at start = 0 depend on the chunk shape alone
            m_shape = m
            block, rows = _chunk_shape(m)
            col_u = panel * (np.arange(block, dtype=np.float64)[:, None] + _GL_Q).ravel()
            row_u = panel * block * np.arange(rows, dtype=np.float64)
            cs = [np.exp(np.multiply.outer(1j * l, col_u)) for l in groups]
            rs = [np.exp(np.multiply.outer(beta + 1j * row_u, l)) for l in groups]
            weights = np.tile(_GL_W, block)
            G, P, U, Q = (a[: rows * 4 * block].reshape(rows, -1) for a in (g, prod, u, q))
        # g = w/s = w (beta - i u)/(beta^2 + u^2); U holds -u
        np.subtract(-panel * start - row_u[:, None], col_u, out=U)
        np.multiply(U, U, out=Q)
        Q += beta * beta
        np.divide(weights, Q, out=Q)
        q[4 * m : Q.size] = 0.0  # the last row's nodes past the chunk
        np.multiply(Q, beta, out=G.real)
        np.multiply(Q, U, out=G.imag)
        phases = [np.exp((1j * panel * start) * l) for l in groups]
        for r, c, phase in zip(rs[:-1], cs, phases):
            G *= np.matmul(r * phase, c, out=P)
        # sum over nodes of G (R C) for the last group is sum of R * (G C^T)
        last = (rs[-1] * (G @ cs[-1].T)).sum(axis=0) @ phases[-1]
        total += float(last.real - v0 * beta * Q.sum())
    return (0.5 * panel * total + v0 * atan(T / beta)) / (pi * f.tau)


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
