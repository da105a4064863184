"""MGF, tilt solver, tilted-Gaussian tail, and contour tail with its E1,
checked against divisor-sum brute force, finite differences, quadrature
oracles and SciPy's E1."""

import math
import random
import sys
import threading
import warnings
from math import log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from friabilis import perron
from friabilis.arith import Factorization, factorize
from friabilis.divdist import MERGE_TOL, exact_law, moments, nudge_off_atom
from friabilis.errors import DomainError
from friabilis.perron import (
    gaussian_tail,
    log_mgf,
    log_mgf_derivative,
    mgf,
    perron_tail_quadrature,
    saddle_tail_approx,
    solve_beta,
    tail_report,
)

# double-precision upper tails of the standard normal, frozen from a
# 30-digit mpmath erfc evaluation
PHI_1 = 0.15865525393145705141
PHI_8 = 6.2209605742717841235e-16

SAMPLE_N = [2, 6, 60, 97, 1024, 720720, 2**19, 3**12 * 2**7]


def tail_quantile_domain(f):
    """Supremum of admissible z for solve_beta: log n / (2 sigma)."""
    return f.log_n / (2.0 * moments(f).sigma)


def test_gaussian_tail_frozen_points():
    assert gaussian_tail(0.0) == 0.5
    assert gaussian_tail(1.0) == pytest.approx(PHI_1, rel=1e-14)
    assert gaussian_tail(8.0) == pytest.approx(PHI_8, rel=1e-13)
    assert gaussian_tail(-1.0) == pytest.approx(1.0 - PHI_1, rel=1e-14)


def test_gaussian_tail_against_quadrature():
    for z in (-3.0, -1.0, -0.2, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0):
        val, _ = quad(
            lambda u: math.exp(-0.5 * u * u), z, math.inf, epsabs=1e-18, epsrel=1e-13
        )
        assert gaussian_tail(z) == pytest.approx(
            val / math.sqrt(2.0 * math.pi), rel=1e-11
        ), z


@pytest.mark.parametrize("n", [6, 60, 97, 720720])
def test_mgf_matches_divisor_sum(n):
    f = factorize(n)
    ds = exact_law(f).divisors.astype(np.float64)
    for s in (0.0, 0.3, 1.0, -0.7, 1.0 + 2.0j, -0.4 + 0.9j):
        brute = complex(np.mean(ds ** complex(s)))
        assert mgf(f, s) == pytest.approx(brute, rel=1e-12), s


def test_mgf_small_exact_values():
    f6 = factorize(6)
    assert mgf(f6, 1.0) == pytest.approx(3.0, rel=1e-14)  # (1+2+3+6)/4
    assert mgf(f6, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert log_mgf(f6, 1.0) == pytest.approx(math.log(3.0), rel=1e-14)


@pytest.mark.parametrize("n", SAMPLE_N)
def test_log_mgf_matches_mgf(n):
    f = factorize(n)
    for s in (-1.3, -0.2, 0.0, 0.15, 0.8, 2.0):
        assert log_mgf(f, s) == pytest.approx(
            math.log(mgf(f, s).real), abs=1e-12 * (1 + abs(s) * f.log_n)
        ), s


@pytest.mark.parametrize("n", SAMPLE_N)
def test_cumulants_at_zero(n):
    f = factorize(n)
    assert log_mgf_derivative(f, 0.0, 1) == pytest.approx(0.5 * f.log_n, rel=1e-13)
    assert log_mgf_derivative(f, 0.0, 2) == pytest.approx(moments(f).m2, rel=1e-13)
    assert log_mgf_derivative(f, 0.0, 3) == 0.0
    # fourth cumulant: sum over components of mu4 - 3 mu2^2, from the grid
    kappa4 = 0.0
    for p, e in f.factors:
        grid = np.arange(e + 1) * log(p)
        c = grid - grid.mean()
        kappa4 += float(np.mean(c**4) - 3.0 * np.mean(c**2) ** 2)
    assert log_mgf_derivative(f, 0.0, 4) == pytest.approx(kappa4, rel=1e-11)


@pytest.mark.parametrize("n", [60, 97, 720720, 2**19])
def test_derivative_chain_by_finite_differences(n):
    # s = 0, a negative s, and positive s where r = p^{-s} runs from 1 to 0.1
    f = factorize(n)
    h = 1e-5
    for s in (0.0, 0.01, 0.05, 0.2, 0.5, -0.1):
        fd1 = (log_mgf(f, s + h) - log_mgf(f, s - h)) / (2 * h)
        assert log_mgf_derivative(f, s, 1) == pytest.approx(fd1, rel=1e-6, abs=1e-9)
        for order in (2, 3, 4):
            lo = log_mgf_derivative(f, s - h, order - 1)
            hi = log_mgf_derivative(f, s + h, order - 1)
            fd = (hi - lo) / (2 * h)
            assert log_mgf_derivative(f, s, order) == pytest.approx(
                fd, rel=1e-6, abs=1e-7
            ), (s, order)


@pytest.mark.parametrize("s", [3.0, 5.0])
def test_derivatives_at_large_tilt_match_two_atoms(s):
    # n = p has the two atoms 0 and log p; with r = p^{-s} near 1e-18 and
    # 1e-30 each derivative is ~r, far below the 1/s^k scale of its parts
    p = 999983
    lp = log(p)
    r = p**-s
    v = r / (1 + r) ** 2
    closed = {2: lp**2 * v, 3: lp**3 * v * (1 - 2 / (1 + r)), 4: lp**4 * v * (1 - 6 * v)}
    f = factorize(p)
    for order, want in closed.items():
        assert log_mgf_derivative(f, s, order) == pytest.approx(want, rel=1e-13, abs=0), order


def test_tail_report_curvature_near_the_supremum():
    p = 999983
    rep = tail_report(p, 1 - 1e-12)
    r = p**-rep.beta
    assert rep.mu2 == pytest.approx(log(p) * sqrt(r) / (1 + r), rel=1e-12, abs=0)


def test_tail_report_tilt_near_the_supremum():
    # n = p: gap(beta) = log p r/(1 + r) with r = p^{-beta}, so the tilt is
    # log((1 - q)/q) / log p with q = (log p - t)/log p; here log p - t is
    # 7e-12, so a stop in units of 1e-10 log n would admit beta = 3
    p = 999983
    rep = tail_report(p, 1 - 1e-12)
    q = (log(p) - rep.t) / log(p)
    assert rep.beta == pytest.approx(log((1 - q) / q) / log(p), rel=1e-9, abs=0)


def test_derivative_order_guard():
    f = factorize(12)
    for order in (0, 5, -1):
        with pytest.raises(DomainError):
            log_mgf_derivative(f, 0.1, order)


def test_tail_quantile_domain():
    # a prime's reachable range is exactly [0, 1)
    f = factorize(97)
    assert tail_quantile_domain(f) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        solve_beta(f, 1.0)
    assert solve_beta(f, 1.0 - 1e-12) > 0.0
    assert tail_quantile_domain(factorize(720720)) > 1.0


@pytest.mark.parametrize("n", SAMPLE_N)
def test_solve_beta_residual_and_monotone(n):
    f = factorize(n)
    assert solve_beta(f, 0.0) == 0.0
    sup = tail_quantile_domain(f)
    mom = moments(f)
    prev = 0.0
    for z in (0.1, 0.5, 0.9 * sup):
        beta = solve_beta(f, z)
        assert beta > prev
        prev = beta
        target = 0.5 * f.log_n + z * mom.sigma
        resid = log_mgf_derivative(f, beta, 1) - target
        assert abs(resid) <= 1e-10 * f.log_n, (z, resid)


def gap(f, beta):
    """log n - (log Z)'(beta), each factor's share summed from its heavier end."""
    total = 0.0
    for p, e in f.factors:
        k = np.arange(e + 1)
        w = float(p) ** (-beta * k)
        total += log(p) * float(k @ w / w.sum())
    return total


def test_solve_beta_meets_the_gap_tolerance_up_to_the_supremum():
    # z runs from near 0 up to (1 - 1e-9) of the supremum, where log n - t
    # is ~1e-9 of log n and a tolerance in units of log n admits a wrong beta
    rng = random.Random(25)
    for _ in range(300):
        f = factorize(rng.randrange(2, 10**9))
        z = tail_quantile_domain(f) * (1 - 10 ** rng.uniform(-9, 0))
        beta = solve_beta(f, z)
        goal = f.log_n - (0.5 * f.log_n + z * moments(f).sigma)
        assert abs(gap(f, beta) - goal) <= 1e-10 * goal, (f.n, z, beta)


def test_solve_beta_small_z_linearization():
    # first-order shape: beta ~ z / sigma
    for n in (60, 720720, 97):
        f = factorize(n)
        sigma = moments(f).sigma
        beta = solve_beta(f, 0.01)
        assert beta * sigma / 0.01 == pytest.approx(1.0, abs=0.05), n


def test_solve_beta_guards():
    f = factorize(60)
    with pytest.raises(DomainError, match="symmetry"):
        solve_beta(f, -0.1)
    with pytest.raises(DomainError, match="z is NaN") as refused:
        solve_beta(f, math.nan)
    assert "symmetry" not in str(refused.value)
    with pytest.raises(DomainError):
        solve_beta(f, tail_quantile_domain(f))
    with pytest.raises(DomainError):
        solve_beta(factorize(1), 0.5)


@pytest.mark.parametrize(
    "entry",
    [solve_beta, saddle_tail_approx, perron_tail_quadrature, tail_report],
    ids=["solve_beta", "saddle_tail_approx", "perron_tail_quadrature", "tail_report"],
)
@pytest.mark.parametrize(
    "n, z, message",
    [
        (1, 0.5, "n = 1 has a degenerate law"),
        (60, math.nan, "z is NaN; give a number >= 0"),
        (60, -0.5, "z must be >= 0; use the law's symmetry for z < 0"),
    ],
    ids=["n=1", "nan", "negative"],
)
def test_every_entry_point_refuses_the_same_queries(monkeypatch, entry, n, z, message):
    # one query convention: the same text from every entry point, and the
    # refusal comes before any law is built
    built = []
    monkeypatch.setattr(perron, "exact_law", built.append)
    with pytest.raises(DomainError) as refused:
        entry(factorize(n), z)
    assert str(refused.value) == message
    assert built == []


def test_saddle_tail_at_zero_is_half():
    st0 = saddle_tail_approx(factorize(720720), 0.0)
    assert st0.value == 0.5
    assert st0.beta == 0.0
    assert st0.exponent == 0.0
    assert st0.mu2 == pytest.approx(moments(factorize(720720)).sigma, rel=1e-13)


def test_saddle_tail_tracks_exact_tail():
    f = factorize(720720)
    law = exact_law(f)
    mom = moments(f)
    for z in (0.5, 1.0, 1.5):
        t = 0.5 * f.log_n + z * mom.sigma
        approx = saddle_tail_approx(f, z).value
        exact = law.upper_tail(t)
        assert approx == pytest.approx(exact, rel=0.1), z
        assert 0.0 < approx < 0.5


@pytest.mark.parametrize("n", [60, 720720])
def test_mgf_modulus_peaks_on_real_axis(n):
    f = factorize(n)
    for beta in (0.2, 0.7):
        peak = mgf(f, beta).real
        for tau in np.linspace(0.0, 60.0, 241):
            assert abs(mgf(f, beta + 1j * tau)) <= peak * (1 + 1e-12)


def test_perron_known_tail():
    f = factorize(60)
    mom = moments(f)
    t = 0.5 * f.log_n + 0.5 * mom.sigma
    exact = exact_law(f).upper_tail(t)
    val = perron_tail_quadrature(f, 0.5, T=200.0)
    assert abs(val - exact) < 1e-3


def test_perron_guards():
    f = factorize(60)
    with pytest.raises(DomainError):
        perron_tail_quadrature(f, 0.0)
    for z in (-0.5, math.nan):
        with pytest.raises(DomainError):
            perron_tail_quadrature(f, z, t=0.5 * f.log_n + 0.1)
    for T in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            perron_tail_quadrature(f, 0.5, T=T)
    with pytest.raises(DomainError):
        perron_tail_quadrature(factorize(1), 0.5)
    # query landing exactly on the atom at log 3
    f6 = factorize(6)
    z_hit = (log(3) - 0.5 * f6.log_n) / moments(f6).sigma
    with pytest.raises(DomainError):
        perron_tail_quadrature(f6, z_hit)


def test_perron_refuses_every_atom_of_a_large_n():
    # the guard once rounded exp(t) to find the atom, which past ~6e14 is
    # off by hundreds: the atoms at 3^31 .. 3^37 of 3^38 went through
    f = factorize(3**38)
    law = exact_law(f)
    half, sigma = 0.5 * f.log_n, moments(f).sigma
    for k in range(20, 38):
        t = float(law.values[k])  # log 3^k
        with pytest.raises(DomainError, match="collides with the atom"):
            perron_tail_quadrature(f, (t - half) / sigma, T=200.0, t=t)


def test_perron_threads_keep_their_own_workspace():
    # calls on two threads at once give the serial answers; an earlier
    # quadrature shared its node tables between threads and returned -28.40
    # for n = 720720, where the answer is 0.3174
    cases = [factorize(n) for n in (720720, 223092870, 60, 30030, 9699690, 1024)]
    serial = [perron_tail_quadrature(f, 0.5, T=200.0) for f in cases]
    results = [None, None]

    def work(k):
        results[k] = [perron_tail_quadrature(f, 0.5, T=200.0) for f in cases]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial, serial]


# SciPy's own E1 is off by up to 5.5e-13 near the positive real axis at
# |z| = 3-5, where it sums the power series.  The grids below differ from
# it by at most 5.3e-13 and 3.7e-13, both at such points, where _exp1 is
# within 1e-16 of mpmath
EXP1_REL = 1e-12


def test_exp1_matches_scipy_on_a_grid():
    # |z| log-uniform over [1e-10, 1e5] in every direction, where e^{-z} is
    # a normal double
    rng = np.random.default_rng(2016)
    z = np.exp(rng.uniform(log(1e-10), log(1e5), 20_000) + 1j * rng.uniform(-pi, pi, 20_000))
    z = z[np.abs(z.real) <= 600.0]
    got, want = perron._exp1(z), exp1(z)
    assert np.all(np.abs(got - want) <= EXP1_REL * np.abs(want))


def test_exp1_matches_scipy_on_the_contour():
    # the arguments -l (beta + iT) the contour passes to E1, computed with
    # overflow, invalid values and division by zero raised as errors:
    # e^{l beta} <= tau there, so nothing may overflow
    rng = np.random.default_rng(21)
    size = 20_000
    T = np.exp(rng.uniform(0.0, log(200.0), size))
    beta = rng.uniform(0.0, 3.2, size)
    lam = np.exp(rng.uniform(log(MERGE_TOL), log(43.0), size)) * rng.choice([-1.0, 1.0], size)
    z = -lam * (beta + 1j * T)
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error")
        got = perron._exp1(z)
    want = exp1(z)
    assert np.all(np.abs(got - want) <= EXP1_REL * np.abs(want))


def deep_fraction_exp1(z: np.ndarray, depth: int = 200) -> np.ndarray:
    """The backward continued fraction of _exp1's docstring at a fixed
    depth far past any band's."""
    acc = z + (2 * depth + 1)
    for k in range(depth, 0, -1):
        acc = z + (2 * k - 1) - k * k / acc
    return np.exp(-z) / acc


def test_exp1_band_depths_match_a_deep_fraction():
    # each band's fraction at its least |z| in every direction: the band's
    # lower bound, or the edge |z| + Re z = 3 of the series where that is
    # further out; then the sliver next to the negative real axis where the
    # series stops at |z| = 60 and the fraction takes over
    rng = np.random.default_rng(22)
    theta = rng.uniform(-pi, pi, 4_000)
    with np.errstate(divide="ignore"):
        edge = 3.0 / (1.0 + np.cos(theta)) * (1.0 + 1e-12)
    his = [*perron._E1_BOUNDS, math.inf]
    for (lo, _), hi in zip(perron._E1_BANDS, his):
        r = np.maximum(lo, edge) if lo < 60.0 else np.full_like(theta, lo)
        z = r[r < hi] * np.exp(1j * theta[r < hi])
        assert z.size >= 1_000, lo
        got, want = perron._exp1(z), deep_fraction_exp1(z)
        assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want)), lo
    r = np.exp(rng.uniform(log(60.0), log(600.0), 4_000))
    side = np.pi - np.arccos(3.0 / r - 1.0)  # the sliver's angular half-width
    z = -r * np.exp(1j * side * rng.uniform(-1.0, 1.0, r.size))
    assert np.all(np.abs(z) + z.real < 3.0) and np.all(z.imag != 0.0)
    got, want = perron._exp1(z), deep_fraction_exp1(z)
    assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))


def test_exp1_elements_do_not_depend_on_each_other():
    # the series, both sides of every band bound and the sliver, shuffled
    # into one call: each value must be the one its element gets alone
    rng = np.random.default_rng(23)
    bounds = perron._E1_BOUNDS
    r = np.concatenate(
        [
            np.exp(rng.uniform(log(1e-3), log(2.9), 40)),
            bounds,
            np.nextafter(bounds, 0.0),
            np.exp(rng.uniform(log(1.5), log(600.0), 100)),
        ]
    )
    z = r * np.exp(1j * rng.uniform(-2.0, 2.0, r.size))  # off the series edge
    r = np.exp(rng.uniform(log(3.0), log(400.0), 60))
    z = np.concatenate([z, -r + 1j * rng.uniform(-0.5, 0.5, r.size)])  # sliver
    z = rng.permutation(z)
    regions = (np.abs(z) < 60.0) & (np.abs(z) + z.real < 3.0)
    assert regions.any() and not regions.all()
    assert np.all(np.bincount(np.searchsorted(bounds, np.abs(z[~regions]), side="right")) > 0)
    got = perron._exp1(z)
    alone = np.array([perron._exp1(z[i : i + 1])[0] for i in range(z.size)])
    assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))
    empty = perron._exp1(np.empty(0, dtype=np.complex128))
    assert empty.shape == (0,) and empty.dtype == np.complex128


def oracle_perron_quadrature(f, beta: float, t: float, T: float, steps: int) -> float:
    """The direct-grid contour sum, sharing no code with
    perron_tail_quadrature: one complex exp per node for every prime and for
    e^{-ts}, in chunks of 62,500 panels.  The integrand's value v0 at s = beta is
    taken out of the panels, and its pole integral over [0, T],
    v0 atan(T / beta), is added in closed form."""

    def integrand(s):  # Z(s) e^{-ts}
        z = np.ones_like(s)
        for p, e in f.factors:
            step = np.exp(log(p) * s)
            acc = np.ones_like(s)
            term = np.ones_like(s)
            for _ in range(e):
                term = term * step
                acc = acc + term
            z *= acc / (e + 1)
        return z * np.exp(-t * s)

    v0 = float(integrand(np.array([beta], dtype=np.complex128))[0].real)
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    panel = T / steps
    total = 0.0
    for start in range(0, steps, 62_500):
        stop = min(start + 62_500, steps)
        edges = np.arange(start, stop + 1, dtype=np.float64) * panel
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mid[:, None] + (0.5 * panel) * gl_x[None, :]).ravel()
        wts = np.broadcast_to(0.5 * panel * gl_w, (stop - start, 4)).ravel()
        s = beta + 1j * nodes
        vals = (integrand(s) - v0) / s
        total += float(np.dot(wts, vals.real))
    return (total + v0 * math.atan2(T, beta)) / pi


def _seeded_factorizations() -> list[Factorization]:
    # one n per omega, exponents up to 6, n < 1e15; seed 2016 gives 11^6,
    # 23^6 and two n with 8 distinct primes
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    rng = random.Random(2016)
    out = []
    for omega in (1, 2, 3, 4, 5, 6, 8, 8):
        while True:
            ps = sorted(rng.sample(primes, omega))
            f = Factorization(tuple((p, rng.randint(1, 6)) for p in ps))
            if f.n < 10**15:
                break
        out.append(f)
    return out


def _edge_cases():
    # (f, z): a prime power of 41 divisors, alone and times 3; 2^15 * 3,
    # whose id names an edge of the grouped quadrature this form replaced;
    # tau = 6,720; and z at 0.98 of the supremum, where beta is 3.2
    near_sup = factorize(720720)
    return [
        pytest.param(Factorization(((2, 40),)), 0.5, id="2^40"),
        pytest.param(Factorization(((2, 40), (3, 1))), 0.5, id="2^40*3"),
        pytest.param(Factorization(((2, 15), (3, 1))), 0.5, id="tau_g-edge"),
        pytest.param(factorize(963761198400), 0.5, id="963761198400"),
        pytest.param(
            near_sup, 0.98 * tail_quantile_domain(near_sup), id="720720-near-sup"
        ),
    ]


def exp1_perron_tail(f, beta: float, t: float, T: float) -> float:
    """The truncated contour integral in closed form with SciPy's E1, over
    log-divisors summed from the factorization."""
    logs = np.zeros(1)
    for p, e in f.factors:
        logs = np.add.outer(logs, log(p) * np.arange(e + 1)).ravel()
    lam = logs - t
    return float(np.sum(lam > 0) - exp1(-lam * complex(beta, T)).imag.sum() / pi) / f.tau


@pytest.mark.parametrize(
    "f, z",
    [pytest.param(f, 0.5, id=str(f.n)) for f in _seeded_factorizations()]
    + _edge_cases(),
)
def test_perron_matches_direct_grid_oracle(f, z):
    mom = moments(f)
    t, _ = nudge_off_atom(exact_law(f), 0.5 * f.log_n + z * mom.sigma)
    beta = solve_beta(f, z, t=t)
    for T in (1.0, 50.0, 200.0):
        got = perron_tail_quadrature(f, z, T=T, t=t)
        for want in (
            exp1_perron_tail(f, beta, t, T),
            oracle_perron_quadrature(f, beta, t, T, 200_000),
        ):
            assert abs(got - want) <= 1e-12, (T, got, want)


def test_perron_small_beta_resolves_the_pole():
    # a `pointwise` query whose tilt, 2.7e-4, is far below the panel width
    # 0.01: 4-point panels alone missed the 1/s peak at Im s = 0 (0.294)
    rep = tail_report(7525468995439, 0.0016444668953707886, perron=200.0)
    assert rep.beta < 1e-3
    assert rep.exact_tail == 0.484375
    assert abs(rep.perron - rep.exact_tail) <= 0.01, rep.perron


def test_tail_report_builds_one_law_and_one_tilt(monkeypatch):
    calls = []
    for name in ("exact_law", "solve_beta"):
        def spy(*args, _original=getattr(perron, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(perron, name, spy)
    tail_report(factorize(963761198400), 0.7, perron=200.0)
    assert sorted(calls) == ["exact_law", "solve_beta"]


def test_tail_report_fields():
    rep = tail_report(36, 0.0)
    assert rep.n == 36 and rep.z == 0.0
    assert rep.nudged  # t = log 6 sits exactly on an atom of 36
    assert rep.t > 0.5 * math.log(36)
    assert rep.exact_tail == pytest.approx(4.0 / 9.0)
    assert rep.gaussian == 0.5 and rep.saddle == 0.5
    assert rep.perron is None
    assert rep.rel_err_gaussian == pytest.approx(abs(0.5 / rep.exact_tail - 1.0))
    assert rep.rel_err_saddle == pytest.approx(abs(0.5 / rep.exact_tail - 1.0))


def test_tail_report_with_perron():
    rep = tail_report(factorize(60), 0.5, perron=200.0)
    assert not rep.nudged
    assert rep.perron is not None
    assert abs(rep.perron - rep.exact_tail) < 1e-3
    with pytest.raises(DomainError):
        tail_report(1, 0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_tilt_machinery_random(n):
    # z = 0.5 is always inside the reachable range: sup = log n/(2 sigma) >= 1
    f = factorize(n)
    beta = solve_beta(f, 0.5)
    assert beta > 0
    mom = moments(f)
    resid = log_mgf_derivative(f, beta, 1) - (0.5 * f.log_n + 0.5 * mom.sigma)
    assert abs(resid) <= 1e-10 * f.log_n
    val = saddle_tail_approx(f, 0.5).value
    assert 0.0 < val < 0.5
    assert abs(mgf(f, beta + 2.3j)) <= mgf(f, beta).real * (1 + 1e-12)


def test_tail_report_on_interior_atoms():
    # z placed exactly on each interior atom above the mean: the exact tail
    # is nudged off the atom, and the saddle and Perron tails must be
    # evaluated at that same resolved t instead of failing on the collision
    for n in range(2, 121):
        f = factorize(n)
        mom = moments(f)
        half = 0.5 * f.log_n
        for d in exact_law(f).divisors.tolist():
            z = (log(d) - half) / mom.sigma
            if d * d <= n or z >= 0.9 * tail_quantile_domain(f):
                continue
            rep = tail_report(f, z, perron=200.0)
            assert rep.nudged, (n, d)
            assert rep.saddle == saddle_tail_approx(f, z, t=rep.t).value
            assert rep.perron == perron_tail_quadrature(f, z, T=200.0, t=rep.t)
            # the contour smooths the atom next to t over ~1/T
            assert abs(rep.perron - rep.exact_tail) <= 0.01 + 1.0 / f.tau, (n, d)
