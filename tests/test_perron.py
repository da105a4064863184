"""MGF, tilt solver, tilted-Gaussian tail, and contour quadrature, checked
against divisor-sum brute force, finite differences, and quadrature oracles."""

import math
import random
import warnings
from math import log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from friabilis.arith import Factorization, factorize
from friabilis.divdist import exact_law, moments, nudge_off_atom
from friabilis.errors import DomainError
from friabilis.perron import (
    gaussian_tail,
    log_mgf,
    log_mgf_derivative,
    mgf,
    perron_tail_quadrature,
    saddle_tail_approx,
    solve_beta,
    tail_quantile_domain,
    tail_report,
)

# double-precision upper tails of the standard normal, frozen from a
# 30-digit mpmath erfc evaluation
PHI_1 = 0.15865525393145705141
PHI_8 = 6.2209605742717841235e-16

SAMPLE_N = [2, 6, 60, 97, 1024, 720720, 2**19, 3**12 * 2**7]


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
    # s values straddle the series/closed-form switch at |v s| = 0.9
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


def test_derivative_order_guard():
    f = factorize(12)
    for order in (0, 5, -1):
        with pytest.raises(DomainError):
            log_mgf_derivative(f, 0.1, order)


def test_tail_quantile_domain():
    # a prime's reachable range is exactly [0, 1)
    assert tail_quantile_domain(factorize(97)) == pytest.approx(1.0, rel=1e-14)
    assert tail_quantile_domain(factorize(720720)) > 1.0
    with pytest.raises(DomainError):
        tail_quantile_domain(factorize(1))


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


def test_solve_beta_small_z_linearization():
    # first-order shape: beta ~ z / sigma
    for n in (60, 720720, 97):
        f = factorize(n)
        sigma = moments(f).sigma
        beta = solve_beta(f, 0.01)
        assert beta * sigma / 0.01 == pytest.approx(1.0, abs=0.05), n


def test_solve_beta_guards():
    f = factorize(60)
    for z in (-0.1, math.nan):
        with pytest.raises(DomainError):
            solve_beta(f, z)
    with pytest.raises(DomainError):
        solve_beta(f, tail_quantile_domain(f))
    with pytest.raises(DomainError):
        solve_beta(factorize(1), 0.5)


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
    val = perron_tail_quadrature(f, 0.5, T=200.0, steps=50_000)
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
        perron_tail_quadrature(f, 0.5, steps=0)
    with pytest.raises(DomainError):
        perron_tail_quadrature(factorize(1), 0.5)
    # query landing exactly on the atom at log 3
    f6 = factorize(6)
    z_hit = (log(3) - 0.5 * f6.log_n) / moments(f6).sigma
    with pytest.raises(DomainError):
        perron_tail_quadrature(f6, z_hit)


def oracle_perron_quadrature(f, beta: float, t: float, T: float, steps: int) -> float:
    """The direct-grid contour sum the separable tables replaced, sharing no
    code with them: one complex exp per node for every prime and for e^{-ts},
    in chunks of 62,500 panels."""
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
        z = np.ones_like(s)
        for p, e in f.factors:
            step = np.exp(log(p) * s)
            acc = np.ones_like(s)
            term = np.ones_like(s)
            for _ in range(e):
                term = term * step
                acc = acc + term
            z *= acc / (e + 1)
        vals = z * np.exp(-t * s) / s
        total += float(np.dot(wts, vals.real))
    return total / pi


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


@pytest.mark.parametrize("f", _seeded_factorizations(), ids=lambda f: str(f.n))
def test_perron_matches_direct_grid_oracle(f):
    # steps give one-panel rows (1, 7), a partial last row (255, 257), an
    # exact fit (256), a chunk of 4,096 panels and one more panel (4,097),
    # and 5 to 32 chunks, then the acceptance size T = 200, 200,000 steps.
    # A last chunk of 4,095 panels (alone, or after one full chunk at 8,191)
    # pads to 133 rows of 31 panels, 16,492 nodes, more than a full chunk's
    # 16,384: the workspace must hold it
    mom = moments(f)
    t, _ = nudge_off_atom(exact_law(f), 0.5 * f.log_n + 0.5 * mom.sigma)
    beta = solve_beta(f, 0.5, t=t)
    grid = [
        (T, steps)
        for T in (50.0, 200.0)
        for steps in (1, 7, 255, 256, 257, 4_095, 4_097, 8_191, 20_000, 62_501, 130_000)
    ]
    for T, steps in grid + [(200.0, 200_000)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # coarse panels
            got = perron_tail_quadrature(f, 0.5, T=T, steps=steps, t=t)
        want = oracle_perron_quadrature(f, beta, t, T, steps)
        assert abs(got - want) <= 1e-12, (T, steps, got, want)


def test_perron_warns_on_coarse_panels():
    with pytest.warns(RuntimeWarning):
        perron_tail_quadrature(factorize(60), 0.5, T=200.0, steps=20)


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
    rep = tail_report(factorize(60), 0.5, perron=(200.0, 50_000))
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
            rep = tail_report(f, z, perron=(200.0, 2_000))
            assert rep.nudged, (n, d)
            assert rep.saddle == saddle_tail_approx(f, z, t=rep.t).value
            assert rep.perron == perron_tail_quadrature(f, z, T=200.0, steps=2_000, t=rep.t)
            # the contour smooths the atom next to t over ~1/T
            assert abs(rep.perron - rep.exact_tail) <= 0.01 + 1.0 / f.tau, (n, d)
