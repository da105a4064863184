"""Acceptance gate: one test per shipping criterion, each printing a visible
PASS/FAIL line with the measured figure.  Tolerances are pinned here and do
not drift with refactors; derived constants were frozen from pilot runs and
are asserted as-is."""

import math
import random
import time

import numpy as np

from friabilis._backend import kernels
from friabilis.arith import (
    enumerate_smooth,
    factorize,
    psi_exact,
    psi_recursive,
    sieve_primes,
)
from friabilis.dickman import RhoTable, dickman_rho
from friabilis.divdist import exact_law, exact_upper_tail, moments, nudge_off_atom
from friabilis.experiments import (
    AverageRunConfig,
    CltRunConfig,
    arcsine_check,
    run_average,
    run_clt,
)
from friabilis.perron import (
    gaussian_tail,
    log_mgf,
    log_mgf_derivative,
    mgf,
    perron_tail_quadrature,
    saddle_tail_approx,
    solve_beta,
)
from friabilis.saddle import make_context, psi_saddle_estimate, solve_alpha

GRID = [(10**3, 10), (10**3, 100), (10**3, 1000),
        (10**4, 10), (10**4, 100), (10**4, 1000),
        (10**5, 10), (10**5, 100), (10**5, 1000),
        (10**6, 10), (10**6, 100), (10**6, 1000)]

# 30-digit corrected-trapezoid oracle for rho(3), frozen
RHO_3 = 0.048608388291131567

# frozen after pilot: per-bin medians of the weighted tail error at
# x = 1e8, y = 30 ranged over [0.0, 0.106]; 0.25 bounds them with margin
CLT_MEDIAN_BOUND = 0.25
W_BIN_EDGES = (1.0, 1.5, 2.0, 2.5, 3.5)  # left edge 5/9, right edge inf
MIN_BIN_COUNT = 100

# frozen after pilot: normalized average-law gaps at x = 1e8, y = 30 were
# (0.003, 1.47, 1.78, 0.84) over z in {0, 0.5, 1, 1.5}
AVERAGE_GAP_BOUND = 2.5


def test_criterion_01_moment_identities(acceptance):
    start = time.perf_counter()
    limit = 10**4
    _, m2, m4 = kernels.moment_scan(limit)
    worst = 0.0
    for n in range(2, limit + 1):
        b2 = 0.0
        b4 = 0.0
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                g = np.arange(e + 1) * math.log(p)
                c = g - g.mean()
                b2 += float(np.mean(c**2))
                b4 += float(np.mean(c**4))
            p += 1
        if m > 1:
            b2 += 0.25 * math.log(m) ** 2
            b4 += 0.0625 * math.log(m) ** 4
        worst = max(worst, abs(m2[n] / b2 - 1.0), abs(m4[n] / b4 - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    acceptance(
        "01 moment identities",
        ok,
        f"max rel gap {worst:.2e} over n <= 1e4 (tol 1e-10), {elapsed:.1f}s < 30s",
    )
    assert ok


def test_criterion_02_balance_ratio_floor(acceptance):
    start = time.perf_counter()
    _, m2, m4 = kernels.moment_scan(10**6)
    w = m2[2:] ** 2 / m4[2:]
    wmin = float(w.min())
    argmin = int(np.argmin(w)) + 2
    elapsed = time.perf_counter() - start
    ok = wmin >= 5.0 / 9.0 and elapsed < 60.0
    acceptance(
        "02 w_n >= 5/9",
        ok,
        f"min w = {wmin:.6f} at n = {argmin} (floor {5/9:.6f}), {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_03_exact_tail_symmetry(acceptance):
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(2, 10**4 + 1):
        ds = exact_law(factorize(n)).divisors
        tau = len(ds)
        # P(D >= mean + t) at atom offset t = log d - mean counts e >= d;
        # the mirror P(D <= mean - t) counts e <= n/d: pure integer symmetry
        ge_counts = tau - np.arange(tau)
        le_mirror = np.searchsorted(ds, n // ds, side="right")
        if not np.array_equal(ge_counts, le_mirror):
            ok = False
            break
        checked += tau
    elapsed = time.perf_counter() - start
    acceptance(
        "03 exact symmetry",
        ok,
        f"{checked} atom offsets over n <= 1e4, integer-count equality, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_psi_cross_validation(acceptance):
    start = time.perf_counter()
    gaps = []
    for x, y in GRID:
        gaps.append(psi_exact(x, y) - psi_recursive(x, y))
    anchors = (psi_exact(100, 3), psi_exact(100, 2))
    elapsed = time.perf_counter() - start
    ok = all(g == 0 for g in gaps) and anchors == (20, 7)
    acceptance(
        "04 psi cross-validation",
        ok,
        f"12 grid points exact==recursive, psi(100,3)={anchors[0]}, "
        f"psi(100,2)={anchors[1]}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_dickman(acceptance):
    flat = max(
        abs(dickman_rho(u) - (1.0 - math.log(u)))
        for u in np.linspace(1.0, 2.0, 201).tolist()
    )
    rel3 = abs(dickman_rho(3.0) / RHO_3 - 1.0)
    t1 = RhoTable.build(h=1e-3, u_max=12.0)
    t2 = RhoTable.build(h=5e-4, u_max=12.0)
    halving = abs(dickman_rho(10.0, t1) - dickman_rho(10.0, t2))
    ok = flat <= 1e-9 and rel3 <= 1e-8 and halving < 1e-9
    acceptance(
        "05 dickman rho",
        ok,
        f"[1,2] gap {flat:.1e} (tol 1e-9), rho(3) rel {rel3:.1e} (tol 1e-8), "
        f"halving shift {halving:.1e} (tol 1e-9)",
    )
    assert ok


def test_criterion_06_alpha(acceptance):
    worst = 0.0
    alphas = {}
    for x, y in GRID:
        a = solve_alpha(x, y)
        alphas[(x, y)] = a
        lp = [math.log(p) for p in sieve_primes(y).tolist()]
        resid = math.fsum(v / math.expm1(a * v) for v in lp) - math.log(x)
        worst = max(worst, abs(resid) / (1e-12 * math.log(x)))
    known_gap = abs(solve_alpha(4, 2) - math.log(1.5) / math.log(2))
    mono_x = all(
        alphas[(10**e, y)] > alphas[(10 ** (e + 1), y)]
        for y in (10, 100, 1000)
        for e in (3, 4, 5)
    )
    mono_y = all(
        alphas[(x, 10)] < alphas[(x, 100)] < alphas[(x, 1000)]
        for x in (10**3, 10**4, 10**5, 10**6)
    )
    ok = worst <= 1.0 and known_gap <= 1e-10 and mono_x and mono_y
    acceptance(
        "06 alpha residual",
        ok,
        f"max residual {worst:.3f}x of 1e-12 log x, alpha(4,2) gap {known_gap:.1e} "
        f"(tol 1e-10), monotone in x and y: {mono_x and mono_y}",
    )
    assert ok


def test_criterion_07_count_estimate_ratio(acceptance):
    start = time.perf_counter()
    ratios = {}
    for x, y in GRID:
        ctx = make_context(x, y)
        if ctx.u_bar >= 3.0 - 1e-9:
            ratios[(x, y)] = psi_saddle_estimate(ctx) / psi_exact(x, y)
    elapsed = time.perf_counter() - start
    ok = (
        len(ratios) == 5
        and all(0.7 <= r <= 1.4 for r in ratios.values())
        and elapsed < 300.0
    )
    shown = ", ".join(f"{r:.3f}" for r in ratios.values())
    acceptance(
        "07 saddle count ratio",
        ok,
        f"ratios [{shown}] at the {len(ratios)} grid points with u_bar >= 3 "
        f"(window [0.7, 1.4]), {elapsed:.1f}s < 5min",
    )
    assert ok


def test_criterion_08_generating_function(acceptance):
    start = time.perf_counter()
    worst_product = 0.0
    for n in range(2, 10**4 + 1):
        f = factorize(n)
        ds = exact_law(f).divisors.astype(np.float64)
        for s in (0.3, 1.0, 1.0 + 2.0j):
            brute = complex(np.mean(ds ** complex(s)))
            worst_product = max(worst_product, abs(mgf(f, s) - brute) / abs(brute))
    pool = [f for f in enumerate_smooth(10**6, 100) if f.n > 1]
    sample = random.Random(20260817).sample(pool, 100)
    h = 1e-5
    worst_fd = 0.0
    for f in sample:
        for s in (0.0, 0.05, 0.2):
            fd = (log_mgf(f, s + h) - log_mgf(f, s - h)) / (2 * h)
            d = log_mgf_derivative(f, s, 1)
            worst_fd = max(worst_fd, abs(d - fd) / (1.0 + abs(d)))
            for order in (2, 3, 4):
                lo = log_mgf_derivative(f, s - h, order - 1)
                hi = log_mgf_derivative(f, s + h, order - 1)
                d = log_mgf_derivative(f, s, order)
                worst_fd = max(worst_fd, abs(d - (hi - lo) / (2 * h)) / (1.0 + abs(d)))
    elapsed = time.perf_counter() - start
    ok = worst_product <= 1e-10 and worst_fd <= 1e-6
    acceptance(
        "08 generating function",
        ok,
        f"product vs divisor sum max rel {worst_product:.1e} (tol 1e-10) over "
        f"n <= 1e4; derivative FD max gap {worst_fd:.1e} (tol 1e-6) on 100 "
        f"smooth n, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_09_tilt_solver(acceptance):
    pool = [f for f in enumerate_smooth(10**6, 100) if f.n > 1]
    sample = random.Random(414243).sample(pool, 100)
    h = 1e-4
    worst_beta0 = 0.0
    min_slope = math.inf
    halves_exact = True
    for f in sample:
        worst_beta0 = max(worst_beta0, abs(solve_beta(f, 0.0)))
        sigma = moments(f).sigma
        slope = (solve_beta(f, 0.1 + h) - solve_beta(f, 0.1 - h)) / (2 * h)
        min_slope = min(min_slope, slope * sigma)
        halves_exact = halves_exact and saddle_tail_approx(f, 0.0).value == 0.5
    ok = worst_beta0 <= 1e-10 and min_slope >= 1.0 - 1e-6 and halves_exact
    acceptance(
        "09 tilt solver",
        ok,
        f"max |beta(0)| = {worst_beta0:.1e} (tol 1e-10), min FD slope*sigma = "
        f"{min_slope:.6f} (floor 1-1e-6) at z=0.1, tail(0) = 1/2 exact: "
        f"{halves_exact}, 100 smooth n",
    )
    assert ok


def test_criterion_10_contour_diagnostic(acceptance):
    f = factorize(60)
    mom = moments(f)
    t = 0.5 * f.log_n + 0.5 * mom.sigma
    exact = exact_upper_tail(exact_law(f), t)
    val = perron_tail_quadrature(f, 0.5, T=200.0)
    gap = abs(val - exact)
    ok = gap <= 1e-3
    acceptance(
        "10 contour diagnostic",
        ok,
        f"n=60 z=0.5 T=200: |quadrature - exact| = {gap:.2e} (tol 1e-3), "
        f"exact = {exact:.6f}",
    )
    assert ok


def test_criterion_11_clt_trend(acceptance):
    start = time.perf_counter()
    x, y = 10**8, 30
    zs = (0.0, 1.0)
    binned = {z: [[] for _ in range(len(W_BIN_EDGES) + 1)] for z in zs}
    for f in enumerate_smooth(x, y):
        if f.n == 1:
            continue
        mom = moments(f)
        z_cap = mom.w**0.25
        law = None
        for z in zs:
            if z > z_cap:
                continue
            if law is None:
                law = exact_law(f)
            t, _ = nudge_off_atom(law, 0.5 * f.log_n + z * mom.sigma)
            err = abs(law.upper_tail(t) / gaussian_tail(z) - 1.0) * mom.w / (1.0 + z**4)
            idx = sum(mom.w >= edge for edge in W_BIN_EDGES)
            binned[z][idx].append(err)
    medians = {
        z: [
            (len(errs), float(np.median(errs)))
            for errs in binned[z]
            if len(errs) >= MIN_BIN_COUNT
        ]
        for z in zs
    }
    elapsed = time.perf_counter() - start
    flat = all(
        med <= CLT_MEDIAN_BOUND for rows in medians.values() for _, med in rows
    )
    ok = flat and elapsed < 600.0
    shown = "; ".join(
        f"z={z}: " + ", ".join(f"{m:.3f}" for _, m in rows)
        for z, rows in medians.items()
    )
    acceptance(
        "11 clt trend",
        ok,
        f"x=1e8 y=30 full ensemble, per-w-bin medians [{shown}] all <= "
        f"{CLT_MEDIAN_BOUND} (frozen), bins with >= {MIN_BIN_COUNT} n, "
        f"{elapsed:.0f}s < 10min",
    )
    assert ok


def test_criterion_12_averaged_law(acceptance):
    start = time.perf_counter()
    res = run_average(
        AverageRunConfig(x=10**8, y=30, z_grid=(0.0, 0.5, 1.0, 1.5), c5=1.1)
    )
    gaps = [row.normalized_gap for row in res.rows]
    elapsed = time.perf_counter() - start
    ok = all(g <= AVERAGE_GAP_BOUND for g in gaps)
    shown = ", ".join(f"{g:.3f}" for g in gaps)
    acceptance(
        "12 averaged law",
        ok,
        f"x=1e8 y=30 normalized gaps [{shown}] over z in (0, 0.5, 1, 1.5), "
        f"all <= {AVERAGE_GAP_BOUND} (frozen), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_13_arcsine(acceptance):
    start = time.perf_counter()
    res = arcsine_check(10**6, (0.25, 0.5))
    elapsed = time.perf_counter() - start
    gaps = {row.v: row.gap for row in res.rows}
    ok = all(g <= 0.05 for g in gaps.values())
    acceptance(
        "13 arcsine profile",
        ok,
        f"x=1e6 gaps v=1/4: {gaps[0.25]:.4f}, v=1/2: {gaps[0.5]:.4f} "
        f"(tol 0.05), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_14_determinism(acceptance, tmp_path):
    full_cfg = CltRunConfig(x=10**5, y=30, z_grid=(0.0, 1.0))
    sampled_cfg = CltRunConfig(
        x=10**5, y=30, z_grid=(0.0, 1.0), sample_cap=500, seed=3
    )
    pairs = []
    for tag, cfg in (("full", full_cfg), ("sampled", sampled_cfg)):
        a, b = tmp_path / f"{tag}_a.csv", tmp_path / f"{tag}_b.csv"
        run_clt(cfg).write_csv(a)
        run_clt(cfg).write_csv(b)
        pairs.append((tag, a.read_bytes(), b.read_bytes()))
    ok = all(x == y for _, x, y in pairs)
    sizes = ", ".join(f"{tag} {len(x)}B" for tag, x, _ in pairs)
    acceptance(
        "14 determinism",
        ok,
        f"byte-identical CSV on repeat runs ({sizes}), full and sampled paths",
    )
    assert ok
