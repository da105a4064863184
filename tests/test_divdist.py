"""Exact log-divisor law: atoms, moments, tails, and the additive statistics,
all checked against sqrt-divisor brute force."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, log
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friabilis import arith, divdist
from friabilis.arith import Factorization, SmoothTable, factorize, smooth_table
from friabilis.divdist import (
    additive_fk,
    exact_law,
    exact_upper_tail,
    model_mean_additive,
    moment_blocks,
    moments,
    nudge_off_atom,
    table_moments,
    table_upper_tails,
)
from friabilis.errors import DomainError, ResourceLimitError
from friabilis.saddle import make_context

INTERESTING = [2, 4, 6, 12, 36, 60, 97, 1024, 30030, 720720, 9699690]
MOMENT_NAMES = ("log_n", "m2", "m4")  # every column of table_moments but the f_k


def brute_divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in small if d * d != n]
    return sorted(small + large)


@pytest.mark.parametrize("n", INTERESTING)
def test_law_matches_brute_divisors(n):
    law = exact_law(factorize(n))
    ds = brute_divisors(n)
    assert law.tau == len(ds)
    assert law.divisors.tolist() == ds
    # no float log collisions at this scale: one atom per divisor
    assert len(law.values) == len(ds)
    assert np.all(np.diff(law.values) > 0)


@pytest.mark.parametrize("n", INTERESTING)
def test_moments_against_brute_law(n):
    mom = moments(factorize(n))
    ld = np.log(np.array(brute_divisors(n), dtype=np.float64))
    centered = ld - 0.5 * math.log(n)
    assert np.mean(ld) == pytest.approx(0.5 * math.log(n), rel=1e-12)
    assert mom.m2 == pytest.approx(float(np.mean(centered**2)), rel=1e-12)
    # m4 accumulates per prime-power component, not the composite law
    brute_m4 = 0.0
    for p, e in factorize(n).factors:
        grid = np.arange(e + 1) * log(p)
        brute_m4 += float(np.mean((grid - grid.mean()) ** 4))
    assert mom.m4 == pytest.approx(brute_m4, rel=1e-12)
    assert mom.t_max == pytest.approx(
        max((e + 1) * log(p) for p, e in factorize(n).factors)
    )


def test_moments_trivial_and_prime():
    one = moments(Factorization(()))
    assert (one.tau, one.m2, one.m4, one.w, one.t_max) == (1, 0.0, 0.0, 1.0, 0.0)
    pm = moments(factorize(97))
    assert pm.w == pytest.approx(1.0, rel=1e-15)  # single squarefree factor
    assert pm.sigma == pytest.approx(math.sqrt(pm.m2), rel=1e-15)


def test_balance_ratio_floor():
    # w = m2^2/m4 bottoms out at 5/9 for a single high power
    for n in INTERESTING + [2**40, 3**30]:
        mom = moments(factorize(n))
        assert mom.w >= 5.0 / 9.0 - 1e-12, n
    assert moments(factorize(2**40)).w == pytest.approx(
        (40 * 42 / 12.0) ** 2 / (40 * 42 * (3 * 1600 + 240 - 4) / 240.0), rel=1e-13
    )


@pytest.mark.parametrize("n", INTERESTING)
def test_tail_symmetry_integer_counts(n):
    law = exact_law(factorize(n))
    ds = law.divisors
    for d in ds.tolist():
        assert int(np.sum(ds >= d)) == int(np.sum(ds <= n // d)), (n, d)


def test_tail_queries_n6():
    law = exact_law(factorize(6))
    assert law.tau == 4
    at2 = float(law.values[1])  # the atom at log 2
    assert law.count_ge(at2) == 3  # closed: {2, 3, 6}
    assert law.upper_tail(at2) == pytest.approx(0.75)
    assert exact_upper_tail(law, at2) == law.upper_tail(at2)
    mid = 0.5 * (float(law.values[1]) + float(law.values[2]))
    assert law.count_ge(mid) == 2  # {3, 6}
    assert law.count_ge(-1.0) == 4
    assert law.count_ge(math.log(6) + 1.0) == 0


@pytest.mark.parametrize("n", INTERESTING)
def test_atom_masses_sum_to_one(n):
    law = exact_law(factorize(n))
    total = sum(mass for _, mass in law.atoms())
    assert total == Fraction(1)


def test_nudge_off_atom():
    law = exact_law(factorize(36))
    t = float(law.values[3])
    nudged, moved = nudge_off_atom(law, t)
    assert moved
    assert nudged != t
    assert law.nearest_atom_gap(nudged) >= 1e-12
    # off-atom queries come back untouched
    clear = t + 0.3 * (float(law.values[4]) - t)
    assert nudge_off_atom(law, clear) == (clear, False)
    # n = 1: single atom at 0, returned as-is by convention
    law1 = exact_law(factorize(1))
    assert nudge_off_atom(law1, 0.0) == (0.0, False)


def test_exact_law_ceilings(monkeypatch):
    monkeypatch.setattr(divdist, "TAU_CEILING", 100)
    with pytest.raises(ResourceLimitError):
        exact_law(factorize(720720))
    with pytest.raises(DomainError):
        exact_law(Factorization(((2, 62),)))  # n = 2**62 breaches int64 room


def test_additive_fk_basics():
    f = factorize(720720)
    assert additive_fk(f, 0) == f.omega
    assert additive_fk(f, 1) == pytest.approx(f.log_n, rel=1e-14)
    assert additive_fk(f, 2) == pytest.approx(
        sum((e * log(p)) ** 2 for p, e in f.factors), rel=1e-14
    )
    assert additive_fk(Factorization(()), 3) == 0.0
    with pytest.raises(DomainError):
        additive_fk(f, 9)
    with pytest.raises(DomainError):
        additive_fk(f, -1)


def test_model_mean_defining_equation():
    # k = 1 recovers the tilt equation: the model mean of log n is log x
    for x, y in [(10**4, 30), (10**6, 100)]:
        ctx = make_context(x, y)
        assert model_mean_additive(ctx, 1) == pytest.approx(
            math.log(x), abs=3e-12 * math.log(x)
        )


def test_model_mean_k0_matches_direct_sum():
    ctx = make_context(10**4, 30)
    direct = 0.0
    for lp in ctx.log_primes.tolist():
        direct += math.exp(-ctx.alpha * lp)  # P(nu >= 1) = p^-alpha
    assert model_mean_additive(ctx, 0) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DomainError):
        model_mean_additive(ctx, 9)


def _decimal_model_mean(ctx, k: int) -> Decimal:
    # the nu-series itself, at 50 digits, from the float alpha and log p
    alpha = Decimal(ctx.alpha)
    total = Decimal(0)
    for lp in map(Decimal, ctx.log_primes.tolist()):
        r = (-alpha * lp).exp()
        acc, power, nu = Decimal(0), Decimal(1), 0
        while True:
            nu += 1
            power *= r
            term = (nu * lp) ** k * power
            acc += term
            # past nu = k the terms fall at least geometrically here
            if nu > k and term < acc * Decimal("1e-45"):
                break
        total += (1 - r) * acc
    return total


@pytest.mark.parametrize("x,y", [(10**4, 30), (10**8, 30), (10**7, 100)])
def test_model_mean_matches_the_decimal_nu_series(x, y):
    ctx = make_context(x, y)
    with localcontext() as dc:
        dc.prec = 50
        for k in range(9):
            want = float(_decimal_model_mean(ctx, k))
            assert abs(model_mean_additive(ctx, k) / want - 1) <= 1e-14, k


def test_model_mean_of_one_prime_near_alpha_zero():
    # S(1e300, 2): alpha log 2 is about 1e-3, where 1 - r cancels unless it
    # is taken by expm1; both sides start from the floats the code holds
    ctx = make_context(1e300, 2)
    (lp,) = ctx.log_primes.tolist()
    with localcontext() as dc:
        dc.prec = 50
        r = (-Decimal(ctx.alpha) * Decimal(lp)).exp()
        want = {0: float(r), 1: float(Decimal(lp) * r / (1 - r))}
    for k, value in want.items():
        assert abs(model_mean_additive(ctx, k) - value) <= 4 * math.ulp(value), k


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_law_properties_random(n):
    f = factorize(n)
    law = exact_law(f)
    assert law.tau == f.tau
    assert np.all(np.diff(law.values) > 0)
    w = np.mean(law.values)
    assert w == pytest.approx(0.5 * math.log(n), abs=1e-10)
    # closed upper tail at the mirror point matches the lower count
    ds = law.divisors
    d = int(ds[len(ds) // 2])
    assert int(np.sum(ds >= d)) == int(np.sum(ds <= n // d))


def per_n_tails(table, rows, t):
    """table_upper_tails by the per-n path: exact_law, nudge_off_atom and
    upper_tail, with 0.0 and no nudge for a NaN query."""
    tails = np.zeros(t.shape)
    nudged = np.zeros(t.shape, dtype=bool)
    for a, row in enumerate(rows.tolist()):
        law = exact_law(factorize(int(table.n[row])))
        for j, tj in enumerate(t[a].tolist()):
            if not math.isnan(tj):
                q, nudged[a, j] = nudge_off_atom(law, tj)
                tails[a, j] = law.upper_tail(q)
    return tails, nudged


def tail_queries(table, rows, seed):
    """Thresholds for the given rows: z = 0, two random z, one planted on a
    random atom, one planted 1.5 MERGE_TOL above a random atom, and a NaN
    scattered over a tenth of the entries."""
    rng = np.random.default_rng(seed)
    mom = table_moments(table, rows, ("log_n", "m2"))
    z = rng.uniform(-1.5, 1.5, (len(rows), 5))
    t = 0.5 * mom["log_n"][:, None] + z * np.sqrt(mom["m2"])[:, None]
    t[:, 0] = 0.5 * mom["log_n"]
    for a, row in enumerate(rows.tolist()):
        values = exact_law(factorize(int(table.n[row]))).values
        t[a, 3] = values[rng.integers(len(values))]
        t[a, 4] = values[rng.integers(len(values))] + 1.5 * divdist.MERGE_TOL
    t[rng.random(t.shape) < 0.1] = math.nan
    return t


@pytest.mark.parametrize(
    "x,y,sample",
    [(10**5, 30, 600), (3 * 10**4, 1619, 600)],
    ids=["S(1e5,30)", "S(3e4,1619)"],
)
def test_table_upper_tails_matches_per_n(x, y, sample, monkeypatch):
    table = smooth_table(x, y)
    n = table.n
    omega = np.count_nonzero(table.exps, axis=1)
    top = table.exps[np.arange(len(table)), np.maximum(omega - 1, 0)]
    root = np.array([isqrt(int(v)) for v in n.tolist()])
    rng = np.random.default_rng(11)
    rows = np.concatenate(
        [
            [0],  # n = 1
            np.flatnonzero((omega == 1) & (top == 1))[:40],  # primes: stem 1
            np.flatnonzero((omega == 1) & (top > 1))[:40],  # prime powers: stem 1
            np.flatnonzero(root * root == n)[1:60],  # squares, on an atom at z = 0
            np.flatnonzero((omega > 1) & (top > 1))[:60],  # largest prime squared
            rng.choice(len(table), sample, replace=False),
        ]
    ).astype(np.int64)
    t = tail_queries(table, rows, seed=5)
    t[0, :3] = (0.0, -1e-13, 1.5 * divdist.MERGE_TOL)  # n = 1: its atom is 0
    t[1, :2] = (-1.5 * divdist.MERGE_TOL, 0.0)  # n = 2: below and on log 1

    laws = []
    full = []
    count_pass = divdist._count_pass

    def spy(table, rows, tau, stem, e, log_p, t):
        # the rows answered from the full log-divisors of their own n
        full.extend(table.n[rows[stem == rows]].tolist())
        return count_pass(table, rows, tau, stem, e, log_p, t)

    monkeypatch.setattr(divdist, "exact_law", lambda f: laws.append(f))
    monkeypatch.setattr(divdist, "nudge_off_atom", lambda *a: laws.append(a))
    monkeypatch.setattr(divdist, "_count_pass", spy)
    tails, nudged = table_upper_tails(table, rows, t)
    monkeypatch.undo()
    assert laws == []  # no per-n law is built
    want_tails, want_nudged = per_n_tails(table, rows, t)
    assert np.array_equal(tails, want_tails)
    assert np.array_equal(nudged, want_nudged)
    assert np.all(tails[np.isnan(t)] == 0.0) and not nudged[np.isnan(t)].any()
    assert nudged[:, 0].any() and nudged[:, 3].any()
    # 1.5 MERGE_TOL off an atom needs no nudge, and only the guard sends it
    # to the full log-divisors of n
    assert not nudged[:, 4].any()
    planted = ~np.isnan(t[:, 4])
    assert set(n[rows[planted]].tolist()) <= set(full)


def nudge_case():
    """S(1e5, 30) rows with a query on an atom (z = 0 on squares, n = 1,
    planted atoms), next to queries off any atom."""
    table = smooth_table(10**5, 30)
    rows = np.arange(0, len(table), 7, dtype=np.int64)
    return table, rows, tail_queries(table, rows, seed=9)


def test_table_upper_tails_nudges_in_several_steps(monkeypatch):
    # a step of 1e-14 log n < MERGE_TOL / 8 moves a query off an atom only
    # after several passes of the nudge loop
    table, rows, t = nudge_case()
    monkeypatch.setattr(divdist, "NUDGE_SCALE", 1e-14)
    tails, nudged = table_upper_tails(table, rows, t)
    want_tails, want_nudged = per_n_tails(table, rows, t)
    assert np.array_equal(tails, want_tails)
    assert np.array_equal(nudged, want_nudged)
    assert nudged.sum() > 100


def test_table_upper_tails_gives_up_after_64_steps(monkeypatch):
    # 64 steps of 1e-16 log n stay within MERGE_TOL of the atom
    table, rows, t = nudge_case()
    monkeypatch.setattr(divdist, "NUDGE_SCALE", 1e-16)
    with pytest.raises(DomainError, match="could not move query off atoms"):
        table_upper_tails(table, rows, t)
    with pytest.raises(DomainError, match="could not move query off atoms"):
        per_n_tails(table, rows, t)


def test_table_upper_tails_of_no_rows():
    table = smooth_table(10**4, 30)
    for queries in (0, 3):
        tails, nudged = table_upper_tails(
            table, np.array([], dtype=np.int64), np.empty((0, queries))
        )
        assert tails.shape == nudged.shape == (0, queries)
        assert tails.dtype == np.float64 and nudged.dtype == bool


def stemless_case():
    """Every third row of S(1e5, 30), all its rows, and their queries: most
    stems n // P**e are missing, and such a row is its own stem, with e = 0."""
    whole = smooth_table(10**5, 30)
    table = SmoothTable(
        n=whole.n[::3], slots=whole.slots[::3], exps=whole.exps[::3], basis=whole.basis
    )
    rows = np.arange(len(table), dtype=np.int64)
    return table, rows, tail_queries(table, rows, seed=13)


def test_table_upper_tails_on_a_table_without_stems():
    table, rows, t = stemless_case()
    tails, nudged = table_upper_tails(table, rows, t)
    want_tails, want_nudged = per_n_tails(table, rows, t)
    assert np.array_equal(tails, want_tails)
    assert np.array_equal(nudged, want_nudged)


def whole_case():
    """All rows of S(1e5, 30) and their queries."""
    table = smooth_table(10**5, 30)
    rows = np.arange(len(table), dtype=np.int64)
    return table, rows, tail_queries(table, rows, seed=17)


@pytest.mark.parametrize("case", [whole_case, stemless_case, nudge_case])
def test_table_upper_tails_is_the_same_on_any_chunking(case, monkeypatch):
    # 256 padded atoms a chunk split every pass into dozens of chunks or more
    table, rows, t = case()
    want_tails, want_nudged = per_n_tails(table, rows, t)
    budget = divdist.ATOM_BUDGET
    monkeypatch.setattr(divdist, "ATOM_BUDGET", 256)
    chunks = []
    key_chunks = divdist._key_chunks

    def spy(*args):
        ranges = list(key_chunks(*args))
        chunks.append(len(ranges))
        return iter(ranges)

    monkeypatch.setattr(divdist, "_key_chunks", spy)
    tails, nudged = table_upper_tails(table, rows, t)
    assert np.array_equal(tails, want_tails)
    assert np.array_equal(nudged, want_nudged)
    assert min(chunks) >= 24, chunks
    # the 64-step give-up names the same n as at the default budget
    monkeypatch.setattr(divdist, "NUDGE_SCALE", 1e-16)
    errors = []
    for atoms in (256, budget):
        monkeypatch.setattr(divdist, "ATOM_BUDGET", atoms)
        with pytest.raises(DomainError, match="could not move query") as err:
            table_upper_tails(table, rows, t)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "width", [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 130]
)
def test_search_matches_a_brute_force_oracle(width):
    # padded rows of 1 to width - 1 sorted atoms; queries on an atom,
    # between two, below 0, past the last atom, at random, and NaN
    rng = np.random.default_rng(width)
    taus = np.unique(np.r_[1, width - 1, rng.integers(1, width, 6)])
    atoms = np.full((len(taus), width), np.inf)
    for r, tau in enumerate(taus.tolist()):
        atoms[r, :tau] = np.sort(rng.choice(np.arange(200.0), tau, replace=False)) / 8
    row = rng.integers(len(taus), size=40)
    s = np.empty((len(row), 7))
    for a, r in enumerate(row.tolist()):
        values = atoms[r, : taus[r]]
        k = rng.integers(len(values))
        top = values[min(k + 1, len(values) - 1)]
        s[a] = (values[k], (values[k] + top) / 2, -0.5, values[-1] + 1, 0.0, rng.uniform(-1, 26), np.nan)
    count, gap = divdist._search(atoms, (row * width)[:, None], s, divdist._Buffers(0))
    for a, r in enumerate(row.tolist()):
        law = divdist.DivisorLaw(n=0, tau=int(taus[r]), values=atoms[r, : taus[r]], divisors=None)
        for q, v in enumerate(s[a, :-1].tolist()):
            assert count[a, q] == np.count_nonzero(law.values < v), (r, v)
            assert gap[a, q] == law.nearest_atom_gap(v), (r, v)
        # a NaN query counts no atom and is never flagged as near one
        assert count[a, -1] == 0 and np.isnan(gap[a, -1])


def near_two_to_31_table():
    """The products below 2**62 of 2, 4 and two primes near 2**31."""
    p, q = 2147483629, 2147483647
    n = [1, 2, 4, p, q, 2 * p, 2 * q, p * q]
    slots = [(3, 3), (0, 3), (0, 3), (1, 3), (2, 3), (0, 1), (0, 2), (1, 2)]
    exps = [(0, 0), (1, 0), (2, 0), (1, 0), (1, 0), (1, 1), (1, 1), (1, 1)]
    return SmoothTable(
        n=np.array(n, dtype=np.int64),
        slots=np.array(slots, dtype=np.uint8),
        exps=np.array(exps, dtype=np.int8),
        basis=np.array([2, p, q], dtype=np.int64),
    )


@pytest.mark.parametrize(
    "make_table",
    [
        lambda: smooth_table(10**8, 30),
        lambda: smooth_table(2 * 10**4, 2 * 10**4),
        near_two_to_31_table,
    ],
    ids=["S(1e8,30)", "S(2e4,2e4)", "primes-near-2^31"],
)
def test_chunk_atoms_are_the_exact_law_values(make_table):
    # one set of buffers takes a wide chunk, then a narrower one, then a
    # wide one again, so an entry left from an earlier chunk would show
    table = make_table()
    tau = np.prod(table.exps.astype(np.int64) + 1, axis=1)
    by_tau = np.argsort(tau, kind="stable")
    # in S(1e8, 30), 2**26 shares slot column 0 with 29**5, so that column's
    # power table is 27 wide and each row must read its own p^0, ..., p^e
    special = np.searchsorted(table.n, [2**26, 29**5])
    special = special[np.take(table.n, special, mode="clip") == [2**26, 29**5]]
    chunks = [
        np.r_[by_tau[-40:], special],
        by_tau[:600:3],
        np.r_[by_tau[-80:-40], by_tau[-1], special],
    ]
    buffers = divdist._Buffers(divdist.ATOM_BUDGET)
    for rows in chunks:
        rows = np.r_[rows, rows[:3]]  # items that share a stem share its atoms
        key = np.sort(tau[rows] * len(table) + rows)
        atoms, base, got_tau = divdist._chunk_atoms(table, key, buffers)
        assert atoms.size <= divdist.ATOM_BUDGET  # a view of the buffers
        flat = atoms.reshape(-1)
        for item, k in enumerate(key.tolist()):
            row = k % len(table)
            f = Factorization(
                tuple(
                    (p, e)
                    for p, e in zip(table.primes(row).tolist(), table.exps[row].tolist())
                    if e
                )
            )
            assert f.n == int(table.n[row])
            want = exact_law(f).values
            padded = flat[base[item] : base[item] + atoms.shape[1]]
            assert got_tau[item] == len(want)
            assert padded[: len(want)].tobytes() == want.tobytes(), f.n
            assert np.all(padded[len(want) :] == np.inf), f.n


def tails_digest(tails, nudged):
    return hashlib.sha256(tails.tobytes() + nudged.tobytes()).hexdigest()


def test_table_upper_tails_passes_share_no_buffers(tmp_path):
    # S(1e6, 30), every third row of S(1e5, 1000), then S(1e6, 30) again:
    # each gives the bytes a fresh interpreter gives
    cases = []
    for x, y, step in ((10**6, 30, 1), (10**5, 1000, 3)):
        table = smooth_table(x, y)
        rows = np.arange(0, len(table), step, dtype=np.int64)
        cases.append((table, rows, tail_queries(table, rows, seed=step)))
    src = str(Path(divdist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fresh = []
    for k, (table, rows, t) in enumerate(cases):
        np.save(tmp_path / f"t{k}.npy", t)
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from friabilis.arith import smooth_table\n"
            "from friabilis.divdist import table_upper_tails\n"
            f"table = smooth_table({int(table.n[-1])}, {int(table.basis[-1])})\n"
            f"rows = np.arange(0, len(table), {int(rows[1] - rows[0])})\n"
            f"tails, nudged = table_upper_tails(table, rows, np.load(sys.argv[1]))\n"
            "print(hashlib.sha256(tails.tobytes() + nudged.tobytes()).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / f"t{k}.npy")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        fresh.append(proc.stdout.strip())
    for k in (0, 1, 0):
        table, rows, t = cases[k]
        assert tails_digest(*table_upper_tails(table, rows, t)) == fresh[k], k


def test_log_divisors_are_far_apart():
    # for d1 < d2 | n, (d2 - d1) / d1 >= n**-0.5: no two atoms come within
    # MERGE_TOL of each other, even for n near 2**62 with two close primes
    table = smooth_table(10**8, 30)
    tau = np.prod(table.exps.astype(np.int64) + 1, axis=1)
    rng = np.random.default_rng(3)
    rows = np.concatenate([np.argsort(tau)[-50:], rng.choice(len(table), 300)])
    cases = [factorize(n) for n in table.n[rows].tolist()]
    cases.append(Factorization(((2147483629, 1), (2147483647, 1))))
    assert factorize(2147483629).factors == ((2147483629, 1),)
    for f in cases:
        law = exact_law(f)
        assert np.diff(law.values).min(initial=np.inf) > 100 * divdist.MERGE_TOL, f.n


@pytest.mark.parametrize(
    "x,y,slot_dtype,top",
    [
        (3 * 10**4, 1619, np.uint16, 14),
        (10**8, 30, np.uint8, 26),
        (2 * 10**4, 2 * 10**4, np.uint16, 14),
    ],
    ids=["S(3e4,1619)", "S(1e8,30)", "S(2e4,2e4)"],
)
def test_table_terms_match_per_n(x, y, slot_dtype, top):
    # the flat term index slot * width + e passes 255 at S(1e8, 30), where
    # the slots are uint8 and 2**26 makes width 27; at S(2e4, 2e4) most
    # primes take only e = 1, so the pow bound decides which f_k terms exist
    table = smooth_table(x, y)
    assert table.slots.dtype == slot_dtype and table.exps.max() == top
    mom = table_moments(table, slice(None), (*MOMENT_NAMES, *range(9)))
    assert list(mom) == [*MOMENT_NAMES, *range(9)]
    log_n, m2, m4, *fk = mom.values()
    for i, f in enumerate(table.factorizations()):
        want = moments(f)
        assert (log_n[i], m2[i], m4[i]) == (f.log_n, want.m2, want.m4), f.n
        assert [column[i] for column in fk] == [additive_fk(f, k) for k in range(9)], f.n


def test_table_moments_of_some_rows_are_those_of_all_rows():
    table = smooth_table(10**5, 30)
    full = table_moments(table, slice(None), (*MOMENT_NAMES, *range(9)))
    rows = np.random.default_rng(5).choice(len(table), 500, replace=False)
    for picked in (rows, slice(1, None), np.arange(0)):
        part = table_moments(table, picked, (*MOMENT_NAMES, 8, 0, 3))
        assert list(part) == [*MOMENT_NAMES, 8, 0, 3]
        for column, values in part.items():
            assert np.array_equal(values, full[column][picked])


@pytest.mark.parametrize(
    "x,y,slot_dtype",
    [(10**5, 30, np.uint8), (2 * 10**4, 2 * 10**4, np.uint16)],
    ids=["S(1e5,30)", "S(2e4,2e4)"],
)
def test_table_moments_computes_only_the_columns_asked(x, y, slot_dtype):
    # one key per distinct column, in the order first asked, and no other
    table = smooth_table(x, y)
    assert table.slots.dtype == slot_dtype
    full = table_moments(table, slice(None), (*MOMENT_NAMES, *range(9)))
    rows = np.random.default_rng(7).choice(len(table), 300, replace=False)
    requests = [
        (names, list(names))
        for r in range(4)
        for names in itertools.combinations(MOMENT_NAMES, r)
    ]
    requests += [((0,), [0]), ((2, 0, 2, 5, 0), [2, 0, 5]), (("m2", 1, "m2"), ["m2", 1])]
    for columns, keys in requests:
        for picked in (slice(1, None), rows, np.arange(0)):
            part = table_moments(table, picked, columns)
            assert list(part) == keys
            for column, values in part.items():
                assert np.array_equal(values, full[column][picked])
    for bad in (("m3",), ("log_n", "sigma"), "m2", (9,), (1, -1)):
        with pytest.raises(DomainError):
            table_moments(table, slice(None), bad)


@pytest.mark.parametrize("large_block", [arith.LARGE_BLOCK, 999], ids=["default", "999"])
@pytest.mark.parametrize(
    "x,y",
    [(10**5, 30), (10**4, 150), (10**5, 1619), (2 * 10**4, 2 * 10**4), (10**6, 2)],
    ids=["S(1e5,30)", "S(1e4,150)", "S(1e5,1619)", "S(2e4,2e4)", "S(1e6,2)"],
)
def test_moment_blocks_are_table_moments(x, y, large_block, monkeypatch):
    # the growth's sums, sorted by n, are table_moments' floats bit for bit;
    # all but the first and last sizes reach the primes past sqrt(x), and a
    # LARGE_BLOCK of 999 cuts them into several blocks
    monkeypatch.setattr(arith, "LARGE_BLOCK", large_block)
    columns = (*MOMENT_NAMES, *range(9))
    blocks = list(moment_blocks(x, y, columns, arith.ROW_BYTES))
    assert all(list(sums) == list(columns) for _, sums in blocks)
    n = np.concatenate([n for n, _ in blocks])
    order = np.argsort(n)
    table = smooth_table(x, y)
    assert np.array_equal(n[order], table.n)
    want = table_moments(table, slice(None), columns)
    for column in columns:
        got = np.concatenate([sums[column] for _, sums in blocks])[order]
        assert got.tobytes() == want[column].tobytes(), column


def test_moment_blocks_refuse_like_the_table(monkeypatch):
    # the ceilings charge the caller's bytes a row; columns are checked first
    rows = 5_158  # Psi(1e5, 30)
    monkeypatch.setattr(arith, "MEMORY_CEILING", rows * 40)
    assert sum(len(n) for n, _ in moment_blocks(10**5, 30, ("m2", 0), 40)) == rows
    with pytest.raises(ResourceLimitError, match="memory ceiling"):
        list(moment_blocks(10**5, 30, ("m2", 0), 41))
    with pytest.raises(DomainError):
        list(moment_blocks(10**5, 30, ("m3",), 40))
    with pytest.raises(DomainError, match="x must be >= 1"):
        list(moment_blocks(0, 30, ("m2",), 40))


def test_terms_are_made_once_per_prime_power(monkeypatch):
    # the term table holds each p^e <= the largest n once per column asked,
    # for every prime of the basis, and no exponent past that
    table = smooth_table(10**5, 10**5)
    rows = np.sort(np.array(random.Random(0).sample(range(1, len(table)), 1000)))
    top = int(table.n[-1])
    powers = [(log(p), e) for p in table.basis.tolist() for e in range(1, 17) if p**e <= top]
    calls = []
    term = divdist._term

    def spy(column, log_p, e):
        calls.append((log_p, e))
        return term(column, log_p, e)

    monkeypatch.setattr(divdist, "_term", spy)
    table_moments(table, rows, MOMENT_NAMES)
    assert calls == powers * len(MOMENT_NAMES)


def oracle_columns(factorizations) -> dict:
    """Every table_moments column, from the per-n functions."""
    fs = list(factorizations)
    columns = {"log_n": [f.log_n for f in fs]}
    columns["m2"], columns["m4"] = zip(*((m.m2, m.m4) for m in map(moments, fs)))
    columns.update({k: [additive_fk(f, k) for f in fs] for k in range(9)})
    return {c: list(values) for c, values in columns.items()}


@pytest.mark.parametrize("x", [3**5, 3**10, 3**13])
def test_terms_reach_exact_powers(x):
    # x = 3**e is the largest row of S(x, 3); a float floor of log x / log 3
    # (4.999... at 3**5) would leave its last term out
    columns = (*MOMENT_NAMES, *range(9))
    table = smooth_table(x, 3)
    want = oracle_columns(table.factorizations())
    for rows in (slice(None), np.arange(len(table))):
        got = table_moments(table, rows, columns)
        assert all(got[c].tolist() == want[c] for c in columns)
    blocks = list(moment_blocks(x, 3, columns, arith.ROW_BYTES))
    order = np.argsort(np.concatenate([n for n, _ in blocks]))
    for c in columns:
        assert np.concatenate([sums[c] for _, sums in blocks])[order].tolist() == want[c]


def test_sampled_rows_of_a_large_basis_match_per_n():
    table = smooth_table(2 * 10**5, 2 * 10**5)
    rows = np.random.default_rng(9).choice(len(table), 300, replace=False)
    columns = (*MOMENT_NAMES, *range(9))
    got = table_moments(table, rows, columns)
    want = oracle_columns(map(factorize, table.n[rows].tolist()))
    assert all(got[c].tolist() == want[c] for c in columns)


def test_table_upper_tails_ceiling_names_the_first_row(monkeypatch):
    table = smooth_table(10**4, 30)
    rows = np.arange(len(table))[::-1]
    monkeypatch.setattr(divdist, "TAU_CEILING", 40)
    with pytest.raises(ResourceLimitError) as got:
        table_upper_tails(table, rows, np.zeros((len(rows), 1)))
    first = next(
        int(table.n[r]) for r in rows.tolist() if factorize(int(table.n[r])).tau > 40
    )
    with pytest.raises(ResourceLimitError) as want:
        exact_law(factorize(first))
    assert str(got.value) == str(want.value)
