"""Exact log-divisor law: atoms, moments, tails, and the additive statistics,
all checked against sqrt-divisor brute force."""

import itertools
import math
from fractions import Fraction
from math import isqrt, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friabilis import divdist
from friabilis.arith import Factorization, SmoothTable, factorize, smooth_table
from friabilis.divdist import (
    additive_fk,
    exact_law,
    exact_upper_tail,
    model_mean_additive,
    moments,
    nudge_off_atom,
    table_moments,
    table_upper_tails,
)
from friabilis.errors import DomainError, ResourceLimitError
from friabilis.saddle import make_context

INTERESTING = [2, 4, 6, 12, 36, 60, 97, 1024, 30030, 720720, 9699690]
MOMENT_NAMES = ("log_n", "m2", "m4")  # every column table_moments can name


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
    t = 0.5 * mom.log_n[:, None] + z * mom.sigma[:, None]
    t[:, 0] = 0.5 * mom.log_n
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
    batch = divdist._nudged_tails

    def spy(table, row, t):
        full.extend(table.n[row].tolist())
        return batch(table, row, t)

    monkeypatch.setattr(divdist, "exact_law", lambda f: laws.append(f))
    monkeypatch.setattr(divdist, "nudge_off_atom", lambda *a: laws.append(a))
    monkeypatch.setattr(divdist, "_nudged_tails", spy)
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


def test_table_upper_tails_on_a_table_without_stems():
    # every third row of S(1e5, 30): most stems n // P**e are missing, and
    # such a row is its own stem, with e = 0
    whole = smooth_table(10**5, 30)
    table = SmoothTable(
        n=whole.n[::3], slots=whole.slots[::3], exps=whole.exps[::3], basis=whole.basis
    )
    rows = np.arange(len(table), dtype=np.int64)
    t = tail_queries(table, rows, seed=13)
    tails, nudged = table_upper_tails(table, rows, t)
    want_tails, want_nudged = per_n_tails(table, rows, t)
    assert np.array_equal(tails, want_tails)
    assert np.array_equal(nudged, want_nudged)


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
    mom = table_moments(table, slice(None), MOMENT_NAMES, fk=range(9))
    assert sorted(mom.fk) == list(range(9))
    w = mom.w
    for i, f in enumerate(table.factorizations()):
        want = moments(f)
        got = (mom.log_n[i], mom.m2[i], mom.m4[i], w[i])
        assert got == (f.log_n, want.m2, want.m4, want.w), f.n
        assert [mom.fk[k][i] for k in range(9)] == [additive_fk(f, k) for k in range(9)], f.n


def test_table_moments_of_some_rows_are_those_of_all_rows():
    table = smooth_table(10**5, 30)
    full = table_moments(table, slice(None), MOMENT_NAMES, fk=range(9))
    rows = np.random.default_rng(5).choice(len(table), 500, replace=False)
    for picked in (rows, slice(1, None), np.arange(0)):
        part = table_moments(table, picked, MOMENT_NAMES, fk=(8, 0, 3))
        for name in ("log_n", "m2", "m4", "w"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[picked])
        assert sorted(part.fk) == [0, 3, 8]
        for k, column in part.fk.items():
            assert np.array_equal(column, full.fk[k][picked])


def test_table_moments_fk_requests():
    table = smooth_table(2 * 10**4, 2 * 10**4)
    full = table_moments(table, slice(None), fk=range(9))
    assert table_moments(table, slice(None)).fk == {}
    omega = table_moments(table, slice(None), fk=(0,)).fk
    assert list(omega) == [0] and np.array_equal(omega[0], full.fk[0])
    twice = table_moments(table, slice(None), fk=(2, 0, 2, 5, 0)).fk
    assert sorted(twice) == [0, 2, 5]
    for k, column in twice.items():
        assert np.array_equal(column, full.fk[k])
    for bad in ((9,), (1, -1)):
        with pytest.raises(DomainError):
            table_moments(table, slice(None), fk=bad)


@pytest.mark.parametrize(
    "x,y,slot_dtype",
    [(10**5, 30, np.uint8), (2 * 10**4, 2 * 10**4, np.uint16)],
    ids=["S(1e5,30)", "S(2e4,2e4)"],
)
def test_table_moments_computes_only_the_named_columns(x, y, slot_dtype):
    table = smooth_table(x, y)
    assert table.slots.dtype == slot_dtype
    full = table_moments(table, slice(None), MOMENT_NAMES)
    rows = np.random.default_rng(7).choice(len(table), 300, replace=False)
    for names in itertools.chain.from_iterable(
        itertools.combinations(MOMENT_NAMES, r) for r in range(4)
    ):
        for picked in (slice(1, None), rows, np.arange(0)):
            part = table_moments(table, picked, names)
            for name in MOMENT_NAMES:
                if name in names:
                    want = getattr(full, name)[picked]
                    assert np.array_equal(getattr(part, name), want)
                else:
                    with pytest.raises(AttributeError):
                        getattr(part, name)
            if "m2" not in names:
                with pytest.raises(AttributeError):
                    part.sigma
            if "m4" not in names:
                with pytest.raises(AttributeError):
                    part.w
    for bad in (("m3",), ("log_n", "sigma"), "m2"):
        with pytest.raises(DomainError):
            table_moments(table, slice(None), bad)


def test_moment_columns_w_is_computed_once():
    mom = table_moments(smooth_table(10**4, 30), slice(None), ("m2", "m4"))
    w = mom.w
    assert mom.w is w  # not a column built again on each read


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
