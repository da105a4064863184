"""Ensemble runs: deterministic serialization, sampling consistency, and the
statistical sanity of each run kind at desk scale."""

import json
import math
import random
import tracemalloc
from fractions import Fraction
from math import exp

import numpy as np
import pytest

from friabilis import arith, divdist, experiments
from friabilis import _kernels_py as kernels
from friabilis.arith import enumerate_smooth, psi_exact
from friabilis.divdist import (
    additive_fk,
    exact_law,
    model_mean_additive,
    moments,
    nudge_off_atom,
)
from friabilis.errors import ConfigError, ResourceLimitError
from friabilis.experiments import (
    SCHEMA_VERSION,
    ArcsineRow,
    AverageRow,
    AverageRunConfig,
    CltRow,
    CltRunConfig,
    ConcentrationRow,
    ConcentrationRunConfig,
    RunResult,
    arcsine_check,
    run_average,
    run_clt,
    run_concentration,
)
from friabilis.perron import gaussian_tail
from friabilis.saddle import make_context

X, Y = 10**4, 30  # small enough to enumerate in milliseconds


def test_clt_csv_deterministic(tmp_path):
    cfg = CltRunConfig(x=X, y=Y, z_grid=(0.0, 0.5, 1.0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_clt(cfg).write_csv(a)
    run_clt(cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].split(",") == [
        "z",
        "n_tested",
        "exceptional_count",
        "exceptional_fraction",
        "median_normalized_error",
        "max_normalized_error",
        "nudged",
    ]
    assert len(lines) == 2 + 3


def test_clt_csv_cells_roundtrip(tmp_path):
    res = run_clt(CltRunConfig(x=X, y=Y, z_grid=(0.5,)))
    path = tmp_path / "r.csv"
    res.write_csv(path)
    cells = path.read_text().splitlines()[2].split(",")
    row = res.rows[0]
    assert float(cells[0]) == row.z
    assert int(cells[1]) == row.n_tested
    assert float(cells[4]) == row.median_normalized_error  # repr round-trips


def test_clt_statistics_sane():
    res = run_clt(CltRunConfig(x=X, y=Y, z_grid=(0.0, 0.5, 1.0), C=10.0))
    assert res.meta["psi_gt1"] == psi_exact(X, Y) - 1
    assert not res.meta["sampled"]
    for row in res.rows:
        assert 0 < row.n_tested <= res.meta["psi_gt1"]
        assert row.exceptional_fraction == 0.0  # C = 10 is far out at this scale
        assert 0.0 <= row.median_normalized_error <= row.max_normalized_error


def test_clt_z_cap_and_w_min():
    base = run_clt(CltRunConfig(x=X, y=Y, z_grid=(0.0, 0.5)))
    capped = run_clt(CltRunConfig(x=X, y=Y, z_grid=(0.0, 0.5), B=0.01))
    assert capped.rows[0].n_tested == base.rows[0].n_tested  # z = 0 always active
    assert capped.rows[1].n_tested == 0
    assert capped.rows[1].median_normalized_error == 0.0
    filtered = run_clt(CltRunConfig(x=X, y=Y, z_grid=(0.0,), w_min=1.05))
    assert 0 < filtered.rows[0].n_tested < base.rows[0].n_tested


def test_clt_sampled_matches_full():
    # the exceedance fraction over cap uniformly drawn row ranks sits within
    # 3 standard errors of the full-enumeration value
    x, y = 10**5, 30
    full = run_clt(CltRunConfig(x=x, y=y, z_grid=(0.5,), C=10.0))
    m_full = full.rows[0].median_normalized_error
    assert m_full > 0
    cap = 400
    cfg = lambda C: CltRunConfig(x=x, y=y, z_grid=(0.5,), C=C, sample_cap=cap, seed=7)
    full_at_median = run_clt(CltRunConfig(x=x, y=y, z_grid=(0.5,), C=m_full))
    p_full = full_at_median.rows[0].exceptional_fraction
    sampled = run_clt(cfg(m_full))
    assert sampled.meta["sampled"]
    assert sampled.meta["n_selected"] == cap
    p_s = sampled.rows[0].exceptional_fraction
    se = math.sqrt(max(p_full * (1 - p_full), 0.05) / cap)
    assert abs(p_s - p_full) <= 3 * se, (p_s, p_full, se)


def test_clt_sampled_deterministic(tmp_path):
    cfg = CltRunConfig(x=10**5, y=30, z_grid=(0.0, 0.5), sample_cap=300, seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_clt(cfg).write_csv(a)
    run_clt(cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 101, 1000])
def test_median_is_np_median_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for a in (
        rng.random(size) * 10.0 ** rng.integers(-6, 6),
        rng.integers(0, 3, size) / 3.0,  # ties across the middle
        np.abs(rng.standard_normal(size)) * 1e300,
    ):
        assert same_float(experiments._median(a), float(np.median(a)))


def test_clt_median_is_np_median_bit_for_bit(monkeypatch):
    # every sampled n is tested at these z, so the caps give an odd and an
    # even n_tested
    seen = []
    median = experiments._median

    def spy(errs):
        seen.append((errs.copy(), median(errs)))
        return seen[-1][1]

    monkeypatch.setattr(experiments, "_median", spy)
    for cap in (301, 302):
        res = run_clt(CltRunConfig(x=10**5, y=30, z_grid=(0.0, 0.5), sample_cap=cap, seed=3))
        assert [r.n_tested for r in res.rows] == [cap, cap]
        assert [r.median_normalized_error for r in res.rows] == [m for _, m in seen[-2:]]
    for errs, m in seen:
        assert same_float(m, float(np.median(errs)))


def test_clt_config_guards():
    with pytest.raises(ConfigError):
        CltRunConfig(x=1, y=Y, z_grid=(0.0,))
    with pytest.raises(ConfigError):
        CltRunConfig(x=X, y=1, z_grid=(0.0,))
    with pytest.raises(ConfigError):
        CltRunConfig(x=X, y=Y, z_grid=())
    with pytest.raises(ConfigError):
        CltRunConfig(x=X, y=Y, z_grid=(-0.5,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            CltRunConfig(x=X, y=Y, z_grid=(0.0, bad))
    for bad in (0.0, math.nan):
        with pytest.raises(ConfigError):
            CltRunConfig(x=X, y=Y, z_grid=(0.0,), C=bad)
        with pytest.raises(ConfigError):
            CltRunConfig(x=X, y=Y, z_grid=(0.0,), B=bad)
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigError):
            CltRunConfig(x=X, y=Y, z_grid=(0.0,), w_min=bad)
    with pytest.raises(ConfigError):
        CltRunConfig(x=X, y=Y, z_grid=(0.0,), sample_cap=0)


def test_average_gaussian_at_zero():
    res = run_average(AverageRunConfig(x=X, y=Y, z_grid=(0.0,)))
    row = res.rows[0]
    assert row.n_count == psi_exact(X, Y)  # n = 1 participates
    assert row.gaussian == 0.5
    assert abs(row.mean_tail - 0.5) <= 0.02
    assert row.nudged > 0  # perfect squares put z = 0 right on an atom
    expected_gap = abs(row.mean_tail - 0.5) * res.meta["u_bar"] / 0.5
    assert row.normalized_gap == pytest.approx(expected_gap, rel=1e-12)


def test_average_columns_and_negative_z():
    res = run_average(AverageRunConfig(x=X, y=Y, z_grid=(-0.5, 0.0, 1.0)))
    for row in res.rows:
        assert row.gaussian == gaussian_tail(row.z)
        assert 0.0 <= row.mean_tail <= 1.0
    by_z = {row.z: row for row in res.rows}
    assert by_z[-0.5].mean_tail > by_z[0.0].mean_tail > by_z[1.0].mean_tail


def test_average_z_cap():
    # u_bar(1e4, 30) ~ 2.7, so the default window ends near z = 1.22
    with pytest.raises(ConfigError):
        run_average(AverageRunConfig(x=X, y=Y, z_grid=(3.0,)))
    res = run_average(AverageRunConfig(x=X, y=Y, z_grid=(3.0,), c5=3.0))
    assert res.rows[0].mean_tail < 0.05


def test_average_config_guards():
    with pytest.raises(ConfigError):
        AverageRunConfig(x=X, y=Y, z_grid=())
    for bad in (0.0, math.nan):
        with pytest.raises(ConfigError):
            AverageRunConfig(x=X, y=Y, z_grid=(0.0,), c5=bad)
    with pytest.raises(ConfigError):
        AverageRunConfig(x=X, y=Y, z_grid=(math.nan,))
    with pytest.raises(ConfigError):
        AverageRunConfig(x=1, y=Y, z_grid=(0.0,))


def test_concentration_rows_and_meta():
    cfg = ConcentrationRunConfig(
        x=X, y=Y, k_list=(0, 1, 2), thresholds=(0.0, 0.25, 0.5)
    )
    res = run_concentration(cfg)
    assert len(res.rows) == 9
    psi = res.meta["psi"]
    assert psi == psi_exact(X, Y)
    # k = 1 model mean is pinned to log x by the defining equation
    assert res.meta["model_means"]["1"] == pytest.approx(
        math.log(X), abs=3e-12 * math.log(X)
    )
    for row in res.rows:
        assert 0.0 <= row.fraction <= 1.0
        assert row.shape == pytest.approx(
            math.exp(-row.delta**2 * res.meta["u_bar"]), rel=1e-15
        )
    by_k = {}
    for row in res.rows:
        by_k.setdefault(row.k, []).append(row.fraction)
    for k, fracs in by_k.items():
        assert fracs == sorted(fracs, reverse=True), k  # monotone in delta
    # delta = 0 degenerates to: f_k almost never equals its mean exactly
    zero_rows = [r for r in res.rows if r.delta == 0.0]
    assert all(r.fraction >= 1.0 - 2.0 / psi for r in zero_rows)
    hist = res.meta["sigma_histogram"]
    assert sum(hist["counts"]) == psi - 1  # n = 1 carries no sigma
    assert len(hist["edges"]) == len(hist["counts"]) + 1


def test_concentration_builds_no_table(monkeypatch):
    # the counts and the histogram fold the growth of S(x, y): no table, and
    # no slot-column pass over one
    def refuse(*args, **kwargs):
        raise AssertionError("a table path was called")

    for module in (arith, experiments):
        monkeypatch.setattr(module, "smooth_table", refuse)
    for module in (divdist, experiments):
        monkeypatch.setattr(module, "table_moments", refuse)
    res = run_concentration(ConcentrationRunConfig(x=10**5, y=100, k_list=(0, 1, 2, 3, 8)))
    assert res.meta["psi"] == psi_exact(10**5, 100)


@pytest.mark.parametrize(
    "x,y,k_list",
    [
        (10**7, 100, (0, 1, 2)),
        (10**7, 100, tuple(range(9))),
        (10**8, 30, tuple(range(9))),
        (10**9, 13, tuple(range(9))),
        (10**6, 10**5, tuple(range(9))),
    ],
    ids=["S(1e7,100)", "S(1e7,100)-k0..8", "S(1e8,30)-k0..8", "S(1e9,13)-k0..8", "S(1e6,1e5)-k0..8"],
)
def test_concentration_peak_within_row_bytes(x, y, k_list):
    # the growth charges CONCENTRATION_ROW_BYTES and 8 a column a row; the
    # whole run must fit
    config = ConcentrationRunConfig(x=x, y=y, k_list=k_list)
    run_concentration(config)  # the primes and the rho table are cached
    tracemalloc.start()
    try:
        res = run_concentration(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_bytes = experiments.CONCENTRATION_ROW_BYTES + 8 * (1 + len(k_list))
    assert peak <= res.meta["psi"] * row_bytes
    if (x, y, k_list) == (10**7, 100, (0, 1, 2)):
        assert peak <= res.meta["psi"] * 32  # the table path took ~81 a row


def test_concentration_config_guards():
    with pytest.raises(ConfigError):
        ConcentrationRunConfig(x=X, y=Y, k_list=())
    with pytest.raises(ConfigError):
        ConcentrationRunConfig(x=X, y=Y, k_list=(9,))
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError):
            ConcentrationRunConfig(x=X, y=Y, thresholds=(bad,))
    with pytest.raises(ConfigError):
        ConcentrationRunConfig(x=X, y=Y, bins=0)


def test_arcsine_peak_within_its_charge():
    # arcsine_check charges ARCSINE_BYTES_PER_N against the memory ceiling;
    # tau, one v's counts and the ratio buffer must fit in it, for v below,
    # at and above 1/2
    x = 2 * 10**6
    vs = (0.25, 0.3, 0.5, 0.75)
    tracemalloc.start()
    try:
        arcsine_check(x, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (x + 1) * experiments.ARCSINE_BYTES_PER_N

def test_arcsine_profile():
    res = arcsine_check(10**4, (0.25, 0.5, 1.0))
    rows = {row.v: row for row in res.rows}
    assert rows[1.0].empirical == 1.0  # every divisor clears d <= n
    assert rows[1.0].limit == pytest.approx(1.0, rel=1e-15)
    for row in res.rows:
        assert isinstance(row, ArcsineRow)
        assert row.gap == pytest.approx(abs(row.empirical - row.limit), rel=1e-15)
        assert row.gap < 0.05
    assert rows[0.25].limit == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_arcsine_guards():
    with pytest.raises(ConfigError):
        arcsine_check(0, (0.5,))
    with pytest.raises(ConfigError):
        arcsine_check(100, (0.0,))
    with pytest.raises(ConfigError):
        arcsine_check(100, (1.2,))
    with pytest.raises(ConfigError):
        arcsine_check(100, ())


def test_arcsine_sieves_tau_once(monkeypatch):
    calls = []
    sieve = kernels.tau_sieve

    def spy(limit):
        calls.append(limit)
        return sieve(limit)

    monkeypatch.setattr(kernels, "tau_sieve", spy)
    arcsine_check(10**4, (0.25, 0.5, 0.75, 1.0))
    assert calls == [10**4]


def test_arcsine_empirical_matches_brute():
    x = 2 * 10**4
    vs = (0.25, 0.5, 0.75, 1 / 3, 2 / 3, 0.5 + 1e-9, 1.0)
    divisors = [[] for _ in range(x + 1)]
    for d in range(1, x + 1):
        for n in range(d, x + 1, d):
            divisors[n].append(d)
    tau = np.array([len(divisors[n]) for n in range(1, x + 1)], dtype=np.float64)
    rows = arcsine_check(x, vs).rows
    for v, row in zip(vs, rows):
        frac = Fraction(v).limit_denominator(100)
        if abs(v - frac) < 1e-12:
            j, k = frac.numerator, frac.denominator
            counts = [sum(d**k <= n**j for d in divisors[n]) for n in range(1, x + 1)]
        else:
            counts = [
                sum(math.log(d) <= v * math.log(n) for d in divisors[n]) for n in range(1, x + 1)
            ]
        brute = float(np.mean(np.array(counts, dtype=np.float64) / tau))
        assert row.empirical == brute, (v, row.empirical, brute)


def test_arcsine_memory_ceiling(monkeypatch):
    x = 1_000
    estimate = (x + 1) * experiments.ARCSINE_BYTES_PER_N
    monkeypatch.setattr(arith, "MEMORY_CEILING", estimate)
    arcsine_check(x, (0.5,))
    monkeypatch.setattr(arith, "MEMORY_CEILING", estimate - 1)
    with pytest.raises(ResourceLimitError, match="memory ceiling"):
        arcsine_check(x, (0.5,))


def test_concentration_bins_memory_ceiling(monkeypatch):
    # counts and edges charge 16 bytes a bin, before any enumeration
    bins = 10**5
    monkeypatch.setattr(arith, "MEMORY_CEILING", 16 * bins)
    res = run_concentration(ConcentrationRunConfig(x=1_000, y=30, bins=bins))
    assert len(res.meta["sigma_histogram"]["counts"]) == bins
    with pytest.raises(ResourceLimitError, match="memory ceiling"):
        run_concentration(ConcentrationRunConfig(x=1_000, y=30, bins=bins + 1))


def test_json_payload_shape():
    res = run_average(AverageRunConfig(x=X, y=Y, z_grid=(0.0, 0.5)))
    payload = json.loads(res.to_json())
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["kind"] == "average"
    assert payload["meta"]["schema"] == 1
    assert len(payload["rows"]) == 2
    assert set(payload["rows"][0]) == set(res.header)
    assert payload["rows"][0]["gaussian"] == 0.5


# -- the per-n drivers, kept as the oracle of the columnar ones ---------------
# One Factorization, one DivisorLaw and one nudge_off_atom call per n: the
# loops the drivers ran before S(x, y) became a table.  The columnar drivers
# must reproduce their JSON and CSV byte for byte.


def oracle_clt(config: CltRunConfig) -> RunResult:
    selected = [f for f in enumerate_smooth(config.x, config.y) if f.n > 1]
    total = len(selected)
    if total > config.sample_cap:
        # sample() picks positions alone, so any population of this length
        # gets the same ones
        picks = random.Random(config.seed).sample(range(total), config.sample_cap)
        selected = sorted((selected[i] for i in picks), key=lambda f: f.n)
    zs = config.z_grid
    errors = [[] for _ in zs]
    exceptional = [0] * len(zs)
    nudged_counts = [0] * len(zs)
    for f in selected:
        mom = moments(f)
        if mom.w < config.w_min:
            continue
        z_cap = config.B * mom.w**0.25
        active = [i for i, z in enumerate(zs) if z <= z_cap]
        if not active:
            continue
        law = exact_law(f)
        half_log_n = 0.5 * f.log_n
        for i in active:
            z = zs[i]
            t, nudged = nudge_off_atom(law, half_log_n + z * mom.sigma)
            err = abs(law.upper_tail(t) / gaussian_tail(z) - 1.0) * mom.w / (1.0 + z**4)
            errors[i].append(err)
            exceptional[i] += err > config.C
            nudged_counts[i] += nudged
    rows = tuple(
        CltRow(
            z=z,
            n_tested=len(errs),
            exceptional_count=exceptional[i],
            exceptional_fraction=exceptional[i] / len(errs) if errs else 0.0,
            median_normalized_error=float(np.median(errs)) if errs else 0.0,
            max_normalized_error=max(errs) if errs else 0.0,
            nudged=nudged_counts[i],
        )
        for i, (z, errs) in enumerate(zip(zs, errors))
    )
    meta = {
        "schema": SCHEMA_VERSION,
        "kind": "clt",
        "x": config.x,
        "y": config.y,
        "z_grid": list(zs),
        "C": config.C,
        "B": config.B,
        "w_min": config.w_min,
        "seed": config.seed,
        "sample_cap": config.sample_cap,
        "psi_gt1": total,
        "n_selected": len(selected),
        "sampled": total > config.sample_cap,
    }
    return RunResult(rows=rows, meta=meta)


def oracle_average(config: AverageRunConfig) -> RunResult:
    ctx = make_context(config.x, config.y)
    sigma_bar = ctx.sigma_bar
    zs = config.z_grid
    sums = [0.0] * len(zs)
    nudged_counts = [0] * len(zs)
    count = 0
    for f in enumerate_smooth(config.x, config.y):
        count += 1
        law = exact_law(f)
        half_log_n = 0.5 * f.log_n
        for i, z in enumerate(zs):
            t, nudged = nudge_off_atom(law, half_log_n + z * sigma_bar)
            sums[i] += law.upper_tail(t)
            nudged_counts[i] += nudged
    rows = []
    for i, z in enumerate(zs):
        mean_tail = sums[i] / count
        gauss = gaussian_tail(z)
        gap = abs(mean_tail - gauss) * ctx.u_bar / ((1.0 + z**4) * gauss)
        rows.append(AverageRow(z, count, mean_tail, gauss, gap, nudged_counts[i]))
    meta = {
        "schema": SCHEMA_VERSION,
        "kind": "average",
        "x": config.x,
        "y": config.y,
        "z_grid": list(zs),
        "c5": config.c5,
        "u": ctx.u,
        "u_bar": ctx.u_bar,
        "sigma_bar": sigma_bar,
        "psi": count,
    }
    return RunResult(rows=tuple(rows), meta=meta)


def oracle_concentration(config: ConcentrationRunConfig) -> RunResult:
    ctx = make_context(config.x, config.y)
    sigma_bar = ctx.sigma_bar
    model_means = {k: model_mean_additive(ctx, k) for k in config.k_list}
    fk_ratios = {k: [] for k in config.k_list}
    sigma_ratios = []
    for f in enumerate_smooth(config.x, config.y):
        for k in config.k_list:
            fk_ratios[k].append(additive_fk(f, k) / model_means[k])
        if f.n > 1:
            sigma_ratios.append(moments(f).sigma / sigma_bar)
    rows = []
    for k in config.k_list:
        dev = np.abs(np.array(fk_ratios[k]) - 1.0)
        for d in config.thresholds:
            rows.append(
                ConcentrationRow(k, d, float(np.mean(dev > d)), exp(-d * d * ctx.u_bar))
            )
    counts, edges = np.histogram(np.array(sigma_ratios), bins=config.bins)
    meta = {
        "schema": SCHEMA_VERSION,
        "kind": "concentration",
        "x": config.x,
        "y": config.y,
        "k_list": list(config.k_list),
        "thresholds": list(config.thresholds),
        "bins": config.bins,
        "u_bar": ctx.u_bar,
        "sigma_bar": sigma_bar,
        "model_means": {str(k): model_means[k] for k in config.k_list},
        "psi": len(fk_ratios[config.k_list[0]]),
        "sigma_histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
    }
    return RunResult(rows=tuple(rows), meta=meta)


def assert_same_output(got: RunResult, want: RunResult, tmp_path) -> None:
    assert got.to_json() == want.to_json()
    a, b = tmp_path / "got.csv", tmp_path / "want.csv"
    got.write_csv(a)
    want.write_csv(b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "config",
    [
        AverageRunConfig(x=X, y=Y, z_grid=(-0.5, 0.0, 0.5, 1.0)),
        AverageRunConfig(x=10**5, y=7, z_grid=(-1.0, 0.0, 1.5), c5=2.0),
        # y = x: every n <= x, the old range-scan case
        AverageRunConfig(x=3000, y=3000, z_grid=(-0.5, 0.0, 0.7), c5=3.0),
        # pi(1613) = 255 and pi(1619) = 256: the last uint8 and first uint16 slots
        AverageRunConfig(x=3 * 10**4, y=1613, z_grid=(0.0, 0.5), c5=2.0),
        AverageRunConfig(x=3 * 10**4, y=1619, z_grid=(0.0, 0.5), c5=2.0),
    ],
    ids=["negative-and-zero-z", "y7", "y-equals-x", "y1613", "y1619"],
)
def test_average_matches_per_n_oracle(config, tmp_path):
    got = run_average(config)
    assert got.rows[[r.z for r in got.rows].index(0.0)].nudged > 0
    assert_same_output(got, oracle_average(config), tmp_path)


@pytest.mark.parametrize(
    "config",
    [
        CltRunConfig(x=10**5, y=30, z_grid=(0.0, 0.5, 1.0, 1.5), C=0.5),
        CltRunConfig(x=10**5, y=30, z_grid=(0.0, 0.5, 1.0, 1.5), w_min=0.7, B=0.9),
        CltRunConfig(x=10**5, y=30, z_grid=(0.0, 1.0), w_min=0.8, sample_cap=500, seed=5, B=1.2),
        CltRunConfig(x=X, y=Y, z_grid=(0.5,), B=0.01),  # the cap leaves no n
        # y > x: every n <= x, the old range-scan case
        CltRunConfig(x=3000, y=5000, z_grid=(0.0, 0.5), sample_cap=700, seed=2),
        CltRunConfig(x=10**5, y=1613, z_grid=(0.0, 1.0), sample_cap=5000, seed=3),
        CltRunConfig(x=10**5, y=1619, z_grid=(0.0, 1.0), sample_cap=5000, seed=3),
        # Psi(1e5, 30) - 1 = 5,157 n > 1: a cap of exactly that takes them
        # all, and one less draws a sample
        CltRunConfig(x=10**5, y=30, z_grid=(0.0, 1.0), sample_cap=5157, seed=4),
        CltRunConfig(x=10**5, y=30, z_grid=(0.0, 1.0), sample_cap=5156, seed=4),
    ],
    ids=[
        "full",
        "w_min-and-B",
        "sampled",
        "nothing-active",
        "y-above-x",
        "y1613",
        "y1619",
        "cap-equals-psi",
        "cap-below-psi",
    ],
)
def test_clt_matches_per_n_oracle(config, tmp_path):
    assert_same_output(run_clt(config), oracle_clt(config), tmp_path)


@pytest.mark.parametrize(
    "config",
    [
        ConcentrationRunConfig(x=10**5, y=100, k_list=(0, 1, 2, 3, 8), thresholds=(0.0, 0.1, 0.5)),
        ConcentrationRunConfig(x=2 * 10**4, y=2 * 10**4, k_list=(2, 5), bins=7),
        ConcentrationRunConfig(x=10**5, y=1613, k_list=(0, 1, 3)),
        ConcentrationRunConfig(x=10**5, y=1619, k_list=(0, 1, 3)),
    ],
    ids=["y100", "y-equals-x", "y1613", "y1619"],
)
def test_concentration_matches_per_n_oracle(config, tmp_path):
    assert_same_output(run_concentration(config), oracle_concentration(config), tmp_path)


@pytest.mark.parametrize(
    "thresholds", [(0.1, 0.1, 0.25), (0.0, -0.0, 0.5)], ids=["repeat", "signed-zero"]
)
def test_concentration_counts_a_repeated_threshold_once(thresholds, tmp_path):
    config = ConcentrationRunConfig(x=10**5, y=100, thresholds=thresholds)
    got = run_concentration(config)
    assert_same_output(got, oracle_concentration(config), tmp_path)
    fractions = {(r.k, r.delta): r.fraction for r in got.rows}
    for r in got.rows:
        assert r.fraction == fractions[r.k, r.delta] <= 1.0


@pytest.mark.parametrize(
    "run,oracle,config",
    [
        (run_average, oracle_average, AverageRunConfig(x=X, y=Y, z_grid=(0.5,))),
        (run_clt, oracle_clt, CltRunConfig(x=X, y=Y, z_grid=(0.5,))),
    ],
    ids=["average", "clt"],
)
def test_tau_ceiling_raises_in_both_paths(run, oracle, config, monkeypatch):
    # 48 divisors is past a ceiling of 40, and S(1e4, 30) holds such n
    monkeypatch.setattr(divdist, "TAU_CEILING", 40)
    with pytest.raises(ResourceLimitError) as got:
        run(config)
    with pytest.raises(ResourceLimitError) as want:
        oracle(config)
    assert str(got.value) == str(want.value)
