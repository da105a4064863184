"""Ensemble experiments over smooth integers: per-n Gaussian tail error
sweeps, ensemble-averaged tails, concentration of the law's spread, and the
arcsine profile of divisor counting functions.

Every run returns a RunResult whose rows serialize deterministically: the
same config always produces byte-identical CSV and JSON.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from math import asin, exp, isfinite, pi, sqrt

import numpy as np

from friabilis import arith
from friabilis._backend import BACKEND, kernels
from friabilis.arith import smooth_table
from friabilis.divdist import (
    model_mean_additive,
    moment_blocks,
    table_moments,
    table_upper_tails,
)
from friabilis.errors import ConfigError, ResourceLimitError
from friabilis.perron import gaussian_tail
from friabilis.saddle import make_context

SCHEMA_VERSION = 1


def _as_float_grid(values) -> tuple[float, ...]:
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ConfigError("grid must be non-empty")
    if not all(isfinite(v) for v in grid):
        raise ConfigError(f"grid entries must be finite, got {grid}")
    return grid


def _as_z_grid(values) -> tuple[float, ...]:
    """A finite grid of z on which the errors of clt and the gaps of
    average, which divide by the Gaussian tail Phi(z) and by 1 + z**4, are
    defined: Phi(z) may not underflow to 0.0 (z >= 38.5), nor z**4
    overflow (|z| past about 1.16e77, a negative z of average)."""
    grid = _as_float_grid(values)
    for z in grid:
        if gaussian_tail(z) == 0.0:
            raise ConfigError(f"z = {z} has a Gaussian tail that underflows to 0.0")
        try:
            z**4
        except OverflowError:
            raise ConfigError(f"z = {z} has a z**4 past the float range") from None
    return grid


def _check_range(x: int, y: int) -> None:
    if x < 2:
        raise ConfigError("x must be >= 2")
    if y < 2:
        raise ConfigError("y must be >= 2")


def _check_memory(what: str, value: int, need: int) -> None:
    """Raise ResourceLimitError if need bytes pass arith.MEMORY_CEILING,
    naming value by its size in bits, not by its digits."""
    if need > arith.MEMORY_CEILING:
        raise ResourceLimitError(
            f"{what} of {value.bit_length()} bits needs at least "
            f"2**{need.bit_length() - 1} bytes, past the memory ceiling "
            f"{arith.MEMORY_CEILING}"
        )


@dataclass(frozen=True)
class RunResult:
    """Rows (dataclass instances, one type per run kind) plus a meta dict."""

    rows: tuple
    meta: dict

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(type(self.rows[0])))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self.dump_csv(fh)

    def dump_csv(self, fh) -> None:
        """Write the schema line, the header and the rows as CSV to the
        text stream fh."""
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write(",".join(self.header) + "\n")
        for row in self.rows:
            cells = (_csv_cell(getattr(row, name)) for name in self.header)
            fh.write(",".join(cells) + "\n")

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True)


def _meta(kind: str, config, **extra) -> dict:
    """A run's meta: schema, kind and backend, every config field (tuples as
    lists), then what the run computed."""
    fields = {
        k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(config).items()
    }
    return {"schema": SCHEMA_VERSION, "kind": kind, "backend": BACKEND, **fields, **extra}


def _csv_cell(value) -> str:
    # repr of a float is its shortest exact round-trip form, which makes the
    # byte-identical-output guarantee independent of print formatting
    if isinstance(value, float):
        return repr(value)
    return str(value)


# -- per-n Gaussian tail error sweep ----------------------------------------


@dataclass(frozen=True)
class CltRunConfig:
    """Sweep P(D_n >= mean + z sigma_n) against the Gaussian tail.

    For each n the error is weighted by w_n / (1 + z^4); errors above C are
    counted as exceptional.  n with w_n below w_min are skipped, and each z
    is only tested on n with z <= B w_n^{1/4}.
    When more than sample_cap n > 1 are in range, random.Random(seed).sample
    draws sample_cap of their ranks, uniformly, in the ascending table.
    A z whose Gaussian tail underflows to 0.0 (z >= 38.5) is refused, since
    each error divides by that tail.
    """

    x: int
    y: int
    z_grid: tuple[float, ...]
    C: float = 10.0
    B: float = 1.0
    w_min: float = 0.0
    seed: int = 0
    sample_cap: int = 200_000

    def __post_init__(self):
        _check_range(self.x, self.y)
        grid = _as_z_grid(self.z_grid)
        if any(z < 0 for z in grid):
            raise ConfigError("z_grid entries must be >= 0")
        object.__setattr__(self, "z_grid", grid)
        if not self.C > 0:
            raise ConfigError("C must be positive")
        if not self.B > 0:
            raise ConfigError("B must be positive")
        if not self.w_min >= 0:
            raise ConfigError("w_min must be >= 0")
        if self.sample_cap < 1:
            raise ConfigError("sample_cap must be >= 1")


@dataclass(frozen=True)
class CltRow:
    z: float
    n_tested: int
    exceptional_count: int
    exceptional_fraction: float
    median_normalized_error: float
    max_normalized_error: float
    nudged: int


def _median(a: np.ndarray) -> float:
    """float(np.median(a)) for a non-empty array free of NaN, bit for bit:
    the middle value, or (a + b) / 2 of the middle two, as np.mean takes
    it.  np.partition alone, so the first call imports no numpy.ma."""
    half = len(a) // 2
    if len(a) % 2:
        return float(np.partition(a, half)[half])
    lo, hi = np.partition(a, (half - 1, half))[half - 1 : half + 1]
    return float((lo + hi) / 2)


def run_clt(config: CltRunConfig) -> RunResult:
    """Gaussian tail quality across S(x, y), one output row per z."""
    table = smooth_table(config.x, config.y)
    total = len(table) - 1  # row i > 0 is the i-th n > 1; row 0 is n = 1
    sampled = total > config.sample_cap
    if sampled:
        ranks = random.Random(config.seed).sample(range(1, len(table)), config.sample_cap)
        picked = np.sort(np.array(ranks, dtype=np.int64))
    else:
        picked = np.arange(1, len(table), dtype=np.int64)
    log_n, m2, m4 = table_moments(table, picked, ("log_n", "m2", "m4")).values()
    w = np.divide(m2 * m2, m4, out=np.ones(len(m4)), where=m4 > 0)

    zs = config.z_grid
    z_col = np.array(zs)
    z_cap = np.array([config.B * wi**0.25 for wi in w.tolist()])
    active = (z_col[None, :] <= z_cap[:, None]) & (w >= config.w_min)[:, None]
    tested = active.any(axis=1)  # only these n need their divisor law
    picked, w, active = picked[tested], w[tested], active[tested]
    sigma = np.sqrt(m2[tested])
    t = 0.5 * log_n[tested][:, None] + z_col[None, :] * sigma[:, None]
    tails, nudged = table_upper_tails(table, picked, np.where(active, t, np.nan))

    rows = []
    for i, z in enumerate(zs):
        on = active[:, i]
        errs = np.abs(tails[on, i] / gaussian_tail(z) - 1.0) * w[on] / (1.0 + z**4)
        exceptional = int(np.count_nonzero(errs > config.C))
        rows.append(
            CltRow(
                z=z,
                n_tested=len(errs),
                exceptional_count=exceptional,
                exceptional_fraction=exceptional / len(errs) if len(errs) else 0.0,
                median_normalized_error=_median(errs) if len(errs) else 0.0,
                max_normalized_error=float(errs.max()) if len(errs) else 0.0,
                nudged=int(np.count_nonzero(nudged[on, i])),
            )
        )
    n_selected = min(total, config.sample_cap)
    meta = _meta("clt", config, psi_gt1=total, n_selected=n_selected, sampled=sampled)
    meta["quantile_rank_error"] = 0.0  # medians and maxima are exact, not sketched
    return RunResult(rows=tuple(rows), meta=meta)


# -- ensemble-averaged tails -------------------------------------------------


@dataclass(frozen=True)
class AverageRunConfig:
    """Average P(D_n >= half log n + z sigma_bar) over all of S(x, y).

    The threshold scale is the ensemble sigma_bar(x, y), the same for every
    n, which is what makes the average a function of (x, y, z) alone.  The
    z range is capped at c5 * u_bar^{1/5}; past that the ensemble average
    is no longer governed by the Gaussian profile and the run refuses to
    pretend otherwise.  Negative z is fine (the exact law answers directly),
    but not a z whose Gaussian tail underflows to 0.0 (z >= 38.5), nor one
    whose z^4 overflows (|z| past about 1.16e77), since the gap divides by
    Phi(z) and by 1 + z^4.
    """

    x: int
    y: int
    z_grid: tuple[float, ...]
    c5: float = 1.0

    def __post_init__(self):
        _check_range(self.x, self.y)
        object.__setattr__(self, "z_grid", _as_z_grid(self.z_grid))
        if not self.c5 > 0:
            raise ConfigError("c5 must be positive")


@dataclass(frozen=True)
class AverageRow:
    z: float
    n_count: int
    mean_tail: float
    gaussian: float
    normalized_gap: float
    nudged: int


def run_average(config: AverageRunConfig) -> RunResult:
    """Ensemble average of exact tails vs the Gaussian, one row per z.

    The gap column is |mean - Phi(z)| * u_bar / ((1 + z^4) Phi(z)), the
    natural scale on which the average should sit near a constant.
    """
    ctx = make_context(config.x, config.y)
    z_cap = config.c5 * ctx.u_bar ** 0.2
    for z in config.z_grid:
        if abs(z) > z_cap:
            raise ConfigError(
                f"|z| = {abs(z)} exceeds the admissible cap {z_cap}"
            )
    sigma_bar = ctx.sigma_bar

    zs = config.z_grid
    table = smooth_table(config.x, config.y)
    count = len(table)
    log_n = table_moments(table, slice(None), ("log_n",))["log_n"]
    t = 0.5 * log_n[:, None] + np.array(zs)[None, :] * sigma_bar
    tails, nudged = table_upper_tails(table, np.arange(count), t)
    # cumsum adds in n order, one term at a time, as a running total would
    sums = [float(np.cumsum(tails[:, i])[-1]) for i in range(len(zs))]
    nudged_counts = [int(np.count_nonzero(nudged[:, i])) for i in range(len(zs))]

    rows = []
    for i, z in enumerate(zs):
        mean_tail = sums[i] / count if count else 0.0
        gauss = gaussian_tail(z)
        gap = abs(mean_tail - gauss) * ctx.u_bar / ((1.0 + z**4) * gauss)
        rows.append(
            AverageRow(
                z=z,
                n_count=count,
                mean_tail=mean_tail,
                gaussian=gauss,
                normalized_gap=gap,
                nudged=nudged_counts[i],
            )
        )
    meta = _meta("average", config, u=ctx.u, u_bar=ctx.u_bar, sigma_bar=sigma_bar, psi=count)
    return RunResult(rows=tuple(rows), meta=meta)


# -- concentration of sigma_n around the ensemble scale ----------------------


@dataclass(frozen=True)
class ConcentrationRunConfig:
    """Concentration of the additive statistics f_k around their model
    means A_{f_k}(x, y), plus the spread of sigma_n around sigma_bar.

    f_k(n) sums (nu log p)^k over p^nu || n; k = 0 is omega.  thresholds
    may include 0, where the row degenerates to the fraction of n whose
    f_k misses its model mean at all.
    """

    x: int
    y: int
    k_list: tuple[int, ...] = (0, 1, 2)
    thresholds: tuple[float, ...] = (0.1, 0.25, 0.5)
    bins: int = 40

    def __post_init__(self):
        _check_range(self.x, self.y)
        ks = tuple(int(k) for k in self.k_list)
        if not ks:
            raise ConfigError("k_list must be non-empty")
        if any(not 0 <= k <= 8 for k in ks):
            raise ConfigError("each k must lie in 0..8")
        object.__setattr__(self, "k_list", ks)
        grid = _as_float_grid(self.thresholds)
        if any(d < 0 for d in grid):
            raise ConfigError("thresholds must be >= 0")
        object.__setattr__(self, "thresholds", grid)
        if self.bins < 1:
            raise ConfigError("bins must be >= 1")


# Bytes per row of S(x, y) that run_concentration's growth is charged
# against arith.MEMORY_CEILING, before 8 more for each float64 column its
# rows carry: m2 and each distinct k.  Its traced peak, over x = 1e6 ... 1e9
# and y = 3 ... 1e5 (Psi from 2e4 to 4e6), was at most 45 bytes a row with
# the default three k (56 charged) and 85 with all nine (104 charged), both
# at S(1e9, 13), where the live rows are most of S(x, y); at S(1e7, 100)
# and S(1e9, 100) it is 17 and 19.
CONCENTRATION_ROW_BYTES = 24


@dataclass(frozen=True)
class ConcentrationRow:
    k: int
    delta: float
    fraction: float
    shape: float


def run_concentration(config: ConcentrationRunConfig) -> RunResult:
    """Fractions of n in S(x, y) with |f_k(n)/A_{f_k} - 1| > delta.

    One row per (k, delta).  The shape column exp(-delta^2 u_bar) is the
    reference decay profile reported alongside for comparison; no rate
    assertion is made.  The meta carries a histogram of sigma_n/sigma_bar.

    The run folds divdist.moment_blocks, which grows S(x, y) with m2 and
    every f_k carried as sums on each row, bit for bit those of
    table_moments.  It keeps, per (k, delta), the integer count of n past
    delta, whose ratio to |S(x, y)| is the float np.mean gives, and the
    sigma_n/sigma_bar column, joined for np.histogram once the growth ends.
    No table is built or sorted.  The growth is charged
    CONCENTRATION_ROW_BYTES and 8 bytes a column, a row.  A bins count
    whose histogram, at 16 bytes a bin, would pass arith.MEMORY_CEILING
    raises ResourceLimitError before the enumeration.
    """
    # np.histogram's int64 counts and float64 edges
    _check_memory("a bin count", config.bins, 16 * config.bins)
    ctx = make_context(config.x, config.y)
    sigma_bar = ctx.sigma_bar
    model_means = {k: model_mean_additive(ctx, k) for k in config.k_list}

    ks = list(model_means)
    # a repeated delta (0.0 and -0.0 among them) is counted once
    deltas = list(dict.fromkeys(config.thresholds))
    past = {(k, d): 0 for k in ks for d in deltas}
    ratios = []
    psi = 0
    row_bytes = CONCENTRATION_ROW_BYTES + 8 * (1 + len(ks))
    for n, mom in moment_blocks(config.x, config.y, ("m2", *ks), row_bytes):
        psi += len(n)
        for k in ks:
            dev = mom[k] / model_means[k]
            dev -= 1.0
            np.abs(dev, out=dev)
            for d in deltas:
                past[k, d] += int(np.count_nonzero(dev > d))
        ratio = np.sqrt(mom["m2"], out=mom["m2"])
        ratio /= sigma_bar
        ratios.append(ratio)
    ratios[0] = ratios[0][1:]  # the first block is n = 1, which has no spread
    sigma_ratios = np.concatenate(ratios)
    del ratios

    rows = []
    for k in config.k_list:
        for d in config.thresholds:
            rows.append(
                ConcentrationRow(
                    k=k,
                    delta=d,
                    fraction=past[k, d] / psi,
                    shape=exp(-d * d * ctx.u_bar),
                )
            )
    counts, edges = np.histogram(sigma_ratios, bins=config.bins)
    meta = _meta(
        "concentration",
        config,
        u_bar=ctx.u_bar,
        sigma_bar=sigma_bar,
        model_means={str(k): model_means[k] for k in config.k_list},
        psi=psi,
        sigma_histogram={"edges": edges.tolist(), "counts": counts.tolist()},
    )
    return RunResult(rows=tuple(rows), meta=meta)


# -- arcsine profile over all integers ---------------------------------------

# Bytes per n <= x that arcsine_check's estimate charges against
# arith.MEMORY_CEILING.  Its peak is tau and one v's counts, both uint16,
# and the float64 ratio buffer: 12.08 bytes per n under tracemalloc at
# x = 2e6, for any grid of v.  Rounded up, which puts the largest x under
# the 4 GiB ceiling near 2.9e8.
ARCSINE_BYTES_PER_N = 15


@dataclass(frozen=True)
class ArcsineRow:
    v: float
    empirical: float
    limit: float
    gap: float


def arcsine_check(x: int, vs) -> RunResult:
    """Mean of #{d | n : d <= n^v} / tau(n) over n <= x, against the
    arcsine law (2/pi) arcsin sqrt(v).

    Runs over all integers up to x (no smoothness restriction); the sieve
    kernels carry the whole computation, adding the multiples of every
    divisor of 5040 in one broadcast pass and those of the other d by
    cache-sized segments.  tau is sieved once, in uint16, and every v
    reads it; each v's uint16 counts are divided by tau into
    one float64 ratio buffer that serves every v.  The uint16 to float64
    conversion is exact, so each ratio is the correctly rounded quotient of
    the two counts.  An x whose arrays, at ARCSINE_BYTES_PER_N bytes per n,
    would pass arith.MEMORY_CEILING raises ResourceLimitError before any
    sieving.
    """
    x = int(x)
    if x < 1:
        raise ConfigError("x must be >= 1")
    grid = _as_float_grid(vs)
    if any(not 0.0 < v <= 1.0 for v in grid):
        raise ConfigError("each v must lie in (0, 1]")
    _check_memory("arcsine at an x", x, (x + 1) * ARCSINE_BYTES_PER_N)
    tau = kernels.tau_sieve(x)
    ratio = np.empty(x, dtype=np.float64)
    rows = []
    for v in grid:
        counts = kernels.small_divisor_count_sieve(tau, v)
        np.divide(counts[1:], tau[1:], out=ratio)
        del counts  # the next v's counts take its place, not a second array
        empirical = float(np.mean(ratio))
        limit = 2.0 / pi * asin(sqrt(v))
        rows.append(
            ArcsineRow(v=v, empirical=empirical, limit=limit, gap=abs(empirical - limit))
        )
    meta = {
        "schema": SCHEMA_VERSION,
        "kind": "arcsine",
        "backend": BACKEND,
        "x": x,
        "vs": list(grid),
    }
    return RunResult(rows=tuple(rows), meta=meta)
