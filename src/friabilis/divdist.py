"""The exact law of the uniform random log-divisor of n: closed-form
moments, the full atom list by convolution over prime powers, tail queries
with a closed >= convention, and the additive statistics the averaged model
predicts.

Each per-n function has a columnar counterpart over a SmoothTable
(table_moments, table_additive_fk, table_upper_tails) that returns, row by
row, the same floats bit for bit: it performs the same IEEE operations in
the same order, takes log p from math.log and log d from np.log of the
integer divisor, as the per-n code does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import log, sqrt
from typing import Iterator

import numpy as np

from friabilis._backend import kernels
from friabilis.arith import N_CEILING, Factorization, SmoothTable
from friabilis.errors import DomainError, ResourceLimitError
from friabilis.saddle import SaddleContext

TAU_CEILING = 2 * 10**6  # largest admissible atom count
MERGE_TOL = 1e-12  # atoms closer than this collapse into one
NUDGE_SCALE = 1e-9  # collision nudge, in units of log n
ATOM_BUDGET = 2**16  # divisor atoms table_upper_tails expands at once (0.5 MB per int64 array)


@dataclass(frozen=True)
class DivisorMoments:
    """Closed-form summary of the log-divisor law of one n.

    m2 is the variance, m4 the fourth central moment, w = m2**2 / m4 the
    balance ratio (>= 5/9, with w = 1 when n = 1), t_max the largest single
    contribution (nu + 1) log p over p^nu || n (0 when n = 1).
    """

    tau: int
    m2: float
    m4: float
    w: float
    t_max: float

    @property
    def sigma_sq(self) -> float:
        return self.m2

    @property
    def sigma(self) -> float:
        return sqrt(self.m2)


def moments(f: Factorization) -> DivisorMoments:
    """Moment summary from the closed per-prime-power forms."""
    tau = 1
    m2 = 0.0
    m4 = 0.0
    t_max = 0.0
    for p, e in f.factors:
        lp = log(p)
        lp2 = lp * lp
        tau *= e + 1
        m2 += e * (e + 2) * lp2
        m4 += e * (e + 2) * (3 * e * e + 6 * e - 4) * lp2 * lp2
        t_max = max(t_max, (e + 1) * lp)
    m2 /= 12.0
    m4 /= 240.0
    w = 1.0 if not f.factors else m2 * m2 / m4
    return DivisorMoments(tau=tau, m2=m2, m4=m4, w=w, t_max=t_max)


@dataclass(frozen=True)
class DivisorLaw:
    """The exact distribution of log d for a uniform divisor d of n.

    values are the distinct atom positions (ascending float64), counts the
    integer multiplicities; masses are counts/tau exactly.  divisors holds
    the sorted integer divisors backing the law.
    """

    n: int
    tau: int
    mean: float
    values: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    divisors: np.ndarray = field(repr=False)
    _cum: np.ndarray = field(repr=False)

    def atoms(self) -> Iterator[tuple[float, Fraction]]:
        """(position, exact mass) pairs, ascending."""
        for v, c in zip(self.values.tolist(), self.counts.tolist()):
            yield v, Fraction(int(c), self.tau)

    def count_ge(self, t: float) -> int:
        """Number of divisors with log d >= t (atoms at t count fully)."""
        i = int(np.searchsorted(self.values, t, side="left"))
        return self.tau - (int(self._cum[i - 1]) if i > 0 else 0)

    def count_le(self, t: float) -> int:
        """Number of divisors with log d <= t."""
        i = int(np.searchsorted(self.values, t, side="right"))
        return int(self._cum[i - 1]) if i > 0 else 0

    def upper_tail(self, t: float) -> float:
        return self.count_ge(t) / self.tau

    def nearest_atom_gap(self, t: float) -> float:
        i = int(np.searchsorted(self.values, t))
        gap = np.inf
        if i < len(self.values):
            gap = min(gap, abs(float(self.values[i]) - t))
        if i > 0:
            gap = min(gap, abs(float(self.values[i - 1]) - t))
        return gap


def exact_law(f: Factorization, *, tau_ceiling: int = TAU_CEILING) -> DivisorLaw:
    """Build the full atom list of the log-divisor law of n.

    Divisors come from iterated integer convolution over the prime powers
    (the kernel), so distinct divisors are exact; atom positions closer than
    MERGE_TOL (possible only from float log collisions) are merged.
    """
    tau = f.tau
    if tau > tau_ceiling:
        raise ResourceLimitError(f"tau = {tau} exceeds ceiling {tau_ceiling}")
    n = f.n
    if n >= N_CEILING:
        raise DomainError("n must be < 2**62 for exact divisor products")
    primes = np.array([p for p, _ in f.factors], dtype=np.int64)
    exps = np.array([e for _, e in f.factors], dtype=np.int64)
    divisors = kernels.divisor_products(primes, exps)
    logs = np.log(divisors.astype(np.float64))
    if len(logs) > 1 and np.any(np.diff(logs) < MERGE_TOL):
        keep = np.empty(len(logs), dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(logs) >= MERGE_TOL
        groups = np.cumsum(keep) - 1
        values = logs[keep]
        counts = np.bincount(groups).astype(np.int64)
    else:
        values = logs
        counts = np.ones(len(logs), dtype=np.int64)
    return DivisorLaw(
        n=n,
        tau=tau,
        mean=0.5 * f.log_n,
        values=values,
        counts=counts,
        divisors=divisors,
        _cum=np.cumsum(counts),
    )


def exact_upper_tail(law: DivisorLaw, t: float) -> float:
    """P(log-divisor >= t) under the closed convention (atoms at t included)."""
    return law.upper_tail(t)


def nudge_off_atom(law: DivisorLaw, t: float) -> tuple[float, bool]:
    """Move a query off an atom it collides with (within MERGE_TOL).

    The shift is NUDGE_SCALE * log n, repeated if the landing spot collides
    again.  n = 1 has its single atom at 0 and a zero shift unit, so it is
    returned unchanged; the closed convention covers it.
    """
    if law.n == 1:
        return t, False
    if law.nearest_atom_gap(t) >= MERGE_TOL:
        return t, False
    step = NUDGE_SCALE * log(law.n)
    nudged = t
    for _ in range(64):
        nudged += step
        if law.nearest_atom_gap(nudged) >= MERGE_TOL:
            return nudged, True
    raise DomainError(f"could not move query off atoms of n = {law.n}")


def additive_fk(f: Factorization, k: int) -> float:
    """f_k(n) = sum over p^nu || n of (nu log p)^k; k = 0 counts prime
    factors without multiplicity.  Supported for 0 <= k <= 8."""
    if not 0 <= k <= 8:
        raise DomainError("k must lie in [0, 8]")
    if k == 0:
        return float(f.omega)
    return sum((e * log(p)) ** k for p, e in f.factors)


def _prime_logs(table: SmoothTable) -> np.ndarray:
    """math.log(p) for each prime of table.basis, then 0.0 for padding."""
    return np.array([log(p) for p in table.basis.tolist()] + [0.0])


def _slot_index(table: SmoothTable, j: int) -> np.ndarray:
    """Index in table.basis of the primes in slot j; padding maps past the end."""
    idx = np.searchsorted(table.basis, table.primes[:, j])
    idx[table.exps[:, j] == 0] = len(table.basis)
    return idx


@dataclass(frozen=True)
class MomentColumns:
    """log n and the moments m2, m4, w of every row of a SmoothTable, equal
    bit for bit to Factorization.log_n and moments() row by row."""

    log_n: np.ndarray
    m2: np.ndarray
    m4: np.ndarray
    w: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.m2)


def table_moments(table: SmoothTable) -> MomentColumns:
    """log n and moments() (less tau and t_max) for every row, one slot
    column at a time.

    Padding slots (p = 1, e = 0) add exactly 0.0 to each sum, so summing all
    columns from 0 repeats the per-n loop over the real factors.
    """
    logs = _prime_logs(table)
    rows = len(table)
    log_n = np.zeros(rows)
    m2 = np.zeros(rows)
    m4 = np.zeros(rows)
    for j in range(table.exps.shape[1]):
        ej = table.exps[:, j].astype(np.int64)
        lpj = logs[_slot_index(table, j)]
        lp2 = lpj * lpj
        log_n += ej * lpj
        m2 += ej * (ej + 2) * lp2
        m4 += ej * (ej + 2) * (3 * ej * ej + 6 * ej - 4) * lp2 * lp2
    m2 /= 12.0
    m4 /= 240.0
    w = np.ones(rows)
    factored = np.count_nonzero(table.exps, axis=1) > 0
    w[factored] = m2[factored] * m2[factored] / m4[factored]
    return MomentColumns(log_n=log_n, m2=m2, m4=m4, w=w)


def table_additive_fk(table: SmoothTable, k: int) -> np.ndarray:
    """additive_fk(f, k) for every row.  Each distinct (p, e) term is
    raised to the k-th power by Python's float pow, as additive_fk does."""
    if not 0 <= k <= 8:
        raise DomainError("k must lie in [0, 8]")
    if k == 0:
        return np.count_nonzero(table.exps, axis=1).astype(np.float64)
    logs = _prime_logs(table).tolist()
    index = [_slot_index(table, j) for j in range(table.exps.shape[1])]
    present = np.zeros((len(logs), int(table.exps.max(initial=0)) + 1), dtype=bool)
    for j, idx in enumerate(index):
        present[idx, table.exps[:, j]] = True
    power = np.zeros(present.shape)
    pairs = np.nonzero(present)
    power[pairs] = [(e * logs[i]) ** k for i, e in zip(*(a.tolist() for a in pairs))]
    fk = np.zeros(len(table))
    for j, idx in enumerate(index):
        fk += power[idx, table.exps[:, j]]
    return fk


def _atom_chunks(tau: np.ndarray) -> Iterator[tuple[int, int]]:
    """Row ranges holding at most ATOM_BUDGET atoms (or a single row)."""
    cum = np.cumsum(tau)
    lo = 0
    while lo < len(tau):
        done = int(cum[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(cum, done + ATOM_BUDGET, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _log_divisors(primes: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """log d for every divisor of every row, the atoms of a row contiguous.

    The divisors are expanded with np.repeat, largest prime first, so the
    high exponents of the small primes multiply the atom count last.
    """
    owner = np.arange(len(primes), dtype=np.int32)
    d = np.ones(len(primes), dtype=np.int64)
    for j in range(primes.shape[1] - 1, -1, -1):
        if not exps[:, j].any():
            continue
        reps = exps[:, j][owner].astype(np.int64) + 1
        owner = np.repeat(owner, reps)
        d = np.repeat(d, reps)
        # the exponent of p within each run of copies: 0, 1, ..., e
        power = np.ones(len(d), dtype=np.int64)
        power[0] = 0
        power[np.cumsum(reps[:-1])] = 1 - reps[:-1]
        np.cumsum(power, out=power)
        factor = primes[:, j][owner]
        np.power(factor, power, out=factor)
        d *= factor
    return np.log(d.astype(np.float64))


def table_upper_tails(
    table: SmoothTable, rows: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """upper_tail at the nudged query for each selected row and threshold.

    rows are table row indices; t has shape (len(rows), queries), one row
    of thresholds per index (NaN marks a query not wanted).  Returns
    (tails, nudged), both shaped like t.  A query with no log d within
    MERGE_TOL of it needs no nudge, and its tail is count(log d >= t) / tau,
    computed on chunks of at most ATOM_BUDGET atoms.  A query with one that close goes through exact_law,
    nudge_off_atom and upper_tail instead (this covers z = 0 on squares,
    n = 1, and merged atoms).  A row with tau > TAU_CEILING raises
    ResourceLimitError, as exact_law would.
    """
    rows = np.asarray(rows, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    tau = np.prod(table.exps[rows].astype(np.int64) + 1, axis=1)
    over = np.flatnonzero(tau > TAU_CEILING)
    if over.size:
        raise ResourceLimitError(
            f"tau = {int(tau[over[0]])} exceeds ceiling {TAU_CEILING}"
        )
    tails = np.zeros(t.shape)
    nudged = np.zeros(t.shape, dtype=bool)
    for lo, hi in _atom_chunks(tau):
        chunk = rows[lo:hi]
        logd = _log_divisors(table.primes[chunk], table.exps[chunk])
        starts = np.cumsum(tau[lo:hi]) - tau[lo:hi]
        near = np.zeros((hi - lo, t.shape[1]), dtype=bool)
        for j in range(t.shape[1]):
            diff = np.repeat(t[lo:hi, j], tau[lo:hi])
            np.subtract(logd, diff, out=diff)
            count = np.add.reduceat(diff >= 0, starts, dtype=np.int64)
            tails[lo:hi, j] = count / tau[lo:hi]
            np.abs(diff, out=diff)
            near[:, j] = np.logical_or.reduceat(diff < MERGE_TOL, starts)
        for i in np.flatnonzero(near.any(axis=1)).tolist():
            law = exact_law(table.factorization(chunk[i]))
            for j in np.flatnonzero(near[i]).tolist():
                q, nudged[lo + i, j] = nudge_off_atom(law, float(t[lo + i, j]))
                tails[lo + i, j] = law.upper_tail(q)
    return tails, nudged


def model_mean_additive(ctx: SaddleContext, k: int, *, rel_tol: float = 1e-15) -> float:
    """Mean of f_k under the independent model at the saddle tilt:
    sum over p <= y, nu >= 1 of (nu log p)^k p^(-nu alpha) (1 - p^(-alpha)).

    The nu-sum stops once the geometric tail bound falls below rel_tol of
    the accumulated value, uniformly over primes.
    """
    if not 0 <= k <= 8:
        raise DomainError("k must lie in [0, 8]")
    lp = ctx.log_primes
    r = np.exp(-ctx.alpha * lp)  # p^-alpha, in (0, 1)
    acc = np.zeros_like(lp)
    power = np.ones_like(lp)
    nu = 0
    while True:
        nu += 1
        power = power * r
        term = power if k == 0 else (nu * lp) ** k * power
        acc += term
        # ratio of consecutive terms is r ((nu+1)/nu)^k < 1 for nu >= k/ln(1/r)
        ratio = r * ((nu + 1.0) / nu) ** k
        if np.all(ratio < 1.0):
            tail = term * ratio / (1.0 - ratio)
            if np.all(tail <= rel_tol * np.maximum(acc, 1e-300)):
                break
        if nu > 100000:
            raise ResourceLimitError("nu-sum failed to converge")
    return kernels.kahan_sum(acc * (1.0 - r))
