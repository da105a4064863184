"""The exact law of the uniform random log-divisor of n: closed-form
moments, the full atom list by convolution over prime powers, tail queries
with a closed >= convention, and the additive statistics the averaged model
predicts.

Over a SmoothTable, table_moments (for moments, log n and additive_fk)
and table_upper_tails return, row by row, the same floats as the per-n
functions, bit for bit.  Both gather table rows along axis 0, with np.take,
never by advanced indexing of a 2-D array.  table_moments computes only
the columns its caller names, and performs the same IEEE operations in the
same order and takes log p from math.log, as the per-n code does, through
one term per (prime, exponent) for every statistic, all gathered in one
pass over the slot columns.  table_upper_tails counts the divisors of
n = m P^e (P its largest prime) from the log d of its stem m shifted by
i log P, or, where m is not a row of the table, from n's own.  Every
query that a shifted threshold puts within 2 MERGE_TOL of a stem atom is
answered again from the full sorted log-divisors of n, nudged as
nudge_off_atom would, so float rounding in the shift cannot change a
count.  One search serves both passes: over chunks of sorted
log-divisors, expanded once per distinct row, it returns the count of atoms
below a threshold and the distance to the nearest one.  The stem pass
flags a distance under 2 MERGE_TOL; the nudge pass, where each flagged n is
its own stem with no shift, moves a query while it is under MERGE_TOL.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import log, sqrt
from typing import Iterator

import numpy as np

from friabilis._backend import kernels
from friabilis.arith import N_CEILING, Factorization, SmoothTable
from friabilis.errors import DomainError, ResourceLimitError
from friabilis.saddle import SaddleContext

TAU_CEILING = 2 * 10**6  # largest admissible atom count
MERGE_TOL = 1e-12  # a query closer than this to an atom is nudged off it
NUDGE_SCALE = 1e-9  # collision nudge, in units of log n
ATOM_BUDGET = 2**16  # padded atoms, and thresholds, per table_upper_tails chunk
MODEL_REL_TOL = 1e-15  # where model_mean_additive stops its nu-sum


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

    values are the atom positions (ascending float64, one per divisor, so
    each has mass exactly 1/tau).  divisors holds the sorted integer
    divisors backing the law.
    """

    n: int
    tau: int
    values: np.ndarray = field(repr=False)
    divisors: np.ndarray = field(repr=False)

    def atoms(self) -> Iterator[tuple[float, Fraction]]:
        """(position, exact mass) pairs, ascending."""
        mass = Fraction(1, self.tau)
        for v in self.values.tolist():
            yield v, mass

    def count_ge(self, t: float) -> int:
        """Number of divisors with log d >= t (atoms at t count fully)."""
        return self.tau - int(np.searchsorted(self.values, t, side="left"))

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


def exact_law(f: Factorization) -> DivisorLaw:
    """Build the full atom list of the log-divisor law of n.

    Divisors come from iterated integer convolution over the prime powers
    (the kernel), so distinct divisors are exact, and each is one atom.  A
    law with tau > TAU_CEILING atoms raises ResourceLimitError.
    """
    tau = f.tau
    if tau > TAU_CEILING:
        raise ResourceLimitError(f"tau = {tau} exceeds ceiling {TAU_CEILING}")
    n = f.n
    if n >= N_CEILING:
        raise DomainError("n must be < 2**62 for exact divisor products")
    primes = np.array([p for p, _ in f.factors], dtype=np.int64)
    exps = np.array([e for _, e in f.factors], dtype=np.int64)
    divisors = kernels.divisor_products(primes, exps)
    # No two atoms can merge.  For divisors d1 < d2 of n, gcd(d1, d2)
    # divides d2 - d1 and lcm(d1, d2) <= n, so (d2 - d1) / d1 is at least
    # max(1 / d1, d2 / n) >= n**-0.5 > 4.6e-10 for n < 2**62: far above
    # MERGE_TOL plus the rounding of np.log (a few ulps of log n < 43).
    return DivisorLaw(
        n=n, tau=tau, values=np.log(divisors.astype(np.float64)), divisors=divisors
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


class MomentColumns:
    """The columns table_moments was asked for: log n, m2 and m4 as named,
    and fk, the f_k for each k asked, equal bit for bit to
    Factorization.log_n, moments() and additive_fk() row by row.  A column
    not asked for is absent, and reading it raises AttributeError."""

    def __init__(self, fk: dict[int, np.ndarray], **named: np.ndarray):
        self.fk = fk
        vars(self).update(named)

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.m2)

    @cached_property
    def w(self) -> np.ndarray:
        """m2 * m2 / m4 where m4 > 0, exactly the rows with a factor; else 1."""
        m4 = self.m4
        return np.divide(self.m2 * self.m2, m4, out=np.ones(len(m4)), where=m4 > 0)


def _term_index(slots: np.ndarray, exps: np.ndarray, j: int, width: int) -> np.ndarray:
    """slots[:, j] * width + exps[:, j]: each row's (basis index, exponent)
    in slot column j, as a flat index into a table of width exponents per
    basis index.  The slots are widened first; uint8 * width would wrap."""
    index = slots[:, j].astype(np.intp)
    index *= width
    index += exps[:, j]
    return index


def table_moments(table: SmoothTable, rows, names=(), fk=()) -> MomentColumns:
    """The columns named in names, of "log_n", "m2" and "m4" (moments()
    less tau and t_max), and additive_fk(f, k) for each k in fk, for the
    given rows (an index array or a slice), in their order, in one pass
    over the slot columns.

    Each term of the per-n loops is computed once per (basis index,
    exponent), by the same IEEE operations, and each column's flat index
    gathers it into every sum.  f_k terms are raised by Python's float pow,
    as additive_fk does, for each e >= 1 up to one past log_p of the
    largest n; at k = 0 each is 1.0, so f_0 sums to omega.  Padding slots
    (log p = 0.0, e = 0) add exactly 0.0 to each sum, so summing all
    columns from 0 repeats the per-n loops over the real factors.
    """
    if any(not 0 <= k <= 8 for k in fk):
        raise DomainError("k must lie in [0, 8]")
    if isinstance(rows, slice):
        slots, exps = table.slots[rows], table.exps[rows]
    else:
        slots, exps = (np.take(c, rows, axis=0) for c in (table.slots, table.exps))
    logs = _prime_logs(table)
    lp = logs[:, None]
    lp2 = lp * lp
    width = int(exps.max(initial=0)) + 1
    e = np.arange(width, dtype=np.int64)
    moment_terms = {
        "log_n": e * lp,
        "m2": e * (e + 2) * lp2,
        "m4": e * (e + 2) * (3 * e * e + 6 * e - 4) * lp2 * lp2,
    }
    if not set(names) <= moment_terms.keys():
        raise DomainError(f"names must be among {list(moment_terms)}, got {names}")
    named = [name for name in moment_terms if name in names]
    terms = [moment_terms[name].ravel() for name in named]
    powers = sorted(set(fk))
    top = log(int(table.n[-1]))
    pairs = [
        (i * width + e, e * log_p)
        for i, log_p in enumerate(logs[:-1].tolist())
        for e in range(1, min(int(top / log_p) + 2, width))
    ]
    for k in powers:
        term = np.zeros(logs.size * width)
        term[[i for i, _ in pairs]] = [b**k for _, b in pairs]
        terms.append(term)
    sums = np.zeros((len(terms), len(exps)))
    for j in range(exps.shape[1]):
        index = _term_index(slots, exps, j, width)
        for total, term in zip(sums, terms):
            total += np.take(term, index)
    columns = dict(zip(named, sums))
    if "m2" in columns:
        columns["m2"] /= 12.0
    if "m4" in columns:
        columns["m4"] /= 240.0
    return MomentColumns(fk=dict(zip(powers, sums[len(named):])), **columns)


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


def _key_chunks(
    key: np.ndarray, modulus: int, queries: np.ndarray
) -> Iterator[tuple[int, int]]:
    """Ranges of items, in ascending key, that hold at most ATOM_BUDGET
    padded atoms and at most ATOM_BUDGET queries (or a single item).

    key is tau * modulus + the table row whose atoms are expanded, so the
    widest row of a range is its last; queries is each item's query count.
    """
    distinct = np.cumsum(np.diff(key, prepend=-1) != 0)
    done = np.concatenate([[0], np.cumsum(queries)])

    def cost(lo: int, hi: int) -> int:
        stems = int(distinct[hi - 1] - distinct[lo]) + 1
        padded = stems * (int(key[hi - 1]) // modulus + 1)
        return max(padded, int(done[hi] - done[lo]))

    lo = 0
    while lo < len(key):
        ends = range(lo + 1, len(key) + 1)
        hi = lo + max(bisect_right(ends, ATOM_BUDGET, key=lambda h: cost(lo, h)), 1)
        yield lo, hi
        lo = hi


def _atom_chunks(
    table: SmoothTable, key: np.ndarray, queries: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """(lo, hi, atoms, base, tau) for each _key_chunks range of items in
    ascending key, tau * len(table) + the row whose atoms are expanded.

    atoms holds the log-divisors of each distinct row of the range,
    ascending, in a row of width = the last tau + 1 entries padded with
    +inf; base is each item's flat offset into atoms and tau its atom count.
    """
    for lo, hi in _key_chunks(key, len(table), queries):
        first = np.diff(key[lo:hi], prepend=-1) != 0
        tau = key[lo:hi] // len(table)
        rows = key[lo:hi][first] % len(table)
        width = int(tau[-1]) + 1
        atoms = np.full((len(rows), width), np.inf)
        atoms[np.arange(width) < tau[first][:, None]] = _log_divisors(
            table.primes(rows), np.take(table.exps, rows, axis=0)
        )
        atoms.sort(axis=1)
        yield lo, hi, atoms, (np.cumsum(first) - 1) * width, tau


def _search(
    atoms: np.ndarray, base: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """#{a < s} and the distance from s to the nearest a, over the row of
    atoms at flat offset base.

    Each row of atoms is ascending and ends in +inf, so the count is at
    most width - 1: a branchless binary search, one masked step per bit of
    width - 1.  The distance is nearest_atom_gap's.
    """
    width = atoms.shape[1]
    flat = atoms.reshape(-1)
    pos = np.zeros(s.shape, dtype=np.int64)
    probe = np.empty_like(pos)
    atom = np.empty(s.shape)
    hit = np.empty(s.shape, dtype=bool)
    for k in range((width - 1).bit_length() - 1, -1, -1):
        np.add(pos, (1 << k) - 1, out=probe)
        np.minimum(probe, width - 1, out=probe)
        probe += base
        np.less(np.take(flat, probe, out=atom), s, out=hit)
        np.add(pos, 1 << k, out=pos, where=hit)
    # the nearest atom at or above s (+inf past the last), then below it
    np.add(pos, base, out=probe)
    gap = np.take(flat, probe) - s
    np.maximum(pos, 1, out=probe)
    probe += base - 1
    np.subtract(s, np.take(flat, probe, out=atom), out=atom)
    np.minimum(gap, atom, out=gap, where=pos > 0)
    return pos, gap


def _nudged_tails(
    table: SmoothTable, row: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """upper_tail at nudge_off_atom's query, and whether it moved, for each
    pair of a table row and a threshold t.

    Each n is its own stem: the sorted log-divisors of its row are the
    values of its exact_law.  The nudge loop runs as masked passes over
    every pair still within MERGE_TOL of an atom, with the same float
    additions nudge_off_atom makes.
    """
    tau = np.prod(np.take(table.exps, row, axis=0).astype(np.int64) + 1, axis=1)
    key = tau * len(table) + row
    order = np.argsort(key, kind="stable")
    tails = np.empty(len(t))
    nudged = np.zeros(len(t), dtype=bool)
    for lo, hi, atoms, base, n_tau in _atom_chunks(
        table, key[order], np.ones(len(key), dtype=np.int64)
    ):
        pick = order[lo:hi]
        n = table.n[row[pick]]
        step = NUDGE_SCALE * np.array([log(v) for v in n.tolist()])
        q = t[pick]
        pos, gap = _search(atoms, base, q)
        moving = (gap < MERGE_TOL) & (n != 1)
        nudged[pick] = moving
        for _ in range(64):
            if not moving.any():
                break
            np.add(q, step, out=q, where=moving)
            pos, gap = _search(atoms, base, q)
            moving &= gap < MERGE_TOL
        if moving.any():
            stuck = int(n[np.argmax(moving)])
            raise DomainError(f"could not move query off atoms of n = {stuck}")
        tails[pick] = (n_tau - pos) / n_tau
    return tails, nudged


def table_upper_tails(
    table: SmoothTable, rows: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """upper_tail at the nudged query for each selected row and threshold.

    rows are table row indices; t has shape (len(rows), queries), one row
    of thresholds per index (NaN marks a query not wanted, and gives 0.0,
    not nudged).  Returns (tails, nudged), both shaped like t.

    Each n > 1 is m P^e, P^e the power of its largest prime, and its stem m
    is a row of the table.  n = 1, and a row whose stem the table lacks (a
    table of some rows of S(x, y)), is its own stem, with e = 0.  The
    divisors of n are d P^i with d | m and 0 <= i <= e, so
    count(log delta >= t) over the divisors of n is the sum over i of
    #{d | m : log d >= t - i log P}.
    The sorted log d of each distinct stem are expanded once, and a binary
    search answers each shifted threshold.  Rows are taken in ascending
    tau(stem), in chunks of at most ATOM_BUDGET padded stem atoms and
    ATOM_BUDGET shifted thresholds.  _nudged_tails runs the same chunks and
    search with each n as its own stem.

    np.log(d P^i) and np.log(d) + i log P differ by a few ulps of log n,
    under 1e-13 for n < 2**62.  So where every shifted threshold lies at
    least 2 MERGE_TOL from every log d, the count equals the one np.log of
    the divisors of n gives, no divisor lies within MERGE_TOL of t, and
    count / tau is the tail exact_law gives unnudged.  The queries with a
    shifted threshold within 2 MERGE_TOL of a log d (z = 0 on squares, and
    n = 1, among them) are collected from every chunk and answered in one
    batch from the full sorted log-divisors of their n, nudged off an atom
    as nudge_off_atom would: the same floats exact_law, nudge_off_atom and
    upper_tail give.  A row with tau > TAU_CEILING raises
    ResourceLimitError, as exact_law would.
    """
    rows = np.asarray(rows, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    exps = np.take(table.exps, rows, axis=0)
    tau = np.ones(len(rows), dtype=np.int64)
    last = np.full(len(rows), -1, dtype=np.int64)
    for ej in exps.T:
        tau *= ej + 1
        last += ej > 0
    over = np.flatnonzero(tau > TAU_CEILING)
    if over.size:
        raise ResourceLimitError(
            f"tau = {int(tau[over[0]])} exceeds ceiling {TAU_CEILING}"
        )
    # n = 1 has last = -1, a padding slot (prime 1, e = 0): its own stem
    prime = table.primes((rows, last))
    e = exps[np.arange(len(rows)), last]
    del exps
    m = table.n[rows] // prime**e
    stem = np.searchsorted(table.n, m)
    # a row whose stem is not in the table is its own stem, with e = 0
    alone = np.take(table.n, stem, mode="clip") != m
    stem[alone] = rows[alone]
    e[alone] = 0
    key = tau // (e + 1) * len(table) + stem
    del tau, last, m, stem, alone
    log_p = np.log(prime.astype(np.float64))
    del prime
    order = np.argsort(key)
    key = key[order]

    tails = np.zeros(t.shape)
    nudged = np.zeros(t.shape, dtype=bool)
    reps = e.astype(np.int64) + 1
    near_i, near_j = [], []  # the (position in rows, query) pairs flagged
    for lo, hi, atoms, base, stem_tau in _atom_chunks(
        table, key, reps[order] * t.shape[1]
    ):
        pick = order[lo:hi]
        # row c asks t - i log P for i = 0, ..., e, on the query rows from starts[c]
        starts = np.cumsum(reps[pick]) - reps[pick]
        child = np.repeat(np.arange(hi - lo), reps[pick])
        s = np.take(t, pick[child], axis=0)
        s -= ((np.arange(len(child)) - starts[child]) * log_p[pick[child]])[:, None]
        pos, gap = _search(atoms, base[child][:, None], s)
        np.subtract(stem_tau[child][:, None], pos, out=pos)
        count = np.add.reduceat(pos, starts, axis=0)
        tails[pick] = count / (stem_tau * reps[pick])[:, None]
        c, j = np.nonzero(np.logical_or.reduceat(gap < 2 * MERGE_TOL, starts, axis=0))
        near_i.append(pick[c])
        near_j.append(j)
    if near_i:
        i, j = np.concatenate(near_i), np.concatenate(near_j)
        tails[i, j], nudged[i, j] = _nudged_tails(table, rows[i], t[i, j])
    tails[np.isnan(t)] = 0.0
    return tails, nudged


def model_mean_additive(ctx: SaddleContext, k: int) -> float:
    """Mean of f_k under the independent model at the saddle tilt:
    sum over p <= y, nu >= 1 of (nu log p)^k p^(-nu alpha) (1 - p^(-alpha)).

    The nu-sum stops once the geometric tail bound falls below MODEL_REL_TOL
    of the accumulated value, uniformly over primes.
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
            if np.all(tail <= MODEL_REL_TOL * np.maximum(acc, 1e-300)):
                break
        if nu > 100000:
            raise ResourceLimitError("nu-sum failed to converge")
    return kernels.kahan_sum(acc * (1.0 - r))
