"""The exact law of the uniform random log-divisor of n: closed-form
moments, the full atom list by convolution over prime powers, tail queries
with a closed >= convention, and the additive statistics the averaged model
predicts.

Over a SmoothTable, table_moments (log n, the m2 and m4 of moments, and
additive_fk) and table_upper_tails return, row by row, the same floats as
the per-n functions, bit for bit.  Both gather table rows along axis 0,
with np.take, never by advanced indexing of a 2-D array.  table_moments
and moment_blocks compute only the columns their caller asks for, and
perform the same IEEE operations in the same order and take log p from
math.log, as the per-n code does: both read one table of terms, one per
column and prime power p^e that their rows can hold.
table_upper_tails counts the divisors of n = m P^e (P its largest prime)
from the log d of its stem m shifted by i log P.  n = 1, and a row whose
stem the table lacks, is its own stem, with e = 0.  Stems are looked up
on ascending m, a block of rows at a time.  One count pass answers every
query: over chunks of sorted log-divisors, expanded once per distinct
stem, a branchless search of four array passes a level returns the count
of atoms below a threshold and the distance to the nearest one.  The
expansion gathers each copy's factor p^k from a small table of each slot
column's powers.  An own-stem row's count is exact, and the pass moves
its query off an atom closer than MERGE_TOL as nudge_off_atom would.  A
shifted row only flags a query within 2 MERGE_TOL of a stem atom, set at
those (row, query) pairs alone, and the flagged queries go through the
same pass again, each n its own stem, so float rounding in the shift
cannot change a count.  A pass answers its chunks in order on one
thread, the caller's, and keeps one set of chunk buffers for the whole
pass, so the allocator does not return chunk memory to the system and
fault it in again chunk after chunk: a process's first table_upper_tails
call at S(1e8, 30), over all rows and four z, takes about 5,300 minor
page faults, where it took about 30,500 without them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import log, prod, sqrt
from typing import Iterator

import numpy as np

from friabilis import _kernels_py as kernels
from friabilis.arith import (
    N_CEILING,
    Factorization,
    SmoothTable,
    _check_x,
    sieve_primes,
    smooth_blocks,
)
from friabilis.errors import DomainError, ResourceLimitError
from friabilis.saddle import SaddleContext

TAU_CEILING = 2 * 10**6  # largest admissible atom count
MERGE_TOL = 1e-12  # a query closer than this to an atom is nudged off it
NUDGE_SCALE = 1e-9  # collision nudge, in units of log n
# padded atoms, and thresholds, per table_upper_tails chunk, and the rows of
# a table_moments block
ATOM_BUDGET = 2**16


@dataclass(frozen=True)
class DivisorMoments:
    """Closed-form summary of the log-divisor law of one n.

    m2 is the variance, m4 the sum over p^e || n of the fourth central
    moment of j log p, j uniform on 0..e (not the fourth central moment of
    the law), w = m2**2 / m4 the balance ratio (>= 5/9, with w = 1 when
    n = 1), t_max the largest single contribution (nu + 1) log p over
    p^nu || n (0 when n = 1).
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
        tau *= e + 1
        m2 += _term("m2", lp, e)
        m4 += _term("m4", lp, e)
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
    return sum((_term(k, log(p), e) for p, e in f.factors), 0.0)


def _check_column(column) -> None:
    if column in ("log_n", "m2", "m4") or (isinstance(column, int) and 0 <= column <= 8):
        return
    raise DomainError(f'a column is "log_n", "m2", "m4" or k in 0..8, not {column!r}')


def _term(column, log_p: float, e: int) -> float:
    """What one factor p^e, e >= 1 and log_p = math.log(p), adds to the sum
    of a column before m2 and m4 are scaled: the one term that moments,
    additive_fk, table_moments and moment_blocks all sum.  An f_k term is
    raised by Python's float pow; at k = 0 it is 1.0, so f_0 counts the
    prime factors."""
    if column == "log_n":
        return e * log_p
    lp2 = log_p * log_p
    if column == "m2":
        return e * (e + 2) * lp2
    if column == "m4":
        return e * (e + 2) * (3 * e * e + 6 * e - 4) * lp2 * lp2
    return (e * log_p) ** column


def _scaled(column, total: np.ndarray) -> np.ndarray:
    """A column's sums as table_moments returns them: m2 over 12, m4 over
    240, the others as they are."""
    if column == "m2":
        return total / 12.0
    if column == "m4":
        return total / 240.0
    return total


def _term_table(columns, basis: np.ndarray, top: int):
    """(asked, start, terms): the distinct columns asked, checked, in the
    order first asked, and a row of terms for each: _term at start[i] + e
    for p = basis[i] and every e >= 1 with p**e <= top, checked in
    integers.  Entry 0 is 0.0, and start is 0 at the padding index
    len(basis), so a padding slot reads 0.0."""
    asked = list(dict.fromkeys(columns))
    for c in asked:
        _check_column(c)
    start, powers = [], []
    for p in basis.tolist():
        start.append(len(powers))
        log_p, e = log(p), 1
        while p**e <= top:
            powers.append((log_p, e))
            e += 1
    terms = np.zeros((len(asked), len(powers) + 1))
    for row, c in zip(terms, asked):
        row[1:] = [_term(c, log_p, e) for log_p, e in powers]
    return asked, np.array([*start, 0], dtype=np.intp), terms


def table_moments(table: SmoothTable, rows, columns) -> dict[str | int, np.ndarray]:
    """{column: float64 array} for the given rows (an index array or a
    slice), in their order: one key per distinct column asked, in the order
    first asked.  A column is "log_n", "m2" or "m4" (Factorization.log_n and
    moments()) or an int k in 0..8 (additive_fk(f, k)), each bit for bit;
    anything else raises DomainError.

    _term_table holds each term of the per-n loops once per (prime,
    exponent) of the basis, for the columns asked.  One pass over the slot
    columns, ATOM_BUDGET rows at a time so that a block's arrays stay in
    cache, gathers each slot's terms, at start[slot] + e, into the sums.
    Padding slots read 0.0, which adds exactly 0.0 to each sum, so summing
    all columns from 0 repeats the per-n loops over the real factors.
    """
    if isinstance(rows, slice):
        slots, exps = table.slots[rows], table.exps[rows]
    else:
        slots, exps = (np.take(c, rows, axis=0) for c in (table.slots, table.exps))
    asked, start, terms = _term_table(columns, table.basis, int(table.n[-1]))
    sums = np.zeros((len(asked), len(exps)))
    for lo in range(0, len(exps), ATOM_BUDGET):
        block = slice(lo, lo + ATOM_BUDGET)
        for j in range(exps.shape[1]):
            index = np.take(start, slots[block, j].astype(np.intp))
            index += exps[block, j]
            for total, term in zip(sums[:, block], terms):
                total += np.take(term, index)
    return {c: _scaled(c, total) for c, total in zip(asked, sums)}


def moment_blocks(
    x, y, columns, row_bytes: int
) -> Iterator[tuple[np.ndarray, dict[str | int, np.ndarray]]]:
    """S(x, y) in arith.smooth_blocks' blocks, each as (n, {column: float64
    array}): the columns of table_moments, bit for bit, row by row, with
    row_bytes charged a row against the ceilings.  x, as smooth_blocks
    checks it, and then the columns are checked before the first block.

    A row carries n and one float64 sum per distinct column asked; a child
    adds the terms of its new factor p^k, from a _term_table of every prime
    <= min(x, y) up to x, to its parent's sums.  Primes join a row in
    ascending order, the order of a table's slot columns, so each sum adds
    the same terms in the same order as table_moments' pass, where padding
    adds 0.0 at the end.
    """
    x, y = int(x), int(y)
    _check_x(x)  # x is refused before the sieve and the term table
    basis = sieve_primes(min(x, y))
    asked, start, terms = _term_table(columns, basis, x)
    terms = terms.T.copy()  # a row of terms a prime power, gathered along axis 0
    root = np.ones(1, dtype=np.int64), np.zeros((1, len(asked)))

    def times(rows, i, k, pk):
        return rows[0] * pk, rows[1] + np.take(terms, start[i] + k, axis=0)

    for n, sums in smooth_blocks(x, y, row_bytes, root, times):
        yield n, {c: _scaled(c, sums[:, j]) for j, c in enumerate(asked)}


class _Buffers:
    """The chunk arrays of one count pass, by name: the padded atom rows,
    the gathered powers and the log output of the atom expansion, the
    shifted thresholds, _search's pos, gap, step and atom, and an index
    ramp.  Each is made on first use with `items` items, and every chunk
    of the pass reuses it, so a pass does not hand its chunk memory back to
    the allocator and fault it in again.  A view of more items than that,
    such as the chunk of one item past ATOM_BUDGET, or any view of
    _Buffers(0), is a fresh array."""

    def __init__(self, items: int) -> None:
        self.items = items
        self._arrays: dict[str, np.ndarray] = {}

    def view(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The first prod(shape) items of the named buffer, shaped."""
        size = prod(shape)
        if size > self.items:
            return np.empty(shape, dtype)
        if name not in self._arrays:
            self._arrays[name] = np.empty(self.items, dtype)
        return self._arrays[name][:size].reshape(shape)

    def arange(self, size: int) -> np.ndarray:
        """A read-only ramp 0, 1, ..., size - 1 (intp)."""
        if size > self.items:
            return np.arange(size)
        if "ramp" not in self._arrays:
            self._arrays["ramp"] = np.arange(self.items)
        return self._arrays["ramp"][:size]


def _log_divisors(
    primes: np.ndarray, exps: np.ndarray, buffers: _Buffers
) -> np.ndarray:
    """log d for every divisor of every row, the atoms of a row contiguous.

    The divisors are expanded with np.repeat, largest prime first, so the
    high exponents of the small primes multiply the atom count last.  A
    column's e + 1 copies of a divisor take the factors p^0, ..., p^e,
    gathered from a table of the column's powers: p^min(k, e) of each row
    at row * w + k, w one past the column's largest exponent, so no power
    wraps.  k is a copy's place in its run, the ramp 0, 1, ... less the
    run's start.  np.log reads the int64 divisors, as float64, directly.
    The gathered factors and the logs returned are views of buffers.
    """
    columns = [j for j in range(primes.shape[1] - 1, -1, -1) if exps[:, j].any()]
    owner = buffers.arange(len(primes))
    d = np.ones(len(primes), dtype=np.int64)
    for c, j in enumerate(columns):
        e = exps[:, j].astype(np.intp)
        w = int(e.max()) + 1
        powers = primes[:, j][:, None] ** np.minimum(buffers.arange(w), e[:, None])
        reps = np.take(e + 1, owner)
        start = np.cumsum(reps)
        start -= reps
        base = owner * w
        base -= start
        index = np.repeat(base, reps)
        index += buffers.arange(len(index))
        factor = buffers.view("factor", index.shape, np.int64)
        np.take(powers.reshape(-1), index, out=factor, mode="clip")
        # freed before d is repeated: alive together, the two passed glibc's
        # trim threshold, and a first pass faulted twice as often
        del index
        d = np.repeat(d, reps)
        d *= factor
        if c + 1 < len(columns):
            owner = np.repeat(owner, reps)
    return np.log(d, out=buffers.view("logs", d.shape))


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


def _chunk_atoms(
    table: SmoothTable, key: np.ndarray, buffers: _Buffers
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(atoms, base, tau) for one _key_chunks range of items, given its key,
    tau * len(table) + the row whose atoms are expanded, in ascending order.

    atoms holds the log-divisors of each distinct row of the range,
    ascending, in a row of width = the last tau + 1 entries padded with
    +inf; base is each item's flat offset into atoms and tau its atom count.
    atoms is a view of the buffers' padded atom rows, valid until the next
    chunk: the +inf fill rewrites every entry of the view, so nothing of an
    earlier chunk remains in it.
    """
    first = np.diff(key, prepend=-1) != 0
    tau = key // len(table)
    rows = key[first] % len(table)
    width = int(tau[-1]) + 1
    atoms = buffers.view("atoms", (len(rows), width))
    atoms.fill(np.inf)
    atoms[buffers.arange(width) < tau[first][:, None]] = _log_divisors(
        table.primes(rows), np.take(table.exps, rows, axis=0), buffers
    )
    atoms.sort(axis=1)
    return atoms, (np.cumsum(first) - 1) * width, tau


def _search(
    atoms: np.ndarray, base: np.ndarray, s: np.ndarray, buffers: _Buffers
) -> tuple[np.ndarray, np.ndarray]:
    """#{a < s} and the distance from s to the nearest a, over the row of
    atoms at flat offset base.

    Each row of atoms is ascending and ends in +inf, so the count is at
    most width - 1, and the search runs over the first width - 1 atoms of
    the row: a branchless binary search on a shrinking range (Khuong and
    Morin, ACM JEA 2017).  pos starts at the row's flat offset, and each
    level makes four array passes, none of them masked: gather the atom
    at pos + half (from flat[half:]), compare it with s into an int64
    step, multiply the step by half and add it to pos.  One final compare
    adds the last step.  A masked update (np.copyto or np.add with where=)
    costs several times these passes, since its mask is as random as the
    comparisons.  A NaN threshold compares below nothing, so its count is
    0 and its distance NaN.

    The distance is nearest_atom_gap's: |a - s| for the atoms on either
    side of s.  Below a row's first atom lies the +inf that ends the row
    before it (row 0 clips to its own first atom), so a count of 0 needs
    no mask either.  Every index is in range but that one, and mode="clip"
    also spares the copy np.take makes of out= in its default mode.

    pos, gap and the scratch step and atom are views of buffers, so the
    returned pos and gap hold until buffers is next used.  With _Buffers(0)
    every array is fresh, as the nudge loop of _count_pass needs: it holds
    the pos and gap of the chunk's search across its own searches.
    """
    flat = atoms.reshape(-1)
    pos = buffers.view("pos", s.shape, np.int64)
    pos[...] = base
    step = buffers.view("step", s.shape, np.int64)
    atom = buffers.view("atom", s.shape)
    n = atoms.shape[1] - 1
    while n > 1:
        half = n // 2
        np.less(np.take(flat[half:], pos, out=atom, mode="clip"), s, out=step)
        step *= half
        pos += step
        n -= half
    np.less(np.take(flat, pos, out=atom, mode="clip"), s, out=step)
    pos += step
    # the nearest atom at or above s (+inf past the last), then below it
    gap = np.take(flat, pos, out=buffers.view("gap", s.shape), mode="clip")
    gap -= s
    np.subtract(pos, 1, out=step)
    np.subtract(np.take(flat, step, out=atom, mode="clip"), s, out=atom)
    np.minimum(gap, np.abs(atom, out=atom), out=gap)
    pos -= base
    return pos, gap


def _count_pass(
    table: SmoothTable,
    rows: np.ndarray,
    tau: np.ndarray,
    stem: np.ndarray,
    e: np.ndarray,
    log_p: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tails, nudged, near), each shaped like t, for table rows whose n
    has tau divisors and is stem * P**e, log P = log_p, at thresholds t.

    Rows go in ascending tau(stem), in _key_chunks ranges answered in
    order on the calling thread.  A row with e = 0 is its own stem: its
    count is exact, and a query within MERGE_TOL of one of its atoms is
    moved off it in masked passes, with the float additions nudge_off_atom
    makes (n = 1 is never moved).  A row with e >= 1 only flags, in near, a
    query whose shifted threshold lies within 2 MERGE_TOL of a stem atom:
    near is set at those (row, query) pairs alone, and each row's count is
    its shifted counts summed, subtracted from tau.

    One _Buffers serves every chunk of the pass: the padded atom rows, the
    gathered powers and log output of the atom expansion, the shifted
    thresholds s, the search's pos, gap, step and atom, and the index ramp.
    They are dropped when the pass returns.  The sort keys are dropped once
    the chunks are cut, and each chunk computes its own again, so the
    buffers do not raise the peak memory of a pass.
    """
    key = tau // (e + 1) * len(table) + stem
    order = np.argsort(key)
    queries = (e[order].astype(np.int64) + 1) * t.shape[1]
    chunks = list(_key_chunks(key[order], len(table), queries))
    # a chunk takes its keys again from its own rows, so no key array the
    # size of rows is alive while the chunks fill tails
    del key, queries
    tails = np.zeros(t.shape)
    nudged = np.zeros(t.shape, dtype=bool)
    near = np.zeros(t.shape, dtype=bool)
    buffers = _Buffers(ATOM_BUDGET)
    for lo, hi in chunks:
        pick = order[lo:hi]
        reps = e[pick].astype(np.int64) + 1
        key = tau[pick] // reps * len(table) + stem[pick]
        atoms, base, stem_tau = _chunk_atoms(table, key, buffers)
        # row c asks t - i log P for i = 0, ..., e, on the query rows from starts[c]
        starts = np.cumsum(reps) - reps
        child = np.repeat(np.arange(hi - lo), reps)
        query = pick[child]
        s = buffers.view("s", (len(child), t.shape[1]))
        np.take(t, query, axis=0, out=s, mode="clip")
        s -= ((buffers.arange(len(child)) - starts[child]) * log_p[query])[:, None]
        pos, gap = _search(atoms, base[child][:, None], s, buffers)
        own = e[pick] == 0
        if own.any():
            # an own-stem row asks all its queries on one query row
            first = starts[own]
            n = table.n[rows[pick[own]]]
            q, b = s[first], base[own][:, None]
            moving = (gap[first] < MERGE_TOL) & (n != 1)[:, None]
            nudged[pick[own]] = moving
            step = NUDGE_SCALE * np.array([log(v) for v in n.tolist()])[:, None]
            for _ in range(64):
                if not moving.any():
                    break
                np.add(q, step, out=q, where=moving)
                # fresh arrays: pos and gap above are views of the buffers
                pos[first], dist = _search(atoms, b, q, _Buffers(0))
                moving &= dist < MERGE_TOL
            if moving.any():
                stuck = int(n[np.argmax(moving.any(axis=1))])
                raise DomainError(f"could not move query off atoms of n = {stuck}")
        tau_n = (stem_tau * reps)[:, None]
        tails[pick] = (tau_n - np.add.reduceat(pos, starts, axis=0)) / tau_n
        i, j = np.nonzero(gap < 2 * MERGE_TOL)
        c = child[i]
        shifted = ~own[c]
        near[pick[c[shifted]], j[shifted]] = True
    return tails, nudged, near


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
    The stems m = n // P^e are found by np.searchsorted on ascending m, a
    block of ATOM_BUDGET rows at a time: sorted, the searches walk table.n
    in order (about 0.2 s in place of 0.45 s over the 2.9M rows of
    S(1e9, 100)), and no sort is as large as rows.
    One count pass answers every query.  It expands the sorted log d of
    each distinct stem once, rows in ascending tau(stem), in chunks of at
    most ATOM_BUDGET padded stem atoms and ATOM_BUDGET shifted thresholds,
    and a branchless binary search answers each shifted threshold.

    np.log(d P^i) and np.log(d) + i log P differ by a few ulps of log n,
    under 1e-13 for n < 2**62.  So where every shifted threshold lies at
    least 2 MERGE_TOL from every log d, the count equals the one np.log of
    the divisors of n gives, no divisor lies within MERGE_TOL of t, and
    count / tau is the tail exact_law gives unnudged.  The pass flags the
    other queries of shifted rows (z = 0 on squares, among them), and they
    go through it again, each n its own stem with one query.  An own-stem
    row's atoms are the values of its exact_law, and the pass moves a
    query within MERGE_TOL of one off it as nudge_off_atom would: the same
    floats exact_law, nudge_off_atom and upper_tail give.  A row with
    tau > TAU_CEILING raises ResourceLimitError, as exact_law would.
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
    del exps, last
    # stems are looked up on ascending m, ATOM_BUDGET rows at a time
    stem = np.empty_like(rows)
    for lo in range(0, len(rows), ATOM_BUDGET):
        block = slice(lo, lo + ATOM_BUDGET)
        m = table.n[rows[block]] // prime[block] ** e[block]
        order = np.argsort(m)
        m = m[order]
        found = np.searchsorted(table.n, m)
        order += lo
        # a row whose stem is not in the table is its own stem, with e = 0
        alone = order[np.take(table.n, found, mode="clip") != m]
        stem[order] = found
        stem[alone] = rows[alone]
        e[alone] = 0
    log_p = np.log(prime.astype(np.float64))
    del prime
    tails, nudged, near = _count_pass(table, rows, tau, stem, e, log_p, t)
    # each flagged query again, its n its own stem, one query a row
    i, j = np.nonzero(near)
    del stem, e, near
    again, moved, _ = _count_pass(
        table, rows[i], tau[i], rows[i], np.zeros_like(i), log_p[i], t[i, j][:, None]
    )
    tails[i, j], nudged[i, j] = again[:, 0], moved[:, 0]
    tails[np.isnan(t)] = 0.0
    return tails, nudged


def model_mean_additive(ctx: SaddleContext, k: int) -> float:
    """Mean of f_k under the independent model at the saddle tilt:
    sum over p <= y, nu >= 1 of (nu log p)^k p^(-nu alpha) (1 - p^(-alpha)).

    The nu-sum is closed: sum over nu >= 1 of nu^k r^nu is
    r A_k(r) / (1 - r)^(k + 1), A_k the Eulerian polynomial (DLMF 26.14), so
    with r = p^-alpha each prime adds (log p)^k r A_k(r) / (1 - r)^k.  1 - r
    is taken by expm1, so it does not cancel as alpha log p -> 0.
    """
    if not 0 <= k <= 8:
        raise DomainError("k must lie in [0, 8]")
    # A_0 = A_1 = 1; with a_m the coefficient of r^m in A_(n-1), A_n's is
    # (m + 1) a_m + (n - m) a_(m-1)
    coef = [1]
    for n in range(2, k + 1):
        padded = [0, *coef, 0]
        coef = [(m + 1) * padded[m + 1] + (n - m) * padded[m] for m in range(n)]
    lp = ctx.log_primes
    r = np.exp(-ctx.alpha * lp)  # p^-alpha, in (0, 1)
    a_k = np.polyval(coef[::-1], r)  # Horner, highest power first
    return kernels.kahan_sum(lp**k * r * a_k / (-np.expm1(-ctx.alpha * lp)) ** k)
