"""Workload inputs and output checks for the friabilis benchmark.

Each workload is a list of CLI calls (argv for `friabilis.cli.main`) made
from a seed.  Inputs are built with this module's own arithmetic, never with
friabilis, so input generation cannot warm the program's caches before the
timed calls.  The checks compare every call's output with an oracle that does
not share the code path under test.

This module imports nothing from friabilis; the oracle that needs it
(`psi_recursive`) is passed in by the caller.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("tails", "concentration", "sieve", "pointwise")

AVERAGE_GAP_BOUND = 2.5  # acceptance criterion 12, frozen
ARCSINE_GAP_BOUND = 0.05  # acceptance criterion 13
# The contour truncated at T = 200 smooths each atom's step over ~1/T, so an
# atom within ATOM_WINDOW (10/T) of t may add up to its whole mass to
# |perron - exact|.  Over 1,800 seeded off-atom queries the error beyond that
# mass was at most 0.0021.
PERRON_TOL = 0.01
ATOM_WINDOW = 0.05
OFF_ATOM_GAP = 1e-6  # random queries keep at least this far from every atom
PERRON_ARG = "200,20000"
COLLISION_TEXT = "collides with the atom"

# (x, y) and call counts per size; "smoke" keeps the harness tests short
SIZES = {
    "full": {
        "tails": (10**8, 30, "0,0.5,1,1.5", "0,0.5,1", 40_000),
        "concentration": (10**7, 100),
        "sieve": 2 * 10**6,
        "pointwise": (100, 10**12, 10**6),
    },
    "smoke": {
        "tails": (10**6, 30, "0,0.5,1", "0,0.5,1", 2_000),
        "concentration": (10**5, 100),
        "sieve": 2 * 10**4,
        "pointwise": (10, 10**6, 10**3),
    },
}


@dataclass
class Call:
    """One CLI call: its argv, the kind of check it needs, and the facts the
    check uses (for `tail`: the factorization of n and whether z sits on an
    atom)."""

    kind: str
    argv: list[str]
    out: str | None = None  # CSV path relative to the child's work directory
    items: int = 1
    factors: tuple[tuple[int, int], ...] = ()
    on_atom: bool = False
    info: dict = field(default_factory=dict)


def _primes_upto(limit: int) -> list[int]:
    mark = bytearray([1]) * (limit + 1)
    mark[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if mark[i]]


_SMALL_PRIMES = _primes_upto(1000)


def _divisors(factors) -> list[int]:
    divs = [1]
    for p, e in factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def _log_moments(factors) -> tuple[float, float]:
    log_n = sum(e * math.log(p) for p, e in factors)
    m2 = sum(e * (e + 2) * math.log(p) ** 2 for p, e in factors) / 12.0
    return log_n, math.sqrt(m2)


def _random_n(rng: random.Random, lo: float, hi: float) -> tuple[int, tuple[tuple[int, int], ...]]:
    # a product of 4..10 primes <= 1000, repeats allowed, with lo < log10 n <= hi;
    # the last prime is drawn from those that land the product in the slice
    while True:
        picks = [rng.choice(_SMALL_PRIMES) for _ in range(rng.randint(3, 9))]
        rest = math.prod(picks)
        first = bisect.bisect_right(_SMALL_PRIMES, 10**lo / rest)
        stop = bisect.bisect_right(_SMALL_PRIMES, 10**hi / rest)
        if first >= stop:
            continue
        picks.append(_SMALL_PRIMES[rng.randrange(first, stop)])
        n = rest * picks[-1]
        if lo < math.log10(n) <= hi:
            return n, tuple(sorted(Counter(picks).items()))


def _tail_query(rng: random.Random, band: tuple[float, float], on_atom: bool) -> Call:
    while True:
        n, factors = _random_n(rng, *band)
        log_n, sigma = _log_moments(factors)
        z_max = log_n / (2.0 * sigma)  # supremum of the tilt domain
        logs = [math.log(d) for d in _divisors(factors)]
        if on_atom:
            # an interior atom above the mean, inside 0.9 of the tilt domain
            lo, hi = 0.5 * log_n, 0.5 * log_n + 0.9 * z_max * sigma
            inside = [v for v in logs if lo < v <= hi]
            if not inside:
                continue
            z = (rng.choice(inside) - 0.5 * log_n) / sigma
        else:
            z = z_max * rng.uniform(0.02, 0.9)
            t = 0.5 * log_n + z * sigma
            if min(abs(v - t) for v in logs) < OFF_ATOM_GAP:
                continue
        argv = ["tail", "--n", str(n), "--z", repr(z), "--perron", PERRON_ARG]
        return Call("tail", argv, factors=factors, on_atom=on_atom)


def make_calls(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The workload's calls for this seed; equal seeds give equal calls."""
    spec = SIZES[size][workload]
    if workload == "tails":
        x, y, avg_grid, clt_grid, cap = spec
        return [
            Call(
                "average",
                ["average", "--x", str(x), "--y", str(y), "--z-grid", avg_grid,
                 "--c5", "1.1", "--out", "average.csv"],
                out="average.csv",
                info={"x": x, "y": y},
            ),
            Call(
                "clt",
                ["clt", "--x", str(x), "--y", str(y), "--z-grid", clt_grid,
                 "--sample-cap", str(cap), "--seed", str(seed), "--out", "clt.csv"],
                out="clt.csv",
                info={"x": x, "y": y, "cap": cap},
            ),
        ]
    if workload == "concentration":
        x, y = spec
        return [
            Call(
                "concentration",
                ["concentration", "--x", str(x), "--y", str(y), "--k-list", "0,1,2",
                 "--thresholds", "0.1,0.25,0.5", "--json", "--out", "concentration.csv"],
                out="concentration.csv",
                info={"x": x, "y": y},
            )
        ]
    if workload == "sieve":
        x = spec
        return [
            Call(
                "arcsine",
                ["arcsine", "--x", str(x), "--vs", "0.25,0.5", "--out", "arcsine.csv"],
                out="arcsine.csv",
                items=x,
                info={"x": x},
            )
        ]
    if workload == "pointwise":
        count, x, y = spec
        rng = random.Random(seed)
        # log10 N is stratified over (6, 13]: query i draws from the i-th of
        # `count` equal slices, and each run of ten queries has one on an
        # atom, so every seed carries the same mix of sizes
        width = 7.0 / count
        calls = []
        for i in range(count):
            if i % 10 == 0:
                atom = i + rng.randrange(10)
            band = (6 + width * i, 6 + width * (i + 1))
            calls.append(_tail_query(rng, band, i == atom))
        calls.append(
            Call("saddle", ["saddle", "--x", str(x), "--y", str(y), "--json"],
                 items=0, info={"x": x, "y": y})
        )
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def set_items(calls: list[Call], psi) -> None:
    """Fill in the items each batch call streams: the n of S(x, y)."""
    for call in calls:
        if call.kind in ("average", "clt", "concentration"):
            call.items = psi(call.info["x"], call.info["y"])


# -- checks ------------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != "# schema=1":
        raise ValueError("missing schema line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def check_average(text: str, psi: int) -> list[str]:
    problems = []
    rows = _csv_rows(text)
    if not rows:
        return ["average: no rows"]
    for row in rows:
        if int(row["n_count"]) != psi:
            problems.append(f"average: n_count {row['n_count']} != psi {psi}")
        gap = float(row["normalized_gap"])
        if not gap <= AVERAGE_GAP_BOUND:
            problems.append(f"average: gap {gap} at z={row['z']} > {AVERAGE_GAP_BOUND}")
    return problems


def check_clt(text: str, psi: int, cap: int) -> list[str]:
    problems = []
    rows = _csv_rows(text)
    if not rows:
        return ["clt: no rows"]
    tested = min(cap, psi - 1)  # every selected n > 1 is tested at z = 0
    for row in rows:
        n_tested = int(row["n_tested"])
        if float(row["z"]) == 0.0 and n_tested != tested:
            problems.append(f"clt: n_tested {n_tested} at z=0 != {tested}")
        if not 0 <= n_tested <= tested:
            problems.append(f"clt: n_tested {n_tested} outside [0, {tested}]")
        if not 0.0 <= float(row["exceptional_fraction"]) <= 1.0:
            problems.append(f"clt: exceptional_fraction {row['exceptional_fraction']}")
    return problems


def check_concentration(stdout: str, psi: int) -> list[str]:
    payload = json.loads(stdout)
    meta = payload["meta"]
    problems = []
    if meta["psi"] != psi:
        problems.append(f"concentration: psi {meta['psi']} != {psi}")
    total = sum(meta["sigma_histogram"]["counts"])
    if total != psi - 1:
        problems.append(f"concentration: histogram holds {total} n, want {psi - 1}")
    if len(payload["rows"]) != len(meta["k_list"]) * len(meta["thresholds"]):
        problems.append("concentration: row count")
    return problems


def check_arcsine(text: str) -> list[str]:
    problems = []
    rows = _csv_rows(text)
    if not rows:
        return ["arcsine: no rows"]
    for row in rows:
        v = float(row["v"])
        limit = 2.0 / math.pi * math.asin(math.sqrt(v))
        if abs(float(row["limit"]) - limit) > 1e-12:
            problems.append(f"arcsine: limit {row['limit']} != {limit} at v={v}")
        if not float(row["gap"]) <= ARCSINE_GAP_BOUND:
            problems.append(f"arcsine: gap {row['gap']} at v={v} > {ARCSINE_GAP_BOUND}")
    return problems


def check_tail(stdout: str, call: Call) -> list[str]:
    """The exact tail against a brute-force divisor count at the reported t,
    and the Perron tail within PERRON_TOL plus the mass of any atom at t."""
    report = json.loads(stdout)
    n = math.prod(p**e for p, e in call.factors)
    problems = []
    if report["n"] != n:
        return [f"tail: n {report['n']} != {n}"]
    divisors = _divisors(call.factors)
    t = report["t"]
    log_n, sigma = _log_moments(call.factors)
    z = float(call.argv[call.argv.index("--z") + 1])
    if abs(t - (0.5 * log_n + z * sigma)) > 64e-9 * log_n + 1e-9:
        problems.append(f"tail: t {t} far from the query at z={z}")
    exact = sum(1 for d in divisors if math.log(d) >= t) / len(divisors)
    if report["exact_tail"] != exact:
        problems.append(f"tail: exact_tail {report['exact_tail']} != brute {exact} (n={n})")
    if report["perron"] is None:
        problems.append("tail: no perron value")
    else:
        near = sum(1 for d in divisors if abs(math.log(d) - t) < ATOM_WINDOW)
        tol = PERRON_TOL + near / len(divisors)
        if not abs(report["perron"] - exact) <= tol:
            problems.append(f"tail: perron {report['perron']} vs exact {exact} (n={n}, tol {tol})")
    return problems


def check_saddle(stdout: str, call: Call, psi) -> list[str]:
    payload = json.loads(stdout)
    problems = []
    if not payload.get("psi_saddle", 0.0) > 0.0:
        problems.append("saddle: psi_saddle missing or not positive")
    if "psi_exact" in payload:  # "-" when the enumeration budget ran out
        want = psi(call.info["x"], call.info["y"])
        if payload["psi_exact"] != want:
            problems.append(f"saddle: psi_exact {payload['psi_exact']} != {want}")
    return problems


def known_defect(call: Call, rc, stderr: str) -> bool:
    """An on-atom Perron query that exits 2 on the atom collision: the
    confirmed defect of ROADMAP item 4, counted as a failed call."""
    return call.kind == "tail" and call.on_atom and rc == 2 and COLLISION_TEXT in stderr


def check_call(call: Call, rc, stdout: str, stderr: str, csv_text: str | None, psi) -> list[str]:
    """Problems with one call's output; a non-zero exit is itself a problem."""
    if rc != 0:
        return [f"{call.kind}: exit {rc}: {stderr.strip()[-200:]}"]
    if call.out is not None and csv_text is None:
        return [f"{call.kind}: no CSV written to {call.out}"]
    try:
        if call.kind == "average":
            return check_average(csv_text, psi(call.info["x"], call.info["y"]))
        if call.kind == "clt":
            return check_clt(csv_text, psi(call.info["x"], call.info["y"]), call.info["cap"])
        if call.kind == "concentration":
            return check_concentration(stdout, psi(call.info["x"], call.info["y"]))
        if call.kind == "arcsine":
            return check_arcsine(csv_text)
        if call.kind == "tail":
            return check_tail(stdout, call)
        if call.kind == "saddle":
            return check_saddle(stdout, call, psi)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output
        return [f"{call.kind}: unreadable output: {exc!r}"]
    raise ValueError(f"no check for call kind {call.kind!r}")
