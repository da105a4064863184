"""Benchmark of the friabilis CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload {tails,concentration,sieve,pointwise,all}
                             --seed N --seconds S --trace {0,1} [--size {full,smoke}]

With --trace 0 the run starts single-threaded child processes one after
another, each of which imports friabilis, builds the workload's inputs from
the seed and calls `friabilis.cli.main` once per call; children are started
until the next one would end past --seconds (always at least two).  This
process times each child from spawn to exit, reads its ru_maxrss, and checks
every output against an oracle.  It also times a fixed piece of reference
work before the first child and after each one, and reports the time
metrics scaled to a fixed reference speed of the host.

With --trace 1 the run makes one plain child and one child with the
tracer's wrappers installed, and reports the per-layer metrics from the
traced child's spans plus the tracing overhead (traced minus plain wall
time).  End-to-end metrics never come from a traced child.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
each metric with its unit, the provenance of the run and the CSV digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
import tracer  # noqa: E402

RUN_DEADLINE_S = 170  # a run that is still going by then is killed
# A run never stops after one child: a stopping rule that reads the first
# child's time alone would report the slow first children unaveraged.
MIN_CHILDREN = 2
# The host speed that end-to-end times are reported at: the time metrics of
# a run are scaled by REFERENCE_S over the mean time of `reference_s()`
# measured between that run's children (see README.md).
REFERENCE_S = 0.45

# name -> unit; the end-to-end metrics of an untraced run
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ok_frac": "ratio",
}

_KERNEL_METRICS = tuple(
    f"kernels.{k}.{m}"
    for k in ("divisor_products", "tau_sieve", "small_divisor_count_sieve", "prime_mask", "spf_sieve", "kahan_sum")
    for m in ("calls", "self_s", "out_bytes")
)
# the per-layer metrics of a traced run, in README order
PER_LAYER = (
    "arith.self_s",
    "arith.enumerate_smooth.items",
    "arith.enumerate_smooth.self_s",
    "arith.factorize.calls",
    "arith.factorize.self_s",
    "arith.sieve_primes.calls",
    "arith.sieve_cache_hit_ratio",
    "arith.psi_exact.self_s",
    "arith.psi_exact.budget_exhausted",
    "saddle.self_s",
    "saddle.make_context.self_s",
    "saddle.make_context.kahan_calls",
    "dickman.self_s",
    "dickman.psi_dickman_estimate.self_s",
    "dickman.RhoTable.build.self_s",
    "divdist.self_s",
    "divdist.exact_law.calls",
    "divdist.exact_law.self_s",
    "divdist.exact_law.atoms",
    "divdist.nudge_off_atom.calls",
    "divdist.nudge_off_atom.self_s",
    "divdist.nudge_off_atom.nudge_ratio",
    "divdist.upper_tail.calls",
    "divdist.upper_tail.self_s",
    "divdist.moments.self_s",
    "divdist.additive_fk.self_s",
    "perron.self_s",
    "perron.tail_report.self_s",
    "perron.perron_tail_quadrature.self_s",
    "perron.perron_tail_quadrature.nodes",
    "perron.solve_beta.calls",
    "perron.log_mgf_derivative.calls",
    "perron.saddle_tail_approx.self_s",
    "kernels.self_s",
    *_KERNEL_METRICS,
    "experiments.self_s",
    "experiments.run_average.self_s",
    "experiments.run_clt.self_s",
    "experiments.run_concentration.self_s",
    "experiments.arcsine_check.self_s",
    "experiments.write_csv.self_s",
    "cli.self_s",
    "cli.average.s",
    "cli.clt.s",
    "cli.concentration.s",
    "cli.arcsine.s",
    "cli.tail.s",
    "cli.saddle.s",
    "trace.wall_s",
    "trace.setup_s",
    "trace.cli_s",
    "trace.after_calls_s",
    "trace.unaccounted_s",
    "trace.overhead_s",
    "trace.spans",
)
_RATIOS = {"arith.sieve_cache_hit_ratio", "divdist.nudge_off_atom.nudge_ratio"}


def per_layer_unit(name: str) -> str:
    if name in _RATIOS:
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("out_bytes"):
        return "bytes"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Child:
    """One finished child process: its timings, peak RSS and report."""

    def __init__(self, wall_s, rss_mb, report, work):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.report = report
        self.work = work


_running: subprocess.Popen | None = None


def _on_deadline(signum, frame):
    if _running is not None:
        _running.kill()
        _running.wait()
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FRIABILIS_CACHE", "FRIABILIS_PURE_PYTHON", "PYTHONSTARTUP", "PYTHONPYCACHEPREFIX")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, size: str, mode: str, work: Path) -> Child:
    global _running
    work.mkdir(parents=True)
    with open(work / "stderr.txt", "wb") as err:
        start = perf_counter()
        _running = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), workload, str(seed), size, mode, str(work), repr(start)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(_running.pid, 0)
        wall = perf_counter() - start
    _running.returncode = os.waitstatus_to_exitcode(status)
    code, _running = _running.returncode, None
    if code != 0:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"{mode} child exited {code}:\n{tail}")
    report = json.loads((work / "report.json").read_text())
    return Child(wall, usage.ru_maxrss / 1024.0, report, work)


class Checker:
    """Checks each child's calls and keeps the tallies for the result."""

    def __init__(self, calls):
        self.calls = calls
        self._psi_memo: dict = {}
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.backends: set[str] = set()

    def psi(self, x, y) -> int:
        if (x, y) not in self._psi_memo:
            from friabilis.arith import psi_recursive

            self._psi_memo[(x, y)] = psi_recursive(x, y)
        return self._psi_memo[(x, y)]

    def check(self, child: Child) -> list[bool]:
        """Whether each call completed with a correct output."""
        self.backends.add(child.report["backend"])
        ok = []
        for call, result in zip(self.calls, child.report["calls"], strict=True):
            csv_text = None
            if call.out is not None and (child.work / call.out).exists():
                data = (child.work / call.out).read_bytes()
                csv_text = data.decode()
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.setdefault(call.kind, digest) != digest:
                    self.problems.append(f"{call.kind}: CSV bytes differ between processes")
            rc, stderr = result["rc"], result["stderr"]
            self.attempted += 1
            if workloads.known_defect(call, rc, stderr):
                self.failed += 1
                self.known_defects += 1
                ok.append(False)
                continue
            problems = workloads.check_call(call, rc, result["stdout"], stderr, csv_text, self.psi)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            ok.append(not problems)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems and len(self.backends) == 1


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_s() -> float:
    """Time of a fixed piece of work that does not use friabilis, in three
    parts like the program's own: an interpreted loop over a list of small
    tuples (the S(x, y) stream), NumPy updates of a few elements each (the
    divisor sieves for large d) and NumPy passes over a 16 MB array (the
    sieves for small d, the divisor products)."""
    start = perf_counter()
    pairs = [(n, n % 7) for n in range(300_000)]
    total = 0
    for n, r in pairs:
        total += n * r & 15
    counts = np.zeros(2_000_001, dtype=np.int64)
    for d in range(100_000, 200_000):
        counts[d::d] += 1
    for _ in range(5):
        for d in range(1, 60):
            counts[d::d] += 1
    return perf_counter() - start


def end_to_end(workload, calls, checker, children) -> dict[str, float]:
    """The run's end-to-end metrics as measured, before host-speed scaling."""
    items_rates, latencies = [], []
    for child in children:
        ok = checker.check(child)
        results = child.report["calls"]
        # only calls that complete items count: `saddle` on pointwise has none
        busy = sum(r["s"] for call, r in zip(calls, results) if call.items)
        done = sum(call.items for call, good in zip(calls, ok) if good)
        items_rates.append(done / busy)
        if workload == "pointwise":
            latencies += [r["s"] * 1e3 for call, good, r in zip(calls, ok, results) if good and call.kind == "tail"]
        elif all(ok):
            latencies.append(busy * 1e3)  # a batch child's calls form one query
    return {
        "wall_s": statistics.median(c.wall_s for c in children),
        "setup_s": statistics.median(c.report["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        "items_per_s": statistics.median(items_rates),
        "query_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "query_p90_ms": _percentile(latencies, 90) if latencies else 0.0,
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }


def scale_to_host(raw: dict[str, float], speed: float) -> dict[str, float]:
    """Times and rates at the reference host speed; `speed` is REFERENCE_S
    over the mean reference time measured in the run."""
    scaled = dict(raw)
    for name in ("wall_s", "setup_s", "query_p50_ms", "query_p90_ms"):
        scaled[name] = raw[name] * speed
    scaled["items_per_s"] = raw["items_per_s"] / speed
    return scaled


def traced_layers(plain: Child, traced: Child) -> dict[str, float]:
    summary = tracer.summarize(tracer.load(traced.work / "trace.npz"))
    cli_s = sum(v for k, v in summary.items() if k.startswith("cli.") and k.endswith(".s") and k.count(".") == 2)
    setup = traced.report["setup_s"]
    after = traced.wall_s - traced.report["calls_done_s"]
    summary.update({
        "trace.wall_s": traced.wall_s,
        "trace.setup_s": setup,
        "trace.cli_s": cli_s,
        "trace.after_calls_s": after,
        "trace.unaccounted_s": traced.wall_s - setup - cli_s - after,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    })
    return {name: float(summary.get(name, 0)) for name in PER_LAYER}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "friabilis").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """One workload's result object and its provenance."""
    load_before = os.getloadavg()
    calls = workloads.make_calls(workload, seed, size)
    checker = Checker(calls)
    workloads.set_items(calls, checker.psi)
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spawn(workload, seed, size, "setup", work / "warmup")  # warm the file cache
        if trace:
            plain = spawn(workload, seed, size, "run", work / "plain")
            traced = spawn(workload, seed, size, "trace", work / "traced")
            metrics = traced_layers(plain, traced)
            checker.check(plain)
            checker.check(traced)
            units = {name: per_layer_unit(name) for name in PER_LAYER}
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(traced.work / "trace.npz", OUT / f"trace-{workload}.npz")
            reports = [plain.report]
        else:
            # each child is timed between two timings of the reference work
            started = perf_counter()
            children, refs = [], [reference_s()]
            while True:
                children.append(spawn(workload, seed, size, "run", work / f"run-{len(children)}"))
                refs.append(reference_s())
                if (len(children) >= MIN_CHILDREN
                        and perf_counter() - started + children[-1].wall_s + refs[-1] > seconds):
                    break
            raw = end_to_end(workload, calls, checker, children)
            speed = REFERENCE_S / statistics.fmean(refs)
            metrics = scale_to_host(raw, speed)
            units = END_TO_END
            reports = [c.report for c in children]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "processes": len(reports),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "backend": sorted(checker.backends),
        "python": reports[0]["python"],
        "numpy": reports[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "child_env": {k: child_env()[k] for k in ("PYTHONHASHSEED", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "known_defect_failures": checker.known_defects,
        "csv_sha256": checker.digests,
        "problems": checker.problems[:20],
    }
    if not trace:
        provenance["host_scaling"] = {
            "speed": speed,
            "reference_s": refs,
            "raw": raw,
            "child_wall_s": [c.wall_s for c in children],
            "child_setup_s": [c.report["setup_s"] for c in children],
        }
    return result, provenance


def print_result(result: dict, provenance: dict) -> None:
    name = provenance["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:<14} {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{name:<14} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
          f" (known defect: {provenance['known_defect_failures']})")
    for problem in provenance["problems"]:
        print(f"{name:<14} PROBLEM {problem}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "friabilis" / "__init__.py").is_file():
        print(f"error: no friabilis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_deadline)
    results = {}
    try:
        for name in names:
            signal.alarm(RUN_DEADLINE_S)
            result, provenance = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            signal.alarm(0)
            print_result(result, provenance)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
