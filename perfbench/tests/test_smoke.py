"""Harness tests: every workload at smoke size, traced and untraced, and every
output check against a real output and a tampered copy of it.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".items", ".atoms", ".nodes", ".out_bytes", "kahan_calls", "budget_exhausted")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def smoke(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], result
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    on_atom = sum(c.on_atom for c in workloads.make_calls(workload, 1, "smoke"))
    per_child = len(workloads.make_calls(workload, 1, "smoke"))
    assert result["failed"] == on_atom * result["attempted"] // per_child


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    result = smoke(workload, 1)
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    if workload in ("concentration", "sieve"):
        assert metrics["divdist.exact_law.calls"] == 0
    if workload != "sieve":
        assert metrics["kernels.tau_sieve.calls"] == 0
    else:
        assert metrics["kernels.tau_sieve.calls"] == 1
    subcommands = {c.kind for c in workloads.make_calls(workload, 1, "smoke")}
    assert all(metrics[f"cli.{kind}.s"] > 0 for kind in subcommands)
    # the root CLI spans cover the traced child's time after set-up
    assert abs(metrics["trace.unaccounted_s"]) < 0.05 * metrics["trace.wall_s"]


def test_times_scaled_to_reference_speed():
    proc = bench("--workload", "sieve", "--seed", "1", "--seconds", "1", "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    scaling = json.loads(next(line for line in lines if line.startswith("# provenance "))[13:])["host_scaling"]
    # every child is timed between two timings of the reference work
    assert len(scaling["reference_s"]) == len(scaling["child_wall_s"]) + 1
    speed = run.REFERENCE_S / statistics.fmean(scaling["reference_s"])
    assert scaling["speed"] == pytest.approx(speed)
    raw = scaling["raw"]
    for name in ("wall_s", "setup_s", "query_p50_ms", "query_p90_ms"):
        assert metrics[name] == pytest.approx(raw[name] * speed)
    assert metrics["items_per_s"] == pytest.approx(raw["items_per_s"] / speed)
    assert metrics["peak_rss_mb"] == raw["peak_rss_mb"] and metrics["ok_frac"] == raw["ok_frac"]


def test_traced_counts_repeat():
    first, second = smoke("pointwise", 1, seed=3), smoke("pointwise", 1, seed=3)
    counts = [k for k in run.PER_LAYER if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert all(first["metrics"][k] == second["metrics"][k] for k in counts)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sieve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- inputs ------------------------------------------------------------------


def test_inputs_follow_the_seed():
    argv = [c.argv for c in workloads.make_calls("pointwise", 5)]
    assert argv == [c.argv for c in workloads.make_calls("pointwise", 5)]
    assert argv != [c.argv for c in workloads.make_calls("pointwise", 6)]


def test_pointwise_queries():
    calls = workloads.make_calls("pointwise", 11)
    tails = [c for c in calls if c.kind == "tail"]
    assert len(tails) == 100 and sum(c.on_atom for c in tails) == 10
    for call in tails:
        n = math.prod(p**e for p, e in call.factors)
        assert 10**6 < n <= 10**13 and 4 <= sum(e for _, e in call.factors) <= 10
        log_n, sigma = workloads._log_moments(call.factors)
        z = float(call.argv[call.argv.index("--z") + 1])
        assert 0 < z < log_n / (2 * sigma)
        t = 0.5 * log_n + z * sigma
        gap = min(abs(math.log(d) - t) for d in workloads._divisors(call.factors))
        assert gap < 1e-12 if call.on_atom else gap >= workloads.OFF_ATOM_GAP


# -- output checks: a real output passes, a tampered one fails ----------------


def cli(argv, tmp_path):
    from friabilis import cli as fcli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fcli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def psi(x, y):
    from friabilis import psi_recursive

    return psi_recursive(x, y)


@pytest.fixture
def calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return {c.kind: c for w in workloads.WORKLOADS for c in workloads.make_calls(w, 2, "smoke")}


def csv_output(call, tmp_path):
    rc, stdout, stderr = cli(call.argv, tmp_path)
    assert rc == 0
    return stdout, (tmp_path / call.out).read_text()


def tamper_csv(text, column, value):
    lines = text.splitlines()
    header = lines[1].split(",")
    cells = lines[2].split(",")
    cells[header.index(column)] = value
    lines[2] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_check_average(calls, tmp_path):
    call = calls["average"]
    stdout, text = csv_output(call, tmp_path)
    assert workloads.check_call(call, 0, stdout, "", text, psi) == []
    assert workloads.check_call(call, 0, stdout, "", tamper_csv(text, "n_count", "7"), psi)
    assert workloads.check_call(call, 0, stdout, "", tamper_csv(text, "normalized_gap", "2.6"), psi)
    assert workloads.check_call(call, 0, stdout, "", None, psi)


def test_check_clt(calls, tmp_path):
    call = calls["clt"]
    stdout, text = csv_output(call, tmp_path)
    assert workloads.check_call(call, 0, stdout, "", text, psi) == []
    assert workloads.check_call(call, 0, stdout, "", tamper_csv(text, "n_tested", "1999"), psi)


def test_check_concentration(calls, tmp_path):
    call = calls["concentration"]
    stdout, text = csv_output(call, tmp_path)
    assert workloads.check_call(call, 0, stdout, "", text, psi) == []
    payload = json.loads(stdout)
    payload["meta"]["sigma_histogram"]["counts"][0] += 1
    assert workloads.check_call(call, 0, json.dumps(payload), "", text, psi)
    payload = json.loads(stdout)
    payload["meta"]["psi"] += 1
    assert workloads.check_call(call, 0, json.dumps(payload), "", text, psi)


def test_check_arcsine(calls, tmp_path):
    call = calls["arcsine"]
    stdout, text = csv_output(call, tmp_path)
    assert workloads.check_call(call, 0, stdout, "", text, psi) == []
    assert workloads.check_call(call, 0, stdout, "", tamper_csv(text, "gap", "0.06"), psi)
    assert workloads.check_call(call, 0, stdout, "", tamper_csv(text, "limit", "0.3"), psi)


def test_check_tail(tmp_path):
    calls = [c for c in workloads.make_calls("pointwise", 2, "smoke") if c.kind == "tail"]
    for call in calls:
        rc, stdout, stderr = cli(call.argv, tmp_path)
        if call.on_atom:
            assert workloads.known_defect(call, rc, stderr)
            continue
        assert not workloads.known_defect(call, rc, stderr)
        assert workloads.check_call(call, rc, stdout, stderr, None, psi) == []
        report = json.loads(stdout)
        tau = math.prod(e + 1 for _, e in call.factors)
        for key, delta in (("exact_tail", 1 / tau), ("perron", 0.5), ("t", 1e-3)):
            bad = dict(report, **{key: report[key] + delta})
            assert workloads.check_call(call, 0, json.dumps(bad), "", None, psi), key
    assert workloads.check_call(calls[0], 2, "", "error: z", None, psi)


def test_check_saddle(calls, tmp_path):
    call = calls["saddle"]
    rc, stdout, stderr = cli(call.argv, tmp_path)
    payload = json.loads(stdout)
    assert "psi_exact" in payload  # small enough for the enumeration budget
    assert workloads.check_call(call, rc, stdout, stderr, None, psi) == []
    assert workloads.check_call(call, 0, json.dumps(dict(payload, psi_exact=payload["psi_exact"] + 1)), "", None, psi)
    del payload["psi_exact"]  # the budget ran out: "-" is accepted
    assert workloads.check_call(call, 0, json.dumps(payload), "", None, psi) == []
