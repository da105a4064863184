"""One measured process of the benchmark.

    python3 child.py WORKLOAD SEED SIZE MODE WORK_DIR SPAWNED_AT

MODE is `setup` (import and build the inputs, then exit), `run` (also make
every CLI call) or `trace` (run with the tracer's wrappers installed, then
save the spans to WORK_DIR/trace.npz).  SPAWNED_AT is the parent's
time.perf_counter() just before it started this process; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so setup_s spans from
process start to the first call.  The report goes to WORK_DIR/report.json.
"""

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter


def main() -> int:
    workload, seed, size, mode, work_dir, spawned_at = sys.argv[1:7]
    spawned_at = float(spawned_at)

    import numpy
    import friabilis
    import friabilis.cli

    import workloads

    tracer_mod = None
    if mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    calls = workloads.make_calls(workload, int(seed), size)
    setup_done = perf_counter()

    report = {
        "setup_s": setup_done - spawned_at,
        "backend": friabilis.get_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "calls": [],
    }
    if mode != "setup":
        os.chdir(work_dir)  # --out paths are relative to the work directory
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = friabilis.cli.main(call.argv)
                except SystemExit as exc:  # argparse rejected the argv
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # recorded as a failed call, not a crash
                    rc = "exception"
                    err.write(traceback.format_exc())
            report["calls"].append(
                {"rc": rc, "s": perf_counter() - start, "stdout": out.getvalue(), "stderr": err.getvalue()}
            )
        report["calls_done_s"] = perf_counter() - spawned_at
        if tracer_mod is not None:
            tracer.save(os.path.join(work_dir, "trace.npz"))
    with open(os.path.join(work_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
