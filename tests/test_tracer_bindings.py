"""The benchmark's traced run wraps library functions by module and name.

perfbench/tracer.py's install() raises when a name it wraps is missing or
bound nowhere, so deleting or renaming a traced function breaks the traced
benchmark.  This test runs install() in a fresh interpreter, so the library
cannot lose a traced name without failing here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import tracer
tracer.install(tracer.Tracer())
"""


def test_tracer_installs_on_the_library():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
