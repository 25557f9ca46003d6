"""The benchmark's traced run still works against the package.

``perfbench/tracer.py`` wraps package functions from outside and reads
their arguments and results (``hv_pages``' first argument, the built
complex, the engine's cancellation masks), so a refactor of the package
can break it without any other test noticing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_periodic_benchmark_round_is_correct():
    args = ["--workload", "periodic-len4", "--seed", "0", "--seconds", "1", "--trace", "1"]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True, result.stdout
    assert summary["failed"] == 0
