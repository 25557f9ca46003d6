"""The benchmark's traced run still works against the package.

``perfbench/tracer.py`` wraps package functions from outside and reads
their arguments and results (``hv_pages``' first argument, the built
complex, the engine's cancellation masks), so a refactor of the package
can break it without any other test noticing.  A traced function the
package no longer has is skipped without a word and its metrics read 0,
so the hooks are checked by name too.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# installs the tracer in a fresh interpreter, whose patched modules no
# other test sees, and prints what it wrapped
INSTALL = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
from tracer import SPANNED, Tracer
tracer = Tracer()
tracer.install()
print(json.dumps({"spanned": SPANNED, "patched": tracer.patched}))
"""


def _traced_round(workload: str) -> None:
    """One second of ``workload``, seed 0, traced: it must exit 0, report
    ``correct: true`` and fail no op."""
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True, result.stdout
    assert summary["failed"] == 0


def test_traced_periodic_benchmark_round_is_correct():
    _traced_round("periodic-len4")


def test_traced_ranks_benchmark_round_is_correct():
    # the akh and kh ops, whose builds the tracer counts from the complex's
    # rows (``_count_build``), away from the Tate code
    _traced_round("ranks-10x")


def test_every_traced_function_is_patched():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    patched = report["patched"]
    for module, attr, _ in report["spanned"]:
        name = f"{module}.{attr}"
        if name.endswith("*"):
            assert any(p.startswith(name[:-1]) for p in patched), name
        else:
            assert name in patched, name
