"""Run one workload in a fresh process and write its raw samples as JSON.

Ops are in-process invocations of ``annulus_tate.cli.main``, made in a
closed loop by a single caller: each op starts when the previous one has
returned.  Whole rounds of the workload's op list are run, at least
``MIN_ROUNDS`` of them, and no further round is started when one more
round as long as the last would end after ``--seconds``.  With
``--seconds 0`` one round is run.  Started from the root of a checkout by
``perfbench/run.py``:

    python3 perfbench/worker.py --workload W --seed N --seconds S \\
        --trace 0|1 --scratch DIR --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
from tracer import Tracer  # noqa: E402

# Every op is timed at least this often in a timed run, so that its
# time is a mean over repeats.
MIN_ROUNDS = 2


def invoke(main, args: list[str]) -> tuple[int, str, str | None]:
    """Exit code, standard output and error text of one CLI invocation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main.main(args, prog_name="annulus-tate", standalone_mode=False)
    except Exception as exc:  # a failed op is recorded and the loop goes on
        return 1, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc or 0, buf.getvalue(), None


class Runner:
    def __init__(self, tracer: Tracer | None) -> None:
        from annulus_tate import cli

        self.main = cli.main
        self.tracer = tracer

    def op(self, args: list[str], op_id: str) -> dict:
        """Invoke once, timed; the report is parsed after the clock stops."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op_id
            idx = tracer.enter("cli")
        started = time.perf_counter()
        rc, out, error = invoke(self.main, args)
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.leave(idx)
        fields = None
        if error is None:
            try:
                fields = workloads.comparable(json.loads(out))
            except ValueError as exc:
                error = f"unparseable report: {exc}"
        return {
            "key": workloads.op_key(args), "seconds": seconds, "rc": rc,
            "error": error, "fields": fields, "stdout": out,
        }


def corpus_round(runner: Runner, cache_dir: Path, n: int) -> dict:
    """A cold corpus pass into a fresh cache directory, then its replay.
    Each word's seconds are read from its cached report."""
    fresh = not cache_dir.exists()
    args = workloads.corpus_args(str(cache_dir))
    cold = runner.op(args, f"{n}:cold")
    replay = runner.op(args, f"{n}:replay")
    word_seconds = {}
    for path in cache_dir.glob("*.json"):
        try:
            report = json.loads(path.read_text())
        except ValueError:  # a broken entry leaves the word count short
            continue
        if report.get("command") == "periodic":
            word = f"{report['input']['braid']}/{report['input']['strands']}"
            word_seconds[word] = report["timing"]["seconds"]
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "key": cold["key"], "seconds": cold["seconds"] + replay["seconds"],
        "cold_seconds": cold["seconds"], "rc": max(cold["rc"], replay["rc"]),
        "error": cold["error"] or replay["error"], "fields": cold["fields"],
        "fresh_cache": fresh, "replay_identical": cold["stdout"] == replay["stdout"],
        "word_seconds": word_seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    opts = parser.parse_args()

    tracer = None
    if opts.trace:
        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    scratch = Path(opts.scratch)
    ops = workloads.round_ops(opts.workload, opts.seed)

    records: list[dict] = []
    round_seconds: list[float] = []
    min_rounds = MIN_ROUNDS if opts.seconds > 0 else 1
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        n = len(round_seconds)
        if opts.workload == "corpus-len3":
            records.append(corpus_round(runner, scratch / f"cache{n}", n))
        else:
            for i, args in enumerate(ops):
                record = runner.op(args, f"{n}:{i}")
                del record["stdout"]
                records.append(record)
        now = time.perf_counter()
        round_seconds.append(now - round_started)
        if len(round_seconds) >= min_rounds and now - started + round_seconds[-1] > opts.seconds:
            break
    wall = time.perf_counter() - started

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "rounds": len(round_seconds), "round_seconds": round_seconds, "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "records": records, "trace": tracer.dump() if tracer else None,
    }
    Path(opts.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
