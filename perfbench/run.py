"""Benchmark of the annulus-tate CLI, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times the set-up launch and runs the workload in a
fresh process, untraced, and reports the end-to-end metrics from each
op's mean time over the run's rounds.  With ``--trace 1`` it runs one
round traced, one untraced and one traced, each in a fresh process, and
reports the per-layer metrics and the tracing overhead.  Every op's
report is checked against ``reference.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SETUP_LAUNCHES = 9
SETUP_ARGS = ["akh", "--braid", "", "--strands", "1"]
WORKER_TIMEOUT = 150  # seconds; a run must end within 180

# Counters that must repeat exactly between two traced runs of one round.
REPEATABLE = (
    "cube.resolve.calls", "khovanov.build_complex.calls", "khovanov.generators",
    "khovanov.arrows", "f2algebra.cancellations", "f2algebra.row_xors",
    "f2algebra.xor_bytes", "tate.window_generators", "cli.cache_hits",
    "cli.cache_misses",
)


class Bench:
    def __init__(self, root: Path, reference: dict) -> None:
        self.root = root
        self.reference = reference
        self.scratch = root / ".perfbench_tmp" / str(os.getpid())
        self.env = {k: v for k, v in os.environ.items() if k != "ANNULUS_TATE_CACHE"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def check_op(self, key: str, rc: int, error: str | None, fields) -> None:
        want = self.reference["ops"].get(key)
        if error is not None:
            why = error
        elif want is None:
            why = "no reference output recorded"
        elif rc != want["rc"]:
            why = f"exit code {rc}, expected {want['rc']}"
        elif fields != want["fields"]:
            why = "report differs from the reference"
        else:
            return
        self.fail(1, f"{key}: {why}")

    # -- set-up -----------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Wall time of fresh interpreters running the no-op ``akh`` call."""
        cmd = [sys.executable, "-m", "annulus_tate.cli", *SETUP_ARGS]
        times = []
        for _ in range(SETUP_LAUNCHES):
            started = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=60,
            )
            times.append(time.perf_counter() - started)
            self.attempted += 1
            try:
                fields = workloads.comparable(json.loads(proc.stdout))
                error = None
            except ValueError:
                fields, error = None, f"set-up launch printed no report: {proc.stderr[-200:]}"
            self.check_op(workloads.op_key(SETUP_ARGS), proc.returncode, error, fields)
        return times

    # -- workload process -------------------------------------------------

    def worker(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        self.scratch.mkdir(parents=True, exist_ok=True)
        out = self.scratch / f"worker-{trace}-{time.monotonic_ns()}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", str(self.scratch), "--out", str(out),
        ]
        # a process group of its own, so that a timeout also ends what it started
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"workload process ran over {WORKER_TIMEOUT} s") from None
        if proc.returncode != 0 or not out.is_file():
            raise RuntimeError(
                f"workload process exited with {proc.returncode}: {stderr[-2000:]}"
            )
        result = json.loads(out.read_text())
        out.unlink()
        self.check_records(workload, result["records"])
        return result

    def check_records(self, workload: str, records: list[dict]) -> None:
        if workload != "corpus-len3":
            for rec in records:
                self.attempted += 1
                self.check_op(rec["key"], rec["rc"], rec["error"], rec["fields"])
            return
        want = self.reference["ops"].get(records[0]["key"]) if records else None
        for rec in records:
            n = workloads.CORPUS_WORDS
            self.attempted += n
            if rec["error"] is not None or want is None or rec["rc"] != want["rc"]:
                self.fail(n, f"corpus: exit {rec['rc']}, {rec['error'] or 'no reference'}")
            elif not rec["fresh_cache"]:
                self.fail(n, "corpus: cold pass did not start from an empty cache")
            elif not rec["replay_identical"]:
                self.fail(n, "corpus: replay is not byte-identical to the cold pass")
            elif (len(rec["word_seconds"]) != n
                  or rec["fields"]["counts"] != want["fields"]["counts"]):
                self.fail(n, "corpus: word counts differ from the reference")
            else:
                got, ref = rec["fields"]["words"], want["fields"]["words"]
                bad = [w for w, r in zip(got, ref) if w != r]
                if bad:
                    self.fail(len(bad), f"corpus: {len(bad)} words differ from the reference")

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass


def op_seconds(workload: str, result: dict) -> list[float]:
    """Each distinct op's mean time over the rounds of a run: a CLI
    invocation, or for corpus-len3 a word, timed by its cached report.
    On a shared machine one op can run 1.5 times slower in one round than
    in the next; the mean over repeats evens that out before the
    percentiles are taken over ops."""
    times: dict[str, list[float]] = {}
    for rec in result["records"]:
        if workload == "corpus-len3":
            pairs = rec["word_seconds"].items()
        else:
            pairs = [(rec["key"], rec["seconds"])]
        for op, seconds in pairs:
            times.setdefault(op, []).append(seconds)
    return sorted(statistics.fmean(t) for t in times.values())


def busy_seconds(result: dict) -> float:
    return sum(rec["seconds"] for rec in result["records"])


def end_to_end(bench: Bench, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    setup = bench.setup_seconds()
    result = bench.worker(workload, seed, seconds, 0)
    per_op = op_seconds(workload, result)
    if len(per_op) < 2:
        raise RuntimeError("too few ops produced a timing; " + "; ".join(bench.problems))
    rounds = result["round_seconds"]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(per_op) * len(rounds) / sum(rounds),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"set-up launches: {len(setup)}",
        f"rounds: {result['rounds']}, distinct ops: {len(per_op)}, round seconds: "
        + ", ".join(f"{s:.3f}" for s in result["round_seconds"])
        + f", wall: {result['wall_s']:.3f} s",
    ]
    return metrics, notes


def per_layer(bench: Bench, workload: str, seed: int) -> tuple[dict, list[str]]:
    """A traced, an untraced and a traced round in fresh processes; layer
    metrics are the mean of the two traced rounds, whose counters must
    agree exactly."""
    first = bench.worker(workload, seed, 0, 1)
    plain = bench.worker(workload, seed, 0, 0)
    second = bench.worker(workload, seed, 0, 1)
    traced = [first, second]
    layers = [layer_metrics(r["trace"]) for r in traced]
    for name in REPEATABLE:
        if layers[0][name] != layers[1][name]:
            bench.fail(0, f"counter {name} did not repeat: {layers[0][name]} vs {layers[1][name]}")
    metrics = {name: (layers[0][name] + layers[1][name]) / 2 for name in layers[0]}
    busy_traced = [busy_seconds(r) for r in traced]
    metrics["trace.overhead_s"] = sum(busy_traced) / 2 - busy_seconds(plain)
    notes = [
        f"spans per traced round: {len(first['trace']['spans'])}",
        "wrapped: " + ", ".join(first["trace"]["patched"]),
        f"untraced round: {busy_seconds(plain):.3f} s; traced rounds: "
        + ", ".join(f"{s:.3f} s" for s in busy_traced),
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="annulus-tate CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "annulus_tate" / "cli.py").is_file():
        print(f"error: no annulus_tate sources under {root / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}

    bench = Bench(root, reference)
    try:
        if opts.trace:
            metrics, notes = per_layer(bench, opts.workload, opts.seed)
        else:
            metrics, notes = end_to_end(bench, opts.workload, opts.seed, opts.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # a set-up launch hung
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}",
              file=sys.stderr)
        return 1

    words = workloads.draw_words(opts.workload, opts.seed)
    print(f"workload: {opts.workload}  seed: {opts.seed}  trace: {opts.trace}")
    drawn = "; ".join(f'"{w}"/{m}' for w, m in words)
    print("words: " + (drawn or "the corpus command's own, max strands 3, max length 3"))
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_ratio':40s} {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed}/{bench.attempted})")
    for why in bench.problems:
        print(f"FAILED: {why}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
