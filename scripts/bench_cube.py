"""Stage times of the path from a diagram to its rank tables, memory per
generator, the host's parallel throughput and whole-command figures,
written to a ``BENCH_*.json`` file.

Run from the root of a checkout; ``--src`` picks the package to time, so
the same script measures two commits:

    python3 scripts/bench_cube.py --src src --label after --out BENCH_ranks.json
    python3 scripts/bench_cube.py --src src --label after --out BENCH_memory.json \\
        --parts bytes,parallel,commands

Stages, each the median of ``--repeats`` runs on one engine process:

- ``resolve``: time inside ``cube.resolve`` during ``build_complex``;
- ``classify``: time inside ``cube.classify_resolutions`` during it;
- ``d_squared``: time inside ``GradedComplex.check_d_squared``;
- ``build_complex``: the whole build, the three above included;
- ``ranks``: ``khovanov.homologies_of``, the rank tables of the op's
  theories (both on the periodic-len4 sides), however the checkout
  computes them: block assembly and cancellation, or the rank pass.

The cyclic garbage collector is paused, as the CLI pauses it for a word.

``--parts`` picks what to run, any of:

- ``stages``: the stage times above;
- ``bytes``: memory per generator on the same words, traced by
  ``tracemalloc`` in one process: the bytes the built complex holds, and
  the peak from before ``build_complex`` through ``homologies_of`` with
  the op's theories, each over the complex's generators;
- ``parallel``: the host's parallel throughput, one CPU-bound loop
  against two forked at once (the loop rate of the pair over twice that
  of one), free and pinned to one CPU each, the median of
  ``--repeats`` rounds; below 2 the two processes slow each other down;
- ``commands``: the whole-command figures below.

The inner stages are timed by wrappers around the calls, so their figures
include the wrappers' cost (about 0.3 us a call).  The words are the
seed-0 words of the two benchmark workloads, built as their ops build
them: periodic-len4 builds the full quotient and cover and reads Kh j
blocks; ranks-10x builds the full closure for ``akh`` ((j, k) blocks) and
the reduced one for ``kh`` (j blocks).

The command figures run the CLI in a fresh process each, on every CPU
unless the command is marked for one: the wall time, the peak resident
size of the parent (``VmHWM``; its ``ru_maxrss`` would keep the peak of
the launching process), of its largest reaped child (``ru_maxrss``),
and the larger of the two (the largest process), and the peak
of the proportional set size summed over the process and its children,
read from ``/proc/<pid>/smaps_rollup`` every 50 ms (so a shorter spike
can be missed; Linux only).
"""

from __future__ import annotations

import argparse
import gc as pygc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

PERIODIC_WORDS = [("1 1 1 1", 2), ("1 -1 1 -1", 2), ("1 2 -1 -2", 3)]
RANKS_WORDS = [("1 1 1 1 1 1 1 1 1 1", 2), ("1 -1 1 -1 1 1 -1 1 -1 1", 2)]
AKH_10X = ["akh", "--braid", "1 -1 1 -1 1 1 -1 1 -1 1", "--strands", "2"]
# name: the CLI arguments, and whether the command runs on one CPU only
COMMANDS = {
    "akh 1 -1 1 -1 1 1 -1 1 -1 1/2": (AKH_10X, False),
    "akh 1 -1 1 -1 1 1 -1 1 -1 1/2 on one CPU": (AKH_10X, True),
    "periodic 1 1 1 1/2": (["periodic", "--braid", "1 1 1 1", "--strands", "2"], False),
    "periodic 1 1 1 1 1 1/2": (["periodic", "--braid", "1 1 1 1 1 1", "--strands", "2"], False),
    "periodic 1 -1 1 -1 1 -1/2": (
        ["periodic", "--braid", "1 -1 1 -1 1 -1", "--strands", "2"], False),
    "refuse 1 2 1 2 1 2 1 2/3": (
        ["periodic", "--braid", "1 2 1 2 1 2 1 2", "--strands", "3"], False),
}

# run in a fresh interpreter: one CLI command, then its figures as JSON
ONE_COMMAND = """
import contextlib, io, json, os, resource, sys, time
from annulus_tate import cli
args = json.loads(sys.argv[1])
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main.main(args, prog_name="annulus-tate", standalone_mode=False)
    except Exception as exc:
        code = type(exc).__name__
wall = time.perf_counter() - start
# VmHWM: ru_maxrss keeps the peak of the process image replaced by exec,
# here the launching script's
with open("/proc/self/status") as status:
    parent = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "largest_process_peak_mb": max(parent, children),
                  "parent_peak_mb": parent, "children_peak_mb": children, "exit": code}))
"""


class StageClock:
    """Accumulated seconds inside each wrapped function."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        seconds = self.seconds
        seconds.setdefault(name, 0.0)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start

        setattr(owner, attr, timed)


def as_built(word: str, strands: int, side: str, reduced: bool, blocks: str):
    """The diagram an op builds, the theory of its blocks, and the
    theories it reads (both on a full complex with Kh blocks)."""
    from annulus_tate import khovanov
    from annulus_tate.links import close_braid, double_cover, parse_braid_word

    braid = parse_braid_word(word, strands)
    diagram = double_cover(braid) if side == "cover" else close_braid(braid)
    theory = khovanov.Theory(blocks)
    theories = tuple(khovanov.Theory) if theory is khovanov.Theory.KH and not reduced else (theory,)
    return diagram, theory, theories


def stage_times(word: str, strands: int, side: str, reduced: bool, blocks: str,
                repeats: int) -> dict[str, float]:
    from annulus_tate import cube, khovanov

    diagram, _, theories = as_built(word, strands, side, reduced, blocks)
    runs: dict[str, list[float]] = {}
    for _ in range(repeats):
        pygc.collect()
        clock = StageClock()
        saved = (cube.resolve, cube.classify_resolutions,
                 khovanov.GradedComplex.check_d_squared)
        clock.wrap(cube, "resolve", "resolve")
        clock.wrap(cube, "classify_resolutions", "classify")
        clock.wrap(khovanov.GradedComplex, "check_d_squared", "d_squared")
        try:
            start = time.perf_counter()
            gc = khovanov.build_complex(diagram, reduced=reduced)
            build = time.perf_counter() - start
        finally:
            (cube.resolve, cube.classify_resolutions,
             khovanov.GradedComplex.check_d_squared) = saved
        start = time.perf_counter()
        khovanov.homologies_of(gc, theories)
        ranks = time.perf_counter() - start
        sample = dict(clock.seconds, build_complex=build, ranks=ranks)
        for name, value in sample.items():
            runs.setdefault(name, []).append(value)
    return {name: round(statistics.median(values) * 1e3, 2) for name, values in runs.items()}


def traced_bytes(word: str, strands: int, side: str, reduced: bool, blocks: str) -> dict:
    """Bytes per generator: held by the built complex, and the traced
    peak from before its build through its rank tables."""
    from annulus_tate import khovanov

    diagram, _, theories = as_built(word, strands, side, reduced, blocks)
    pygc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gc = khovanov.build_complex(diagram, reduced=reduced)
        held = tracemalloc.get_traced_memory()[0] - base
        khovanov.homologies_of(gc, theories)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n = gc.n_generators
    return {
        "generators": n,
        "held_bytes_per_generator": round(held / n, 1),
        "peak_bytes_per_generator": round(peak / n, 1),
    }


def _spin(n: int) -> float:
    """Seconds a CPU-bound loop of ``n`` steps takes."""
    start = time.perf_counter()
    x = 0
    for i in range(n):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - start


def _forked_spins(n: int, cpus: list[int | None]) -> float:
    """Wall seconds for one forked loop of ``n`` steps per entry of
    ``cpus``, all started at once, each pinned to its CPU unless None."""
    start = time.perf_counter()
    pids = []
    for cpu in cpus:
        pid = os.fork()
        if pid == 0:
            try:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                _spin(n)
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def parallel_throughput(repeats: int, steps: int = 3_000_000) -> dict:
    """Two forked loops against one: the pair's loop rate over twice the
    single loop's, free and pinned to the first two CPUs of the
    affinity set."""
    runs: dict[str, list[float]] = {"free": [], "pinned": []}
    cpus = sorted(os.sched_getaffinity(0))
    for _ in range(repeats):
        one = _forked_spins(steps, [None])
        runs["free"].append(2 * one / _forked_spins(steps, [None, None]))
        if len(cpus) > 1:
            one = _forked_spins(steps, cpus[:1])
            runs["pinned"].append(2 * one / _forked_spins(steps, cpus[:2]))
    return {
        "cpus": len(cpus),
        "loop_steps": steps,
        **{
            f"{name}_speedup": [round(min(v), 2), round(statistics.median(v), 2), round(max(v), 2)]
            for name, v in runs.items() if v
        },
        "speedup_is": "min, median, max over the rounds; 2.0 is two full CPUs",
    }


def summed_pss_kb(pid: int) -> int:
    """The proportional set size of ``pid`` and its descendants, in kB
    (0 for a process that is gone)."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith("Pss:"):
                    total += int(line.split()[1])
                    break
        with open(f"/proc/{pid}/task/{pid}/children") as children:
            kids = children.read().split()
    except OSError:
        return total
    return total + sum(summed_pss_kb(int(kid)) for kid in kids)


def command_figures(src: Path, args: list[str], one_cpu: bool, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("ANNULUS_TATE_CACHE", None)
    runs = []
    for _ in range(repeats):
        proc = subprocess.Popen(
            [sys.executable, "-c", ONE_COMMAND, json.dumps(args), "one" if one_cpu else "all"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        peak = 0
        while proc.poll() is None:
            peak = max(peak, summed_pss_kb(proc.pid))
            time.sleep(0.05)
        out = proc.stdout.read()
        proc.stdout.close()
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, args)
        runs.append(dict(json.loads(out), summed_pss_peak_mb=peak / 1024))
    return {
        "wall_s": [round(r["wall_s"], 2) for r in runs],
        **{
            key: [round(r[key], 1) for r in runs]
            for key in ("largest_process_peak_mb", "parent_peak_mb", "children_peak_mb")
        },
        "summed_pss_peak_mb": [round(r["summed_pss_peak_mb"], 1) for r in runs],
        "exit": runs[0]["exit"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src", help="the package's source directory")
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--out", default="BENCH_cube.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--command-repeats", type=int, default=3)
    parser.add_argument("--parts", default="stages,commands",
                        help="comma-separated: stages, bytes, parallel, commands")
    opts = parser.parse_args()
    parts = set(opts.parts.split(","))
    unknown = parts - {"stages", "bytes", "parallel", "commands"}
    if unknown:
        parser.error(f"unknown parts: {sorted(unknown)}")
    src = Path(opts.src).resolve()
    sys.path.insert(0, str(src))
    from annulus_tate import khovanov

    khovanov.limit_processes(1)
    pygc.disable()  # as the CLI runs a word's computation
    # (name, word, strands, side, reduced, blocks), as the ops build them
    words = [
        (f"periodic-len4 {word}/{m} {side}", word, m, side, False, "kh")
        for word, m in PERIODIC_WORDS for side in ("quotient", "cover")
    ]
    for word, m in RANKS_WORDS:
        words.append((f"ranks-10x akh {word}/{m}", word, m, "quotient", False, "akh"))
        words.append((f"ranks-10x kh {word}/{m}", word, m, "quotient", True, "kh"))
    run: dict = {
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
    }
    if "stages" in parts:
        run["stage_ms"] = {name: stage_times(*args, opts.repeats) for name, *args in words}
    if "bytes" in parts:
        run["bytes"] = {name: traced_bytes(*args) for name, *args in words}
    if "parallel" in parts:
        run["parallel"] = parallel_throughput(opts.repeats)
    if "commands" in parts and opts.command_repeats:
        run["commands"] = {
            name: command_figures(src, args, one_cpu, opts.command_repeats)
            for name, (args, one_cpu) in COMMANDS.items()
        }
    out = Path(opts.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("command", "python3 scripts/bench_cube.py --src <checkout>/src "
                               f"--label <label> --out {out.name}")
    data[opts.label] = run
    out.write_text(json.dumps(data, indent=1) + "\n")
    json.dump(run, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
