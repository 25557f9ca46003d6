"""Stage times of the path from a diagram to the engine's rows, and two
whole-command figures, written to a ``BENCH_*.json`` file.

Run from the root of a checkout; ``--src`` picks the package to time, so
the same script measures two commits:

    python3 scripts/bench_cube.py --src src --label after --out BENCH_cube.json

Stages, each the median of ``--repeats`` runs on one engine process:

- ``resolve``: time inside ``cube.resolve`` during ``build_complex``;
- ``classify``: time inside ``cube.classify_resolutions`` during it;
- ``d_squared``: time inside ``GradedComplex.check_d_squared``;
- ``build_complex``: the whole build, the three above included;
- ``assembly``: ``khovanov._map_blocks`` with a function that does
  nothing, that is, the path from ``gc.out`` to the engine rows.

The cyclic garbage collector is paused, as the CLI pauses it for a word.

The inner stages are timed by wrappers around the calls, so their figures
include the wrappers' cost (about 0.3 us a call).  The words are the
seed-0 words of the two benchmark workloads, built as their ops build
them: periodic-len4 builds the full quotient and cover and assembles Kh j
blocks; ranks-10x builds the full closure for ``akh`` ((j, k) blocks) and
the reduced one for ``kh`` (j blocks).

The command figures run the CLI in a fresh process each, on every CPU:
the wall time and the largest process's peak resident size (the larger
of the process's own and its reaped children's ``ru_maxrss``).
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
from pathlib import Path

PERIODIC_WORDS = [("1 1 1 1", 2), ("1 -1 1 -1", 2), ("1 2 -1 -2", 3)]
RANKS_WORDS = [("1 1 1 1 1 1 1 1 1 1", 2), ("1 -1 1 -1 1 1 -1 1 -1 1", 2)]
COMMANDS = {
    "periodic 1 1 1 1 1 1/2": ["periodic", "--braid", "1 1 1 1 1 1", "--strands", "2"],
    "refuse 1 2 1 2 1 2 1 2/3": ["periodic", "--braid", "1 2 1 2 1 2 1 2", "--strands", "3"],
}

# run in a fresh interpreter: one CLI command, then its figures as JSON
ONE_COMMAND = """
import contextlib, io, json, resource, sys, time
from annulus_tate import cli
args = json.loads(sys.argv[1])
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main.main(args, prog_name="annulus-tate", standalone_mode=False)
    except Exception as exc:
        code = type(exc).__name__
wall = time.perf_counter() - start
peak = max(resource.getrusage(who).ru_maxrss
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"wall_s": wall, "largest_process_peak_mb": peak / 1024, "exit": code}))
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


def stage_times(word: str, strands: int, side: str, reduced: bool, blocks: str,
                repeats: int) -> dict[str, float]:
    from annulus_tate import cube, khovanov
    from annulus_tate.links import close_braid, double_cover, parse_braid_word

    braid = parse_braid_word(word, strands)
    diagram = double_cover(braid) if side == "cover" else close_braid(braid)
    theory = khovanov.Theory(blocks)
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
        khovanov._map_blocks(gc, theory, lambda C, members: None)
        assembly = time.perf_counter() - start
        sample = dict(clock.seconds, build_complex=build, assembly=assembly)
        for name, value in sample.items():
            runs.setdefault(name, []).append(value)
    return {name: round(statistics.median(values) * 1e3, 2) for name, values in runs.items()}


def command_figures(src: Path, args: list[str], repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("ANNULUS_TATE_CACHE", None)
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", ONE_COMMAND, json.dumps(args)],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(done.stdout))
    return {
        "wall_s": [round(r["wall_s"], 2) for r in runs],
        "largest_process_peak_mb": [round(r["largest_process_peak_mb"], 1) for r in runs],
        "exit": runs[0]["exit"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src", help="the package's source directory")
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--out", default="BENCH_cube.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--command-repeats", type=int, default=3)
    opts = parser.parse_args()
    src = Path(opts.src).resolve()
    sys.path.insert(0, str(src))
    from annulus_tate import khovanov

    khovanov.limit_processes(1)
    pygc.disable()  # as the CLI runs a word's computation
    stages = {}
    for word, m in PERIODIC_WORDS:
        for side in ("quotient", "cover"):
            stages[f"periodic-len4 {word}/{m} {side}"] = stage_times(
                word, m, side, False, "kh", opts.repeats)
    for word, m in RANKS_WORDS:
        stages[f"ranks-10x akh {word}/{m}"] = stage_times(
            word, m, "quotient", False, "akh", opts.repeats)
        stages[f"ranks-10x kh {word}/{m}"] = stage_times(
            word, m, "quotient", True, "kh", opts.repeats)
    commands = {
        name: command_figures(src, args, opts.command_repeats)
        for name, args in COMMANDS.items()
        if opts.command_repeats
    }
    run = {
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
        "stage_ms": stages,
        "commands": commands,
    }
    out = Path(opts.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("command", "python3 scripts/bench_cube.py --src <checkout>/src "
                               "--label <label> --out BENCH_cube.json")
    data[opts.label] = run
    out.write_text(json.dumps(data, indent=1) + "\n")
    json.dump(run, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
