"""Record the reference outputs the benchmark checks every op against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs every op any seed can draw (each pool member, the set-up no-op
and the corpus command), stores the fields a faithful optimisation keeps
(``workloads.comparable``) with the exit code, and cross-checks the
rank tables against the dense elimination oracle ``f2algebra.dense_rank``,
so that the reference is not only the cancellation engine agreeing with
itself: the ranks-10x tables as printed by the CLI, and the AKh and Kh
tables of every periodic-len4 cover (and quotient).  Any disagreement
aborts without writing ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from worker import invoke  # noqa: E402

from annulus_tate import cli  # noqa: E402
from annulus_tate.f2algebra import dense_rank  # noqa: E402
from annulus_tate.khovanov import Theory, build_complex, homology_of  # noqa: E402
from annulus_tate.links import close_braid, double_cover, parse_braid_word  # noqa: E402

HERE = Path(__file__).resolve().parent


def dense_homology(gc) -> dict[tuple, int]:
    """Homology ranks by rank-nullity over dense matrices of each
    (grading block, i) -> (grading block, i + 1) differential."""
    if gc.theory is Theory.AKH:
        block_of = lambda g: (gc.gj[g], gc.gk[g])
    else:
        block_of = lambda g: (gc.gj[g],)
    groups: dict[tuple, list[int]] = {}
    for g in range(gc.n_generators):
        groups.setdefault((block_of(g), gc.gi[g]), []).append(g)
    rank: dict[tuple, int] = {}
    for (block, i), gens in groups.items():
        targets = groups.get((block, i + 1))
        if not targets:
            continue
        column = {g: c for c, g in enumerate(targets)}
        rows = []
        for g in gens:
            row = bytearray(len(targets))
            for y in gc.out[g]:
                row[column[y]] ^= 1
            rows.append(row)
        rank[(block, i)] = dense_rank(rows)
    table = {}
    for (block, i), gens in groups.items():
        h = len(gens) - rank.get((block, i), 0) - rank.get((block, i - 1), 0)
        if h:
            table[(i, *block)] = h
    return table


def as_json_table(table: dict[tuple, int]) -> dict[str, int]:
    return {",".join(map(str, k)): table[k] for k in sorted(k for k, v in table.items() if v)}


def dense_check(diagram, label: str) -> list[str]:
    problems = []
    for theory in (Theory.AKH, Theory.KH):
        gc = build_complex(diagram, theory)
        if homology_of(gc) != dense_homology(gc):
            problems.append(f"{label} {theory.value}: engine and dense oracle disagree")
    return problems


def record(args: list[str], ops: dict) -> dict:
    rc, out, error = invoke(cli.main, args)
    if error is not None:
        raise SystemExit(f"{args}: {error}")
    fields = workloads.comparable(json.loads(out))
    ops[workloads.op_key(args)] = {"rc": rc, "fields": fields}
    return fields


def main() -> int:
    ops: dict[str, dict] = {}
    problems: list[str] = []
    started = time.perf_counter()

    record(["akh", "--braid", "", "--strands", "1"], ops)

    for braid in workloads.RANKS_POOL:
        for command, theory in (("akh", Theory.AKH), ("kh", Theory.KH)):
            fields = record(workloads.ranks_args(command, braid, 2), ops)
            diagram = close_braid(parse_braid_word(braid, 2))
            dense = as_json_table(dense_homology(build_complex(diagram, theory)))
            if fields["ranks"] != dense:
                problems.append(f"{command} {braid}: CLI ranks differ from the dense oracle")
        print(f"ranks {braid}: {time.perf_counter() - started:.0f} s", file=sys.stderr)

    periodic = [(w, 2) for w in workloads.PERIODIC_B2_POOL]
    periodic += [(w, 3) for w in workloads.PERIODIC_B3_POOL]
    for braid, strands in periodic:
        record(workloads.periodic_args(braid, strands), ops)
        word = parse_braid_word(braid, strands)
        problems += dense_check(double_cover(word)[0], f"cover of {braid}")
        problems += dense_check(close_braid(word), f"quotient {braid}")
        print(f"periodic {braid}: {time.perf_counter() - started:.0f} s", file=sys.stderr)

    cache = Path.cwd() / ".perfbench_tmp" / "reference-cache"
    shutil.rmtree(cache, ignore_errors=True)
    record(workloads.corpus_args(str(cache)), ops)
    shutil.rmtree(cache, ignore_errors=True)

    bad = [key for key, rec in ops.items() if rec["rc"] != 0 or not rec["fields"]["ok"]]
    if problems or bad:
        for line in problems + [f"{key}: not ok" for key in bad]:
            print(line, file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    (HERE / "reference.json").write_text(json.dumps(
        {"commit": commit, "dense_checked": True, "ops": ops}, indent=1, sort_keys=True
    ) + "\n")
    print(f"recorded {len(ops)} ops in {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
