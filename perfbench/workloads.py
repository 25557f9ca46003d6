"""Workload definitions: seeded word pools, the op list of one round, and
the fields of a report that a faithful optimisation must keep.

An op is one in-process invocation of ``annulus_tate.cli.main``; for
``corpus-len3`` the op counted is a word of the corpus.  Every pool member
has the same cover size (generators and arrows), so the work done per
round does not depend on which members a seed draws.
"""

from __future__ import annotations

import itertools
import random


def _words(alphabet, length):
    return [" ".join(map(str, letters)) for letters in itertools.product(alphabet, repeat=length)]


# periodic-len4: every four-letter B2 word; its 8-crossing cover has 6,564
# generators and 26,248 AKh arrows.
PERIODIC_B2_POOL = _words([1, -1], 4)

# periodic-len4: the 32 four-letter B3 words whose letters alternate
# between generators 1 and 2; each cover has 1,602 generators and 4,656
# AKh arrows.
PERIODIC_B3_POOL = [
    " ".join(str(sign * g) for sign, g in zip(signs, gens))
    for gens in ((1, 2, 1, 2), (2, 1, 2, 1))
    for signs in itertools.product([1, -1], repeat=4)
]

# ranks-10x: every five-letter B2 word, doubled; each 10-crossing closure
# has 59,052 generators and 295,250 AKh arrows.
RANKS_POOL = [w + " " + w for w in _words([1, -1], 5)]

SEED0 = {
    "periodic-len4": [("1 1 1 1", 2), ("1 -1 1 -1", 2), ("1 2 -1 -2", 3)],
    "ranks-10x": [("1 1 1 1 1 1 1 1 1 1", 2), ("1 -1 1 -1 1 1 -1 1 -1 1", 2)],
}

WORKLOADS = ("periodic-len4", "ranks-10x", "corpus-len3")

CORPUS_MAX_STRANDS = 3
CORPUS_MAX_LENGTH = 3
CORPUS_WORDS = 101
# One worker: the words run one after another in the workload process, so
# no two ops compete for the machine's few cores and every span stays in
# one process when traced.
CORPUS_JOBS = 1


def draw_words(workload: str, seed: int) -> list[tuple[str, int]]:
    """The (braid, strands) inputs of one workload for one seed."""
    if workload == "corpus-len3":
        return []  # the corpus command enumerates its own words
    if seed == 0:
        return list(SEED0[workload])
    rng = random.Random(seed)
    if workload == "periodic-len4":
        b2 = rng.sample(PERIODIC_B2_POOL, 2)
        b3 = rng.sample(PERIODIC_B3_POOL, 1)
        return [(w, 2) for w in b2] + [(w, 3) for w in b3]
    if workload == "ranks-10x":
        return [(w, 2) for w in rng.sample(RANKS_POOL, 2)]
    raise ValueError(f"unknown workload {workload!r}")


def periodic_args(braid: str, strands: int) -> list[str]:
    return ["periodic", "--theory", "both", "--braid", braid, "--strands", str(strands)]


def ranks_args(command: str, braid: str, strands: int) -> list[str]:
    return [command, "--braid", braid, "--strands", str(strands)]


def corpus_args(cache_dir: str) -> list[str]:
    return [
        "corpus", "--max-strands", str(CORPUS_MAX_STRANDS),
        "--max-length", str(CORPUS_MAX_LENGTH), "--jobs", str(CORPUS_JOBS),
        "--cache-dir", cache_dir,
    ]


def round_ops(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one round, in the order they are run.
    (corpus-len3 rounds are built by the worker, which owns the cache
    directory.)"""
    words = draw_words(workload, seed)
    if workload == "periodic-len4":
        return [periodic_args(w, m) for w, m in words]
    if workload == "ranks-10x":
        return [ranks_args(c, w, m) for w, m in words for c in ("akh", "kh")]
    return []


def op_key(args: list[str]) -> str:
    """Reference key of an op: its arguments without the cache and job
    settings, which do not change the report."""
    kept, skip = [], False
    for a in args:
        if skip:
            skip = False
            continue
        if a in ("--cache-dir", "--jobs"):
            skip = True
            continue
        kept.append(a)
    return " | ".join(kept)


def comparable(report: dict) -> dict:
    """Fields a faithful optimisation keeps; timing and verdict details
    are left out."""
    out = {"ok": report.get("ok")}
    if "ranks" in report:
        out["ranks"] = report["ranks"]
        out["total_rank"] = report["total_rank"]
    if "verdicts" in report:
        out["verdicts"] = [[v["name"], v["passed"]] for v in report["verdicts"]]
    if "counts" in report:
        out["counts"] = report["counts"]
        out["words"] = [[w["braid"], w["strands"], w["ok"]] for w in report["words"]]
    return out
