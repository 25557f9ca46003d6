"""Acceptance suite: one test per criterion, each printing a verdict line.

The shared corpus (B2 words up to 4 letters, B3 words up to 3 letters) is
computed once in a session fixture; criterion 2 runs its own freshly timed
pass over the homology comparisons it covers.
"""

import concurrent.futures
import json
import time

import pytest
from click.testing import CliRunner

from annulus_tate import cli
from annulus_tate.khovanov import Theory, homology, limit_processes
from annulus_tate.links import close_braid, double_cover

from acceptance_worker import compute_word_result
from conftest import corpus_words


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="session")
def corpus_results():
    words = [(w.as_text(), w.strands) for w in corpus_words()]
    # the two workers share the CPUs already, so each runs the engine inline
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=2, initializer=limit_processes, initargs=(1,)
    ) as pool:
        results = list(pool.map(compute_word_result, words))
    totals: dict[str, float] = {}
    for r in results:
        for group, seconds in r["timing"].items():
            totals[group] = totals.get(group, 0.0) + seconds
    print("ACCEPTANCE timing: " + ", ".join(f"{g} {s:.1f} s" for g, s in totals.items()))
    return results


def test_criterion_1_golden_chart():
    runner = CliRunner()
    started = time.perf_counter()
    quotient = runner.invoke(
        cli.main, ["akh", "--braid", "1", "--strands", "2"], catch_exceptions=False
    )
    cover = runner.invoke(
        cli.main, ["akh", "--braid", "1 1", "--strands", "2"], catch_exceptions=False
    )
    elapsed = time.perf_counter() - started

    def jk_totals(output):
        table = {}
        for key, rank in json.loads(output)["ranks"].items():
            _, j, k = map(int, key.split(","))
            table[(j, k)] = table.get((j, k), 0) + rank
        return table

    ok = (
        quotient.exit_code == 0
        and cover.exit_code == 0
        and jk_totals(quotient.output)
        == {(3, 2): 1, (1, 0): 1, (-1, -2): 1, (3, 0): 1}
        and jk_totals(cover.output)
        == {(4, 2): 1, (2, 0): 1, (0, -2): 1, (6, 0): 1, (4, 0): 2}
        and elapsed < 1.0
    )
    _report("1 golden-chart", ok)


def test_criterion_2_rank_inequality_corpus():
    started = time.perf_counter()
    ok = True
    for word in corpus_words():
        quotient = homology(close_braid(word), Theory.AKH)
        cover_diagram, _ = double_cover(word)
        cover = homology(cover_diagram, Theory.AKH)
        by_jk: dict = {}
        for (i, j, k), r in cover.items():
            by_jk[(j, k)] = by_jk.get((j, k), 0) + r
        quot_jk: dict = {}
        for (i, j, k), r in quotient.items():
            quot_jk[(j, k)] = quot_jk.get((j, k), 0) + r
        for (j, k), r in quot_jk.items():
            if r > by_jk.get((2 * j - k, k), 0):
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    print(f"corpus rank-inequality pass took {elapsed:.1f}s")
    _report("2 rank-inequality-corpus", ok)


def test_criterion_3_e2_correspondence(corpus_results):
    ok = all(r["e2_ok"] for r in corpus_results)
    _report("3 e2-and-d2-correspondence", ok)


def test_criterion_4_higher_differentials_vanish(corpus_results):
    ok = all(r["collapse_akh_ok"] and r["odd_pages_ok"] for r in corpus_results)
    _report("4 collapse-at-E3", ok)


def test_criterion_5_diagonal_reading(corpus_results):
    ok = all(r["diagonals_ok"] for r in corpus_results)
    _report("5 total-homology-diagonals", ok)


def test_criterion_6_congruences(corpus_results):
    ok = all(r["congruences_ok"] for r in corpus_results)
    # worked values for the one-crossing quotient word are pinned in
    # tests/test_decat.py::test_congruences_worked_example
    _report("6 decategorified-congruences", ok)


def test_criterion_7_khtate_proven_family(corpus_results):
    ok = True
    for r in corpus_results:
        if not r["proven_family"]:
            continue
        if r["khtate"] is not True or r["cascade"] is not True:
            ok = False
        if r["collapse_kh"] is not True:
            ok = False
        totals = r["cascade_totals"]
        if not (totals[0] >= totals[1] >= totals[2] >= totals[3]):
            ok = False
    _report("7 khtate-proven-family", ok)


def test_criterion_8_oracle_equivalence(corpus_results):
    ok = all(r["oracle_ok"] for r in corpus_results)
    _report("8 dense-oracle-equivalence", ok)


def test_criterion_9_property_suite(corpus_results):
    ok = all(
        r["gradings_ok"]
        and r["equivariance_ok"]
        and r["euler_ok"]
        and r["tate_oracle_ok"]
        for r in corpus_results
    )
    _report("9 property-suite", ok)


def test_builder_matches_reference(corpus_results):
    # quotient and cover complexes of both theories against the per-label
    # reference builder and the path-counting d^2 check
    ok = all(r["builder_ok"] for r in corpus_results)
    _report("builder-reference", ok)


def test_unproven_cases_recorded(corpus_results):
    # outside the proven family the Kh-side Tate outcomes are recorded, not
    # asserted; report how the conjecture fared on this corpus
    observed = [r for r in corpus_results if not r["proven_family"]]
    supporting = sum(
        1
        for r in observed
        if r["khtate_observed"] and r["cascade_observed"] and r["collapse_kh_observed"]
    )
    print(f"conjecture data: {supporting}/{len(observed)} unproven words supporting")
    assert all(r["khtate"] is None for r in observed)
