"""Per-word computations for the acceptance suite, run in worker processes."""

from __future__ import annotations

import time

from annulus_tate.khovanov import Theory, build_complex, homology_of, total_rank
from annulus_tate.links import parse_braid_word
from annulus_tate.decat import state_sum
from annulus_tate.tate import (
    PeriodicRun,
    check_equivariance,
    verify_cascade,
    verify_collapse,
    verify_congruences,
    verify_diagonals,
    verify_e2_correspondence,
    verify_khtate_limit,
    verify_rank_inequality,
)

from conftest import (
    WindowedTate,
    arrows,
    at_t_minus_one,
    builder_matches_reference,
    dense_homology_of,
    reduced_matches_full,
    theory_rows,
    total_diagonal_ranks,
    vh_pages,
)

THEORIES = (Theory.AKH, Theory.KH)


def _grading_shifts_ok(gc, theory: Theory) -> bool:
    for src, tgt in arrows(theory_rows(gc, theory)):
        if gc.gi[tgt] - gc.gi[src] != 1 or gc.gj[tgt] != gc.gj[src]:
            return False
        dk = gc.gk[tgt] - gc.gk[src]
        if theory is Theory.AKH:
            if dk != 0:
                return False
        elif dk not in (0, -2):
            return False
    return True


def _tate_matches_oracle(run: PeriodicRun, theory: Theory, full: bool) -> bool:
    """Folded Tate readings against the literal windowed bicomplex: every
    row-filtered page, the induced d2 arrows and the strays; with ``full``
    also column-filtered pages 0-2 and the diagonal totals."""
    args = (run.complex("cover"), run.tau, theory)
    hv = run.hv(theory)
    oracle = WindowedTate(*args)
    pages, pairs, strays = oracle.hv(hv.pages.max_page)
    ok = (
        pages == [hv.pages.table(r) for r in range(hv.pages.max_page + 1)]
        and pairs == hv.d2_observed
        and strays == hv.d2_strays
    )
    if full:
        vh = vh_pages(*args, hv.cover)
        ok = (
            ok
            and vh.e1_ok
            and oracle.vh(2) == [vh.pages.table(r) for r in range(3)]
            and oracle.diagonals() == total_diagonal_ranks(*args)
        )
    return ok


def compute_word_result(args: tuple[str, int]) -> dict:
    """Every acceptance reading of one word, with ``timing``: the seconds
    spent per check group."""
    braid, strands = args
    word = parse_braid_word(braid, strands)
    timing = dict.fromkeys(
        ("verdicts", "dense oracle", "reference builder", "windowed Tate oracle",
         "gradings and Euler"), 0.0)
    started = time.perf_counter()

    def lap(group: str) -> None:
        nonlocal started
        now = time.perf_counter()
        timing[group] += now - started
        started = now

    run = PeriodicRun(word)

    quotient_akh = run.homology("quotient", Theory.AKH)
    cover_akh = run.homology("cover", Theory.AKH)
    quotient_kh = run.homology("quotient", Theory.KH)
    cover_kh = run.homology("cover", Theory.KH)

    e2 = verify_e2_correspondence(run)
    collapse_akh = verify_collapse(run, Theory.AKH)
    diagonals = verify_diagonals(run)
    inequality = verify_rank_inequality(run)
    collapse_kh = verify_collapse(run, Theory.KH)
    khtate = verify_khtate_limit(run)
    cascade = verify_cascade(run)
    congruences = verify_congruences(run)

    odd_pages_ok = run.hv(Theory.AKH).odd_pages_ok and run.hv(Theory.KH).odd_pages_ok

    eq_akh, eq_kh = check_equivariance(run.complex("cover"), run.tau, THEORIES).values()
    lap("verdicts")

    complexes = [run.complex(side) for side in ("quotient", "cover")]
    reduced = [build_complex(gc.diagram, reduced=True) for gc in complexes]
    oracle_ok = True
    for gc, side, reduced_gc in zip(complexes, ("quotient", "cover"), reduced):
        dense = {theory: dense_homology_of(gc, theory) for theory in THEORIES}
        # the run's tables (the cover's off its Tate blocks, E^1 of the Tate
        # spectral sequence), and Kh from the reduced complex, as ``kh`` reads it
        if any(
            homology_of(gc, theory) != dense[theory]
            or run.homology(side, theory) != dense[theory]
            for theory in THEORIES
        ) or homology_of(reduced_gc, Theory.KH) != dense[Theory.KH]:
            oracle_ok = False
    lap("dense oracle")

    builder_ok = all(builder_matches_reference(gc) for gc in complexes)
    for full, reduced_gc in zip(complexes, reduced):
        builder_ok = builder_ok and reduced_matches_full(reduced_gc, full)
    lap("reference builder")
    gradings_ok = all(
        _grading_shifts_ok(gc, theory) for gc in complexes for theory in THEORIES
    )

    euler_ok = all(
        at_t_minus_one(state_sum(diagram)) == at_t_minus_one(table)
        for diagram, table in (
            (run.quotient_diagram, quotient_akh),
            (run.cover_diagram, cover_akh),
        )
    )
    lap("gradings and Euler")

    tate_oracle_ok = all(
        _tate_matches_oracle(run, theory, full=len(word) <= 3) for theory in THEORIES
    )
    lap("windowed Tate oracle")

    return {
        "braid": braid,
        "strands": strands,
        "proven_family": run.proven_family,
        "quotient_akh": quotient_akh,
        "cover_akh": cover_akh,
        "quotient_kh_total": total_rank(quotient_kh),
        "cover_kh_total": total_rank(cover_kh),
        "e2_ok": bool(e2.passed),
        "collapse_akh_ok": bool(collapse_akh.passed),
        "odd_pages_ok": odd_pages_ok,
        "diagonals_ok": bool(diagonals.passed),
        "inequality_ok": bool(inequality.passed),
        "collapse_kh": collapse_kh.passed,
        "collapse_kh_observed": collapse_kh.details["observed_ok"],
        "khtate": khtate.passed,
        "khtate_observed": khtate.details["observed_ok"],
        "cascade": cascade.passed,
        "cascade_observed": cascade.details["observed_ok"],
        "cascade_totals": cascade.details["totals"],
        "congruences_ok": congruences.passed,
        "equivariance_ok": eq_akh.passed and eq_kh.passed,
        "oracle_ok": oracle_ok,
        "builder_ok": builder_ok,
        "gradings_ok": gradings_ok,
        "euler_ok": euler_ok,
        "tate_oracle_ok": tate_oracle_ok,
        "timing": timing,
    }
