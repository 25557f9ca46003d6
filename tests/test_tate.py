import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_tate.cube import hamming
from annulus_tate.f2algebra import FilteredComplexError, cancel_shift_level, degree_masks
from annulus_tate.khovanov import (
    Theory,
    build_complex,
    homology_of,
    total_rank,
)
from annulus_tate.links import BraidWord, close_braid, double_cover, parse_braid_word
from annulus_tate.tate import (
    PeriodicRun,
    _lift_table,
    _tau_sweep,
    block_tau,
    check_equivariance,
    hv_pages,
    tau_table,
    verify_cascade,
    verify_collapse,
    verify_diagonals,
    verify_e2_correspondence,
    verify_khtate_limit,
    verify_rank_inequality,
)

from conftest import (
    PROPERTY,
    WindowedTate,
    alphabet,
    arrows,
    check_d_squared,
    check_nonnegative,
    dense_homology_of,
    fold,
    hv_pages_of,
    labels_of,
    lift_reference,
    map_assembled_blocks,
    n_arrows,
    tau_reference,
    theory_rows,
    total_diagonal_ranks,
    vh_pages,
    watch_block_builds,
    without,
)

SIGMA1 = parse_braid_word("1", 2)


def hopf_cover():
    return build_complex(double_cover(SIGMA1))


def hopf_tate():
    """The Hopf cover complex and its chain involution."""
    gc = hopf_cover()
    return gc, tau_table(gc)


def test_tau_moves_single_circle_label():
    gc = hopf_cover()
    # vertex 10 has a single trivial circle; its positive labeling maps to
    # the positive labeling at vertex 01
    src = gc.index(0b01, 0b1)
    tgt = tau_reference(gc, src)
    assert gc.vertex_of[tgt] == 0b10
    assert labels_of(gc, tgt) == 0b1
    assert (gc.gi[src], gc.gj[src], gc.gk[src]) == (
        gc.gi[tgt], gc.gj[tgt], gc.gk[tgt])


def test_tau_fixes_symmetric_labelings():
    gc = hopf_cover()
    g = gc.index(0b00, 0b11)  # both strand circles labeled "+"
    assert tau_reference(gc, g) == g


def test_tau_is_involution_on_all_generators():
    gc = hopf_cover()
    tau = tau_table(gc)
    assert len(tau) == 12
    assert all(tau[tau[g]] == g for g in range(12))


def test_tau_table_matches_per_generator_transport():
    for text, m in [("1", 2), ("1 -2", 3), ("1 1 -1", 2)]:
        gc = build_complex(double_cover(parse_braid_word(text, m)))
        tau = tau_table(gc)
        assert tau == [tau_reference(gc, g) for g in range(gc.n_generators)]


@pytest.mark.parametrize(
    "braid,strands", [("", 2), ("1 -1", 2), ("1 1 -1 1", 2), ("1 -2 1", 3), ("2 -1", 3)]
)
def test_labeling_images_match_the_per_labeling_reference(braid, strands):
    # tau and the lifts both transport every labeling of a vertex by doubling
    run = PeriodicRun(parse_braid_word(braid, strands))
    gq, gcov = run.complex("quotient"), run.complex("cover")
    assert run.tau == [tau_reference(gcov, g) for g in range(gcov.n_generators)]
    lift, problems = _lift_table(run)
    assert not problems
    assert lift == {v: lift_reference(gq, gcov, v) for v in range(gq.n_generators)}


def test_tau_requires_cover_diagram():
    gc = build_complex(close_braid(SIGMA1))
    with pytest.raises(ValueError):
        tau_table(gc)
    # an even crossing count is not enough: the halves must repeat
    with pytest.raises(ValueError, match="doubled word"):
        tau_table(build_complex(close_braid(parse_braid_word("1 -1", 2))))


def test_equivariance_hopf_akh():
    gc = hopf_cover()
    verdict = check_equivariance(gc, tau_table(gc), [Theory.AKH])[Theory.AKH]
    assert verdict.name == "equivariance-akh"
    assert verdict.passed
    assert verdict.details == {"equivariant_generators": 6}
    tau = tau_table(gc)
    by_vertex = {}
    for g in range(gc.n_generators):
        if tau[g] == g:
            by_vertex[gc.vertex_of[g]] = by_vertex.get(gc.vertex_of[g], 0) + 1
    assert by_vertex == {0b00: 4, 0b11: 2}
    assert all(hamming(v) % 2 == 0 for v in by_vertex)


def test_equivariance_hopf_kh():
    gc = hopf_cover()
    verdict = check_equivariance(gc, tau_table(gc), [Theory.KH])[Theory.KH]
    assert verdict.name == "equivariance-kh" and verdict.passed


@pytest.mark.parametrize("theory", [Theory.AKH, Theory.KH])
def test_equivariance_catches_a_broken_differential_or_involution(theory):
    gc = hopf_cover()
    tau = tau_table(gc)

    def passed(tau):  # the verdict of the walk that gives both
        return check_equivariance(gc, tau, list(Theory))[theory].passed

    assert passed(tau)
    # one arrow of the theory removed from the row of a fixed generator, or
    # of the lower or the higher generator of a free pair: tau, still an
    # involution, no longer commutes with d, whichever end the check reads
    for end in (operator.eq, operator.lt, operator.gt):
        x, dropped = next(
            (g, y) for g, row in enumerate(gc.out) for y in row
            if end(g, tau[g])
            and (theory is Theory.KH or gc.gk[y] == gc.gk[g])
        )
        gc.out[x] = without(gc.out[x], dropped)
        assert not passed(tau)
        gc.out[x] += (dropped,)
    # two tau entries swapped
    a, b = [g for g in range(gc.n_generators) if tau[g] != g][:2]
    broken = list(tau)
    broken[a], broken[b] = tau[b], tau[a]
    assert not passed(broken)


@pytest.mark.parametrize("braid, strands", [("1 2 -1 -2", 3), ("1 -2 3", 4)])
def test_equivariance_verdicts_stay_separate(braid, strands):
    # a k-lowering arrow is a Kh arrow only: dropped from the row of a free
    # generator, it breaks equivariance-kh and leaves equivariance-akh
    run = PeriodicRun(parse_braid_word(braid, strands))
    gc, tau = run.complex("cover"), run.tau
    x, dropped = next(
        (g, y) for g, row in enumerate(gc.out) for y in row
        if tau[g] != g and gc.gk[y] < gc.gk[g]
    )
    gc.out[x] = without(gc.out[x], dropped)
    verdicts = check_equivariance(gc, tau, list(Theory))
    assert [v.name for v in verdicts.values()] == ["equivariance-akh", "equivariance-kh"]
    assert verdicts[Theory.AKH].passed and not verdicts[Theory.KH].passed


def test_equivariance_empty_cover():
    gc = build_complex(double_cover(parse_braid_word("", 2)))
    verdict = check_equivariance(gc, tau_table(gc), [Theory.AKH])[Theory.AKH]
    assert verdict.passed
    assert verdict.details["equivariant_generators"] == gc.n_generators


def test_folded_tate_is_a_complex_on_the_cover_generators():
    gc, tau = hopf_tate()
    assert gc.n_generators == 12

    def folded(C, members):
        fold(C, members, tau)
        return C, members

    blocks = map_assembled_blocks(gc, Theory.AKH, folded)
    assert sum(len(members) for _, members in blocks) == 12
    n_free = sum(1 for g, tg in enumerate(tau) if tg != g)
    total = sum(n_arrows(C) for C, _ in blocks)
    assert total == len(arrows(theory_rows(gc, Theory.AKH))) + 2 * n_free
    for C, _ in blocks:
        check_d_squared(C)


@pytest.mark.parametrize(
    "pages", [hv_pages_of, lambda *args: vh_pages(*args, {}), total_diagonal_ranks],
    ids=["hv_pages", "vh_pages", "total_diagonal_ranks"],
)
def test_tate_pages_build_each_block_after_the_last_is_gone(monkeypatch, pages):
    run = PeriodicRun(parse_braid_word("1 1", 2))
    args = (run.complex("cover"), run.tau, Theory.AKH)
    expected = pages(*args)
    live = watch_block_builds(monkeypatch)
    assert pages(*args) == expected
    assert len(live) >= 3 and live == [0] * len(live)


def test_build_tate_window_and_total_differential():
    gc = hopf_cover()
    oracle = WindowedTate(gc, tau_table(gc), Theory.AKH, window=7)
    assert oracle.columns == [3]
    for C, _ in oracle.blocks(
        lambda g, t: gc.gi[g] + t, lambda g, t: (gc.gj[g], gc.gk[g])
    ):
        check_d_squared(C)
        check_nonnegative(C)


def test_build_tate_rejects_small_window():
    gc = hopf_cover()
    assert gc.i_span() == 2
    # interior columns need a window of at least 2 * span + 3
    with pytest.raises(ValueError):
        WindowedTate(gc, tau_table(gc), Theory.AKH, window=6)


def test_default_window_has_three_interior_columns():
    gc = hopf_cover()
    oracle = WindowedTate(gc, tau_table(gc), Theory.AKH)
    assert oracle.window == 9
    assert oracle.columns == [3, 4, 5]


def test_hv_pages_hopf():
    hv = hv_pages_of(*hopf_tate(), Theory.AKH)
    assert hv.odd_pages_ok
    # page 1 is generated by the equivariant generators of one column
    assert total_rank(hv.pages.table(1)) == 6
    # the limit page carries the quotient ranks along (2j - k, k)
    by_jk = {}
    for (i, j, k), r in hv.pages.table(hv.pages.max_page).items():
        by_jk[(j, k)] = by_jk.get((j, k), 0) + r
    assert by_jk == {(4, 2): 1, (2, 0): 1, (0, -2): 1, (6, 0): 1}


def test_hv_e1_equals_e2():
    hv = hv_pages_of(*hopf_tate(), Theory.AKH)
    assert hv.pages.table(1) == hv.pages.table(2)


def test_vh_pages_interior_columns_carry_cover_homology():
    args = (*hopf_tate(), Theory.AKH)
    vh = vh_pages(*args, hv_pages_of(*args).cover)
    assert vh.e1_ok
    assert total_rank(vh.pages.table(1)) == 6
    totals = [total_rank(vh.pages.table(r)) for r in range(vh.pages.max_page + 1)]
    assert all(x >= y for x, y in zip(totals, totals[1:]))


def test_vh_pages_no_crossings():
    gc = build_complex(double_cover(parse_braid_word("", 1)))
    args = (gc, tau_table(gc), Theory.AKH)
    vh = vh_pages(*args, hv_pages_of(*args).cover)
    assert vh.e1_ok
    assert vh.pages.table(0) == vh.pages.table(1)


def test_interior_diagonals_independent_of_window():
    for text, m in [("1", 2), ("-1 2", 3)]:
        run = PeriodicRun(parse_braid_word(text, m))
        gc = run.complex("cover")
        folded = total_diagonal_ranks(gc, run.tau, Theory.AKH)
        span = gc.i_span()
        for window in (2 * span + 5, 2 * span + 7):
            assert WindowedTate(gc, run.tau, Theory.AKH, window).diagonals() == folded
        # the limit page of the row filtration, summed over i, agrees
        summed = {}
        for key, r in run.hv(Theory.AKH).pages.table(99).items():
            summed[key[1:]] = summed.get(key[1:], 0) + r
        assert summed == folded


@pytest.mark.parametrize(
    "braid,strands", [("1 1 1 1", 2), ("1 -1 1 -1", 2), ("1 2 -1 -2", 3)]
)
def test_folded_blocks_square_to_zero(braid, strands):
    run = PeriodicRun(parse_braid_word(braid, strands))
    tau = run.tau

    def check(C, members):
        fold(C, members, tau)
        check_d_squared(C)

    for theory in (Theory.AKH, Theory.KH):
        map_assembled_blocks(run.complex("cover"), theory, check)


def _block_state(C) -> list[tuple[int, list[int]]]:
    return [(x, list(C.targets(x))) for x in C.generators()]


@pytest.mark.parametrize("theory", [Theory.AKH, Theory.KH])
def test_tau_pair_sweep_leaves_what_the_folded_shift_0_sweep_leaves(theory):
    # page 0 of hv_pages cancels each free pair in place, with no theta
    # arrow stored; on the materialized Tate block the whole shift-0 sweep
    # must reach the same generators and arrows
    words = [
        BraidWord(m, letters)
        for m, max_letters in ((2, 3), (3, 2))
        for n in range(max_letters + 1)
        for letters in itertools.product(alphabet(m), repeat=n)
    ]
    for word in words:
        run = PeriodicRun(word)
        tau = run.tau

        def both_sweeps(C, members):
            folded = C.copy()
            fold(folded, members, tau)
            cancel_shift_level(folded, 0, degree_masks(folded))
            _tau_sweep(C, block_tau(C, members, tau))
            return _block_state(folded), _block_state(C)

        for folded, in_place in map_assembled_blocks(run.complex("cover"), theory, both_sweeps):
            assert in_place == folded, word


@pytest.mark.parametrize(
    "braid,strands", [("1 -1 1 1", 2), ("1 2 -1 2", 3), ("1 1 1 1", 2)]
)
def test_hv_cover_tables_are_the_cover_homology(braid, strands):
    # each Tate block's homology before page 0: the cover tables of a run
    run = PeriodicRun(parse_braid_word(braid, strands))
    full = run.complex("cover")
    for theory in (Theory.AKH, Theory.KH):
        cover = run.hv(theory).cover
        assert run.homology("cover", theory) is cover
        assert cover == homology_of(full, theory)
    # Kh = reduced Kh (x) V, from the reduced build the run no longer makes
    reduced = build_complex(run.cover_diagram, reduced=True)
    assert run.hv(Theory.KH).cover == homology_of(reduced, Theory.KH)


def test_a_tau_that_moves_k_is_refused_on_a_kh_block():
    # a j block of a pass of both theories holds several k; tau must keep k
    run = PeriodicRun(parse_braid_word("1 2 -1 -2", 3))
    gc, tau = run.complex("cover"), list(run.tau)
    x, y = next(
        (x, y) for x in range(gc.n_generators) if tau[x] != x
        for y in range(gc.n_generators) if gc.gj[y] == gc.gj[x] and gc.gk[y] != gc.gk[x]
    )
    tau[x] = y
    with pytest.raises(FilteredComplexError, match=r"^arrow leaves its grading block$"):
        hv_pages(gc, tau, list(Theory))


@pytest.mark.parametrize("braid, strands", [("1 2 -1 -2", 3), ("1 -2 3", 4)])
def test_k_lowering_arrows_keep_the_theories_apart(braid, strands):
    # a pass of both theories runs on the j blocks of the Kh rows, where AKh
    # may cancel only the arrows that keep k
    run = PeriodicRun(parse_braid_word(braid, strands))
    gc, tau = run.complex("cover"), run.tau
    assert len(arrows(gc.out)) > len(arrows(theory_rows(gc, Theory.AKH)))
    covers, shared = hv_pages(gc, tau, list(Theory))
    for theory in Theory:
        assert covers[theory] == dense_homology_of(gc, theory)
    # the AKh pass alone runs on the (j, k) blocks of the AKh rows
    alone, akh = hv_pages_of(gc, tau, Theory.AKH), shared[Theory.AKH]
    assert akh.pages.ranks == alone.pages.ranks
    assert akh.pages.d_nonzero == alone.pages.d_nonzero
    assert akh.d2_observed == alone.d2_observed


def test_e2_correspondence_sigma1():
    run = PeriodicRun(SIGMA1)
    verdict = verify_e2_correspondence(run)
    assert verdict.passed
    assert verdict.details["equivariant_generators"] == 6
    assert verdict.details["quotient_generators"] == 6
    assert verdict.details["d2_arrows_per_column"] == 2


def test_e2_specific_d2_arrow():
    # the type-E quotient arrow v+v- -> w- lifts to a length-2 differential
    run = PeriodicRun(SIGMA1)
    hv = run.hv(Theory.AKH)
    gq = run.complex("quotient")
    gcov = run.complex("cover")
    lift, problems = _lift_table(run)
    assert not problems
    src = lift[gq.index(0, 0b01)]  # v+ v- at the braid-like vertex
    tgt = lift[gq.index(1, 0b0)]  # w- at the turnback vertex
    assert gcov.vertex_of[src] == 0b00 and gcov.vertex_of[tgt] == 0b11
    assert (src, tgt) in hv.d2_observed


def test_e2_correspondence_empty_word():
    verdict = verify_e2_correspondence(PeriodicRun(parse_braid_word("", 2)))
    assert verdict.passed
    assert verdict.details["d2_arrows_per_column"] == 0


def test_collapse_akh_examples():
    assert verify_collapse(PeriodicRun(SIGMA1), Theory.AKH).passed
    assert verify_collapse(PeriodicRun(parse_braid_word("", 2)), Theory.AKH).passed


def test_collapse_kh_zero_positive_crossings():
    verdict = verify_collapse(PeriodicRun(parse_braid_word("-1 -2", 3)), Theory.KH)
    assert verdict.passed
    assert verdict.details["asserted"]


def test_unproven_family_is_recorded_not_asserted():
    run = PeriodicRun(BraidWord(2, (1, 1, -1, -1)))
    assert not run.proven_family
    for verdict in (
        verify_collapse(run, Theory.KH),
        verify_khtate_limit(run),
        verify_cascade(run),
    ):
        assert verdict.passed is None
        assert not verdict.failed
        assert verdict.details["observed_ok"] is True


def test_rank_inequality_examples():
    verdict = verify_rank_inequality(PeriodicRun(SIGMA1))
    assert verdict.passed
    assert verdict.details["checked"] == 4
    assert verify_rank_inequality(PeriodicRun(parse_braid_word("", 2))).passed
    assert verify_rank_inequality(PeriodicRun(parse_braid_word("-1", 2))).passed


def test_cascade_examples():
    run = PeriodicRun(parse_braid_word("-1", 2))
    verdict = verify_cascade(run)
    assert verdict.passed
    assert verdict.details["totals"] == [6, 4, 4, 2]
    assert verify_cascade(PeriodicRun(SIGMA1)).passed
    empty = verify_cascade(PeriodicRun(parse_braid_word("", 2)))
    assert empty.passed
    assert empty.details["totals"] == [4, 4, 4, 4]


def test_khtate_limit_sigma1():
    assert verify_khtate_limit(PeriodicRun(SIGMA1)).passed


def test_diagonals_sigma1():
    verdict = verify_diagonals(PeriodicRun(SIGMA1))
    assert verdict.passed


def test_hv_pages_cached_on_run():
    run = PeriodicRun(SIGMA1)
    assert run.hv(Theory.AKH) is run.hv(Theory.AKH)


# -- isotopy invariance on the Tate side: conjugating the quotient word
# conjugates its cover equivariantly


@st.composite
def _b2_b3_words(draw, min_letters, max_letters):
    m = draw(st.sampled_from([2, 3]))
    letters = st.lists(st.sampled_from(alphabet(m)), min_size=min_letters, max_size=max_letters)
    return BraidWord(m, tuple(draw(letters)))


@functools.cache
def _tate_pages(word: BraidWord) -> dict[Theory, list[dict]]:
    """Every page table of the cover's Tate spectral sequence, per theory."""
    gc = build_complex(double_cover(word))
    tau = tau_table(gc)
    tables = {}
    for theory, hv in hv_pages(gc, tau, list(Theory))[1].items():
        tables[theory] = [hv.pages.table(r) for r in range(hv.pages.max_page + 1)]
    return tables


@PROPERTY
@given(_b2_b3_words(2, 3), st.data())
def test_rotation_keeps_every_tate_page(word, data):
    letters = word.letters
    turn = data.draw(st.integers(1, len(letters) - 1))
    rotated = BraidWord(word.strands, letters[turn:] + letters[:turn])
    assert _tate_pages(rotated) == _tate_pages(word)


# fewer examples: each four-letter conjugate's cover takes about 0.15 s
@settings(PROPERTY, max_examples=20)
@given(_b2_b3_words(1, 2), st.data())
def test_conjugation_keeps_tate_page_3_and_the_limit(word, data):
    # pages 0-2 differ between w and g w g^-1 on every pair measured, so
    # E^2 is no conjugation invariant; from page 3 on the pages agree
    g = data.draw(st.sampled_from(alphabet(word.strands)))
    conjugate = _tate_pages(BraidWord(word.strands, (g, *word.letters, -g)))
    for theory, pages in _tate_pages(word).items():
        assert conjugate[theory][3] == pages[3]
        assert conjugate[theory][-1] == pages[-1]
