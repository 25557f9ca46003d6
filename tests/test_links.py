import itertools

import pytest

from annulus_tate.cube import resolve
from annulus_tate.khovanov import Theory, build_complex, homology, total_rank
from annulus_tate.links import (
    MAX_CROSSINGS,
    MAX_GENERATORS,
    AnnularDiagram,
    BraidError,
    BraidWord,
    Crossing,
    DiagramTooLarge,
    close_braid,
    double_cover,
    parse_braid_word,
)
from annulus_tate.tate import tau_table

from conftest import mirror


def test_parse_positive_word():
    w = parse_braid_word("1 1", 2)
    assert w.letters == (1, 1)
    assert (w.n_pos, w.n_neg) == (2, 0)


def test_parse_empty_word_is_annular_unknot():
    w = parse_braid_word("", 1)
    assert w.letters == ()
    assert len(w) == 0
    d = close_braid(w)
    assert d.n_crossings == 0 and d.strands == 1


def test_parse_mixed_signs():
    w = parse_braid_word("-1 2 -1", 3)
    assert (w.n_pos, w.n_neg) == (1, 2)


@pytest.mark.parametrize(
    "text,strands",
    [("2", 2), ("0", 2), ("x", 2), ("1", 1), ("1.5", 3)],
)
def test_parse_rejects_bad_input(text, strands):
    with pytest.raises(BraidError):
        parse_braid_word(text, strands)


def test_close_braid_crossing_data():
    d = close_braid(parse_braid_word("1 -2", 3))
    assert [(c.position, c.sign) for c in d.crossings] == [(0, 1), (1, -1)]
    assert (d.n_pos, d.n_neg) == (1, 1)


def test_close_braid_guard():
    with pytest.raises(DiagramTooLarge):
        close_braid(BraidWord(2, (1,) * 23))


def test_strand_guard():
    limit = 2 * MAX_CROSSINGS + MAX_GENERATORS.bit_length()
    assert BraidWord(limit).strands == limit
    with pytest.raises(BraidError, match=f"the {limit}-strand guard"):
        parse_braid_word("", limit + 1)
    # past the guard, even the crossings that touch the most strands leave
    # enough strands untouched that each vertex passes MAX_GENERATORS alone,
    # in the reduced complex too
    crossings = tuple(Crossing(2 * i, 1) for i in range(MAX_CROSSINGS))
    diagram = AnnularDiagram(limit + 1, crossings)
    for alpha in (0, (1 << MAX_CROSSINGS) - 1):
        assert 1 << resolve(diagram, alpha).n_circles >> 1 > MAX_GENERATORS


def test_double_cover_sigma1():
    cover = double_cover(parse_braid_word("1", 2))
    assert cover.n_crossings == 2
    assert cover.crossings[0] == cover.crossings[1] == Crossing(0, 1)


def test_double_cover_empty():
    cover = double_cover(parse_braid_word("", 1))
    assert cover == AnnularDiagram(1, ())
    # the half-turn of the crossingless cover fixes its one circle's labels
    assert tau_table(build_complex(cover)) == [0, 1]


def test_double_cover_mixed_word():
    cover = double_cover(parse_braid_word("1 -2", 3))
    assert [(c.position, c.sign) for c in cover.crossings] == [
        (0, 1), (1, -1), (0, 1), (1, -1)]
    assert cover.crossings[:2] == cover.crossings[2:]


def test_pairing_is_fixed_point_free_involution():
    # crossing l of the cover equals crossing (l + n) mod 2n, and that
    # level map moves every level and is its own inverse
    for length in (1, 2, 3):
        for letters in itertools.product([1, -1], repeat=length):
            cover = double_cover(BraidWord(2, letters))
            n = cover.n_crossings // 2
            assert 2 * n == cover.n_crossings and n == length
            for level in range(2 * n):
                image = (level + n) % (2 * n)
                assert cover.crossings[image] == cover.crossings[level]
                assert image != level
                assert (image + n) % (2 * n) == level


def test_mirror_flips_signs():
    w = parse_braid_word("1 1", 2)
    assert mirror(w).letters == (-1, -1)
    assert mirror(parse_braid_word("", 2)).letters == ()


def test_mirror_is_involution():
    for letters in itertools.product([1, -1, 2, -2], repeat=2):
        w = BraidWord(3, letters)
        assert mirror(mirror(w)) == w


def test_mirror_preserves_total_kh_rank():
    w = parse_braid_word("1 1 1", 2)
    table = homology(close_braid(w), Theory.KH)
    mirrored = homology(close_braid(mirror(w)), Theory.KH)
    assert total_rank(table) == total_rank(mirrored) == 6
    assert mirrored == {(-i, -j): r for (i, j), r in table.items()}
