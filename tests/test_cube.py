import random

import pytest
from hypothesis import given, strategies as st

from annulus_tate import cube
from annulus_tate.cube import (
    PortLinks,
    classify_resolutions,
    format_bits,
    hamming,
    parse_bits,
    resolve,
    swap_halves,
    vertex_gradings,
)
from annulus_tate.khovanov import _cube_edges, build_complex
from annulus_tate.links import (
    BraidWord,
    DiagramTooLarge,
    close_braid,
    double_cover,
    parse_braid_word,
)

from conftest import (
    PROPERTY,
    alphabet,
    annular_class,
    classify_edge,
    reference_classify,
    reference_resolve,
)

HOPF = close_braid(parse_braid_word("1 1", 2))
STAB = close_braid(parse_braid_word("1", 2))
UNKNOT = close_braid(parse_braid_word("", 1))


def test_bit_helpers():
    assert hamming(0b1011) == 3
    assert format_bits(0b01, 2) == "10"
    assert parse_bits("10") == (0b01, 2)
    assert swap_halves(0b0111, 4) == 0b1101
    with pytest.raises(ValueError):
        swap_halves(1, 3)


def test_hopf_all_braidlike_resolution():
    res = resolve(HOPF, 0b00)
    assert res.n_circles == 2
    assert [c.seam_count for c in res.circles] == [1, 1]
    assert [c.trivial for c in res.circles] == [False, False]


def test_hopf_all_turnback_resolution():
    res = resolve(HOPF, 0b11)
    assert res.n_circles == 2
    assert sorted(c.seam_count for c in res.circles) == [0, 2]
    assert [c.trivial for c in res.circles] == [True, True]


def test_unknot_resolution():
    res = resolve(UNKNOT, 0)
    assert res.n_circles == 1
    assert res.circles[0].seam_count == 1
    assert not res.circles[0].trivial


def test_resolve_width_guard():
    with pytest.raises(ValueError):
        resolve(HOPF, 0b100)


def test_resolve_is_deterministic():
    a = resolve(HOPF, 0b10)
    b = resolve(HOPF, 0b10)
    assert [c.ports for c in a.circles] == [c.ports for c in b.circles]


def test_hopf_edge_types():
    def kind_and_class(diagram, alpha, alpha_prime):
        edge = classify_edge(diagram, alpha, alpha_prime)
        source, target = resolve(diagram, alpha), resolve(diagram, alpha_prime)
        return edge.kind, annular_class(source, target, edge)

    assert kind_and_class(HOPF, 0b00, 0b01) == ("merge", "E")  # set crossing 0
    assert kind_and_class(HOPF, 0b01, 0b11) == ("split", "C")
    assert kind_and_class(STAB, 0, 1) == ("merge", "E")


def test_classify_rejects_non_increment():
    with pytest.raises(ValueError):
        classify_edge(HOPF, 0b01, 0b10)
    with pytest.raises(ValueError):
        classify_edge(HOPF, 0b11, 0b01)


def test_edge_correspondence_keeps_port_sets():
    d = close_braid(parse_braid_word("1 2", 3))
    src, tgt = resolve(d, 0b00), resolve(d, 0b10)
    edge = classify_resolutions(src, tgt, PortLinks(d).crossing_ports[1])
    for si, ti in edge.correspondence:
        assert src.circles[si].ports == tgt.circles[ti].ports


def test_gradings_examples():
    # annular Hopf at the braid-like vertex, both circles labeled "+"
    i, js, ks = vertex_gradings(resolve(HOPF, 0b00), n_pos=2, n_neg=0)
    assert (i, js[0b11], ks[0b11]) == (0, 4, 2)
    # annular unknot, labels "-" then "+"
    assert vertex_gradings(resolve(UNKNOT, 0), 0, 0) == (0, [-1, 1], [-1, 1])
    # stabilized unknot, mixed labels
    i, js, ks = vertex_gradings(resolve(STAB, 0), 1, 0)
    assert (i, js[0b01], ks[0b01]) == (i, js[0b10], ks[0b10]) == (0, 1, 0)


def test_enumerate_generators_counts_and_parity():
    res = resolve(HOPF, 0b00)
    _, js, ks = vertex_gradings(res, 2, 0)
    assert len(js) == len(ks) == 4
    trivial = sum(1 for c in res.circles if c.trivial)
    parity = (trivial + hamming(res.vertex) + 2) % 2
    assert all((j - k) % 2 == parity for j, k in zip(js, ks))


def test_seam_counts_sum_to_strand_count():
    rnd = random.Random(7)
    for _ in range(20):
        m = rnd.choice([2, 3])
        length = rnd.randrange(0, 4)
        letters = tuple(
            rnd.choice([g for a in range(1, m) for g in (a, -a)]) for _ in range(length)
        )
        d = close_braid(BraidWord(m, letters))
        alpha = rnd.randrange(1 << length)
        res = resolve(d, alpha)
        assert sum(c.seam_count for c in res.circles) == m


def test_all_braidlike_resolution_has_strand_circles():
    for text, m in [("1 1", 2), ("-1", 2), ("1 -2 1", 3), ("-1 -2", 3)]:
        d = close_braid(parse_braid_word(text, m))
        alpha = sum(1 << i for i, c in enumerate(d.crossings) if c.sign < 0)
        res = resolve(d, alpha)
        assert res.n_circles == m
        assert all(c.seam_count == 1 for c in res.circles)


def test_merge_split_counts_are_path_independent():
    for text, m in [("1 1", 2), ("1 -2 1", 3), ("-1 -1 -1", 2)]:
        d = close_braid(parse_braid_word(text, m))
        c = d.n_crossings

        def walk(order):
            merges = splits = 0
            alpha = 0
            for b in order:
                edge = classify_edge(d, alpha, alpha | (1 << b))
                if edge.kind == "merge":
                    merges += 1
                else:
                    splits += 1
                alpha |= 1 << b
            return merges, splits

        assert walk(range(c)) == walk(reversed(range(c)))


def test_circle_overflow_guard():
    diagram = close_braid(BraidWord(26, ()))
    assert resolve(diagram, 0).n_circles == 26
    with pytest.raises(DiagramTooLarge, match="1 of its 1 cube vertices already have 67,108,864"):
        build_complex(diagram)


# -- the traced resolutions and crossing-local edge types against the
# union-find and port-set references


def _build_recording_edges(diagram, reduced: bool):
    """``build_complex(diagram, reduced)`` and the EdgeType it got for
    each cube edge, in the order it classified them."""
    edges = []
    classify = cube.classify_resolutions

    def recording(*args):
        edges.append(classify(*args))
        return edges[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cube, "classify_resolutions", recording)
        gc = build_complex(diagram, reduced=reduced)
    return gc, edges


def _assert_matches_the_references(word: BraidWord) -> None:
    """On the closure of ``word`` and on its double cover, the full and the
    reduced build resolve every vertex and classify every edge as the
    references do."""
    for diagram in (close_braid(word), double_cover(word)):
        c = diagram.n_crossings
        resolutions = [reference_resolve(diagram, alpha) for alpha in range(1 << c)]
        edges = [
            reference_classify(resolutions[alpha], resolutions[alpha2])
            for alpha, alpha2, _ in _cube_edges(c)
        ]
        for reduced in (False, True):
            gc, built = _build_recording_edges(diagram, reduced)
            assert gc.resolutions == resolutions, (word, reduced)
            assert built == edges, (word, reduced)


@PROPERTY
@given(
    st.sampled_from([2, 3, 4]).flatmap(
        lambda m: st.lists(st.sampled_from(alphabet(m)), max_size=4).map(
            lambda letters: BraidWord(m, tuple(letters))
        )
    )
)
def test_resolutions_and_edges_match_the_references(word):
    _assert_matches_the_references(word)


# the seed-0 words of the periodic-len4 and ranks-10x benchmark workloads;
# a ranks-10x closure is the cover of a five-letter word
@pytest.mark.parametrize("braid, strands", [
    ("1 1 1 1", 2), ("1 -1 1 -1", 2), ("1 2 -1 -2", 3),
    ("1 1 1 1 1", 2), ("1 -1 1 -1 1", 2),
])
def test_benchmark_words_match_the_references(braid, strands):
    _assert_matches_the_references(parse_braid_word(braid, strands))


def test_resolve_takes_the_links_of_its_own_diagram():
    links = PortLinks(HOPF)
    assert resolve(HOPF, 0b01, links) == resolve(HOPF, 0b01) == reference_resolve(HOPF, 0b01)
    with pytest.raises(ValueError, match="another diagram"):
        resolve(STAB, 0, links)
