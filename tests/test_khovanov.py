import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from annulus_tate import cube, khovanov
from annulus_tate.cube import resolve
from annulus_tate.f2algebra import FilteredComplex, FilteredComplexError
from annulus_tate.khovanov import (
    Theory,
    _map_blocks,
    build_complex,
    homologies_of,
    homology,
    homology_of,
    rows_of,
    total_rank,
)
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
    arrows,
    builder_matches_reference,
    circle_ports,
    corpus_words,
    counted_d_squared_vanishes,
    cube_edges,
    dense_homology_of,
    k_filtration_pages,
    map_assembled_blocks,
    mirror,
    n_arrows,
    reduced_matches_full,
    reference_complex,
    view,
    watch_block_builds,
    watch_rank_passes,
    without,
)

STAB = close_braid(parse_braid_word("1", 2))
HOPF = close_braid(parse_braid_word("1 1", 2))
UNKNOT = close_braid(parse_braid_word("", 1))


def test_stabilized_unknot_complex_shape():
    gc = build_complex(STAB)
    assert gc.n_generators == 6
    assert len(arrows(view(gc, Theory.AKH))) == 2
    assert gc.n_arrows() == 3


def test_hopf_complex_shape():
    gc = build_complex(HOPF)
    assert gc.n_generators == 12


def test_crossing_guard():
    from annulus_tate.links import AnnularDiagram, Crossing

    with pytest.raises(DiagramTooLarge):
        AnnularDiagram(strands=2, crossings=tuple(Crossing(0, 1) for _ in range(23)))


def test_akh_arrows_preserve_j_and_k():
    for d in (STAB, HOPF, close_braid(parse_braid_word("-1 2", 3))):
        gc = build_complex(d)
        for src, tgt in arrows(view(gc, Theory.AKH)):
            assert gc.gi[tgt] - gc.gi[src] == 1
            assert gc.gj[tgt] == gc.gj[src]
            assert gc.gk[tgt] == gc.gk[src]


def test_kh_arrows_shift_k_by_zero_or_two():
    for d in (STAB, HOPF, close_braid(parse_braid_word("-1 2", 3))):
        gc = build_complex(d)
        for src, tgt in arrows(gc.out):
            assert gc.gi[tgt] - gc.gi[src] == 1
            assert gc.gj[tgt] == gc.gj[src]
            assert gc.gk[tgt] - gc.gk[src] in (0, -2)


def test_kh_arrow_set_contains_akh_arrows():
    # the AKh arrows of the reference builder, with its six annular edge
    # maps, are the Kh arrows that keep k
    for d in (STAB, HOPF, close_braid(parse_braid_word("1 -2 1", 3))):
        kh = build_complex(d)
        akh_arrows = set(arrows(reference_complex(d, Theory.AKH)[0]))
        kh_arrows = set(arrows(kh.out))
        assert akh_arrows <= kh_arrows
        for src, tgt in kh_arrows - akh_arrows:
            assert kh.gk[tgt] - kh.gk[src] == -2


def test_stabilized_unknot_akh_table():
    assert homology(STAB, Theory.AKH) == {
        (0, 3, 2): 1,
        (0, 1, 0): 1,
        (0, -1, -2): 1,
        (1, 3, 0): 1,
    }


def test_hopf_akh_table():
    assert homology(HOPF, Theory.AKH) == {
        (0, 4, 2): 1,
        (0, 2, 0): 1,
        (0, 0, -2): 1,
        (1, 4, 0): 1,
        (2, 6, 0): 1,
        (2, 4, 0): 1,
    }


def test_unknot_akh_table():
    assert homology(UNKNOT, Theory.AKH) == {(0, 1, 1): 1, (0, -1, -1): 1}


def test_trefoil_kh_over_f2():
    table = homology(close_braid(parse_braid_word("1 1 1", 2)), Theory.KH)
    assert total_rank(table) == 6
    assert table == {
        (0, 1): 1,
        (0, 3): 1,
        (2, 5): 1,
        (2, 7): 1,
        (3, 7): 1,
        (3, 9): 1,
    }


def test_conjugate_words_same_akh():
    a = homology(close_braid(parse_braid_word("1 2", 3)), Theory.AKH)
    b = homology(close_braid(parse_braid_word("2 1", 3)), Theory.AKH)
    assert a == b


def test_akh_dominates_kh_per_ij():
    for text, m in [("1", 2), ("1 1", 2), ("-1 2", 3), ("1 1 1", 2)]:
        d = close_braid(parse_braid_word(text, m))
        akh = homology(d, Theory.AKH)
        kh = homology(d, Theory.KH)
        summed = {}
        for (i, j, k), r in akh.items():
            summed[(i, j)] = summed.get((i, j), 0) + r
        for key, r in kh.items():
            assert summed.get(key, 0) >= r


def test_k_filtration_stabilized_unknot():
    pages = k_filtration_pages(STAB)
    akh = homology(STAB, Theory.AKH)
    kh = homology(STAB, Theory.KH)
    assert total_rank(pages.table(1)) == total_rank(akh) == 4
    assert total_rank(pages.table(pages.max_page)) == total_rank(kh) == 2
    # page 1 carries the AKh table, re-keyed (-k, i, j)
    page1 = {key: r for key, r in pages.table(1).items() if r}
    assert page1 == {(-k, i, j): r for (i, j, k), r in akh.items()}
    # the limit page carries the Kh table after forgetting k
    final = {}
    for (mk, i, j), r in pages.table(pages.max_page).items():
        final[(i, j)] = final.get((i, j), 0) + r
    assert final == kh


def test_k_filtration_no_crossings_collapses_immediately():
    pages = k_filtration_pages(UNKNOT)
    assert pages.table(1) == pages.table(pages.max_page)
    assert not any(pages.d_nonzero.values())


def test_k_filtration_totals_monotone():
    pages = k_filtration_pages(HOPF)
    totals = [total_rank(pages.table(r)) for r in range(pages.max_page + 1)]
    assert all(x >= y for x, y in zip(totals, totals[1:]))
    assert totals[1] == 6  # AKh total


# seed-0 words of the benchmark: the covers of the periodic-len4 words and
# the 10-crossing ranks-10x closures
REFERENCE_WORDS = [
    ("1 1 1 1", 2, True), ("1 -1 1 -1", 2, True), ("1 2 -1 -2", 3, True),
    ("1 1 1 1 1 1 1 1 1 1", 2, False), ("1 -1 1 -1 1 1 -1 1 -1 1", 2, False),
]


@pytest.mark.parametrize(
    "braid,strands,cover", REFERENCE_WORDS,
    ids=[f"{'cover of ' if c else ''}{w}/{m}" for w, m, c in REFERENCE_WORDS],
)
def test_builder_matches_reference(braid, strands, cover):
    word = parse_braid_word(braid, strands)
    diagram = double_cover(word) if cover else close_braid(word)
    # the Kh complex and its AKh rows
    assert builder_matches_reference(build_complex(diagram))


def test_d_squared_check_catches_a_missing_arrow():
    gc = build_complex(close_braid(parse_braid_word("1 1 1", 2)))
    # drop an arrow x -> y whose target has arrows of its own
    x, y = next((x, y) for x, y in arrows(gc.out) if gc.out[y])
    gc.out[x] = without(gc.out[x], y)
    assert not counted_d_squared_vanishes(gc.out)
    with pytest.raises(FilteredComplexError, match=f"at generator {x}"):
        gc.check_d_squared()


def test_blocks_reject_an_arrow_between_blocks(monkeypatch):
    monkeypatch.setattr(khovanov, "cpu_count", lambda: 1)
    gc = build_complex(HOPF)
    x = 0
    y = next(g for g in range(gc.n_generators) if gc.gj[g] != gc.gj[x])
    gc.out[x] += (y,)
    # refused by the rank pass and by block assembly alike
    with pytest.raises(FilteredComplexError, match="leaves its grading block"):
        homology_of(gc, Theory.KH)
    with pytest.raises(FilteredComplexError, match="leaves its grading block"):
        map_assembled_blocks(gc, Theory.KH, lambda C, members: members)


def test_blocks_partition_the_generators():
    gc = build_complex(close_braid(parse_braid_word("1 -2 1", 3)))
    rows = view(gc, Theory.AKH)
    blocks = map_assembled_blocks(gc, Theory.AKH, lambda C, members: (C, members))
    members = sorted(g for _, block in blocks for g in block)
    assert members == list(range(gc.n_generators))
    assert sum(n_arrows(C) for C, _ in blocks) == len(arrows(rows))
    for C, block in blocks:
        assert C.n_generators() == len(block)
        for x, g in enumerate(block):
            assert C.grading_key(x) == (gc.gi[g], gc.gj[g], gc.gk[g])
            assert sorted(block[t] for t in C.targets(x)) == sorted(rows[g])


@pytest.mark.parametrize("theory", [Theory.AKH, Theory.KH])
def test_homology_of_builds_each_block_after_the_last_is_gone(monkeypatch, theory):
    # one rank pass per block, each begun once the last has returned, with
    # no engine complex alive and none assembled
    gc = build_complex(close_braid(parse_braid_word("1 -2 1 -2", 3)))
    expected = homology_of(gc, theory)
    built = watch_block_builds(monkeypatch)
    live = watch_rank_passes(monkeypatch)
    assert homology_of(gc, theory) == expected
    n_blocks = len(set(khovanov._block_keys(theory, gc.gj, gc.gk)))
    assert len(live) == n_blocks >= 3 and live == [0] * n_blocks
    assert built == []


@pytest.mark.parametrize("theories", [
    (Theory.AKH,), (Theory.KH,), (Theory.AKH, Theory.KH),
], ids=["akh", "kh", "both"])
def test_homologies_of_assembles_and_cancels_nothing(monkeypatch, theories):
    gc = build_complex(close_braid(parse_braid_word("1 -2 1 -2", 3)))
    expected = homologies_of(gc, theories)
    calls = []

    def refuse(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return called

    monkeypatch.setattr(FilteredComplex, "from_rows", classmethod(refuse("from_rows")))
    monkeypatch.setattr(FilteredComplex, "cancel_arrow", refuse("cancel_arrow"))
    assert homologies_of(gc, theories) == expected
    assert calls == []


def test_k_filtration_pages_builds_each_block_after_the_last_is_gone(monkeypatch):
    expected = k_filtration_pages(HOPF).ranks
    live = watch_block_builds(monkeypatch)
    assert k_filtration_pages(HOPF).ranks == expected
    assert len(live) >= 3 and live == [0] * len(live)


@pytest.mark.parametrize("theory, reduced", [
    (Theory.AKH, False), (Theory.KH, False), (Theory.KH, True),
])
def test_edge_maps_are_computed_once_per_distinct_edge(monkeypatch, theory, reduced):
    # a build and the reading of its ranks: AKh reads the full complex
    # and computes no edge map of its own
    calls = Counter()

    def counting(name):
        fn = getattr(khovanov, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_edge_rule", "_transport_table"):
        monkeypatch.setattr(khovanov, name, counting(name))
    gc = build_complex(close_braid(parse_braid_word("1 1 -1 1 1", 2)), reduced=reduced)
    homology_of(gc, theory)
    res, ports = gc.resolutions, cube.PortLinks(gc.diagram).crossing_ports
    edges = [
        cube.classify_resolutions(res[alpha], res[alpha2], ports[b])
        for alpha, alpha2, b in cube_edges(gc.diagram.n_crossings)
    ]
    distinct = len(set(edges))
    assert distinct < len(edges) == 80
    assert calls == {"_edge_rule": distinct, "_transport_table": distinct}


def _resolution(seams: tuple[int, ...]) -> cube.Resolution:
    """Hand-built: the changing circles on ports 0-3, the four ports of the
    level-0 crossing of a 2-strand diagram (one circle, or the halves
    {0, 1} and {2, 3}), with the given seam counts, and one trivial circle
    on ports 4, 5 that both ends of an edge share."""
    halves = [range(4)] if len(seams) == 1 else [range(2), range(2, 4)]
    circle_of = [0] * 6
    for c, ports in enumerate([*halves, (4, 5)]):
        for port in ports:
            circle_of[port] = c
    circles = [cube.Circle(p[0], s) for p, s in zip(halves, seams)]
    circles.append(cube.Circle(4, 0))
    return cube.Resolution(vertex=0, circles=tuple(circles), circle_of=bytes(circle_of))


@pytest.mark.parametrize("source, target", [
    ((1, 1), (0,)),  # the parities of a merge vv -> w, but 2 seams become 0
    ((0, 2), (0,)),  # the parities of a merge ww -> w
    ((2,), (1, 0)),  # no merge or split has these parities
    ((1,), (1, 2)),
], ids=["merge-1+1-to-0", "merge-0+2-to-0", "split-2-to-1+0", "split-1-to-1+2"])
def test_edge_that_does_not_conserve_seam_count_is_refused(source, target):
    ports = cube.PortLinks(HOPF).crossing_ports[0]
    assert set(ports) == {0, 1, 2, 3}
    with pytest.raises(cube.UnclassifiableEdge, match="seam counts"):
        cube.classify_resolutions(_resolution(source), _resolution(target), ports)
    # the same circles with conserved seam counts are a merge or a split
    total = sum(source)
    fixed = (total,) if len(target) == 1 else (target[0], total - target[0])
    edge = cube.classify_resolutions(_resolution(source), _resolution(fixed), ports)
    assert (edge.kind, edge.correspondence) == (
        "merge" if len(source) == 2 else "split", ((len(source), len(fixed)),))


def _watch_cube(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the vertices ``cube.resolve`` and ``cube.vertex_gradings`` are
    called on, in call order."""
    resolved, graded = [], []
    resolve, gradings = cube.resolve, cube.vertex_gradings

    def counting_resolve(diagram, alpha, *links):
        resolved.append(alpha)
        return resolve(diagram, alpha, *links)

    def counting_gradings(res, n_pos, n_neg):
        graded.append(res.vertex)
        return gradings(res, n_pos, n_neg)

    monkeypatch.setattr(cube, "resolve", counting_resolve)
    monkeypatch.setattr(cube, "vertex_gradings", counting_gradings)
    return resolved, graded


def test_engine_memory_guard(monkeypatch):
    # the Hopf link's vertices have 4, 2, 2 and 4 generators: a cap of 5
    # refuses it at vertex 1, whose count reaches 6, before expanding that
    # vertex or resolving the rest of the cube
    monkeypatch.setattr(khovanov, "MAX_GENERATORS", 5)
    resolved, graded = _watch_cube(monkeypatch)
    with pytest.raises(
        DiagramTooLarge, match="5-generator limit: 2 of its 4 cube vertices already have 6$"
    ):
        build_complex(HOPF)
    assert resolved == [0, 1]
    assert graded == [0]


# Traced bytes per generator from before the build of the 10-crossing
# closure below through its AKh table, in one process.  It measures 185-187
# bytes with tuple rows, typed gradings and one int object per index; one
# list per row and fresh ints per block layout took 323.  The bound is the
# measurement plus 23% headroom.
TRACED_BYTES_PER_GENERATOR = 230


def test_build_and_akh_table_stay_under_the_traced_byte_bound(monkeypatch):
    monkeypatch.setattr(khovanov, "cpu_count", lambda: 1)  # tracemalloc sees one process
    diagram = close_braid(parse_braid_word("1 -1 1 -1 1 1 -1 1 -1 1", 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gc = build_complex(diagram)
        homology_of(gc, Theory.AKH)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert gc.n_generators == 59_052
    assert peak / gc.n_generators < TRACED_BYTES_PER_GENERATOR, peak / gc.n_generators


# -- Kh from the reduced complex


def _kh_from_reduced_ranks(h: dict[tuple, int]) -> dict[tuple, int]:
    """Kh^{i,j} = h^{i,j} + h^{i,j-2}, written out key by key."""
    table: dict[tuple, int] = {}
    for (i, j), r in h.items():
        for key in ((i, j), (i, j + 2)):
            table[key] = table.get(key, 0) + r
    return table


def _full_and_reduced(diagram):
    return build_complex(diagram), build_complex(diagram, reduced=True)


def test_unknot_kh_from_the_reduced_complex():
    full, reduced = _full_and_reduced(UNKNOT)
    assert (full.n_generators, reduced.n_generators, reduced.n_arrows()) == (2, 1, 0)
    assert homology(UNKNOT, Theory.KH) == {(0, -1): 1, (0, 1): 1}


def test_reduced_kh_matches_full_and_dense_on_small_words():
    words = [w for w in corpus_words() if len(w) <= 3]
    assert len(words) == 15 + 85
    for word in words:
        full, reduced = _full_and_reduced(close_braid(word))
        assert reduced.n_generators * 2 == full.n_generators
        assert reduced_matches_full(reduced, full), word
        kh = homology_of(reduced, Theory.KH)
        assert kh == homology_of(full, Theory.KH) == dense_homology_of(full, Theory.KH), word
        assert homology(close_braid(word), Theory.KH) == kh


def _splits_off_v(kh: dict[tuple, int]) -> bool:
    """Whether Kh^{i,j} = h^{i,j} + h^{i,j-2} for some h >= 0, as
    Kh = reduced Kh (x) V requires: in each i, peeled from the bottom j
    up, h(j) = Kh(j) - h(j - 2) is >= 0 and vanishes at the top j."""
    for i in {i for i, _ in kh}:
        js = [j for i2, j in kh if i2 == i]
        h = {min(js) - 2: 0}
        for j in range(min(js), max(js) + 1, 2):
            h[j] = kh.get((i, j), 0) - h[j - 2]
            if h[j] < 0:
                return False
        if h[max(js)]:
            return False
    return True


def test_full_kh_splits_as_reduced_kh_tensor_v_on_small_words():
    words = [w for w in corpus_words() if len(w) <= 3]
    assert len(words) == 100
    for word in words:
        kh = homology_of(build_complex(close_braid(word)), Theory.KH)
        assert _splits_off_v(kh), word


def test_akh_has_the_sl2_weight_symmetry_on_small_words():
    # rk AKh^{i,j,k} = rk AKh^{i,j-2k,-k} (Grigsby-Licata-Wehrli); the naive
    # k <-> -k at fixed j fails on every word
    words = [w for w in corpus_words() if len(w) <= 3]
    assert len(words) == 100
    for word in words:
        akh = homology(close_braid(word), Theory.AKH)
        assert akh == {(i, j - 2 * k, -k): r for (i, j, k), r in akh.items()}, word


@pytest.mark.parametrize("braid", [w for w, _, cover in REFERENCE_WORDS if not cover])
def test_reduced_kh_on_ten_crossings(braid):
    full, reduced = _full_and_reduced(close_braid(parse_braid_word(braid, 2)))
    assert (full.n_generators, reduced.n_generators) == (59_052, 29_526)
    assert reduced.n_arrows() == 132_868
    assert reduced_matches_full(reduced, full)
    kh = homology_of(reduced, Theory.KH)
    # the dense oracle on the reduced complex; on the full one it takes 5 s
    assert kh == homology_of(full, Theory.KH) == _kh_from_reduced_ranks(
        dense_homology_of(reduced, Theory.KH))


def test_circle_zero_contains_port_zero():
    for word in corpus_words():
        if len(word) > 3:
            continue
        for diagram in (close_braid(word), double_cover(word)):
            for alpha in range(1 << diagram.n_crossings):
                assert 0 in circle_ports(resolve(diagram, alpha))[0]


def test_reduced_build_refuses_an_arrow_onto_circle_zero_plus(monkeypatch):
    rule = khovanov._edge_rule

    def leaky(edge):
        # every image also labels target circle 0 "+"
        return {plus: [tp | 1 for tp in tps] for plus, tps in rule(edge).items()}

    with monkeypatch.context() as m:
        m.setattr(khovanov, "_edge_rule", leaky)
        with pytest.raises(FilteredComplexError, match="leaves the reduced complex"):
            build_complex(HOPF, reduced=True)
    # an edge that carries a "-"-marked circle 1 onto circle 0
    onto_zero = cube.EdgeType(
        kind="split", source_circles=(0,),
        target_circles=(1, 2), correspondence=((1, 0),),
    )
    monkeypatch.setattr(cube, "classify_resolutions", lambda source, target, *_: onto_zero)
    with pytest.raises(FilteredComplexError, match="leaves the reduced complex"):
        build_complex(HOPF, reduced=True)


def test_only_kh_has_a_reduced_complex():
    # AKh is read from the full complex only
    reduced = build_complex(HOPF, reduced=True)
    for read in (rows_of, lambda gc, t: _map_blocks(gc, t, lambda m, index: m), homology_of):
        with pytest.raises(ValueError, match="reduced"):
            read(reduced, Theory.AKH)


def test_kh_memory_guard_counts_reduced_blocks(monkeypatch):
    # a reduced build counts half the generators: with a cap of 6 the
    # reduced Hopf complex (2 + 1 + 1 + 2) is built, the full one refused at
    # vertex 2, where its count reaches 8
    monkeypatch.setattr(khovanov, "MAX_GENERATORS", 6)
    assert build_complex(HOPF, reduced=True).n_generators == 6
    assert total_rank(homology(HOPF, Theory.KH)) == 4
    resolved, graded = _watch_cube(monkeypatch)
    with pytest.raises(DiagramTooLarge, match="3 of its 4 cube vertices already have 8$"):
        homology(HOPF, Theory.AKH)
    assert resolved == [0, 1, 2]
    assert graded == [0, 1]
    # at a cap of 5 the reduced count passes it at the last vertex
    monkeypatch.setattr(khovanov, "MAX_GENERATORS", 5)
    with pytest.raises(DiagramTooLarge, match="4 of its 4 cube vertices already have 6$"):
        homology(HOPF, Theory.KH)


# -- invariance properties of Kh: a wrong j-shift or a wrong marked circle
# breaks them


def _words(strands: list[int], max_letters: int):
    def on(m: int):
        if m == 1:
            return st.just(BraidWord(1, ()))
        letters = st.lists(st.sampled_from(alphabet(m)), max_size=max_letters)
        return letters.map(lambda word: BraidWord(m, tuple(word)))

    return st.sampled_from(strands).flatmap(on)


@PROPERTY
@given(_words([2, 3, 4], 4))
def test_akh_view_matches_the_reference_builder(word):
    # the full Kh complex equals the reference Kh complex, and its rows
    # filtered by k equal the reference AKh complex, arrow for arrow
    assert builder_matches_reference(build_complex(close_braid(word)))


def _kh(word: BraidWord) -> dict[tuple, int]:
    return homology(close_braid(word), Theory.KH)


@PROPERTY
@given(_words([1, 2, 3], 4))
def test_mirror_negates_both_kh_gradings(word):
    assert _kh(mirror(word)) == {(-i, -j): r for (i, j), r in _kh(word).items()}


@PROPERTY
@given(_words([1, 2], 3), st.sampled_from([1, -1]))
def test_markov_stabilization_keeps_kh(word, sign):
    m = word.strands
    assert _kh(BraidWord(m + 1, word.letters + (sign * m,))) == _kh(word)


@PROPERTY
@given(_words([2, 3], 4), st.integers(0, 3), st.data())
def test_conjugation_keeps_kh(word, turn, data):
    letters = word.letters
    turn = turn % len(letters) if letters else 0
    rotated = BraidWord(word.strands, letters[turn:] + letters[:turn])
    assert _kh(rotated) == _kh(word)
    if len(letters) <= 2:
        g = data.draw(st.sampled_from(alphabet(word.strands)))
        assert _kh(BraidWord(word.strands, (g, *letters, -g))) == _kh(word)


# -- invariance of AKh under the braid relations: isotopies of the closure
# in the thickened annulus


@st.composite
def _related_words(draw):
    """Two words p l s and p r s on 2-4 strands whose middles l = r is one
    braid relation: g g^-1 = 1, sigma_a sigma_{a+1} sigma_a =
    sigma_{a+1} sigma_a sigma_{a+1} (both signs), or far commutation."""
    m = draw(st.sampled_from([2, 3, 4]))
    letters = st.lists(st.sampled_from(alphabet(m)), max_size=2)
    prefix, suffix = draw(letters), draw(letters)
    sign = st.sampled_from([1, -1])
    kinds = ["inverse", "braid", "far"][: m - 1]
    kind = draw(st.sampled_from(kinds))
    if kind == "inverse":
        g = draw(st.sampled_from(alphabet(m)))
        left, right = (g, -g), ()
    elif kind == "braid":
        a, e = draw(st.integers(1, m - 2)), draw(sign)
        left, right = (e * a, e * (a + 1), e * a), (e * (a + 1), e * a, e * (a + 1))
    else:  # sigma_1 and sigma_3, the only far pair on 4 strands
        g, h = draw(sign), draw(sign) * 3
        left, right = (g, h), (h, g)
    return tuple(
        BraidWord(m, (*prefix, *middle, *suffix)) for middle in (left, right)
    )


def _akh(word: BraidWord) -> dict[tuple, int]:
    return homology(close_braid(word), Theory.AKH)


@PROPERTY
@given(_related_words())
def test_braid_relations_keep_akh(words):
    left, right = words
    assert _akh(left) == _akh(right)


@PROPERTY
@given(_words([2, 3], 4), st.integers(0, 3), st.data())
def test_conjugation_keeps_akh(word, turn, data):
    # conjugate braids close up to isotopic links in the thickened annulus
    letters = word.letters
    turn = turn % len(letters) if letters else 0
    rotated = BraidWord(word.strands, letters[turn:] + letters[:turn])
    assert _akh(rotated) == _akh(word)
    if len(letters) <= 2:
        g = data.draw(st.sampled_from(alphabet(word.strands)))
        assert _akh(BraidWord(word.strands, (g, *letters, -g))) == _akh(word)
