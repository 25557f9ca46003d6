import random

import pytest
from hypothesis import given, strategies as st

from annulus_tate.f2algebra import (
    FilteredComplex,
    FilteredComplexError,
    MissingArrowError,
    cancel_shift_level,
    degree_masks,
    dense_rank,
    homology_ranks,
    rank_table,
)
from annulus_tate.khovanov import Theory, build_complex, homology_of, total_rank
from annulus_tate.links import close_braid, parse_braid_word

AKH = Theory.AKH

from conftest import (
    PROPERTY,
    BitsetComplex,
    cancellation_ranks,
    check_d_squared,
    dense_homology_of,
    n_arrows,
    spectral_pages,
    theory_rows,
)


def two_generator_complex():
    C = FilteredComplex.from_rows([0, 1], [(), ()], [[1], []])
    return C, 0, 1


def bipartite_square():
    # two sources, two sinks, all four arrows; homology has rank 2
    x, b, a, z = range(4)
    C = FilteredComplex.from_rows(
        [0, 0, 1, 1], [("src",), ("src",), ("snk",), ("snk",)], [[a, z], [a, z], [], []]
    )
    return C, (x, b, a, z)


def test_cancel_acyclic_pair():
    C, x, y = two_generator_complex()
    C.cancel_arrow(x, y)
    assert C.n_generators() == 0 and n_arrows(C) == 0


def test_cancel_square_toggles_existing_arrow():
    C, (x, b, a, z) = bipartite_square()
    C.cancel_arrow(x, a)
    assert sorted(C.generators()) == [b, z]
    assert n_arrows(C) == 0
    assert cancellation_ranks(C) == {(0, "src"): 1, (1, "snk"): 1}
    # dense oracle: the 2x2 all-ones matrix has rank 1, so both sides keep one class
    assert dense_rank([[1, 1], [1, 1]]) == 1


def test_a_key_keeps_the_sweeps_to_the_arrows_that_keep_it():
    # 0 -> 2 keeps the key, 1 -> 3 lowers it, as a Kh arrow may lower k
    key = [0, 0, 0, -2]

    def complex_():
        return FilteredComplex.from_rows([0, 0, 1, 1], [(k,) for k in key], [[2], [3], [], []])

    C = complex_()
    # the associated graded keeps 1 and 3; the complex itself keeps nothing
    assert cancellation_ranks(C, key) == {(0, 0): 1, (1, -2): 1}
    assert cancellation_ranks(C) == {}
    C = complex_()
    assert cancel_shift_level(C, 1, degree_masks(C, key), key)
    assert list(C.arrows()) == [(1, 3)]


def test_cancel_missing_arrow_raises():
    C, (x, b, a, z) = bipartite_square()
    C.cancel_arrow(x, a)
    with pytest.raises(MissingArrowError):
        C.cancel_arrow(b, z)


def test_cancel_refuses_a_self_loop():
    # 0 -> 0 is an arrow of the complex but not an invertible pair:
    # cancelling it would remove one generator and change the Euler
    # characteristic
    C = FilteredComplex.from_rows([0, 0, 1], [(), (), ()], [[0, 2], [0], []])
    before = (list(C.out), list(C.inc), C.alive)
    with pytest.raises(MissingArrowError):
        C.cancel_arrow(0, 0)
    assert (C.out, C.inc, C.alive) == before


def test_cancel_masks_leave_out_both_ends():
    # a -> b with self-loops on both ends, c -> b and a -> d: the masks
    # toggled against each other are {c} and {d} only
    a, b, c, d = range(4)
    C = FilteredComplex.from_rows([0] * 4, [()] * 4, [[a, b, d], [b], [b], []])
    assert C.cancel_arrow(a, b) == (1 << c, 1 << d)
    assert sorted(C.generators()) == [c, d]
    assert list(C.arrows()) == [(c, d)]


def test_cancel_preserves_graded_homology():
    gc = build_complex(close_braid(parse_braid_word("1 1", 2)))
    C = FilteredComplex.from_rows(gc.gi, list(zip(gc.gj, gc.gk)), theory_rows(gc, AKH))
    before = cancellation_ranks(C.copy())
    src, tgt = next(iter(C.arrows()))
    C.cancel_arrow(src, tgt)
    check_d_squared(C)
    assert cancellation_ranks(C) == before


def test_from_rows_rejects_a_repeated_arrow():
    with pytest.raises(FilteredComplexError, match="repeated arrow from 0"):
        FilteredComplex.from_rows([0, 1], [(), ()], [[1, 1], []])


@pytest.mark.parametrize("target", [-1, 3])
def test_from_rows_refuses_a_target_outside_the_generators(target):
    with pytest.raises(
        FilteredComplexError, match=f"^arrow 0 -> {target} leaves the generators 0..2$"
    ):
        FilteredComplex.from_rows([0, 0, 0], [()] * 3, [[target], [], []])


def test_homology_zero_differential():
    C = FilteredComplex.from_rows([0, 0, 2], [(5,), (5,), (7,)], [[], [], []])
    assert cancellation_ranks(C) == {(0, 5): 2, (2, 7): 1}


def test_homology_of_hopf_complex_total_rank():
    gc = build_complex(close_braid(parse_braid_word("1 1", 2)))
    C = FilteredComplex.from_rows(gc.gi, list(zip(gc.gj, gc.gk)), theory_rows(gc, AKH))
    table = cancellation_ranks(C)
    assert sum(table.values()) == 6


def random_valid_complex(rnd):
    """Random two-step complex C0 -> C1 -> C2 over F2 with d^2 = 0.

    Rows of the second differential are drawn from the null space of the
    first (vectors w with d0 . w = 0), computed by row reduction.
    """
    n0, n1, n2 = rnd.randrange(1, 4), rnd.randrange(2, 6), rnd.randrange(1, 4)
    d0 = [[rnd.randrange(2) for _ in range(n1)] for _ in range(n0)]

    ref: list[int] = []
    for r in range(n0):
        cur = sum(d0[r][c] << c for c in range(n1))
        while cur:
            low = cur & -cur
            hit = next((row for row in ref if row & -row == low), None)
            if hit is None:
                ref.append(cur)
                break
            cur ^= hit
    ref.sort(key=lambda row: row & -row)
    for i in range(len(ref)):  # back substitution to reduced echelon form
        for j in range(i + 1, len(ref)):
            if ref[i] & (ref[j] & -ref[j]):
                ref[i] ^= ref[j]
    pivot_bits = [row & -row for row in ref]
    pivot_cols = {pb.bit_length() - 1 for pb in pivot_bits}
    null_basis = []
    for free in range(n1):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for row, pb in zip(ref, pivot_bits):
            if (row >> free) & 1:
                vec |= pb
        null_basis.append(vec)

    # generators: degree 0 at 0..n0-1, degree 1 at n0.., degree 2 after
    rows: list[list[int]] = [
        [n0 + c for c in range(n1) if d0[r][c]] for r in range(n0)
    ] + [[] for _ in range(n1 + n2)]
    for r in range(n2):
        vec = 0
        for w in null_basis:
            if rnd.randrange(2):
                vec ^= w
        for c in range(n1):
            if (vec >> c) & 1:
                rows[n0 + c].append(n0 + n1 + r)
    fdeg = [0] * n0 + [1] * n1 + [2] * n2
    C = FilteredComplex.from_rows(fdeg, [(0,)] * len(fdeg), rows)
    check_d_squared(C)
    return C


def test_random_complexes_match_dense_rank_nullity():
    rnd = random.Random(2024)
    for _ in range(50):
        C = random_valid_complex(rnd)
        sizes = {}
        for g in C.generators():
            sizes[C.fdeg[g]] = sizes.get(C.fdeg[g], 0) + 1
        mats = {}
        for i in (0, 1):
            srcs = [g for g in C.generators() if C.fdeg[g] == i]
            tgts = [g for g in C.generators() if C.fdeg[g] == i + 1]
            tidx = {g: c for c, g in enumerate(tgts)}
            mats[i] = dense_rank(
                [[1 if C.has_arrow(s, t) else 0 for t in tgts] for s in srcs]
            )
        expected = {}
        for i in sorted(sizes):
            h = sizes[i] - mats.get(i, 0) - mats.get(i - 1, 0)
            if h:
                expected[(i, 0)] = h
        rows = [list(C.targets(x)) for x in range(len(C.fdeg))]
        assert homology_ranks(C.fdeg, (0,), rows) == expected
        assert cancellation_ranks(C) == expected


def revlex_homology_ranks(C: FilteredComplex) -> dict[tuple, int]:
    """Homology ranks by the mirror image of the engine's lexicographic
    sweep: highest source first, highest target first."""
    work = C.copy()
    x = len(work.fdeg) - 1
    while x >= 0:
        ts = list(work.targets(x)) if (work.alive >> x) & 1 else []
        if not ts:
            x -= 1
            continue
        preds, _ = work.cancel_arrow(x, ts[-1])
        x = max(x, preds.bit_length() - 1)
    return rank_table(work)


def test_homology_ranks_cancels_its_argument_in_place():
    # the surviving generators of C are the homology basis it reports, and
    # a copy handed in instead leaves C as it was
    rnd = random.Random(7)
    for _ in range(10):
        C = random_valid_complex(rnd)
        before = (list(C.out), list(C.inc), C.alive)
        expected = cancellation_ranks(C.copy())
        assert (C.out, C.inc, C.alive) == before
        table = cancellation_ranks(C)
        assert table == expected == rank_table(C)
        assert n_arrows(C) == 0
        assert C.n_generators() == sum(table.values())
        assert (C.alive == before[2]) == (not any(before[0]))


def test_homology_order_independence():
    rnd = random.Random(99)
    for _ in range(25):
        C = random_valid_complex(rnd)
        assert cancellation_ranks(C.copy()) == revlex_homology_ranks(C)


def test_sweep_never_pivots_on_a_self_loop():
    # one free orbit {a, b} of a folded Tate complex: a -> a, a -> b,
    # b -> b, b -> a; cancelling a -> b leaves nothing, while treating the
    # self-loop a -> a as a pivot would leave b behind
    a, b = 0, 1
    C = FilteredComplex.from_rows([0, 0], [(), ()], [[a, b], [b, a]])
    check_d_squared(C)
    assert cancellation_ranks(C.copy()) == {}
    pages = spectral_pages(C, max_page=1)
    assert pages.table(0) == {(0,): 2} and pages.table(1) == {}


def test_spectral_pages_two_row_example():
    a, b, c, d = range(4)
    # a -> b of shift 0, c -> d of shift 1
    C = FilteredComplex.from_rows([0, 0, 0, 1], [()] * 4, [[b], [], [d], []])
    pages = spectral_pages(C, max_page=2)
    assert total_rank(pages.table(0)) == 4
    assert total_rank(pages.table(1)) == 2
    assert total_rank(pages.table(2)) == 0
    assert pages.d_nonzero == {0: True, 1: True, 2: False}
    assert cancellation_ranks(C) == {}


def test_spectral_pages_page_zero_is_chain_ranks():
    gc = build_complex(close_braid(parse_braid_word("1 1", 2)))
    C = FilteredComplex.from_rows(gc.gi, list(zip(gc.gj, gc.gk)), theory_rows(gc, AKH))
    pages = spectral_pages(C, max_page=3)
    assert pages.table(0) == rank_table(C)
    assert pages.table(3) == cancellation_ranks(C)
    totals = [total_rank(pages.table(r)) for r in range(4)]
    assert all(x >= y for x, y in zip(totals, totals[1:]))


def test_spectral_pages_rejects_negative_shift():
    C = FilteredComplex.from_rows([1, 0], [(), ()], [[1], []])
    with pytest.raises(FilteredComplexError):
        spectral_pages(C, max_page=1)


def test_empty_complex_edge_cases():
    C = FilteredComplex()
    assert cancellation_ranks(C.copy()) == {}
    pages = spectral_pages(C, max_page=2)
    assert pages.table(0) == {} and pages.table(2) == {}


def test_dense_rank_basics():
    assert dense_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert dense_rank([[1, 1], [1, 1]]) == 1
    assert dense_rank([]) == 0
    assert dense_rank([[0, 0]]) == 0


def test_dense_rank_hopf_boundary_block():
    gc = build_complex(close_braid(parse_braid_word("1 1", 2)))
    srcs = [g for g in range(gc.n_generators) if gc.gi[g] == 0 and gc.gk[g] == 0]
    tgts = [g for g in range(gc.n_generators) if gc.gi[g] == 1 and gc.gk[g] == 0]
    assert (len(srcs), len(tgts)) == (2, 4)
    tidx = {g: c for c, g in enumerate(tgts)}
    matrix = [[0] * len(tgts) for _ in srcs]
    rows = theory_rows(gc, AKH)
    for r, s in enumerate(srcs):
        for y in rows[s]:
            matrix[r][tidx[y]] = 1
    assert dense_rank(matrix) == 1


def test_dense_homology_matches_cancellation_for_both_theories():
    for text, m in [("1", 2), ("1 1", 2), ("-1 2", 3)]:
        gc = build_complex(close_braid(parse_braid_word(text, m)))
        for theory in (Theory.AKH, Theory.KH):
            assert homology_of(gc, theory) == dense_homology_of(gc, theory)


# -- the offset-row engine against the frozen absolute-row engine


@st.composite
def numbered_complexes(draw, loops=False):
    """(fdeg, aux, rows) of a random complex with d^2 = 0, its generators
    numbered in random order.

    A direct sum of pairs x -> y and lone generators on homological
    degrees 0..h is conjugated by random changes of basis within each
    degree (e_a becomes e_a + e_b), which keep d^2 = 0.  ``aux`` is the
    homological degree, ``fdeg`` a random filtration degree in -2..2.
    ``loops`` adds self-loops x -> x at random, as in a folded Tate
    complex (d^2 = 0 then no longer holds).
    """
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    degree = [h for h, size in enumerate(sizes) for _ in range(size)]
    first = [sum(sizes[:h]) for h in range(len(sizes))]
    out: list[set[int]] = [set() for _ in degree]
    taken = 0  # generators of degree h that are already pair targets
    for h in range(len(sizes) - 1):
        pairs = draw(st.integers(0, min(sizes[h] - taken, sizes[h + 1])))
        for p in range(pairs):
            out[first[h] + taken + p].add(first[h + 1] + p)
        taken = pairs
    n = len(degree)
    if n > 1:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            if a == b or degree[a] != degree[b]:
                continue
            out[a] ^= out[b]
            for row in out:
                if a in row:
                    row ^= {b}
    index = draw(st.permutations(range(n)))
    rows: list[list[int]] = [[] for _ in range(n)]
    fdeg, aux = [0] * n, [()] * n
    for g in range(n):
        rows[index[g]] = [index[t] for t in out[g]]
        if loops and draw(st.booleans()):
            rows[index[g]].append(index[g])
        fdeg[index[g]] = draw(st.integers(-2, 2))
        aux[index[g]] = (degree[g],)
    return fdeg, aux, rows


def both_engines(fdeg, aux, rows):
    return FilteredComplex.from_rows(fdeg, aux, rows), BitsetComplex.from_rows(fdeg, aux, rows)


@PROPERTY
@given(numbered_complexes())
def test_offset_engine_ranks_match_the_frozen_engine(complex_):
    C, B = both_engines(*complex_)
    check_d_squared(B)
    assert cancellation_ranks(C) == B.homology_ranks()


@PROPERTY
@given(numbered_complexes(loops=True))
def test_offset_engine_pages_match_the_frozen_engine(complex_):
    # every shift from -4 to 4 in turn, negative shifts first: their
    # targets lie below the source's row offset and force rebases
    C, B = both_engines(*complex_)
    masks, bmasks = degree_masks(C), B.degree_masks()
    assert masks == bmasks
    for r in range(-4, 5):
        assert rank_table(C) == B.rank_table()
        assert cancel_shift_level(C, r, masks) == B.cancel_shift_level(r, bmasks)
        assert sorted(C.arrows()) == sorted(B.arrows())
    assert all(x == y for x, y in C.arrows())  # only self-loops are left


@PROPERTY
@given(numbered_complexes(loops=True), st.data())
def test_offset_engine_cancel_masks_match_the_frozen_engine(complex_, data):
    C, B = both_engines(*complex_)
    gens = range(len(C.fdeg))
    while pairs := [(x, y) for x, y in sorted(B.arrows()) if x != y]:
        k, l = data.draw(st.sampled_from(pairs))
        assert C.cancel_arrow(k, l) == B.cancel_arrow(k, l)
        assert sorted(C.arrows()) == sorted(B.arrows())
        assert all(C.has_arrow(x, y) == B.has_arrow(x, y) for x in gens for y in gens)
    for x, _ in C.arrows():
        with pytest.raises(MissingArrowError):
            C.cancel_arrow(x, x)


def _offset_rows(n: int, rows: list[list[int]]):
    """(out, out_off, inc, inc_off) of ``rows`` on n generators, each row
    relative to its lowest index and an empty one to n, assembled row by
    row from the sources of every target."""
    sources: list[list[int]] = [[] for _ in range(n)]
    out, out_off = [], []
    for x, row in enumerate(rows):
        off = min(row, default=n)
        out.append(sum(1 << (t - off) for t in row))
        out_off.append(off)
        for t in row:
            sources[t].append(x)
    inc = [sum(1 << (x - xs[0]) for x in xs) for xs in sources]
    inc_off = [xs[0] if xs else n for xs in sources]
    return out, out_off, inc, inc_off


def _fields(C: FilteredComplex):
    return C.out, C.out_off, C.inc, C.inc_off


@PROPERTY
@given(numbered_complexes(loops=True), st.data())
def test_from_rows_reads_a_block_of_a_larger_numbering(complex_, data):
    fdeg, aux, rows = complex_
    n = len(fdeg)
    C = FilteredComplex.from_rows(fdeg, aux, rows)
    assert _fields(C) == _offset_rows(n, rows)
    # the same generators as slots base..base+n-1 of a larger complex,
    # whose other generators keep leaves out
    base, extra = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    slot = data.draw(st.permutations(range(base + n + extra)))
    id_of = {s: y for y, s in enumerate(slot)}
    key = [int(not base <= s < base + n) for s in slot]
    others = [y for y, k in enumerate(key) if k]
    wide = []
    for row in rows:
        wide_row = [id_of[base + t] for t in row]
        for y in data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []:
            wide_row.insert(data.draw(st.integers(0, len(wide_row))), y)
        wide.append(wide_row)
    D = FilteredComplex.from_rows(fdeg, aux, wide, index=(slot, base), keep=(key, 0))
    assert _fields(D) == _fields(C) and D.alive == C.alive
    if any(len(w) > len(r) for w, r in zip(wide, rows)):
        with pytest.raises(FilteredComplexError, match="^arrow leaves its grading block$"):
            FilteredComplex.from_rows(fdeg, aux, wide, index=(slot, base))


# -- the rank pass against the cancellation reference and dense ranks


@st.composite
def leveled_complexes(draw):
    """(fdeg, key, rows) of a random complex with d^2 = 0 whose arrows
    raise fdeg by exactly one and never raise ``key``, numbered level by
    level in a random order within each level.

    A direct sum of pairs x -> y with key[y] <= key[x] and lone generators
    is conjugated by changes of basis e_a -> e_a + e_b within a level with
    key[b] <= key[a], which keep d^2 = 0 and the key filtration, so some
    arrows lower the key, as a Kh arrow may lower k.
    """
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    low = draw(st.integers(-2, 2))
    fdeg = [low + h for h, size in enumerate(sizes) for _ in range(size)]
    first = [sum(sizes[:h]) for h in range(len(sizes))]
    n = len(fdeg)
    rnd = draw(st.randoms(use_true_random=False))
    key = [rnd.choice([0, -2, -4]) for _ in range(n)]
    out: list[set[int]] = [set() for _ in range(n)]
    taken = 0  # generators of level h that are already pair targets
    for h in range(len(sizes) - 1):
        most = min(sizes[h] - taken, sizes[h + 1])
        pairs = rnd.randint(most // 2, most)
        for p in range(pairs):
            x, y = first[h] + taken + p, first[h + 1] + p
            out[x].add(y)
            key[y] = min(key[y], key[x])
        taken = pairs
    for _ in range(rnd.randrange(4 * n + 1)):
        a, b = rnd.randrange(n), rnd.randrange(n)
        if a == b or fdeg[a] != fdeg[b] or key[b] > key[a]:
            continue
        out[a] ^= out[b]
        for row in out:
            if a in row:
                row ^= {b}
    # a random order within each level
    index = []
    for h, size in enumerate(sizes):
        index += rnd.sample(range(first[h], first[h] + size), size)
    rows: list[list[int]] = [[] for _ in range(n)]
    keys = [0] * n
    for g in range(n):
        rows[index[g]] = rnd.sample([index[t] for t in sorted(out[g])], len(out[g]))
        keys[index[g]] = key[g]
    return fdeg, keys, rows


def dense_ranks(fdeg, grading, rows, key=None) -> dict[tuple, int]:
    """n - rk(d out of the level) - rk(d into it) per level, from dense
    matrices (``dense_rank``); with ``key``, per level and key over the
    arrows that keep the key, keyed (level, *grading, key)."""
    groups: dict[tuple, list[int]] = {}
    for x, level in enumerate(fdeg):
        groups.setdefault((level,) if key is None else (level, key[x]), []).append(x)

    def rank_out(group: tuple) -> int:
        level, *k = group
        srcs, tgts = groups.get(group, []), groups.get((level + 1, *k), [])
        return dense_rank([[int(t in rows[x]) for t in tgts] for x in srcs])

    table = {}
    for group, members in groups.items():
        level, *k = group
        rank = len(members) - rank_out(group) - rank_out((level - 1, *k))
        if rank:
            table[(level, *grading, *k)] = rank
    return table


@PROPERTY
@given(leveled_complexes(), st.data())
def test_rank_pass_matches_cancellation_and_dense_ranks(complex_, data):
    fdeg, key, rows = complex_
    before = [list(row) for row in rows]
    # the Kh j-block form: the complex and its associated graded, one pass
    kh, akh = homology_ranks(fdeg, (7,), rows, key=key)
    assert rows == before
    C = FilteredComplex.from_rows(fdeg, [(7, k) for k in key], rows)
    assert akh == cancellation_ranks(C, key) == dense_ranks(fdeg, (7,), rows, key)
    reference: dict[tuple, int] = {}
    for (i, j, _), rank in cancellation_ranks(C).items():
        reference[i, j] = reference.get((i, j), 0) + rank
    assert kh == reference == dense_ranks(fdeg, (7,), rows)
    assert homology_ranks(fdeg, (7,), rows) == kh
    # the (j, k)-block form: each key's generators as a block of a larger
    # numbering, the arrows that lower the key left out by ``keep``
    n = len(fdeg)
    for k in sorted(set(key)):
        members = [x for x in range(n) if key[x] == k]
        others = [x for x in range(n) if key[x] != k]
        cut = data.draw(st.integers(0, len(others)))
        order = others[:cut] + members + others[cut:]
        slot = [0] * n
        for s, x in enumerate(order):
            slot[x] = s
        args = ([fdeg[x] for x in members], [rows[x] for x in members])
        block = homology_ranks(args[0], (7, k), args[1], index=(slot, cut), keep=(key, k))
        assert block == {g: r for g, r in akh.items() if g[2] == k}
        D = FilteredComplex.from_rows(
            args[0], [(7, k)] * len(members), args[1], index=(slot, cut), keep=(key, k)
        )
        assert cancellation_ranks(D) == block
        if any(key[t] != k for x in members for t in rows[x]):
            with pytest.raises(FilteredComplexError, match="^arrow leaves its grading block$"):
                homology_ranks(args[0], (7, k), args[1], index=(slot, cut))
    assert rows == before


@PROPERTY
@given(numbered_complexes(loops=True), st.data())
def test_rank_pass_refuses_what_from_rows_refuses(complex_, data):
    # any rows on leveled generators: targets out of range, repeated
    # arrows, self-loops and arrows of any shift among them
    _, _, rows = complex_
    n = len(rows)
    fdeg = sorted(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    rows = [row + data.draw(st.lists(st.integers(-1, n), max_size=2)) for row in rows]
    try:
        FilteredComplex.from_rows(fdeg, [()] * n, rows)
    except FilteredComplexError:
        with pytest.raises(FilteredComplexError):
            homology_ranks(fdeg, (), rows)
    raises_level = any(
        0 <= t < n and fdeg[t] != fdeg[x] + 1 for x, row in enumerate(rows) for t in row
    )
    if raises_level:
        with pytest.raises(FilteredComplexError):
            homology_ranks(fdeg, (), rows)


@pytest.mark.parametrize("rows, message", [
    ([[1, 1], [], []], "^repeated arrow from 0$"),
    ([[-1], [], []], r"^arrow 0 -> -1 leaves the generators 0..2$"),
    ([[3], [], []], r"^arrow 0 -> 3 leaves the generators 0..2$"),
    ([[0], [], []], r"^arrow 0 -> 0 does not raise the level by one$"),
    ([[2], [], []], r"^arrow 0 -> 2 does not raise the level by one$"),
    ([[], [2], []], r"^arrow 1 -> 2 does not raise the level by one$"),
    ([[], [], [1]], r"^arrow 2 -> 1 does not raise the level by one$"),
])
def test_rank_pass_refusals(rows, message):
    # levels 0, 1, 3: only 0 -> 1 raises the level by one
    with pytest.raises(FilteredComplexError, match=message):
        homology_ranks([0, 1, 3], (), rows)


def test_rank_pass_refuses_an_arrow_that_leaves_its_block():
    # the block is slots 1..2 of a numbering of four; generator 3 sits at slot 3
    slot = [1, 2, 0, 3]
    with pytest.raises(FilteredComplexError, match="^arrow leaves its grading block$"):
        homology_ranks([0, 1], (), [[1, 3], []], index=(slot, 1))
    # ``keep`` drops the arrow before the block check
    key = [0, 0, 1, 1]
    assert homology_ranks([0, 1], (), [[1, 3], []], index=(slot, 1), keep=(key, 0)) == {}


def test_rank_pass_refuses_generators_out_of_level_order():
    with pytest.raises(FilteredComplexError, match="level by level"):
        homology_ranks([1, 0], (), [[], []])


def test_rank_pass_refuses_d_squared_nonzero():
    # 0 -> 1 -> 2 with d^2 != 0: the ranks of d exceed level 1's generators
    with pytest.raises(FilteredComplexError, match="d\\^2 != 0"):
        homology_ranks([0, 1, 2], (), [[1], [2], []])


def test_rank_pass_leaves_out_zero_ranks_and_keys_by_level():
    # 0 -> 2 kills both; 1 survives at level 0, 3 at level 1
    rows = [[2], [], [], []]
    assert homology_ranks([0, 0, 1, 1], ("j",), rows) == {(0, "j"): 1, (1, "j"): 1}
    # 1 -> 3 lowers the key: the associated graded keeps 1 and 3
    rows = [[2], [3], [], []]
    kh, akh = homology_ranks([0, 0, 1, 1], ("j",), rows, key=[0, 0, 0, -2])
    assert kh == {} and akh == {(0, "j", 0): 1, (1, "j", -2): 1}
