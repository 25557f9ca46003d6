import functools
import gc as pygc
import heapq
import itertools
import os
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import settings

from annulus_tate import f2algebra
from annulus_tate.f2algebra import (
    FilteredComplex,
    FilteredComplexError,
    MissingArrowError,
    PageTable,
    _sweep_cancel,
    dense_rank,
    rank_table,
)
from annulus_tate import cube
from annulus_tate import khovanov
from annulus_tate.khovanov import (
    GradedComplex,
    Theory,
    _map_blocks,
    build_complex,
    rows_of,
)
from annulus_tate.links import AnnularDiagram, BraidWord
from annulus_tate.tate import HvPages, hv_pages


# hypothesis settings of the property tests: reproducible, no example database
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """After each test, this process has no child left, running or exited
    and unreaped: ``os.waitpid(-1, os.WNOHANG)`` raises ChildProcessError."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def watch_block_builds(monkeypatch) -> list[int]:
    """Patch ``FilteredComplex.from_rows`` to record, at each call, how many
    engine complexes are alive; returns the list it appends to."""
    pygc.collect()
    live: list[int] = []
    build = FilteredComplex.from_rows.__func__

    def from_rows(cls, *args, **kwargs):
        live.append(sum(isinstance(o, FilteredComplex) for o in pygc.get_objects()))
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(FilteredComplex, "from_rows", classmethod(from_rows))
    return live


def watch_rank_passes(monkeypatch) -> list[int]:
    """Patch the rank pass that ``khovanov`` calls (``homology_ranks``) to
    record, at each call, how many engine complexes are alive plus how
    many rank passes are running; returns the list it appends to."""
    pygc.collect()
    live: list[int] = []
    running = [0]
    rank_pass = khovanov.homology_ranks

    def homology_ranks(*args, **kwargs):
        live.append(
            running[0] + sum(isinstance(o, FilteredComplex) for o in pygc.get_objects())
        )
        running[0] += 1
        try:
            return rank_pass(*args, **kwargs)
        finally:
            running[0] -= 1

    monkeypatch.setattr(khovanov, "homology_ranks", homology_ranks)
    return live


# -- the cancellation reference for homology ranks


def n_arrows(C: FilteredComplex, target_mask_of=None) -> int:
    """The arrows of C between alive generators; with ``target_mask_of``,
    only those x -> y whose target it allows, as in ``_sweep_cancel``."""
    out, off, alive = C.out, C.out_off, C.alive
    if target_mask_of is None:
        return sum((out[g] & (alive >> off[g])).bit_count() for g in C.generators())
    return sum(
        (out[g] & ((alive & target_mask_of(g)) >> off[g])).bit_count()
        for g in C.generators()
    )


def cancellation_ranks(C: FilteredComplex, key: list | None = None) -> dict[tuple, int]:
    """Homology ranks per grading, by cancelling ``C`` in place until no
    arrows remain; pass ``C.copy()`` to keep the complex.  It reads any
    complex, self-loops and arrows of any shift included, and is the
    reference that ``f2algebra.homology_ranks`` is checked against.

    With ``key``, a list that no arrow raises (a second filtration), only
    the arrows x -> y with key[y] == key[x] are cancelled, until none
    remains: the ranks of the associated graded complex.  Cancelling such
    an arrow creates no arrow that raises ``key``, so
    ``cancellation_ranks(C)`` afterwards finishes the homology of C itself.
    """
    target_mask_of = None
    if key is not None:
        same: dict = {}
        for g in C.generators():
            same[key[g]] = same.get(key[g], 0) | (1 << g)
        target_mask_of = [same.get(k, 0) for k in key].__getitem__
    _sweep_cancel(C, target_mask_of)
    if n_arrows(C, target_mask_of):
        raise FilteredComplexError("cancellation finished with arrows left")
    return rank_table(C)


# -- the frozen engine: absolute bitset rows (oracle path)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    if mask == 0:
        return
    if mask.bit_count() <= 32 or mask.bit_length() <= 1024:
        # sparse or narrow: peel set bits directly
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    # wide dense masks: one bytes conversion beats repeated big-int shifts
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    base = 0
    for byte in data:
        if byte:
            while byte:
                low = byte & -byte
                yield base + low.bit_length() - 1
                byte ^= low
        base += 8


class BitsetComplex:
    """The cancellation engine with absolute rows: bit y of ``out[x]`` is
    an arrow x -> y, bit x of ``inc[y]`` the same arrow.  Every row is as
    wide as the complex.

    It is the engine of the windowed Tate oracle, which so shares no
    cancellation code with the engine it checks, and the reference for
    the offset-row ``FilteredComplex`` in the property tests: its sweep
    takes the same order, so the two make the same cancellations.  The
    engine functions of ``f2algebra`` are methods here: ``sweep_cancel``,
    ``cancel_shift_level``, ``degree_masks`` and ``rank_table``, and so is
    the cancellation reference, ``cancellation_ranks``, as
    ``homology_ranks``.
    """

    __slots__ = ("fdeg", "aux", "out", "inc", "alive")

    def __init__(self) -> None:
        self.fdeg: list[int] = []
        self.aux: list[tuple] = []
        self.out: list[int] = []
        self.inc: list[int] = []
        self.alive: int = 0

    @classmethod
    def from_rows(cls, fdeg, aux, targets) -> "BitsetComplex":
        C = cls()
        C.fdeg, C.aux = list(fdeg), list(aux)
        C.out = [0] * len(fdeg)
        C.inc = [0] * len(fdeg)
        for x, row in enumerate(targets):
            for t in row:
                if (C.out[x] >> t) & 1:
                    raise FilteredComplexError(f"repeated arrow from {x}")
                C.out[x] |= 1 << t
                C.inc[t] |= 1 << x
        C.alive = (1 << len(fdeg)) - 1
        return C

    def generators(self):
        return _bits(self.alive)

    def has_arrow(self, src: int, tgt: int) -> bool:
        return bool(
            (self.alive >> src) & 1
            and (self.alive >> tgt) & 1
            and (self.out[src] >> tgt) & 1
        )

    def targets(self, src: int):
        return _bits(self.out[src] & self.alive)

    def arrows(self):
        for src in self.generators():
            for tgt in self.targets(src):
                yield src, tgt

    def n_arrows(self) -> int:
        return sum((self.out[g] & self.alive).bit_count() for g in self.generators())

    def grading_key(self, g: int) -> tuple:
        return (self.fdeg[g], *self.aux[g])

    def copy(self) -> "BitsetComplex":
        dup = BitsetComplex()
        dup.fdeg, dup.aux = list(self.fdeg), list(self.aux)
        dup.out, dup.inc = list(self.out), list(self.inc)
        dup.alive = self.alive
        return dup

    def cancel_arrow(self, k: int, l: int) -> tuple[int, int]:
        """Cancel k -> l; returns the (predecessor, successor) masks toggled
        against each other, neither holding k or l.  A self-loop raises."""
        pair = (1 << k) | (1 << l)
        if k == l or self.alive & pair != pair or not (self.out[k] >> l) & 1:
            raise MissingArrowError(f"no arrow {k}->{l} to cancel")
        self.alive ^= pair
        alive = self.alive
        preds = self.inc[l] & alive
        succs = self.out[k] & alive
        if succs:
            out = self.out
            for x in _bits(preds):
                out[x] ^= succs
        if preds:
            inc = self.inc
            for y in _bits(succs):
                inc[y] ^= preds
        return preds, succs

    def rank_table(self) -> dict[tuple, int]:
        return dict(Counter(self.grading_key(g) for g in self.generators()))

    def sweep_cancel(self, target_mask_of=None) -> bool:
        """Cancel in lexicographic (source, target) order every arrow whose
        targets ``target_mask_of(x)`` allows, never a self-loop."""
        acted = False
        out = self.out
        alive = self.alive
        if target_mask_of is None:
            heap = [x for x in _bits(alive) if out[x] & alive]
        else:
            heap = [x for x in _bits(alive) if out[x] & alive & target_mask_of(x)]
        heapq.heapify(heap)
        while heap:
            x = heapq.heappop(heap)
            alive = self.alive
            if not (alive >> x) & 1:
                continue
            m = out[x] & alive
            if target_mask_of is not None:
                m &= target_mask_of(x)
            if not m:
                continue
            l = (m & -m).bit_length() - 1
            if l == x:
                m ^= 1 << x
                if not m:
                    continue
                l = (m & -m).bit_length() - 1
            preds, _ = self.cancel_arrow(x, l)
            acted = True
            for p in _bits(preds):
                heapq.heappush(heap, p)
        return acted

    def homology_ranks(self) -> dict[tuple, int]:
        self.sweep_cancel()
        if self.n_arrows():
            raise FilteredComplexError("cancellation finished with arrows left")
        return self.rank_table()

    def degree_masks(self) -> dict[int, int]:
        masks: dict[int, int] = {}
        for g in self.generators():
            masks[self.fdeg[g]] = masks.get(self.fdeg[g], 0) | (1 << g)
        return masks

    def cancel_shift_level(self, r: int, masks: dict[int, int]) -> bool:
        return self.sweep_cancel(lambda x: masks.get(self.fdeg[x] + r, 0))


# -- engine complexes: structure checks and filtration spectral sequences


def check_d_squared(C) -> None:
    """Raise unless d^2 vanishes on the alive generators (each generator
    reaches every generator an even number of times in two steps)."""
    for x in C.generators():
        acc = 0
        for y in C.targets(x):
            for z in C.targets(y):
                acc ^= 1 << z
        if acc:
            raise FilteredComplexError(
                f"d^2 != 0: generator {x} double-hits {list(_bits(acc))[:5]}"
            )


def check_nonnegative(C: FilteredComplex) -> None:
    """Raise on an arrow that lowers the filtration degree."""
    for src, tgt in C.arrows():
        if C.fdeg[tgt] < C.fdeg[src]:
            raise FilteredComplexError(
                f"arrow {src}->{tgt} shifts filtration by {C.fdeg[tgt] - C.fdeg[src]}"
            )


def spectral_pages(C, max_page: int, engine=f2algebra) -> PageTable:
    """Pages of the filtration spectral sequence by shift-ordered cancellation.

    Page r is the complex surviving after every arrow of filtration shift
    < r has been cancelled, lexicographically by (shift, source, target);
    d^r consists of the arrows of shift exactly r on that page.  Choose
    ``max_page`` larger than the filtration span to reach the limit term.
    ``C`` is left as it was.  Raises FilteredComplexError on an arrow that
    lowers the filtration.  ``engine`` supplies ``degree_masks``,
    ``rank_table`` and ``cancel_shift_level``: the ``f2algebra`` module
    for a ``FilteredComplex``, ``BitsetComplex`` for one of those.
    """
    work = C.copy()
    check_nonnegative(work)
    masks = engine.degree_masks(work)
    pages = PageTable(max_page=max_page)
    for r in range(max_page + 1):
        pages.ranks[r] = engine.rank_table(work)
        pages.d_nonzero[r] = engine.cancel_shift_level(work, r, masks)
    return pages


def block_complex(
    gc: GradedComplex, theory: Theory, members: list[int], index: tuple[list[int], int]
) -> FilteredComplex:
    """The engine complex of one block of ``khovanov._map_blocks(gc,
    theory, …)``: each generator is filtered by i and carries (j, k) as
    auxiliary grading, so that its rank tables are keyed (i, j, k) in
    either theory, and its arrows are its ``theory`` arrows, the AKh ones
    those that keep k.  Each target is mapped to its block index through
    ``index``; one outside the block raises FilteredComplexError("arrow
    leaves its grading block")."""
    slot, base = index
    n = len(members)
    gk = gc.gk
    rows = []
    for g in members:
        row = []
        for y in gc.out[g]:
            if theory is Theory.AKH and gk[y] != gk[g]:
                continue
            t = slot[y] - base
            if not 0 <= t < n:
                raise FilteredComplexError("arrow leaves its grading block")
            row.append(t)
        rows.append(row)
    return FilteredComplex.from_rows(
        [gc.gi[g] for g in members], [(gc.gj[g], gk[g]) for g in members], rows
    )


def map_assembled_blocks(gc: GradedComplex, theory: Theory, fn) -> list:
    """``fn(C, members)`` for every block of ``khovanov._map_blocks(gc,
    theory, …)``, with C the block's engine complex (``block_complex``),
    assembled when the block's turn comes."""

    def assembled(members, index):
        return fn(block_complex(gc, theory, members, index), members)

    return _map_blocks(gc, theory, assembled)


def k_filtration_pages(diagram: AnnularDiagram) -> PageTable:
    """Spectral sequence of the k-grading filtration on the Kh complex, to
    page k-span + 2.

    Filtration degree is -k so shifts are nonnegative; page keys are
    (-k, i, j).  Page 1 carries the AKh ranks, the last page the Kh ranks.
    Each j block of the Kh complex is regraded (``khovanov._map_blocks``).
    """
    gc = build_complex(diagram)
    kspan = (max(gc.gk) - min(gc.gk)) if gc.n_generators else 0
    pages = PageTable(max_page=kspan + 2)

    def block_pages(C, members):
        C.fdeg = [-gc.gk[g] for g in members]
        C.aux = [(gc.gi[g], gc.gj[g]) for g in members]
        return spectral_pages(C, pages.max_page)

    for block in map_assembled_blocks(gc, Theory.KH, block_pages):
        pages.add(block.ranks, block.d_nonzero)
    return pages


def _add_arrow(C: FilteredComplex, x: int, y: int) -> None:
    """Add the arrow x -> y to C in place, rebasing a row whose offset lies
    above the new bit; an arrow already present raises."""
    for rows, offsets, a, b in ((C.out, C.out_off, x, y), (C.inc, C.inc_off, y, x)):
        off = offsets[a]
        if b < off:
            rows[a] <<= off - b
            offsets[a] = off = b
        bit = 1 << (b - off)
        if rows[a] & bit:
            raise FilteredComplexError(f"repeated arrow from {x}")
        rows[a] |= bit


def fold(C: FilteredComplex, members: list[int], tau: list[int]) -> list[int]:
    """Fold C, the cover block with members[x] at engine index x, into its
    materialized Tate block: add the theta arrows g -> g and g -> tau g of
    every generator g that is not equivariant, which ``tate.hv_pages``
    leaves implicit.  Returns tau on the block's engine indices; a tau
    that leaves the block or changes its gradings raises
    FilteredComplexError.  The total-homology and column-filtration
    oracles read these blocks, with the self-loops that ``f2algebra``'s
    sweep never pivots on."""
    local = {g: x for x, g in enumerate(members)}
    local_tau = [local.get(tau[g], -1) for g in members]
    if any(t < 0 or C.aux[t] != C.aux[x] for x, t in enumerate(local_tau)):
        raise FilteredComplexError("arrow leaves its grading block")
    for x, t in enumerate(local_tau):
        if t != x:
            _add_arrow(C, x, x)
            _add_arrow(C, x, t)
    return local_tau


def total_diagonal_ranks(
    cover: GradedComplex, tau: list[int], theory: Theory
) -> dict[tuple, int]:
    """Total-complex homology ranks of the folded Tate complex of ``cover``
    in ``theory``, with chain involution ``tau``, keyed (j, k) (AKh) or
    (j,) (Kh); they are the same on every diagonal i + t."""

    def block_ranks(C, members):
        fold(C, members, tau)
        return cancellation_ranks(C)

    table: dict[tuple, int] = {}
    for ranks in map_assembled_blocks(cover, theory, block_ranks):
        for key, rank in ranks.items():
            key = key[1:] if theory is Theory.AKH else key[1:2]
            table[key] = table.get(key, 0) + rank
    return table


@dataclass
class VhPages:
    """Column-filtered spectral sequence; page 1 carries the cover
    homology.  Keys are (i, j, k) for AKh and (i, j) for Kh."""

    pages: PageTable
    e1_ok: bool


def vh_pages(
    cover: GradedComplex, tau: list[int], theory: Theory, cover_homology: dict[tuple, int]
) -> VhPages:
    """Spectral sequence of the column-wise (t) filtration of the Tate
    complex of ``cover`` in ``theory``, with chain involution ``tau``,
    pages 0-2; ``e1_ok`` holds when page 1 equals ``cover_homology``, the
    cover table of ``tate.hv_pages``.

    An arrow g -> g' moves a = 1 + i(g) - i(g') columns, so page r cancels
    the arrows that shift i by 1 - r.  The blocks are folded as
    ``hv_pages`` folds them and run on every CPU (``khovanov._map_blocks``).
    """
    pages = PageTable(max_page=2)

    def block_pages(C, members):
        fold(C, members, tau)
        masks = f2algebra.degree_masks(C)
        ranks, moved = [], []
        for r in range(pages.max_page + 1):
            ranks.append(graded_as(theory, f2algebra.rank_table(C)))
            moved.append(f2algebra.cancel_shift_level(C, 1 - r, masks))
        return ranks, moved

    for ranks, moved in map_assembled_blocks(cover, theory, block_pages):
        pages.add(ranks, moved)
    return VhPages(pages=pages, e1_ok=pages.table(1) == cover_homology)


def graded_as(theory: Theory, table: dict[tuple, int]) -> dict[tuple, int]:
    """A block rank table keyed (i, j, k) with the keys of ``theory``:
    (i, j, k) for AKh, (i, j) for Kh, summed over k."""
    if theory is Theory.AKH:
        return table
    out: dict[tuple, int] = {}
    for (i, j, _), rank in table.items():
        out[i, j] = out.get((i, j), 0) + rank
    return out


def hv_pages_of(cover: GradedComplex, tau: list[int], theory: Theory) -> HvPages:
    """The ``tate.hv_pages`` of ``theory`` run alone."""
    return hv_pages(cover, tau, (theory,))[1][theory]


def at_t_minus_one(poly: dict[tuple, int]) -> dict[tuple, int]:
    """{(q, x): sum of (-1)^t c} of a polynomial {(t, q, x): c}, zeros dropped:
    the graded Euler characteristic of a rank table keyed (i, j, k)."""
    out: dict[tuple, int] = {}
    for (t, q, x), c in poly.items():
        out[q, x] = out.get((q, x), 0) + (-1) ** t * c
    return {key: c for key, c in out.items() if c}


def corpus_words() -> list[BraidWord]:
    """B2 words up to 4 letters and B3 words up to 3 letters."""
    words = []
    for length in range(5):
        for letters in itertools.product([1, -1], repeat=length):
            words.append(BraidWord(2, letters))
    for length in range(4):
        for letters in itertools.product([1, -1, 2, -2], repeat=length):
            words.append(BraidWord(3, letters))
    return words


def alphabet(strands: int) -> list[int]:
    """The letters of B_strands: every generator and its inverse."""
    return [g for a in range(1, strands) for g in (a, -a)]


def mirror(word: BraidWord) -> BraidWord:
    """Mirror image: every letter sign flipped."""
    return BraidWord(word.strands, tuple(-g for g in word.letters))


# -- reference resolutions and edge types (oracle path): union-find over
# the ports, and edges classified by comparing port sets, sharing no code
# with ``cube.PortLinks`` or ``cube.classify_resolutions``


def reference_resolve(diagram: AnnularDiagram, alpha: int) -> cube.Resolution:
    """The resolution at ``alpha``: the circles are the union-find classes
    of the ports, sorted by their lowest port, with their seam counts
    counted over the seam's m unions."""
    c, m = diagram.n_crossings, diagram.strands
    if alpha < 0 or alpha >> c:
        raise ValueError(f"bitstring {alpha} does not fit {c} crossings")

    n_ports = (c + 1) * m
    parent = list(range(n_ports))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for level, cr in enumerate(diagram.crossings):
        bit = (alpha >> level) & 1
        braidlike = (bit == 0) == (cr.sign > 0)
        base, above = level * m, (level + 1) * m
        if braidlike:
            for s in range(m):
                union(base + s, above + s)
        else:
            p = cr.position
            union(base + p, base + p + 1)
            union(above + p, above + p + 1)
            for s in range(m):
                if s != p and s != p + 1:
                    union(base + s, above + s)

    seam_base = c * m
    for s in range(m):
        union(seam_base + s, s)

    members: dict[int, list[int]] = {}
    for port in range(n_ports):
        members.setdefault(find(port), []).append(port)
    seam_counts: dict[int, int] = {}
    for s in range(m):
        root = find(seam_base + s)
        seam_counts[root] = seam_counts.get(root, 0) + 1

    roots = sorted(members, key=lambda root: min(members[root]))
    circle_of = [0] * n_ports
    for idx, root in enumerate(roots):
        for port in members[root]:
            circle_of[port] = idx
    circles = tuple(
        cube.Circle(min_port=min(members[root]), seam_count=seam_counts.get(root, 0))
        for root in roots
    )
    return cube.Resolution(vertex=alpha, circles=circles, circle_of=bytes(circle_of))


def circle_ports(res: cube.Resolution) -> list[frozenset[int]]:
    """The port set of each circle of ``res``, read off its port table."""
    ports: list[set[int]] = [set() for _ in res.circles]
    for port, idx in enumerate(res.circle_of):
        ports[idx].add(port)
    return [frozenset(p) for p in ports]


def cube_edges(c: int):
    """The edges alpha -> alpha | 1 << b of a c-cube with the crossing b
    each flips, alpha ascending, then b: the order ``build_complex``
    classifies them in."""
    return (
        (alpha, alpha | 1 << b, b) for alpha in range(1 << c) for b in range(c)
        if not (alpha >> b) & 1
    )


def reference_classify(source: cube.Resolution, target: cube.Resolution) -> cube.EdgeType:
    """The edge between two resolutions that differ at one crossing: the
    participating circles are those whose port set the other side lacks,
    and the rest pair off by equal port sets."""
    source_ports, target_ports = circle_ports(source), circle_ports(target)
    target_index = {ports: i for i, ports in enumerate(target_ports)}
    source_index = {ports: i for i, ports in enumerate(source_ports)}

    src_part = tuple(i for i, ports in enumerate(source_ports) if ports not in target_index)
    tgt_part = tuple(i for i, ports in enumerate(target_ports) if ports not in source_index)
    correspondence = tuple(
        (i, target_index[ports]) for i, ports in enumerate(source_ports) if ports in target_index
    )

    if len(src_part) == 2 and len(tgt_part) == 1:
        kind = "merge"
    elif len(src_part) == 1 and len(tgt_part) == 2:
        kind = "split"
    else:
        raise cube.UnclassifiableEdge(
            f"{len(src_part)} source / {len(tgt_part)} target circles changed"
        )

    src_seams = [source.circles[i].seam_count for i in src_part]
    tgt_seams = [target.circles[i].seam_count for i in tgt_part]
    if sum(src_seams) != sum(tgt_seams):
        raise cube.UnclassifiableEdge(f"{kind} with seam counts {src_seams} -> {tgt_seams}")
    return cube.EdgeType(
        kind=kind,
        source_circles=src_part,
        target_circles=tgt_part,
        correspondence=correspondence,
    )


def classify_edge(diagram: AnnularDiagram, alpha: int, alpha_prime: int) -> cube.EdgeType:
    """Classify a cube edge given by a bit increment alpha -> alpha_prime,
    resolving both ends afresh (``reference_resolve``,
    ``reference_classify``)."""
    diff = alpha ^ alpha_prime
    if cube.hamming(diff) != 1 or not (alpha_prime & diff):
        raise ValueError(
            f"{cube.format_bits(alpha_prime, diagram.n_crossings)} is not a bit increment "
            f"from {cube.format_bits(alpha, diagram.n_crossings)}"
        )
    return reference_classify(
        reference_resolve(diagram, alpha), reference_resolve(diagram, alpha_prime)
    )


def labels_of(gc: GradedComplex, g: int) -> int:
    """The label bitmask of generator ``g`` (bit c set when circle c is
    "+"), read from its index within its vertex."""
    return (g - gc.offsets[gc.vertex_of[g]]) << gc.reduced


def tau_reference(gc: GradedComplex, g: int) -> int:
    """The chain involution on one generator of a cover complex with 2n
    crossings: each "+" circle of its labeling (``labels_of``) goes to the
    circle of the swapped vertex through the image of its minimal port,
    level l going to (l + n) mod 2n (oracle for ``tate.tau_table``)."""
    n = gc.diagram.n_crossings // 2
    m = gc.diagram.strands
    beta = gc.vertex_of[g]
    labels = labels_of(gc, g)
    tbeta = cube.swap_halves(beta, gc.diagram.n_crossings) if n else beta
    res, tres = gc.resolutions[beta], gc.resolutions[tbeta]
    circle_of = tres.circle_of
    tlabels = 0
    for ci, circle in enumerate(res.circles):
        level, strand = divmod(circle.min_port, m)
        if (labels >> ci) & 1:
            tlabels |= 1 << circle_of[(level + n) % (2 * n or 1) * m + strand]
    return gc.index(tbeta, tlabels)


def lift_reference(gq: GradedComplex, gcov: GradedComplex, v: int) -> int:
    """The equivariant lift of quotient generator v: at the doubled vertex,
    a cover circle is "+" when the quotient circle through the projection
    (level mod n, strand) of its minimal port is "+" in v's labeling
    (``labels_of``; oracle for ``tate._lift_table``)."""
    n = gq.diagram.n_crossings
    m = gq.diagram.strands
    alpha = gq.vertex_of[v]
    labels = labels_of(gq, v)
    beta = alpha | alpha << n
    qres, cres = gq.resolutions[alpha], gcov.resolutions[beta]
    circle_of = qres.circle_of
    clabels = 0
    for ci, circle in enumerate(cres.circles):
        level, strand = divmod(circle.min_port, m)
        if (labels >> circle_of[(level % n if n else level) * m + strand]) & 1:
            clabels |= 1 << ci
    return gcov.index(beta, clabels)


def arrows(rows: list[list[int]]):
    """(source, target) of every arrow of a list of target rows."""
    return [(src, tgt) for src, row in enumerate(rows) for tgt in row]


def without(row: tuple[int, ...], y: int) -> tuple[int, ...]:
    """``row`` less its first entry ``y``: a cube complex's rows are
    tuples, so a test that drops an arrow replaces the row."""
    i = row.index(y)
    return row[:i] + row[i + 1:]


def view(gc: GradedComplex, theory: Theory) -> list[list[int]]:
    """The rows of ``gc`` as the engine reads them in ``theory``
    (``khovanov.rows_of``)."""
    row = rows_of(gc, theory)
    return [row(g) for g in range(gc.n_generators)]


def theory_rows(gc: GradedComplex, theory: Theory) -> list[list[int]]:
    """The arrow targets of every generator of the Kh complex ``gc`` in
    ``theory``: for AKh, the arrows whose ends have equal k (oracle path;
    the oracles share no filter code with ``khovanov.rows_of``)."""
    if theory is Theory.KH:
        return gc.out
    return [[y for y in row if gc.gk[y] == gc.gk[x]] for x, row in enumerate(gc.out)]


# -- reference cube builder (oracle path): each edge sorted into one of the
# six annular classes by the seam parity of its circles, one edge map call
# per source labeling, gradings circle by circle, and d^2 counted over
# length-2 paths

# (kind, source triviality, target triviality), nontrivial circles first
_ANNULAR_CLASSES = {
    ("merge", (False, False), (True,)): "E",
    ("merge", (False, True), (False,)): "D",
    ("merge", (True, True), (True,)): "F",
    ("split", (False,), (False, True)): "A",
    ("split", (True,), (False, False)): "B",
    ("split", (True,), (True, True)): "C",
}


def _nontrivial_first(res: cube.Resolution, circles: tuple[int, ...]) -> list[int]:
    return sorted(circles, key=lambda i: res.circles[i].trivial)


def annular_class(source: cube.Resolution, target: cube.Resolution, edge: cube.EdgeType) -> str:
    """The annular class A-F of a classified edge, from the seam parity of
    its participating circles:

      A (split, v -> vw),  B (split, w -> vv),  C (split, w -> ww),
      D (merge, vw -> v),  E (merge, vv -> w),  F (merge, ww -> w)

    with v a nontrivial and w a trivial circle."""
    key = (
        edge.kind,
        tuple(source.circles[i].trivial for i in _nontrivial_first(source, edge.source_circles)),
        tuple(target.circles[i].trivial for i in _nontrivial_first(target, edge.target_circles)),
    )
    if key not in _ANNULAR_CLASSES:
        raise cube.UnclassifiableEdge(f"{key[0]} with triviality pattern {key[1]} -> {key[2]}")
    return _ANNULAR_CLASSES[key]


def _transport(edge: cube.EdgeType, labels: int) -> int:
    base = 0
    for si, ti in edge.correspondence:
        if (labels >> si) & 1:
            base |= 1 << ti
    return base


def _merge_targets(theory: Theory, cls: str, source: cube.Resolution,
                   edge: cube.EdgeType, labels: int) -> list[int]:
    c1, c2 = edge.source_circles
    d0 = edge.target_circles[0]
    l1 = (labels >> c1) & 1
    l2 = (labels >> c2) & 1
    base = _transport(edge, labels)
    if theory is Theory.KH or cls == "F":
        if l1 and l2:
            return [base | (1 << d0)]
        if l1 or l2:
            return [base]
        return []
    if cls == "D":
        v, w = _nontrivial_first(source, edge.source_circles)
        return [base | ((labels >> v) & 1) << d0] if (labels >> w) & 1 else []
    if cls == "E":
        return [base] if l1 != l2 else []
    raise cube.UnclassifiableEdge(cls)


def _split_targets(theory: Theory, cls: str, target: cube.Resolution,
                   edge: cube.EdgeType, labels: int) -> list[int]:
    c0 = edge.source_circles[0]
    d1, d2 = edge.target_circles
    l0 = (labels >> c0) & 1
    base = _transport(edge, labels)
    if theory is Theory.KH or cls == "C":
        if l0:
            return [base | (1 << d1), base | (1 << d2)]
        return [base]
    if cls == "A":
        # the trivial offspring is labeled "-" either way
        v, _ = _nontrivial_first(target, edge.target_circles)
        return [base | (l0 << v)]
    if cls == "B":
        return [base | (1 << d1), base | (1 << d2)] if l0 else []
    raise cube.UnclassifiableEdge(cls)


def edge_map(theory: Theory, source: cube.Resolution, target: cube.Resolution):
    """The map of the cube edge ``source -> target`` as a function from a
    source labeling to its target label masks: the Khovanov merge/split
    for Kh, the map of the edge's annular class for AKh."""
    edge = reference_classify(source, target)
    cls = annular_class(source, target, edge)
    if edge.kind == "merge":
        return functools.partial(_merge_targets, theory, cls, source, edge)
    return functools.partial(_split_targets, theory, cls, target, edge)


def reference_gradings(res: cube.Resolution, labels: int, n_pos: int, n_neg: int):
    """(i, j, k) of a labeled resolution, read circle by circle."""
    weight = bin(res.vertex).count("1")
    plus = bin(labels).count("1")
    k = 0
    for idx, circle in enumerate(res.circles):
        if not circle.trivial:
            k += 1 if (labels >> idx) & 1 else -1
    return weight - n_neg, 2 * plus - res.n_circles + weight + n_pos - 2 * n_neg, k


def reference_complex(diagram: AnnularDiagram, theory: Theory):
    """(out, gi, gj, gk) of the cube complex, one generator at a time, in
    the generator order and arrow order of ``build_complex``, from the
    reference resolutions (``reference_resolve``)."""
    c = diagram.n_crossings
    resolutions = [reference_resolve(diagram, a) for a in range(1 << c)]
    offsets, gi, gj, gk = [], [], [], []
    for res in resolutions:
        offsets.append(len(gi))
        for labels in range(1 << res.n_circles):
            i, j, k = reference_gradings(res, labels, diagram.n_pos, diagram.n_neg)
            gi.append(i)
            gj.append(j)
            gk.append(k)
    out: list[list[int]] = [[] for _ in gi]
    for alpha, res in enumerate(resolutions):
        for b in range(c):
            if (alpha >> b) & 1:
                continue
            alpha2 = alpha | (1 << b)
            targets = edge_map(theory, res, resolutions[alpha2])
            for labels in range(1 << res.n_circles):
                for tlabels in targets(labels):
                    out[offsets[alpha] + labels].append(offsets[alpha2] + tlabels)
    return out, gi, gj, gk


def counted_d_squared_vanishes(out: list[list[int]]) -> bool:
    """d^2 = 0 by counting the length-2 paths from every generator."""
    from collections import Counter

    for x in range(len(out)):
        paths: Counter = Counter()
        for y in out[x]:
            for z in out[y]:
                paths[z] += 1
        if any(n % 2 for n in paths.values()):
            return False
    return True


def builder_matches_reference(gc: GradedComplex) -> bool:
    """The full ``build_complex`` output equals the reference Kh complex,
    its resolutions the reference resolutions, its AKh rows as
    ``khovanov.rows_of`` reads them equal the reference AKh complex, arrow
    for arrow, and the path-counting d^2 check accepts both references."""
    c = gc.diagram.n_crossings
    if gc.resolutions != [reference_resolve(gc.diagram, a) for a in range(1 << c)]:
        return False
    for theory in (Theory.KH, Theory.AKH):
        out, gi, gj, gk = reference_complex(gc.diagram, theory)
        rows = [list(row) for row in view(gc, theory)]
        if (rows, list(gc.gi), list(gc.gj), list(gc.gk)) != (out, gi, gj, gk):
            return False
        if not counted_d_squared_vanishes(out):
            return False
    return True


def reduced_matches_full(reduced: GradedComplex, full: GradedComplex) -> bool:
    """The reduced Kh complex is the full one restricted to the labelings
    with circle 0 "-": same gradings, same arrows in the same order, and
    no arrow of such a labeling reaches one with circle 0 "+"."""
    index = {}
    for g in range(full.n_generators):
        labels = labels_of(full, g)
        if not labels & 1:
            index[g] = reduced.index(full.vertex_of[g], labels)
    if sorted(index.values()) != list(range(reduced.n_generators)):
        return False
    for g, r in index.items():
        if any(y not in index for y in full.out[g]):
            return False
        if (
            [index[y] for y in full.out[g]] != list(reduced.out[r])
            or (full.gi[g], full.gj[g], full.gk[g])
            != (reduced.gi[r], reduced.gj[r], reduced.gk[r])
            or (full.vertex_of[g], labels_of(full, g))
            != (reduced.vertex_of[r], labels_of(reduced, r))
        ):
            return False
    return True


def dense_homology_of(gc: GradedComplex, theory: Theory) -> dict[tuple, int]:
    """Rank-nullity homology via dense Gaussian elimination (oracle path).

    Same keys as ``homology_of``: (i, j, k) for AKh, (i, j) for Kh.
    """
    key_of = _block_key(gc, theory)
    rows = theory_rows(gc, theory)
    groups: dict[tuple, list[int]] = {}
    for g in range(gc.n_generators):
        groups.setdefault((key_of(g), gc.gi[g]), []).append(g)

    ranks: dict[tuple, int] = {}
    for (key, i), gens in groups.items():
        targets = groups.get((key, i + 1))
        if not targets:
            ranks[(key, i)] = 0
            continue
        ranks[(key, i)] = dense_rank(_dense_rows(rows, gens, targets))

    table: dict[tuple, int] = {}
    for (key, i), gens in groups.items():
        h = len(gens) - ranks.get((key, i), 0) - ranks.get((key, i - 1), 0)
        if h:
            table[(i, *key)] = h
    return table


def _dense_rows(rows: list[list[int]], gens: list[int], targets: list[int]):
    """The 0/1 rows of the differential from ``gens`` to ``targets``, one
    at a time, so that only the eliminated rows are kept."""
    tindex = {g: col for col, g in enumerate(targets)}
    for g in gens:
        row = [0] * len(targets)
        for y in rows[g]:
            row[tindex[y]] ^= 1
        yield row


def _block_key(gc: GradedComplex, theory: Theory):
    if theory is Theory.AKH:
        return lambda g: (gc.gj[g], gc.gk[g])
    return lambda g: (gc.gj[g],)


def _interior(table: dict[tuple, int], pos: int, values) -> dict | None:
    """Drop coordinate ``pos`` of every key whose value there lies in
    ``values``; None unless the ranks agree at each of those values."""
    per_value = {v: {} for v in values}
    for key, rank in table.items():
        if key[pos] in per_value:
            per_value[key[pos]][key[:pos] + key[pos + 1 :]] = rank
    first, *rest = per_value.values()
    return first if all(other == first for other in rest) else None


class WindowedTate:
    """The literal Tate bicomplex on columns t in [0, window) (oracle path).

    Column t is a copy of the ``theory`` arrows of the cover's Kh complex,
    read through ``theory_rows``; (g, t) has horizontal arrows
    to (g, t+1) and (tau g, t+1) unless g is equivariant, and arrows
    leaving the last column are dropped (still a complex).  Claims are read
    on interior columns, farther than the cover's i-span from both edges,
    and each reading is None unless every interior column agrees.  The
    default window, twice the span plus five, has three interior columns.
    """

    def __init__(
        self, gc: GradedComplex, tau: list[int], theory: Theory, window: int | None = None
    ):
        self.gc, self.tau, self.theory = gc, tau, theory
        self.span = gc.i_span()
        self.window = 2 * self.span + 5 if window is None else window
        self.columns = [
            t for t in range(self.window) if self.span < t < self.window - 1 - self.span
        ]
        if not self.columns:
            raise ValueError(f"window {self.window} leaves no interior column")

    def blocks(self, fdeg, aux) -> list[tuple[BitsetComplex, list]]:
        """Engine complexes per (j, k) (AKh) or j (Kh) block with members
        (g, t) in column-major order; ``fdeg(g, t)``, ``aux(g, t)`` grade."""
        gc, tau, T = self.gc, self.tau, self.window
        key_of = _block_key(gc, self.theory)
        rows = theory_rows(gc, self.theory)
        groups: dict[tuple, list[int]] = {}
        for g in range(gc.n_generators):
            groups.setdefault(key_of(g), []).append(g)
        blocks = []
        for gens in groups.values():
            nb = len(gens)
            pos = {g: p for p, g in enumerate(gens)}
            vout, vinc = [0] * nb, [0] * nb
            for g in gens:
                for y in rows[g]:
                    vout[pos[g]] |= 1 << pos[y]
                    vinc[pos[y]] |= 1 << pos[g]
            # (g, t) -> (g, t+1), (tau g, t+1); tau is an involution, so
            # the same pattern lists the horizontal sources one column back
            horiz = [
                (1 << pos[g]) | (1 << pos[tau[g]]) if tau[g] != g else 0 for g in gens
            ]
            C = BitsetComplex()
            members = [(g, t) for t in range(T) for g in gens]
            C.fdeg = [fdeg(g, t) for g, t in members]
            C.aux = [aux(g, t) for g, t in members]
            C.out = [
                (vout[p] | (horiz[p] << nb if t + 1 < T else 0)) << (t * nb)
                for t in range(T)
                for p in range(nb)
            ]
            C.inc = [
                (vinc[p] << nb | horiz[p]) << ((t - 1) * nb) if t else vinc[p]
                for t in range(T)
                for p in range(nb)
            ]
            C.alive = (1 << len(members)) - 1
            blocks.append((C, members))
        return blocks

    def hv(self, max_page: int):
        """Interior row-filtered pages r = 0..max_page keyed (i, *block
        key), the induced (delta-i = 2, delta-t = -1) arrows (g1, g2) read
        after cancelling exactly the tau arrows, and the sorted stray
        nonequivariant survivors g of that cancellation."""
        gc, tau, T = self.gc, self.tau, self.window
        key_of, cols = _block_key(gc, self.theory), set(self.columns)
        tables = {r: {} for r in range(max_page + 1)}
        observed, strays = set(), set()
        for C, members in self.blocks(lambda g, t: gc.gi[g], lambda g, t: (t, *key_of(g))):
            index = {m: x for x, m in enumerate(members)}
            masks = C.degree_masks()
            pages = [C.rank_table()]
            while True:  # the tau sweep, in member order until none remain
                pending = []
                for x in C.generators():
                    g, t = members[x]
                    if tau[g] != g and t + 1 < T and C.has_arrow(x, index[(tau[g], t + 1)]):
                        pending.append((x, index[(tau[g], t + 1)]))
                if not pending:
                    break
                for x, y in pending:
                    if C.has_arrow(x, y):
                        C.cancel_arrow(x, y)
            for x in C.generators():
                g1, t1 = members[x]
                if t1 not in cols:
                    continue
                if tau[g1] != g1:
                    strays.add(g1)
                for y in C.targets(x):
                    g2, t2 = members[y]
                    if t2 in cols and t2 == t1 - 1 and gc.gi[g2] - gc.gi[g1] == 2:
                        observed.add((g1, t1, g2, t2))
            C.cancel_shift_level(0, masks)
            for r in range(1, max_page + 1):
                pages.append(C.rank_table())
                C.cancel_shift_level(r, masks)
            for r, table in enumerate(pages):
                for key, rank in table.items():
                    tables[r][key] = tables[r].get(key, 0) + rank
        pairs = {(g1, g2) for g1, _, g2, _ in observed}
        steps = [t for t in self.columns if t - 1 in cols]
        if observed != {(g1, t, g2, t - 1) for g1, g2 in pairs for t in steps}:
            pairs = None
        interior = [_interior(tables[r], 1, self.columns) for r in range(max_page + 1)]
        return interior, pairs, sorted(strays)

    def vh(self, max_page: int = 2) -> list[dict | None]:
        """Interior column-filtered pages r = 0..max_page keyed (i, *block key)."""
        gc, key_of = self.gc, _block_key(self.gc, self.theory)
        tables = {r: {} for r in range(max_page + 1)}
        for C, _ in self.blocks(lambda g, t: t, lambda g, t: (gc.gi[g], *key_of(g))):
            pages = spectral_pages(C, max_page, engine=BitsetComplex)
            for r in range(max_page + 1):
                for key, rank in pages.table(r).items():
                    tables[r][key] = tables[r].get(key, 0) + rank
        return [_interior(tables[r], 0, self.columns) for r in range(max_page + 1)]

    def diagonals(self) -> dict | None:
        """Total homology on interior diagonals i + t, keyed by block key."""
        gc, key_of = self.gc, _block_key(self.gc, self.theory)
        table: dict[tuple, int] = {}
        for C, _ in self.blocks(lambda g, t: gc.gi[g] + t, lambda g, t: key_of(g)):
            for key, rank in C.homology_ranks().items():
                table[key] = table.get(key, 0) + rank
        gi = gc.gi
        band = self.span + 1
        diagonals = range(min(gi) + band, max(gi) + self.window - band)
        return _interior(table, 0, diagonals)
