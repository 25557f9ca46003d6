"""AKh and Kh chain complexes of annular diagrams over F2.

The edge maps are the six annular types (labels on participating circles,
v = nontrivial, w = trivial):

  A (split, v -> vw):  v- -> v-w-,  v+ -> v+w-
  B (split, w -> vv):  w+ -> v+v- + v-v+,  w- -> 0
  C (split, w -> ww):  w+ -> w+w- + w-w+,  w- -> w-w-
  D (merge, vw -> v):  v+w+ -> v+,  v-w+ -> v-,  (.)w- -> 0
  E (merge, vv -> w):  v+v- -> w-,  v-v+ -> w-,  v+v+ -> 0,  v-v- -> 0
  F (merge, ww -> w):  w+w+ -> w+,  w+w- -> w-,  w-w+ -> w-,  w-w- -> 0

and the Khovanov merge/split (ignoring triviality):

  merge:  x+x+ -> x+,  x+x- -> x-,  x-x+ -> x-,  x-x- -> 0
  split:  x+ -> x+x- + x-x+,  x- -> x-x-

Every AKh arrow preserves (j, k) and raises i by 1; Kh arrows preserve j
and shift k by 0 or -2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import cube
from .f2algebra import FilteredComplex, FilteredComplexError, PageTable, homology_ranks, spectral_pages
from .links import MAX_CROSSINGS, AnnularDiagram, DiagramTooLarge


class Theory(enum.Enum):
    AKH = "akh"
    KH = "kh"


@dataclass
class GradedComplex:
    """The cube-of-chains complex of a diagram for one theory.

    Generators are indexed consecutively: all labelings of vertex 0, then
    of vertex 1, and so on, with label bitmasks ascending.  ``out[g]``
    lists arrow targets in construction order.
    """

    diagram: AnnularDiagram
    theory: Theory
    resolutions: list[cube.Resolution]
    offsets: list[int]
    n_generators: int
    vertex_of: list[int]
    labels_of: list[int]
    gi: list[int]
    gj: list[int]
    gk: list[int]
    out: list[list[int]] = field(repr=False)

    def index(self, vertex: int, labels: int) -> int:
        return self.offsets[vertex] + labels

    def arrows(self):
        for src in range(self.n_generators):
            for tgt in self.out[src]:
                yield src, tgt

    def n_arrows(self) -> int:
        return sum(len(row) for row in self.out)

    def i_span(self) -> int:
        if not self.n_generators:
            return 0
        return max(self.gi) - min(self.gi)

    def arrow_set(self) -> set[tuple[int, int]]:
        return set(self.arrows())

    def to_filtered(self, fdeg, aux) -> FilteredComplex:
        """Engine complex with fdeg(g) / aux(g) computed per generator."""
        C = FilteredComplex()
        for g in range(self.n_generators):
            C.add_generator(fdeg(g), aux(g))
        for src, tgt in self.arrows():
            C.add_arrow(src, tgt)
        return C

    def check_d_squared(self) -> None:
        from collections import Counter

        for x in range(self.n_generators):
            paths: Counter = Counter()
            for y in self.out[x]:
                for z in self.out[y]:
                    paths[z] += 1
            odd = [z for z, n in paths.items() if n % 2]
            if odd:
                raise FilteredComplexError(f"d^2 != 0 at generator {x}")


def _transport(edge: cube.EdgeType, labels: int) -> int:
    base = 0
    for si, ti in edge.correspondence.items():
        if (labels >> si) & 1:
            base |= 1 << ti
    return base


def _merge_targets(theory: Theory, edge: cube.EdgeType, labels: int) -> list[int]:
    c1, c2 = edge.source_circles  # nontrivial first for type D
    d0 = edge.target_circles[0]
    l1 = (labels >> c1) & 1
    l2 = (labels >> c2) & 1
    base = _transport(edge, labels)
    if theory is Theory.KH or edge.annular_class == "F":
        if l1 and l2:
            return [base | (1 << d0)]
        if l1 or l2:
            return [base]
        return []
    if edge.annular_class == "D":
        # c1 is the nontrivial circle, c2 the trivial one.
        return [base | (l1 << d0)] if l2 else []
    if edge.annular_class == "E":
        return [base] if l1 != l2 else []
    raise cube.UnclassifiableEdge(edge.annular_class)


def _split_targets(theory: Theory, edge: cube.EdgeType, labels: int) -> list[int]:
    c0 = edge.source_circles[0]
    d1, d2 = edge.target_circles  # nontrivial first for type A
    l0 = (labels >> c0) & 1
    base = _transport(edge, labels)
    if theory is Theory.KH or edge.annular_class == "C":
        if l0:
            return [base | (1 << d1), base | (1 << d2)]
        return [base]
    if edge.annular_class == "A":
        # the trivial offspring is labeled "-" either way
        return [base | (l0 << d1)]
    if edge.annular_class == "B":
        return [base | (1 << d1), base | (1 << d2)] if l0 else []
    raise cube.UnclassifiableEdge(edge.annular_class)


def edge_targets(theory: Theory, edge: cube.EdgeType, labels: int) -> list[int]:
    """Target label masks of one edge map applied to one source labeling."""
    if edge.kind == "merge":
        return _merge_targets(theory, edge, labels)
    return _split_targets(theory, edge, labels)


def build_complex(
    diagram: AnnularDiagram,
    theory: Theory,
    resolutions: list[cube.Resolution] | None = None,
) -> GradedComplex:
    """Build the full cube-of-chains complex and verify d^2 = 0."""
    c = diagram.n_crossings
    if c > MAX_CROSSINGS:
        raise DiagramTooLarge(f"{c} crossings exceeds the {MAX_CROSSINGS}-crossing guard")
    n_pos, n_neg = diagram.n_pos, diagram.n_neg

    if resolutions is None:
        resolutions = [cube.resolve(diagram, a) for a in range(1 << c)]

    offsets, total = [], 0
    for res in resolutions:
        if res.n_circles > cube.MAX_CIRCLES:
            raise OverflowError(f"{res.n_circles} circles exceeds the guard")
        offsets.append(total)
        total += 1 << res.n_circles

    vertex_of = [0] * total
    labels_of = [0] * total
    gi = [0] * total
    gj = [0] * total
    gk = [0] * total
    for alpha, res in enumerate(resolutions):
        off = offsets[alpha]
        for labels in range(1 << res.n_circles):
            g = off + labels
            vertex_of[g] = alpha
            labels_of[g] = labels
            gi[g], gj[g], gk[g] = cube.gradings(res, labels, n_pos, n_neg)

    out: list[list[int]] = [[] for _ in range(total)]
    for alpha in range(1 << c):
        res_a = resolutions[alpha]
        src_off = offsets[alpha]
        for b in range(c):
            if (alpha >> b) & 1:
                continue
            alpha2 = alpha | (1 << b)
            edge = cube.classify_resolutions(res_a, resolutions[alpha2])
            tgt_off = offsets[alpha2]
            for labels in range(1 << res_a.n_circles):
                for tlabels in edge_targets(theory, edge, labels):
                    out[src_off + labels].append(tgt_off + tlabels)

    gc = GradedComplex(
        diagram=diagram,
        theory=theory,
        resolutions=resolutions,
        offsets=offsets,
        n_generators=total,
        vertex_of=vertex_of,
        labels_of=labels_of,
        gi=gi,
        gj=gj,
        gk=gk,
        out=out,
    )
    gc.check_d_squared()
    return gc


def _blocks(
    gc: GradedComplex, fdeg=None, aux=None, arrows=None
) -> list[tuple[FilteredComplex, list[int]]]:
    """Split into engine complexes along the gradings every arrow preserves:
    (j, k) for AKh, j for Kh.

    ``fdeg(g)`` sets the filtration degree (default i) and ``aux(g)`` the
    auxiliary gradings (default the block key); ``arrows`` defaults to the
    complex's own.  Returns (complex, members) pairs, where members[x] is
    the generator of ``gc`` at engine index x.
    """
    if gc.theory is Theory.AKH:
        block_of = lambda g: (gc.gj[g], gc.gk[g])
    else:
        block_of = lambda g: (gc.gj[g],)
    fdeg = fdeg or gc.gi.__getitem__
    aux = aux or block_of
    blocks: dict[tuple, tuple[FilteredComplex, list[int]]] = {}
    local: list[int] = [0] * gc.n_generators
    for g in range(gc.n_generators):
        key = block_of(g)
        if key not in blocks:
            blocks[key] = (FilteredComplex(), [])
        C, members = blocks[key]
        local[g] = C.add_generator(fdeg(g), aux(g))
        members.append(g)
    for src, tgt in gc.arrows() if arrows is None else arrows:
        key = block_of(src)
        if block_of(tgt) != key:
            raise FilteredComplexError("arrow leaves its grading block")
        blocks[key][0].add_arrow(local[src], local[tgt])
    return list(blocks.values())


def homology_of(gc: GradedComplex) -> dict[tuple, int]:
    """Graded homology ranks: keys (i, j, k) for AKh, (i, j) for Kh."""
    table: dict[tuple, int] = {}
    for C, _ in _blocks(gc):
        table.update(homology_ranks(C))
    return table


def homology(diagram: AnnularDiagram, theory: Theory) -> dict[tuple, int]:
    """Rank table of AKh (keys (i, j, k)) or Kh (keys (i, j)) over F2."""
    return homology_of(build_complex(diagram, theory))


def total_rank(table: dict[tuple, int]) -> int:
    return sum(table.values())


def k_filtration_pages(
    diagram: AnnularDiagram, max_page: int | None = None
) -> PageTable:
    """Spectral sequence of the k-grading filtration on the Kh complex.

    Filtration degree is -k so shifts are nonnegative; page keys are
    (-k, i, j).  Page 1 carries the AKh ranks, the last page the Kh ranks.
    """
    gc = build_complex(diagram, Theory.KH)
    if max_page is None:
        kspan = (max(gc.gk) - min(gc.gk)) if gc.n_generators else 0
        max_page = kspan + 2

    blocks = _blocks(
        gc, fdeg=lambda g: -gc.gk[g], aux=lambda g: (gc.gi[g], gc.gj[g])
    )
    return PageTable.merge((spectral_pages(C, max_page) for C, _ in blocks), max_page)
