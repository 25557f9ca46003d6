"""Khovanov chain complexes of annular diagrams over F2, with AKh read off them.

Every edge map is the Khovanov merge or split (labels on the participating
circles):

  merge:  x+x+ -> x+,  x+x- -> x-,  x-x+ -> x-,  x-x- -> 0
  split:  x+ -> x+x- + x-x+,  x- -> x-x-

Kh arrows raise i by 1, preserve j and shift k by 0 or -2.  AKh is the
associated graded of Kh under the annular k-filtration (Asaeda-Przytycki-
Sikora, "Categorification of the Kauffman bracket skein module of
I-bundles over surfaces", AGT 2004; Roberts, "On knot Floer homology in
double branched covers", G&T 2013), so it is not built: ``rows_of`` reads
its arrows off the full Kh complex as the ones that preserve k.

Kh ranks are computed from the reduced complex, a build of its own: the
generators whose marked circle, circle 0 (the one through port 0), is
labeled "-" span a subcomplex with half the generators, and over F2 its
homology h gives Kh^{i,j} = h^{i,j} + h^{i,j-2} (Kh = reduced Kh (x) V,
Shumakovitch, "Torsion of the Khovanov homology", Fund. Math. 2014;
reduced Kh as the marked-"-" subcomplex, Khovanov, "Patterns in knot
cohomology I", Experiment. Math. 2003).  The full complex serves AKh and
the Tate side, where the deck rotation fixes no basepoint.

The complex is built in one pass per cube edge.  Gradings are read per
vertex from popcounts (``cube.vertex_gradings``).  Each edge map is a
table from the labels of its participating circles to their images,
applied at once to every labeling of the other circles; the table and
that transport are tabulated once per distinct edge type.  d^2 = 0 is
checked on every built complex, and ``_blocks`` splits it into engine
complexes along the gradings every arrow of a theory preserves, filtered
by i, assembling each bitset row once.  A block numbers its generators
level by level, so that each offset-relative engine row spans one or two
levels of i rather than the whole block.  ``_blocks`` yields the blocks one
at a time, and every consumer cancels a block in place and drops it before
the next is built, so the largest block, not the sum of all blocks, sets
the memory peak.  A diagram whose complex would have more than
``links.MAX_GENERATORS`` generators is refused with ``DiagramTooLarge``
while its cube is resolved, before any arrow is built.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from . import cube
from .f2algebra import FilteredComplex, FilteredComplexError, homology_ranks
from .links import MAX_GENERATORS, AnnularDiagram, DiagramTooLarge


class Theory(enum.Enum):
    AKH = "akh"
    KH = "kh"


@dataclass
class GradedComplex:
    """The Khovanov cube-of-chains complex of a diagram, full or reduced.

    Generators are indexed consecutively: all labelings of vertex 0, then
    of vertex 1, and so on, with label bitmasks ascending.  ``out[g]``
    lists the Kh arrow targets in construction order; ``rows_of`` reads
    the AKh ones.  A ``reduced`` complex keeps only the labelings with
    circle 0 "-", the one at index ``offsets[vertex] + (labels >> 1)``,
    and serves Kh only.  ``edges`` holds the classified cube edges, source
    vertex ascending, then crossing.
    """

    # Only perfbench/tracer.py reads this, to key its build counts; it goes
    # with ROADMAP item 6.
    theory = Theory.KH

    diagram: AnnularDiagram
    resolutions: list[cube.Resolution]
    offsets: list[int]
    n_generators: int
    vertex_of: list[int]
    gi: list[int]
    gj: list[int]
    gk: list[int]
    out: list[list[int]] = field(repr=False)
    edges: list[cube.EdgeType] = field(repr=False)
    reduced: bool = False

    def index(self, vertex: int, labels: int) -> int:
        return self.offsets[vertex] + (labels >> self.reduced)

    def n_arrows(self) -> int:
        return sum(len(row) for row in self.out)

    def i_span(self) -> int:
        return max(self.gi) - min(self.gi) if self.gi else 0

    def check_d_squared(self) -> None:
        """Raise unless d^2 = 0: sorted, the targets of each generator's
        targets must pair off as equal neighbours, so that every length-2
        path has a partner with the same ends."""
        out = self.out
        for x, row in enumerate(out):
            paths: list[int] = []
            for y in row:
                paths += out[y]
            paths.sort()
            if paths[::2] != paths[1::2]:
                odd = sorted(z for z, n in Counter(paths).items() if n % 2)
                raise FilteredComplexError(
                    f"d^2 != 0 at generator {x}: it reaches {odd[:5]} an odd number of times"
                )


def _edge_rule(edge: cube.EdgeType) -> dict[int, list[int]]:
    """The Khovanov merge or split, by the labels of the participating circles.

    Maps each "+"-mask of the source participating circles to the "+"-masks
    of the target participating circles it is sent to (a mask with no entry
    is sent to zero); the other circles keep their labels.
    """
    if edge.kind == "merge":
        b1, b2 = (1 << c for c in edge.source_circles)
        d0 = 1 << edge.target_circles[0]
        return {b1 | b2: [d0], b1: [0], b2: [0]}
    b0 = 1 << edge.source_circles[0]
    d1, d2 = (1 << c for c in edge.target_circles)
    return {b0: [d1, d2], 0: [0]}


def _transport_table(edge: cube.EdgeType, reduced: bool) -> tuple[list[int], list[int]]:
    """Source labelings with every participating circle "-", ascending,
    and their target labelings, built one circle at a time by doubling.

    ``reduced`` keeps circle 0 "-" and returns labelings shifted right by
    one, the reduced index offsets.
    """
    rest, image = [0], [0]
    for si, ti in edge.correspondence.items():
        if reduced:
            if si == 0:
                continue
            if ti == 0:
                raise FilteredComplexError(
                    f"arrow leaves the reduced complex: circle {si} is carried onto circle 0"
                )
        bit, tbit = 1 << si >> reduced, 1 << ti >> reduced
        rest += [lab | bit for lab in rest]
        image += [lab | tbit for lab in image]
    return rest, image


def _cube_edges(c: int):
    """The edges alpha -> alpha | 1 << b of a c-cube, alpha ascending, then b."""
    return (
        (alpha, alpha | 1 << b) for alpha in range(1 << c) for b in range(c)
        if not (alpha >> b) & 1
    )


def _classify_edges(resolutions: list[cube.Resolution], c: int) -> list[cube.EdgeType]:
    """Every cube edge, classified, in ``_cube_edges`` order.

    Equal edge types are one shared object: a 10-crossing cube has 5,120
    edges but about a hundred types.
    """
    types: dict[tuple, cube.EdgeType] = {}
    edges = []
    for alpha, alpha2 in _cube_edges(c):
        edge = cube.classify_resolutions(resolutions[alpha], resolutions[alpha2])
        key = (
            edge.kind, edge.source_circles, edge.target_circles,
            tuple(edge.correspondence.items()),
        )
        edges.append(types.setdefault(key, edge))
    return edges


def build_complex(
    diagram: AnnularDiagram,
    resolutions: list[cube.Resolution] | None = None,
    edges: list[cube.EdgeType] | None = None,
    reduced: bool = False,
) -> GradedComplex:
    """Build the Khovanov cube-of-chains complex and verify d^2 = 0.

    ``resolutions`` and ``edges`` (as kept by ``GradedComplex``) are reused
    when given.  ``reduced`` builds the Kh subcomplex where circle 0
    is "-", raising FilteredComplexError if an arrow leaves it.  Raises
    DiagramTooLarge before building any arrow, at the first cube vertex
    that brings the generators so far past MAX_GENERATORS, before that
    vertex's labelings are expanded or the next vertex is resolved.
    """
    c = diagram.n_crossings
    n_pos, n_neg = diagram.n_pos, diagram.n_neg

    if resolutions is None:
        # resolved one vertex at a time, so an oversize cube is refused early
        resolutions = (cube.resolve(diagram, a) for a in range(1 << c))

    resolved, offsets, vertex_of, gi, gj, gk = [], [], [], [], [], []
    for alpha, res in enumerate(resolutions):
        size = 1 << res.n_circles >> reduced
        if len(gi) + size > MAX_GENERATORS:
            raise DiagramTooLarge(
                f"the {c}-crossing diagram has more than the {MAX_GENERATORS:,}-"
                f"generator limit: {alpha + 1:,} of its {1 << c:,} cube vertices "
                f"already have {len(gi) + size:,}"
            )
        resolved.append(res)
        offsets.append(len(gi))
        i, js, ks = cube.vertex_gradings(res, n_pos, n_neg)
        if reduced:
            js, ks = js[::2], ks[::2]
        vertex_of += [alpha] * size
        gi += [i] * size
        gj += js
        gk += ks
    total = len(gi)

    if edges is None:
        edges = _classify_edges(resolved, c)
    out: list[list[int]] = [[] for _ in range(total)]
    ids = list(range(total))  # one int object per target, shared by its arrows
    maps: dict[int, tuple] = {}  # per distinct edge object: rule, transport
    for (alpha, alpha2), edge in zip(_cube_edges(c), edges, strict=True):
        if id(edge) not in maps:
            maps[id(edge)] = (_edge_rule(edge), *_transport_table(edge, reduced))
        rule, rest, image = maps[id(edge)]
        src_off, tgt_off = offsets[alpha], offsets[alpha2]
        for plus, tplus in rule.items():
            if not tplus or (reduced and plus & 1):
                continue
            rows = [out[src_off + (lab | plus >> reduced)] for lab in rest]
            for tp in tplus:
                if reduced and tp & 1:
                    raise FilteredComplexError(
                        f"arrow leaves the reduced complex: edge {alpha} -> {alpha2} "
                        "labels circle 0 \"+\""
                    )
                base = tgt_off + (tp >> reduced)
                for row, t in zip(rows, image):
                    row.append(ids[base + t])

    gc = GradedComplex(
        diagram=diagram,
        resolutions=resolved,
        offsets=offsets,
        n_generators=total,
        vertex_of=vertex_of,
        gi=gi,
        gj=gj,
        gk=gk,
        out=out,
        edges=edges,
        reduced=reduced,
    )
    gc.check_d_squared()
    return gc


def _block_keys(theory: Theory, gj: list[int], gk: list[int]) -> list[tuple]:
    """The gradings every arrow of ``theory`` preserves: (j, k) for AKh,
    (j,) for Kh.  Equal keys are one shared tuple."""
    keys = zip(gj, gk) if theory is Theory.AKH else zip(gj)
    shared: dict[tuple, tuple] = {}
    return [shared.setdefault(key, key) for key in keys]


def rows_of(gc: GradedComplex, theory: Theory):
    """``row(g)``, the arrow targets of generator g in ``theory``, in
    construction order: ``gc.out[g]`` for Kh; for AKh, those that preserve
    k, read from the full complex only."""
    if theory is Theory.KH:
        return gc.out.__getitem__
    if gc.reduced:
        raise ValueError("AKh is read from the full complex, not the reduced one")
    out, gk = gc.out, gc.gk
    return lambda g: [t for t in out[g] if gk[t] == gk[g]]


def _blocks(
    gc: GradedComplex, theory: Theory, row_of=None
) -> Iterator[tuple[FilteredComplex, list[int]]]:
    """Split into engine complexes along the block keys of ``theory``, one
    block at a time.

    Each generator g is filtered by i and carries its block key as
    auxiliary grading; ``row_of(g)`` lists its arrow targets (default: its
    ``theory`` arrows, ``rows_of``) and is called once per generator, a
    block at a time.
    Yields (complex, members) pairs, where members[x] is the generator of
    ``gc`` at engine index x.  Members are numbered level by level: by i,
    then in generator order.  A cube arrow raises i by one, so each engine
    row spans at most two adjacent levels.  A block is built only when the
    next pair is asked for and the generator keeps no reference to it, so
    a consumer that drops each complex before asking for the next holds
    one block's bitsets at a time.
    """
    keys = _block_keys(theory, gc.gj, gc.gk)
    row_of = rows_of(gc, theory) if row_of is None else row_of
    ids: dict[tuple, int] = {}
    block_of = [ids.setdefault(key, len(ids)) for key in keys]
    groups: list[list[int]] = [[] for _ in ids]
    for g, b in enumerate(block_of):
        groups[b].append(g)
    local = [0] * gc.n_generators
    for members in groups:
        members.sort(key=gc.gi.__getitem__)  # stable: level by level
        for x, g in enumerate(members):
            local[g] = x

    def engine_block(b: int, members: list[int]) -> FilteredComplex:
        rows = [row_of(g) for g in members]
        if {block_of[y] for row in rows for y in row} - {b}:
            raise FilteredComplexError("arrow leaves its grading block")
        return FilteredComplex.from_rows(
            [gc.gi[g] for g in members],
            [keys[g] for g in members],
            ([local[y] for y in row] for row in rows),
        )

    for b, members in enumerate(groups):
        yield engine_block(b, members), members


def homology_of(gc: GradedComplex, theory: Theory) -> dict[tuple, int]:
    """Graded homology ranks of ``theory``: keys (i, j, k) for AKh, (i, j)
    for Kh.

    A reduced complex, with homology h, gives the Kh ranks
    h^{i,j} + h^{i,j-2}.
    """
    table: dict[tuple, int] = {}
    for C, _ in _blocks(gc, theory):
        table.update(homology_ranks(C))  # cancels C in place
        del C  # before the next block is built
    if gc.reduced:
        table = {
            (i, j): table.get((i, j), 0) + table.get((i, j - 2), 0)
            for i, j0 in table
            for j in (j0, j0 + 2)
        }
    return table


def homology(diagram: AnnularDiagram, theory: Theory) -> dict[tuple, int]:
    """Rank table of AKh (keys (i, j, k)) or Kh (keys (i, j), from the
    reduced complex) over F2."""
    return homology_of(build_complex(diagram, reduced=theory is Theory.KH), theory)


def total_rank(table: dict[tuple, int]) -> int:
    return sum(table.values())


def summed(table: dict[tuple, int], key_of) -> dict:
    """The ranks of ``table`` added up over the keys that ``key_of(*key)``
    sends to the same key."""
    out: dict = {}
    for key, rank in table.items():
        new = key_of(*key)
        out[new] = out.get(new, 0) + rank
    return out
