"""Resolutions of annular diagrams: circles, seam parity, edges, generators.

The port model is fixed once and for all.  Ports are pairs (level, strand)
with level in [0, c] and strand in [0, m); a port is encoded as the int
level * m + strand, so sorting port ids is level-major.  The crossing at
level l and position p unions

  * braid-like smoothing: (l, s)-(l+1, s) for every strand s,
  * turnback smoothing:   (l, p)-(l, p+1), (l+1, p)-(l+1, p+1), and
    (l, s)-(l+1, s) for s outside {p, p+1},

and the seam unions (c, s)-(0, s) close the diagram.  A circle is a
union-find class of ports; it is nontrivial exactly when it meets the seam
an odd number of times.

Smoothing convention: at a positive crossing bit 0 is braid-like and bit 1
is the turnback; at a negative crossing the bits are swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .links import AnnularDiagram


def hamming(bits: int) -> int:
    return bits.bit_count()


def swap_halves(bits: int, width: int) -> int:
    """The involution a1a2 -> a2a1 on a bitstring of even width."""
    if width % 2:
        raise ValueError("swap_halves needs an even bitstring width")
    half = width // 2
    lo = bits & ((1 << half) - 1)
    return (bits >> half) | (lo << half)


def format_bits(bits: int, width: int) -> str:
    """Render with the crossing-0 bit first, e.g. bits=1, width=2 -> "10"."""
    return "".join(str((bits >> i) & 1) for i in range(width))


def parse_bits(text: str) -> tuple[int, int]:
    """Inverse of :func:`format_bits`; returns (bits, width)."""
    bits = 0
    for i, ch in enumerate(text):
        if ch == "1":
            bits |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bitstring character {ch!r}")
    return bits, len(text)


@dataclass(frozen=True)
class Circle:
    """One smoothing component: its ports, and how often it meets the seam."""

    ports: frozenset[int]
    seam_count: int

    @property
    def trivial(self) -> bool:
        return self.seam_count % 2 == 0

    @property
    def min_port(self) -> int:
        return min(self.ports)


@dataclass(frozen=True)
class Resolution:
    """A complete smoothing of a diagram at one cube vertex.

    Circles are listed in canonical order: ascending minimal port id, so
    circle 0 is the circle through port 0.  The crossing and strand
    counts that decode a port id are the diagram's, not copied here.
    """

    vertex: int
    circles: tuple[Circle, ...]

    @property
    def n_circles(self) -> int:
        return len(self.circles)


class UnclassifiableEdge(ValueError):
    """The circles across an edge are neither a merge nor a split that
    conserves seam count."""


def resolve(diagram: AnnularDiagram, alpha: int) -> Resolution:
    """Smooth every crossing of ``diagram`` according to the bitstring ``alpha``."""
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

    circles = [
        Circle(ports=frozenset(ports), seam_count=seam_counts.get(root, 0))
        for root, ports in members.items()
    ]
    circles.sort(key=lambda circle: circle.min_port)
    return Resolution(vertex=alpha, circles=tuple(circles))


@dataclass(frozen=True)
class EdgeType:
    """A classified cube edge; equal edges hash alike.

    ``source_circles``/``target_circles`` hold the participating circle
    indices, ascending; ``correspondence`` pairs each nonparticipating
    source circle index, ascending, with its (identical-port-set) target
    index.  The participating circles conserve seam count (the source
    counts add up to the target counts), so a merge or split changes the
    number of nontrivial circles by 0 or 2.
    """

    kind: str  # "merge" | "split"
    source_circles: tuple[int, ...]
    target_circles: tuple[int, ...]
    correspondence: tuple[tuple[int, int], ...]


def classify_resolutions(source: Resolution, target: Resolution) -> EdgeType:
    """Classify the edge between two resolutions differing at one crossing."""
    target_index = {circle.ports: i for i, circle in enumerate(target.circles)}
    source_index = {circle.ports: i for i, circle in enumerate(source.circles)}

    src_part = tuple(
        i for i, circle in enumerate(source.circles) if circle.ports not in target_index
    )
    tgt_part = tuple(
        i for i, circle in enumerate(target.circles) if circle.ports not in source_index
    )
    correspondence = tuple(
        (i, target_index[circle.ports])
        for i, circle in enumerate(source.circles)
        if circle.ports in target_index
    )

    if len(src_part) == 2 and len(tgt_part) == 1:
        kind = "merge"
    elif len(src_part) == 1 and len(tgt_part) == 2:
        kind = "split"
    else:
        raise UnclassifiableEdge(
            f"{len(src_part)} source / {len(tgt_part)} target circles changed"
        )

    src_seams = [source.circles[i].seam_count for i in src_part]
    tgt_seams = [target.circles[i].seam_count for i in tgt_part]
    if sum(src_seams) != sum(tgt_seams):
        raise UnclassifiableEdge(f"{kind} with seam counts {src_seams} -> {tgt_seams}")
    return EdgeType(
        kind=kind,
        source_circles=src_part,
        target_circles=tgt_part,
        correspondence=correspondence,
    )


def vertex_gradings(
    res: Resolution, n_pos: int, n_neg: int
) -> tuple[int, list[int], list[int]]:
    """The i grading of a resolution and the j and k gradings of each of
    its labelings, label bitmasks ascending (bit c is 1 when circle c is
    "+").

    j counts "+" circles, k the "+" minus the "-" nontrivial circles, so
    both are read from popcounts against per-vertex constants.
    """
    weight = hamming(res.vertex)
    nontrivial = 0
    for idx, circle in enumerate(res.circles):
        if not circle.trivial:
            nontrivial |= 1 << idx
    labels = range(1 << res.n_circles)
    j_min = weight + n_pos - 2 * n_neg - res.n_circles
    k_min = -nontrivial.bit_count()
    js = [j_min + 2 * lab.bit_count() for lab in labels]
    ks = [k_min + 2 * (lab & nontrivial).bit_count() for lab in labels]
    return weight - n_neg, js, ks
