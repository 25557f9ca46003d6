"""Resolutions of annular diagrams: circles, seam parity, edges, generators.

The port model is fixed once and for all.  Ports are pairs (level, strand)
with level in [0, c] and strand in [0, m); a port is encoded as the int
level * m + strand, so sorting port ids is level-major.  The crossing at
level l and position p links

  * braid-like smoothing: (l, s)-(l+1, s) for every strand s,
  * turnback smoothing:   (l, p)-(l, p+1), (l+1, p)-(l+1, p+1), and
    (l, s)-(l+1, s) for s outside {p, p+1},

and the seam links (c, s)-(0, s) close the diagram.  Every port has
exactly two links, one through the crossing or seam above it and one
through the crossing or seam below it, so the circles are the cycles of
a 2-regular graph.  ``PortLinks`` tabulates each crossing's links once
per cube, and ``resolve`` traces each circle from its lowest unvisited
port, so the circles come out in ascending order of their lowest port.
A resolution keeps each circle's lowest port and seam count, and a table
from each port to the circle through it; it keeps no port set.
A circle is nontrivial exactly when it meets the seam an odd number of
times, that is, when it holds an odd number of level-0 ports.

An edge of the cube flips one crossing.  The circles it changes are the
circles through that crossing's four ports on each side, read off each
side's port table, and every other circle keeps its ports
(``classify_resolutions``).

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


@dataclass(frozen=True, slots=True)
class Circle:
    """One smoothing component: its lowest port, and how often it meets
    the seam."""

    min_port: int
    seam_count: int

    @property
    def trivial(self) -> bool:
        return self.seam_count % 2 == 0


@dataclass(frozen=True, slots=True)
class Resolution:
    """A complete smoothing of a diagram at one cube vertex.

    Circles are listed in canonical order: ascending minimal port id, so
    circle 0 is the circle through port 0.  ``circle_of[port]`` is the
    index of the circle through ``port``, the table ``PortLinks.trace``
    fills as it traces, kept as bytes: a closure within the strand and
    crossing guards has at most strands + crossings < 255 circles.  The
    crossing and strand counts that decode a port id are the diagram's,
    not copied here.
    """

    vertex: int
    circles: tuple[Circle, ...]
    circle_of: bytes

    @property
    def n_circles(self) -> int:
        return len(self.circles)


class UnclassifiableEdge(ValueError):
    """The circles across an edge are neither a merge nor a split that
    conserves seam count."""


class PortLinks:
    """The links of every port of one diagram, tabulated once for its cube.

    A port has two ends: its up end (side 1) meets the crossing at its
    level, or the seam at level c, and its down end (side 0) meets the
    crossing below it, or the seam at level 0.  End 2 * port + side is
    linked to exactly one other end, its mate, so the circles of a
    resolution are the cycles of a 2-regular graph.  A walk that leaves
    a port by end e enters the next port by e's mate and leaves it by
    ``step[e]``, the mate's other end.  The seam's steps are fixed; the
    crossing at level l sets the steps of the up ends of level l and the
    down ends of level l + 1, one slice each, from its smoothing.
    """

    __slots__ = ("diagram", "n_ports", "crossing_ports", "_seam", "_smoothings")

    def __init__(self, diagram: AnnularDiagram) -> None:
        c, m = diagram.n_crossings, diagram.strands
        self.diagram = diagram
        self.n_ports = (c + 1) * m
        seam = [0] * (2 * self.n_ports)
        for s in range(m):
            top = c * m + s
            seam[2 * top + 1] = 2 * s + 1  # (c, s) up -> (0, s) down
            seam[2 * s] = 2 * top  # (0, s) down -> (c, s) up
        self._seam = seam
        self.crossing_ports: list[tuple[int, int, int, int]] = []
        self._smoothings = []
        for level, cr in enumerate(diagram.crossings):
            lo, hi, p = level * m, (level + 1) * m, cr.position
            braid_up = [2 * (hi + s) + 1 for s in range(m)]
            braid_down = [2 * (lo + s) for s in range(m)]
            turn_up, turn_down = braid_up[:], braid_down[:]
            turn_up[p], turn_up[p + 1] = 2 * (lo + p + 1), 2 * (lo + p)
            turn_down[p], turn_down[p + 1] = 2 * (hi + p + 1) + 1, 2 * (hi + p) + 1
            braid, turn = (braid_up, braid_down), (turn_up, turn_down)
            self._smoothings.append((
                slice(2 * lo + 1, 2 * hi, 2),
                slice(2 * hi, 2 * (hi + m), 2),
                (braid, turn) if cr.sign > 0 else (turn, braid),
            ))
            self.crossing_ports.append((lo + p, lo + p + 1, hi + p, hi + p + 1))

    def trace(self, alpha: int) -> Resolution:
        """The resolution at vertex ``alpha``: each circle traced from its
        lowest port, in ascending order of that port."""
        step = self._seam[:]
        for level, (up, down, smoothings) in enumerate(self._smoothings):
            step[up], step[down] = smoothings[(alpha >> level) & 1]
        n, m = self.n_ports, self.diagram.strands
        circle_of = bytearray(b"\xff") * n  # 0xff: not traced yet
        starts: list[int] = []
        for start in range(n):
            if circle_of[start] != 0xFF:
                continue
            idx = len(starts)
            starts.append(start)
            circle_of[start] = idx
            end = step[2 * start + 1]
            port = end >> 1
            while port != start:
                circle_of[port] = idx
                end = step[end]
                port = end >> 1
        seams = [0] * len(starts)
        for s in range(m):  # each level-0 port meets the seam once
            seams[circle_of[s]] += 1
        return Resolution(
            vertex=alpha,
            circles=tuple(map(Circle, starts, seams)),
            circle_of=bytes(circle_of),
        )


def resolve(
    diagram: AnnularDiagram, alpha: int, links: PortLinks | None = None
) -> Resolution:
    """Smooth every crossing of ``diagram`` according to the bitstring
    ``alpha``.  ``links`` is ``PortLinks(diagram)``, which a caller that
    resolves many vertices builds once."""
    c = diagram.n_crossings
    if alpha < 0 or alpha >> c:
        raise ValueError(f"bitstring {alpha} does not fit {c} crossings")
    if links is None:
        links = PortLinks(diagram)
    elif links.diagram != diagram:
        raise ValueError("port links of another diagram")
    return links.trace(alpha)


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


def classify_resolutions(
    source: Resolution, target: Resolution, ports: tuple[int, ...], types: dict | None = None
) -> EdgeType:
    """Classify the edge between two resolutions that differ at the crossing
    whose four ports are ``ports``.

    The participating circles are the circles through those ports on each
    side, read off its ``circle_of`` table; every other circle keeps its
    ports, so the rest pair off in index order.  ``types``, a dict kept
    for one cube, holds one EdgeType per (source part, target part,
    circle counts).  Raises UnclassifiableEdge unless the edge is a merge
    or a split whose participating circles conserve seam count.
    """
    a, b, c, d = ports
    circles, tcircles = source.circles, target.circles
    circle_of, tcircle_of = source.circle_of, target.circle_of
    src = tuple(sorted({circle_of[a], circle_of[b], circle_of[c], circle_of[d]}))
    tgt = tuple(sorted({tcircle_of[a], tcircle_of[b], tcircle_of[c], tcircle_of[d]}))
    seams = 0  # the source's participating seam counts less the target's
    for i in src:
        seams += circles[i].seam_count
    for i in tgt:
        seams -= tcircles[i].seam_count
    key = (src, tgt, len(circles), len(tcircles))
    edge = types.get(key) if types is not None else None
    if edge is None:
        edge = _edge_type(*key)
        if types is not None:
            types[key] = edge
    if seams:
        raise UnclassifiableEdge(
            f"{edge.kind} with seam counts {[circles[i].seam_count for i in src]} -> "
            f"{[tcircles[i].seam_count for i in tgt]}"
        )
    return edge


def _edge_type(src: tuple[int, ...], tgt: tuple[int, ...], n_src: int, n_tgt: int) -> EdgeType:
    """The merge or split of the participating circles ``src`` -> ``tgt``
    between resolutions of ``n_src`` and ``n_tgt`` circles."""
    if len(src) == 2 and len(tgt) == 1:
        kind = "merge"
    elif len(src) == 1 and len(tgt) == 2:
        kind = "split"
    else:
        raise UnclassifiableEdge(f"{len(src)} source / {len(tgt)} target circles changed")
    rest = [i for i in range(n_src) if i not in src]
    trest = [i for i in range(n_tgt) if i not in tgt]
    if len(rest) != len(trest):
        raise UnclassifiableEdge(f"{kind} of {n_src} circles into {n_tgt}")
    return EdgeType(
        kind=kind, source_circles=src, target_circles=tgt, correspondence=tuple(zip(rest, trest))
    )


def vertex_gradings(
    res: Resolution, n_pos: int, n_neg: int
) -> tuple[int, list[int], list[int]]:
    """The i grading of a resolution and the j and k gradings of each of
    its labelings, label bitmasks ascending (bit c is 1 when circle c is
    "+").

    j counts "+" circles, k the "+" minus the "-" nontrivial circles.  Both
    lists are built one circle at a time by doubling: labeling ``lab | 1 <<
    c`` follows all labelings of circles 0..c-1.
    """
    weight = hamming(res.vertex)
    js = [weight + n_pos - 2 * n_neg - res.n_circles]
    ks = [0]
    for circle in res.circles:
        js += [j + 2 for j in js]
        if circle.trivial:
            ks += ks
        else:
            ks = [k - 1 for k in ks] + [k + 1 for k in ks]
    return weight - n_neg, js, ks
