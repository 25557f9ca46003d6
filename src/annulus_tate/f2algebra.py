"""Finite F2 chain complexes with filtered graded bases.

Arrows are stored as adjacency bitsets keyed by generator index (one
Python int per generator, bit y of ``out[x]`` meaning an arrow x -> y with
coefficient 1).  Complexes are built whole by ``FilteredComplex.from_rows``.
Homology, and the pages of a filtration one shift level at a time, are
computed by Gaussian cancellation in place: cancelling an arrow k -> l
removes both endpoint generators and toggles an arrow x -> y for every
pair x -> l, k -> y, which is a single XOR of the successor row into each
predecessor row.  Rank tables are independent of the cancellation order;
bases are not, so only ranks are exposed.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class MissingArrowError(KeyError):
    """Requested arrow is not present in the complex."""


class FilteredComplexError(ValueError):
    """Structural violation of a complex, such as d^2 != 0, a repeated
    arrow or an arrow that leaves its grading block."""


def _bits(mask: int) -> Iterator[int]:
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


class FilteredComplex:
    """A chain complex over F2 with a distinguished filtered graded basis.

    Each generator carries an integer filtration degree and a tuple of
    auxiliary gradings.  Generators keep their indices after cancellation
    removes them (dead rows are simply masked out), so gradings never
    move.
    """

    __slots__ = ("fdeg", "aux", "out", "inc", "alive")

    def __init__(self) -> None:
        self.fdeg: list[int] = []
        self.aux: list[tuple] = []
        self.out: list[int] = []
        self.inc: list[int] = []
        self.alive: int = 0

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(
        cls, fdeg: list[int], aux: list[tuple], targets: Iterable[Iterable[int]]
    ) -> "FilteredComplex":
        """The complex on generators 0..n-1 with filtration degrees
        ``fdeg``, auxiliary gradings ``aux`` and an arrow x -> t for every
        t in ``targets[x]``.

        Each ``out`` and ``inc`` row is assembled once, highest bit first;
        a repeated arrow raises.
        """
        C = cls()
        n = len(fdeg)
        C.fdeg = list(fdeg)
        C.aux = list(aux)
        sources: list[list[int]] = [[] for _ in range(n)]
        for x, row in enumerate(targets):
            bits = 0
            ts = sorted(row, reverse=True)
            for t in ts:
                bits |= 1 << t
                sources[t].append(x)
            if len(set(ts)) != len(ts):
                raise FilteredComplexError(f"repeated arrow from {x}")
            C.out.append(bits)
        for xs in sources:
            bits = 0
            for x in reversed(xs):
                bits |= 1 << x
            C.inc.append(bits)
        C.alive = (1 << n) - 1
        return C

    # -- queries -------------------------------------------------------

    def generators(self) -> Iterator[int]:
        return _bits(self.alive)

    def n_generators(self) -> int:
        return self.alive.bit_count()

    def has_arrow(self, src: int, tgt: int) -> bool:
        return bool(
            (self.alive >> src) & 1
            and (self.alive >> tgt) & 1
            and (self.out[src] >> tgt) & 1
        )

    def targets(self, src: int) -> Iterator[int]:
        return _bits(self.out[src] & self.alive)

    def arrows(self) -> Iterator[tuple[int, int]]:
        for src in self.generators():
            for tgt in self.targets(src):
                yield src, tgt

    def n_arrows(self) -> int:
        return sum((self.out[g] & self.alive).bit_count() for g in self.generators())

    def grading_key(self, g: int) -> tuple:
        return (self.fdeg[g], *self.aux[g])

    def copy(self) -> "FilteredComplex":
        dup = FilteredComplex()
        dup.fdeg = list(self.fdeg)
        dup.aux = list(self.aux)
        dup.out = list(self.out)
        dup.inc = list(self.inc)
        dup.alive = self.alive
        return dup

    # -- cancellation ---------------------------------------------------

    def cancel_arrow(self, k: int, l: int) -> tuple[int, int]:
        """Cancel the arrow k -> l, toggling x -> y for all x -> l, k -> y.

        Returns the (predecessor, successor) masks that were toggled
        against each other; neither contains k or l.  Homology ranks at
        every grading are preserved.  A self-loop k -> k is not an
        invertible pair and raises MissingArrowError.
        """
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


def rank_table(C: FilteredComplex) -> dict[tuple, int]:
    """Ranks of the alive generators grouped by (filtration degree, *aux)."""
    return dict(Counter(C.grading_key(g) for g in C.generators()))


def _sweep_cancel(work: FilteredComplex, target_mask_of=None) -> bool:
    """Cancel, in lexicographic (source, target) order, every arrow whose
    targets ``target_mask_of(x)`` allows (every arrow when it is None);
    returns True if anything acted.

    A min-heap of candidate sources keeps the order exact: cancelling can
    only create eligible arrows at the predecessors of the cancelled
    target, and those are pushed back on the heap.  A self-loop x -> x is
    never a pivot: in a complex folded over a Laurent ring it stands for a
    chain of arrows, not for an invertible pair.
    """
    acted = False
    out = work.out
    alive = work.alive
    if target_mask_of is None:
        heap = [x for x in _bits(alive) if out[x] & alive]
    else:
        heap = [x for x in _bits(alive) if out[x] & alive & target_mask_of(x)]
    heapq.heapify(heap)
    while heap:
        x = heapq.heappop(heap)
        alive = work.alive
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
        preds, _ = work.cancel_arrow(x, l)
        acted = True
        for p in _bits(preds):
            heapq.heappush(heap, p)
    return acted


def homology_ranks(C: FilteredComplex) -> dict[tuple, int]:
    """Homology ranks per grading, by cancelling ``C`` in place until no
    arrows remain; pass ``C.copy()`` to keep the complex."""
    _sweep_cancel(C)
    if C.n_arrows():
        raise FilteredComplexError("cancellation finished with arrows left")
    return rank_table(C)


@dataclass
class PageTable:
    """Spectral-sequence rank tables: page r -> grading key -> rank.

    Keys are (filtration degree, *aux).  Every page starts empty, and
    blocks with disjoint keys add their ranks to it.  ``d_nonzero[r]``
    records whether any differential acted while page r was current.
    Pages stabilize once r exceeds the largest filtration shift, so
    ``table(r)`` clamps r to ``max_page``.
    """

    max_page: int
    ranks: dict[int, dict[tuple, int]] = field(init=False)
    d_nonzero: dict[int, bool] = field(init=False)

    def __post_init__(self) -> None:
        pages = range(self.max_page + 1)
        self.ranks = {r: {} for r in pages}
        self.d_nonzero = dict.fromkeys(pages, False)

    def table(self, r: int) -> dict[tuple, int]:
        return self.ranks[min(r, self.max_page)]

    def total(self, r: int) -> int:
        return sum(self.table(r).values())


def degree_masks(C: FilteredComplex) -> dict[int, int]:
    """Bitmask of generators per filtration degree (computed once; dead
    bits are masked out by the callers)."""
    masks: dict[int, int] = {}
    for g in C.generators():
        masks[C.fdeg[g]] = masks.get(C.fdeg[g], 0) | (1 << g)
    return masks


def cancel_shift_level(
    work: FilteredComplex, r: int, masks: dict[int, int]
) -> bool:
    """Cancel every arrow of filtration shift exactly r (mutating ``work``);
    returns True if anything acted."""
    return _sweep_cancel(work, lambda x: masks.get(work.fdeg[x] + r, 0))


def dense_rank(matrix: Iterable[Iterable[int]]) -> int:
    """GF(2) rank of a dense 0/1 matrix by straightforward row elimination.

    Test oracle only; independent of the cancellation machinery above.
    """
    rank = 0
    pivots: dict[int, int] = {}
    for row in matrix:
        bits = 0
        for col, v in enumerate(row):
            if v % 2:
                bits |= 1 << col
        while bits:
            low = bits & -bits
            other = pivots.get(low)
            if other is None:
                pivots[low] = bits
                rank += 1
                break
            bits ^= other
    return rank
