"""Finite F2 chain complexes with filtered graded bases.

Arrows are stored as adjacency bitsets keyed by generator index: one
Python int per generator and direction.  Rows are absolute: bit y of
``out[x]`` is the arrow x -> y with coefficient 1, and bit x of
``inc[y]`` is the same arrow.  The complexes the package cancels are
the page-1 models of Tate blocks (``tate.page0_model``), at most 240
generators per block for the six-letter B2 covers, so a row as wide as
its complex stays small.

Complexes are built whole by ``FilteredComplex.from_rows``, in one pass
over the arrows that sets each arrow's ``out`` and ``inc`` bits.  The
pages of a filtration are computed one shift level at a time by Gaussian cancellation in place:
cancelling an arrow k -> l removes both endpoint generators and toggles
an arrow x -> y for every pair x -> l, k -> y, which is a single XOR of
the successor row into each predecessor row.  Rank tables are
independent of the cancellation order; bases are not, so only ranks are
exposed.

Homology needs no cancellation where every arrow raises the filtration
degree by exactly one, as every arrow of a cube complex raises i:
``homology_ranks`` reads it off the ranks of d level by level, without
building a complex.  It can read a block of a larger complex straight
from that complex's rows: ``index`` maps each row entry to the block's
numbering, and ``keep`` leaves out the arrows of another grading.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class MissingArrowError(KeyError):
    """Requested arrow, or pair of generators, is not present in the complex."""


class FilteredComplexError(ValueError):
    """Structural violation of a complex, such as d^2 != 0, a repeated
    arrow or an arrow that leaves its grading block."""


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

        Each arrow sets its bit in the ``out`` row of its source and in
        the ``inc`` row of its target, in one pass over the arrows.  A
        target outside 0..n-1 and a repeated arrow raise
        FilteredComplexError.
        """
        C = cls()
        n = len(fdeg)
        C.fdeg = list(fdeg)
        C.aux = list(aux)
        out, inc = C.out, [0] * n
        for x, row in zip(range(n), targets, strict=True):
            bits = count = 0
            for t in row:
                if not 0 <= t < n:
                    raise FilteredComplexError(
                        f"arrow {x} -> {t} leaves the generators 0..{n - 1}"
                    )
                bits |= 1 << t
                count += 1
                inc[t] |= 1 << x
            if bits.bit_count() != count:
                raise FilteredComplexError(f"repeated arrow from {x}")
            out.append(bits)
        C.inc = inc
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
        """Cancel the arrow k -> l: remove both ends and toggle x -> y for
        all x -> l, k -> y.

        Returns the (predecessor, successor) masks that were toggled
        against each other; neither contains k or l.  A missing arrow
        raises MissingArrowError, and so does a self-loop k -> k, which is
        not an invertible pair.
        """
        pair = (1 << k) | (1 << l)
        alive = self.alive
        out = self.out
        if k == l or alive & pair != pair or not (out[k] >> l) & 1:
            raise MissingArrowError(f"no arrow {k}->{l} to cancel")
        alive ^= pair
        self.alive = alive
        preds = self.inc[l] & alive
        succs = out[k] & alive
        if preds and succs:
            for x in _bits(preds):
                out[x] ^= succs
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
        if target_mask_of is not None:
            alive &= target_mask_of(x)
        m = out[x] & alive  # eligible targets
        if not m:
            continue
        low = m & -m
        if low.bit_length() - 1 == x:
            m ^= low
            if not m:
                continue
            low = m & -m
        preds, _ = work.cancel_arrow(x, low.bit_length() - 1)
        acted = True
        for p in _bits(preds):
            heapq.heappush(heap, p)
    return acted


def homology_ranks(
    fdeg: list[int],
    grading: tuple,
    targets: Iterable[Iterable[int]],
    index: tuple[list[int], int] | None = None,
    keep: tuple[list, object] | None = None,
    key: list | None = None,
):
    """Homology ranks of the complex on generators 0..n-1 with an arrow
    x -> t for every t in ``targets[x]``, keyed (fdeg[x], *grading), where
    every arrow raises fdeg by exactly one and the generators come level
    by level (fdeg ascending).

    Over F2, H at level i then has rank n_i - rk(d out of level i) -
    rk(d into level i), so no arrow is cancelled: each row is an int
    relative to the first index of level i + 1 and is reduced into a
    basis keyed by its highest bit, one per level, which is dropped once
    the walk leaves the level.  Zero ranks are left out, and a negative
    one (d^2 != 0) raises FilteredComplexError.  The rows are only read.

    The rows may hold the indices of a larger complex.  With ``index``,
    a pair (slot, base), this complex is the block of slots
    base..base+n-1 of that complex's numbering: entry y stands for
    generator slot[y] - base.  With ``keep``, a pair (key, value), entry
    y is left out unless key[y] == value.  Every arrow that
    :meth:`FilteredComplex.from_rows` refuses is refused here, with the
    same FilteredComplexError: a target outside 0..n-1 and a repeated
    arrow; so is a target outside the block ("arrow leaves its grading
    block") and an arrow that does not raise fdeg by one.

    With ``key``, a list over 0..n-1 that no arrow raises, returns the
    pair (the ranks of the complex, those of its associated graded); the
    latter are keyed (fdeg[x], *grading, key[x]) and read, from the same
    rows, with one basis per level and key over the arrows x -> t with
    key[t] == key[x].
    """
    n = len(fdeg)
    slot, base = index if index is not None else (None, 0)
    kept, value = keep if keep is not None else (None, None)
    levels: list[tuple[int, int]] = []  # (level, first index)
    for x, level in enumerate(fdeg):
        if not levels or level != levels[-1][0]:
            if levels and level < levels[-1][0]:
                raise FilteredComplexError("generators are not numbered level by level")
            levels.append((level, x))
    levels.append((None, n))
    table: dict[tuple, int] = {}
    graded: dict[tuple, int] = {}
    into = 0  # rk(d into the current level)
    graded_into: dict = {}
    rows = zip(range(n), targets, strict=True)
    for pos in range(len(levels) - 1):
        (level, start), (after, end) = levels[pos], levels[pos + 1]
        # the targets lie on level + 1, at end..hi - 1, or nowhere
        hi = levels[pos + 2][1] if after == level + 1 else end
        width, shift = hi - end, base + end
        next_keys = key[end:hi] if key is not None else None
        pivots: dict[int, int] = {}
        per_key: dict = {}
        for x, row in itertools.islice(rows, end - start):
            bits = count = kept_bits = 0
            kx = key[x] if key is not None else None
            for y in row:
                if kept is not None and kept[y] != value:
                    continue
                s = (y if slot is None else slot[y]) - shift
                if not 0 <= s < width:
                    _refuse(x, s + end, n, slot is not None)
                bits |= 1 << s
                count += 1
                if next_keys is not None and next_keys[s] == kx:
                    kept_bits |= 1 << s
            if bits.bit_count() != count:
                raise FilteredComplexError(f"repeated arrow from {x}")
            _reduce(bits, pivots)
            if key is not None:
                basis = per_key.get(kx)
                if basis is None:
                    basis = per_key[kx] = {}
                _reduce(kept_bits, basis)
        rank = len(pivots)
        _put(table, (level, *grading), end - start - rank - into)
        into = rank if after == level + 1 else 0
        if key is not None:
            sizes = Counter(key[start:end])
            for k, size in sizes.items():
                basis = per_key.get(k, ())
                _put(graded, (level, *grading, k), size - len(basis) - graded_into.get(k, 0))
            graded_into = (
                {k: len(basis) for k, basis in per_key.items()} if after == level + 1 else {}
            )
    next(rows, None)  # a row past n raises
    return table if key is None else (table, graded)


def _refuse(x: int, t: int, n: int, in_block: bool) -> None:
    """Raise the FilteredComplexError of an arrow x -> t of the rank pass
    that does not land on the next level."""
    if not 0 <= t < n:
        if in_block:
            raise FilteredComplexError("arrow leaves its grading block")
        raise FilteredComplexError(f"arrow {x} -> {t} leaves the generators 0..{n - 1}")
    raise FilteredComplexError(f"arrow {x} -> {t} does not raise the level by one")


def _reduce(bits: int, pivots: dict[int, int]) -> None:
    """Reduce ``bits`` into the XOR basis ``pivots``, keyed by highest
    bit, and add what is left, if anything."""
    while bits:
        top = bits.bit_length()
        pivot = pivots.get(top)
        if pivot is None:
            pivots[top] = bits
            return
        bits ^= pivot


def _put(table: dict, key: tuple, rank: int) -> None:
    """Set ``table[key]`` to a homology rank, leaving out a zero."""
    if rank < 0:
        raise FilteredComplexError(f"d^2 != 0: negative homology rank at {key}")
    if rank:
        table[key] = rank


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

    def add(self, ranks, moved) -> None:
        """Add one block's pages: ``ranks[r]``, its rank table on page r,
        and ``moved[r]``, whether a differential acted on it, for every
        page r."""
        for r in range(self.max_page + 1):
            self.ranks[r].update(ranks[r])
            self.d_nonzero[r] |= moved[r]

    def table(self, r: int) -> dict[tuple, int]:
        return self.ranks[min(r, self.max_page)]


def degree_masks(C: FilteredComplex, key: list | None = None) -> dict:
    """Bitmask of generators per filtration degree (computed once; dead
    bits are masked out by the callers); with ``key``, a list, one such
    dict per value of ``key``, over the generators g with that key[g]."""
    masks: dict = {}
    for g in C.generators():
        level = masks if key is None else masks.setdefault(key[g], {})
        level[C.fdeg[g]] = level.get(C.fdeg[g], 0) | (1 << g)
    return masks


def cancel_shift_level(
    work: FilteredComplex, r: int, masks: dict, key: list | None = None
) -> bool:
    """Cancel every arrow of filtration shift exactly r (mutating ``work``);
    returns True if anything acted.  ``masks`` is ``degree_masks(work,
    key)``: with ``key``, only the arrows x -> y with key[y] == key[x]."""
    fdeg = work.fdeg
    if key is None:
        return _sweep_cancel(work, lambda x: masks.get(fdeg[x] + r, 0))
    return _sweep_cancel(work, lambda x: masks[key[x]].get(fdeg[x] + r, 0))


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
