"""Tate complexes of 2-periodic covers and their spectral sequences.

The Tate bicomplex of a cover complex C with chain involution tau has one
column per power of a deck variable theta: it is C (x) F2[theta, 1/theta]
with differential d + theta (1 + tau).  Every column is a copy of C, so
the bicomplex is computed folded: one engine generator g per cover
generator stands for all of its column copies (g, t).  Under the total
grading i + t an arrow g -> g' can only carry theta^a with
a = 1 + i(g) - i(g'), so one bit per entry determines the complex, and
Gaussian cancellation is exact on it.  The theta^1 arrows g -> g and
g -> tau g of each non-equivariant g are the whole page-0 differential of
the row (i) filtration (an equivariant g has none: its two copies
coincide and cancel mod 2), and page 0 cancels every free pair along
them.  What is left is the complex on the equivariant generators, whose
arrows are the cover arrows between them and the zigzags through the
free pairs; ``page0_model`` builds it in one pass over the cover rows,
and the pages from 1 on cancel it (``f2algebra``).  No theta arrow or
self-loop is stored.  Ranks read off the folded complex are ranks of one
column of the bi-infinite bicomplex, with no truncation to finitely many
columns.

The AKh Tate complex is the associated graded of the Kh one under the
k-filtration: theta (1 + tau) keeps k, and a cover arrow never raises it.
So one Kh Tate block serves both theories (``hv_pages``): its page 1 is
built once, and the AKh pages cancel, on a copy, only the arrows that
keep k, which are exactly the AKh cancellations.  The cover homology of a
block needs no cancellation: it is read off the ranks of the block's
arrows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from . import cube, decat
from .f2algebra import (
    FilteredComplex,
    FilteredComplexError,
    PageTable,
    _bits,
    cancel_shift_level,
    degree_masks,
    rank_table,
)
from .khovanov import (
    GradedComplex,
    Theory,
    _block_homology,
    _map_blocks,
    build_complex,
    homologies_of,
    labeling_images,
    rows_of,
    summed,
    total_rank,
)
from .links import BraidWord, close_braid, double_cover


@dataclass
class Verdict:
    """One verification outcome.

    ``passed`` is True/False for an asserted check and None when the check
    ran outside its proven family and the outcome is recorded as data.
    """

    name: str
    passed: bool | None
    details: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.passed is False


# ---------------------------------------------------------------------------
# chain involution


def _circle_images(
    res: cube.Resolution, target: cube.Resolution, m: int, shift: int, period: int
) -> list[int]:
    """For each circle of ``res``, on ``m`` strands, the index of the circle
    of ``target`` through the image of its minimal port, (level, strand)
    going to ((level + shift) mod period, strand)."""
    circle_of = target.circle_of
    images = []
    for circle in res.circles:
        level, strand = divmod(circle.min_port, m)
        images.append(circle_of[(level + shift) % max(period, 1) * m + strand])
    return images


def tau_table(gc: GradedComplex) -> list[int]:
    """The chain involution as a permutation of generator indices.  ``gc``
    must be built on the closure of a doubled word w.w (``double_cover``):
    the half-turn swaps the halves of each vertex bitstring and takes port
    level l to (l + n) mod 2n, n = len(w)."""
    crossings, m = gc.diagram.crossings, gc.diagram.strands
    width = len(crossings)
    n = width // 2
    if width % 2 or crossings[:n] != crossings[n:]:
        raise ValueError("complex is not built on the closure of a doubled word")
    tau: list[int] = []  # vertex by vertex, labels ascending
    for beta, res in enumerate(gc.resolutions):
        tbeta = cube.swap_halves(beta, width)
        perm = _circle_images(res, gc.resolutions[tbeta], m, n, width)
        toff = gc.offsets[tbeta]
        tau += [toff + t for t in labeling_images([1 << c for c in perm])]
    return tau


def check_equivariance(
    gc: GradedComplex, tau: list[int], theories
) -> dict[Theory, Verdict]:
    """The ``equivariance-<theory>`` verdict of each of ``theories``, from
    one walk over the cover: the involution ``tau`` (from
    :func:`tau_table`) squares to the identity, preserves the gradings,
    commutes with the differential of the theory (it maps the targets of
    each generator x onto the targets of tau x), and fixes generators only
    at even Hamming weight.

    The Kh rows are compared at each x <= tau x, and the AKh rows, the
    arrows that keep k, only where the Kh rows differ: tau keeps k, so
    equal Kh rows have equal AKh rows.
    """
    rng = range(gc.n_generators)
    out, gk = gc.out, gc.gk
    fixed = [g for g in rng if tau[g] == g]
    akh_ok = kh_ok = (
        all(tau[tau[g]] == g for g in rng)
        and all(
            (gc.gi[g], gc.gj[g], gc.gk[g]) == (gc.gi[t], gc.gj[t], gc.gk[t])
            for g, t in enumerate(tau)
        )
        and all(cube.hamming(gc.vertex_of[g]) % 2 == 0 for g in fixed)
    )
    if akh_ok:
        # tau is an involution by now, so the condition at x is the one at tau x
        for x in rng:
            tx = tau[x]
            if x > tx:
                continue
            image, row = {tau[y] for y in out[x]}, set(out[tx])
            if image != row:
                kh_ok = False
                k = gk[x]
                if {y for y in image if gk[y] == k} != {y for y in row if gk[y] == k}:
                    akh_ok = False
                    break  # and Kh has failed too
    passed = {Theory.AKH: akh_ok, Theory.KH: kh_ok}
    return {
        theory: Verdict(
            name=f"equivariance-{theory.value}",
            passed=passed[theory],
            details={"equivariant_generators": len(fixed)},
        )
        for theory in theories
    }


# ---------------------------------------------------------------------------
# the folded Tate complex


def page0_model(
    gc: GradedComplex,
    theory: Theory,
    members: list[int],
    index: tuple[list[int], int],
    tau: list[int],
) -> tuple[FilteredComplex, list[int]]:
    """Page 1 of the Tate block of one block of ``_map_blocks(gc, theory,
    …)``: the complex left on the tau-fixed members once page 0 has
    cancelled every free pair, and the cover generators at its indices.
    A ``tau`` (:func:`tau_table`) that leaves the block, or changes k,
    raises FilteredComplexError("arrow leaves its grading block").

    With B the fixed members, X the free x < tau x and Y = tau X, page 1
    is d' = d_BB + d_BX phi^-1 d_YB, where phi = theta P + d_YX (P: x ->
    tau x) and phi^-1 = sum_n (theta P)^-1 (d_YX (theta P)^-1)^n.  Each
    arrow raises i by one and tau keeps i, so one pass in level order
    gives d': each fixed member, and each x in X that one reaches, XORs
    its mask of fixed sources into tau y for an arrow to y in Y, and into
    y's column for an arrow to a fixed y.  Rows out of Y are never read.
    The rank pass (``khovanov._block_homology``) has already refused a
    target outside the block.
    """
    slot, base = index
    n = len(members)
    gk = gc.gk
    local = []  # tau on block indices
    for g in members:
        t = tau[g]
        x = slot[t] - base
        if not 0 <= x < n or gk[t] != gk[g]:
            raise FilteredComplexError("arrow leaves its grading block")
        local.append(x)
    fixed = [x for x, t in enumerate(local) if t == x]
    bit = {x: 1 << b for b, x in enumerate(fixed)}
    row = rows_of(gc, theory)
    reach: dict[int, int] = {}  # x in X: the fixed members that reach it
    column: dict[int, int] = {}  # fixed y: the fixed sources of its arrows
    for x, t in enumerate(local):
        if t == x:
            mask = bit[x]
        elif x > t or not (mask := reach.pop(x, 0)):
            continue
        for g in row(members[x]):
            y = slot[g] - base
            ty = local[y]
            if ty == y:
                column[y] = column.get(y, 0) ^ mask
            elif ty < y:
                reach[ty] = reach.get(ty, 0) ^ mask
    rows: list[list[int]] = [[] for _ in fixed]
    for b, y in enumerate(fixed):
        for s in _bits(column.get(y, 0)):
            rows[s].append(b)
    survivors = [members[x] for x in fixed]
    j = gc.gj[members[0]]  # every block key holds j
    model = FilteredComplex.from_rows(
        [gc.gi[g] for g in survivors], [(j, gk[g]) for g in survivors], rows
    )
    return model, survivors


@dataclass
class HvPages:
    """Row-filtered spectral sequence of the Tate complex in one theory,
    and the cover homology read off the same blocks.

    Keys of ``pages`` are (i, j, k) for AKh and (i, j) for Kh: the ranks of
    one column.  ``cover`` holds the homology ranks of the cover complex in
    the theory, same keys, read off each block's rows by its rank pass.
    The odd-page check asserts that ranks do not move from page
    2s+1 to page 2s+2.  ``d2_observed`` holds the (delta-i = 2, a = -1)
    arrows g1 -> g2 of the theory read off once page 0 has cancelled every
    free pair (for AKh, the ones that keep k).  ``d2_strays`` lists the
    nonequivariant survivors of page 0, none by construction
    (:func:`page0_model`); the e2 verdict reports it, and the windowed
    oracle's strays are checked against it.
    """

    pages: PageTable
    cover: dict[tuple, int]
    odd_pages_ok: bool
    d2_observed: set = field(default_factory=set)
    d2_strays: list = field(default_factory=list)


def _drop_k(i: int, j: int, k: int) -> tuple:
    return i, j


def hv_pages(
    cover: GradedComplex, tau: list[int], theories
) -> tuple[dict[Theory, dict[tuple, int]], dict[Theory, HvPages]]:
    """The homology of ``cover`` in AKh and in each of ``theories``, and the
    spectral sequence of the row-wise (i) filtration of its Tate complex
    in each of ``theories``, with chain involution ``tau``, to page
    max(3, i-span + 2), past the largest shift.

    Each block is read once from the cover arrows for every table of the
    block: the j blocks of the Kh rows when Kh is among ``theories``, the
    (j, k) blocks of the AKh rows otherwise (``khovanov._map_blocks``).
    AKh is the associated graded of Kh under the k-filtration, and neither
    an arrow nor tau raises k, so on a Kh block the cancellations of the
    arrows that keep k are exactly the AKh ones.  Per block:

    - the cover homology, by one rank pass over the block's rows
      (``khovanov._block_homology``);
    - page 0 of its Tate block, whose differential is theta (1 + tau):
      its table is the block's generator count, and it acts when the
      block has a free pair.  Page 1 is the complex left on the
      equivariant generators once every free pair is cancelled, built
      directly (:func:`page0_model`), once for both theories.  Its
      length-2 arrows are the induced d2;
    - pages r >= 1 cancel the arrows of shift r on page 1: in AKh, on a
      copy when Kh runs too, only those that keep k; in Kh, every one.

    The blocks run on every CPU; each returns its cover ranks, page tables,
    ``d_nonzero`` flags and observed d2 arrows, merged in block order.
    """
    kh = Theory.KH in theories
    read = (Theory.AKH, Theory.KH) if kh else (Theory.AKH,)
    blocks = Theory.KH if kh else Theory.AKH
    max_page = max(3, cover.i_span() + 2)
    gi, gk = cover.gi, cover.gk

    def pages_from(C: FilteredComplex, start: dict, acted: bool, key=None):
        """Pages 0 (given) to max_page, cancelling C from page 1 on."""
        ranks, moved = [start], [acted]
        masks = degree_masks(C, key)
        for r in range(1, max_page + 1):
            ranks.append(rank_table(C))
            moved.append(cancel_shift_level(C, r, masks, key))
        return ranks, moved

    def run_block(members: list[int], index):
        block_cover = _block_homology(cover, members, index, read)
        C, survivors = page0_model(cover, blocks, members, index, tau)
        j = cover.gj[members[0]]
        start = dict(Counter((gi[g], j, gk[g]) for g in members))
        acted = len(survivors) < len(members)
        observed = [
            (g1, g2)
            for src, g1 in enumerate(survivors)
            for g2 in (survivors[tgt] for tgt in C.targets(src))
            if gi[g2] - gi[g1] == 2
        ]
        pages = {}
        if Theory.AKH in theories:
            key = [k for _, k in C.aux] if kh else None
            pages[Theory.AKH] = pages_from(C.copy() if kh else C, start, acted, key)
        if kh:
            ranks, moved = pages_from(C, start, acted)
            pages[Theory.KH] = [summed(table, _drop_k) for table in ranks], moved
        return block_cover, pages, observed

    covers: dict[Theory, dict[tuple, int]] = {theory: {} for theory in read}
    pages = {theory: PageTable(max_page=max_page) for theory in theories}
    observed: list[tuple[int, int]] = []
    for block_cover, block_pages, block_observed in _map_blocks(cover, blocks, run_block):
        for theory, table in block_cover.items():
            covers[theory].update(table)
        for theory, (ranks, moved) in block_pages.items():
            pages[theory].add(ranks, moved)
        observed += block_observed
    d2 = {
        Theory.AKH: {(g1, g2) for g1, g2 in observed if gk[g1] == gk[g2]},
        Theory.KH: set(observed),
    }
    return covers, {
        theory: HvPages(
            pages=pages[theory],
            cover=covers[theory],
            odd_pages_ok=all(
                pages[theory].table(r) == pages[theory].table(r + 1)
                for r in range(1, max_page, 2)
            ),
            d2_observed=d2[theory],
        )
        for theory in theories
    }


# ---------------------------------------------------------------------------
# verification harness


class PeriodicRun:
    """Shared computations for one quotient braid word, for the Tate checks
    of ``theories``.

    One full Kh complex is built per side, "quotient" (the closure of the
    word) or "cover" (its 2-periodic double cover), and every table of a
    side is read off one rank pass over each of its blocks: the j blocks
    of the Kh rows when Kh is among the theories, where AKh is read
    through the arrows that keep k, and the (j, k) blocks of the AKh rows
    otherwise.  The quotient's tables come from ``homologies_of``; the
    cover's from its Tate pass (:func:`hv_pages`), which also builds
    each block's page 1 once and runs the Tate pages of the theories.  AKh
    tables are read in every run.  Both equivariance verdicts come from one walk
    (:func:`check_equivariance`).
    """

    def __init__(self, word: BraidWord, theories=tuple(Theory)) -> None:
        self.word = word
        self.theories = tuple(theories)
        self.quotient_diagram = close_braid(word)
        self.cover_diagram = double_cover(word)
        self._complexes: dict = {}

    def complex(self, side: str) -> GradedComplex:
        if side not in self._complexes:
            diagram = {"quotient": self.quotient_diagram, "cover": self.cover_diagram}[side]
            self._complexes[side] = build_complex(diagram)
        return self._complexes[side]

    @cached_property
    def _quotient_tables(self) -> dict[Theory, dict[tuple, int]]:
        read = (Theory.AKH, Theory.KH) if Theory.KH in self.theories else (Theory.AKH,)
        return homologies_of(self.complex("quotient"), read)

    @cached_property
    def _cover_pass(self) -> tuple[dict[Theory, dict[tuple, int]], dict[Theory, HvPages]]:
        return hv_pages(self.complex("cover"), self.tau, self.theories)

    def homology(self, side: str, theory: Theory) -> dict[tuple, int]:
        tables = self._cover_pass[0] if side == "cover" else self._quotient_tables
        return tables[theory]

    @cached_property
    def tau(self) -> list[int]:
        return tau_table(self.complex("cover"))

    def hv(self, theory: Theory) -> HvPages:
        return self._cover_pass[1][theory]

    @cached_property
    def equivariance(self) -> dict[Theory, Verdict]:
        return check_equivariance(self.complex("cover"), self.tau, self.theories)

    @property
    def proven_family(self) -> bool:
        """Words with at most one positive or at most one negative letter."""
        return self.word.n_pos <= 1 or self.word.n_neg <= 1


def _lift_table(run: PeriodicRun) -> tuple[dict[int, int], list[str]]:
    """Map quotient generator -> its equivariant lift; list any defects.

    The lift doubles every trivial circle and fixes every nontrivial one;
    label transport goes through the port projection (level mod n, strand).
    """
    problems: list[str] = []
    gq = run.complex("quotient")
    gcov = run.complex("cover")
    tau = run.tau
    n, m = gq.diagram.n_crossings, gq.diagram.strands
    lift: dict[int, int] = {}
    for alpha, qres in enumerate(gq.resolutions):
        beta = alpha | alpha << n
        cres = gcov.resolutions[beta]
        proj = _circle_images(cres, qres, m, 0, n)
        fibers: dict[int, list[int]] = {}
        for ci, qci in enumerate(proj):
            fibers.setdefault(qci, []).append(ci)
        for qci, lifts in fibers.items():
            trivial = qres.circles[qci].trivial
            sizes_ok = (len(lifts) == 2) if trivial else (len(lifts) == 1)
            flags_ok = all(cres.circles[ci].trivial == trivial for ci in lifts)
            if not (sizes_ok and flags_ok):
                problems.append(
                    f"vertex {cube.format_bits(alpha, n)}: circle {qci} lifts to "
                    f"{len(lifts)} circles"
                )
        # each "+" quotient circle labels its lifts "+"
        masks = [sum(1 << ci for ci in fibers.get(qci, ())) for qci in range(qres.n_circles)]
        for qlabels, clabels in enumerate(labeling_images(masks)):
            g = gcov.index(beta, clabels)
            if tau[g] != g:
                problems.append(
                    f"lift of generator {qlabels} at vertex "
                    f"{cube.format_bits(alpha, n)} is not equivariant"
                )
            lift[gq.index(alpha, qlabels)] = g
    return lift, problems


def verify_e2_correspondence(run: PeriodicRun) -> Verdict:
    """Check the equivariant-generator bijection, its grading relations,
    and that the induced length-2 differentials reproduce the quotient
    differential."""
    gq = run.complex("quotient")
    gcov = run.complex("cover")
    tau = run.tau

    lift, problems = _lift_table(run)
    n_equivariant = sum(1 for g in range(gcov.n_generators) if tau[g] == g)
    bijection_ok = (
        not problems
        and len(lift) == gq.n_generators
        and len(set(lift.values())) == len(lift)
        and n_equivariant == len(lift)
    )

    grading_failures = []
    for v, g in lift.items():
        expect = (2 * gq.gi[v], 2 * gq.gj[v] - gq.gk[v], gq.gk[v])
        got = (gcov.gi[g], gcov.gj[g], gcov.gk[g])
        if expect != got:
            grading_failures.append((v, expect, got))

    d2_ok, d2_detail = _check_d2_arrows(run, lift)

    passed = bijection_ok and not grading_failures and d2_ok
    return Verdict(
        name="e2-correspondence",
        passed=passed,
        details={
            "equivariant_generators": n_equivariant,
            "quotient_generators": gq.n_generators,
            "bijection_ok": bijection_ok,
            "bijection_problems": problems[:10],
            "grading_failures": grading_failures[:10],
            "d2_ok": d2_ok,
            **d2_detail,
        },
    )


def _check_d2_arrows(run: PeriodicRun, lift: dict[int, int]) -> tuple[bool, dict]:
    """Compare the induced (delta-i = 2, a = -1) arrows of the AKh Tate
    complex, read after cancelling exactly the tau arrows, with the
    quotient differential transported along the lift."""
    hv = run.hv(Theory.AKH)
    observed = hv.d2_observed
    gq = run.complex("quotient")
    row = rows_of(gq, Theory.AKH)
    arrows = [(u, v) for u in range(gq.n_generators) for v in row(u)]
    expected = {(lift[u], lift[v]) for u, v in arrows}
    ok = not hv.d2_strays and observed == expected
    detail = {
        "d2_arrows_per_column": len(arrows),
        "stray_survivors": hv.d2_strays[:10],
        "d2_missing": sorted(expected - observed)[:10],
        "d2_extra": sorted(observed - expected)[:10],
    }
    return ok, detail


def verify_collapse(run: PeriodicRun, theory: Theory) -> Verdict:
    """Check that page-3 ranks equal final-page ranks and that odd pages
    never move; asserted for AKh always, for Kh only on the proven
    at-most-one-positive / at-most-one-negative family."""
    hv = run.hv(theory)
    collapse_ok = hv.pages.table(3) == hv.pages.table(hv.pages.max_page)
    observed = collapse_ok and hv.odd_pages_ok
    asserted = theory is Theory.AKH or run.proven_family
    return Verdict(
        name=f"collapse-{theory.value}",
        passed=observed if asserted else None,
        details={
            "observed_ok": observed,
            "asserted": asserted,
            "odd_pages_ok": hv.odd_pages_ok,
            "collapse_ok": collapse_ok,
        },
    )


def _mismatches(got: dict[tuple, int], want: dict[tuple, int]) -> list[tuple]:
    """(key, want, got) at every key where the two rank tables differ."""
    return [
        (key, want.get(key, 0), got.get(key, 0))
        for key in sorted(set(got) | set(want))
        if got.get(key, 0) != want.get(key, 0)
    ]


def verify_rank_inequality(run: PeriodicRun) -> Verdict:
    """rk AKh^{j,k}(L) <= rk AKh^{2j-k,k}(cover) at every (j, k)."""
    quot = summed(run.homology("quotient", Theory.AKH), lambda i, j, k: (j, k))
    cover = summed(run.homology("cover", Theory.AKH), lambda i, j, k: (j, k))
    failures = []
    for (j, k), r in sorted(quot.items()):
        if r > cover.get((2 * j - k, k), 0):
            failures.append(((j, k), r, cover.get((2 * j - k, k), 0)))
    return Verdict(
        name="rank-inequality",
        passed=not failures,
        details={
            "checked": len(quot),
            "failures": failures,
            "quotient_total": sum(quot.values()),
            "cover_total": sum(cover.values()),
        },
    )


def _diagonal_table_from_pages(hv: HvPages) -> dict[tuple, int]:
    """Total-homology ranks per (j, k) (AKh) or (j,) (Kh), summed over i
    from the limit page: over a field the associated graded of the induced
    filtration has the same rank as the total homology in each degree."""
    return summed(hv.pages.table(hv.pages.max_page), lambda i, *key: key)


def verify_diagonals(run: PeriodicRun) -> Verdict:
    """Total-homology ranks of the AKh Tate complex at (J, k) equal the
    i-summed quotient rank at ((J+k)/2, k), and vanish for J + k odd."""
    table = _diagonal_table_from_pages(run.hv(Theory.AKH))
    # at cover grading (J, k): the i-summed quotient rank at ((J + k) / 2, k)
    expected = summed(
        run.homology("quotient", Theory.AKH), lambda i, j, k: (2 * j - k, k)
    )
    failures = _mismatches(table, expected)
    odd_failures = [key for key in table if sum(key) % 2 and table[key]]
    return Verdict(
        name="diagonal-ranks",
        passed=not failures and not odd_failures,
        details={
            "failures": failures[:10],
            "odd_diagonal_failures": odd_failures[:10],
        },
    )


def verify_khtate_limit(run: PeriodicRun) -> Verdict:
    """Kh Tate total homology at cover quantum grading J equals the
    quotient AKh rank summed over the (2j-k, k) fibre of J; asserted on the
    proven family, recorded otherwise."""
    table = _diagonal_table_from_pages(run.hv(Theory.KH))
    expected = summed(
        run.homology("quotient", Theory.AKH), lambda i, j, k: (2 * j - k,)
    )
    failures = _mismatches(table, expected)
    observed = not failures
    asserted = run.proven_family
    return Verdict(
        name="khtate-limit",
        passed=observed if asserted else None,
        details={
            "observed_ok": observed,
            "asserted": asserted,
            "failures": failures[:10],
        },
    )


def verify_cascade(run: PeriodicRun) -> Verdict:
    """Total-rank cascade AKh(cover) >= Kh(cover) >= AKh(L) >= Kh(L), with
    the two k-filtration inequalities also checked per (i, j); asserted on
    the proven family, recorded otherwise."""
    a_cover = run.homology("cover", Theory.AKH)
    k_cover = run.homology("cover", Theory.KH)
    a_quot = run.homology("quotient", Theory.AKH)
    k_quot = run.homology("quotient", Theory.KH)
    totals = [total_rank(t) for t in (a_cover, k_cover, a_quot, k_quot)]
    chain_ok = totals[0] >= totals[1] >= totals[2] >= totals[3]

    def filtration_ok(akh: dict, kh: dict) -> bool:
        by_ij = summed(akh, lambda i, j, k: (i, j))
        return all(by_ij.get(key, 0) >= r for key, r in kh.items())

    per_grading_ok = filtration_ok(a_cover, k_cover) and filtration_ok(a_quot, k_quot)
    observed = chain_ok and per_grading_ok
    asserted = run.proven_family
    return Verdict(
        name="cascade",
        passed=observed if asserted else None,
        details={
            "totals": totals,
            "chain_ok": chain_ok,
            "per_grading_ok": per_grading_ok,
            "asserted": asserted,
            "observed_ok": observed,
        },
    )


def verify_congruences(run: PeriodicRun) -> Verdict:
    """The three mod-2 congruences between the decategorified AKh tables of
    the quotient and the cover (:func:`decat.check_congruences`)."""
    cong = decat.check_congruences(
        run.homology("quotient", Theory.AKH), run.homology("cover", Theory.AKH)
    )
    return Verdict(
        name="congruences",
        passed=cong.ok,
        details={
            "graded_ok": cong.graded_ok,
            "murasugi_ok": cong.murasugi_ok,
            "jones_ok": cong.jones_ok,
        },
    )
