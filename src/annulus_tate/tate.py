"""Tate complexes of 2-periodic covers and their spectral sequences.

The Tate bicomplex of a cover complex C with chain involution tau has one
column per power of a deck variable theta: it is C (x) F2[theta, 1/theta]
with differential d + theta (1 + tau).  Every column is a copy of C, so
the bicomplex is computed folded: one engine generator g per cover
generator stands for all of its column copies (g, t).  The arrows are the
cover arrows (coefficient theta^0) and, for each non-equivariant g, the
horizontal arrows g -> g and g -> tau g (theta^1).  Under the total grading
i + t an arrow g -> g' can only carry theta^a with a = 1 + i(g) - i(g'), so
one bit per entry determines the complex and Gaussian cancellation is exact
on it, with one rule: a self-loop g -> g (theta times the identity, a chain
through all columns) is never a pivot.  Ranks read off the folded complex
are ranks of one column (row filtration) or one diagonal (total homology)
of the bi-infinite bicomplex, with no truncation to finitely many columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from . import cube, decat
from .f2algebra import (
    FilteredComplex,
    PageTable,
    cancel_shift_level,
    degree_masks,
    rank_table,
)
from .khovanov import (
    GradedComplex,
    Theory,
    _blocks,
    _map_blocks,
    build_complex,
    homology_of,
    rows_of,
    summed,
    total_rank,
)
from .links import BraidWord, CoverPairing, close_braid, double_cover


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


def _port_circle_map(res: cube.Resolution) -> dict[int, int]:
    return {port: idx for idx, circle in enumerate(res.circles) for port in circle.ports}


def _circle_images(res: cube.Resolution, target: cube.Resolution, level_of) -> list[int]:
    """For each circle of ``res``, the index of the circle of ``target``
    through the image of its minimal port, (level, strand) going to
    (level_of(level), strand)."""
    m = res.strands
    circle_of = _port_circle_map(target)
    images = []
    for circle in res.circles:
        level, strand = divmod(circle.min_port, m)
        images.append(circle_of[level_of(level) * m + strand])
    return images


def tau_table(gc: GradedComplex, pairing: CoverPairing) -> list[int]:
    """The chain involution as a permutation of generator indices."""
    n = pairing.quotient_crossings
    width = gc.diagram.n_crossings
    if width != 2 * n:
        raise ValueError("complex is not built on a double-cover diagram")
    tau = [0] * gc.n_generators
    for beta, res in enumerate(gc.resolutions):
        tbeta = cube.swap_halves(beta, width) if n else beta
        perm = _circle_images(res, gc.resolutions[tbeta], pairing.shift_level)
        off, toff = gc.offsets[beta], gc.offsets[tbeta]
        for labels in range(1 << res.n_circles):
            tlabels = 0
            rest = labels
            while rest:
                low = rest & -rest
                tlabels |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            tau[off + labels] = toff + tlabels
    return tau


def check_equivariance(gc: GradedComplex, tau: list[int], theory: Theory) -> Verdict:
    """The ``equivariance-<theory>`` verdict: the involution ``tau`` (from
    :func:`tau_table`) squares to the identity, preserves the gradings,
    commutes with the differential of ``theory`` (it maps the targets of
    each generator x onto the targets of tau x), and fixes generators only
    at even Hamming weight."""
    rng = range(gc.n_generators)
    row = rows_of(gc, theory)
    fixed = [g for g in rng if tau[g] == g]
    passed = (
        all(tau[tau[g]] == g for g in rng)
        and all(
            (gc.gi[g], gc.gj[g], gc.gk[g]) == (gc.gi[t], gc.gj[t], gc.gk[t])
            for g, t in enumerate(tau)
        )
        # tau is an involution by now, so the condition at x is the one at tau x
        and all({tau[y] for y in row(x)} == set(row(tau[x])) for x in rng if x <= tau[x])
        and all(cube.hamming(gc.vertex_of[g]) % 2 == 0 for g in fixed)
    )
    return Verdict(
        name=f"equivariance-{theory.value}",
        passed=passed,
        details={"equivariant_generators": len(fixed)},
    )


# ---------------------------------------------------------------------------
# the folded Tate complex


@dataclass
class TateBicomplex:
    """The Tate bicomplex of one theory, folded over F2[theta, 1/theta].

    ``cover`` is the full Kh complex of the cover, read through its
    ``theory`` arrows (``khovanov.rows_of``).  Equivariant generators emit
    no horizontal arrows: their two copies g -> g and g -> tau g coincide
    and cancel mod 2.
    """

    cover: GradedComplex
    tau: list[int] = field(repr=False)
    theory: Theory

    def __post_init__(self) -> None:
        self._cover_row = rows_of(self.cover, self.theory)

    @property
    def n_generators(self) -> int:
        return self.cover.n_generators

    def row(self, g: int) -> list[int]:
        """Arrow targets of g: the cover arrows (theta^0), then the theta^1
        arrows g -> g and g -> tau g if g is not equivariant."""
        tg = self.tau[g]
        row = self._cover_row(g)
        return row + [g, tg] if tg != g else row

    def blocks(self) -> Iterator[tuple[FilteredComplex, list[int]]]:
        """Engine complexes per (j, k) (AKh) or j (Kh) block, filtered by i,
        built one at a time as ``khovanov._blocks`` yields them; members[x]
        is the cover generator at engine index x."""
        return _blocks(self.cover, self.theory, row_of=self.row)


@dataclass
class HvPages:
    """Row-filtered spectral sequence of the Tate complex.

    Keys of ``pages`` are (i, j, k) for AKh and (i, j) for Kh: the ranks of
    one column.  The odd-page check asserts that ranks do not move from
    page 2s+1 to page 2s+2.  ``d2_observed`` holds the (delta-i = 2,
    a = -1) arrows g1 -> g2 read off after cancelling exactly the tau
    arrows, and ``d2_strays`` any nonequivariant survivors of that
    cancellation (there should be none).
    """

    pages: PageTable
    odd_pages_ok: bool
    d2_observed: set = field(default_factory=set)
    d2_strays: list = field(default_factory=list)


def _tau_sweep(C: FilteredComplex, members: list[int], tau: list[int]) -> bool:
    """Cancel exactly the tau arrows g -> tau g, lower end of each orbit
    first.  A cancellation removes its whole orbit and toggles only arrows
    that raise i by at least 2, so one pass reaches every orbit."""
    local = {g: x for x, g in enumerate(members)}
    acted = False
    for x in C.generators():
        tx = local[tau[members[x]]]
        if tx != x and C.has_arrow(x, tx):
            C.cancel_arrow(x, tx)
            acted = True
    return acted


def hv_pages(b: TateBicomplex) -> HvPages:
    """Spectral sequence of the row-wise (i) filtration, to page
    max(3, i-span + 2), past the largest shift.

    Page 0 is cancelled tau-arrows-first (then the lexicographic sweep
    finishes the shift-0 level); rank tables are order-independent, and
    the intermediate state after the tau sweep is exactly where the
    induced length-2 differentials are read off.  The blocks run on every
    CPU (``khovanov._map_blocks``); each returns its page tables,
    ``d_nonzero`` flags, observed d2 arrows and strays, merged in block
    order.
    """
    max_page = max(3, b.cover.i_span() + 2)
    gi, tau = b.cover.gi, b.tau

    def block_pages(C: FilteredComplex, members: list[int]):
        masks = degree_masks(C)
        ranks = [rank_table(C)]
        acted = _tau_sweep(C, members, tau)
        observed: list[tuple[int, int]] = []
        strays: list[int] = []
        for src in C.generators():
            g1 = members[src]
            if tau[g1] != g1:
                strays.append(g1)
            for tgt in C.targets(src):
                g2 = members[tgt]
                if gi[g2] - gi[g1] == 2:
                    observed.append((g1, g2))
        moved = [cancel_shift_level(C, 0, masks) or acted]
        for r in range(1, max_page + 1):
            ranks.append(rank_table(C))
            moved.append(cancel_shift_level(C, r, masks))
        return ranks, moved, observed, strays

    pages = PageTable(max_page=max_page)
    observed: set[tuple[int, int]] = set()
    strays: list[int] = []
    for ranks, moved, block_observed, block_strays in _map_blocks(
        b.cover, b.theory, block_pages, row_of=b.row
    ):
        for r in range(max_page + 1):
            pages.ranks[r].update(ranks[r])
            pages.d_nonzero[r] |= moved[r]
        observed.update(block_observed)
        strays += block_strays
    return HvPages(
        pages=pages,
        odd_pages_ok=all(
            pages.table(r) == pages.table(r + 1) for r in range(1, pages.max_page, 2)
        ),
        d2_observed=observed,
        d2_strays=sorted(strays),
    )


@dataclass
class VhPages:
    """Column-filtered spectral sequence; page 1 carries the cover
    homology.  Keys are (i, j, k) for AKh and (i, j) for Kh."""

    pages: PageTable
    e1_ok: bool


def vh_pages(b: TateBicomplex) -> VhPages:
    """Spectral sequence of the column-wise (t) filtration, pages 0-2.

    An arrow g -> g' moves a = 1 + i(g) - i(g') columns, so page r cancels
    the arrows that shift i by 1 - r.
    """
    pages = PageTable(max_page=2)
    for C, _ in b.blocks():
        masks = degree_masks(C)
        for r in range(pages.max_page + 1):
            pages.ranks[r].update(rank_table(C))
            pages.d_nonzero[r] |= cancel_shift_level(C, 1 - r, masks)
        del C, masks  # before the next block is built
    cover_table = {k: r for k, r in homology_of(b.cover, b.theory).items() if r}
    return VhPages(pages=pages, e1_ok=pages.table(1) == cover_table)


# ---------------------------------------------------------------------------
# verification harness


class PeriodicRun:
    """Shared computations for one quotient braid word.

    One full Kh complex is cached per side, "quotient" (the closure of the
    word) or "cover" (its 2-periodic double cover); AKh is read from it.
    Rank tables are cached per (side, theory).  Kh tables come from the
    reduced complex, a second build of the side that is not kept.  Every
    build on a side reuses the resolutions and classified edges of its
    first build.
    """

    def __init__(self, word: BraidWord) -> None:
        self.word = word
        self.quotient_diagram = close_braid(word)
        self.cover_diagram, self.pairing = double_cover(word)
        self._cubes: dict = {}
        self._complexes: dict = {}
        self._homology: dict = {}
        self._hv: dict = {}

    def _build(self, side: str, reduced: bool = False) -> GradedComplex:
        """A new complex of ``side``, on the side's shared cube."""
        diagram = {"quotient": self.quotient_diagram, "cover": self.cover_diagram}[side]
        gc = build_complex(diagram, *self._cubes.get(side, ()), reduced=reduced)
        self._cubes.setdefault(side, (gc.resolutions, gc.edges))
        return gc

    def complex(self, side: str) -> GradedComplex:
        if side not in self._complexes:
            self._complexes[side] = self._build(side)
        return self._complexes[side]

    def homology(self, side: str, theory: Theory) -> dict[tuple, int]:
        key = (side, theory)
        if key not in self._homology:
            gc = self._build(side, reduced=True) if theory is Theory.KH else self.complex(side)
            self._homology[key] = homology_of(gc, theory)
        return self._homology[key]

    @cached_property
    def tau(self) -> list[int]:
        return tau_table(self.complex("cover"), self.pairing)

    def tate(self, theory: Theory) -> TateBicomplex:
        return TateBicomplex(cover=self.complex("cover"), tau=self.tau, theory=theory)

    def hv(self, theory: Theory) -> HvPages:
        if theory not in self._hv:
            self._hv[theory] = hv_pages(self.tate(theory))
        return self._hv[theory]

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
    n = run.pairing.quotient_crossings
    lift: dict[int, int] = {}
    for alpha, qres in enumerate(gq.resolutions):
        beta = alpha | (alpha << n) if n else alpha
        cres = gcov.resolutions[beta]
        proj = _circle_images(cres, qres, lambda level: level % n if n else level)
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
        for qlabels in range(1 << qres.n_circles):
            clabels = 0
            for ci, qci in enumerate(proj):
                if (qlabels >> qci) & 1:
                    clabels |= 1 << ci
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
