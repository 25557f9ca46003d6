"""Tate complexes of 2-periodic covers and their spectral sequences.

The Tate bicomplex of a cover complex C with chain involution tau has one
column per power of a deck variable theta: it is C (x) F2[theta, 1/theta]
with differential d + theta (1 + tau).  Every column is a copy of C, so
the bicomplex is computed folded: one engine generator g per cover
generator stands for all of its column copies (g, t).  Under the total
grading i + t an arrow g -> g' can only carry theta^a with
a = 1 + i(g) - i(g'), so one bit per entry determines the complex, and
Gaussian cancellation is exact on it.  Only the cover arrows (theta^0) are
stored.  The theta^1 arrows g -> g and g -> tau g of each non-equivariant
g stay implicit (an equivariant g has none: its two copies coincide and
cancel mod 2).  They are the whole page-0 differential of the row (i)
filtration, and page 0 cancels each free pair g < tau g along its arrow
g -> tau g (``FilteredComplex.cancel_pair``).  tau keeps every grading and
a cover arrow raises i by exactly 1, so each such cancellation toggles
only arrows from level i - 1 to level i + 1: no theta arrow or self-loop is
ever created, removed or read, and none is left once every pair is gone.
Ranks read off the folded complex are ranks of one column of the
bi-infinite bicomplex, with no truncation to finitely many columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import cube, decat
from .f2algebra import (
    FilteredComplex,
    FilteredComplexError,
    PageTable,
    cancel_shift_level,
    degree_masks,
    homology_ranks,
    rank_table,
)
from .khovanov import (
    GradedComplex,
    Theory,
    _map_blocks,
    build_complex,
    homology_of,
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


def _port_circle_map(res: cube.Resolution) -> dict[int, int]:
    return {port: idx for idx, circle in enumerate(res.circles) for port in circle.ports}


def _circle_images(
    res: cube.Resolution, target: cube.Resolution, m: int, shift: int, period: int
) -> list[int]:
    """For each circle of ``res``, on ``m`` strands, the index of the circle
    of ``target`` through the image of its minimal port, (level, strand)
    going to ((level + shift) mod period, strand)."""
    circle_of = _port_circle_map(target)
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


def block_tau(members: list[int], tau: list[int]) -> list[int]:
    """tau on the engine indices of a cover block that holds the cover
    generator members[x] at engine index x; ``tau`` is the chain involution
    of the cover (:func:`tau_table`).  A tau that leaves the block raises
    FilteredComplexError.
    """
    local = {g: x for x, g in enumerate(members)}
    try:
        return [local[tau[g]] for g in members]
    except KeyError:
        raise FilteredComplexError("arrow leaves its grading block") from None


@dataclass
class HvPages:
    """Row-filtered spectral sequence of the Tate complex, and the cover
    homology its blocks were assembled for.

    Keys of ``pages`` are (i, j, k) for AKh and (i, j) for Kh: the ranks of
    one column.  ``cover`` holds the homology ranks of the cover complex in
    ``theory``, same keys, read off each block before page 0 cancels its
    free pairs.  The odd-page check asserts that ranks do not move from page
    2s+1 to page 2s+2.  ``d2_observed`` holds the (delta-i = 2, a = -1)
    arrows g1 -> g2 read off once page 0 has cancelled every free pair, and
    ``d2_strays`` any nonequivariant survivors of page 0 (there should be
    none).
    """

    pages: PageTable
    cover: dict[tuple, int]
    odd_pages_ok: bool
    d2_observed: set = field(default_factory=set)
    d2_strays: list = field(default_factory=list)


def _tau_sweep(C: FilteredComplex, tau: list[int]) -> bool:
    """Page 0 of a Tate block: cancel each free pair x < tau x (``tau`` on
    engine indices) along its implicit arrow x -> tau x; returns True if
    the block has one.  A cancellation toggles only arrows that raise i by
    2, so it leaves every other pair as it found it."""
    acted = False
    for x, tx in enumerate(tau):
        if x < tx:
            C.cancel_pair(x, tx)
            acted = True
    return acted


def hv_pages(cover: GradedComplex, tau: list[int], theory: Theory) -> HvPages:
    """Spectral sequence of the row-wise (i) filtration of the Tate complex
    of ``cover`` in ``theory``, with chain involution ``tau``, to page
    max(3, i-span + 2), past the largest shift, and the cover homology.

    The engine complexes are the cover's (j, k) (AKh) or j (Kh) blocks,
    filtered by i, each assembled once from the cover arrows: its homology
    ranks, on a copy, are its share of the cover table, and the block
    itself is its Tate block, whose theta arrows are implicit (see the
    module docstring).  Page 0's differential is theta (1 + tau), so page 0
    cancels each free pair x < tau x in place (:func:`_tau_sweep`), and
    pages r >= 1 cancel the arrows of shift r.  The state after page 0 is
    where the induced length-2 differentials are read off.  The blocks
    run on every CPU (``khovanov._map_blocks``); each returns its
    cover ranks, page tables, ``d_nonzero`` flags, observed d2 arrows and
    strays, merged in block order.
    """
    max_page = max(3, cover.i_span() + 2)
    gi = cover.gi

    def block_pages(C: FilteredComplex, members: list[int]):
        local_tau = block_tau(members, tau)
        block_cover = homology_ranks(C.copy())
        masks = degree_masks(C)
        ranks = [rank_table(C)]
        moved = [_tau_sweep(C, local_tau)]
        observed: list[tuple[int, int]] = []
        strays: list[int] = []
        for src in C.generators():
            g1 = members[src]
            if local_tau[src] != src:
                strays.append(g1)
            for tgt in C.targets(src):
                g2 = members[tgt]
                if gi[g2] - gi[g1] == 2:
                    observed.append((g1, g2))
        for r in range(1, max_page + 1):
            ranks.append(rank_table(C))
            moved.append(cancel_shift_level(C, r, masks))
        return block_cover, ranks, moved, observed, strays

    pages = PageTable(max_page=max_page)
    cover_table: dict[tuple, int] = {}
    observed: set[tuple[int, int]] = set()
    strays: list[int] = []
    for block_cover, ranks, moved, block_observed, block_strays in _map_blocks(
        cover, theory, block_pages
    ):
        cover_table.update(block_cover)
        pages.add(ranks, moved)
        observed.update(block_observed)
        strays += block_strays
    return HvPages(
        pages=pages,
        cover=cover_table,
        odd_pages_ok=all(
            pages.table(r) == pages.table(r + 1) for r in range(1, pages.max_page, 2)
        ),
        d2_observed=observed,
        d2_strays=sorted(strays),
    )


# ---------------------------------------------------------------------------
# verification harness


class PeriodicRun:
    """Shared computations for one quotient braid word.

    One full Kh complex is built per side, "quotient" (the closure of the
    word) or "cover" (its 2-periodic double cover), and every table of the
    side is read off it; AKh is read through its k-preserving arrows.  A
    cover table is read off the Tate pages of its theory (``hv``), which
    assemble each block once for both readings, when they have run;
    otherwise, as on the quotient, it is one ``homology_of`` pass, cached
    per theory.  A run of both theories so makes two builds.
    """

    def __init__(self, word: BraidWord) -> None:
        self.word = word
        self.quotient_diagram = close_braid(word)
        self.cover_diagram = double_cover(word)
        self._complexes: dict = {}
        self._homology: dict = {}
        self._hv: dict = {}

    def complex(self, side: str) -> GradedComplex:
        if side not in self._complexes:
            diagram = {"quotient": self.quotient_diagram, "cover": self.cover_diagram}[side]
            self._complexes[side] = build_complex(diagram)
        return self._complexes[side]

    def homology(self, side: str, theory: Theory) -> dict[tuple, int]:
        if side == "cover" and theory in self._hv:
            return self._hv[theory].cover
        key = (side, theory)
        if key not in self._homology:
            self._homology[key] = homology_of(self.complex(side), theory)
        return self._homology[key]

    @cached_property
    def tau(self) -> list[int]:
        return tau_table(self.complex("cover"))

    def hv(self, theory: Theory) -> HvPages:
        if theory not in self._hv:
            self._hv[theory] = hv_pages(self.complex("cover"), self.tau, theory)
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
