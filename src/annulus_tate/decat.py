"""Decategorified invariants: the Kauffman-bracket state sum and the mod-2
congruences between a 2-periodic link and its quotient.

A polynomial in t, q, x is a dict {(t, q, x): coeff} with no zero
coefficients.  An AKh rank table keyed (i, j, k) is already the graded
generating function V(t, q, x) in this form.

The congruences compare graded Euler characteristics mod 2, the
periodic-knot congruences in the line of Murasugi ("On periodic knots",
Comment. Math. Helv. 1971).  Over F2, (-1)^i = 1, so each one is a parity
check of i-summed AKh tables: it holds when the cover and the quotient
have odd rank at the same keys.  Squaring is the Frobenius map mod 2,
f(q)^2 = f(q^2), so the quotient side of the Murasugi congruence
V_cover(1, q, 1/q) = V_L(1, q, 1/q)^2 is keyed by 2(j - k).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from . import cube
from .khovanov import summed
from .links import AnnularDiagram

Poly = dict[tuple[int, int, int], int]  # (t, q, x) -> nonzero coefficient


def quadruples(poly: Poly) -> list[list[int]]:
    """Serialization: [t, q, x, coeff] quadruples sorted by exponent."""
    return [[*exp, c] for exp, c in sorted(poly.items())]


def state_sum(diagram: AnnularDiagram) -> Poly:
    """Kauffman-bracket state sum with the annular circle weights.

    t^{n-} q^{n+ - 2 n-} * sum over resolutions of
    (tq)^{|alpha|} (q + q^-1)^{#trivial} (qx + q^-1 x^-1)^{#nontrivial}.
    """
    states: Counter = Counter()  # (|alpha|, #trivial, #nontrivial) -> resolutions
    links = cube.PortLinks(diagram)
    for alpha in range(1 << diagram.n_crossings):
        res = cube.resolve(diagram, alpha, links)
        trivial = sum(1 for circle in res.circles if circle.trivial)
        states[cube.hamming(alpha), trivial, res.n_circles - trivial] += 1
    shift = diagram.n_pos - 2 * diagram.n_neg
    out: Poly = {}
    for (w, a, b), n in states.items():
        for s in range(a + 1):
            for u in range(b + 1):
                exp = (diagram.n_neg + w, shift + w + a - 2 * s + b - 2 * u, b - 2 * u)
                out[exp] = out.get(exp, 0) + n * math.comb(a, s) * math.comb(b, u)
    return out


@dataclass
class CongruenceReport:
    """Outcome of the three mod-2 congruence checks for one quotient word."""

    graded_ok: bool
    murasugi_ok: bool
    jones_ok: bool

    @property
    def ok(self) -> bool:
        return self.graded_ok and self.murasugi_ok and self.jones_ok


def _odd(table: dict[tuple, int], key_of) -> set:
    """The keys at which the ranks of ``table`` summed by ``key_of`` are odd."""
    return {key for key, rank in summed(table, key_of).items() if rank % 2}


def check_congruences(
    quotient_ranks: dict[tuple, int], cover_ranks: dict[tuple, int]
) -> CongruenceReport:
    """The three decategorified congruences between the AKh tables (keys
    (i, j, k)) of a quotient and its 2-periodic cover."""

    def agree(quotient_key, cover_key) -> bool:
        return _odd(quotient_ranks, quotient_key) == _odd(cover_ranks, cover_key)

    return CongruenceReport(
        # <V_cover(-1), q^{2j-k} x^k> = <V_L(-1), q^j x^k>
        graded_ok=agree(lambda i, j, k: (2 * j - k, k), lambda i, j, k: (j, k)),
        # V_cover(1, q, 1/q) = V_L(1, q, 1/q)^2
        murasugi_ok=agree(lambda i, j, k: 2 * (j - k), lambda i, j, k: j - k),
        # V_cover(1, q, 1) = V_L(1, q^2, 1/q)
        jones_ok=agree(lambda i, j, k: 2 * j - k, lambda i, j, k: j),
    )
