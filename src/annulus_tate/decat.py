"""Polynomial-level invariants: the graded generating function V(t, q, x),
the Kauffman-bracket state sum, and the mod-2 congruences between a
2-periodic link and its quotient.

Polynomials live over the integers; congruences reduce mod 2 only at
comparison time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cube
from .khovanov import Theory, homology
from .links import AnnularDiagram, BraidWord, close_braid, double_cover, MAX_CROSSINGS, DiagramTooLarge

Exponent = tuple[int, int, int]  # (t, q, x)


class LaurentPoly:
    """A sparse integer Laurent polynomial in t, q, x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Exponent, int] | None = None) -> None:
        self.coeffs: dict[Exponent, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    self.coeffs[tuple(exp)] = c

    @classmethod
    def term(cls, coeff: int = 1, t: int = 0, q: int = 0, x: int = 0) -> "LaurentPoly":
        return cls({(t, q, x): coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Exponent, int] = {}
        for (t1, q1, x1), c1 in self.coeffs.items():
            for (t2, q2, x2), c2 in other.coeffs.items():
                exp = (t1 + t2, q1 + q2, x1 + x2)
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("only nonnegative powers are supported")
        result = LaurentPoly.term(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def substitute(
        self,
        t: "LaurentPoly | None" = None,
        q: "LaurentPoly | None" = None,
        x: "LaurentPoly | None" = None,
    ) -> "LaurentPoly":
        """Substitute a single-term Laurent monomial for each given variable."""
        maps = []
        for var, sub in (("t", t), ("q", q), ("x", x)):
            if sub is None:
                continue
            if len(sub.coeffs) != 1:
                raise ValueError(f"substitution for {var} must be a monomial")
            maps.append((var, *next(iter(sub.coeffs.items()))))
        out = LaurentPoly.zero()
        for (et, eq, ex), c in self.coeffs.items():
            exps = {"t": et, "q": eq, "x": ex}
            coeff = c
            acc = [0, 0, 0]
            for var, (mt, mq, mx), mc in maps:
                e = exps.pop(var)
                if e >= 0:
                    coeff *= mc**e
                elif abs(mc) == 1:
                    coeff *= mc ** (-e)
                else:
                    raise ValueError("cannot invert a non-unit coefficient")
                acc[0] += mt * e
                acc[1] += mq * e
                acc[2] += mx * e
            acc[0] += exps.get("t", 0)
            acc[1] += exps.get("q", 0)
            acc[2] += exps.get("x", 0)
            out = out + LaurentPoly.term(coeff, *acc)
        return out

    def coefficient(self, t: int = 0, q: int = 0, x: int = 0) -> int:
        return self.coeffs.get((t, q, x), 0)

    def mod2(self) -> "LaurentPoly":
        return LaurentPoly({exp: c % 2 for exp, c in self.coeffs.items()})

    def exponents(self) -> list[Exponent]:
        return sorted(self.coeffs)

    def to_quadruples(self) -> list[list[int]]:
        """Serialization: sorted [t, q, x, coeff] quadruples."""
        return [[t, q, x, self.coeffs[(t, q, x)]] for t, q, x in self.exponents()]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (t, q, x), c in sorted(self.coeffs.items()):
            mono = "".join(
                f"{v}^{e}" for v, e in (("t", t), ("q", q), ("x", x)) if e
            )
            parts.append(f"{c}{mono}" if mono else str(c))
        return " + ".join(parts)


ONE = LaurentPoly.term(1)
MINUS_ONE = LaurentPoly.term(-1)
Q_INV = LaurentPoly.term(1, q=-1)
Q_SQUARED = LaurentPoly.term(1, q=2)

# circle values in the state sum
TRIVIAL_CIRCLE = LaurentPoly({(0, 1, 0): 1, (0, -1, 0): 1})  # q + 1/q
NONTRIVIAL_CIRCLE = LaurentPoly({(0, 1, 1): 1, (0, -1, -1): 1})  # qx + 1/(qx)


def state_sum(diagram: AnnularDiagram) -> LaurentPoly:
    """Kauffman-bracket state sum with the annular circle weights.

    t^{n-} q^{n+ - 2 n-} * sum over resolutions of
    (tq)^{|alpha|} (q + q^-1)^{#trivial} (qx + q^-1 x^-1)^{#nontrivial}.
    """
    c = diagram.n_crossings
    if c > MAX_CROSSINGS:
        raise DiagramTooLarge(f"{c} crossings exceeds the {MAX_CROSSINGS}-crossing guard")
    total = LaurentPoly.zero()
    for alpha in range(1 << c):
        res = cube.resolve(diagram, alpha)
        trivial = sum(1 for circle in res.circles if circle.trivial)
        nontrivial = res.n_circles - trivial
        weight = cube.hamming(alpha)
        term = (
            LaurentPoly.term(1, t=weight, q=weight)
            * TRIVIAL_CIRCLE**trivial
            * NONTRIVIAL_CIRCLE**nontrivial
        )
        total = total + term
    shift = LaurentPoly.term(1, t=diagram.n_neg, q=diagram.n_pos - 2 * diagram.n_neg)
    return shift * total


def homology_poly(ranks: dict[tuple, int]) -> LaurentPoly:
    """Generating function sum over (i, j, k) of rank * t^i q^j x^k."""
    out: dict[Exponent, int] = {}
    for (i, j, k), r in ranks.items():
        if r:
            out[(i, j, k)] = out.get((i, j, k), 0) + r
    return LaurentPoly(out)


@dataclass
class CongruenceReport:
    """Outcome of the three mod-2 congruence checks for one quotient word."""

    word: BraidWord
    graded_ok: bool
    graded_failures: list[tuple[int, int]]
    murasugi_ok: bool
    jones_ok: bool
    quotient_poly: LaurentPoly
    cover_poly: LaurentPoly

    @property
    def ok(self) -> bool:
        return self.graded_ok and self.murasugi_ok and self.jones_ok


def _graded_congruence(v_quot: LaurentPoly, v_cover: LaurentPoly) -> list[tuple[int, int]]:
    """(j, k) pairs violating <V_cover(-1), q^{2j-k} x^k> = <V_quot(-1), q^j x^k> mod 2."""
    e_quot = v_quot.substitute(t=MINUS_ONE)
    e_cover = v_cover.substitute(t=MINUS_ONE)
    bad: list[tuple[int, int]] = []
    pairs: set[tuple[int, int]] = set()
    for (_, j, k) in e_quot.exponents():
        pairs.add((j, k))
    for (_, jj, k) in e_cover.exponents():
        if (jj + k) % 2 == 0:
            pairs.add(((jj + k) // 2, k))
        elif e_cover.coefficient(q=jj, x=k) % 2:
            # an odd exponent 2j-k has no quotient partner, so its
            # coefficient upstairs must be even
            bad.append((jj, k))
    for j, k in sorted(pairs):
        up = e_cover.coefficient(q=2 * j - k, x=k)
        down = e_quot.coefficient(q=j, x=k)
        if (up - down) % 2:
            bad.append((j, k))
    return bad


def check_congruences(
    word: BraidWord,
    quotient_ranks: dict[tuple, int] | None = None,
    cover_ranks: dict[tuple, int] | None = None,
) -> CongruenceReport:
    """Check the three decategorified congruences for a quotient word.

    Rank tables may be passed in to reuse homology already computed; they
    must be AKh tables keyed (i, j, k).
    """
    if quotient_ranks is None:
        quotient_ranks = homology(close_braid(word), Theory.AKH)
    if cover_ranks is None:
        cover_diagram, _ = double_cover(word)
        cover_ranks = homology(cover_diagram, Theory.AKH)

    v_quot = homology_poly(quotient_ranks)
    v_cover = homology_poly(cover_ranks)

    graded_failures = _graded_congruence(v_quot, v_cover)

    one = LaurentPoly.term(1)
    quot_j1 = v_quot.substitute(t=one, x=Q_INV)
    cover_j1 = v_cover.substitute(t=one, x=Q_INV)
    murasugi_ok = (cover_j1 + quot_j1 * quot_j1).mod2().is_zero()

    cover_jones = v_cover.substitute(t=one, x=one)
    quot_jones = v_quot.substitute(t=one, q=Q_SQUARED, x=Q_INV)
    jones_ok = (cover_jones + quot_jones).mod2().is_zero()

    return CongruenceReport(
        word=word,
        graded_ok=not graded_failures,
        graded_failures=graded_failures,
        murasugi_ok=murasugi_ok,
        jones_ok=jones_ok,
        quotient_poly=v_quot,
        cover_poly=v_cover,
    )
