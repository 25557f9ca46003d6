"""Braid words, their annular closures, and 2-periodic double covers.

A braid word in B_m is a sequence of signed Artin generators.  Its closure
lives in a thickened annulus, with a marked seam where crossing level c is
glued back to level 0.  A 2-periodic link is always presented here as the
closure of a doubled word w.w, whose 2n crossings pair crossing i with
crossing i + n; the 180-degree rotation of the annulus then acts on
bitstrings by swapping the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass

# Cube size 2^22 is the desk-scale ceiling for every diagram we accept.
MAX_CROSSINGS = 22

# Generators one ``khovanov.build_complex`` may hold.  Calibrated on peaks
# measured on 2 vCPUs: the 531,444-generator cover of "1 1 1 1 1 1"/2 ran
# ``periodic`` at 1,507 MB, about 2.8 KB per cover generator, so the cap
# stands for about 2 GiB per process and refuses the seven-letter B2 cover.
# The engine's forked children (``khovanov._fork_map``) come on top: on
# that cover one child held up to about 1.25 GB of pages of its own.
MAX_GENERATORS = 750_000


class BraidError(ValueError):
    """Malformed braid input: bad token, zero letter, index out of range, or
    more strands than any closure within the size guards can have."""


class DiagramTooLarge(ValueError):
    """Diagram exceeds a size guard: more than MAX_CROSSINGS crossings, or
    more than MAX_GENERATORS generators in the complex that
    ``khovanov.build_complex`` builds, counted vertex by vertex before each
    vertex's labelings are expanded."""


@dataclass(frozen=True)
class BraidWord:
    """A word in B_strands; letters are nonzero ints g with |g| <= strands - 1."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise BraidError(f"strand count must be positive, got {self.strands}")
        # a strand no crossing touches is a circle of every resolution, so
        # past this count every cube vertex alone passes MAX_GENERATORS
        limit = 2 * MAX_CROSSINGS + MAX_GENERATORS.bit_length()
        if self.strands > limit:
            raise BraidError(
                f"{self.strands} strands exceeds the {limit}-strand guard: every closure "
                f"within {MAX_CROSSINGS} crossings has over {MAX_GENERATORS:,} generators"
            )
        for g in self.letters:
            if g == 0:
                raise BraidError("0 is not a braid generator")
            if abs(g) >= self.strands:
                raise BraidError(
                    f"generator {g} needs at least {abs(g) + 1} strands, have {self.strands}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def n_pos(self) -> int:
        return sum(1 for g in self.letters if g > 0)

    @property
    def n_neg(self) -> int:
        return sum(1 for g in self.letters if g < 0)

    def repeated(self) -> "BraidWord":
        """The doubled word w.w presenting the 2-periodic cover."""
        return BraidWord(self.strands, self.letters + self.letters)

    def as_text(self) -> str:
        return " ".join(str(g) for g in self.letters)


@dataclass(frozen=True)
class Crossing:
    """One crossing of an annular diagram: strand position and sign."""

    position: int
    sign: int


@dataclass(frozen=True)
class AnnularDiagram:
    """An annular braid-closure diagram.

    Crossing order is braid-word letter order; crossing i sits at level i
    and is controlled by bit i of a resolution bitstring.  The seam glues
    level n_crossings back to level 0.  A diagram with more than
    MAX_CROSSINGS crossings is refused with DiagramTooLarge.
    """

    strands: int
    crossings: tuple[Crossing, ...]

    def __post_init__(self) -> None:
        if len(self.crossings) > MAX_CROSSINGS:
            raise DiagramTooLarge(
                f"{len(self.crossings)} crossings exceeds the {MAX_CROSSINGS}-crossing guard"
            )

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_pos(self) -> int:
        return sum(1 for cr in self.crossings if cr.sign > 0)

    @property
    def n_neg(self) -> int:
        return sum(1 for cr in self.crossings if cr.sign < 0)


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices, e.g. "1 1 -2"."""
    letters = []
    for token in text.split():
        try:
            letters.append(int(token))
        except ValueError:
            raise BraidError(f"braid letter {token!r} is not an integer") from None
    return BraidWord(strands, tuple(letters))


def close_braid(word: BraidWord) -> AnnularDiagram:
    """Annular closure of a braid word, one crossing per letter in word order."""
    crossings = tuple(
        Crossing(position=abs(g) - 1, sign=1 if g > 0 else -1) for g in word.letters
    )
    return AnnularDiagram(strands=word.strands, crossings=crossings)


def double_cover(word: BraidWord) -> AnnularDiagram:
    """Closure of the doubled word w.w: its crossing i + n repeats crossing
    i, n = len(word), and the half-turn maps each to the other."""
    return close_braid(word.repeated())
