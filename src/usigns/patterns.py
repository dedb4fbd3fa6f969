"""Sign patterns over the chords of an n-gon.

A sign pattern assigns + or - to every chord, i.e. it picks an orthant of the
ambient space of the dihedral embedding. Patterns are backed by an integer
bitmask in the canonical chord order (bit set = negative), which keeps the
enumeration and the solver's sign transports cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ngon import Chord, Polygon

# binary digits <-> sign characters; chord k is bit k, so strings read reversed
_TO_SIGNS = str.maketrans("01", "+-")
_FROM_SIGNS = str.maketrans("+-", "01")


@dataclass(frozen=True)
class SignPattern:
    """Signs over chords(n) in canonical order; bit set means negative."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        m = Polygon(self.n).chord_count
        if not 0 <= self.bits < (1 << m):
            raise ValueError(f"bits out of range for {m} chords")

    @classmethod
    def all_plus(cls, n: int) -> "SignPattern":
        return cls(n, 0)

    @classmethod
    def all_minus(cls, n: int) -> "SignPattern":
        return cls(n, (1 << Polygon(n).chord_count) - 1)

    @classmethod
    def from_string(cls, n: int, s: str) -> "SignPattern":
        """Parse '+'/'-' characters in canonical chord order."""
        m = Polygon(n).chord_count
        if len(s) != m or set(s) - {"+", "-"}:
            raise ValueError(
                f"pattern must be {m} characters over '+'/'-', got {s!r}"
            )
        return cls(n, int(s[::-1].translate(_FROM_SIGNS), 2))

    @classmethod
    def from_negative_chords(cls, n: int, negatives: Iterable[Chord]) -> "SignPattern":
        return cls(n, Polygon(n).mask(negatives))

    def __len__(self) -> int:
        return Polygon(self.n).chord_count

    def __str__(self) -> str:
        m = Polygon(self.n).chord_count
        return format(self.bits, f"0{m}b")[::-1].translate(_TO_SIGNS)

    def is_negative(self, c: Chord) -> bool:
        return bool(self.bits & Polygon(self.n).mask((c,)))

    def sign(self, c: Chord) -> int:
        """+1 or -1 for one chord."""
        return -1 if self.is_negative(c) else 1

    def negatives(self) -> tuple[Chord, ...]:
        poly = Polygon(self.n)
        return tuple(c for k, c in enumerate(poly.chords) if self.bits >> k & 1)

    def is_all_plus(self) -> bool:
        return self.bits == 0


def stats(pattern: SignPattern) -> tuple[int, int | None]:
    """(number of negative chords, length of the shortest one or None).

    The pair the ordering solver drives down, read off the one picker.
    """
    bits = pattern.bits
    if not bits:
        return 0, None
    a, b = shortest_negative(pattern)
    return bits.bit_count(), (b - a) % pattern.n


def shortest_negative(pattern: SignPattern) -> tuple[int, int]:
    """Oriented shortest negative chord (a, b) with b == a + length mod n.

    The orientation runs along the short arc a -> a+1 -> ... -> b; when both
    arcs tie (length n/2) the orientation with the smaller first endpoint is
    used. Ties between chords are broken lexicographically on (a, b).
    """
    bits = pattern.bits
    if not bits:
        raise ValueError("pattern has no negative chord")
    poly = Polygon(pattern.n)
    _, a, b = min(
        (d, i, j) if j - i == d else (d, j, poly.wrap(j + d))
        for k, ((i, j), d) in enumerate(zip(poly.chords, poly.lengths))
        if bits >> k & 1
    )
    return a, b
