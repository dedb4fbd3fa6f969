"""Sign patterns over the chords of an n-gon.

A sign pattern assigns + or - to every chord, i.e. it picks an orthant of the
ambient space of the dihedral embedding. Patterns are backed by an integer
bitmask in the canonical chord order (chord k is bit k, set = negative), and
``SignPattern`` is its one codec: bits <-> chord-order flags (``_from_flags``,
``_flags``) <-> '+'/'-' text (``_SIGNS``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .ngon import Chord, Polygon

# the sign character of a clear and of a set chord bit
_SIGNS = "+-"
# chord flags <-> sign characters, and <-> binary digits
_TO_SIGNS = bytes.maketrans(b"\0\1", _SIGNS.encode())
_FROM_SIGNS = bytes.maketrans(_SIGNS.encode(), b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


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
        if len(s) != m or set(s) - set(_SIGNS):
            raise ValueError(
                f"pattern must be {m} characters over '+'/'-', got {s!r}"
            )
        return cls._from_flags(n, s.encode().translate(_FROM_SIGNS))

    @classmethod
    def _from_flags(cls, n: int, flags: bytes | Sequence[bool]) -> "SignPattern":
        """Chord k negative where ``flags[k]``, bytes or bools, is 1: one base-2
        parse of ASCII digits, as setting m bits one at a time on an m-bit int is O(m^2)."""
        return cls(n, int(bytes(flags)[::-1].translate(_TO_DIGITS), 2))

    @classmethod
    def from_negative_chords(cls, n: int, negatives: Iterable[Chord]) -> "SignPattern":
        return cls(n, Polygon(n).mask(negatives))

    def __len__(self) -> int:
        return Polygon(self.n).chord_count

    def __str__(self) -> str:
        return self._flags().translate(_TO_SIGNS).decode()

    def _flags(self) -> bytes:
        """One byte per chord in chord order, 1 where the chord is negative."""
        return format(self.bits, f"0{len(self)}b")[::-1].encode().translate(_FROM_DIGITS)

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
    used. Ties between chords are broken lexicographically on (a, b): the
    first negative chord of ``Polygon._pick_order``.
    """
    if not pattern.bits:
        raise ValueError("pattern has no negative chord")
    poly, flags = Polygon(pattern.n), pattern._flags()
    order = poly._pick_order
    i, j = poly.chords[next(compress(order, map(flags.__getitem__, order)))]
    # the short arc runs i -> j unless it wraps past n, then j -> i
    return (i, j) if 2 * (j - i) <= poly.n else (j, i)
