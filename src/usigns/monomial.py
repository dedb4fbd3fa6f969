"""Signed Laurent-monomial coordinate changes between dihedral charts.

A chart is "the n-gon with positions 1..n"; a map sends each chord of its
source chart to a signed monomial in the chords of its target chart. Every
map is the chart change between two dihedral orderings, so it is named by
its (source, target) words alone: composition checks that the charts chain
and returns the chart change from the inner source to the outer target, and
inversion swaps the two words. The images are read off the words lazily.

Every chart change is read off in closed form (Brown 2009, section 2): the
product of the target-chart u's over a rectangle of chords, x in [a, b) and
y in [c, d), telescopes to the cross-ratio d_ad*d_bc/(d_ac*d_bd) of the
points at those positions. Each source-chart u is a cross-ratio of four
points, and so is plus or minus a ratio of two such rectangles, which are
disjoint and sum to 1 by an extended u-relation. Every image exponent is -1,
0 or 1; since the u's are multiplicatively independent, the image is the
only monomial with that value. A map keeps, per source chord, only its
sign and the four corners and two exponents of its rectangles: a sign
transport reads each rectangle's parity off a prefix-parity grid of the
pattern at those corners, and evaluation reads each rectangle row's product
as a quotient of two per-row prefix products, so neither builds a monomial.

Direction convention: a map is a ring map, source-chart variables expressed
in target-chart variables. ``map_for_ordering(word)`` goes from the chart of
``word`` to the standard chart, so evaluating it on standard u-values yields
the u-values of the relabeled configuration.

Everything is exact: evaluation works on integer numerators and denominators
and signs are tracked through parity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, xor
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .ngon import Chord, Polygon, _check_permutation, _cut_runs
from .patterns import SignPattern
from .points import _nonzero_values
from .signs import _odd, _places

Word = tuple[int, ...]


class ChartMismatchError(ValueError):
    """Composition of maps whose charts do not chain."""


@dataclass(frozen=True)
class SignedMonomial:
    """sign * product of chord variables with integer exponents.

    ``powers`` is sorted by chord and omits zero exponents, so equal
    monomials compare equal structurally.
    """

    sign: int
    powers: tuple[tuple[Chord, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    @classmethod
    def make(cls, sign: int, exponents: Mapping[Chord, int]) -> "SignedMonomial":
        powers = tuple(sorted((c, e) for c, e in exponents.items() if e != 0))
        return cls(sign, powers)

    def render(self) -> str:
        if not self.powers:
            return "-1" if self.sign < 0 else "1"
        factors = "*".join(
            f"u[{i},{j}]" + (f"^{e}" if e != 1 else "")
            for (i, j), e in self.powers
        )
        return ("-" if self.sign < 0 else "") + factors


@dataclass(frozen=True)
class MonomialMap:
    """Chart change from the chart of ``source`` to the chart of ``target``.

    The two words name the map; ``images`` is read off them in closed form,
    aligned with the canonical chord order of the source chart's positions,
    with monomial factors in target-chart positions.
    """

    n: int
    source: Word
    target: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", _check_permutation(self.source, self.n))
        object.__setattr__(self, "target", _check_permutation(self.target, self.n))

    @property
    def poly(self) -> Polygon:
        return Polygon(self.n)

    @cached_property
    def _row_list(self) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
        """``_rows``, read once for ``images``, ``evaluate`` and
        ``transport``."""
        return tuple(list(_rows(self.poly, self.source, self.target)))

    @cached_property
    def images(self) -> tuple[SignedMonomial, ...]:
        poly = self.poly
        chords = poly.chords
        return tuple(
            SignedMonomial(
                -1 if odd else 1,
                tuple(
                    (c, x)
                    for k, size, x in _cut_runs(poly, *corners)
                    for c in chords[k:k + size]
                ),
            )
            for odd, *corners in self._row_list
        )

    def image(self, c: Chord) -> SignedMonomial:
        poly = self.poly
        return self.images[poly.chord_index[poly.chord(*c)]]

    def is_identity(self) -> bool:
        return all(
            mono.sign == 1 and mono.powers == ((c, 1),)
            for c, mono in zip(self.poly.chords, self.images)
        )

    def render(self) -> str:
        """One line per source chord: "u[i,j] -> <signed monomial>"."""
        return "\n".join(
            f"u[{i},{j}] -> {mono.render()}"
            for (i, j), mono in zip(self.poly.chords, self.images)
        )


def _rows(
    poly: Polygon, source: Word, target: Word
) -> Iterator[tuple[int, int, int, int, int, int, int]]:
    """Per source chord, in chord order, of the chart change from the chart
    of ``source`` to the chart of ``target``: ``(odd, p, q, r, s, e1, e2)``,
    its sign bit and the cuts and exponents of its image, whose chord runs
    ``ngon._cut_runs(poly, p, q, r, s, e1, e2)`` lists.

    For source chord (i, j), let A, B, C, E be the target positions of the
    labels at source positions i, i+1, j, j+1 (mod n), read through the
    chord's entry of ``poly.corners``, and d_xy the difference of the points
    at target positions x and y. The chord's u is
    d_AE*d_BC / (d_AC*d_BE). Sort A, B, C, E to p < q < r < s; numerator and
    denominator are each one of the pairings X = d_pq*d_rs, Y = d_pr*d_qs and
    Z = d_ps*d_qr, up to sign. The two rectangles of target chords at those
    cuts telescope: R1 is Z/Y and R2 is X/Y. So the image is R1 to the
    power [numerator is Z] - [denominator is Z] times R2 to the power
    [numerator is X] - [denominator is X], and its sign is ``signs._odd``: the
    parity of (A > E) + (B > C) + (A > C) + (B > E), the d's written against
    their sorted order.
    """
    at = _places(source, target)
    for ka, kb, kc, ke in poly.corners:
        a, b, c, e = at[ka], at[kb], at[kc], at[ke]
        p, q, r, s = sorted((a, b, c, e))
        # p's partner names each pairing: q in X, r in Y, s in Z
        if p == a:
            num, den = e, c
        elif p == b:
            num, den = c, e
        elif p == c:
            num, den = b, a
        else:
            num, den = a, b
        e1, e2 = (num == s) - (den == s), (num == q) - (den == q)
        yield _odd(a, b, c, e), p, q, r, s, e1, e2


def compose(outer: MonomialMap, inner: MonomialMap) -> MonomialMap:
    """The map sending c to outer(inner(c)); inner's target must be outer's
    source. Chart changes chain, so this is the chart change from inner's
    source to outer's target."""
    if outer.n != inner.n:
        raise ChartMismatchError(f"sizes differ: {outer.n} vs {inner.n}")
    if outer.source != inner.target:
        raise ChartMismatchError(
            f"charts do not chain: inner targets {inner.target}, outer expects {outer.source}"
        )
    return MonomialMap(outer.n, inner.source, outer.target)


def map_for_ordering(poly: Polygon, word: Sequence[int]) -> MonomialMap:
    """The chart change from the chart of ``word`` to the standard chart."""
    return MonomialMap(poly.n, word, poly.identity_word)


def map_for_transposition(poly: Polygon, p: int, q: int) -> MonomialMap:
    """Chart change for swapping the entries at positions p and q.

    Source: identity word with positions p, q swapped; target: the standard
    chart. (p, q) and (q, p) name the same map; positions are not wrapped.
    """
    for v in (p, q):
        if not 1 <= v <= poly.n:
            raise ValueError(f"position {v} is not in 1..{poly.n}")
    if p == q:
        raise ValueError("positions must differ")
    word = list(poly.identity_word)
    word[p - 1], word[q - 1] = q, p
    return MonomialMap(poly.n, word, poly.identity_word)


def invert(m: MonomialMap) -> MonomialMap:
    """The two-sided inverse under ``compose``: the chart change from the
    map's target back to its source."""
    return MonomialMap(m.n, m.target, m.source)


def _row_prefixes(
    poly: Polygon, values: Iterable[Any], op: Callable[[Any, Any], Any], unit: Any
) -> list[list[Any]]:
    """``rows[x][y]`` for 0 <= x <= n and 0 <= y <= n + 1: ``unit`` folded by
    ``op`` with the values, given in chord order, of the chords (x, b) with
    b < y. A rectangle row x, y in [y0, y1), is then read off its two ends."""
    n = poly.n
    rows = [[unit] * (n + 2) for _ in range(n + 1)]
    for (x, y), v in zip(poly.chords, values):
        row = rows[x]
        row[y + 1] = op(row[y], v)
    rows[1][n + 1] = rows[1][n]  # row 1 stops at (1, n - 1): (1, n) is no chord
    return rows


def evaluate(m: MonomialMap, vals: Mapping[Chord, Fraction]) -> dict[Chord, Fraction]:
    """Evaluate the map at nonzero target-chart values.

    Returns the value of every source chord: sign times the product of the
    target values raised to the image exponents, in exact arithmetic on
    integer numerators and denominators. The numerator and denominator
    products of a rectangle row are exact quotients of per-row prefix
    products, so each chord costs one quotient pair per row.
    """
    poly = m.poly
    n, given = poly.n, _nonzero_values(poly, vals)
    nums = _row_prefixes(poly, [v.numerator for v in given], mul, 1)
    dens = _row_prefixes(poly, [v.denominator for v in given], mul, 1)
    out, end = {}, n + 1
    for c, (odd, p, q, r, s, e1, e2) in zip(poly.chords, m._row_list):
        top, bottom = -1 if odd else 1, 1
        if e1:  # R1: rows [p, q), columns [r, s)
            up, down = (nums, dens) if e1 > 0 else (dens, nums)
            for x in range(p, q):
                top *= up[x][s] // up[x][r]
                bottom *= down[x][s] // down[x][r]
        if e2:  # R2: rows [1, p), columns [q, r), and rows [q, r), columns [s, n + 1)
            up, down = (nums, dens) if e2 > 0 else (dens, nums)
            for x in range(1, p):
                top *= up[x][r] // up[x][q]
                bottom *= down[x][r] // down[x][q]
            for x in range(q, r):
                top *= up[x][end] // up[x][s]
                bottom *= down[x][end] // down[x][s]
        out[c] = Fraction(top, bottom)
    return out


def transport(pattern: SignPattern, m: MonomialMap) -> SignPattern:
    """Pull a target-chart sign pattern back to the map's source chart.

    An image's sign is the map's sign times the parity of the pattern's
    negative chords in each rectangle whose exponent is odd, that is,
    nonzero. ``P[x][y]``, the parity of the negative chords (a, b) with
    a < x and b < y, gives a rectangle's parity from its four corners.
    """
    if pattern.n != m.n:
        raise ValueError(f"pattern is for n={pattern.n}, map for n={m.n}")
    poly = m.poly
    n = poly.n
    P = [[0] * (n + 2)]
    for row in _row_prefixes(poly, pattern._flags(), xor, 0):
        P.append(list(map(xor, P[-1], row)))
    end = n + 1
    flags = bytearray()
    for odd, p, q, r, s, e1, e2 in m._row_list:
        if e1:  # R1 = [p, q) x [r, s)
            odd ^= P[q][s] ^ P[p][s] ^ P[q][r] ^ P[p][r]
        if e2:  # R2 = [q, r) x [s, n + 1) and [1, p) x [q, r); P[1] is 0, as no chord has a < 1
            odd ^= P[r][end] ^ P[q][end] ^ P[r][s] ^ P[q][s] ^ P[p][r] ^ P[p][q]
        flags.append(odd)
    return SignPattern._from_flags(n, flags)
