"""Signed Laurent-monomial coordinate changes between dihedral charts.

A chart is "the n-gon with positions 1..n"; a map sends each chord of its
source chart to a signed monomial in the chords of its target chart. The
source/target ordering words are carried as labels, so that composition can
refuse mismatched charts and inversion can name the chart change from the
target back to the source.

Every chart change is read off in closed form (Brown 2009, section 2): the
product of the target-chart u's over a rectangle of chords, x in [a, b) and
y in [c, d), telescopes to the cross-ratio d_ad*d_bc/(d_ac*d_bd) of the
points at those positions. Each source-chart u is a cross-ratio of four
points, and so is plus or minus a ratio of two such rectangles, which are
disjoint and sum to 1 by an extended u-relation. Every image exponent is -1,
0 or 1; since the u's are multiplicatively independent, the image is the
only monomial with that value.

Direction convention: a map is a ring map, source-chart variables expressed
in target-chart variables. ``map_for_ordering(word)`` goes from the chart of
``word`` to the standard chart, so evaluating it on standard u-values yields
the u-values of the relabeled configuration.

Everything is exact: exponents are arbitrary-precision integers and signs are
tracked through parity, so compositions can grow without overflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Mapping, Sequence

from .ngon import Chord, Polygon, _check_permutation

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
    """Chart change: image of every source chord as a target-chart monomial.

    ``images`` is aligned with the canonical chord order of the source chart's
    positions; monomial factors refer to target-chart positions.
    """

    n: int
    source: Word
    target: Word
    images: tuple[SignedMonomial, ...]

    @property
    def poly(self) -> Polygon:
        return Polygon(self.n)

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

    def transport_table(self) -> tuple[tuple[int, int], ...]:
        """(negative-bit, odd-exponent mask) per source chord, for fast sign
        transport through this map."""
        index = self.poly.chord_index
        return tuple(
            (1 if mono.sign < 0 else 0, sum(1 << index[c] for c, e in mono.powers if e & 1))
            for mono in self.images
        )


def identity_map(poly: Polygon, word: Sequence[int] | None = None) -> MonomialMap:
    word = poly.identity_word if word is None else _check_permutation(word)
    images = tuple(SignedMonomial.make(1, {c: 1}) for c in poly.chords)
    return MonomialMap(poly.n, word, word, images)


def _corners(
    poly: Polygon, source: Sequence[int], target: Sequence[int]
) -> Iterator[tuple[int, int, int, int]]:
    """Per source chord (i, j), in chord order: the target positions A, B, C,
    E of the labels at source positions i, i+1, j, j+1 (mod n)."""
    n = poly.n
    position = [0] * (n + 1)
    for p, label in enumerate(target, 1):
        position[label] = p
    at = [position[label] for label in source]
    for i, j in poly.chords:
        yield at[i - 1], at[i % n], at[j - 1], at[j % n]


def _odd(a: int, b: int, c: int, e: int) -> int:
    """1 if the image of the chord with corners A, B, C, E is negative (see
    ``_chart_change``), else 0."""
    return ((a > e) + (b > c) + (a > c) + (b > e)) & 1


def _chart_change(poly: Polygon, source: Sequence[int], target: Sequence[int]) -> MonomialMap:
    """The chart change from the chart of ``source`` to the chart of ``target``.

    For source chord (i, j), let A, B, C, E be the target positions of the
    labels at source positions i, i+1, j, j+1 (mod n), and d_xy the
    difference of the points at target positions x and y. The chord's u is
    d_AE*d_BC / (d_AC*d_BE). Sort A, B, C, E to p < q < r < s; numerator and
    denominator are each one of the pairings X = d_pq*d_rs, Y = d_pr*d_qs and
    Z = d_ps*d_qr, up to sign. Two rectangles of target chords telescope:
    R1, over x in [p, q) and y in [r, s), is Z/Y, and R2, over x in [q, r)
    and y from s round past n to p - 1, is X/Y. So the image is R1 to the
    power [numerator is Z] - [denominator is Z] times R2 to the power
    [numerator is X] - [denominator is X], and its sign is ``_odd``: the
    parity of (A > E) + (B > C) + (A > C) + (B > E), the d's written against
    their sorted order.
    """
    source, target = _check_permutation(source), _check_permutation(target)
    n = poly.n
    if len(source) != n or len(target) != n:
        raise ValueError(f"words {source}, {target} do not both have length n={n}")
    chords, index = poly.chords, poly.pair_index
    images = []
    for a, b, c, e in _corners(poly, source, target):
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
        # emitted in chord order: R2 below p, then R1, then R2 from q up
        powers: list[tuple[Chord, int]] = []
        if e2:
            for y in range(1, p):
                k = index[y][q]
                powers.extend(zip(chords[k:k + r - q], repeat(e2)))
        if e1:
            for x in range(p, q):
                k = index[x][r]
                powers.extend(zip(chords[k:k + s - r], repeat(e1)))
        if e2:
            for x in range(q, r):
                k = index[x][s]
                powers.extend(zip(chords[k:k + n + 1 - s], repeat(e2)))
        images.append(SignedMonomial(-1 if _odd(a, b, c, e) else 1, tuple(powers)))
    return MonomialMap(n, source, target, tuple(images))


def _transposed(poly: Polygon, p: int, q: int) -> Word:
    """The identity word with the entries at positions p and q swapped."""
    word = list(poly.identity_word)
    word[p - 1], word[q - 1] = word[q - 1], word[p - 1]
    return tuple(word)


def elementary_map(poly: Polygon, k: int) -> MonomialMap:
    """Chart change for the adjacent transposition at positions k, k+1 mod n.

    Source chart: the identity word with those two entries swapped; target:
    the standard chart. Composing it with itself gives the identity map.
    """
    if not 1 <= k <= poly.n:
        raise ValueError(f"position k must be in 1..{poly.n}, got {k}")
    return _chart_change(poly, _transposed(poly, k, k % poly.n + 1), poly.identity_word)


def compose(outer: MonomialMap, inner: MonomialMap) -> MonomialMap:
    """The map sending c to outer(inner(c)); inner's target must be outer's source."""
    if outer.n != inner.n:
        raise ChartMismatchError(f"sizes differ: {outer.n} vs {inner.n}")
    if outer.source != inner.target:
        raise ChartMismatchError(
            f"charts do not chain: inner targets {inner.target}, outer expects {outer.source}"
        )
    index = inner.poly.chord_index
    outer_images = outer.images
    images = []
    for mono in inner.images:
        sign = mono.sign
        exps: dict[Chord, int] = {}
        for c, e in mono.powers:
            img = outer_images[index[c]]
            if e & 1 and img.sign < 0:
                sign = -sign
            for d, f in img.powers:
                exps[d] = exps.get(d, 0) + e * f
        powers = tuple(sorted((d, x) for d, x in exps.items() if x))
        images.append(SignedMonomial(sign, powers))
    return MonomialMap(outer.n, inner.source, outer.target, tuple(images))


def map_for_ordering(poly: Polygon, word: Sequence[int]) -> MonomialMap:
    """The chart change from the chart of ``word`` to the standard chart."""
    return _chart_change(poly, word, poly.identity_word)


def map_for_transposition(poly: Polygon, p: int, q: int) -> MonomialMap:
    """Chart change for swapping the entries at positions p and q.

    Source: identity word with positions p, q swapped; target: the standard
    chart. (p, q) and (q, p) name the same map.
    """
    if poly.wrap(p) == poly.wrap(q):
        raise ValueError("positions must differ")
    return _chart_change(poly, _transposed(poly, poly.wrap(p), poly.wrap(q)), poly.identity_word)


def invert(m: MonomialMap) -> MonomialMap:
    """The two-sided inverse chart change: the chart change from the map's
    target back to its source.

    A map whose images are not the chart change between its own source and
    target labels (for instance one with a non-unimodular exponent matrix)
    raises ``ValueError``. The u's are multiplicatively independent, so a
    map has a two-sided inverse under ``compose`` in that reverse chart change
    exactly when it is the chart change itself.
    """
    poly = m.poly
    inv = _chart_change(poly, m.target, m.source)
    if m.images != _chart_change(poly, m.source, m.target).images:
        raise ValueError("map is not the chart change between its source and target")
    return inv


def evaluate(m: MonomialMap, vals: Mapping[Chord, Fraction]) -> dict[Chord, Fraction]:
    """Evaluate the map at nonzero target-chart values.

    Returns the value of every source chord: sign times the product of the
    target values raised to the image exponents, in exact arithmetic.
    """
    chords = m.poly.chords
    parts = {}
    for c in chords:
        v = Fraction(vals[c])
        if v == 0:
            raise ValueError(f"value of chord {c} is zero")
        parts[c] = (v.numerator, v.denominator)
    out = {}
    for c, mono in zip(chords, m.images):
        num, den = mono.sign, 1
        for d, e in mono.powers:
            p, q = parts[d]
            if e < 0:
                p, q, e = q, p, -e
            num *= p**e
            den *= q**e
        out[c] = Fraction(num, den)
    return out
