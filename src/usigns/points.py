"""Exact point configurations on the real projective line.

Ground truth for everything else in the package: configurations are n
pairwise-distinct points in homogeneous rational coordinates, a finite value
v is (1 : v) and infinity is (0 : 1), and every quantity is computed through
2x2 determinants so the infinite point needs no special casing. No floating
point appears anywhere on a sign-bearing path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .ngon import Chord, Polygon
from .patterns import SignPattern
from .relations import _relation_terms


class RelationViolationError(ValueError):
    """Input u-values do not satisfy the u-relations exactly."""


class DegenerateConfigError(ValueError):
    """Reconstructed points collide."""


@dataclass(frozen=True)
class ProjectivePoint:
    """A point (x : y) of P^1 with exact rational coordinates.

    Representatives are canonicalized on construction, (1 : v) for a finite
    value and (0 : 1) for infinity, so equality is projective equality.
    """

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        x, y = Fraction(self.x), Fraction(self.y)
        if x == 0 and y == 0:
            raise ValueError("(0 : 0) is not a projective point")
        if x != 0:
            x, y = Fraction(1), y / x
        else:
            y = Fraction(1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def finite(cls, v) -> "ProjectivePoint":
        return cls(Fraction(1), Fraction(v))

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls(Fraction(0), Fraction(1))

    def is_infinite(self) -> bool:
        return self.x == 0

    def value(self) -> Fraction:
        if self.is_infinite():
            raise ZeroDivisionError("point at infinity has no finite value")
        return self.y / self.x


def _det(p: ProjectivePoint, q: ProjectivePoint) -> Fraction:
    """Cross determinant; equals z_q - z_p for finite points (1 : z)."""
    return p.x * q.y - p.y * q.x


@dataclass(frozen=True)
class PointConfig:
    """n pairwise-distinct labeled points of P^1(Q)."""

    points: tuple[ProjectivePoint, ...]

    def __post_init__(self) -> None:
        pts = self.points
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if _det(pts[a], pts[b]) == 0:
                    raise ValueError(f"points {a + 1} and {b + 1} coincide")

    @classmethod
    def from_values(cls, values: Sequence) -> "PointConfig":
        """Finite rationals; the string 'inf' or None marks infinity."""
        pts = []
        for v in values:
            if v is None or v == "inf":
                pts.append(ProjectivePoint.infinity())
            else:
                pts.append(ProjectivePoint.finite(v))
        return cls(tuple(pts))

    @property
    def n(self) -> int:
        return len(self.points)

    def point(self, label: int) -> ProjectivePoint:
        return self.points[label - 1]

    def plucker(self, a: int, b: int) -> Fraction:
        """Determinant of the columns of labels a, b."""
        return _det(self.point(a), self.point(b))

    def permuted(self, word: Sequence[int]) -> "PointConfig":
        """Config whose k-th point is the point labeled word[k]."""
        return PointConfig(tuple(self.point(v) for v in word))


def realize(poly: Polygon, word: Sequence[int]) -> PointConfig:
    """A rational configuration in the component of circular order ``word``.

    The point labeled word[k] sits at the finite value k, so any strictly
    increasing placement would do just as well.
    """
    word = tuple(word)
    if sorted(word) != list(range(1, poly.n + 1)):
        raise ValueError(f"{word!r} is not a permutation of 1..{poly.n}")
    values: list[Fraction | None] = [None] * poly.n
    for k, label in enumerate(word, start=1):
        values[label - 1] = Fraction(k)
    return PointConfig.from_values(values)


def cross_ratio(config: PointConfig, i: int, j: int, k: int, l: int) -> Fraction:
    """The cross-ratio of four labeled points, (z_i-z_k)(z_j-z_l) over
    (z_i-z_l)(z_j-z_k), evaluated in determinant form so infinite points
    are handled uniformly."""
    if len({i, j, k, l}) != 4:
        raise ValueError(f"indices must be pairwise distinct, got {(i, j, k, l)}")
    num = config.plucker(i, k) * config.plucker(j, l)
    den = config.plucker(i, l) * config.plucker(j, k)
    return num / den


def u_values(config: PointConfig) -> dict[Chord, Fraction]:
    """The dihedral coordinate of every chord: u_ij is the cross-ratio of
    (i, i+1 | j+1, j), indices mod n."""
    poly = Polygon(config.n)
    return {
        (i, j): cross_ratio(config, i, poly.wrap(i + 1), poly.wrap(j + 1), j)
        for i, j in poly.chords
    }


def signs_from_points(config: PointConfig) -> SignPattern:
    """Sign of every dihedral coordinate; depends only on the circular order."""
    vals = u_values(config)
    poly = Polygon(config.n)
    return SignPattern.from_signs(
        config.n, (1 if vals[c] > 0 else -1 for c in poly.chords)
    )


def relations_vanish(poly: Polygon, vals: Mapping[Chord, Fraction]) -> bool:
    """Whether every extended u-relation holds exactly on the given values.

    Each relation n1/d1 + n2/d2 = 1 is checked as n1*d2 + n2*d1 == d1*d2 on
    the integer numerators and (positive) denominators of its two products.
    """
    parts = []
    for c in poly.chords:
        v = Fraction(vals[c])
        if v == 0:
            raise ValueError(f"u-value of chord {c} is zero")
        parts.append((v.numerator, v.denominator))
    for t1, t2 in _relation_terms(poly.n, False):
        n1 = d1 = n2 = d2 = 1
        for i in t1:
            p, q = parts[i]
            n1 *= p
            d1 *= q
        for i in t2:
            p, q = parts[i]
            n2 *= p
            d2 *= q
        if n1 * d2 + n2 * d1 != d1 * d2:
            return False
    return True


def points_from_u(poly: Polygon, vals: Mapping[Chord, Fraction]) -> PointConfig:
    """Invert the dihedral embedding under the gauge z1=0, z2=1, zn=infinity.

    Uses u_in = z_i / z_{i+1} to walk out z_3, ..., z_{n-1}. Raises
    RelationViolationError unless the values satisfy the u-relations exactly
    (which also guarantees the points are distinct).
    """
    if not relations_vanish(poly, vals):
        raise RelationViolationError("u-values do not satisfy the u-relations")
    n = poly.n
    values: list = [Fraction(0), Fraction(1)]
    for i in range(2, n - 1):
        values.append(values[-1] / Fraction(vals[(i, n)]))
    values.append("inf")
    try:
        return PointConfig.from_values(values)
    except ValueError as exc:  # unreachable when the relations hold
        raise DegenerateConfigError(str(exc)) from exc


def standard_gauge(config: PointConfig, zero: int, one: int, infinity: int) -> PointConfig:
    """Apply the projective map sending three labeled points to 0, 1, infinity."""
    p0, p1, pinf = config.point(zero), config.point(one), config.point(infinity)
    scale_num = _det(p0, p1)
    scale_den = _det(pinf, p1)
    pts = []
    for p in config.points:
        pts.append(
            ProjectivePoint(_det(pinf, p) * scale_num, _det(p0, p) * scale_den)
        )
    return PointConfig(tuple(pts))


def transformed(config: PointConfig, matrix: Sequence[Sequence[Fraction]]) -> PointConfig:
    """Act on homogeneous coordinates by an invertible 2x2 rational matrix."""
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        raise ValueError("matrix is singular")
    return PointConfig(
        tuple(
            ProjectivePoint(a * p.x + b * p.y, c * p.x + d * p.y)
            for p in config.points
        )
    )
