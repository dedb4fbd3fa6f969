"""Exact point configurations on the real projective line.

Ground truth for everything else in the package: configurations are n
pairwise-distinct points in homogeneous rational coordinates, a finite value
v is (1 : v) and infinity is (0 : 1), and every quantity is computed through
2x2 determinants so the infinite point needs no special casing. No floating
point appears anywhere on a sign-bearing path.

A configuration computes its pairwise determinants once, on construction, as
Python ints: each point is scaled to primitive integer coordinates, a finite
value p/q to (q, p) and infinity to (0, 1). A cross-ratio or dihedral
coordinate takes each of its points once above and once below the fraction
bar, so the scales cancel and its sign is read off two integer products.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .ngon import Chord, Polygon, _check_permutation
from .patterns import SignPattern


class RelationViolationError(ValueError):
    """Input u-values do not satisfy the u-relations exactly."""


_ZERO, _ONE = Fraction(0), Fraction(1)
_VIOLATION = "u-values do not satisfy the u-relations"


def _indices(n: int, labels: Sequence[int]) -> list[int]:
    """0-based indices of ``labels``; one outside 1..n is a one-line ValueError."""
    for v in labels:
        if not 1 <= v <= n:
            raise ValueError(f"label {v} is not in 1..{n}")
    return [v - 1 for v in labels]


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
    def _canonical(cls, x: Fraction, y: Fraction) -> "ProjectivePoint":
        """Wrap a representative that is already canonical."""
        p = object.__new__(cls)
        object.__setattr__(p, "x", x)
        object.__setattr__(p, "y", y)
        return p

    @classmethod
    def finite(cls, v) -> "ProjectivePoint":
        return cls._canonical(_ONE, Fraction(v))

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls._canonical(_ZERO, _ONE)

    def is_infinite(self) -> bool:
        return self.x == 0

    def value(self) -> Fraction:
        if self.is_infinite():
            raise ZeroDivisionError("point at infinity has no finite value")
        return self.y / self.x


@dataclass(frozen=True)
class PointConfig:
    """n pairwise-distinct labeled points of P^1(Q).

    ``_dets[a][b]`` is the determinant of the primitive integer coordinates
    of the points labeled a+1 and b+1. The table is derived from ``points``,
    so equality, hashing, ``repr`` and pickling leave it out.
    """

    points: tuple[ProjectivePoint, ...]
    _dets: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # (1 : p/q) scaled by q, and (0 : 1) as it is
        coords = [(p.y.denominator, p.y.numerator) if p.x else (0, 1) for p in self.points]
        self._set_dets(
            tuple([tuple([xa * yb - ya * xb for xb, yb in coords]) for xa, ya in coords])
        )

    def _set_dets(self, dets: tuple[tuple[int, ...], ...]) -> None:
        for a, row in enumerate(dets):
            # a zero besides the diagonal one; a partner b < a would already
            # have shown in row b
            if row.count(0) > 1:
                raise ValueError(f"points {a + 1} and {row.index(0, a + 1) + 1} coincide")
        object.__setattr__(self, "_dets", dets)

    @classmethod
    def _from_table(
        cls, points: tuple[ProjectivePoint, ...], dets: tuple[tuple[int, ...], ...]
    ) -> "PointConfig":
        """The configuration of ``points``, whose determinant table is known."""
        config = object.__new__(cls)
        object.__setattr__(config, "points", points)
        config._set_dets(dets)
        return config

    def __getstate__(self) -> dict:
        return {"points": self.points}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "points", state["points"])
        self.__post_init__()

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
        return self.points[_indices(self.n, (label,))[0]]

    def permuted(self, word: Sequence[int]) -> "PointConfig":
        """Config whose k-th point is the point labeled word[k]."""
        idx = _indices(self.n, word)
        rows = self._dets
        return PointConfig._from_table(
            tuple([self.points[a] for a in idx]),
            tuple([tuple([rows[a][b] for b in idx]) for a in idx]),
        )


def realize(poly: Polygon, word: Sequence[int]) -> PointConfig:
    """A rational configuration in the component of circular order ``word``.

    The point labeled word[k] sits at the finite value k, so any strictly
    increasing placement would do just as well.
    """
    word = _check_permutation(word, poly.n)
    position = [0] * poly.n
    for k, label in enumerate(word, start=1):
        position[label - 1] = k
    return PointConfig._from_table(
        tuple([ProjectivePoint.finite(k) for k in position]),
        tuple([tuple([kb - ka for kb in position]) for ka in position]),
    )


def cross_ratio(config: PointConfig, i: int, j: int, k: int, l: int) -> Fraction:
    """The cross-ratio of four labeled points, (z_i-z_k)(z_j-z_l) over
    (z_i-z_l)(z_j-z_k), evaluated in determinant form so infinite points
    are handled uniformly."""
    if len({i, j, k, l}) != 4:
        raise ValueError(f"indices must be pairwise distinct, got {(i, j, k, l)}")
    d = config._dets
    i, j, k, l = _indices(config.n, (i, j, k, l))
    return Fraction(d[i][k] * d[j][l], d[i][l] * d[j][k])


def _u_terms(config: PointConfig) -> list[tuple[int, int]]:
    """Integer numerator and denominator of every chord's u-value, in
    canonical chord order: d_ae*d_bc and d_ac*d_be at the chord's corners
    a, b, c, e, the indices of labels i, i+1, j and j+1."""
    d = config._dets
    return [(d[a][e] * d[b][c], d[a][c] * d[b][e]) for a, b, c, e in Polygon(config.n).corners]


def u_values(config: PointConfig) -> dict[Chord, Fraction]:
    """The dihedral coordinate of every chord: u_ij is the cross-ratio of
    (i, i+1 | j+1, j), indices mod n."""
    chords = Polygon(config.n).chords
    return {c: Fraction(num, den) for c, (num, den) in zip(chords, _u_terms(config))}


def signs_from_points(config: PointConfig) -> SignPattern:
    """Sign of every dihedral coordinate; depends only on the circular order."""
    flags = [(num < 0) != (den < 0) for num, den in _u_terms(config)]
    return SignPattern._from_flags(config.n, flags)


def _nonzero_values(poly: Polygon, vals: Mapping[Chord, Fraction]) -> list[Fraction]:
    """The value of every chord, in chord order, as a nonzero Fraction;
    a Fraction is passed through as it is."""
    try:
        out = [vals[c] for c in poly.chords]
    except KeyError:
        missing = next(c for c in poly.chords if c not in vals)
        raise ValueError(f"no value for chord {missing}") from None
    out = [v if isinstance(v, Fraction) else Fraction(v) for v in out]
    if not all(out):
        raise ValueError(f"value of chord {poly.chords[out.index(0)]} is zero")
    return out


def points_from_u(poly: Polygon, vals: Mapping[Chord, Fraction]) -> PointConfig:
    """Invert the dihedral embedding under the gauge z1=0, z2=1, zn=infinity.

    Uses u_in = z_i / z_{i+1} to walk out z_3, ..., z_{n-1}, each from the
    integer numerator and denominator of the last and of u_in. Where no u is
    zero, the u-relations cut out exactly the image of the configurations of
    n distinct points (Brown 2009, section 2), so the values satisfy them
    exactly when the walked points are distinct and have the given u-values.
    Raises RelationViolationError otherwise, and ValueError on a zero value.
    """
    given = _nonzero_values(poly, vals)
    n, index = poly.n, poly.pair_index
    values = [_ZERO, _ONE]
    for i in range(2, n - 1):
        # one reduced Fraction per point, read back for the next step
        z, u = values[-1], given[index[i][n]]
        values.append(Fraction(z.numerator * u.denominator, z.denominator * u.numerator))
    points = [ProjectivePoint._canonical(_ONE, v) for v in values]
    points.append(ProjectivePoint.infinity())
    try:
        config = PointConfig(tuple(points))
    except ValueError as exc:  # two walked points coincide
        raise RelationViolationError(_VIOLATION) from exc
    # num/den == p/q on integers, as in u_values but without normalising
    terms = zip(_u_terms(config), given)
    if any(num * v.denominator != den * v.numerator for (num, den), v in terms):
        raise RelationViolationError(_VIOLATION)
    return config


def standard_gauge(config: PointConfig, zero: int, one: int, infinity: int) -> PointConfig:
    """Apply the projective map sending three labeled points to 0, 1, infinity."""
    # integer determinants in place of Plucker coordinates: both coordinates
    # of an image would be divided by the same four point scales
    if len({zero, one, infinity}) != 3:
        raise ValueError(f"labels must be pairwise distinct, got {(zero, one, infinity)}")
    d = config._dets
    z, o, f = _indices(config.n, (zero, one, infinity))
    scale_num, scale_den = d[z][o], d[f][o]
    # (x : y) = (d_fk * scale_num : d_zk * scale_den), built canonical once
    return PointConfig(
        tuple([
            ProjectivePoint._canonical(_ONE, Fraction(d[z][k] * scale_den, d[f][k] * scale_num))
            if d[f][k] else ProjectivePoint.infinity()
            for k in range(config.n)
        ])
    )
