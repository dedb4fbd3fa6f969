"""Dihedral charts of the real moduli space of n points on the line.

Chord combinatorics of the n-gon, u-relations and sign-pattern consistency,
signed Laurent-monomial chart changes, the sign-pattern-to-ordering solver,
and an exact-rational point-configuration oracle that cross-checks it all.
"""
from types import ModuleType as _ModuleType

from .ngon import (
    Chord,
    Polygon,
    all_orderings,
    canonicalize,
    ordering_count,
)
from .patterns import SignPattern, shortest_negative, stats
from .relations import (
    URelation,
    consistent_patterns,
    count_consistent,
    extended_relations,
    is_consistent,
    primitive_relations,
)
from .monomial import (
    ChartMismatchError,
    MonomialMap,
    SignedMonomial,
    compose,
    evaluate,
    invert,
    map_for_ordering,
    map_for_transposition,
    transport,
)
from .signs import sign_of_ordering
from .solver import (
    InconsistentPatternError,
    IntransitiveOrderError,
    IterationLimitError,
    SignMatrix,
    SolverTrace,
    TraceStep,
    ordering_from_sign_matrix,
    reconstruct_sign_matrix,
    solve,
)
from .points import (
    PointConfig,
    ProjectivePoint,
    RelationViolationError,
    cross_ratio,
    points_from_u,
    realize,
    signs_from_points,
    standard_gauge,
    u_values,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
