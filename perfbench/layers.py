"""Per-layer timings: single calls into one layer, untraced, at n = n_layer.

Each figure is the time of one public call on seeded inputs. The comment
above each group names the end-to-end metric it should move.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

import usigns as U

from workloads import Sizes, random_word


def per_call(fn, inputs, rounds: int = 5) -> float:
    """Median over rounds of the mean seconds per call across ``inputs``."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        for args in inputs:
            fn(*args)
        times.append((perf_counter() - t0) / len(inputs))
    return statistics.median(times)


def _solve_or_reject(poly, pattern):
    try:
        U.solve(poly, pattern)
    except U.InconsistentPatternError:
        return
    raise AssertionError("reject input was consistent")


def solver_iterations(sizes: Sizes, rng: random.Random) -> dict[int, list[int]]:
    """Exact ``SolverTrace.iterations`` of 30 seeded consistent inputs per n."""
    out = {}
    for n in sizes.ns:
        poly = U.Polygon(n)
        out[n] = [
            U.solve(poly, U.sign_of_ordering(poly, random_word(rng, n)))[1].iterations
            for _ in range(30)
        ]
    return out


def layer_timings(sizes: Sizes, rng: random.Random) -> dict[str, float]:
    n = sizes.n_layer
    poly = U.Polygon(n)
    words = [random_word(rng, n) for _ in range(20)]
    consistent = [U.sign_of_ordering(poly, w) for w in words]
    rejects = []
    while len(rejects) < 20:
        p = U.SignPattern(n, rng.getrandbits(poly.chord_count))
        if not U.is_consistent(poly, p):
            rejects.append(p)
    m = {}

    # ngon: roundtrip ops_per_s / op_p50_ms, charts ops_per_s.
    m["ngon.polygon_us"] = per_call(lambda: U.Polygon(n).chord_index, [()] * 200) * 1e6
    m["ngon.canonicalize_us"] = per_call(U.canonicalize, [(w,) for w in words] * 10) * 1e6

    # patterns, on the patterns a solver walk visits: roundtrip op_p50_ms / op_tail_ms.
    walked = []
    solve_s = 0.0
    steps = 0
    for s in consistent:
        t0 = perf_counter()
        _, trace = U.solve(poly, s)
        solve_s += perf_counter() - t0
        steps += trace.iterations
        walked += [s] + [st.pattern for st in trace.steps if not st.pattern.is_all_plus()]
    m["patterns.stats_us"] = per_call(U.stats, [(p,) for p in walked]) * 1e6
    m["patterns.shortest_negative_us"] = (
        per_call(U.shortest_negative, [(p,) for p in walked]) * 1e6
    )

    # relations: roundtrip op_p50_ms (every solve starts with this check).
    m["relations.is_consistent_accept_us"] = (
        per_call(U.is_consistent, [(poly, p) for p in consistent] * 5) * 1e6
    )
    m["relations.is_consistent_reject_us"] = (
        per_call(U.is_consistent, [(poly, p) for p in rejects] * 5) * 1e6
    )

    # solver: roundtrip ops_per_s / op_tail_ms.
    m["solver.solve_us"] = per_call(U.solve, [(poly, p) for p in consistent], rounds=3) * 1e6
    m["solver.step_us"] = solve_s / max(steps, 1) * 1e6
    m["solver.reject_us"] = per_call(_solve_or_reject, [(poly, p) for p in rejects] * 5) * 1e6
    m["solver.matrix_route_us"] = per_call(
        lambda p: U.ordering_from_sign_matrix(poly, U.reconstruct_sign_matrix(poly, p)),
        [(p,) for p in consistent],
        rounds=3,
    ) * 1e6

    # signs: roundtrip ops_per_s (sign_of_ordering), charts (transport).
    m["signs.sign_of_ordering_us"] = (
        per_call(U.sign_of_ordering, [(poly, w) for w in words] * 5) * 1e6
    )

    # monomial: charts ops_per_s / op_tail_ms; map_for_transposition: roundtrip setup_s.
    few = words[:3]
    m["monomial.map_for_ordering_ms"] = (
        per_call(U.map_for_ordering, [(poly, w) for w in few], rounds=1) * 1e3
    )
    maps = [U.map_for_ordering(poly, w) for w in few]
    m["monomial.invert_ms"] = per_call(U.invert, [(mp,) for mp in maps], rounds=1) * 1e3
    pairs = [(mp, U.invert(mp)) for mp in maps]
    m["monomial.compose_ms"] = per_call(U.compose, pairs, rounds=1) * 1e3
    bases = [U.realize(poly, random_word(rng, n)) for _ in few]
    values = [U.u_values(b) for b in bases]
    m["monomial.evaluate_ms"] = (
        per_call(U.evaluate, list(zip(maps, values)), rounds=3) * 1e3
    )
    positions = [
        (poly, p, poly.wrap(p + d)) for p in range(1, n + 1) for d in range(1, n // 2)
    ]
    m["monomial.map_for_transposition_ms"] = (
        per_call(U.map_for_transposition, positions, rounds=1) * 1e3
    )
    m["signs.transport_us"] = per_call(
        U.transport, [(consistent[i], mp) for i, mp in enumerate(maps)] * 20
    ) * 1e6

    # points: roundtrip (oracle), charts (u_values, points_from_u).
    m["points.oracle_us"] = per_call(
        lambda w: U.signs_from_points(U.realize(poly, w)), [(w,) for w in words]
    ) * 1e6
    m["points.u_values_ms"] = per_call(U.u_values, [(b,) for b in bases]) * 1e3
    m["points.points_from_u_ms"] = (
        per_call(U.points_from_u, [(poly, v) for v in values], rounds=3) * 1e3
    )
    return m
