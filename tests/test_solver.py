from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from usigns import (
    InconsistentPatternError,
    IntransitiveOrderError,
    IterationLimitError,
    MonomialMap,
    Polygon,
    SignMatrix,
    SignPattern,
    all_orderings,
    canonicalize,
    compose,
    invert,
    is_consistent,
    map_for_ordering,
    map_for_transposition,
    ordering_from_sign_matrix,
    realize,
    reconstruct_sign_matrix,
    shortest_negative,
    sign_of_ordering,
    signs_from_points,
    solve,
    transport,
)
from usigns import monomial, relations, solver
from usigns.points import standard_gauge

from conftest import (
    DECAGON_NEGATIVES,
    PENTAGON_TABLE,
    brute_force_pick,
    consistent_bits,
    swap_labels,
)


def test_solve_all_plus_is_identity():
    poly = Polygon(6)
    word, trace = solve(poly, SignPattern.all_plus(6))
    assert word == poly.identity_word
    assert trace.iterations == 0


def test_solve_pentagon_table():
    poly = Polygon(5)
    for expected_word, signs in PENTAGON_TABLE.items():
        word, trace = solve(poly, SignPattern.from_string(5, signs))
        assert word == canonicalize(expected_word)
        assert trace.steps == () or trace.steps[-1].pattern.is_all_plus()


def test_solve_rejects_inconsistent():
    poly = Polygon(4)
    with pytest.raises(InconsistentPatternError):
        solve(poly, SignPattern.from_string(4, "--"))


@pytest.mark.parametrize(
    "check, argument, message",
    [
        (is_consistent, SignPattern(5, 0), "pattern is for n=5, polygon has n=6"),
        (solve, SignPattern(5, 0), "pattern is for n=5, polygon has n=6"),
        (reconstruct_sign_matrix, SignPattern(5, 0), "pattern is for n=5, polygon has n=6"),
        (
            ordering_from_sign_matrix,
            reconstruct_sign_matrix(Polygon(5), SignPattern(5, 0)),
            "matrix is for n=5, polygon has n=6",
        ),
    ],
    ids=["is_consistent", "solve", "reconstruct_sign_matrix", "ordering_from_sign_matrix"],
)
def test_pattern_of_another_size_is_refused(check, argument, message):
    # the message, not only the type: IntransitiveOrderError is a ValueError too
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(Polygon(6), argument)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_solve_rejects_all_inconsistent_patterns(n):
    poly = Polygon(n)
    good = consistent_bits(n)
    for bits in range(1 << poly.chord_count):
        if bits not in good:
            with pytest.raises(InconsistentPatternError):
                solve(poly, SignPattern(n, bits))


@pytest.mark.parametrize("n", range(8, 15))
def test_walk_verdict_matches_is_consistent(n):
    # beyond the exhaustive range: uniformly random patterns, and consistent
    # patterns with one chord flipped (some stay consistent, most do not)
    poly = Polygon(n)
    rng = random.Random(1000 + n)
    samples = [rng.getrandbits(poly.chord_count) for _ in range(120)]
    for _ in range(120):
        word = rng.sample(range(1, n + 1), n)
        flip = 1 << rng.randrange(poly.chord_count)
        samples.append(sign_of_ordering(poly, word).bits ^ flip)
    verdicts = set()
    for bits in samples:
        pattern = SignPattern(n, bits)
        consistent = is_consistent(poly, pattern)
        verdicts.add(consistent)
        if consistent:
            word, _ = solve(poly, pattern)
            assert sign_of_ordering(poly, word) == pattern
        else:
            with pytest.raises(InconsistentPatternError):
                solve(poly, pattern)
    assert verdicts == {True, False}


def test_solve_builds_no_relation_masks():
    # the matrix route and its round trip decide: a large-n solve reads no
    # relation table
    poly = Polygon(30)
    word = tuple(random.Random(30).sample(range(1, 31), 30))
    pattern = sign_of_ordering(poly, word)
    before = relations._relation_masks.cache_info()
    assert solve(poly, pattern)[0] == canonicalize(word)
    assert relations._relation_masks.cache_info() == before


@pytest.mark.parametrize("n", [12, 30])
def test_solve_builds_no_monomials(n, monkeypatch):
    # solve reads every walk state off the word and reads no chart-change
    # rows; transport reads the rectangle corners of those rows, and compose
    # and invert act on the words alone
    def refuse(*args):
        raise AssertionError("built a SignedMonomial")

    def refuse_rows(*args):
        raise AssertionError("read chart-change rows")

    poly = Polygon(n)
    word = tuple(random.Random(1200 + n).sample(range(1, n + 1), n))
    pattern = sign_of_ordering(poly, word)
    monkeypatch.setattr(monomial, "SignedMonomial", refuse)
    with monkeypatch.context() as patch:
        patch.setattr(monomial, "_rows", refuse_rows)
        assert solve(poly, pattern)[0] == canonicalize(word)
    m = map_for_ordering(poly, word)
    assert compose(invert(m), m) == MonomialMap(n, word, word)
    assert transport(pattern, m).is_all_plus()


def test_solve_memory_at_n_60():
    # a cold n = 60 solve keeps no table: it traces about 0.3 MB, where the
    # cached transport tables of the walk took about 140 MB
    poly = Polygon(60)
    pattern = sign_of_ordering(poly, random.Random(60).sample(range(1, 61), 60))
    tracemalloc.start()
    try:
        solve(poly, pattern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_round_trip_certifies_the_matrix_route(monkeypatch):
    # a transitive but wrong word from the matrix route fails its round trip,
    # so the walk never follows it
    poly = Polygon(6)
    words = list(all_orderings(poly))
    proposed = iter(words[1:] + words[:1])
    monkeypatch.setattr(solver, "ordering_from_sign_matrix", lambda poly, matrix: next(proposed))
    for word in words:
        with pytest.raises(InconsistentPatternError):
            solve(poly, sign_of_ordering(poly, word))


def test_longest_walk_through_n_8():
    # the most iterations over every consistent pattern, pinned so that a
    # picker change shows; each is far below C(n-1, 2) and the 4n^3 bound
    longest = [
        max(solve(Polygon(n), SignPattern(n, bits))[1].iterations for bits in consistent_bits(n))
        for n in range(4, 9)
    ]
    assert longest == [1, 3, 5, 9, 14]


def test_iteration_limit(monkeypatch):
    monkeypatch.setattr("usigns.solver.default_iteration_bound", lambda n: 0)
    poly = Polygon(5)
    with pytest.raises(IterationLimitError) as err:
        solve(poly, SignPattern.from_string(5, "-++++"))
    assert err.value.trace.iterations == 0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_solve_roundtrip_exhaustive(n):
    poly = Polygon(n)
    for bits in consistent_bits(n):
        pattern = SignPattern(n, bits)
        word, trace = solve(poly, pattern)
        assert sign_of_ordering(poly, word) == pattern
        assert word == canonicalize(word)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_solve_tie_break_independent_result(n):
    # a consistent pattern carries one ordering, so at every state of the walk
    # flipping any of the shortest negative chords must lead back to it
    poly = Polygon(n)
    ties = 0
    for bits in consistent_bits(n):
        pattern = SignPattern(n, bits)
        expected, trace = solve(poly, pattern)
        word = poly.identity_word
        states = (pattern,) + tuple(step.pattern for step in trace.steps)
        for state, step in zip(states, trace.steps):
            lengths = {c: poly.chord_length(c) for c in state.negatives()}
            shortest = min(lengths.values())
            oriented = [
                (i, j) if j - i == shortest else (j, poly.wrap(j + shortest))
                for (i, j), d in lengths.items()
                if d == shortest
            ]
            assert step.chord in oriented
            swapped = swap_labels(word, *step.swap)
            for a, b in oriented:
                p = poly.wrap(a + 1)
                moved = swap_labels(word, word[p - 1], word[b - 1])
                after = transport(state, map_for_transposition(poly, p, b))
                if (a, b) == step.chord:
                    assert (moved, after) == (swapped, step.pattern)
                rest, _ = solve(poly, after)
                assert canonicalize([moved[v - 1] for v in rest]) == expected
            ties += len(oriented) > 1
            word = swapped
    assert ties > 0


def test_walk_reads_each_state_once(monkeypatch):
    # one pick per state drives its swap and fills its min_length; the walk
    # never rescans a state through stats
    def refuse(*args):
        raise AssertionError("the walk called a second reader")

    calls = []

    def counted(pattern):
        calls.append(pattern)
        return shortest_negative(pattern)

    monkeypatch.setattr(solver, "stats", refuse)
    monkeypatch.setattr(solver, "shortest_negative", counted)
    rng = random.Random(1800)
    for n in range(8, 13):
        poly = Polygon(n)
        for _ in range(20):
            word = tuple(rng.sample(range(1, n + 1), n))
            calls.clear()
            found, trace = solve(poly, sign_of_ordering(poly, word))
            assert found == canonicalize(word)
            assert len(calls) == trace.iterations > 0
            assert calls == [trace.initial] + [s.pattern for s in trace.steps[:-1]]
        calls.clear()
        assert solve(poly, SignPattern.all_plus(n))[1].iterations == 0
        assert calls == []


@pytest.mark.parametrize("n", [4, 5, 6, 7, 20, 60])
def test_walk_picks_as_brute_force(n, monkeypatch):
    # the walk off the pick order is the walk off the brute-force picker:
    # the same word and the same trace, step for step
    poly = Polygon(n)
    if n <= 7:
        words = list(all_orderings(poly))
    else:
        rng = random.Random(n)
        words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(4 if n == 20 else 1)]
    patterns = [sign_of_ordering(poly, word) for word in words]
    walks = [solve(poly, pattern) for pattern in patterns]
    monkeypatch.setattr(solver, "shortest_negative", brute_force_pick)
    assert [solve(poly, pattern) for pattern in patterns] == walks


def test_solve_incremental_matches_from_scratch():
    # each state the walk reads off the word must equal the input transported
    # through the full chart change of the swaps so far, and replaying the
    # swaps on labels must give the returned word
    rng = random.Random(17)
    for n in (6, 9, 12):
        poly = Polygon(n)
        for _ in range(20):
            pattern = sign_of_ordering(poly, tuple(rng.sample(range(1, n + 1), n)))
            word, trace = solve(poly, pattern)
            alpha = poly.identity_word
            for step in trace.steps:
                alpha = tuple(
                    {step.swap[0]: step.swap[1], step.swap[1]: step.swap[0]}.get(v, v)
                    for v in alpha
                )
                assert transport(pattern, map_for_ordering(poly, alpha)) == step.pattern
            assert canonicalize(alpha) == word


def test_decagon_worked_example():
    poly = Polygon(10)
    pattern = SignPattern.from_negative_chords(10, DECAGON_NEGATIVES)
    assert is_consistent(poly, pattern)
    word, trace = solve(poly, pattern)
    assert word == canonicalize((1, 2, 3, 8, 4, 5, 6, 9, 10, 7))
    assert trace.iterations == 6
    assert [s.swap for s in trace.steps] == [
        (7, 8),
        (9, 10),
        (4, 6),
        (7, 9),
        (6, 8),
        (5, 4),
    ]
    assert trace.steps[0].chord == (6, 8)
    assert trace.steps[1].chord == (8, 10)


def test_trace_render_format():
    poly = Polygon(5)
    _, trace = solve(poly, SignPattern.from_string(5, "-++++"))
    assert trace.render() == "chord=(1,3) swap=(2,3) N=0 l=- pattern=+++++"


def _lex_key(stats_pair):
    negatives, length = stats_pair
    return (negatives, length or 0)


@pytest.mark.parametrize("n", [5, 6])
def test_trace_invariant_properties(n):
    poly = Polygon(n)
    for bits in consistent_bits(n):
        _, trace = solve(poly, SignPattern(n, bits))
        seq = trace.state_stats()
        for idx, (negatives, length) in enumerate(seq[:-1]):
            # short negative chords force a strict drop in the negative count
            if length in (2, 3):
                assert seq[idx + 1][0] < negatives
            # the (N, l) pair drops lexicographically within 2n further steps
            window = seq[idx + 1 : idx + 1 + 2 * n]
            assert any(_lex_key(state) < _lex_key(seq[idx]) for state in window)


def test_sign_matrix_identity_pattern():
    poly = Polygon(6)
    matrix = reconstruct_sign_matrix(poly, sign_of_ordering(poly, poly.identity_word))
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert matrix.sign(i, j) == -1
            assert matrix.sign(j, i) == 1
    with pytest.raises(ValueError):
        matrix.sign(2, 2)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_sign_matrix_matches_gauged_points(n):
    poly = Polygon(n)
    for word in itertools.islice(all_orderings(poly), 80):
        matrix = reconstruct_sign_matrix(poly, sign_of_ordering(poly, word))
        gauged = standard_gauge(realize(poly, word), 1, 2, n)
        for i in range(1, n):
            for j in range(i + 1, n):
                zi, zj = gauged.point(i).value(), gauged.point(j).value()
                assert matrix.sign(i, j) == (1 if zi > zj else -1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_matrix_route_roundtrip(n):
    poly = Polygon(n)
    for word in all_orderings(poly):
        matrix = reconstruct_sign_matrix(poly, sign_of_ordering(poly, word))
        assert ordering_from_sign_matrix(poly, matrix) == word


@pytest.mark.parametrize("n, words", [(n, 30) for n in range(9, 15)] + [(20, 5), (30, 5)])
def test_routes_agree_beyond_exhaustive_range(n, words):
    # seeded words past the exhaustive n <= 8: the walk, the matrix route and
    # the oracle agree on each, the walk stays within its 4n^3 bound, and each
    # step is the transport of the state before through the monomial map of
    # its transposition
    poly = Polygon(n)
    rng = random.Random(2000 + n)
    for _ in range(words):
        word = tuple(rng.sample(range(1, n + 1), n))
        pattern = sign_of_ordering(poly, word)
        found, trace = solve(poly, pattern)
        matrix = reconstruct_sign_matrix(poly, pattern)
        assert found == ordering_from_sign_matrix(poly, matrix) == canonicalize(word)
        assert signs_from_points(realize(poly, word)) == pattern
        assert trace.iterations <= solver.default_iteration_bound(n)
        previous = pattern
        for step in trace.steps:
            a, b = step.chord
            after = transport(previous, map_for_transposition(poly, poly.wrap(a + 1), b))
            assert after == step.pattern
            previous = step.pattern


def _matrix_by_bits(poly: Polygon, pattern: SignPattern) -> SignMatrix:
    # the matrix recursion reading each chord as a bit of the pattern integer,
    # an independent reader of the same signs
    n, bits, index = poly.n, pattern.bits, poly.pair_index
    neg = [[1] * (n + 1) for _ in range(n)]
    for j in range(3, n):
        neg[1][j] = neg[1][j - 1] ^ (bits >> index[j - 1][n] & 1)
    for i in range(2, n - 1):
        for j in range(n - 1, i, -1):
            chord = bits >> index[i - 1][j] & 1
            neg[i][j] = chord ^ neg[i - 1][j + 1] ^ neg[i - 1][j] ^ neg[i][j + 1]
    entries = tuple(1 - 2 * neg[i][j] for i in range(1, n) for j in range(i + 1, n + 1))
    return SignMatrix(n, entries)


def test_matrix_route_reads_the_chord_signs():
    for n in range(4, 9):
        poly = Polygon(n)
        for word in all_orderings(poly):
            pattern = sign_of_ordering(poly, word)
            assert reconstruct_sign_matrix(poly, pattern) == _matrix_by_bits(poly, pattern)
    rng = random.Random(36)
    for n in (60, 300):
        poly = Polygon(n)
        for _ in range(2):
            consistent = sign_of_ordering(poly, rng.sample(range(1, n + 1), n))
            for pattern in (consistent, SignPattern(n, rng.getrandbits(poly.chord_count))):
                assert reconstruct_sign_matrix(poly, pattern) == _matrix_by_bits(poly, pattern)


def test_matrix_route_flags_inconsistent_patterns():
    # inconsistent input either fails the order check or disagrees with itself
    poly = Polygon(6)
    rng = random.Random(23)
    good = consistent_bits(6)
    bad = [b for b in range(1 << 9) if b not in good]
    flagged = 0
    for bits in rng.sample(bad, 200):
        pattern = SignPattern(6, bits)
        try:
            word = ordering_from_sign_matrix(poly, reconstruct_sign_matrix(poly, pattern))
        except IntransitiveOrderError:
            flagged += 1
            continue
        assert sign_of_ordering(poly, word) != pattern
        flagged += 1
    assert flagged == 200
    # a 3-cycle z1 < z2 < z3 < z1 fails the score check
    cycle = SignMatrix(4, (-1, 1, -1, -1, -1, -1))
    with pytest.raises(IntransitiveOrderError):
        ordering_from_sign_matrix(Polygon(4), cycle)


def test_ordering_reads_only_labels_below_n():
    # z_n plays infinity, so a hand-built matrix's (i, n) entries are not read
    pairs = list(itertools.combinations(range(1, 6), 2))
    entries = tuple(1 if j == 5 else -1 for _, j in pairs)
    assert ordering_from_sign_matrix(Polygon(5), SignMatrix(5, entries)) == (1, 2, 3, 4, 5)
