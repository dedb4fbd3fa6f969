from __future__ import annotations

import io
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from usigns import (
    Polygon,
    SignPattern,
    all_orderings,
    consistent_patterns,
    count_consistent,
    crossing_chords,
    extended_relations,
    is_consistent,
    primitive_relations,
    sign_of_ordering,
)
from usigns import _enumeration
from usigns._enumeration import _closing, _plan
from usigns.relations import _relation_masks

from conftest import (
    coarsen,
    consistent_bits,
    contradicts,
    cyclic_intervals,
    reference_relation,
    reflect_pattern,
    rotate_pattern,
)

N6_PRIMITIVE = {
    ((1, 3),): ((2, 4), (2, 5), (2, 6)),
    ((2, 4),): ((1, 3), (3, 5), (3, 6)),
    ((3, 5),): ((1, 4), (2, 4), (4, 6)),
    ((4, 6),): ((1, 5), (2, 5), (3, 5)),
    ((1, 5),): ((2, 6), (3, 6), (4, 6)),
    ((2, 6),): ((1, 3), (1, 4), (1, 5)),
    ((1, 4),): ((2, 5), (2, 6), (3, 5), (3, 6)),
    ((2, 5),): ((1, 3), (1, 4), (3, 6), (4, 6)),
    ((3, 6),): ((1, 4), (1, 5), (2, 4), (2, 5)),
}

N6_EXTENDED_PROPER = [
    (((1, 4), (2, 4)), ((3, 5), (3, 6))),
    (((2, 5), (3, 5)), ((1, 4), (4, 6))),
    (((3, 6), (4, 6)), ((1, 5), (2, 5))),
    (((1, 4), (1, 5)), ((2, 6), (3, 6))),
    (((2, 5), (2, 6)), ((1, 3), (1, 4))),
    (((1, 3), (3, 6)), ((2, 4), (2, 5))),
]


def _term_sets(rel):
    return frozenset((frozenset(rel.t1), frozenset(rel.t2)))


def _primitive(poly, c):
    """The primitive relation of chord c, found by its place in chord order."""
    return primitive_relations(poly)[poly.chord_index[c]]


def _extended_by_cuts(poly):
    """The extended relations keyed by their cuts, read off by place in cut order."""
    return dict(zip(itertools.combinations(range(1, poly.n + 1), 4), extended_relations(poly)))


def test_primitive_relation_examples():
    p6 = Polygon(6)
    r = _primitive(p6, (1, 3))
    assert r.t1 == ((1, 3),) and r.t2 == ((2, 4), (2, 5), (2, 6))
    r = _primitive(p6, (1, 4))
    assert r.t2 == ((2, 5), (2, 6), (3, 5), (3, 6))
    p4 = Polygon(4)
    r = _primitive(p4, (1, 3))
    assert r.t1 == ((1, 3),) and r.t2 == ((2, 4),)


def test_primitive_relations_n6_full_list():
    got = {r.t1: tuple(sorted(r.t2)) for r in primitive_relations(Polygon(6))}
    assert got == {k: tuple(sorted(v)) for k, v in N6_PRIMITIVE.items()}


@pytest.mark.parametrize("n,count", [(4, 1), (5, 5), (6, 15), (8, 70)])
def test_extended_relations_count(n, count):
    assert len(extended_relations(Polygon(n))) == count


def test_extended_relations_n5_all_primitive():
    p5 = Polygon(5)
    prim = {_term_sets(r) for r in primitive_relations(p5)}
    ext = {_term_sets(r) for r in extended_relations(p5)}
    assert ext == prim


def test_extended_relation_cut_example():
    r = _extended_by_cuts(Polygon(6))[(1, 3, 4, 5)]
    assert r.t1 == ((1, 4), (2, 4)) and r.t2 == ((3, 5), (3, 6))
    assert r.cuts == (1, 3, 4, 5)


def test_extended_relations_n6_split():
    p6 = Polygon(6)
    ext = {_term_sets(r) for r in extended_relations(p6)}
    prim = {_term_sets(r) for r in primitive_relations(p6)}
    proper = {
        frozenset((frozenset(t1), frozenset(t2))) for t1, t2 in N6_EXTENDED_PROPER
    }
    assert prim <= ext
    assert ext - prim == proper


@pytest.mark.parametrize("n", range(4, 13))
def test_extended_relation_matches_reference(n):
    poly = Polygon(n)
    relations = _extended_by_cuts(poly)
    assert len(extended_relations(poly)) == len(relations) == math.comb(n, 4)
    for cuts, rel in relations.items():
        assert rel == reference_relation(poly, cuts)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_singleton_interval_relations_are_primitive(n):
    poly = Polygon(n)
    prim = {_term_sets(r) for r in primitive_relations(poly)}
    recovered = {
        _term_sets(r)
        for r in extended_relations(poly)
        if len(r.t1) == 1 or len(r.t2) == 1
    }
    assert recovered == prim


def test_contradicts():
    p4 = Polygon(4)
    rel = _primitive(p4, (1, 3))
    assert contradicts(SignPattern.from_string(4, "--"), rel)
    assert not contradicts(SignPattern.from_string(4, "-+"), rel)
    # parity: two negatives in one term make it positive
    p6 = Polygon(6)
    rel = _extended_by_cuts(p6)[(1, 3, 4, 5)]  # u14*u24 + u35*u36
    s = SignPattern.from_negative_chords(6, [(1, 4), (3, 5)])
    assert contradicts(s, rel)
    s = SignPattern.from_negative_chords(6, [(1, 4), (2, 4), (3, 5)])
    assert not contradicts(s, rel)
    with pytest.raises(ValueError):
        contradicts(SignPattern.all_plus(5), rel)


def test_is_consistent_examples():
    assert is_consistent(Polygon(5), SignPattern.all_minus(5))
    assert not is_consistent(Polygon(4), SignPattern.from_string(4, "--"))
    s = SignPattern.from_string(6, "--+-+--++")
    assert s.bits in {p.bits for p in consistent_patterns(Polygon(6), primitive_only=True)}
    assert not is_consistent(Polygon(6), s)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumeration_against_relation_scan(n):
    # independent route: test every pattern against every relation object
    poly = Polygon(n)
    rels = extended_relations(poly)
    slow = {
        bits
        for bits in range(1 << poly.chord_count)
        if not any(contradicts(SignPattern(n, bits), r) for r in rels)
    }
    assert slow == consistent_bits(n)
    prim = primitive_relations(poly)
    slow_prim = {
        bits
        for bits in range(1 << poly.chord_count)
        if not any(contradicts(SignPattern(n, bits), r) for r in prim)
    }
    assert slow_prim == consistent_bits(n, True)


@pytest.mark.parametrize(
    "n,primitive,extended",
    [(4, 3, 3), (5, 12, 12), (6, 74, 60), (7, 697, 360), (9, 227525, 20160)],
)
def test_consistent_counts(n, primitive, extended):
    poly = Polygon(n)
    assert count_consistent(poly) == extended
    assert count_consistent(poly, primitive_only=True) == primitive


def test_count_cap():
    # one bound for both modes: the 13-gon's patterns do not fit a uint64
    assert count_consistent(Polygon(10)) == 181440
    for primitive_only in (False, True):
        with pytest.raises(ValueError, match="uint64"):
            count_consistent(Polygon(13), primitive_only)
        with pytest.raises(ValueError, match="uint64"):
            list(consistent_patterns(Polygon(13), primitive_only))


def _brute_force_bits(n, primitive_only):
    """Every pattern of the n-gon tested against every row of the mask table.

    A pattern is x = hi << h | lo; a term's parity under x is its parity under
    lo xor its parity under hi << h. Each half's parities over all rows are
    packed into uint64 words, so a pattern contradicts a row exactly when the
    two terms' packed parities share a set bit.
    """
    masks = np.array(_relation_masks(n, primitive_only), dtype=np.uint64)
    m = Polygon(n).chord_count
    h = m // 2

    def packed(values, shift):
        # [term][word] over values: bit r of a word is the term's parity on row r
        odd = np.bitwise_count(values[:, None, None] & (masks.T[None] >> np.uint64(shift))) & 1
        words = np.packbits(odd, axis=2, bitorder="little")
        words = np.pad(words, ((0, 0), (0, 0), (0, -words.shape[2] % 8)))
        return np.ascontiguousarray(words).view(np.uint64).transpose(1, 2, 0).copy()

    lo = packed(np.arange(1 << h, dtype=np.uint64), 0)
    hi = packed(np.arange(1 << (m - h), dtype=np.uint64), h)[..., None]
    found = []
    rows = max(1, (1 << 20) >> h)  # about 2^20 patterns at a time
    for start in range(0, hi.shape[2], rows):
        bad = np.zeros((min(rows, hi.shape[2] - start), 1 << h), dtype=bool)
        for w in range(lo.shape[1]):
            both = (lo[0, w] ^ hi[0, w, start : start + rows]) & (lo[1, w] ^ hi[1, w, start : start + rows])
            bad |= both != 0
        found.append(np.flatnonzero(~bad.ravel()) + (start << h))
    return np.concatenate(found).tolist()


@pytest.mark.parametrize(
    "n", [4, 5, 6, 7, 8, pytest.param(9, marks=pytest.mark.stretch)]
)
def test_lift_matches_brute_force_kernel(n):
    # the frontier lifts patterns chord by chord; the reference tests every
    # one of the 2^(n(n-3)/2) patterns against every relation
    for primitive_only in (False, True):
        expected = _brute_force_bits(n, primitive_only)
        streamed = [p.bits for p in consistent_patterns(Polygon(n), primitive_only)]
        assert streamed == expected
        assert count_consistent(Polygon(n), primitive_only) == len(expected)


def test_stream_independent_of_block_size(monkeypatch):
    # blocks of at most 32 patterns are split many times over at n = 7
    monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
    for primitive_only in (False, True):
        streamed = [p.bits for p in consistent_patterns(Polygon(7), primitive_only)]
        assert streamed == _brute_force_bits(7, primitive_only)


def test_nine_gon_stream_is_the_orderings():
    poly = Polygon(9)
    streamed = [p.bits for p in consistent_patterns(poly)]
    assert streamed == sorted({sign_of_ordering(poly, w).bits for w in all_orderings(poly)})


@pytest.mark.stretch
def test_ten_gon_primitive_count():
    # a brute-force scan of all 2^35 patterns gives the same count
    assert count_consistent(Polygon(10), primitive_only=True) == 7850228


def test_primitive_stream_refused_beyond_memory():
    # 415 703 183 patterns at n = 11 do not fit in memory once sorted
    with pytest.raises(ValueError, match="memory"):
        next(consistent_patterns(Polygon(11), primitive_only=True))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_lift_fibre_is_coarsening_kernel(n):
    # merging n - 1 and n, coarsening is linear mod 2, keeps every chord away
    # from n - 1 and n and sends the chords at them onto the chords at the
    # merged vertex; so the fibre over the all-plus (n-1)-gon pattern lies
    # on the chords at n - 1 or n
    poly, small = Polygon(n), Polygon(n - 1)
    merge = tuple(range(1, n))
    merged = small.mask(c for c in small.chords if c[1] == n - 1)
    near = [c for c in poly.chords if c[1] >= n - 1]
    for c in poly.chords:
        image = coarsen(poly, merge, SignPattern(n, poly.mask([c]))).bits
        assert image & ~merged == 0 if c in near else image == small.mask([c])
    subsets = itertools.chain.from_iterable(
        itertools.combinations(near, k) for k in range(len(near) + 1)
    )
    fibre = [
        bits
        for bits in map(poly.mask, subsets)
        if coarsen(poly, merge, SignPattern(n, bits)) == SignPattern.all_plus(n - 1)
    ]
    assert len(set(fibre)) == len(fibre) == 1 << (n - 2)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_lifted_patterns_coarsen_to_consistent(n):
    poly, small = Polygon(n), Polygon(n - 1)
    merge = tuple(range(1, n))
    for p in consistent_patterns(poly):
        assert is_consistent(small, coarsen(poly, merge, p))


@pytest.mark.parametrize("n", [9, 10, 11, 12, 13, 14, 20])
def test_coarsening_keeps_consistency_past_exhaustive_range(n):
    # seeded words and cut sets of every size 4..n-1, past the enumerator's n
    poly, rng = Polygon(n), random.Random(2300 + n)
    for _ in range(10):
        pattern = sign_of_ordering(poly, rng.sample(range(1, n + 1), n))
        for _ in range(20):
            cuts = sorted(rng.sample(range(1, n + 1), rng.randint(4, n - 1)))
            assert is_consistent(Polygon(len(cuts)), coarsen(poly, cuts, pattern))


def test_lift_rejects_n_beyond_uint64():
    with pytest.raises(ValueError):
        count_consistent(Polygon(13))
    with pytest.raises(ValueError):
        list(consistent_patterns(Polygon(13)))


def test_count_progress_counts_blocks(monkeypatch):
    # one convention in both modes: one call per block with the Fraction of
    # the walk done, strictly increasing to exactly 1; a walk that fits one
    # block makes one call, and blocks of 32 at n = 7 make many
    poly = Polygon(7)
    for primitive_only, expected in ((False, 360), (True, 697)):
        monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 1 << 16)
        calls = []
        assert count_consistent(poly, primitive_only, progress=calls.append) == expected
        assert calls == [Fraction(1)] and type(calls[0]) is Fraction
        monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
        calls = []
        assert count_consistent(poly, primitive_only, progress=calls.append) == expected
        assert len(calls) > 1 and all(type(share) is Fraction for share in calls)
        assert all(a < b for a, b in zip(calls, calls[1:])) and calls[-1] == 1


def test_waiting_frontiers_share_no_memory(monkeypatch):
    # a frontier is cut into copied halves, so no half waiting on the stack
    # is a view that keeps its grown parent alive: every frontier and weight
    # array that enters an extension owns its memory. Counts and streams at
    # n = 8 in blocks of 32, where the second half of the relations merges
    # and cuts weighted frontiers
    monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
    entered = []
    extend = _enumeration._extend

    def checked(x, w, d, groups):
        entered.append((x.base is None and (w is None or w.base is None), w is not None))
        return extend(x, w, d, groups)

    monkeypatch.setattr(_enumeration, "_extend", checked)
    for primitive_only in (False, True):
        masks = _relation_masks(8, primitive_only)
        for relations in (masks, masks[len(masks) // 2 :]):
            got = _enumeration.count(8, relations)
            assert got == len(_enumeration._sorted_bits(8, relations))
    assert len(entered) > 100
    assert any(weighted for _, weighted in entered)
    assert all(owned for owned, _ in entered)


def test_count_drops_each_block_before_the_next_grows(monkeypatch):
    # count lets go of a block and its weights before the walk extends the
    # next frontier, so they never sit beside it; n = 8 in blocks of 32,
    # extended and primitive-only (weighted blocks)
    monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
    yielded = []
    blocks, extend = _enumeration._blocks, _enumeration._extend

    def recorded(*args):
        for share, block, w in blocks(*args):
            yielded.extend(weakref.ref(a) for a in (block, w) if a is not None)
            yield share, block, w
            del block, w  # the wrapper holds nothing either

    def checked(x, w, d, groups):
        assert all(ref() is None for ref in yielded)
        return extend(x, w, d, groups)

    monkeypatch.setattr(_enumeration, "_blocks", recorded)
    monkeypatch.setattr(_enumeration, "_extend", checked)
    for primitive_only, expected in ((False, 2520), (True, 10180)):
        assert _enumeration.count(8, _relation_masks(8, primitive_only)) == expected
    assert len(yielded) > 100


def _survivor_count_cases():
    """(n, primitive_only, block_entries): every n at the default size, and
    blocks of 32 and of 1 up to where each case takes about 3 s.

    Small blocks extend a few patterns per numpy call: blocks of 32 take
    5 s at n = 9 primitive-only, and blocks of 1 take 3.6 s at n = 9 and
    minutes at n = 9 primitive-only and at n = 10.
    """
    cases = [(n, False, None) for n in range(4, 11)] + [(n, True, None) for n in range(4, 10)]
    cases += [(n, False, 32) for n in range(4, 11)] + [(n, True, 32) for n in range(4, 9)]
    cases += [(n, p, 1) for n in range(4, 9) for p in (False, True)]
    return cases


@pytest.mark.parametrize("n, primitive_only, block_entries", _survivor_count_cases())
def test_count_from_last_survivors_matches_stream(n, primitive_only, block_entries, monkeypatch):
    # count stops a step short and counts the last step's survivors; the
    # stream gathers them. Blocks of 1 and of 32 (from n = 7) are cut early,
    # and some outgrow the size only at the step before the last
    if block_entries is not None:
        monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", block_entries)
    masks = _relation_masks(n, primitive_only)
    assert _enumeration.count(n, masks) == len(_enumeration._sorted_bits(n, masks))


def test_blocks_never_outgrow_the_block_size(monkeypatch):
    # a block that outgrows the size at the end of its steps is halved before
    # it is yielded, so count's survivor check never runs on more patterns;
    # with merge keys no weight array outgrows the size either, and the
    # shares of the blocks sum to exactly 1. Every merge table is smaller
    # than the frontier it merges; a frontier passes the size only into a
    # step that merges it, so none enters an extension with over twice the
    # size and no merge reads over four times it
    monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
    merged = []
    merge = _enumeration._merge

    def recorded(x, w, key):
        merged.append((1 << key[0], len(x), w is not None))
        return merge(x, w, key)

    monkeypatch.setattr(_enumeration, "_merge", recorded)
    for primitive_only in (False, True):
        masks = _relation_masks(8, primitive_only)
        # the second half of the relations merges within blocks of 32
        for relations in (masks, masks[len(masks) // 2 :]):
            steps, keys = _plan(8, relations)
            for run, merge_keys in itertools.product((steps, steps[:-1]), (None, keys)):
                blocks = list(_enumeration._blocks(run, merge_keys))
                assert max(len(block) for _, block, _ in blocks) <= 32
                assert all(w is None or len(w) == len(block) for _, block, w in blocks)
                if merge_keys is None:
                    assert all(w is None for *_, w in blocks)
                assert sum(share for share, *_ in blocks) == 1
    assert any(weighted for _, _, weighted in merged)
    assert all(table < block <= 4 * 32 for table, block, _ in merged)


@pytest.mark.parametrize("n", range(5, 13))
def test_extended_plans_never_merge(n):
    # the open extended relations span every chord set until the last step,
    # so the extended count, streams and count --out do no merge work; the
    # primitive ones leave parity states to merge from n = 6
    _, extended = _plan(n, _relation_masks(n, False))
    _, primitive = _plan(n, _relation_masks(n, True))
    assert not any(extended[:-1])
    assert n < 6 or any(primitive[:-1])


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("block_entries", [None, 32])
def test_merged_count_of_relation_subsets(n, block_entries, monkeypatch):
    # seeded random sub-tuples of each mode's masks leave chords and parity
    # states free at steps the full relation sets never reach, so merges fire
    # there; the count equals the stream, which never merges
    if block_entries is not None:
        monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", block_entries)
    rng = random.Random(2600 + n)
    merges = []
    merge = _enumeration._merge

    def counted(x, w, key):
        merges.append(key[0])
        return merge(x, w, key)

    monkeypatch.setattr(_enumeration, "_merge", counted)
    for primitive_only in (False, True):
        masks = _relation_masks(n, primitive_only)
        for _ in range(6):
            subset = tuple(rng.sample(masks, rng.randint(1, len(masks) - 1)))
            assert _enumeration.count(n, subset) == len(_enumeration._sorted_bits(n, subset))
    assert merges


def test_merges_past_the_block_size(monkeypatch):
    # a frontier merges wherever it outgrows a key's 2^r states, not only
    # within the block size: one past the size still takes a step whose key
    # will merge it, so merges read past 2 * 32 patterns; full primitive
    # masks and seeded sub-tuples of them
    monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
    merged = []
    merge = _enumeration._merge

    def recorded(x, w, key):
        merged.append((n, len(x)))
        return merge(x, w, key)

    monkeypatch.setattr(_enumeration, "_merge", recorded)
    for n in (7, 8):
        rng = random.Random(2700 + n)
        masks = _relation_masks(n, True)
        subsets = [tuple(rng.sample(masks, rng.randint(1, len(masks) - 1))) for _ in range(6)]
        for relations in [masks, *subsets]:
            assert _enumeration.count(n, relations) == len(_enumeration._sorted_bits(n, relations))
    assert {n for n, frontier in merged if frontier > 32} == {7, 8}
    assert any(frontier > 2 * 32 for _, frontier in merged)


@pytest.mark.parametrize(
    "n, rows", [(n, 500) for n in range(4, 13)] + [(9, _enumeration._WRITE_ROWS + 1)]
)
def test_write_lines_matches_sign_pattern_str(n, rows):
    # m = 2..54 chords over 1 to 7 byte columns, the last one partial, and
    # one row past a full slice: seeded random patterns, plus the all-plus
    # and all-minus ones
    m = Polygon(n).chord_count
    bits = np.random.default_rng(2500 + n + rows).integers(0, 1 << m, rows, dtype=np.uint64)
    bits[:2] = 0, (1 << m) - 1
    fh = io.BytesIO()
    _enumeration._write_lines(bits, m, fh)
    assert fh.getvalue() == "".join(f"{SignPattern(n, int(b))}\n" for b in bits).encode()


def test_stream_matches_count():
    poly = Polygon(6)
    patterns = list(consistent_patterns(poly))
    assert len(patterns) == 60
    assert [p.bits for p in patterns] == sorted(p.bits for p in patterns)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_all_plus_consistent(n):
    assert is_consistent(Polygon(n), SignPattern.all_plus(n))


@pytest.mark.parametrize("n", [5, 6])
def test_consistent_set_dihedral_closed(n):
    bits = consistent_bits(n)
    for b in bits:
        s = SignPattern(n, b)
        assert rotate_pattern(s, 1).bits in bits
        assert reflect_pattern(s).bits in bits


def test_coarsen_identity_partition():
    poly = Polygon(6)
    s = SignPattern.from_string(6, "-+-+-+-++")
    assert coarsen(poly, tuple(range(1, 7)), s) == s


def test_coarsen_all_plus():
    poly = Polygon(7)
    out = coarsen(poly, (1, 3, 4, 6, 7), SignPattern.all_plus(7))
    assert out == SignPattern.all_plus(5)


def test_coarsen_single_short_negative():
    # only the wrap chord {2,7} negative; pentagon blocks 1|2|{3,4,5}|6|7
    poly = Polygon(7)
    s = SignPattern.from_negative_chords(7, [(2, 7)])
    out = coarsen(poly, (1, 2, 3, 6, 7), s)
    assert out.negatives() == ((2, 5),)
    assert Polygon(5).chord_length((2, 5)) == 2


def test_coarsen_parity():
    # two negatives between the same blocks cancel
    poly = Polygon(6)
    s = SignPattern.from_negative_chords(6, [(1, 4), (2, 4)])
    out = coarsen(poly, (1, 3, 4, 5), s)  # blocks {1,2},{3},{4},{5,6}
    assert out == SignPattern.all_plus(4)


def _coarse_bits_vector(n, cuts, bits_array):
    """Coarsened bitmasks for a whole vector of patterns at once."""
    poly = Polygon(n)
    small = Polygon(len(cuts))
    intervals = cyclic_intervals(poly, cuts)
    out = np.zeros(len(bits_array), dtype=np.int64)
    for idx, (p, q) in enumerate(small.chords):
        mask = 0
        for i in intervals[p - 1]:
            for j in intervals[q - 1]:
                mask |= 1 << poly.chord_index[poly.chord(i, j)]
        parity = np.bitwise_count(bits_array & mask).astype(np.int64) & 1
        out |= parity << idx
    return out


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_coarsening_preserves_consistency(n):
    # every interval coarsening of every consistent pattern stays consistent
    poly = Polygon(n)
    bits_array = np.array(sorted(consistent_bits(n)), dtype=np.int64)
    for k in range(4, n + 1):
        small_bits = consistent_bits(k)
        for cuts in itertools.combinations(range(1, n + 1), k):
            coarse = _coarse_bits_vector(n, cuts, bits_array)
            assert set(np.unique(coarse)) <= small_bits
    # spot-check the vectorized helper against the public function
    sample = SignPattern(n, int(bits_array[len(bits_array) // 2]))
    cuts = tuple(range(1, 5)) if n == 4 else (1, 2, 4, n)
    assert (
        coarsen(poly, cuts, sample).bits
        == _coarse_bits_vector(n, cuts, np.array([sample.bits]))[0]
    )


def test_relation_mask_dedup():
    # n=4 has a single distinct relation even though both chords generate one
    assert len(_relation_masks(4, True)) == 1
    assert len(_relation_masks(4, False)) == 1


@pytest.mark.parametrize("n", range(4, 15))
def test_relation_terms_table(n):
    # the one per-n relation table against definitions that do not read the
    # cut rectangles: term masks of the pair-by-pair relations in cut order,
    # and of each chord with the chords crossing it, in chord order
    poly = Polygon(n)
    refs = [reference_relation(poly, cuts) for cuts in itertools.combinations(range(1, n + 1), 4)]
    extended = tuple((poly.mask(r.t1), poly.mask(r.t2)) for r in refs)
    primitive = tuple((poly.mask([c]), poly.mask(crossing_chords(poly, c))) for c in poly.chords)
    assert _relation_masks(n, False) == extended
    # the square's two primitive relations are one relation
    assert _relation_masks(n, True) == (primitive[:1] if n == 4 else primitive)


def test_relation_masks_build_no_relation_objects(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("relation object or chord lookup on the mask path")

    n = 30
    _relation_masks.cache_clear()
    monkeypatch.setattr("usigns.relations.URelation", refused)
    monkeypatch.setattr(Polygon, "chord", refused)
    monkeypatch.setattr(Polygon, "mask", refused)
    try:
        extended = _relation_masks(n, False)
        primitive = _relation_masks(n, True)
    finally:
        _relation_masks.cache_clear()
    assert len(extended) == math.comb(n, 4)
    assert len(primitive) == n * (n - 3) // 2


@pytest.mark.parametrize("n", range(4, 13))
def test_plan_checks_each_relation_once_at_its_last_chord(n):
    poly = Polygon(n)
    star = sorted(poly.chords, key=lambda c: (c[0], -c[1]))
    for primitive_only in (False, True):
        masks = _relation_masks(n, primitive_only)
        steps, _ = _plan(n, masks)
        _, closing = _closing(n, masks)
        assert len(steps) == len(closing) == len(star)
        checked = Counter()
        for k, ((d, _), rows) in enumerate(zip(steps, closing)):
            assert int(d) == poly.mask([star[k]])
            set_by_now = poly.mask(star[: k + 1])
            for held, other in rows:
                assert held & int(d) == 0 and other & int(d) == 0
                assert (held | other) & ~set_by_now == 0
                checked[frozenset((held | int(d), other))] += 1
        assert checked == Counter(frozenset(r) for r in masks)


@pytest.mark.parametrize("n", range(4, 13))
def test_lift_plan_reads_cut_at_n_rows(n):
    # the relations with a cut at n close at the chords to n: cuts
    # (a, b, c, n) at chord (c - 1, n), in cut order
    poly = Polygon(n)
    star = sorted(poly.chords, key=lambda c: (c[0], -c[1]))
    steps, _ = _plan(n, _relation_masks(n, False))
    _, closing = _closing(n, _relation_masks(n, False))
    assert len(steps) == len(closing) == len(star)
    relations = _extended_by_cuts(poly)
    got, expected = [], []
    for (i, j), (d, _), rows in zip(star, steps, closing):
        if j != n:
            continue
        got += rows
        for cuts in itertools.combinations(range(1, i + 1), 2):
            r = relations[cuts + (i + 1, n)]
            m1, m2 = poly.mask(r.t1), poly.mask(r.t2)
            expected.append((m1 ^ int(d), m2) if m1 & int(d) else (m2 ^ int(d), m1))
    assert got == expected
    assert len(got) == math.comb(n - 1, 3)


def _extend_by_popcount(x, d, terms):
    """_extend's reference: each relation's term parities counted bit by bit."""
    held, other = np.bitwise_count(x[:, None] & terms[:, None, :]) & np.uint8(1)
    keep_x = ~(held & other).any(axis=1)
    keep_xd = ~(other & ~held).any(axis=1)
    return np.concatenate((x[keep_x], x[keep_xd] | d))


@pytest.mark.parametrize("n", range(4, 13))
def test_extend_matches_popcount_reference(n):
    # every plan step of both modes, on random partial patterns: bits only
    # on the chords set before d, plus the empty and the full pattern
    poly = Polygon(n)
    star = sorted(poly.chords, key=lambda c: (c[0], -c[1]))
    rng = np.random.default_rng(n)
    groups_taken = {}  # relations closing at a step -> parity-table groups
    for primitive_only in (False, True):
        masks = _relation_masks(n, primitive_only)
        steps, _ = _plan(n, masks)
        _, closing = _closing(n, masks)
        for k, ((d, groups), rows) in enumerate(zip(steps, closing)):
            terms = np.array(rows, dtype=np.uint64).reshape(-1, 2).T
            groups_taken[terms.shape[1]] = len(groups)
            assert sum(width for width, _, _ in groups) == terms.shape[1]
            before = np.uint64(poly.mask(star[:k]))
            x = rng.integers(0, 1 << 63, 256, dtype=np.uint64) & before
            x[:2] = 0, before
            y, w = _enumeration._extend(x, np.arange(len(x)), d, groups)
            np.testing.assert_array_equal(y, _extend_by_popcount(x, d, terms))
            # each weight follows its pattern; no weights stay none
            np.testing.assert_array_equal(x[w], y & ~d)
            assert _enumeration._extend(x, None, d, groups)[1] is None
    if n == 12:
        assert max(groups_taken) == 45 and groups_taken[45] == 2


def _split_at_n(n):
    """The extended relation masks whose cuts include n, and the others."""
    cut_choices = itertools.combinations(range(1, n + 1), 4)
    through, avoid = [], []
    for cuts, masks in zip(cut_choices, _relation_masks(n, False)):
        (through if cuts[-1] == n else avoid).append(masks)
    return tuple(through), tuple(avoid)


@pytest.mark.parametrize(
    "n", [5, 6, 7, 8, 9, pytest.param(10, marks=pytest.mark.stretch)]
)
def test_relations_through_n_count_the_orderings(n):
    # the C(n-1, 3) relations with a cut at n admit (n-1)!/2 patterns on
    # their own: a check up to this n, not a proof, so src/ never relies on it
    through, _ = _split_at_n(n)
    assert len(through) == math.comb(n - 1, 3)
    assert _enumeration.count(n, through) == math.factorial(n - 1) // 2


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_relations_through_n_are_each_needed(n):
    # without any one of them the rest admit more than the orderings
    through, _ = _split_at_n(n)
    orderings = math.factorial(n - 1) // 2
    for r in range(len(through)):
        assert _enumeration.count(n, through[:r] + through[r + 1 :]) > orderings


@pytest.mark.parametrize(
    "n,expected", [(5, 24), (6, 192), (7, 1920), (8, 23040), (9, 322560)]
)
def test_relations_avoiding_n_count_lifts_of_smaller_orderings(n, expected):
    # consistent(n - 1) * 2^(n - 2): each consistent (n-1)-gon pattern lifts
    # freely on the chords at n
    _, avoid = _split_at_n(n)
    assert expected == math.factorial(n - 2) // 2 * 2 ** (n - 2)
    assert _enumeration.count(n, avoid) == expected


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_count_blind_to_one_missing_relation(n):
    # dropping any one extended relation leaves the count at (n-1)!/2, so a
    # count, `usigns count` included, cannot see a missing relation;
    # test_relation_terms_table, against the pair-by-pair reference, does
    masks = _relation_masks(n, False)
    orderings = math.factorial(n - 1) // 2
    for r in range(len(masks)):
        assert _enumeration.count(n, masks[:r] + masks[r + 1 :]) == orderings
