import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finitary import extractor
from finitary.extractor import (
    ExtractionTriple,
    PatternConfig,
    _bit_count,
    _exact,
    _extract,
    _free_count,
    _sub_block,
    _terms,
    _walk,
    class_from_index,
    class_index,
    class_size,
    count_vector,
    extract,
    invert,
    is_pattern_free,
    rank_in_class,
    unrank_in_class,
)

from oracles import (
    brute_pattern_free,
    contains_marker,
    naive_rank_in_class,
    naive_unrank_in_class,
)

F = Fraction
CFG23 = PatternConfig(2, 3)


class TestConfig:
    def test_pattern_shape(self):
        assert PatternConfig(2, 3).pattern == (2, 1, 1)
        assert PatternConfig(3, 1).pattern == (2,)

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternConfig(1, 3)
        with pytest.raises(ValueError):
            PatternConfig(2, 0)


class TestPatternFree:
    def test_the_pattern_itself(self):
        assert not is_pattern_free((2, 1, 1), CFG23)

    def test_scrambled_word_is_free(self):
        assert is_pattern_free((1, 2, 1), CFG23)

    def test_short_words_always_free(self):
        for n in range(CFG23.marker_len):
            for w in itertools.product((1, 2), repeat=n):
                assert is_pattern_free(w, CFG23)

    @pytest.mark.parametrize("a,t", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_substring_scan(self, a, t):
        cfg = PatternConfig(a, t)
        for n in range(7):
            for w in itertools.product(range(1, a + 1), repeat=n):
                assert is_pattern_free(w, cfg) == (not contains_marker(w, t))


class TestClassSize:
    def test_pinned_small_cases(self):
        # Brute force: words with two 1s and one 2 avoiding 211 are 112, 121.
        assert class_size((2, 1), CFG23) == 2
        assert class_size((3, 0), CFG23) == 1
        assert class_size((1, 2), CFG23) == 3

    @pytest.mark.parametrize("a,t", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_exhaustive_against_enumeration(self, a, t):
        cfg = PatternConfig(a, t)
        for n in range(8):
            free = brute_pattern_free(a, t, n)
            by_class = {}
            for w in free:
                by_class.setdefault(count_vector(w, a), []).append(w)
            for m, words in by_class.items():
                assert class_size(m, cfg) == len(words)
                assert _free_count(m, t) == len(words)
            # Classes with no representative word must count zero.
            for m in map(
                tuple,
                itertools.product(range(n + 1), repeat=a),
            ):
                if sum(m) == n and m not in by_class:
                    assert class_size(m, cfg) == 0
                    assert _free_count(m, t) == 0

    def test_fast_route_matches_automaton_route_larger(self):
        for t in (2, 3, 4):
            cfg = PatternConfig(3, t)
            for m in [(5, 4, 3), (9, 2, 1), (0, 6, 0), (7, 7, 0), (4, 0, 4)]:
                assert _free_count(m, t) == class_size(m, cfg)


class TestRankUnrank:
    def test_pinned_ranks(self):
        assert rank_in_class((1, 1, 2), CFG23) == 1
        assert rank_in_class((2, 1, 2), CFG23) == 2
        assert rank_in_class((2, 2, 1), CFG23) == 3

    def test_pinned_unranks(self):
        assert unrank_in_class((1, 2), CFG23, 2) == (2, 1, 2)
        assert unrank_in_class((3, 0), CFG23, 1) == (1, 1, 1)
        assert unrank_in_class((2, 1), CFG23, 2) == (1, 2, 1)

    def test_rank_rejects_pattern(self):
        with pytest.raises(ValueError, match="marker pattern"):
            rank_in_class((2, 1, 1), CFG23)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_in_class((2, 1), CFG23, 3)

    @pytest.mark.parametrize("a,t", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_rank_is_lex_position_and_roundtrips(self, a, t):
        cfg = PatternConfig(a, t)
        for n in range(7):
            by_class = {}
            for w in brute_pattern_free(a, t, n):
                by_class.setdefault(count_vector(w, a), []).append(w)
            for m, words in by_class.items():
                for expected_rank, w in enumerate(sorted(words), start=1):
                    assert rank_in_class(w, cfg) == expected_rank
                    assert unrank_in_class(m, cfg, expected_rank) == w


class TestClassIndex:
    def test_pinned(self):
        assert class_index((0, 3)) == 1
        assert class_index((2, 1)) == 3
        assert class_index((0, 0, 1)) == 1

    def test_range_regression_exceeds_power_form(self):
        # With a=2, n=3 there are four count vectors; the index reaches
        # C(n+a-1, a-1) = 4, which no range of the form n^(a-1) = 3 covers.
        indices = {class_index(m) for m in [(0, 3), (1, 2), (2, 1), (3, 0)]}
        assert indices == {1, 2, 3, 4}
        assert max(indices) == math.comb(3 + 1, 1) > 3 ** (2 - 1)

    @pytest.mark.parametrize("a,n", [(2, 5), (3, 4), (4, 3)])
    def test_bijection_with_lex_order(self, a, n):
        vectors = sorted(
            m
            for m in itertools.product(range(n + 1), repeat=a)
            if sum(m) == n
        )
        for pos, m in enumerate(vectors, start=1):
            assert class_index(m) == pos
            assert class_from_index(n, a, pos) == m
        assert len(vectors) == math.comb(n + a - 1, a - 1)
        with pytest.raises(ValueError):
            class_from_index(n, a, len(vectors) + 1)

    @pytest.mark.parametrize("a", [2, 3, 5])
    def test_long_vectors_roundtrip(self, a):
        # The closed form against the unit-by-unit walk of class_from_index.
        rng = random.Random(a)
        for n in (1, 50, 3000):
            cuts = sorted(rng.randint(0, n) for _ in range(a - 1))
            m = tuple(b - c for c, b in zip([0, *cuts], [*cuts, n]))
            assert class_from_index(n, a, class_index(m)) == m


class TestExtract:
    def test_pinned_triples(self):
        assert extract((1, 1, 2), CFG23) == ExtractionTriple(1, (1,), 3)
        assert extract((2, 1, 2), CFG23) == ExtractionTriple(1, (0,), 2)
        assert extract((2, 2, 1), CFG23) == ExtractionTriple(0, (), 2)

    def test_empty_word(self):
        assert extract((), CFG23) == ExtractionTriple(0, (), 1)
        assert invert(0, CFG23, ExtractionTriple(0, (), 1)) == ()

    def test_rejects_pattern(self):
        with pytest.raises(ValueError):
            extract((2, 1, 1), CFG23)

    def test_pinned_inversions(self):
        assert invert(3, CFG23, ExtractionTriple(1, (1,), 3)) == (1, 1, 2)
        assert invert(3, CFG23, ExtractionTriple(0, (), 2)) == (2, 2, 1)

    def test_invert_rejects_unrealizable(self):
        # Class (2,1) has size 2 = 2^1: a zero-bit output never occurs.
        with pytest.raises(ValueError):
            invert(3, CFG23, ExtractionTriple(0, (), 3))
        with pytest.raises(ValueError):
            invert(3, CFG23, ExtractionTriple(1, (0,), 99))

    def test_triple_validates_lengths(self):
        with pytest.raises(ValueError):
            ExtractionTriple(2, (1,), 1)
        with pytest.raises(ValueError):
            ExtractionTriple(1, (2,), 1)

    @pytest.mark.parametrize("a,t", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_injective_and_invertible_exhaustively(self, a, t):
        cfg = PatternConfig(a, t)
        for n in range(7):
            free = brute_pattern_free(a, t, n)
            seen = set()
            for w in free:
                trip = extract(w, cfg)
                key = (trip.num_bits, trip.bits, trip.class_id)
                assert key not in seen
                seen.add(key)
                assert invert(n, cfg, trip) == w
                d = class_size(count_vector(w, a), cfg)
                assert (1 << trip.num_bits) <= d <= a**n

    def test_within_class_bit_block_structure(self):
        # For each class and each bit count k, either no word or exactly 2^k
        # words emit k bits, and those words cover {0,1}^k exactly once.
        cfg = PatternConfig(3, 2)
        for n in range(6):
            by_class = {}
            for w in brute_pattern_free(3, 2, n):
                by_class.setdefault(count_vector(w, 3), []).append(w)
            for words in by_class.values():
                by_bits = {}
                for w in words:
                    trip = extract(w, cfg)
                    by_bits.setdefault(trip.num_bits, []).append(trip.bits)
                for k, outs in by_bits.items():
                    assert len(outs) == 1 << k
                    assert sorted(outs) == sorted(
                        itertools.product((0, 1), repeat=k)
                    )


def _random_free_word(rng, a, t, n):
    """A pattern-free word of length ``n`` from a random, often skewed, law."""
    weights = [rng.random() ** 2 + 0.05 for _ in range(a)]
    word, state = [], 0
    while len(word) < n:
        (sym,) = rng.choices(range(1, a + 1), weights)
        nxt = 1 if sym == 2 else state + 1 if sym == 1 and state else 0
        if nxt != t:
            word.append(sym)
            state = nxt
    return tuple(word)


class TestAgainstNaiveRanker:
    """The one-pass ranker against the per-candidate recount it replaced."""

    @pytest.mark.parametrize("t", [1, 2, 3, 6, 8])
    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_rank_unrank_and_roundtrip(self, a, t):
        cfg = PatternConfig(a, t)
        rng = random.Random(1000 * a + t)
        for n in (0, 1, t, t + 1, 2 * t + 3, 40, 150, 400, 800):
            w = _random_free_word(rng, a, t, n)
            m = count_vector(w, a)
            if n == 800 and t >= 3:
                # Long enough that the walk starts in windows of symbols.
                assert _terms(m, t)[0].bit_length() > extractor._WIDE_BITS
            rank = rank_in_class(w, cfg)
            assert rank == naive_rank_in_class(w, cfg)
            assert unrank_in_class(m, cfg, rank) == w
            assert naive_unrank_in_class(m, cfg, rank) == w
            assert invert(n, cfg, extract(w, cfg)) == w

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_unrank_is_independent_of_the_rank_walk(self, monkeypatch, a):
        # Round trips check the rank walk against unrank_in_class, so the
        # unrank must not take any part of the walk.
        def refuse(*args, **kwargs):
            raise AssertionError("the rank walk was called")

        for name in ("_walk", "_steps", "_window", "_rank"):
            monkeypatch.setattr(extractor, name, refuse)
        with pytest.raises(AssertionError, match="rank walk"):
            rank_in_class((1, 2, 1), PatternConfig(a, 3))
        for t in range(1, 5):
            cfg = PatternConfig(a, t)
            for n in range(7):
                by_class = {}
                for w in brute_pattern_free(a, t, n):
                    by_class.setdefault(count_vector(w, a), []).append(w)
                for m, words in by_class.items():
                    for rank, w in enumerate(sorted(words), start=1):
                        assert unrank_in_class(m, cfg, rank) == w


def _splice(word, at, piece):
    return word[:at] + tuple(piece) + word[at + len(piece) :]


class TestWindowedWalk:
    """Walking a window of symbols per exact division, at its boundaries."""

    def test_runs_of_ones_across_window_boundaries(self):
        # Windows start every _WINDOW symbols while the terms are long.  A 2
        # whose run of ones ends in the next window takes its correction in
        # the earlier one; so do a 2 that closes a window and a run that
        # starts a window.
        cfg = PatternConfig(3, 6)
        base = _random_free_word(random.Random(6), 3, 6, 700)
        size = extractor._WINDOW
        cases = [
            (size - 2, (2, 1, 1, 3)),
            (2 * size - 1, (2, 2, 1, 2)),
            (3 * size - 1, (2, 1, 1, 1, 1, 3)),
            (4 * size - 3, (3, 2, 1, 1, 1)),
        ]
        for at, piece in cases:
            w = _splice(base, at, piece)
            # The window after the boundary still starts with wide terms.
            suffix = count_vector(w[(at // size + 1) * size :], 3)
            assert _terms(suffix, 6)[0].bit_length() > extractor._WIDE_BITS
            assert rank_in_class(w, cfg) == naive_rank_in_class(w, cfg)

    def test_run_of_ones_ends_the_word(self):
        # A last 2 whose run of ones reaches the end of the word is never
        # ended inside it.  The correction the walk adds at every 2 must come
        # to zero there.
        cfg = PatternConfig(3, 4)
        base = _random_free_word(random.Random(4), 3, 4, 600)
        for tail in [(2,), (2, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1), (2, 3, 1, 1)]:
            w = base[: -len(tail)] + tail
            assert rank_in_class(w, cfg) == naive_rank_in_class(w, cfg)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 32])
    @pytest.mark.parametrize("a,t", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_every_window_length_on_every_small_word(self, monkeypatch, a, t, width):
        # With every term wide, every boundary case lands in some window:
        # terms dying mid-window, runs crossing boundaries, a final 2.
        monkeypatch.setattr(extractor, "_WIDE_BITS", 1)
        monkeypatch.setattr(extractor, "_WINDOW", width)
        cfg = PatternConfig(a, t)
        for n in range(7 if a < 4 else 6):
            by_class = {}
            for w in brute_pattern_free(a, t, n):
                by_class.setdefault(count_vector(w, a), []).append(w)
            for words in by_class.values():
                for expected_rank, w in enumerate(sorted(words), start=1):
                    assert rank_in_class(w, cfg) == expected_rank

    @pytest.mark.parametrize("width", [3, 7, 32])
    def test_long_words_in_short_windows(self, monkeypatch, width):
        monkeypatch.setattr(extractor, "_WIDE_BITS", 1)
        monkeypatch.setattr(extractor, "_WINDOW", width)
        rng = random.Random(width)
        for a, t in [(2, 2), (3, 3), (3, 6), (4, 8)]:
            cfg = PatternConfig(a, t)
            for n in (40, 150):
                w = _random_free_word(rng, a, t, n)
                assert rank_in_class(w, cfg) == naive_rank_in_class(w, cfg)

    def test_dead_term_whose_divisor_reaches_zero(self, monkeypatch):
        # In 1^k 2^k (t=2) the term r=k dies at the first 1, and its divisor
        # n - r reaches zero k symbols later, inside the same window.  The
        # dead term must stop gathering before that divisor.
        monkeypatch.setattr(extractor, "_WIDE_BITS", 1)
        cfg = PatternConfig(2, 2)
        for k in range(1, 12):
            w = (1,) * k + (2,) * k
            assert rank_in_class(w, cfg) == naive_rank_in_class(w, cfg) == 1

    def test_inexact_division_raises(self):
        assert _exact(12, 4) == 3
        with pytest.raises(ArithmeticError):
            _exact(13, 4)

    def test_roundtrip_long_word(self):
        # unrank_in_class still walks one symbol at a time, so it is an
        # independent route back from the windowed rank.
        cfg = PatternConfig(3, 8)
        w = _random_free_word(random.Random(3000), 3, 8, 3000)
        assert invert(len(w), cfg, extract(w, cfg)) == w


def _with_runs_across_windows(rng, a, t, n):
    """A pattern-free word of length ``n`` in which runs of a 2 and its ones
    cross the first window boundaries.  ``a`` must be at least 3."""
    size = extractor._WINDOW
    while True:
        w = _random_free_word(rng, a, t, n)
        for k in range(1, min(n // size, 6)):
            ones = rng.randrange(t - 1)
            at = k * size - 1 - rng.randrange(ones + 1)
            w = _splice(w, at, (2,) + (1,) * ones + (3,))
        if is_pattern_free(w, PatternConfig(a, t)):
            return w


class TestEarlyStop:
    """``_bit_count`` stops the rank walk once the rank's sub-block is certain."""

    @pytest.mark.parametrize("wide", [None, 1])
    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_every_small_word(self, monkeypatch, a, wide):
        # The expected count comes from the lexicographic position alone.
        # With every term wide the walk also stops after windows.
        if wide is not None:
            monkeypatch.setattr(extractor, "_WIDE_BITS", wide)
        for t in range(1, 6):
            cfg = PatternConfig(a, t)
            for n in range(8 if a < 4 else 6):
                by_class = {}
                for w in brute_pattern_free(a, t, n):
                    by_class.setdefault(count_vector(w, a), []).append(w)
                for words in by_class.values():
                    for rank, w in enumerate(sorted(words), start=1):
                        e = _sub_block(len(words), rank)[0]
                        assert _bit_count(w, cfg) == e == _extract(w, cfg).num_bits

    @pytest.mark.parametrize("a,t", [(3, 3), (3, 6), (4, 8)])
    def test_every_interval_holds_the_rank(self, monkeypatch, a, t):
        rng = random.Random(100 * a + t)
        cfg = PatternConfig(a, t)
        default = extractor._WIDE_BITS
        for n in (50, 900, *rng.sample(range(51, 900), 4)):
            w = _with_runs_across_windows(rng, a, t, n)
            final = naive_rank_in_class(w, cfg)
            counts = count_vector(w, a)
            for wide in (default, 1):
                monkeypatch.setattr(extractor, "_WIDE_BITS", wide)
                terms = _terms(counts, t)
                seen = [(rank, sum(terms), list(terms)) for rank in _walk(w, counts, terms, t)]
                for rank, total, _ in seen:
                    assert rank <= final <= rank + total - 1
                assert seen[-1] == (final, 1, [1])
                # The walk took windows while the terms were wide.
                assert len(seen) < n + 1 or _terms(counts, t)[0].bit_length() <= wide

    def test_stops_a_few_symbols_in(self, monkeypatch):
        # The sub-block of a typical word is certain after a few symbols; a
        # walk that could only stop at the end would draw every symbol.
        drawn = [0]
        steps = extractor._steps

        def counting(word, m, t):
            for step in steps(word, m, t):
                drawn[0] += 1
                yield step

        monkeypatch.setattr(extractor, "_steps", counting)
        for a, t in [(2, 3), (3, 6), (4, 8)]:
            rng = random.Random(5)
            cfg = PatternConfig(a, t)
            words = [_random_free_word(rng, a, t, rng.randrange(100, 300)) for _ in range(100)]
            drawn[0] = 0
            for w in words:
                _bit_count(w, cfg)
            assert drawn[0] < sum(map(len, words)) // 4

    @pytest.mark.parametrize(
        "a,t,m", [(2, 3, (0, 0)), (2, 3, (2, 5)), (3, 2, (1, 1, 3)), (3, 4, (3, 3, 1))]
    )
    def test_power_of_two_class_takes_no_step(self, monkeypatch, a, t, m):
        def no_step(*args):
            raise AssertionError("the walk took a step")

        monkeypatch.setattr(extractor, "_steps", no_step)
        cfg = PatternConfig(a, t)
        words = [w for w in brute_pattern_free(a, t, sum(m)) if count_vector(w, a) == m]
        assert len(words) == class_size(m, cfg) == 1 << (len(words).bit_length() - 1)
        for w in words:
            assert _bit_count(w, cfg) == len(words).bit_length() - 1


def test_extract_keeps_no_table_between_calls():
    # A table that grows with block length (factorials, cached counts) would
    # stay behind after a long word.  One-pass ranking keeps nothing between
    # calls, so neither call leaves net memory beyond small slack.
    cfg = PatternConfig(3, 8)
    word = _random_free_word(random.Random(8), 3, 8, 1500)
    assert extract(word[:20], cfg).class_id > 0  # first-use allocations
    tracemalloc.start()
    try:
        retained = []
        for _ in range(2):
            assert extract(word, cfg).num_bits > 1000
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[0] < 16384
    assert retained[1] - retained[0] < 1024


def test_four_symbol_alphabet_roundtrip():
    cfg = PatternConfig(4, 2)
    seen = 0
    for n in range(5):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            if is_pattern_free(w, cfg):
                trip = extract(w, cfg)
                assert invert(n, cfg, trip) == w
                seen += 1
    assert seen == 285


@given(
    st.integers(2, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=9),
)
def test_extract_invert_roundtrip_random(a, t, symbols):
    word = tuple(s for s in symbols if s <= a)
    cfg = PatternConfig(a, t)
    if not is_pattern_free(word, cfg):
        with pytest.raises(ValueError):
            extract(word, cfg)
    else:
        trip = extract(word, cfg)
        assert invert(len(word), cfg, trip) == word
