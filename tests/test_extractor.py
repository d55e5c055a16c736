import itertools
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finitary import extractor
from finitary.extractor import (
    ExtractionTriple,
    PatternConfig,
    _bit_count,
    _lazy_bits,
    _sub_block,
    _term_walk,
    _terms,
    _window_walk,
    class_from_index,
    class_index,
    extract,
    invert,
    rank_in_class,
    scan_markers,
    unrank_in_class,
)

from oracles import (
    brute_pattern_free,
    class_size,
    contains_marker,
    count_vector,
    naive_rank_in_class,
    naive_unrank_in_class,
)

F = Fraction
CFG23 = PatternConfig(2, 3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternConfig(1, 3)
        with pytest.raises(ValueError):
            PatternConfig(2, 0)
        # Every word costs O(a), so the alphabet is bounded; the bound admits
        # the 300 symbols that the calibration tests sample.
        assert extractor._MAX_ALPHABET >= 300
        PatternConfig(extractor._MAX_ALPHABET, 3)
        for a in (extractor._MAX_ALPHABET + 1, 10**9):
            with pytest.raises(ValueError, match=f"alphabet size {a} outside"):
                PatternConfig(a, 3)


class TestPatternFree:
    """Containment is full containment, and the scanner is its one test:
    ``extract`` and ``rank_in_class`` refuse exactly the words in which it
    finds the marker."""

    def test_the_pattern_itself(self):
        with pytest.raises(ValueError, match="marker pattern"):
            extract((2, 1, 1), CFG23)
        assert scan_markers((2, 1, 1), CFG23) == [0]

    def test_scrambled_word_is_free(self):
        assert extract((1, 2, 1), CFG23).class_id > 0
        assert scan_markers((1, 2, 1), CFG23) == []

    def test_short_words_always_free(self):
        for n in range(CFG23.marker_len):
            for w in itertools.product((1, 2), repeat=n):
                assert extract(w, CFG23).class_id > 0

    @pytest.mark.parametrize("a,t", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_substring_scan(self, a, t):
        cfg = PatternConfig(a, t)
        for n in range(7):
            for w in itertools.product(range(1, a + 1), repeat=n):
                assert bool(scan_markers(w, cfg)) == contains_marker(w, t)
                if contains_marker(w, t):
                    with pytest.raises(ValueError, match="marker pattern"):
                        extract(w, cfg)
                    with pytest.raises(ValueError, match="marker pattern"):
                        rank_in_class(w, cfg)
                else:
                    extract(w, cfg)
                    rank_in_class(w, cfg)

    @pytest.mark.parametrize("t", [10**9, 2**40])
    def test_marker_longer_than_segment_costs_no_memory(self, t):
        # A segment shorter than t holds no marker; the scan must not build
        # the t-symbol pattern to find that out.
        cfg = PatternConfig(3, t)
        segment = [2, 1, 1, 3, 2, 1, 1]
        tracemalloc.start()
        try:
            for seg in (segment, tuple(segment), bytes(segment)):
                assert scan_markers(seg, cfg) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
                assert sum(_terms(m, t)) == len(words)
            # Classes with no representative word must count zero.
            for m in map(
                tuple,
                itertools.product(range(n + 1), repeat=a),
            ):
                if sum(m) == n and m not in by_class:
                    assert class_size(m, cfg) == 0
                    assert sum(_terms(m, t)) == 0

    def test_fast_route_matches_automaton_route_larger(self):
        for t in (2, 3, 4):
            cfg = PatternConfig(3, t)
            for m in [(5, 4, 3), (9, 2, 1), (0, 6, 0), (7, 7, 0), (4, 0, 4)]:
                assert sum(_terms(m, t)) == class_size(m, cfg)


    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_window_seed_counts_every_class(self, a):
        # ``_window`` seeds the window walk from the recurrence alone.  Its
        # values are the class sizes with s, ..., 0 ones fewer, so they check
        # the inclusion-exclusion terms and the automaton count both.
        for t in range(2, 6):
            cfg = PatternConfig(a, t)
            s = t - 1
            for n in range(11):
                for m in itertools.product(range(n + 1), repeat=a):
                    if sum(m) != n:
                        continue
                    big_m = extractor._multinomial(m[1:])
                    window = extractor._window(m[0], s, m[1], n - m[0], big_m)
                    assert window[s] == sum(_terms(m, t)) == class_size(m, cfg)
                    for j in range(1, s + 1):
                        fewer = (m[0] - j, *m[1:])
                        assert window[s - j] == (sum(_terms(fewer, t)) if m[0] >= j else 0)


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
        assert extract((1, 1, 2), CFG23) == ExtractionTriple("1", 3)
        assert extract((2, 1, 2), CFG23) == ExtractionTriple("0", 2)
        assert extract((2, 2, 1), CFG23) == ExtractionTriple("", 2)

    def test_empty_word(self):
        assert extract((), CFG23) == ExtractionTriple("", 1)
        assert invert(0, CFG23, ExtractionTriple("", 1)) == ()

    def test_rejects_pattern(self):
        with pytest.raises(ValueError):
            extract((2, 1, 1), CFG23)

    def test_pinned_inversions(self):
        assert invert(3, CFG23, ExtractionTriple("1", 3)) == (1, 1, 2)
        assert invert(3, CFG23, ExtractionTriple("", 2)) == (2, 2, 1)

    def test_invert_rejects_unrealizable(self):
        # Class (2,1) has size 2 = 2^1: a zero-bit output never occurs.
        with pytest.raises(ValueError):
            invert(3, CFG23, ExtractionTriple("", 3))
        with pytest.raises(ValueError):
            invert(3, CFG23, ExtractionTriple("0", 99))

    def test_invert_builds_the_terms_once(self, monkeypatch):
        # The sub-block test needs the class size; the rank it gives is in
        # the class, so the unrank does not build the terms again.
        cfg = PatternConfig(3, 3)
        word = (3, 1, 2, 2, 1, 3, 1)
        trip = extract(word, cfg)
        calls = _count_terms_calls(monkeypatch)
        assert invert(len(word), cfg, trip) == word
        assert calls[0] == 1

    def test_triple_validates_lengths(self):
        # The bit count is the length of the bits, so only their characters
        # and the class index can be wrong.
        assert ExtractionTriple("0110", 1).num_bits == 4
        for bits, class_id in (("12", 1), ((1,), 1), ("1", 0)):
            with pytest.raises(ValueError):
                ExtractionTriple(bits, class_id)

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
                        map("".join, itertools.product("01", repeat=k))
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
                # Long enough that the dispatch picks the window walk.
                terms = _terms(m, t)
                assert len(terms) > t and terms[0].bit_length() > extractor._WIDE_BITS
            rank = rank_in_class(w, cfg)
            assert rank == naive_rank_in_class(w, cfg)
            assert unrank_in_class(m, cfg, rank) == w
            assert naive_unrank_in_class(m, cfg, rank) == w
            assert invert(n, cfg, extract(w, cfg)) == w

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_unrank_is_independent_of_the_rank_walk(self, monkeypatch, a):
        # unrank_in_class chooses each symbol with the window walk, which
        # also ranks the wide words.  So it must not take the dispatch or the
        # term loop, and every class is checked against sorted brute
        # enumeration instead, at every width in ``_FLUSHES``.
        def refuse(*args, **kwargs):
            raise AssertionError("the rank walk was called")

        for name in ("_wide", "_term_walk", "_term_rank"):
            monkeypatch.setattr(extractor, name, refuse)
        with pytest.raises(AssertionError, match="rank walk"):
            rank_in_class((1, 2, 1), PatternConfig(a, 3))
        cases = []
        for t in range(1, 5):
            cfg = PatternConfig(a, t)
            for n in range(7):
                by_class = {}
                for w in brute_pattern_free(a, t, n):
                    by_class.setdefault(count_vector(w, a), []).append(w)
                for m, words in by_class.items():
                    for rank, w in enumerate(sorted(words), start=1):
                        cases.append((m, cfg, rank, w))
        for flush in _FLUSHES:
            monkeypatch.setattr(extractor, "_FLUSH_BITS", flush)
            for m, cfg, rank, w in cases:
                assert unrank_in_class(m, cfg, rank) == w


def _splice(word, at, piece):
    return word[:at] + tuple(piece) + word[at + len(piece) :]


def _never_wide(counts, t):
    """A ``_wide`` that sends every word to the term loop."""
    return False


def _always_wide(counts, t):
    """A ``_wide`` that sends every word to the window walk."""
    return True


def _walks(t):
    """Stand-ins for ``_wide`` that force each walk able to rank words with
    marker length t; t = 1 has one term per class, so only the term loop."""
    return (_never_wide,) if t == 1 else (_never_wide, _always_wide)


# Widths at which the window walk divides by its common denominator: the
# default, after every symbol, and only at the end of the word.
_FLUSHES = (extractor._FLUSH_BITS, 0, 10**9)


def _rank_by_each_walk(w, cfg):
    """``rank_in_class(w, cfg)`` with the dispatch sent to the term loop and
    then to the window walk at each of ``_FLUSHES``."""
    runs = [(_never_wide, _FLUSHES[0])]
    if cfg.marker_len > 1:
        runs += [(_always_wide, flush) for flush in _FLUSHES]
    ranks = []
    for wide, flush in runs:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "_wide", wide)
            mp.setattr(extractor, "_FLUSH_BITS", flush)
            ranks.append(rank_in_class(w, cfg))
    return ranks


class TestWindowedWalk:
    """Inputs first written for the 32-symbol windows of an earlier batched
    term walk: runs of ones across window boundaries, a final 2 and a dying
    term.  Each now goes through both walks and the dispatch."""

    def test_runs_of_ones_across_window_boundaries(self):
        # A 2 whose run of ones crosses a multiple of 32 symbols, a 2 that
        # ends such a stretch and a run that starts one, all while the terms
        # are wide.
        cfg = PatternConfig(3, 6)
        base = _random_free_word(random.Random(6), 3, 6, 700)
        size = 32
        cases = [
            (size - 2, (2, 1, 1, 3)),
            (2 * size - 1, (2, 2, 1, 2)),
            (3 * size - 1, (2, 1, 1, 1, 1, 3)),
            (4 * size - 3, (3, 2, 1, 1, 1)),
        ]
        for at, piece in cases:
            w = _splice(base, at, piece)
            suffix = count_vector(w[(at // size + 1) * size :], 3)
            assert _terms(suffix, 6)[0].bit_length() > extractor._WIDE_BITS
            expected = naive_rank_in_class(w, cfg)
            assert rank_in_class(w, cfg) == expected
            assert set(_rank_by_each_walk(w, cfg)) == {expected}

    def test_run_of_ones_ends_the_word(self):
        # A last 2 whose run of ones reaches the end of the word is never
        # ended inside it.  The term loop's correction at every 2 must come
        # to zero there, and the window walk's span must count the open run.
        cfg = PatternConfig(3, 4)
        base = _random_free_word(random.Random(4), 3, 4, 600)
        for tail in [(2,), (2, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1), (2, 3, 1, 1)]:
            w = base[: -len(tail)] + tail
            expected = naive_rank_in_class(w, cfg)
            assert rank_in_class(w, cfg) == expected
            assert set(_rank_by_each_walk(w, cfg)) == {expected}

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 32])
    @pytest.mark.parametrize("a,t", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_every_window_length_on_every_small_word(self, monkeypatch, a, t, width):
        # ``width`` is the dispatch threshold in bits: the words whose terms
        # are wider than that, and more than t, take the window walk and the
        # rest the term loop.  Every word also goes through each walk alone.
        monkeypatch.setattr(extractor, "_WIDE_BITS", width)
        cfg = PatternConfig(a, t)
        for n in range(7 if a < 4 else 6):
            by_class = {}
            for w in brute_pattern_free(a, t, n):
                by_class.setdefault(count_vector(w, a), []).append(w)
            for words in by_class.values():
                for expected_rank, w in enumerate(sorted(words), start=1):
                    assert rank_in_class(w, cfg) == expected_rank
                    assert set(_rank_by_each_walk(w, cfg)) == {expected_rank}

    @pytest.mark.parametrize("width", [3, 7, 32])
    def test_long_words_in_short_windows(self, monkeypatch, width):
        monkeypatch.setattr(extractor, "_WIDE_BITS", width)
        rng = random.Random(width)
        for a, t in [(2, 2), (3, 3), (3, 6), (4, 8)]:
            cfg = PatternConfig(a, t)
            for n in (40, 150):
                w = _random_free_word(rng, a, t, n)
                expected = naive_rank_in_class(w, cfg)
                assert rank_in_class(w, cfg) == expected
                assert set(_rank_by_each_walk(w, cfg)) == {expected}

    def test_dead_term_whose_divisor_reaches_zero(self, monkeypatch):
        # In 1^k 2^k (t=2) the term r=k dies at the first 1, and its divisor
        # n - r reaches zero k symbols later: the term loop must drop it
        # first.  The window walk starts this word with its ones all ahead.
        monkeypatch.setattr(extractor, "_WIDE_BITS", 1)
        cfg = PatternConfig(2, 2)
        for k in range(1, 12):
            w = (1,) * k + (2,) * k
            assert rank_in_class(w, cfg) == naive_rank_in_class(w, cfg) == 1
            assert set(_rank_by_each_walk(w, cfg)) == {1}

    def test_roundtrip_long_word(self, monkeypatch):
        # The term loop ranks this wide word, forced by ``_never_wide``, and
        # the window walk unranks it: two walks that share no code.
        cfg = PatternConfig(3, 8)
        w = _random_free_word(random.Random(3000), 3, 8, 3000)
        assert extractor._wide(count_vector(w, 3), 8)
        monkeypatch.setattr(extractor, "_wide", _never_wide)
        assert invert(len(w), cfg, extract(w, cfg)) == w


def _with_runs_across_windows(rng, a, t, n):
    """A pattern-free word of length ``n`` in which runs of a 2 and its ones
    cross the first multiples of 32 symbols.  ``a`` must be at least 3."""
    size = 32
    while True:
        w = _random_free_word(rng, a, t, n)
        for k in range(1, min(n // size, 6)):
            ones = rng.randrange(t - 1)
            at = k * size - 1 - rng.randrange(ones + 1)
            w = _splice(w, at, (2,) + (1,) * ones + (3,))
        if not contains_marker(w, t):
            return w


class TestEarlyStop:
    """``_bit_count`` stops the term loop once the rank's sub-block is
    certain, and falls back on the window walk after t steps on a word that
    the dispatch sends to it."""

    @pytest.mark.parametrize("wide", [None, 1])
    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_every_small_word(self, monkeypatch, a, wide):
        # The expected count comes from the lexicographic position alone.
        # With wide=1 the dispatch sends every word with more than t terms to
        # the window walk, so ``_bit_count`` falls back on the window walk's
        # checkpoints for the words it has not settled in t steps.  ``extract``'s
        # count comes from each walk in turn.
        if wide is not None:
            monkeypatch.setattr(extractor, "_WIDE_BITS", wide)
        fallbacks = [0]

        def counting(*args):
            fallbacks[0] += 1
            return _window_walk(*args)

        for t in range(1, 6):
            cfg = PatternConfig(a, t)
            cases = []
            for n in range(8 if a < 4 else 6):
                by_class = {}
                for w in brute_pattern_free(a, t, n):
                    by_class.setdefault(count_vector(w, a), []).append(w)
                for words in by_class.values():
                    for rank, w in enumerate(sorted(words), start=1):
                        cases.append((w, _sub_block(len(words), rank)[0]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(extractor, "_window_walk", counting)
                for w, e in cases:
                    assert _bit_count(w, cfg) == e
            for force in _walks(t):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(extractor, "_wide", force)
                    for w, e in cases:
                        assert extract(w, cfg).num_bits == e
        # Only words with more than t terms can fall back, and at a = 2 and
        # a = 4 each of those settles within t steps.
        assert (fallbacks[0] > 0) == (wide == 1 and a == 3)

    @pytest.mark.parametrize("a,t", [(3, 3), (3, 6), (4, 8)])
    def test_every_interval_holds_the_rank(self, a, t):
        # The term loop's interval after every symbol, on words long enough
        # for the dispatch to send them to the window walk.
        rng = random.Random(100 * a + t)
        cfg = PatternConfig(a, t)
        for n in (50, 900, *rng.sample(range(51, 900), 4)):
            w = _with_runs_across_windows(rng, a, t, n)
            final = naive_rank_in_class(w, cfg)
            counts = count_vector(w, a)
            terms = _terms(counts, t)
            # The walk keeps ``terms`` current, so each span is read at its yield.
            seen = [(rank, sum(terms)) for rank in _term_walk(w, counts, terms, t)]
            assert len(seen) == n + 1
            for rank, span in seen:
                assert rank <= final <= rank + span - 1
            assert seen[-1] == (final, 1)
            if n == 900:
                assert extractor._wide(counts, t)

    @pytest.mark.parametrize("a,t", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
    def test_span_ends_at_the_last_word_with_the_prefix(self, a, t):
        # The term loop gives the tightest interval: its top is the rank of
        # the class's last word with the prefix walked so far.
        for n in range(7 if a < 4 else 6):
            by_class = {}
            for w in brute_pattern_free(a, t, n):
                by_class.setdefault(count_vector(w, a), []).append(w)
            for m, words in by_class.items():
                last = {}
                for rank, w in enumerate(sorted(words), start=1):
                    for i in range(n + 1):
                        last[w[:i]] = rank
                for w in words:
                    terms = _terms(m, t)
                    for i, rank in enumerate(_term_walk(w, m, terms, t)):
                        assert rank + sum(terms) - 1 == last[w[:i]]

    def test_stops_a_few_symbols_in(self, monkeypatch):
        # The sub-block of a typical word is certain after a few symbols; a
        # walk that could only stop at the end would draw every symbol, and
        # a fallback on the window walk counts as drawing every symbol too.
        drawn = [0]

        def counting(*args):
            for step in _term_walk(*args):
                drawn[0] += 1
                yield step

        def full(word, *args):
            drawn[0] += len(word)
            return _window_walk(word, *args)

        monkeypatch.setattr(extractor, "_term_walk", counting)
        monkeypatch.setattr(extractor, "_window_walk", full)
        for a, t in [(2, 3), (3, 6), (4, 8)]:
            rng = random.Random(5)
            cfg = PatternConfig(a, t)
            words = [_random_free_word(rng, a, t, rng.randrange(100, 300)) for _ in range(100)]
            drawn[0] = 0
            for w in words:
                _bit_count(w, cfg)
            assert drawn[0] < sum(map(len, words)) // 4

    @pytest.mark.parametrize(
        "word,fallback", [((2, 1) * 3000 + (3,), True), ((2, 1, 3) * 2000, False)]
    )
    def test_at_most_t_steps_on_a_wide_word(self, monkeypatch, word, fallback):
        # Each term-loop step on these words updates about a thousand wide
        # terms.  Unbounded, the loop took many times the window walk's time
        # on the first word.
        cfg = PatternConfig(3, 3)
        counts = count_vector(word, 3)
        assert extractor._wide(counts, 3)
        expected = extract(word, cfg).num_bits
        steps, full = [-1], [0]

        def counting(*args):
            for step in _term_walk(*args):
                steps[0] += 1
                yield step

        def counting_full(*args):
            full[0] += 1
            return _window_walk(*args)

        monkeypatch.setattr(extractor, "_term_walk", counting)
        monkeypatch.setattr(extractor, "_window_walk", counting_full)
        assert _bit_count(word, cfg) == expected
        assert steps[0] <= 3
        assert full[0] == fallback

    @pytest.mark.parametrize(
        "a,t,m", [(2, 3, (0, 0)), (2, 3, (2, 5)), (3, 2, (1, 1, 3)), (3, 4, (3, 3, 1))]
    )
    def test_power_of_two_class_takes_no_step(self, monkeypatch, a, t, m):
        def refuse(*args):
            raise AssertionError("the full rank was taken")

        def first_only(*args):
            steps = _term_walk(*args)
            yield next(steps)
            raise AssertionError("the term loop took a step")

        monkeypatch.setattr(extractor, "_window_walk", refuse)
        monkeypatch.setattr(extractor, "_term_walk", first_only)
        cfg = PatternConfig(a, t)
        words = [w for w in brute_pattern_free(a, t, sum(m)) if count_vector(w, a) == m]
        assert len(words) == class_size(m, cfg) == 1 << (len(words).bit_length() - 1)
        for wide in (extractor._WIDE_BITS, 1):
            monkeypatch.setattr(extractor, "_WIDE_BITS", wide)
            for w in words:
                assert _bit_count(w, cfg) == len(words).bit_length() - 1


def _companion_events(word, t):
    """What the window walk's companion goes through on ``word``, replayed
    from the counts alone.

    The singular index is N = c(t-1) - k - 1 for c twos and k symbols other
    than 1 in the suffix, and the main window's backward step lands on
    m_1 - t, for m_1 ones.  The companion is kept while max(N, 0) < m_1 - t
    + 1.  It starts as ``seed`` (kept at the start with N >= 0), ``g0``
    (kept at the start with N < 0) or ``at_two`` (a 2 brings it back);
    ``rebuilt`` is N reaching 0 while it is kept, and ``singular after X``
    a backward step onto N >= 0 served by a companion that started as X.
    """
    s = t - 1
    ones, c = word.count(1), word.count(2)
    k = len(word) - ones
    star = c * s - k - 1
    origin = ("seed" if star >= 0 else "g0") if max(star, 0) < ones - s else None
    events = {origin} if origin else set()
    for sym in word:
        if sym != 2 and ones - s - 1 == star >= 0:
            events.add("singular after " + origin)
        if sym == 1:
            ones -= 1
        elif sym == 2:
            star -= s - 1
            k -= 1
            if origin is None and max(star, 0) < ones - s:
                origin = "at_two"
                events.add(origin)
        else:
            star += 1
            k -= 1
            if origin and star == 0 < ones - s:
                events.add("rebuilt")
        if max(star, 0) >= ones - s:
            origin = None
    return events


def _count_terms_calls(monkeypatch):
    """Wrap ``extractor._terms`` in a counter; returns its one-item list."""
    calls = [0]
    terms = extractor._terms

    def counting(*args):
        calls[0] += 1
        return terms(*args)

    monkeypatch.setattr(extractor, "_terms", counting)
    return calls


def _families(t, L):
    """The pattern-free ones of (2 1)^L 3, (2 1 3)^L, (2 1^(t-2) 3)^L and
    (2 1^(t-2))^L 3^L over {1, 2, 3}."""
    run = (2,) + (1,) * (t - 2)
    words = [(2, 1) * L + (3,), (2, 1, 3) * L, (run + (3,)) * L, run * L + (3,) * L]
    return [w for w in words if not contains_marker(w, t)]


class TestWindowWalk:
    """The window walk, forced on every word, against the naive ranker and
    the term loop, on and across its singular index."""

    @pytest.mark.parametrize("a,count", [(2, 613), (3, 10723), (4, 5093)])
    def test_every_small_word_against_naive(self, monkeypatch, a, count):
        # t = 2..5, n <= 7 (n <= 5 at a = 4): 16,429 words in all, each
        # ranked and its class counted at every width in ``_FLUSHES``, with
        # the terms and the term loop refused, so the window walk is checked
        # on its own.
        cases = []
        for t in range(2, 6):
            cfg = PatternConfig(a, t)
            for n in range(8 if a < 4 else 6):
                by_class = {}
                for w in brute_pattern_free(a, t, n):
                    by_class.setdefault(count_vector(w, a), []).append(w)
                for words in by_class.values():
                    for rank, w in enumerate(sorted(words), start=1):
                        assert naive_rank_in_class(w, cfg) == rank
                        cases.append((w, cfg, rank, len(words)))
        assert len(cases) == count

        def refuse(*args):
            raise AssertionError("the window walk used the terms")

        monkeypatch.setattr(extractor, "_wide", _always_wide)
        monkeypatch.setattr(extractor, "_terms", refuse)
        monkeypatch.setattr(extractor, "_term_walk", refuse)
        for flush in _FLUSHES:
            monkeypatch.setattr(extractor, "_FLUSH_BITS", flush)
            for w, cfg, rank, size in cases:
                assert rank_in_class(w, cfg) == rank
                counts = count_vector(w, cfg.alphabet_size)
                checkpoints = list(_window_walk(w, counts, cfg.marker_len))
                assert checkpoints[0] == (1, size) and checkpoints[-1] == (rank, 1)
                assert all(lo <= rank < lo + span for lo, span in checkpoints)

    def test_random_words_against_the_term_loop(self):
        rng = random.Random(11)
        for _ in range(300):
            a, t = rng.choice((2, 3, 4)), rng.choice((2, 3, 4, 6, 8))
            w = _random_free_word(rng, a, t, rng.randrange(601))
            assert len(set(_rank_by_each_walk(w, PatternConfig(a, t)))) == 1
            counts = count_vector(w, a)
            assert next(_window_walk(w, counts, t)) == (1, sum(_terms(counts, t)))

    @pytest.mark.parametrize("t", [2, 3, 4, 6])
    def test_families_on_the_singular_index(self, t):
        cfg = PatternConfig(3, t)
        events = set()
        for L in (1, 2, 3, 6, 40, 200):
            for w in _families(t, L):
                ranks = set(_rank_by_each_walk(w, cfg))
                assert len(ranks) == 1
                if L <= 6:
                    assert ranks == {naive_rank_in_class(w, cfg)}
                events |= _companion_events(w, t)
        # At t = 2 the singular index c - k - 1 is always negative.
        assert any(e.startswith("singular") for e in events) == (t > 2)

    @pytest.mark.parametrize(
        "t,word,events",
        [
            (4, (2, 1, 1, 3) * 30, {"seed", "at_two", "singular after seed"}),
            (
                6,
                (2, 1, 1, 1, 1, 3) * 30,
                {"seed", "at_two", "singular after seed", "singular after at_two"},
            ),
            (3, (3,) * 30 + (2, 1) * 30, {"g0", "rebuilt", "singular after g0"}),
            (4, (3,) * 40 + (1,) * 60 + (2,) * 20, {"g0", "rebuilt", "singular after g0"}),
            (3, (3, 2, 1) * 30, {"g0", "rebuilt"}),
            (3, (2, 1) * 30 + (3,), {"at_two", "singular after at_two"}),
        ],
    )
    def test_companion_seeded_at_start_and_mid_walk(self, monkeypatch, t, word, events):
        assert _companion_events(word, t) == events
        cfg = PatternConfig(3, t)
        assert len(set(_rank_by_each_walk(word, cfg))) == 1
        for cut in range(8, 12):
            short = word[:cut] + word[-cut:]
            if not contains_marker(short, t):
                assert set(_rank_by_each_walk(short, cfg)) == {naive_rank_in_class(short, cfg)}
        # One ``_window`` call seeds the main window and one more a companion
        # kept at the start; each rebuild adds one.
        calls = _count_terms_calls(monkeypatch)
        windows = [0]
        window = extractor._window

        def counting(*args):
            windows[0] += 1
            return window(*args)

        monkeypatch.setattr(extractor, "_window", counting)
        monkeypatch.setattr(extractor, "_wide", _always_wide)
        rank_in_class(word, cfg)
        assert calls[0] == 0
        seeds = 1 + ("seed" in events)
        assert windows[0] > seeds if "rebuilt" in events else windows[0] == seeds

    @pytest.mark.parametrize("word", [(2, 1) * 2000 + (3,), (2, 1, 3) * 2000])
    def test_window_walk_never_calls_terms(self, monkeypatch, word):
        # No R-term recount hides in the seeds or in the singular step.
        cfg = PatternConfig(3, 3)
        counts = count_vector(word, 3)
        assert extractor._wide(counts, 3)
        calls = _count_terms_calls(monkeypatch)
        assert rank_in_class(word, cfg) >= 1
        assert calls[0] == 0

    def test_dispatch(self, monkeypatch):
        # t = 1, narrow terms and wide terms no more than t stay on the
        # term loop.
        walked = []

        def recording(walk):
            def run(*args):
                walked.append(walk.__name__)
                return walk(*args)

            return run

        for walk in (_term_walk, _window_walk):
            monkeypatch.setattr(extractor, walk.__name__, recording(walk))
        for a, t, w, name in [
            (3, 1, (1, 3) * 400, "_term_walk"),
            (3, 3, (2, 1, 3) * 10, "_term_walk"),
            (3, 3, (1, 1) + (3, 2) * 300, "_term_walk"),
            (3, 3, (2, 1, 3) * 300, "_window_walk"),
        ]:
            counts = count_vector(w, a)
            terms = _terms(counts, t)
            wide = len(terms) > t and terms[0].bit_length() > extractor._WIDE_BITS
            assert wide == (name == "_window_walk") == extractor._wide(counts, t)
            walked.clear()
            rank_in_class(w, PatternConfig(a, t))
            assert walked == [name]
            assert terms[0].bit_length() > extractor._WIDE_BITS or w == (2, 1, 3) * 10

    @pytest.mark.parametrize("width", [1, 7, 64, extractor._WIDE_BITS])
    def test_wide_keeps_the_term_rule(self, monkeypatch, width):
        # ``_wide`` decides from the counts alone what the rule on the term
        # vector decides: more than t terms, the first wider than
        # ``_WIDE_BITS``.
        monkeypatch.setattr(extractor, "_WIDE_BITS", width)
        rng = random.Random(width)
        seen = set()
        for _ in range(400):
            a, t = rng.choice((2, 3, 4)), rng.choice((1, 2, 3, 4, 6, 8))
            w = _random_free_word(rng, a, t, rng.randrange(1200))
            counts = count_vector(w, a)
            terms = _terms(counts, t)
            rule = len(terms) > t and terms[0].bit_length() > extractor._WIDE_BITS
            assert extractor._wide(counts, t) == rule
            seen.add(rule)
        assert seen == {False, True}

    def test_marker_in_a_wide_word_at_t1(self):
        # At t = 1 the pattern is a lone 2, so a long word with a 2 has
        # several wide terms, though a pattern-free class has one.  The
        # dispatch still sends it to the term loop, and ``extract`` refuses
        # the 2 before it ranks.
        cfg = PatternConfig(3, 1)
        for w in [(1, 3) * 400 + (2,), (2,) + (1, 3) * 400, (1, 3) * 400 + (2, 2)]:
            assert not extractor._wide(count_vector(w, 3), 1)
            with pytest.raises(ValueError, match="marker pattern"):
                extract(w, cfg)


def _counting_walk(monkeypatch):
    """Wrap ``extractor._window_walk`` so that it counts the checkpoints
    drawn from it; returns the count's one-item list."""
    drawn, walk = [0], extractor._window_walk

    def counting(*args):
        for checkpoint in walk(*args):
            drawn[0] += 1
            yield checkpoint

    monkeypatch.setattr(extractor, "_window_walk", counting)
    return drawn


@st.composite
def _lazy_cases(draw):
    """A hostile family at t = 3, ``(2 1 3)^L`` or ``(1 1)(3 2)^L``, or a
    random t = 6 word, with a width at which the window walk divides."""
    kind = draw(st.sampled_from(["213", "11(32)", "t6"]))
    if kind == "t6":
        seed, n = draw(st.integers(0, 10**6)), draw(st.integers(0, 900))
        word, t = _random_free_word(random.Random(seed), 3, 6, n), 6
    else:
        L = draw(st.integers(1, 150))
        word, t = ((2, 1, 3) * L if kind == "213" else (1, 1) + (3, 2) * L), 3
    return word, t, draw(st.sampled_from((*_FLUSHES, 64)))


class TestLazyBits:
    """A wide word's bits, made as they are read, against the term loop's."""

    @settings(max_examples=40, deadline=None)
    @given(_lazy_cases())
    def test_each_bit_draws_only_the_checkpoints_it_needs(self, case):
        # ``len`` is e before any bit is read, and the first r bits are the
        # term loop's for every r.  Reading them draws the window walk up to
        # the first checkpoint that settles both the sub-block and the r-th
        # bit, and a read past the last bit draws the rest.
        word, t, flush = case
        cfg = PatternConfig(3, t)
        counts = count_vector(word, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "_wide", _never_wide)
            expected = extract(word, cfg).bits
        assert extract(word, cfg).bits == expected
        assert isinstance(_lazy_bits(word, cfg), str) != extractor._wide(counts, t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "_FLUSH_BITS", flush)
            mp.setattr(extractor, "_wide", _always_wide)
            checkpoints = list(_window_walk(word, counts, t))
            size, rank = checkpoints[0][1], checkpoints[-1][0]
            e, offset = _sub_block(size, rank)
            top = rank + offset
            settle = next(
                i
                for i, (lo, span) in enumerate(checkpoints)
                if top - (1 << e) < lo and lo + span - 1 <= top
            )
            # The top bits on which the ends of each settled range agree.
            ends = [(top - lo - span + 1, top - lo) for lo, span in checkpoints[settle:]]
            known = [
                len(os.path.commonprefix([format(low, f"0{e}b"), format(high, f"0{e}b")]))
                if e
                else 0
                for low, high in ends
            ]
            drawn = _counting_walk(mp)
            bits = _lazy_bits(word, cfg)
            assert len(bits) == e == len(expected) and drawn[0] == settle + 1
            reader, need = iter(bits), 0
            for r in range(1, e + 1):
                assert next(reader) == expected[r - 1]
                while known[need] < r:
                    need += 1
                assert drawn[0] == settle + need + 1
            assert next(reader, None) is None
            assert drawn[0] == len(checkpoints)

    def test_pattern_in_a_wide_word_is_found_when_every_bit_is_read(self):
        # The length settles long before the pattern at the word's end, so
        # the walk never sees it; ``extract`` refuses the word before it
        # ranks.
        cfg = PatternConfig(3, 3)
        word = (2, 1, 3) * 300 + (2, 1, 1)
        assert extractor._wide(count_vector(word, 3), 3)
        assert len(_lazy_bits(word, cfg)) > 0
        with pytest.raises(ValueError, match="marker pattern"):
            extract(word, cfg)


def test_window_walk_memory_is_bounded():
    # The hostile block (2 1 3)^4000 has 2,001 inclusion-exclusion terms of
    # up to 19,000 bits; a walk seeded from them peaks near 14 MB.  The
    # window walk keeps t values of that width and never builds the terms.
    word = (2, 1, 3) * 4000
    cfg = PatternConfig(3, 3)
    assert extractor._wide(count_vector(word, 3), 3)
    tracemalloc.start()
    try:
        "".join(_lazy_bits(word, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_selector_blocks_roundtrip():
    # The blocks of the first 8,000 symbols of PCG64(7), uniform over
    # {1, 2, 3}, at the selector's t = 6: the ``selector_t6`` stream's 7
    # blocks, up to 2,732 symbols long.  Each comes back from its triple.
    cfg = PatternConfig(3, 6)
    stream = np.random.Generator(np.random.PCG64(7)).integers(1, 4, size=8000).tolist()
    markers = scan_markers(stream, cfg)
    blocks = [tuple(stream[left + 6 : right]) for left, right in zip(markers, markers[1:])]
    assert len(blocks) == 7 and max(map(len, blocks)) == 2732
    for w in blocks:
        assert invert(len(w), cfg, extract(w, cfg)) == w


def test_four_symbol_alphabet_roundtrip():
    cfg = PatternConfig(4, 2)
    seen = 0
    for n in range(5):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            if not contains_marker(w, 2):
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
    if contains_marker(word, t):
        with pytest.raises(ValueError):
            extract(word, cfg)
    else:
        trip = extract(word, cfg)
        assert invert(len(word), cfg, trip) == word
