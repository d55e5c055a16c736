import hashlib
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from finitary.core import ProbabilityVector, check_word
from finitary.dyadic import DyadicCursor
from finitary.engine import (
    DEFAULT_MAX_WINDOW,
    InvariantViolation,
    UndeterminedIndex,
    WindowExhausted,
    _Sweep,
    certified_radius,
    encode_stream,
    map_range,
    scan_markers,
)
from finitary.extractor import PatternConfig, extract

from oracles import FractionCursor, naive_blocks, naive_map, naive_schedule

FAIR = ProbabilityVector.parse("1/2,1/2")
Q13 = ProbabilityVector.parse("1/3,2/3")


def random_stream(seed, size, alphabet):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(v) for v in rng.integers(1, alphabet + 1, size=size)]


class TestScanMarkers:
    def test_trailing_pattern_unconfirmable(self):
        assert scan_markers((2, 1, 1, 2, 1, 2), PatternConfig(2, 2)) == [0, 3]

    def test_t3(self):
        assert scan_markers((2, 1, 1, 2, 1, 1, 1), PatternConfig(2, 3)) == [0, 3]

    def test_no_marker_symbol(self):
        assert scan_markers((1, 1, 1), PatternConfig(2, 2)) == []

    def test_spacing_at_least_t(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for t in (1, 2, 3):
            stream = [int(v) for v in rng.integers(1, 3, size=400)]
            marks = scan_markers(stream, PatternConfig(2, t))
            assert all(b - a >= t for a, b in zip(marks, marks[1:]))

    def test_matches_definitional_scan(self):
        # Every start where 2 and then t-1 ones fit, checked symbol by symbol.
        def definitional(x, t):
            pattern = [2] + [1] * (t - 1)
            return [p for p in range(len(x) - t + 1) if list(x[p : p + t]) == pattern]

        rng = np.random.Generator(np.random.PCG64(3))
        # Mostly ones and twos, so that long markers occur, with symbols
        # below 1 and above 255 mixed in, or only symbols that fit in a byte.
        mixed = [1, 1, 1, 2, 3, 255, 256, 258, 299, 0, -1]
        in_byte = [1, 1, 1, 2, 3, 255, 0]
        for t in range(1, 9):
            cfg = PatternConfig(300, t)
            for size in (0, 1, t - 1, t, t + 1, 50, 400):
                for symbols in (mixed, in_byte):
                    stream = [int(v) for v in rng.choice(symbols, size=size)]
                    for start in range(0, size - 2 * t, 97):
                        stream[start : start + 2 * t] = [2] + [1] * (2 * t - 1)
                    expected = definitional(stream, t)
                    assert scan_markers(stream, cfg) == expected
                    assert scan_markers(tuple(stream), cfg) == expected
                    assert scan_markers(np.array(stream, dtype=np.int64), cfg) == expected
                    if all(0 <= s <= 255 for s in stream):
                        assert scan_markers(bytes(stream), cfg) == expected
                        assert scan_markers(bytearray(stream), cfg) == expected
            assert scan_markers([2] + [1] * (t - 1), cfg) == [0]
            assert scan_markers(bytes([2] + [1] * (t - 1)), cfg) == [0]


class TestSweep:
    def test_single_block_self_sufficient(self):
        sweep = _Sweep(FAIR)
        [(block, cursor)] = sweep.feed(0, 0, 2, "0010")
        assert (block, cursor.emitted, cursor.bits_consumed) == ((0, 0, 2), [1, 1], 4)
        assert (sweep.pos, sweep.last, sweep.stack) == (4, 3, [])

    def test_queue_up_priority_to_rightmost(self):
        # Blocks 0 and 1 have no bits, so all three simulators start at
        # block 2's first bit, and the rightmost reads both of its bits.
        sweep = _Sweep(FAIR)
        for k, e in enumerate([0, 0, 2]):
            assert list(sweep.feed(k, 2 * k, 2 * k + 2, "0" * e)) == []
        assert [(block, prev) for block, _, prev in sweep.stack] == [
            ((0, 0, 2), -1), ((1, 2, 4), -1), ((2, 4, 6), 1)
        ]
        assert [c.bits_consumed for _, c, _ in sweep.stack] == [0, 0, 2]

    @staticmethod
    def empty_blocks_then_word(empty, size, seed):
        """``empty`` empty blocks between back-to-back markers of t = 3, then
        a pattern-free word over {1..8} of ``size`` symbols, a marker and a
        few symbols more."""
        rng = random.Random(seed)
        word = [rng.randint(1, 8) for _ in range(size)]
        for i in range(2, size):
            if word[i - 2 : i + 1] == [2, 1, 1]:
                word[i] = 3
        return [2, 1, 1] * (empty + 1) + word + [2, 1, 1] + word[:50], word

    def test_many_simulators_finish_inside_one_block(self):
        # 2,000 empty blocks wait for the long block after them, so all the
        # simulators start at its first bit.  The rightmost reads first, so
        # they read its bits one after another, from the long block's own
        # simulator down, each from the bit after the last one's success.
        stream, word = self.empty_blocks_then_word(2_000, 4_000, 8)
        cfg = PatternConfig(8, 3)
        bits, pos, expected = extract(word, cfg).bits, 0, {}
        for k in range(2_000, -1, -1):
            ref = FractionCursor(FAIR, 3 + len(word) if k == 2_000 else 3)
            while not ref.successful and pos < len(bits):
                ref.feed(int(bits[pos]))
                pos += 1
            if not ref.successful:
                break
            expected.update(enumerate(ref.emitted, 3 * k + 1))
        assert len(expected) > 4_000 + 3 * 1_000
        assert map_range(stream, cfg, FAIR, 0, len(stream) - 1).outputs == expected

    def test_simulators_finishing_inside_one_block_match_naive(self):
        # The same shape at a size the literal transcription can run.
        stream, _ = self.empty_blocks_then_word(60, 250, 9)
        outputs = map_range(stream, PatternConfig(8, 3), FAIR, 0, len(stream) - 1).outputs
        assert len(outputs) > 250 + 3 * 30
        assert outputs == naive_map(stream, 8, 3, FAIR)


SCHEDULE_STREAMS = [
    (11, 10_000, 2, 4, FAIR),
    (12, 5_000, 3, 3, FAIR),
    (13, 4_000, 3, 3, Q13),
    (14, 2_000, 2, 2, Q13),
]


def target_set(kind, nblocks):
    """Every block, the middle block, the middle third, or a seeded quarter."""
    if kind == "all":
        return range(nblocks)
    if kind == "middle":
        return [nblocks // 2]
    if kind == "subrange":
        return range(nblocks // 3, 2 * nblocks // 3)
    rng = np.random.Generator(np.random.PCG64(nblocks))
    return sorted(int(k) for k in rng.choice(nblocks, nblocks // 4, replace=False))


class TestBitAccounting:
    @pytest.mark.parametrize(
        "seed,size,a,t,q",
        SCHEDULE_STREAMS,
        ids=["-".join(map(str, s[:4])) + f"-q{n}" for n, s in enumerate(SCHEDULE_STREAMS)],
    )
    def test_read_plus_unread_is_extracted(self, monkeypatch, seed, size, a, t, q):
        # Each block's e bits are either read by the simulators over it or
        # left unread once none is running; the cursors' counts of bits read
        # match the naive transcription's, block by block.
        blocks = naive_blocks(random_stream(seed, size, a), a, t)
        _, consumed, _, _, _ = naive_schedule(blocks, q, range(len(blocks)))
        expected = Counter(j for reads in consumed.values() for j, _ in reads)
        read, count = DyadicCursor.read, 0

        def counted(cursor, bits):
            nonlocal count
            used = read(cursor, bits)
            count += used
            return used

        monkeypatch.setattr(DyadicCursor, "read", counted)
        sweep = _Sweep(q)
        for b in blocks:
            count, e = 0, b.bit_count
            list(sweep.feed(b.index, b.left_marker, b.right_marker, "".join(map(str, b.bits))))
            if e:
                # Every block with bits is read from its first position on.
                unread = sweep.pos - 1 - sweep.last
                assert count + unread == e
            assert count == expected[b.index]


class TestAgainstNaiveTranscription:
    @pytest.mark.parametrize(
        "seed,size,a,t,q,kind",
        [
            pytest.param(
                *stream,
                kind,
                id="-".join(map(str, stream[:4])) + f"-q{n}"
                + ("" if kind == "all" else f"-{kind}"),
            )
            for kind in ("all", "middle", "subrange", "random")
            for n, stream in enumerate(SCHEDULE_STREAMS)
        ],
    )
    def test_schedule_matches(self, seed, size, a, t, q, kind):
        # Every target's record, from one range over the targets or, for
        # the scattered ones, one range per block, has the naive simulator's
        # word and ends at the marker closing the last block it read.
        stream = random_stream(seed, size, a)
        cfg = PatternConfig(a, t)
        blocks = naive_blocks(stream, a, t)
        targets = target_set(kind, len(blocks))
        done, _, reach, _, _ = naive_schedule(blocks, q, targets)
        if kind == "random":
            ranges = [(blocks[k].left_marker + 1, blocks[k].right_marker) for k in targets]
        else:
            ranges = [(blocks[targets[0]].left_marker + 1, blocks[targets[-1]].right_marker)]
        records = {}
        for first, last in ranges:
            records.update((b.block, b) for b in map_range(stream, cfg, q, first, last).blocks)
        assert records.keys() == done.keys() & set(targets)
        for k in targets:
            if k in done:
                right = blocks[reach[k]].right_marker + t
                assert (records[k].symbols, records[k].right_extent) == (done[k], right)

    def test_full_map_matches_naive(self):
        stream = random_stream(11, 10_000, 2)
        result = map_range(stream, PatternConfig(2, 4), FAIR, 0, len(stream) - 1)
        assert result.outputs == naive_map(stream, 2, 4, FAIR)

    def test_full_map_matches_naive_ternary(self):
        stream = random_stream(21, 4_000, 3)
        result = map_range(stream, PatternConfig(3, 3), FAIR, 0, len(stream) - 1)
        assert result.outputs == naive_map(stream, 3, 3, FAIR)


class TestDegenerateAndWideConfigs:
    def test_single_symbol_marker(self):
        # t=1: every occurrence of symbol 2 is a marker; block words contain
        # no 2 at all.
        stream = random_stream(78, 1200, 4)
        q = ProbabilityVector((Fraction(1),))
        res = map_range(stream, PatternConfig(4, 1), q, 0, len(stream) - 1)
        assert res.outputs == naive_map(stream, 4, 1, q)
        assert len(res.outputs) > 500
        assert set(res.outputs.values()) == {1}

    def test_single_symbol_target(self):
        # b=1: the output is constant but the simulators still consume bits.
        stream = random_stream(31, 900, 3)
        q = ProbabilityVector((Fraction(1),))
        res = map_range(stream, PatternConfig(3, 2), q, 0, len(stream) - 1)
        assert len(res.outputs) > 500
        assert set(res.outputs.values()) == {1}

    def test_ternary_target(self):
        stream = random_stream(77, 4000, 3)
        q = ProbabilityVector.parse("3/4,1/8,1/8")
        res = map_range(stream, PatternConfig(3, 4), q, 0, len(stream) - 1)
        assert res.outputs == naive_map(stream, 3, 4, q)
        assert set(res.outputs.values()) == {1, 2, 3}

    def test_four_symbol_source(self):
        stream = random_stream(78, 1200, 4)
        res = map_range(stream, PatternConfig(4, 2), FAIR, 0, len(stream) - 1)
        assert res.outputs == naive_map(stream, 4, 2, FAIR)
        assert len(res.outputs) > 500


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 3),
    st.integers(1, 3),
    st.sampled_from(["1/2,1/2", "1/3,2/3", "1/4,1/4,1/2"]),
    st.integers(60, 140),
)
def test_map_matches_naive_transcription_property(seed, a, t, q_text, size):
    q = ProbabilityVector.parse(q_text)
    stream = random_stream(seed, size, a)
    res = map_range(stream, PatternConfig(a, t), q, 0, size - 1)
    assert res.outputs == naive_map(stream, a, t, q)


class TestMapRange:
    def test_no_markers_all_undetermined(self):
        res = map_range([1, 1, 1, 1], PatternConfig(2, 2), FAIR, 0, 3)
        assert res.outputs == {} and res.undetermined == [0, 1, 2, 3]

    def test_leading_and_trailing_undetermined(self):
        stream = random_stream(7, 4000, 3)
        cfg = PatternConfig(3, 2)
        res = map_range(stream, cfg, FAIR, 0, len(stream) - 1)
        marks = scan_markers(stream, cfg)
        determined = sorted(res.outputs)
        assert set(res.undetermined).isdisjoint(res.outputs)
        assert set(res.undetermined) | set(determined) == set(range(len(stream)))
        # Everything at or before the first marker is undetermined.
        assert all(i > marks[0] for i in determined)
        assert all(i in res.undetermined for i in range(marks[0] + 1))

    def test_outputs_in_target_alphabet(self):
        stream = random_stream(8, 3000, 3)
        res = map_range(stream, PatternConfig(3, 2), Q13, 0, len(stream) - 1)
        assert res.outputs and set(res.outputs.values()) <= {1, 2}

    def test_single_block_window(self):
        # Two markers only; inside the block is determined when bits suffice,
        # outside is not.
        stream = [2, 1, 1, 2, 2, 1, 3, 3, 1, 2, 3, 1, 2, 1, 1, 1]
        cfg = PatternConfig(3, 3)
        marks = scan_markers(stream, cfg)
        assert len(marks) == 2
        res = map_range(stream, cfg, FAIR, 0, len(stream) - 1)
        inside = set(range(marks[0] + 1, marks[1] + 1))
        if res.outputs:
            assert set(res.outputs) <= inside
        assert set(res.undetermined) >= set(range(len(stream))) - inside

    def test_range_validation(self):
        with pytest.raises(ValueError):
            map_range([1, 2], PatternConfig(2, 2), FAIR, 0, 5)
        with pytest.raises(ValueError):
            map_range([1, 3], PatternConfig(2, 2), FAIR, 0, 1)

    @pytest.mark.parametrize("bad", [0, 4])
    def test_invalid_symbol_inside_or_outside_blocks(self, bad):
        # The whole stream is validated up front, so a bad symbol raises the
        # same error inside a block word, before the first marker and after
        # the last one.
        stream = random_stream(9, 600, 3)
        cfg = PatternConfig(3, 3)
        marks = scan_markers(stream, cfg)
        k = next(k for k in range(len(marks) - 1) if marks[k + 1] - marks[k] > 4)
        assert marks[0] > 0 and marks[-1] + 3 < len(stream)
        for pos in (marks[k] + 4, marks[0] - 1, len(stream) - 1):
            bad_stream = stream[:pos] + [bad] + stream[pos + 1 :]
            message = rf"^symbol {bad} at position {pos} outside 1\.\.3$"
            with pytest.raises(ValueError, match=message):
                map_range(bad_stream, cfg, FAIR, 0, len(stream) - 1)
            with pytest.raises(ValueError, match=message):
                check_word(bad_stream, cfg.alphabet_size)

    def test_block_words_are_not_validated_again(self, monkeypatch):
        import finitary.extractor

        def no_check(*args):
            raise AssertionError("block word validated twice")

        monkeypatch.setattr(finitary.extractor, "check_word", no_check)
        stream = random_stream(10, 2000, 3)
        res = map_range(stream, PatternConfig(3, 3), FAIR, 0, len(stream) - 1)
        assert res.outputs

    def test_range_extracts_only_the_blocks_it_needs(self, monkeypatch):
        # One index of a 20k-symbol stream with about 700 blocks: the blocks
        # before its own are skipped, and the sweep stops once its block's
        # simulator has finished.
        import finitary.engine

        stream = random_stream(7, 20_000, 3)
        cfg, n = PatternConfig(3, 3), len(stream)
        i = scan_markers(stream, cfg)[10] + 1
        full = map_range(stream, cfg, FAIR, 0, n - 1)
        extract, calls = finitary.engine._lazy_bits, 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return extract(*args)

        monkeypatch.setattr(finitary.engine, "_lazy_bits", counted)
        res = map_range(stream, cfg, FAIR, i, i)
        assert 1 <= calls < 10
        assert i in full.reports and res.reports == {i: full.reports[i]}
        assert res.undetermined == []


class TestPulledBits:
    def test_wide_block_walk_stops_with_its_reader(self, monkeypatch):
        # One wide block of 600 symbols has 899 bits, and its simulator
        # succeeds after 608 of them.  No simulator is left to read the rest,
        # so the sweep returns and the block's window walk is never drawn to
        # its end.  The outputs are the naive transcription's all the same.
        import finitary.extractor as extractor

        cfg = PatternConfig(3, 3)
        word = (2, 1, 3) * 200
        stream = [2, 1, 1, *word, 2, 1, 1, 3, 3, 1]
        counts = (200, 200, 200)
        assert extractor._wide(counts, 3)
        full = len(list(extractor._window_walk(word, counts, 3)))
        drawn, walk = [0], extractor._window_walk

        def counting(*args):
            for checkpoint in walk(*args):
                drawn[0] += 1
                yield checkpoint

        monkeypatch.setattr(extractor, "_window_walk", counting)
        res = map_range(stream, cfg, FAIR, 0, len(stream) - 1)
        assert 0 < drawn[0] < full
        assert res.outputs == naive_map(stream, 3, 3, FAIR)
        assert len(res.outputs) == len(word) + 3
        drawn[0] = 0
        records = list(encode_stream([stream[:300], stream[300:]], cfg, FAIR))
        assert 0 < drawn[0] < full and records == res.blocks


class TestWindowCap:
    # One block between two markers whose word yields too few bits for its
    # own length; the only difference between the two cases is whether the
    # stream continues past the per-index cap.
    STARVED = [2, 1, 1, 1] + [3, 3, 2, 3, 3] + [2, 1, 1, 1]

    def test_cap_bound_raises(self):
        stream = self.STARVED + [3] * 500
        cfg = PatternConfig(3, 4)
        res_uncapped = map_range(stream, cfg, FAIR, 5, 6)
        assert res_uncapped.outputs == {}
        assert res_uncapped.undetermined == [5, 6]  # input-bound: undetermined
        with pytest.raises(WindowExhausted):
            map_range(stream, cfg, FAIR, 5, 6, max_window=30)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, cfg: map_range(s, cfg, FAIR, 0, len(s) - 1, max_window=-1),
            lambda s, cfg: list(encode_stream([s], cfg, FAIR, max_window=-1)),
            lambda s, cfg: certified_radius(s, cfg, FAIR, 0, max_window=-1),
        ],
        ids=["map_range", "encode_stream", "certified_radius"],
    )
    def test_negative_cap_refused(self, call):
        # Not every index undetermined and nothing yielded: an error.
        with pytest.raises(ValueError, match="max_window must be >= 0"):
            call(random_stream(7, 3000, 3), PatternConfig(3, 3))

    def test_input_bound_is_undetermined(self):
        res = map_range(self.STARVED, PatternConfig(3, 4), FAIR, 5, 6, max_window=30)
        assert res.outputs == {}
        assert res.undetermined == [5, 6]

    def test_full_range_applies_the_cap_per_index(self):
        # With a cap of 200, 290 of the 2,667 outputs a full-range call once
        # returned needed more lookahead than that; index 93 alone raised.
        stream = random_stream(7, 2800, 3)
        cfg = PatternConfig(3, 3)
        uncapped = map_range(stream, cfg, FAIR, 0, len(stream) - 1)
        assert len(uncapped.outputs) == 2667
        assert sum(r.right_extent - i > 201 for i, r in uncapped.reports.items()) == 290
        with pytest.raises(WindowExhausted, match="index 93 "):
            map_range(stream, cfg, FAIR, 93, 93, max_window=200)
        with pytest.raises(WindowExhausted):
            map_range(stream, cfg, FAIR, 0, len(stream) - 1, max_window=200)

    def test_range_agrees_with_single_indices(self):
        # A range raises iff one of its indices raises alone; otherwise each
        # index has the output and report it has alone.  The ranges are the
        # whole stream, its middle third and each block's own indices.
        raised = agreed = capped = 0
        for seed, a, t, q in [(50, 3, 2, FAIR), (51, 2, 3, Q13), (52, 3, 3, FAIR)]:
            stream = random_stream(seed, 240, a)
            cfg, n = PatternConfig(a, t), len(stream)
            marks = scan_markers(stream, cfg)
            ranges = [(0, n - 1), (n // 3, 2 * n // 3)]
            ranges += [(left + 1, right) for left, right in zip(marks, marks[1:])]
            uncapped = map_range(stream, cfg, q, 0, n - 1).outputs
            for cap in (0, 3, 10, 30, 80, 240):
                alone = []
                for i in range(n):
                    try:
                        res = map_range(stream, cfg, q, i, i, max_window=cap)
                    except WindowExhausted:
                        alone.append(None)
                    else:
                        alone.append((res.outputs.get(i), res.reports.get(i)))
                for first, last in ranges:
                    part = dict(enumerate(alone[first : last + 1], start=first))
                    if None in part.values():
                        raised += 1
                        with pytest.raises(WindowExhausted):
                            map_range(stream, cfg, q, first, last, max_window=cap)
                        continue
                    agreed += 1
                    res = map_range(stream, cfg, q, first, last, max_window=cap)
                    determined = {i: o for i, (o, _) in part.items() if o is not None}
                    assert res.outputs == determined
                    assert res.reports == {i: r for i, (_, r) in part.items() if r}
                    assert res.undetermined == sorted(part.keys() - determined.keys())
                    # The cap left some of the range's outputs undetermined.
                    capped += 0 < len(determined) < len(part.keys() & uncapped.keys())
        assert raised and agreed and capped


class TestCertifiedRadius:
    def test_radius_covers_block_membership(self):
        stream = random_stream(9, 3000, 3)
        cfg = PatternConfig(3, 2)
        res = map_range(stream, cfg, FAIR, 0, len(stream) - 1)
        marks = scan_markers(stream, cfg)
        for i, report in list(res.reports.items())[:200]:
            assert report.radius >= i - report.left_marker
            assert report.left_marker in marks
            assert report.radius >= 1
            assert report.right_extent >= marks[report.block + 1] + cfg.marker_len

    def test_single_index_matches_bulk(self):
        stream = random_stream(9, 2000, 3)
        cfg = PatternConfig(3, 2)
        res = map_range(stream, cfg, FAIR, 0, len(stream) - 1)
        some = sorted(res.outputs)[100]
        assert certified_radius(stream, cfg, FAIR, some) == res.reports[some].radius

    def test_undetermined_raises(self):
        with pytest.raises(UndeterminedIndex):
            certified_radius([1, 1, 1, 1], PatternConfig(2, 2), FAIR, 0)


class TestEquivariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_shift_commutes(self, seed):
        stream = random_stream(seed, 1200, 3)
        cfg = PatternConfig(3, 3)
        out = map_range(stream, cfg, FAIR, 0, len(stream) - 1).outputs
        shifted = map_range(stream[1:], cfg, FAIR, 0, len(stream) - 2).outputs
        common = set(shifted) & {i - 1 for i in out}
        assert common  # some co-determined indices exist
        for i in common:
            assert shifted[i] == out[i + 1]


class TestLeftIndependence:
    @pytest.mark.parametrize("seed", range(6))
    def test_adding_left_simulators_changes_nothing(self, seed):
        # A range from block 5 on sweeps no simulator below block 5.
        stream = random_stream(100 + seed, 3000, 3)
        cfg, n = PatternConfig(3, 3), len(stream)
        marks = scan_markers(stream, cfg)
        assert len(marks) > 9
        full = map_range(stream, cfg, FAIR, 0, n - 1).blocks
        tail = map_range(stream, cfg, FAIR, marks[5] + 1, n - 1).blocks
        assert tail and tail == [b for b in full if b.block >= 5]


class TestSourceUniversality:
    def test_no_source_distribution_parameter(self):
        import inspect

        for fn in (map_range, encode_stream, scan_markers):
            names = set(inspect.signature(fn).parameters)
            assert not names & {"p", "source", "source_distribution"}

    def test_identical_streams_identical_outputs(self):
        # The same symbols, arrived at via different generators, map identically.
        rng_a = np.random.Generator(np.random.PCG64(1))
        draws = rng_a.integers(1, 4, size=2500)
        stream_a = [int(v) for v in draws]
        stream_b = [int(str(v)) for v in list(draws)]  # independent reconstruction
        cfg = PatternConfig(3, 2)
        res_a = map_range(stream_a, cfg, FAIR, 0, 2499)
        res_b = map_range(stream_b, cfg, FAIR, 0, 2499)
        assert res_a.outputs == res_b.outputs
        assert res_a.reports == res_b.reports
        assert res_a.undetermined == res_b.undetermined


@st.composite
def streams(draw, a, t):
    """A seeded stream of markers (drawn as 0) and symbols (drawn as
    1..10a), so that blocks are about 10a symbols long at any t."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    pieces = rng.integers(0, 10 * a + 1, size=rng.integers(1, 500)).tolist()
    marker = [2] + [1] * (t - 1)
    return [s for v in pieces for s in (marker if v == 0 else [(v - 1) % a + 1])]


@st.composite
def chunked(draw, stream):
    """Cut points that split the stream anywhere, down to single symbols."""
    n = len(stream)
    if draw(st.booleans()):
        cuts = list(range(1, n))
    else:
        cuts = sorted(set(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=12))))
        cuts = [c for c in cuts if c < n]
    return [stream[i:j] for i, j in zip([0, *cuts], [*cuts, n])]


STREAM_QS = ["1/2,1/2", "1/3,2/3", "1/4,1/4,1/2"]


class TestEncodeStream:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(1, 6), st.sampled_from(STREAM_QS))
    def test_matches_map_range_under_any_chunking(self, data, a, t, q_text):
        q = ProbabilityVector.parse(q_text)
        cfg = PatternConfig(a, t)
        stream = data.draw(streams(a, t))
        chunks = data.draw(chunked(stream))
        # Half the draws take the default cap, which small streams never
        # exhaust, so that both outcomes are common.
        caps = st.sampled_from([0, 1, t - 1, t, 30, 120])
        cap = data.draw(st.one_of(caps, st.just(DEFAULT_MAX_WINDOW)))
        n = len(stream)
        got = []
        try:
            expected = map_range(stream, cfg, q, 0, n - 1, cap).blocks
        except WindowExhausted as exc:
            with pytest.raises(WindowExhausted) as raised:
                got.extend(encode_stream(chunks, cfg, q, cap))
            assert str(raised.value) == str(exc)
            for record in got:
                lo, hi = record.left_marker + 1, record.indices[-1]
                assert map_range(stream, cfg, q, lo, hi, cap).blocks == [record]
        else:
            assert list(encode_stream(chunks, cfg, q, cap)) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(1, 6), st.sampled_from(STREAM_QS))
    def test_bad_symbol(self, data, a, t, q_text):
        # A bad symbol raises map_range's ValueError, after the symbols
        # before it have been worked through: the error is WindowExhausted
        # exactly when that prefix alone gives it.
        q = ProbabilityVector.parse(q_text)
        cfg = PatternConfig(a, t)
        stream = data.draw(streams(a, t))
        b = data.draw(st.integers(0, len(stream) - 1))
        stream[b] = data.draw(st.sampled_from([0, a + 1, -1, 300]))
        chunks = data.draw(chunked(stream))
        caps = st.sampled_from([0, t, 30, 120])
        cap = data.draw(st.one_of(caps, st.just(DEFAULT_MAX_WINDOW)))
        with pytest.raises(ValueError) as whole:
            map_range(stream, cfg, q, 0, len(stream) - 1, cap)
        prefix = stream[:b]
        got = []
        try:
            expected = map_range(prefix, cfg, q, 0, b - 1, cap).blocks if b else []
        except WindowExhausted as exc:
            assert cap != DEFAULT_MAX_WINDOW
            with pytest.raises(WindowExhausted, match=f"^{re.escape(str(exc))}$"):
                got.extend(encode_stream(chunks, cfg, q, cap))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(whole.value))}$"):
                got.extend(encode_stream(chunks, cfg, q, cap))
            assert got == expected[: len(got)]

    def test_records_leave_as_soon_as_they_are_final(self):
        stream = random_stream(5, 3000, 3)
        cfg, n = PatternConfig(3, 3), len(stream)
        read = 0

        def chunks():
            nonlocal read
            for read in range(1, n + 1):
                yield stream[read - 1 : read]

        left = [(read, record) for record in encode_stream(chunks(), cfg, FAIR)]
        assert [r for _, r in left] == map_range(stream, cfg, FAIR, 0, n - 1).blocks
        # Each record was determined by the symbols read when it left, and
        # the first left at the symbol that determined it.
        for m, record in left[::10]:
            assert record in map_range(stream[:m], cfg, FAIR, 0, m - 1).blocks
        m, first = left[0]
        assert first not in map_range(stream[: m - 1], cfg, FAIR, 0, m - 2).blocks
        assert m < n // 10

    def test_state_does_not_grow_with_the_stream(self):
        # 100k symbols in chunks of 2,500: the symbols kept are the chunk
        # and the open block, and few blocks are ever running at once.  A
        # record leaves only when no simulator is running, so before the
        # input ends the stack is empty whenever one is yielded.
        rng = np.random.Generator(np.random.PCG64(11))
        kept, depth, ended = [], [], False

        def measure():
            state = stream.gi_frame.f_locals
            kept.append(len(state["buf"]))
            depth.append(len(state["sweep"].stack))

        def chunks():
            nonlocal ended
            for _ in range(40):
                measure()
                yield [int(v) for v in rng.integers(1, 4, size=2500)]
            ended = True

        stream = encode_stream(chunks(), PatternConfig(3, 3), FAIR)
        for _ in stream:
            measure()
            assert ended or depth[-1] == 0
        assert max(kept) < 2500 + 400 and 0 < max(depth) < 200

    def test_sweep_checks_every_read(self):
        # Rewinding the sweep makes the next read a second read of a
        # position; rewinding it further, past what the simulator below
        # the new one has read, makes that simulator read out of order.
        sweep = _Sweep(FAIR)
        assert list(sweep.feed(0, 0, 40, "011")) == []
        sweep.pos = 0
        with pytest.raises(InvariantViolation, match="consumed twice"):
            list(sweep.feed(1, 40, 80, "0"))
        sweep = _Sweep(FAIR)
        assert list(sweep.feed(0, 0, 40, "00000")) == []
        sweep.pos, sweep.last = 0, -1
        with pytest.raises(InvariantViolation, match="simulator 0 read out of order"):
            # Simulator 1 draws its one symbol from 0, 1, 0 and pops.
            list(sweep.feed(1, 40, 41, "0100"))


# Targets with a q_max <= 1 for some a in 2..4, so that no simulator of an
# a-ary stream can finish.
STARVING_QS = ["1/2,1/2", "1/4,1/4,1/2", "1/3,1/3,1/3", "1/4,1/4,1/4,1/4"]


class TestStarvedStreams:
    @staticmethod
    def counting(monkeypatch):
        """The words that ``_lazy_bits`` is called on from now on."""
        import finitary.engine

        extract_bits, words = finitary.engine._lazy_bits, []

        def counted(word, cfg):
            words.append(tuple(word))
            return extract_bits(word, cfg)

        monkeypatch.setattr(finitary.engine, "_lazy_bits", counted)
        return words

    def test_zero_gap_extracts_nothing(self, monkeypatch):
        # At a = 2 and q = 1/2,1/2, a block of n symbols yields at most n
        # bits, and its simulator needs more than n + 3, so no block is
        # ever extracted, in chunks or in one range, and no index is
        # determined.
        stream = random_stream(5, 20_000, 2)
        cfg, n = PatternConfig(2, 3), len(stream)
        assert len(scan_markers(stream, cfg)) > 2_000
        words = self.counting(monkeypatch)
        chunks = [stream[i : i + 2_000] for i in range(0, n, 2_000)]
        assert list(encode_stream(chunks, cfg, FAIR)) == []
        res = map_range(stream, cfg, FAIR, 0, n - 1)
        assert (res.blocks, res.undetermined) == ([], list(range(n)))
        assert words == []

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(1, 6), st.sampled_from(STARVING_QS))
    def test_starved_words_cannot_feed_their_simulators(self, data, a, t, q_text):
        # When a p <= Q for the largest entry p/Q of q, every pattern-free
        # word yields e bits with 2^e p^h <= Q^h for its simulator's horizon
        # h = n + t, and a cursor fed all of them reads them all and does
        # not finish.
        q = ProbabilityVector.parse(q_text)
        cum, den = q.scaled_cumulative
        p = max(hi - lo for lo, hi in zip(cum, cum[1:]))
        assume(a * p <= den)
        cfg = PatternConfig(a, t)
        word = data.draw(st.lists(st.integers(1, a), max_size=40))
        while marks := scan_markers(word, cfg):
            for i in marks:
                word[i] = 1  # one 2 fewer, so this ends
        bits = extract(tuple(word), cfg).bits
        h = len(word) + t
        assert 2 ** len(bits) * p**h <= den**h
        cursor = DyadicCursor(q, h)
        assert cursor.read(bits) == len(bits) and not cursor.successful

    @staticmethod
    def zero_gap_peak(size):
        """The tracemalloc peak of ``encode_stream`` over ``size`` symbols of
        {1, 2} at t = 3 and q = 1/2,1/2, in chunks of 2,000."""
        stream = random_stream(17, size, 2)
        chunks = (stream[i : i + 2_000] for i in range(0, len(stream), 2_000))
        tracemalloc.start()
        try:
            assert list(encode_stream(chunks, PatternConfig(2, 3), FAIR)) == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_zero_gap_stack_is_smaller_than_cursors(self):
        # 200,000 symbols hold about 25,000 blocks, 20,000 about 2,500, and
        # none of them ever finishes.  Only the lowest is kept, so both
        # peaks are the chunk and one block.  With an entry per block, as
        # the stack kept before, the peaks were 0.62 and 5.32 MB under
        # CPython 3.11; with one entry they are both about 0.08 MB.
        small, large = self.zero_gap_peak(20_000), self.zero_gap_peak(200_000)
        assert large <= 1.25 * small

    def test_zero_gap_scans_no_chunk_after_the_first_block(self, monkeypatch):
        # Once the chunk that closes the first block has been scanned, the
        # later chunks are only counted and checked against the cap.
        import finitary.engine

        stream, cfg, size = random_stream(23, 60_000, 2), PatternConfig(2, 3), 1_000
        closing = (scan_markers(stream, cfg)[1] + cfg.marker_len - 1) // size
        scan, scanned, chunk = finitary.engine.scan_markers, [], 0

        def counted(segment, cfg):
            scanned.append(chunk)
            return scan(segment, cfg)

        def chunks():
            nonlocal chunk
            for chunk in range(len(stream) // size):
                yield stream[chunk * size : (chunk + 1) * size]

        monkeypatch.setattr(finitary.engine, "scan_markers", counted)
        assert list(encode_stream(chunks(), cfg, FAIR)) == []
        assert scanned == list(range(closing + 1)) and chunk == len(stream) // size - 1

    def test_starved_streams_match_the_pinned_digest(self):
        # 600 seeded starved streams, a fifth of them with a bad symbol
        # after the first block, through ``encode_stream`` in chunks and
        # ``map_range`` over three random ranges each.  The records, the
        # undetermined indices and every exception's type and message hash
        # to the digest that the loop gave when it still pushed every
        # block of such a stream onto the stack and scanned all of it.
        rng, h, kinds = random.Random(28), hashlib.sha256(), Counter()
        for _ in range(600):
            stream, cfg, q, cap, chunks = starved_case(rng)
            outs = [outcome(lambda: encode_stream(chunks, cfg, q, cap))]
            for _ in range(3 if stream else 0):
                first = rng.randrange(len(stream))
                last = rng.randrange(first, len(stream))
                res = outcome(lambda: [map_range(stream, cfg, q, first, last, cap)])
                outs.append(([(r.blocks, r.undetermined) for r in res[0]], *res[1:]))
            kinds.update(kind for _, kind, _ in outs)
            h.update(repr(outs).encode())
        assert kinds == {"WindowExhausted": 1126, None: 796, "SymbolError": 478}
        assert h.hexdigest() == (
            "88845b28292e3f93b0dc67e9dfe7bbfe900e68ad6adffbc61dcd5702999f6315"
        )


def starved_case(rng):
    """A seeded stream over {1..a} with a ∈ 2..4 and t ∈ 1..5, a target of
    STARVING_QS with a q_max <= 1, a cap, and the stream cut into chunks of
    1..5,000 symbols.  A marker starts at each position with probability
    1/20, and a fifth of the streams with two markers or more get a symbol
    outside 1..a after the first block."""
    while True:
        a, q = rng.randint(2, 4), ProbabilityVector.parse(rng.choice(STARVING_QS))
        cum, den = q.scaled_cumulative
        if a * max(hi - lo for lo, hi in zip(cum, cum[1:])) <= den:
            break
    t = rng.randint(1, 5)
    cfg, stream = PatternConfig(a, t), []
    for _ in range(rng.randint(0, 3_000)):
        stream += [2] + [1] * (t - 1) if rng.random() < 0.05 else [rng.randint(1, a)]
    marks = scan_markers(stream, cfg)
    if rng.random() < 0.2 and len(marks) > 1 and marks[1] + t < len(stream):
        stream[rng.randrange(marks[1] + t, len(stream))] = rng.choice([0, a + 1, -1, 300])
    chunks, i = [], 0
    while i < len(stream):
        size = int(5_000 ** rng.random())  # log-uniform over 1..5,000
        chunks.append(stream[i : i + size])
        i += size
    return stream, cfg, q, rng.choice([0, 1, 5, 30, 200, 10**6]), chunks


def outcome(call):
    """What ``call()`` yields, and the type name and message of the
    ValueError or WindowExhausted that ends it, if any."""
    got = []
    try:
        got.extend(call())
    except (ValueError, WindowExhausted) as exc:
        return got, type(exc).__name__, str(exc)
    return got, None, None
