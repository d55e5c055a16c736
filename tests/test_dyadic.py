import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finitary.core import ProbabilityVector, entropy
from finitary.dyadic import DyadicCursor, TailReport, exact_symbol_law, exact_tail

from oracles import FractionCursor, GcdCursor, brute_survival, brute_symbol_law, oracle_simulate

F = Fraction
FAIR = ProbabilityVector.parse("1/2,1/2")
Q13 = ProbabilityVector.parse("1/3,2/3")
Q14 = ProbabilityVector.parse("1/4,3/4")
Q3 = ProbabilityVector.parse("1/5,1/3,7/15")
FIFTHS = ProbabilityVector.parse("1/5,1/5,1/5,1/5,1/5")
LOPSIDED = ProbabilityVector.parse("1/10,9/10")
Q272 = ProbabilityVector.parse("2/7,3/7,2/7")


def absolute(c):
    """``(lo, hi, cell_lo, cell_hi)``: the cursor's interval ``[L/D, (L+W)/D]``
    and the cell of its emitted symbols, as points of [0, 1]."""
    cum, den = c._cum, c._den
    cell_lo, cell_width = F(0), F(1)
    for j in c.emitted:
        cell_lo += cell_width * F(cum[j - 1], den)
        cell_width *= F(cum[j] - cum[j - 1], den)
    lo = cell_lo + cell_width * F(c._left, c._scale)
    hi = lo + cell_width * F(c._width, c._scale)
    return lo, hi, cell_lo, cell_lo + cell_width


def simulate_one(q, bits):
    """``(T, S)`` of one symbol read from ``bits`` in one call, as the
    ``simulate`` command reads them, or None when the bits run out."""
    c = DyadicCursor(q, 1)
    c.read("".join(map(str, bits)))
    return (c.bits_consumed, c.emitted[0]) if c.successful else None


def run_bits(q, horizon, bits):
    cursor = DyadicCursor(q, horizon)
    emitted = []
    for b in bits:
        if cursor.successful:
            break
        before = len(cursor.emitted)
        assert cursor.read(str(b)) == 1
        emitted.extend(cursor.emitted[before:])
    return cursor, emitted


class TestCursor:
    def test_fresh_cursor_state(self):
        c = DyadicCursor(FAIR, 1)
        assert absolute(c) == (0, 1, 0, 1) and c.bits_consumed == 0
        assert not c.successful
        c2 = DyadicCursor(Q13, 2)
        assert c2.horizon == 2 and c2.emitted == []
        assert DyadicCursor(Q14, 5).horizon == 5

    def test_read_emits_after_third_bit_fair(self):
        c, emitted = run_bits(FAIR, 1, (0, 0, 1))
        assert emitted == [1] and c.bits_consumed == 3 and c.successful

    def test_read_emits_after_second_bit_q13(self):
        c, emitted = run_bits(Q13, 1, (1, 0))
        assert emitted == [2] and c.bits_consumed == 2

    def test_two_symbol_cascade(self):
        # Interval [1/8, 3/16] sits strictly inside the (1,1) product cell (0, 1/4).
        c, emitted = run_bits(FAIR, 2, (0, 0, 1, 0))
        assert emitted == [1, 1] and c.successful and c.bits_consumed == 4
        lo, hi, cell_lo, cell_hi = absolute(c)
        assert (cell_lo, cell_hi) == (0, F(1, 4))
        assert cell_lo < lo and hi < cell_hi

    def test_not_successful_on_boundary_tie(self):
        c, emitted = run_bits(FAIR, 1, (0, 1))
        assert emitted == [] and not c.successful  # hi == 1/2 is a tie, not a success

    def test_reading_successful_cursor_rejected(self):
        c, _ = run_bits(FAIR, 1, (0, 0, 1))
        with pytest.raises(ValueError):
            c.read("0")

    def test_bad_bit_rejected(self):
        # A first character other than "0" or "1" leaves the cursor as it was.
        for bits in ["2", "-1", " 01", "\n", [0, 1]]:
            c = DyadicCursor(FAIR, 1)
            with pytest.raises(ValueError):
                c.read(bits)
            assert (c.bits_consumed, c.emitted) == (0, [])

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            DyadicCursor(FAIR, 0)

    @pytest.mark.parametrize("horizon", [1, 30, 200])
    @pytest.mark.parametrize(
        "text",
        [
            "1/2,1/2",
            "1/3,2/3",
            "1/4,1/4,1/2",
            "1/6,1/3,1/2",
            "3/4,1/8,1/8",
            "1",
            "1/5,1/5,1/5,1/5,1/5",
            "1/10,9/10",
            "2/7,3/7,2/7",
        ],
    )
    def test_matches_reference_cursor(self, text, horizon):
        # The integer cursor against the Fraction one, after every bit.
        q = ProbabilityVector.parse(text)
        rng = random.Random(f"{text}/{horizon}")
        c, ref = DyadicCursor(q, horizon), FractionCursor(q, horizon)
        while not ref.successful:
            bit = rng.getrandbits(1)
            before = len(c.emitted)
            assert c.read(str(bit)) == 1
            assert c.emitted[before:] == ref.feed(bit)
            assert c.emitted == ref.emitted
            assert (c.bits_consumed, c.successful) == (ref.bits_consumed, ref.successful)
            assert absolute(c) == (ref.lo, ref.hi, ref.cell_lo, ref.cell_hi)
        with pytest.raises(ValueError):
            c.read("0")


class TestRead:
    @pytest.mark.parametrize("value,n", [(2, 1), (8, 3), (-1, 1), (0, -1), (1, 0)])
    def test_value_outside_n_bits_rejected(self, value, n):
        # An integer value with a bit count is no bit string: read refuses
        # it, as a pair of arguments or as items, even 0 and 1, and leaves
        # the cursor as it was.
        c = DyadicCursor(FAIR, 1)
        with pytest.raises(TypeError):
            c.read(value, n)
        for items in [(value,), (value, n), (n, value)]:
            with pytest.raises(ValueError):
                c.read(items)
        assert (c.bits_consumed, c.emitted) == (0, [])

    @pytest.mark.parametrize("q", [FAIR, Q13, Q3], ids=["fair", "q13", "q3"])
    def test_bad_character_mid_run_keeps_the_bits_before_it(self, q):
        # The bits before the bad character stay read, in the state that
        # reading them alone leaves, and the iterator stops right after it.
        rng = random.Random(f"bad/{q.entries}")
        for _ in range(100):
            prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            c, alone = DyadicCursor(q, 50), DyadicCursor(q, 50)
            rest = iter(prefix + "x" + "01")
            with pytest.raises(ValueError):
                c.read(rest)
            alone.read(prefix)
            assert c.bits_consumed == alone.bits_consumed == len(prefix)
            assert c.emitted == alone.emitted
            assert absolute(c) == absolute(alone)
            assert "".join(rest) == "01"

    def test_successful_cursor_rejects_any_read(self):
        c = DyadicCursor(FAIR, 2)
        assert c.read("00101") == 4 and c.emitted == [1, 1]
        for bits in ["", "1", "11"]:
            with pytest.raises(ValueError):
                c.read(bits)
        assert c.bits_consumed == 4

    def test_empty_read_consumes_nothing(self):
        c = DyadicCursor(Q13, 3)
        assert c.read("") == 0 and (c.bits_consumed, c.emitted) == (0, [])

    @pytest.mark.parametrize("q", [FAIR, Q13, Q3], ids=["fair", "q13", "q3"])
    def test_cursors_share_one_iterator(self, q):
        # A cursor that succeeds takes no character past its last one: the
        # next cursor on the same iterator reads what a fresh cursor reads
        # from the rest, and what neither read is still in the iterator.
        rng = random.Random(f"shared/{q.entries}")
        for _ in range(300):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 60)))
            first = DyadicCursor(q, rng.randint(1, 6))
            second = DyadicCursor(q, rng.randint(1, 6))
            rest = iter(bits)
            used = first.read(rest)
            assert used == len(bits) or first.successful
            if first.successful:
                fresh = DyadicCursor(q, second.horizon)
                fresh.read(bits[used:])
                second.read(rest)
                assert second.emitted == fresh.emitted
                assert second.bits_consumed == fresh.bits_consumed
                used += second.bits_consumed
            assert "".join(rest) == bits[used:]

    @pytest.mark.parametrize(
        "q",
        [FAIR, Q13, Q3, FIFTHS, LOPSIDED, Q272],
        ids=["fair", "q13", "q3", "fifths", "lopsided", "q272"],
    )
    def test_runs_match_reference_cursor(self, q):
        # Random bit strings cut into random runs, empty runs and single
        # bits among them, against the Fraction cursor fed bit by bit.  The
        # last runs are at horizon 200: a run of many bits defers its
        # doublings of the scale, and the left end crosses many cells.
        rng = random.Random(f"runs/{q.entries}")
        for trial in range(320):
            horizon, most = (rng.randint(1, 12), 90) if trial < 300 else (200, 700)
            bits = [rng.getrandbits(1) for _ in range(rng.randint(0, most))]
            ref, stop = FractionCursor(q, horizon), None
            for i, bit in enumerate(bits, 1):
                ref.feed(bit)
                if ref.successful:
                    stop = i
                    break
            c, pos = DyadicCursor(q, horizon), 0
            while pos < len(bits) and not c.successful:
                run = bits[pos : pos + rng.choice([0, 1, rng.randint(2, 40)])]
                used = c.read("".join(map(str, run)))
                assert used == len(run) or c.successful
                pos += used
            assert c.emitted == ref.emitted
            assert c.bits_consumed == ref.bits_consumed == (pos if stop is None else stop)
            assert c.successful == ref.successful == (stop is not None)
            assert pos == (len(bits) if stop is None else stop)

    def test_state_matches_full_gcd_reduction(self):
        # Random targets of up to 5 symbols with mixed denominators, bits
        # cut into random reads: after every read the cursor holds the
        # state that the full gcd at every emission gives.
        rng = random.Random("gcd")
        for _ in range(300):
            weights = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            q = ProbabilityVector(tuple(w / sum(weights) for w in weights))
            horizon = rng.randint(1, 40)
            c, ref = DyadicCursor(q, horizon), GcdCursor(q, horizon)
            bits = [rng.getrandbits(1) for _ in range(rng.randint(0, 300))]
            pos = 0
            while pos < len(bits) and not c.successful:
                run = bits[pos : pos + rng.randint(1, 50)]
                used = c.read("".join(map(str, run)))
                for bit in run[:used]:
                    ref.feed(bit)
                pos += used
                assert (c._left, c._width, c._scale) == ref.state
                assert c.emitted == ref.emitted


class TestSimulateOne:
    @pytest.mark.parametrize(
        "q,bits",
        [
            (FAIR, (0, 0, 1)),
            (Q13, (1, 0)),
            (Q14, (0, 0, 1, 0)),
        ],
    )
    def test_matches_defining_inequalities(self, q, bits):
        assert oracle_simulate(q, bits) == (len(bits), simulate_one(q, bits)[1])
        assert simulate_one(q, bits) == oracle_simulate(q, bits)

    def test_pinned_values(self):
        assert simulate_one(FAIR, (0, 0, 1)) == (3, 1)
        assert simulate_one(Q13, (1, 0)) == (2, 2)
        assert simulate_one(Q14, (0, 0, 1, 0)) == (4, 1)

    def test_insufficient_bits(self):
        assert simulate_one(FAIR, (0, 1)) is None
        assert oracle_simulate(FAIR, (0, 1)) is None

    @pytest.mark.parametrize("q", [FAIR, Q13, Q14])
    def test_exhaustive_agreement_with_oracle(self, q):
        for k in range(1, 9):
            for bits in itertools.product((0, 1), repeat=k):
                assert simulate_one(q, bits) == oracle_simulate(q, bits)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_prefix_determinism(extension):
    # Once successful, any extension leaves (T, S) unchanged.
    base = (1, 0)
    t, s = simulate_one(Q13, base)
    assert simulate_one(Q13, tuple(base) + tuple(extension)) == (t, s)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=24),
    st.integers(2, 4),
    st.integers(0, 3),
)
def test_interval_nesting(bits, size, seed_shift):
    q = ProbabilityVector(
        (F(1, size),) * (size - 1) + (F(size - (size - 1), size),)
    )
    c = DyadicCursor(q, 3)
    prev_lo, prev_hi, _, _ = absolute(c)
    for b in bits:
        if c.successful:
            break
        assert c.read(str(b)) == 1
        lo, hi, _, _ = absolute(c)
        assert prev_lo <= lo and hi <= prev_hi
        assert hi - lo == F(1, 1 << c.bits_consumed)
        prev_lo, prev_hi = lo, hi


class TestExactTail:
    def test_fair_pinned_values(self):
        rep = exact_tail(FAIR, 4)
        assert rep.survival[2] == 1
        assert rep.survival[3] == F(1, 2)

    def test_q13_survival_one_at_depth_one(self):
        assert exact_tail(Q13, 2).survival[1] == 1

    @pytest.mark.parametrize("q", [FAIR, Q13, Q14, ProbabilityVector.parse("1/6,1/3,1/2")])
    def test_matches_brute_enumeration(self, q):
        rep = exact_tail(q, 11)
        assert list(rep.survival) == brute_survival(q, 11)

    def test_survival_non_increasing_and_bounds(self):
        for text in ("1/2,1/2", "1/5,2/5,2/5", "1/7,2/7,4/7"):
            q = ProbabilityVector.parse(text)
            rep = exact_tail(q, 14)
            b = q.size
            assert all(x >= y for x, y in zip(rep.survival, rep.survival[1:]))
            assert all(
                s <= F(2 * (b + 1), 1 << k) for k, s in enumerate(rep.survival)
            )
            assert rep.loose_bound_ok

    def test_tight_bound_holds_without_interior_dyadic(self):
        rep = exact_tail(Q13, 16)
        assert not rep.dyadic_interior and rep.tight_bound_ok

    def test_tight_bound_fails_fair_coin(self):
        rep = exact_tail(FAIR, 4)
        assert rep.dyadic_interior and not rep.tight_bound_ok
        assert rep.survival[3] == F(1, 2) > F(3, 8)

    @pytest.mark.parametrize(
        "survival", [(F(1),), (F(1), F(1, 2), F(3, 4)), (F(1, 2), F(1))]
    )
    def test_report_refuses_short_or_increasing_survival(self, survival):
        with pytest.raises(ValueError):
            TailReport(FAIR, survival)


class TestExactMean:
    def test_fair_coin_mean_is_four(self):
        rep = exact_tail(FAIR, 30)
        lo, hi = rep.mean_lo, rep.mean_hi
        assert lo <= 4 <= hi
        assert hi - lo < F(1, 1 << 25)
        # The per-depth values are exactly geometric from depth 2 on.
        assert all(rep.survival[k] == F(4, 1 << k) for k in range(2, 31))

    def test_fair_coin_mean_under_entropy_bound(self):
        hi = exact_tail(FAIR, 30).mean_hi
        assert float(hi) <= entropy(FAIR) / 0.6931471805599453 + 6

    def test_single_symbol_target_mean_is_three(self):
        # Success needs an interior dyadic interval: P(T>k) = 2^(1-k) for k >= 1,
        # so E(T) = 1 + sum_{k>=1} 2^(1-k) = 3.  Verified against brute
        # enumeration below and frozen.
        q1 = ProbabilityVector((F(1),))
        assert brute_survival(q1, 8) == [1, 1] + [F(2, 1 << k) for k in range(2, 9)]
        rep = exact_tail(q1, 30)
        lo, hi = rep.mean_lo, rep.mean_hi
        assert lo <= 3 <= hi and hi - lo < F(1, 1 << 25)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            exact_tail(FAIR, 0)


class TestSymbolLaw:
    @pytest.mark.parametrize(
        "text", ["1/2,1/2", "1/3,2/3", "1/4,1/4,1/2", "1/6,1/3,1/2", "1/5,1/5,2/5,1/5"]
    )
    def test_law_converges_within_undecided_mass(self, text):
        q = ProbabilityVector.parse(text)
        law, undecided = exact_symbol_law(q, 30)
        rep = exact_tail(q, 30)
        assert undecided == rep.survival[30]
        assert sum(law.values()) + undecided == 1
        for j in range(1, q.size + 1):
            deficit = q.prob(j) - law[j]
            assert 0 <= deficit <= undecided

    @pytest.mark.parametrize(
        "text", ["1/2,1/2", "1/4,1/4,1/2", "1/3,2/3", "1/7,2/7,4/7", "5/8,1/8,1/4", "1"]
    )
    def test_matches_brute_enumeration(self, text):
        # Every 10-bit prefix credited to its first decision, by the
        # defining inequalities over Fraction endpoints.
        q = ProbabilityVector.parse(text)
        assert exact_symbol_law(q, 10) == brute_symbol_law(q, 10)


def lex_product(q, length):
    """Product distribution over words of the given length, in lex order."""
    probs = [F(1)]
    for _ in range(length):
        probs = [p * q.prob(j) for p in probs for j in range(1, q.size + 1)]
    return ProbabilityVector(tuple(probs))


class TestNestedFlatConsistency:
    def test_exhaustive_depth_ten(self):
        # The incremental cursor with horizon 2 stops exactly when the flat
        # simulation over the lexicographic product partition stops.
        q2 = lex_product(Q13, 2)
        for k in range(1, 11):
            for bits in itertools.product((0, 1), repeat=k):
                flat = oracle_simulate(q2, bits)
                cursor, emitted = run_bits(Q13, 2, bits)
                if flat is None:
                    assert not cursor.successful
                else:
                    t_flat, s_flat = flat
                    pair = divmod(s_flat - 1, Q13.size)
                    word = (pair[0] + 1, pair[1] + 1)
                    assert cursor.successful
                    assert tuple(cursor.emitted) == word
                    refed, _ = run_bits(Q13, 2, bits[:t_flat])
                    assert refed.successful and refed.bits_consumed == t_flat
