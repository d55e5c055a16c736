"""Acceptance suite: every exit criterion, one pass/fail line each.

All randomized checks run from fixed seeds (printed in the line for the
engine run).  The two chi-square tests in criterion 5 each use the 99.9%
quantile, so a fresh seed would falsely fail about 0.2% of the time; the
seeds below were fixed in advance and never tuned.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import finitary as F
from finitary.core import ProbabilityVector, entropy
from finitary.engine import InvariantViolation, _Sweep
from finitary.extractor import PatternConfig

from oracles import brute_survival, verify_extractor

ACC_SEED = 20260810
FAIR = ProbabilityVector.parse("1/2,1/2")
Q13 = ProbabilityVector.parse("1/3,2/3")
UNIF3 = ProbabilityVector.parse("1/3,1/3,1/3")
FOUR_TARGETS = [
    ProbabilityVector.parse("1/2,1/2"),
    ProbabilityVector.parse("1/3,2/3"),
    ProbabilityVector.parse("1/4,1/4,1/2"),
    ProbabilityVector.parse("1/6,1/3,1/2"),
]


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


@pytest.fixture(scope="module")
def engine_run():
    """Criterion 5 setup: certified marker length, 2e5-symbol seeded stream,
    full transform.  Shared by criteria 5, 8, and 10."""
    marker_len = None
    cert = None
    for t in (4, 5, 6):
        cert = F.certify_marker_length(UNIF3, FAIR, t, 3000, seed=ACC_SEED)
        if cert.status == "pass":
            marker_len = t
            break
    assert marker_len is not None, "no marker length certified"
    rng = np.random.Generator(np.random.PCG64(ACC_SEED + 1))
    stream = [int(v) for v in rng.integers(1, 4, size=200_000)]
    started = time.monotonic()
    result = F.map_range(
        stream, PatternConfig(3, marker_len), FAIR, 0, len(stream) - 1
    )
    elapsed = time.monotonic() - started
    return stream, marker_len, cert, result, elapsed


def test_criterion_1_simulation_law_exactness():
    with criterion(1, "simulation law exactness"):
        for q in FOUR_TARGETS:
            started = time.monotonic()
            law, undecided = F.exact_symbol_law(q, 40)
            elapsed = time.monotonic() - started
            budget = Fraction(2 * (q.size + 1), 1 << 40)
            for j in range(1, q.size + 1):
                deficit = q.prob(j) - law[j]
                assert 0 <= deficit <= budget
            assert undecided <= budget
            assert elapsed < 10.0


def test_criterion_2_tail_bounds():
    with criterion(2, "stopping-time tail bounds"):
        for q in FOUR_TARGETS:
            rep = F.exact_tail(q, 20)
            b = q.size
            for k, s in enumerate(rep.survival):
                assert s <= Fraction(2 * (b + 1), 1 << k)
            # Independent oracle: locate every cumulative point among the
            # level-k intervals (no tree traversal), plus brute force low down.
            oracle = F.verify_simu1(q, 20)
            assert oracle.survival == rep.survival
            assert list(rep.survival[:9]) == brute_survival(q, 8)
        tight = F.exact_tail(Q13, 20)
        assert tight.tight_bound_ok
        fair = F.exact_tail(FAIR, 20)
        assert fair.survival[2] == 1
        assert fair.survival[3] == Fraction(1, 2)
        assert all(fair.survival[k] == Fraction(4, 1 << k) for k in range(2, 21))
        mean = F.exact_tail(FAIR, 40)
        lo, hi = mean.mean_lo, mean.mean_hi
        assert lo <= 4 <= hi and hi - lo < Fraction(1, 1 << 30)


def test_criterion_3_mean_bound():
    with criterion(3, "mean stopping time under entropy bound"):
        for q in FOUR_TARGETS:
            hi = F.exact_tail(q, 40).mean_hi
            assert float(hi) <= entropy(q) / math.log(2) + 6 + 1e-9


def test_criterion_4_extractor_exhaustive_suite():
    with criterion(4, "extractor exhaustive suite"):
        started = time.monotonic()
        binary_ps = [FAIR, Q13]
        ternary_ps = [UNIF3, ProbabilityVector.parse("1/6,1/3,1/2")]
        for t in (2, 3):
            rep = verify_extractor(2, t, 8, binary_ps)
            assert rep.ok, rep
            rep = verify_extractor(3, t, 6, ternary_ps)
            assert rep.ok, rep
        assert time.monotonic() - started < 60.0


def test_criterion_5_engine_output_law(engine_run):
    with criterion(5, "engine output law (chi-square)"):
        stream, marker_len, cert, result, elapsed = engine_run
        print(
            f"[engine run: seed={ACC_SEED + 1}, t={marker_len} "
            f"(certified: margin {cert.margin:.1f} > 3se {3 * cert.stderr_bits:.1f}), "
            f"{len(result.outputs)} determined, {elapsed:.1f}s]"
        )
        assert cert.status == "pass"
        assert elapsed < 300.0
        assert len(result.outputs) >= 10_000
        indices = sorted(result.outputs)
        seq = [result.outputs[i] for i in indices]
        counts = [seq.count(1), seq.count(2)]
        singles = F.chi_square(counts, FAIR)
        assert singles.df == 1
        assert singles.statistic < stats.chi2.isf(0.001, 1)
        pairs = []
        j = 0
        while j + 1 < len(indices):
            if indices[j + 1] == indices[j] + 1:
                pairs.append((seq[j], seq[j + 1]))
                j += 2
            else:
                j += 1
        tally = Counter(pairs)
        pair_counts = [tally[(a, b)] for a in (1, 2) for b in (1, 2)]
        qpairs = ProbabilityVector((Fraction(1, 4),) * 4)
        doubles = F.chi_square(pair_counts, qpairs)
        assert doubles.df == 3
        assert doubles.statistic < stats.chi2.isf(0.001, 3)


def test_criterion_6_translation_equivariance():
    with criterion(6, "translation equivariance"):
        setups = [
            (2, 3, FAIR),
            (3, 2, FAIR),
            (3, 3, FAIR),
            (3, 3, Q13),
            (2, 4, Q13),
        ]
        co_determined = 0
        for seed in range(1000):
            rng = np.random.Generator(np.random.PCG64(seed))
            a, t, q = setups[seed % len(setups)]
            cfg = PatternConfig(a, t)
            stream = [int(v) for v in rng.integers(1, a + 1, size=360)]
            out = F.map_range(stream, cfg, q, 0, len(stream) - 1).outputs
            shifted = F.map_range(stream[1:], cfg, q, 0, len(stream) - 2).outputs
            for i, symbol in shifted.items():
                if i + 1 in out:
                    assert symbol == out[i + 1]
                    co_determined += 1
        assert co_determined > 10_000


def test_criterion_7_source_universality():
    with criterion(7, "source universality"):
        import inspect

        for fn in (F.map_range, F.encode_stream, F.scan_markers):
            params = set(inspect.signature(fn).parameters)
            assert not params & {"p", "source", "source_distribution"}
        # A fixed symbol sequence maps identically no matter how it was
        # produced: rebuild the same stream through an unrelated code path
        # (text round-trip) and compare everything.
        rng = np.random.Generator(np.random.PCG64(40))
        sym_a = [int(v) for v in rng.integers(1, 4, size=4000)]
        sym_b = [int(tok) for tok in " ".join(map(str, sym_a)).split()]
        cfg = PatternConfig(3, 3)
        res_a = F.map_range(sym_a, cfg, FAIR, 0, len(sym_a) - 1)
        res_b = F.map_range(sym_b, cfg, FAIR, 0, len(sym_b) - 1)
        assert res_a.outputs == res_b.outputs
        assert res_a.reports == res_b.reports
        assert res_a.undetermined == res_b.undetermined


def test_criterion_8_coding_radius_exponential_tail(engine_run):
    with criterion(8, "coding radius exponential tail"):
        _, _, _, result, _ = engine_run
        radii = np.sort(np.array([r.radius for r in result.reports.values()]))
        assert len(radii) >= 10_000
        fit = F.tail_fit(radii)
        assert fit.slope < 0
        assert fit.r_squared > 0.9
        # Domination beyond the median at the fitted geometric rate.  A
        # least-squares line necessarily cuts through the data cloud, so the
        # envelope constant gets a fixed 2.5x allowance; a genuinely heavy
        # tail needs lifts orders of magnitude larger (a Pareto control needs
        # >100x here).
        n = len(radii)
        median = int(np.median(radii))
        floor = 10.0 / n
        for x in range(median, int(radii.max()) + 1):
            survival = (n - np.searchsorted(radii, x, side="left")) / n
            if survival < floor:
                break
            assert survival <= 2.5 * math.exp(fit.intercept + fit.slope * x)


def test_criterion_9_left_independence():
    with criterion(9, "left independence of simulators"):
        # A range from block 5 on sweeps no simulator below block 5.
        cfg = PatternConfig(3, 3)
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(2000 + seed))
            stream = [int(v) for v in rng.integers(1, 4, size=2500)]
            marks = F.scan_markers(stream, cfg)
            assert len(marks) > 11
            full = F.map_range(stream, cfg, FAIR, 0, len(stream) - 1).blocks
            tail = F.map_range(stream, cfg, FAIR, marks[5] + 1, len(stream) - 1).blocks
            assert tail and tail == [b for b in full if b.block >= 5]


def test_criterion_10_schedule_invariants(engine_run):
    with criterion(10, "schedule invariants (disjoint, in-order reads)"):
        # The disjoint-consumption and in-order read checks are always on inside
        # the sweep and raise InvariantViolation; every run in this suite,
        # including the 2e5-symbol engine run, passed through them.
        _, marker_len, _, result, _ = engine_run
        assert result.outputs  # the big run completed with checks enabled
        # A sweep rewound to its first position reads that position again.
        sweep = _Sweep(FAIR)
        assert list(sweep.feed(0, 0, 40, "011")) == []
        sweep.pos = 0
        with pytest.raises(InvariantViolation, match="consumed twice"):
            list(sweep.feed(1, 40, 80, "0"))


def test_criterion_11_block_length_statistics():
    with criterion(11, "mean block length matches exact formula"):
        lams, _ = F.sample_blocks(FAIR, 4, 100_000, seed=ACC_SEED + 2)
        exact = F.expected_block_length(FAIR, 4)
        assert exact == 16
        se = lams.std(ddof=1) / math.sqrt(len(lams))
        assert abs(lams.mean() - float(exact)) <= 3 * se


def test_criterion_12_documented_discrepancy_regressions():
    with criterion(12, "documented discrepancy regressions"):
        # (a) The tight tail constant fails when an interior cumulative point
        # is dyadic; the doubled constant holds universally.
        rep = F.exact_tail(FAIR, 10)
        assert rep.survival[3] == Fraction(1, 2) > Fraction(3, 8)
        assert not rep.tight_bound_ok and rep.loose_bound_ok
        assert F.exact_tail(Q13, 16).tight_bound_ok
        # (b) Full containment: the word equal to the pattern itself is NOT
        # pattern-free, even though no occurrence starts at a position in
        # {1..n-t} (that index set is empty at n = t).  The extractor
        # rejects it and the scanner finds its marker.
        cfg = PatternConfig(2, 3)
        word = (2, 1, 1)
        assert len(word) == cfg.marker_len
        with pytest.raises(ValueError):
            F.extract(word, cfg)
        assert F.scan_markers(word, cfg) == [0]
        # (c) Class indices range over all count vectors: C(n+a-1, a-1), which
        # exceeds n^(a-1) already at a=2, n=3.
        assert F.class_index((3, 0)) == 4 > 3 ** (2 - 1)
        assert {F.class_index(m) for m in [(0, 3), (1, 2), (2, 1), (3, 0)]} == {
            1,
            2,
            3,
            4,
        }
