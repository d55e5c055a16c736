import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from finitary import calibration, extractor
from finitary.calibration import (
    CertificationReport,
    _chi2_sf,
    certify_marker_length,
    chi_square,
    expected_block_length,
    sample_blocks,
    select_marker_length,
    tail_fit,
    verify_simu1,
)
from finitary.core import ProbabilityVector
from finitary.dyadic import exact_tail
from finitary.extractor import PatternConfig, _bit_count, extract

from oracles import verify_extractor

F = Fraction
FAIR = ProbabilityVector.parse("1/2,1/2")
Q13 = ProbabilityVector.parse("1/3,2/3")
UNIF3 = ProbabilityVector.parse("1/3,1/3,1/3")


def wide_source(a):
    """Symbols 1 and 2 at 1/2 and 1/4, and the other a-2 sharing 1/4."""
    return ProbabilityVector((F(1, 2), F(1, 4)) + (F(1, 4 * (a - 2)),) * (a - 2))


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestExpectedBlockLength:
    def test_fair_t3(self):
        assert expected_block_length(FAIR, 3) == 8

    def test_skewed_t2(self):
        assert expected_block_length(ProbabilityVector.parse("9/10,1/10"), 2) == F(100, 9)

    def test_t1_is_reciprocal_of_second_symbol(self):
        assert expected_block_length(Q13, 1) == F(3, 2)

    def test_requires_two_symbols(self):
        with pytest.raises(ValueError):
            expected_block_length(ProbabilityVector.parse("1"), 2)


@pytest.mark.parametrize(
    "a,t,message",
    [
        (1, 3, "alphabet size 1 outside 2..4096"),
        (4097, 3, "alphabet size 4097 outside 2..4096"),
        (3, 0, "marker length must be >= 1, got 0"),
    ],
)
def test_pattern_config_checks_a_and_t(a, t, message):
    # PatternConfig is the one check of a and t, so the calibration refuses
    # what every command refuses, in the same words.
    with pytest.raises(ValueError) as refused:
        PatternConfig(a, t)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        expected_block_length(ProbabilityVector((F(1, a),) * a), t)
    assert str(refused.value) == message
    if t >= 1:
        with pytest.raises(ValueError) as refused:
            select_marker_length(FAIR, F(2, 5), a)
        assert str(refused.value) == message


class TestSampleBlocks:
    def test_deterministic_given_seed(self):
        a = sample_blocks(FAIR, 3, 50, seed=42)
        b = sample_blocks(FAIR, 3, 50, seed=42)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_words_marker_free_and_lengths_consistent(self):
        lams, words = sample_blocks(FAIR, 3, 200, seed=1)
        for lam, w in zip(lams, words):
            assert lam == len(w) + 3
            assert 2 not in [
                1 for i in range(len(w) - 2)
                if w[i] == 2 and w[i + 1] == 1 and w[i + 2] == 1
            ]

    def test_mean_near_exact_value(self):
        lams, _ = sample_blocks(FAIR, 4, 20000, seed=7)
        se = lams.std(ddof=1) / math.sqrt(len(lams))
        assert abs(lams.mean() - 16) < 3 * se + 1e-9

    @pytest.mark.parametrize(
        "p,t,count,seed,lams_digest,words_digest",
        [
            (
                FAIR, 3, 200, 1,
                "81199327f98d8e180976f2fa45ba061f01f956da6adf9a182027b157d718703e",
                "0fb258fb9b18dda21aaa193142c756f6724cee74596643b4a4b24cc062ed8f37",
            ),
            (
                ProbabilityVector.parse("1/2,1/4,1/4"), 6, 50, 7,
                "6474c5ab049316ca84389a5b00e476d5250aa596faa7b3c822484967b74f0e09",
                "f96f00f4da86eae8479de4f79038b31d3f6b4f941de81999ef9802425fc50b92",
            ),
            (
                wide_source(255), 3, 300, 11,
                "77267cfdf3492b5d7ea4ea15c29c2e7add68cd1e67f10f7e0467992e0b7870e6",
                "3d1a74dbe37ba5373397a9fa53da886c57470f8079206c1ac5c5b4ef2b871738",
            ),
            (
                wide_source(256), 3, 300, 11,
                "77267cfdf3492b5d7ea4ea15c29c2e7add68cd1e67f10f7e0467992e0b7870e6",
                "03e935d43b3fe74a4ce1bee378ab37583f2230a1e6885b33b4c870beec58f123",
            ),
            (
                wide_source(300), 3, 300, 11,
                "77267cfdf3492b5d7ea4ea15c29c2e7add68cd1e67f10f7e0467992e0b7870e6",
                "f920f4e09918557ad00d1ec8e5640285512f32efa0e7ff493755f2a09b76478d",
            ),
        ],
        ids=["2", "3", "255", "256", "300"],
    )
    def test_pinned_sample(self, p, t, count, seed, lams_digest, words_digest):
        # Recorded when every word was a tuple: the words hold the same
        # symbols as bytes below 256 symbols and as lists from 256 on.
        lams, words = sample_blocks(p, t, count, seed)
        assert digest(lams.tolist()) == lams_digest
        assert digest([tuple(w) for w in words]) == words_digest
        assert {type(w) for w in words} == {bytes if p.size < 256 else list}


class TestCertify:
    def test_healthy_gap_passes(self):
        rep = certify_marker_length(UNIF3, FAIR, 4, 2000, seed=11)
        assert rep.status == "pass"
        assert rep.margin > 3 * rep.stderr_bits
        assert rep.expected_block_len == 81

    def test_zero_gap_never_passes(self):
        rep = certify_marker_length(FAIR, FAIR, 3, 2000, seed=11)
        assert rep.status in ("fail", "inconclusive")

    def test_tiny_trials_inconclusive(self):
        rep = certify_marker_length(UNIF3, FAIR, 4, 10, seed=11)
        assert rep.status == "inconclusive"

    def test_pass_consistent_under_more_trials(self):
        small = certify_marker_length(UNIF3, FAIR, 4, 1000, seed=5)
        large = certify_marker_length(UNIF3, FAIR, 4, 3000, seed=5)
        assert small.status == "pass" and large.status == "pass"

    @pytest.mark.parametrize(
        "mean_bits,status",
        [(13.5, "pass"), (13.0, "inconclusive"), (7.0, "inconclusive"), (6.5, "fail")],
    )
    def test_status_from_margin_in_standard_errors(self, mean_bits, status):
        # A margin of exactly +3 or -3 standard errors is inconclusive.
        rep = CertificationReport(
            marker_len=3,
            trials=100,
            seed=0,
            mean_bits=mean_bits,
            stderr_bits=1.0,
            sim_bound=10.0,
            expected_block_len=F(8),
            mean_block_len=8.0,
        )
        assert rep.margin == mean_bits - 10.0
        assert rep.status == status

    @pytest.mark.parametrize(
        "p,t,trials,seed",
        [(ProbabilityVector.parse("1/2,1/4,1/4"), 6, 300, 168), (UNIF3, 4, 1000, 11)],
    )
    def test_report_equals_one_from_full_extraction(self, monkeypatch, p, t, trials, seed):
        # Stopping each rank walk early must leave every field as it was
        # when each block was extracted to its last symbol.
        rep = certify_marker_length(p, FAIR, t, trials, seed)
        monkeypatch.setattr(calibration, "_bit_count", lambda w, cfg: extract(w, cfg).num_bits)
        assert rep == certify_marker_length(p, FAIR, t, trials, seed)

    @pytest.mark.parametrize(
        "a,fields_digest",
        [
            (255, "a70de8b1a98015ad16cb50e7bedd9a4b60ff89646876d043548732f0c10720e2"),
            (300, "2968cd2783c98ed62ee0e049926ce08d3abc6bfa277003e1c7a463bc348881ba"),
        ],
        ids=["255", "300"],
    )
    def test_pinned_report(self, a, fields_digest):
        # Either side of the byte-fit test on the alphabet size.
        rep = certify_marker_length(wide_source(a), FAIR, 3, 300, 11)
        fields = (
            rep.marker_len, rep.trials, rep.seed, rep.mean_bits, rep.stderr_bits,
            rep.sim_bound, rep.expected_block_len, rep.mean_block_len,
            rep.margin, rep.status,
        )
        assert digest(fields) == fields_digest


class TestBitCountOnSampledWords:
    # (p, t, seeds, count): t = 5 seed 18 and t = 6 seeds 7 and 15 each hold a
    # word whose term loop does not settle within t steps and that is wide,
    # so its count comes from the window walk.
    CASES = [
        (ProbabilityVector.parse("1/2,1/4,1/4"), 3, (0, 1), 200),
        (ProbabilityVector.parse("1/2,1/4,1/4"), 4, (0, 1), 200),
        (ProbabilityVector.parse("1/2,1/4,1/4"), 5, (18,), 200),
        (ProbabilityVector.parse("1/2,1/4,1/4"), 6, (7, 15), 200),
        (wide_source(300), 3, (0,), 100),
    ]

    def test_count_agrees_with_extraction_in_any_container(self, monkeypatch):
        walks = []
        window_walk = extractor._window_walk

        def counted(word, counts, t):
            walks.append(t)
            return window_walk(word, counts, t)

        for p, t, seeds, count in self.CASES:
            cfg = PatternConfig(p.size, t)
            for seed in seeds:
                _, words = sample_blocks(p, t, count, seed)
                for w in words:
                    with monkeypatch.context() as m:
                        m.setattr(extractor, "_window_walk", counted)
                        n = _bit_count(w, cfg)
                    assert n == _bit_count(tuple(w), cfg) == extract(tuple(w), cfg).num_bits
        assert sorted(walks) == [5, 6, 6]


class TestSelectMarkerLength:
    def test_smaller_gap_never_smaller_t(self):
        ts = [
            select_marker_length(FAIR, eps, 3)
            for eps in (F(2, 5), F(1, 5), F(1, 10), F(1, 20))
        ]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_larger_alphabet_never_smaller_t(self):
        low = ProbabilityVector.parse("1/10,9/10")
        ts = [select_marker_length(low, F(1, 10), a) for a in (2, 3, 4, 6)]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            select_marker_length(FAIR, F(0), 3)

    def test_rejects_unattainable_gap(self):
        with pytest.raises(ValueError):
            select_marker_length(FAIR, F(1), 2)

    def test_selected_t_is_certified_by_sampling(self):
        # The certification run is the ground truth for the selector.
        t = select_marker_length(FAIR, F(2, 5), 3)
        rep = certify_marker_length(UNIF3, FAIR, t, 200, seed=20260810)
        assert rep.status == "pass"


class TestChiSquare:
    def test_exact_match(self):
        rep = chi_square([50, 50], FAIR)
        assert rep.statistic == 0 and rep.p_value == 1

    def test_pinned_statistic_and_gamma_oracle(self):
        rep = chi_square([30, 70], FAIR)
        assert rep.statistic == pytest.approx(16.0, abs=1e-12)
        oracle = float(mpmath.gammainc(0.5, 8, mpmath.inf, regularized=True))
        assert rep.p_value == pytest.approx(oracle, rel=1e-10)
        assert rep.p_value == pytest.approx(6.33e-5, rel=2e-3)

    def test_skewed_exact_match(self):
        rep = chi_square([25, 75], ProbabilityVector.parse("1/4,3/4"))
        assert rep.statistic == 0

    @pytest.mark.parametrize(
        "counts,q",
        [([130, 70], FAIR), ([10, 20, 70], UNIF3), ([1, 99], Q13)],
    )
    def test_p_values_match_mpmath(self, counts, q):
        rep = chi_square(counts, q)
        oracle = float(
            mpmath.gammainc(rep.df / 2, rep.statistic / 2, mpmath.inf, regularized=True)
        )
        assert rep.p_value == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("df", range(1, 12))
    def test_closed_form_matches_mpmath(self, df):
        with mpmath.workdps(30):
            for stat in [k / 4 for k in range(601)] + [0.01, 1e-9, 149.99]:
                oracle = mpmath.gammainc(
                    mpmath.mpf(df) / 2, mpmath.mpf(stat) / 2, mpmath.inf, regularized=True
                )
                assert _chi2_sf(stat, df) == pytest.approx(float(oracle), rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square([1, 2, 3], FAIR)
        with pytest.raises(ValueError):
            chi_square([0, 0], FAIR)


class TestTailFit:
    def test_geometric_half(self):
        rng = np.random.Generator(np.random.PCG64(3))
        fit = tail_fit(rng.geometric(0.5, size=100_000))
        assert fit.slope == pytest.approx(-math.log(2), abs=0.05)
        assert fit.r_squared > 0.99

    def test_geometric_three_quarters(self):
        rng = np.random.Generator(np.random.PCG64(4))
        fit = tail_fit(rng.geometric(0.75, size=100_000))
        assert fit.slope == pytest.approx(math.log(0.25), abs=0.1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            tail_fit([5] * 200)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            tail_fit(list(range(50)))


class TestVerifySimu1:
    def test_q13_tight_bound_holds_to_20(self):
        rep = verify_simu1(Q13, 20)
        assert not rep.dyadic_interior
        assert rep.tight_bound_ok and rep.loose_bound_ok and rep.mean_ok

    def test_fair_coin_tight_bound_fails_at_3(self):
        rep = verify_simu1(FAIR, 20)
        assert rep.dyadic_interior
        assert rep.survival[3] == F(1, 2) > F(3, 8)
        assert not rep.tight_bound_ok
        assert rep.loose_bound_ok

    def test_fair_coin_mean_four_under_bound(self):
        rep = verify_simu1(FAIR, 30)
        assert rep.mean_lo <= 4 <= rep.mean_hi
        assert rep.mean_ok and rep.entropy_bound == pytest.approx(7.0, abs=1e-9)

    @pytest.mark.parametrize(
        "text", ["1/2,1/2", "1/3,2/3", "1/4,1/4,1/2", "1/6,1/3,1/2", "3/8,1/8,1/2"]
    )
    def test_agrees_with_tree_pruning_route(self, text):
        # Two independent exact methods: endpoint location vs interval
        # splitting.  A report holds only the target and the survival, so
        # equal reports mean equal survival at every depth.
        q = ProbabilityVector.parse(text)
        assert verify_simu1(q, 16) == exact_tail(q, 16)


class TestVerifyExtractor:
    def test_a2_t3(self):
        rep = verify_extractor(2, 3, 4, [FAIR, Q13])
        assert rep.ok
        assert rep.pattern_free_counts[3] == 7  # classes of sizes 1+2+3+1
        assert rep.pattern_free_counts[0] == 1  # the empty word

    def test_a2_t2(self):
        rep = verify_extractor(2, 2, 4, [FAIR, Q13])
        assert rep.ok
        assert rep.pattern_free_counts[3] == 4  # 111, 112, 122, 222

    def test_a3_t2(self):
        rep = verify_extractor(
            3, 2, 4, [UNIF3, ProbabilityVector.parse("1/6,1/3,1/2")]
        )
        assert rep.ok

    def test_source_vector_size_checked(self):
        with pytest.raises(ValueError):
            verify_extractor(3, 2, 3, [FAIR])
