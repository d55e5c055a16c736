"""Marker-length selection and statistical/exact verification harnesses.

Monte-Carlo routines are deterministic functions of their inputs and a seed;
the generator is numpy's PCG64 (128-bit state), and every report carries the
seed it was produced with.  Exact routines use rational arithmetic end to
end.  verify_simu1 deliberately shares no code path with the tree-pruning
analyzer in :mod:`finitary.dyadic`: it locates each cumulative point among
the level-k dyadic intervals directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import ProbabilityVector, cumulative, entropy
from .dyadic import _has_dyadic_interior
from .engine import scan_markers
# Sampled and enumerated words are plain in-range ints, so they skip the check;
# sampled words lie between markers, so they are pattern-free too.
from .extractor import (
    PatternConfig,
    _bit_count,
    _extract as extract,
    class_from_index,
    class_size,
    count_vector,
    invert,
)

LOG2 = math.log(2)
# select_marker_length accepts the first t whose worst-case surplus clears
# _SELECTION_SAFETY bits, and gives up past _MAX_MARKER_LEN.
_SELECTION_SAFETY = 1.0
_MAX_MARKER_LEN = 512


def expected_block_length(p: ProbabilityVector, t: int) -> Fraction:
    """Exact mean distance between consecutive markers: 1/(p(2) p(1)^(t-1))."""
    if p.size < 2:
        raise ValueError("marker pattern needs symbols 1 and 2")
    if t < 1:
        raise ValueError("marker length must be >= 1")
    return 1 / (p.prob(2) * p.prob(1) ** (t - 1))


def _exact_sampler(p: ProbabilityVector):
    """Return (den, thresholds) for exact integer-threshold sampling of p."""
    den = math.lcm(*(v.denominator for v in p.entries))
    if den >= 2**63:
        raise ValueError("denominators too large for integer sampling")
    nums = [int(v * den) for v in p.entries]
    return den, np.cumsum(nums)


def sample_symbols(p: ProbabilityVector, count: int, rng: np.random.Generator) -> np.ndarray:
    """Exact i.i.d. sample of ``count`` symbols 1..len(p)."""
    den, thresholds = _exact_sampler(p)
    draws = rng.integers(0, den, size=count)
    return (np.searchsorted(thresholds, draws, side="right") + 1).astype(np.int64)


def sample_blocks(
    p: ProbabilityVector,
    t: int,
    count: int,
    seed: int,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Sample ``count`` i.i.d. non-central blocks of the marker process.

    Draws a p-stream and takes the stretches between consecutive marker
    occurrences; returns (block lengths, interior words).  Deterministic
    given the seed.  Gives up after 64 times the expected number of symbols
    (plus slack) without ``count`` blocks.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    e_lam = float(expected_block_length(p, t))
    cap = int(64 * (count + 16) * e_lam) + 4096
    cfg = PatternConfig(p.size, t)
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(0, dtype=np.int64)
    while True:
        chunk = max(4096, int(e_lam * (count + 8) * 1.25) + 1024 - len(buf))
        buf = np.concatenate([buf, sample_symbols(p, chunk, rng)])
        markers = scan_markers(buf.tolist(), cfg)
        if len(markers) >= count + 1:
            break
        if len(buf) > cap:
            raise RuntimeError(
                f"needed more than {cap} symbols for {count} blocks; "
                "marker pattern too rare"
            )
    markers = markers[: count + 1]
    lams = np.diff(markers).astype(int)
    words = [tuple(buf[markers[i] + t : markers[i + 1]].tolist()) for i in range(count)]
    return lams, words


@dataclass(frozen=True)
class CertificationReport:
    """Empirical check that blocks yield more bits than their simulation eats.

    ``mean_bits`` estimates the expected bits extracted per block; the
    analytic ``sim_bound`` bounds the expected bits a block's simulation
    consumes.  pass = the estimate clears the bound by more than 3 standard
    errors; fail = it falls short by more than 3; anything else is
    inconclusive.
    """

    marker_len: int
    trials: int
    seed: int
    mean_bits: float
    stderr_bits: float
    sim_bound: float
    expected_block_len: Fraction
    margin: float
    status: str
    mean_block_len: float
    stderr_block_len: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def certify_marker_length(
    p: ProbabilityVector,
    q: ProbabilityVector,
    t: int,
    trials: int,
    seed: int,
) -> CertificationReport:
    """Sample blocks under ``p`` and test mean extracted bits against the
    simulation-cost bound (h(q)/log 2) E(block length) + 6."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    cfg = PatternConfig(p.size, t)
    lams, words = sample_blocks(p, t, trials, seed)
    bits = np.array([_bit_count(w, cfg) for w in words], dtype=float)
    lams_f = lams.astype(float)
    mean_bits = float(bits.mean())
    se_bits = float(bits.std(ddof=1) / math.sqrt(trials))
    e_lam = expected_block_length(p, t)
    bound = entropy(q) / LOG2 * float(e_lam) + 6.0
    margin = mean_bits - bound
    if margin > 3 * se_bits:
        status = "pass"
    elif margin < -3 * se_bits:
        status = "fail"
    else:
        status = "inconclusive"
    return CertificationReport(
        marker_len=t,
        trials=trials,
        seed=seed,
        mean_bits=mean_bits,
        stderr_bits=se_bits,
        sim_bound=bound,
        expected_block_len=e_lam,
        margin=margin,
        status=status,
        mean_block_len=float(lams_f.mean()),
        stderr_block_len=float(lams_f.std(ddof=1) / math.sqrt(trials)),
    )


def _geom_entropy(mu: float) -> float:
    """Maximal entropy (nats) of a non-negative integer variable with mean mu."""
    if mu <= 0:
        return 0.0
    return (mu + 1) * math.log(mu + 1) - mu * math.log(mu)


def _selection_margin(u: float, eps: float, alphabet_size: int) -> float:
    """Worst-case surplus of extracted bits over simulation cost at mean
    block length ``u``: the entropy-gap gain minus the per-block overheads
    (block-length and bit-count entropies bounded by the geometric maximum,
    class-index entropy by its range)."""
    penalty = (
        _geom_entropy(u)
        + _geom_entropy(u * math.log2(alphabet_size))
        + (alphabet_size - 1) * math.log(u + alphabet_size - 1)
    )
    return eps / LOG2 * u - 6.0 - penalty / LOG2


def select_marker_length(
    q: ProbabilityVector,
    epsilon: Fraction,
    alphabet_size: int,
) -> int:
    """Smallest marker length whose bit surplus is positive for *every*
    admissible source on ``alphabet_size`` symbols.

    Admissible sources have entropy at least h(q) + epsilon, which forces
    every symbol probability below 1 - delta, where delta solves
    H(m) + (1-m) log(a-1) = h(q) + epsilon on (1/a, 1); the mean block
    length is then at least u_min(t) = (1-delta)^-(t-1).  t is accepted when
    the surplus at u_min clears one bit and keeps growing beyond it
    (u_min >= (a+1)/epsilon).  Conservative by construction; the empirical
    certifier is the authoritative check.  Raises RuntimeError when no t up
    to 512 is accepted.
    """
    eps = float(epsilon)
    if eps <= 0:
        raise ValueError("entropy gap must be positive")
    if alphabet_size < 2:
        raise ValueError("alphabet size must be >= 2")
    target = entropy(q) + eps
    log_a = math.log(alphabet_size)
    if target >= log_a - 1e-12:
        raise ValueError(
            f"no source on {alphabet_size} symbols has entropy >= {target:.6f}"
        )

    def grouped(mx: float) -> float:
        rest = 1.0 - mx
        h2 = -mx * math.log(mx) - rest * math.log(rest) if 0 < mx < 1 else 0.0
        return h2 + rest * math.log(alphabet_size - 1) if alphabet_size > 2 else h2

    lo, hi = 1.0 / alphabet_size, 1.0 - 1e-15
    for _ in range(200):
        mid = (lo + hi) / 2
        if grouped(mid) > target:
            lo = mid
        else:
            hi = mid
    m_star = hi  # every admissible source has max probability <= m_star
    for t in range(1, _MAX_MARKER_LEN + 1):
        u_min = m_star ** (-(t - 1))
        if u_min * eps < alphabet_size + 1:
            continue
        if _selection_margin(u_min, eps, alphabet_size) > _SELECTION_SAFETY:
            return t
    raise RuntimeError(f"no marker length up to {_MAX_MARKER_LEN} certifies; gap too small")


@dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    df: int
    p_value: float

    def __post_init__(self) -> None:
        if self.statistic < 0 or not 0 <= self.p_value <= 1:
            raise ValueError("malformed chi-square report")


def _chi2_sf(stat: float, df: int) -> float:
    """P(X > stat) for X chi-square with integer ``df`` >= 1.

    The closed form of the regularized upper incomplete gamma function at
    half-integers (Abramowitz & Stegun 26.4.4-5): with h = stat/2,
    ``exp(-h) * sum(h^k / Gamma(k + 1))`` over k = df/2 - 1, df/2 - 2, ...
    down to 0 or 1/2, plus ``erfc(sqrt(h))`` when df is odd.  Every part
    is positive, so the relative error stays near the rounding of ``exp``.
    """
    h = stat / 2
    if df % 2:
        head, k, term = math.erfc(math.sqrt(h)), 0.5, 2 * math.sqrt(h / math.pi)
    else:
        head, k, term = 0.0, 0.0, 1.0
    total = 0.0
    while k < df / 2:
        total += term
        k += 1
        term *= h / k
    return min(1.0, head + math.exp(-h) * total)


def chi_square(counts: Sequence[int], q: ProbabilityVector) -> ChiSquareReport:
    """Pearson goodness-of-fit of observed counts against ``q``.

    The p-value is the chi-square survival function at df = len(q) - 1
    (see ``_chi2_sf``).
    """
    if len(counts) != q.size:
        raise ValueError(f"{len(counts)} counts for {q.size} categories")
    if q.size < 2:
        raise ValueError("need at least 2 categories")
    if any(c < 0 for c in counts):
        raise ValueError("negative count")
    n = sum(counts)
    if n <= 0:
        raise ValueError("no observations")
    stat = 0.0
    for c, prob in zip(counts, q.entries):
        expected = n * float(prob)
        if expected == 0:
            raise ValueError("zero expected cell")
        stat += (c - expected) ** 2 / expected
    df = q.size - 1
    p_value = _chi2_sf(stat, df)
    return ChiSquareReport(statistic=stat, df=df, p_value=p_value)


@dataclass(frozen=True)
class TailFit:
    slope: float
    intercept: float
    r_squared: float


def tail_fit(samples: Sequence[int]) -> TailFit:
    """Least-squares fit of the log empirical survival function against n.

    Fits over the n with survival estimate >= 10/len(samples), starting at
    the smallest observed value (below it the survival function is
    identically 1 and carries no tail information).  Negative slope with
    high R^2 is the signature of an exponential tail.
    """
    arr = np.asarray(samples, dtype=np.int64)
    if arr.size < 100:
        raise ValueError(f"need at least 100 samples, got {arr.size}")
    if arr.min() < 0:
        raise ValueError("samples must be non-negative")
    if arr.min() == arr.max():
        raise ValueError("degenerate (constant) samples")
    n = arr.size
    xs = np.arange(int(arr.min()), int(arr.max()) + 1)
    srt = np.sort(arr)
    survival = (n - np.searchsorted(srt, xs, side="left")) / n
    keep = survival >= 10.0 / n
    xs, survival = xs[keep], survival[keep]
    if xs.size < 3:
        raise ValueError("degenerate tail: too few usable survival points")
    ys = np.log(survival)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (intercept + slope * xs)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0:
        raise ValueError("degenerate tail: constant survival")
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return TailFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


@dataclass(frozen=True)
class Simu1Report:
    """Exact stopping-time bound check for one target vector.

    ``survival[k]`` = P(T > k).  ``tight_bound_ok`` tests (b+1)/2^k (can fail
    when an interior cumulative point is dyadic), ``loose_bound_ok`` tests
    the universal 2(b+1)/2^k, and ``mean_ok`` the enclosure against
    h(q)/log 2 + 6.
    """

    target: ProbabilityVector
    kmax: int
    survival: tuple[Fraction, ...]
    tight_bound_ok: bool
    loose_bound_ok: bool
    dyadic_interior: bool
    mean_lo: Fraction
    mean_hi: Fraction
    entropy_bound: float
    mean_ok: bool


def verify_simu1(q: ProbabilityVector, kmax: int) -> Simu1Report:
    """Exact tail and mean verification by direct endpoint location.

    For each depth k, an interval of the level-k dyadic grid stays undecided
    iff its closure contains a cumulative point; each point lands in one
    interval, or two when it sits exactly on the grid.  No tree traversal —
    this is an independent route from dyadic.exact_tail.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    cum = cumulative(q)
    b = q.size
    survival: list[Fraction] = []
    for k in range(kmax + 1):
        cells: set[int] = set()
        for value in cum:
            if value == 0:
                cells.add(0)
            elif value == 1:
                cells.add((1 << k) - 1)
            else:
                cell, rem = divmod(value.numerator << k, value.denominator)
                cells.add(cell)
                if rem == 0:
                    cells.add(cell - 1)
        survival.append(Fraction(len(cells), 1 << k))
    mean_lo = sum(survival[:-1], Fraction(0))
    mean_hi = mean_lo + Fraction(2 * (b + 1), 1 << (kmax - 1))
    bound = entropy(q) / LOG2 + 6.0
    return Simu1Report(
        target=q,
        kmax=kmax,
        survival=tuple(survival),
        tight_bound_ok=all(
            s <= Fraction(b + 1, 1 << k) for k, s in enumerate(survival)
        ),
        loose_bound_ok=all(
            s <= Fraction(2 * (b + 1), 1 << k) for k, s in enumerate(survival)
        ),
        dyadic_interior=_has_dyadic_interior(cum),
        mean_lo=mean_lo,
        mean_hi=mean_hi,
        entropy_bound=bound,
        mean_ok=float(mean_hi) <= bound + 1e-9,
    )


def _contains_marker(word: tuple[int, ...], t: int) -> bool:
    # Definitional scan, independent of the extractor's automaton.
    n = len(word)
    for i in range(n - t + 1):
        if word[i] == 2 and all(word[i + d] == 1 for d in range(1, t)):
            return True
    return False


@dataclass(frozen=True)
class ExtractorReport:
    """Exhaustive verification of the extraction triple at small lengths."""

    alphabet_size: int
    marker_len: int
    nmax: int
    pattern_free_counts: tuple[int, ...]
    injective: bool
    roundtrip: bool
    size_bound: bool
    partition: bool
    uniform: bool

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.roundtrip
            and self.size_bound
            and self.partition
            and self.uniform
        )


def verify_extractor(
    alphabet_size: int,
    t: int,
    nmax: int,
    p_list: Iterable[ProbabilityVector],
) -> ExtractorReport:
    """Check injectivity, invertibility, exact conditional bit uniformity
    for every p in ``p_list``, the 2^N <= class size bound, and the class
    partition identity, for every word length n <= nmax.  Exhaustive."""
    cfg = PatternConfig(alphabet_size, t)
    p_list = list(p_list)
    for p in p_list:
        if p.size != alphabet_size:
            raise ValueError("source vector size must match the alphabet")
    injective = roundtrip = size_bound = partition = uniform = True
    counts_per_n: list[int] = []
    for n in range(nmax + 1):
        free = [
            w
            for w in itertools.product(range(1, alphabet_size + 1), repeat=n)
            if not _contains_marker(w, t)
        ]
        counts_per_n.append(len(free))
        triples: dict[tuple, tuple[int, ...]] = {}
        class_totals: dict[tuple[int, ...], int] = {}
        masses = [dict() for _ in p_list]
        for w in free:
            trip = extract(w, cfg)
            key = (trip.num_bits, trip.bits, trip.class_id)
            if key in triples:
                injective = False
            triples[key] = w
            if invert(n, cfg, trip) != w:
                roundtrip = False
            m = count_vector(w, alphabet_size)
            d = class_size(m, cfg)
            if (1 << trip.num_bits) > d:
                size_bound = False
            class_totals[m] = class_totals.get(m, 0) + 1
            for mass, p in zip(masses, p_list):
                weight = Fraction(1)
                for sym, cnt in enumerate(m, start=1):
                    weight *= p.prob(sym) ** cnt
                bucket = mass.setdefault(trip.num_bits, {})
                bits_key = trip.bits
                bucket[bits_key] = bucket.get(bits_key, Fraction(0)) + weight
        for m, observed in class_totals.items():
            if class_size(m, cfg) != observed:
                partition = False
        ncls = math.comb(n + alphabet_size - 1, alphabet_size - 1)
        all_vectors = [class_from_index(n, alphabet_size, g) for g in range(1, ncls + 1)]
        if sum(class_size(m, cfg) for m in all_vectors) != len(free):
            partition = False
        for mass in masses:
            for k, bucket in mass.items():
                if len(bucket) != (1 << k):
                    uniform = False
                if len(set(bucket.values())) > 1:
                    uniform = False
    return ExtractorReport(
        alphabet_size=alphabet_size,
        marker_len=t,
        nmax=nmax,
        pattern_free_counts=tuple(counts_per_n),
        injective=injective,
        roundtrip=roundtrip,
        size_bound=size_bound,
        partition=partition,
        uniform=uniform,
    )
