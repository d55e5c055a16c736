"""Marker-length selection and certification, and the checks behind the
CLI's ``verify-bounds``, ``analyze`` and ``tails``.

Monte-Carlo routines are deterministic functions of their inputs and a seed;
the generator is numpy's PCG64 (128-bit state), and every report carries the
seed it was produced with.  Exact routines use rational arithmetic end to
end.  verify_simu1 computes the stopping-time survival by a route that
shares no code with the tree-pruning analyzer in :mod:`finitary.dyadic`: it
locates each cumulative point among the level-k dyadic intervals directly,
reading the target's integer cumulative sums ``C_j/Q`` as the cursor does.
Both return a ``dyadic.TailReport``, which derives the bounds and the mean
enclosure from the survival, so the acceptance criteria compare the two
survivals and recompute the bounds by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

# numpy is imported by the three functions that use it, so that importing
# the package, as every command does, loads none.
if TYPE_CHECKING:
    import numpy as np

from .core import ProbabilityVector, entropy
from .dyadic import TailReport
# Sampled words are in-range ints that lie between markers, so they are
# pattern-free and skip the word check.
from .extractor import PatternConfig, _bit_count, scan_markers

LOG2 = math.log(2)
# select_marker_length accepts the first t whose worst-case surplus clears
# _SELECTION_SAFETY bits, and gives up past _MAX_MARKER_LEN.
_SELECTION_SAFETY = 1.0
_MAX_MARKER_LEN = 512
# sample_blocks refuses a first draw of more symbols than this; a long
# marker's mean block would otherwise ask for more memory than there is.
_MAX_DRAW = 1 << 26
# tail_fit refuses to fit over more integers than this.
_MAX_TAIL_SPAN = 1 << 22


def expected_block_length(p: ProbabilityVector, t: int) -> Fraction:
    """Exact mean distance between consecutive markers: 1/(p(2) p(1)^(t-1)).
    ``PatternConfig`` checks the alphabet size of p and t."""
    PatternConfig(p.size, t)
    return 1 / (p.prob(2) * p.prob(1) ** (t - 1))


def sample_blocks(
    p: ProbabilityVector,
    t: int,
    count: int,
    seed: int,
) -> tuple[np.ndarray, list[bytes] | list[list[int]]]:
    """Sample ``count`` i.i.d. non-central blocks of the marker process.

    Draws a p-stream, each symbol exactly: a uniform integer below the
    common denominator, placed among the scaled cumulative sums.  Takes the
    stretches between consecutive marker occurrences; returns (block
    lengths, interior words).  When the source fits in a byte (fewer than
    256 symbols), the draw becomes one byte per symbol once, the markers are
    scanned in those bytes, and each word is a ``bytes`` slice of them;
    otherwise each word is a list of ints, a slice of the draw as one list.
    Deterministic given the seed.  Gives up after 64 times the expected
    number of symbols (plus slack) without ``count`` blocks.  Raises
    ValueError before drawing when the first draw would hold more than
    ``_MAX_DRAW`` symbols, or the denominator is 2^63 or more.
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    lam = expected_block_length(p, t)
    if lam * (count + 8) * 5 / 4 + 1024 > _MAX_DRAW:
        raise ValueError(
            f"sampling {count} trials at t = {t} would draw more than "
            f"{_MAX_DRAW} symbols at once; use a smaller t or fewer trials"
        )
    e_lam = float(lam)
    cap = int(64 * (count + 16) * e_lam) + 4096
    cfg = PatternConfig(p.size, t)
    cum, den = p.scaled_cumulative
    if den >= 2**63:
        raise ValueError("denominators too large for integer sampling")
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(0, dtype=np.int64)
    while True:
        chunk = max(4096, int(e_lam * (count + 8) * 1.25) + 1024 - len(buf))
        draws = rng.integers(0, den, size=chunk)
        symbols = (np.searchsorted(cum[1:], draws, side="right") + 1).astype(np.int64)
        buf = np.concatenate([buf, symbols])
        del draws, symbols  # freed before the byte copies of buf below
        data = buf.astype(np.uint8).tobytes() if p.size < 256 else buf.tolist()
        markers = scan_markers(data, cfg)
        if len(markers) >= count + 1:
            break
        if len(buf) > cap:
            raise RuntimeError(
                f"needed more than {cap} symbols for {count} blocks; "
                "marker pattern too rare"
            )
    markers = markers[: count + 1]
    lams = np.diff(markers).astype(int)
    words = [data[markers[i] + t : markers[i + 1]] for i in range(count)]
    return lams, words


@dataclass(frozen=True)
class CertificationReport:
    """Empirical check that blocks yield more bits than their simulation eats.

    ``mean_bits`` estimates the expected bits extracted per block; the
    analytic ``sim_bound`` bounds the expected bits a block's simulation
    consumes.  ``margin`` is the first less the second, and ``status`` is
    pass when it exceeds 3 standard errors, fail when it falls below minus
    3, and inconclusive otherwise.
    """

    marker_len: int
    trials: int
    seed: int
    mean_bits: float
    stderr_bits: float
    sim_bound: float
    expected_block_len: Fraction
    mean_block_len: float

    @property
    def margin(self) -> float:
        return self.mean_bits - self.sim_bound

    @property
    def status(self) -> str:
        if self.margin > 3 * self.stderr_bits:
            return "pass"
        if self.margin < -3 * self.stderr_bits:
            return "fail"
        return "inconclusive"


def certify_marker_length(
    p: ProbabilityVector,
    q: ProbabilityVector,
    t: int,
    trials: int,
    seed: int,
) -> CertificationReport:
    """Sample blocks under ``p`` and test mean extracted bits against the
    simulation-cost bound (h(q)/log 2) E(block length) + 6."""
    import numpy as np

    if trials < 2:
        raise ValueError("need at least 2 trials")
    cfg = PatternConfig(p.size, t)
    lams, words = sample_blocks(p, t, trials, seed)
    bits = np.array([_bit_count(w, cfg) for w in words], dtype=float)
    e_lam = expected_block_length(p, t)
    return CertificationReport(
        marker_len=t,
        trials=trials,
        seed=seed,
        mean_bits=float(bits.mean()),
        stderr_bits=float(bits.std(ddof=1) / math.sqrt(trials)),
        sim_bound=entropy(q) / LOG2 * float(e_lam) + 6.0,
        expected_block_len=e_lam,
        mean_block_len=float(lams.astype(float).mean()),
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
    certifier is the authoritative check.  ``PatternConfig`` checks the
    alphabet size.  Raises RuntimeError when no t up to 512 is accepted.
    """
    PatternConfig(alphabet_size, 1)
    eps = float(epsilon)
    if eps <= 0:
        raise ValueError("entropy gap must be positive")
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
    identically 1 and carries no tail information).  Those n run up to the
    tenth-largest sample, so samples above it do not widen the fit.
    Negative slope with high R^2 is the signature of an exponential tail.
    Raises ValueError on a sample outside the int64 range, and when the fit
    would span more than ``_MAX_TAIL_SPAN`` (2^22) integers.
    """
    import numpy as np

    try:
        arr = np.asarray(samples, dtype=np.int64)
    except OverflowError:
        raise ValueError("samples must lie in the int64 range") from None
    if arr.size < 100:
        raise ValueError(f"need at least 100 samples, got {arr.size}")
    if arr.min() < 0:
        raise ValueError("samples must be non-negative")
    if arr.min() == arr.max():
        raise ValueError("degenerate (constant) samples")
    n = arr.size
    srt = np.sort(arr)
    # At least ten samples are >= x exactly for x up to the tenth-largest.
    lo, hi = int(srt[0]), int(srt[-10])
    if hi - lo >= _MAX_TAIL_SPAN:
        raise ValueError(
            f"the fit over samples {lo}..{hi} would span more than {_MAX_TAIL_SPAN} integers"
        )
    xs = np.arange(lo, hi + 1)
    survival = (n - np.searchsorted(srt, xs, side="left")) / n
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


def verify_simu1(q: ProbabilityVector, kmax: int) -> TailReport:
    """Exact survival P(T > k) for k <= kmax, by direct endpoint location.

    For each depth k, an interval of the level-k dyadic grid stays undecided
    iff its closure contains a cumulative point; each point lands in one
    interval, or two when it sits exactly on the grid.  The point C_j/Q
    lies in interval ``(C_j * 2^k) // Q``, on the grid iff the division is
    exact.  No tree traversal: the survival comes by an independent route
    from dyadic.exact_tail, and only the report built from it, with its
    derived bounds and mean enclosure, is shared.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    cum, den = q.scaled_cumulative
    survival: list[Fraction] = []
    for k in range(kmax + 1):
        cells: set[int] = set()
        for c in cum:
            if c == 0:
                cells.add(0)
            elif c == den:
                cells.add((1 << k) - 1)
            else:
                cell, rem = divmod(c << k, den)
                cells.add(cell)
                if rem == 0:
                    cells.add(cell - 1)
        survival.append(Fraction(len(cells), 1 << k))
    return TailReport(q, tuple(survival))
