"""Simulation of a target distribution from independent unbiased bits.

Bits are read as the binary expansion of a point in [0, 1].  The unit
interval is partitioned by the cumulative sums of the target vector; a symbol
is determined as soon as the current dyadic interval lies *strictly* inside
one cell, at which point the cell is rescaled to [0, 1] and refinement
continues for the next symbol.  This is the interval algorithm of Han and
Hoshi (1997), the DDG-tree view of Knuth and Yao (1976).

The cursor does the refinement in exact integers: the cumulative sums become
integer numerators over their common denominator, and the undecided interval
is kept as numerators over one integer scale relative to the current cell.
Bits arrive as characters "0" and "1", a run at a time from an iterator
that several cursors may share, and ``DyadicCursor.read`` is the one loop
that refines the interval bit by bit.  Within a read it keeps the interval's
distances to the two ends of the cell that holds its left end, so a bit that
decides nothing costs two integer updates; the cell is looked up again only
when the left end leaves it and after a symbol is emitted.  Ties (an
endpoint landing exactly on a cell boundary) never decide, which keeps
success monotone under extension of the bit string.

Also provides exact analyzers of the stopping-time law: per-depth survival
probabilities, a rigorous enclosure of the expected stopping time, and the
per-symbol decided mass.  They refine the same integer cells as the cursor,
level by level over every undecided dyadic interval at once, and decide a
symbol by the cursor's strict rule, so a tie never decides there either;
only the counts they return become Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import Iterable, Iterator

from .core import ProbabilityVector, entropy


class InsufficientBitsError(ValueError):
    """Raised when a bit string is exhausted before the simulation succeeds."""


class DyadicCursor:
    """Incremental simulator of ``horizon`` i.i.d. ``target`` symbols.

    ``read`` takes bits as characters "0" and "1", in order, and stops at
    success or when the bits run out; symbols are emitted as soon as they
    are determined (several may cascade from a single bit).
    Once ``horizon`` symbols have been emitted the cursor is successful and
    frozen.

    The state is integer interval refinement.  With ``Q`` the common
    denominator of the target and ``C_0 = 0 < C_1 < ... < C_b = Q`` its
    cumulative numerators, the undecided interval, relative to the cell of
    the symbols emitted so far, is ``[L/D, (L+W)/D]``:

    - bit ``x`` sets ``L <- 2L + x*W`` and ``D <- 2D``;
    - symbol ``j`` is determined iff ``C_{j-1}*D < L*Q`` and
      ``(L+W)*Q < C_j*D``, both strict, so a tie never decides;
    - emitting ``j`` rescales the cell to [0, 1]: ``L <- L*Q - C_{j-1}*D``,
      ``W <- W*Q``, ``D <- D*(C_j - C_{j-1})``, then divides out the gcd.

    ``read`` works on the cell j that holds the left end, ``C_{j-1}*D <=
    L*Q < C_j*D``, through two integers:

        a = L*Q - C_{j-1}*D  (>= 0),    b = C_j*D - (L+W)*Q.

    A bit doubles both and adds ``W*Q`` to ``a`` for "1" or to ``b`` for
    "0", and symbol j is determined iff ``a > 0 and b > 0``.  A "0" keeps
    the left end in cell j.  ``bisect`` finds the cell at the start of a
    read, and again only when ``b + W*Q <= 0`` (the left end has reached
    ``C_j``) and after an emission.  ``D``'s doublings are applied as one
    shift at those points and at the end of the read, which stores ``L =
    (a + C_{j-1}*D)/Q`` and ``W`` back, so a read leaves (L, W, D) as the
    bit-by-bit rules above would.

    The gcd at an emission costs O(n) on n-bit integers, not the full
    gcd's O(n²).  After a reduction gcd(L, W, D) = 1, and bits keep it a
    power of 2: an odd prime dividing W and 2D divides D and then L.  So an
    odd prime power p^e dividing ``a``, ``W*Q`` and ``D*d`` (``d = C_j -
    C_{j-1}``) divides ``Q*d``.  If p misses W, p^e divides Q; if it misses
    D, p^e divides d; else p misses L, and p^e | a = L*Q - C_{j-1}*D gives
    e <= v_p(Q) or v_p(D) <= v_p(Q), with p^e | D*d.  So the gcd is the
    power of 2 that the three share times their gcd with the odd part of
    Q*d, a small number that reduces each of them in one pass; when Q*d is
    a power of 2 no gcd is taken.  Unless every entry of the target is a
    power of 1/2, the integers grow with every bit, so this is what keeps
    a long run of bits quadratic rather than cubic.

    A degenerate single-symbol target is supported; it still consumes at
    least two bits, since the interval must clear both endpoints of [0, 1].
    """

    __slots__ = (
        "horizon",
        "bits_consumed",
        "emitted",
        "_cum",
        "_den",
        "_odd",
        "_left",
        "_width",
        "_scale",
    )

    def __init__(self, target: ProbabilityVector, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self.bits_consumed = 0
        self.emitted: list[int] = []
        self._cum, self._den = target.scaled_cumulative  # C_0..C_b and Q
        self._odd = target.odd_cell_widths
        self._left = 0  # L
        self._width = 1  # W
        self._scale = 1  # D

    @property
    def successful(self) -> bool:
        return len(self.emitted) == self.horizon

    def read(self, bits: Iterable[str]) -> int:
        """Read "0"/"1" characters from ``bits`` until the cursor succeeds
        or they run out; return the number read.  Symbols are appended to
        ``emitted`` as soon as they are determined, several of them by one
        bit if the interval allows.

        No character past the one that brings success is taken, so the next
        reader of the same iterator starts right after it.  Any other
        character raises ValueError, with the bits before it read.
        """
        emitted, horizon = self.emitted, self.horizon
        if len(emitted) == horizon:
            raise ValueError("cursor is already successful; reading rejected")
        cum, den, odd = self._cum, self._den, self._odd
        scale = self._scale
        lq, wq = self._left * den, self._width * den  # L*Q and W*Q
        bits = iter(bits)
        used = shifted = 0  # D is ``scale`` doubled ``used - shifted`` times
        try:
            while True:
                # The cell j of the left end, C_{j-1} <= L*Q/D < C_j, and a and b.
                j = bisect_right(cum, lq // scale)
                a = lq - cum[j - 1] * scale
                b = cum[j] * scale - lq - wq
                if len(emitted) == horizon:
                    return used
                if not (a > 0 and b > 0):
                    for bit in bits:
                        if bit == "1":
                            a += a + wq
                            b += b
                        elif bit == "0":
                            a += a
                            b += b + wq
                        else:
                            raise ValueError(f"bit {bit!r} is not '0' or '1'")
                        used += 1
                        if b > 0:
                            if a:
                                break  # j is determined
                        elif b + wq <= 0:
                            break  # the left end has reached C_j
                    else:
                        return used
                    scale <<= used - shifted
                    shifted = used
                    if b <= 0:
                        lq = a + cum[j - 1] * scale
                        continue
                emitted.append(j)
                # Rescale cell j to [0, 1]: L <- a, W <- W*Q, D <- D*(C_j - C_{j-1}).
                scale *= cum[j] - cum[j - 1]
                # gcd(a, wq, scale): the power of 2 the three share, times
                # their gcd with the odd part of Q*d, ``odd[j]`` (see above).
                low = a | wq | scale
                g = low & -low
                if odd[j] > 1:
                    g *= gcd(odd[j], a, wq, scale)
                if g > 1:
                    a //= g
                    wq //= g
                    scale //= g
                lq, wq = a * den, wq * den
        finally:
            scale <<= used - shifted
            self._left = (a + cum[j - 1] * scale) // den
            self._width = wq // den
            self._scale = scale
            self.bits_consumed += used


@dataclass(frozen=True)
class TailReport:
    """Exact per-depth survival of the stopping time and what it decides.

    ``survival[k]`` is P(T > k) for 0 <= k <= kmax, exact; every other
    field is computed from it and ``target``.  ``mean_lo`` and ``mean_hi``
    enclose E(T) rigorously: the truncated sum, then the universal tail
    bound past kmax.  ``loose_bound_ok`` checks P(T > k) <= 2(b+1)/2^k at
    every depth; ``tight_bound_ok`` the stronger (b+1)/2^k, which can fail
    when an interior cumulative point is dyadic (``dyadic_interior``).
    ``mean_ok`` checks ``mean_hi`` against ``entropy_bound``, h(q)/log 2 + 6.
    Both ``exact_tail`` and ``calibration.verify_simu1`` return one.
    """

    target: ProbabilityVector
    survival: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.survival) < 2:
            raise ValueError("survival needs depths 0 and 1 at least")
        for a, b in zip(self.survival, self.survival[1:]):
            if b > a:
                raise ValueError("survival must be non-increasing")

    @property
    def kmax(self) -> int:
        return len(self.survival) - 1

    @property
    def mean_lo(self) -> Fraction:
        return sum(self.survival[:-1], Fraction(0))

    @property
    def mean_hi(self) -> Fraction:
        return self.mean_lo + Fraction(2 * (self.target.size + 1), 1 << (self.kmax - 1))

    @property
    def tight_bound_ok(self) -> bool:
        b = self.target.size
        return all(s <= Fraction(b + 1, 1 << k) for k, s in enumerate(self.survival))

    @property
    def loose_bound_ok(self) -> bool:
        b = self.target.size
        return all(s <= Fraction(2 * (b + 1), 1 << k) for k, s in enumerate(self.survival))

    @property
    def dyadic_interior(self) -> bool:
        # C_j/Q is dyadic iff its reduced denominator is a power of two.
        cum, den = self.target.scaled_cumulative
        return any((den // gcd(c, den)).bit_count() == 1 for c in cum[1:-1])

    @property
    def entropy_bound(self) -> float:
        return entropy(self.target) / log(2) + 6.0

    @property
    def mean_ok(self) -> bool:
        return float(self.mean_hi) <= self.entropy_bound + 1e-9


def _levels(q: ProbabilityVector, depth: int) -> Iterator[tuple[int, list[int]]]:
    """Refine every undecided dyadic interval, one level per bit.

    At level k the undecided intervals are ``[num, num+1]/2^k``, kept as
    their numerators.  With ``(C, Q)`` the target's scaled cumulative sums,
    ``[num, num+1]/2^k`` decides symbol j iff ``C_{j-1}*2^k < num*Q`` and
    ``(num+1)*Q < C_j*2^k``, the cursor's strict rule.  For k = 1..depth,
    yields the number of intervals still undecided at level k, and the
    number newly decided there for each symbol 1..b, in order.
    """
    cum, den = q.scaled_cumulative
    nums = [0]
    for k in range(1, depth + 1):
        ends = [c << k for c in cum]  # C_j * 2^k
        decided = [0] * q.size
        undecided = []
        for num in nums:
            for child in (2 * num, 2 * num + 1):
                lo = child * den
                j = bisect_right(ends, lo)
                if ends[j - 1] < lo and lo + den < ends[j]:
                    decided[j - 1] += 1
                else:
                    undecided.append(child)
        nums = undecided
        yield len(nums), decided


def exact_tail(q: ProbabilityVector, kmax: int) -> TailReport:
    """Exact survival P(T > k) for k <= kmax, by pruned interval refinement.

    Only undecided dyadic intervals are kept per level; there are at most
    2(b+1) of them, so depth 40 is cheap.  The mean enclosure truncates
    E(T) = sum_k P(T > k) with the universal geometric tail bound.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    survival = [Fraction(1)]
    for k, (undecided, _) in enumerate(_levels(q, kmax), start=1):
        survival.append(Fraction(undecided, 1 << k))
    return TailReport(q, tuple(survival))


def exact_symbol_law(
    q: ProbabilityVector, depth: int
) -> tuple[dict[int, Fraction], Fraction]:
    """Decided mass per symbol after ``depth`` bits, plus undecided remainder.

    For each symbol j the decided mass never exceeds q(j) and the deficit is
    at most the undecided remainder P(T > depth).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mass = [0] * q.size  # decided mass per symbol, in units of 2^-k after level k
    for undecided, decided in _levels(q, depth):
        mass = [2 * m + d for m, d in zip(mass, decided)]
    law = {j: Fraction(m, 1 << depth) for j, m in enumerate(mass, start=1)}
    return law, Fraction(undecided, 1 << depth)
