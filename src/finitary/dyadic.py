"""Simulation of a target distribution from independent unbiased bits.

Bits are read as the binary expansion of a point in [0, 1].  The unit
interval is partitioned by the cumulative sums of the target vector; a symbol
is determined as soon as the current dyadic interval lies *strictly* inside
one cell, at which point the cell is rescaled to [0, 1]-shape and refinement
continues for the next symbol.  Ties (an endpoint landing exactly on a cell
boundary) never decide, which keeps success monotone under extension of the
bit string.

Also provides exact analyzers of the stopping-time law: per-depth survival
probabilities, a rigorous enclosure of the expected stopping time, and the
per-symbol decided mass, all in exact rational arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ProbabilityVector, cumulative


class InsufficientBitsError(ValueError):
    """Raised when a bit string is exhausted before the simulation succeeds."""


class DyadicCursor:
    """Incremental simulator of ``horizon`` i.i.d. ``target`` symbols.

    Feed bits one at a time; symbols are emitted as soon as they are
    determined (several may cascade from a single bit).  Once ``horizon``
    symbols have been emitted the cursor is successful and frozen.

    A degenerate single-symbol target is supported; it still consumes at
    least two bits, since the interval must clear both endpoints of [0, 1].
    """

    __slots__ = (
        "target",
        "horizon",
        "lo",
        "hi",
        "bits_consumed",
        "cell_lo",
        "cell_hi",
        "emitted",
        "_cum",
        "_bounds",
    )

    def __init__(self, target: ProbabilityVector, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.target = target
        self.horizon = horizon
        self.lo = Fraction(0)
        self.hi = Fraction(1)
        self.bits_consumed = 0
        self.cell_lo = Fraction(0)
        self.cell_hi = Fraction(1)
        self.emitted: list[int] = []
        self._cum = cumulative(target)
        self._bounds = list(self._cum)

    @property
    def successful(self) -> bool:
        return len(self.emitted) == self.horizon

    def feed(self, bit: int) -> list[int]:
        """Consume one bit; return the symbols newly determined by it."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if self.successful:
            raise ValueError("cursor is already successful; feeding rejected")
        half = (self.hi - self.lo) / 2
        if bit:
            self.lo += half
        else:
            self.hi -= half
        self.bits_consumed += 1
        new: list[int] = []
        while not self.successful:
            j = self._determined_symbol()
            if j is None:
                break
            new.append(j)
            self.emitted.append(j)
            self.cell_lo = self._bounds[j - 1]
            self.cell_hi = self._bounds[j]
            if not self.successful:
                width = self.cell_hi - self.cell_lo
                base = self.cell_lo
                self._bounds = [base + width * c for c in self._cum]
        return new

    def _determined_symbol(self) -> int | None:
        # Symbol j is determined iff bounds[j-1] < lo and hi < bounds[j].
        bounds = self._bounds
        i = bisect_right(bounds, self.lo)
        if bounds[i - 1] == self.lo:
            return None
        if self.hi < bounds[i]:
            return i
        return None


def simulate_one(q: ProbabilityVector, bits: Sequence[int]) -> tuple[int, int]:
    """Run the one-symbol simulation on a finite bit string.

    Returns ``(T, S)`` where T is the number of bits consumed and S the
    emitted symbol.  Extending ``bits`` beyond T never changes the result.
    Raises InsufficientBitsError if the string is exhausted first.
    """
    cursor = DyadicCursor(q, 1)
    for bit in bits:
        emitted = cursor.feed(bit)
        if emitted:
            return cursor.bits_consumed, emitted[0]
    raise InsufficientBitsError("insufficient bits")


@dataclass(frozen=True)
class TailReport:
    """Exact per-depth survival of the stopping time plus mean enclosure.

    ``survival[k]`` is P(T > k) for 0 <= k <= kmax, exact.  ``mean_lo`` and
    ``mean_hi`` enclose E(T) rigorously.  ``loose_bound_ok`` checks
    P(T > k) <= 2(b+1)/2^k at every depth; ``tight_bound_ok`` the stronger
    (b+1)/2^k, which can fail when an interior cumulative point is dyadic.
    """

    target: ProbabilityVector
    kmax: int
    survival: tuple[Fraction, ...]
    mean_lo: Fraction
    mean_hi: Fraction
    tight_bound_ok: bool
    loose_bound_ok: bool
    dyadic_interior: bool

    def __post_init__(self) -> None:
        for a, b in zip(self.survival, self.survival[1:]):
            if b > a:
                raise ValueError("survival must be non-increasing")
        if self.mean_lo > self.mean_hi:
            raise ValueError("empty mean enclosure")


def _has_dyadic_interior(cum: list[Fraction]) -> bool:
    return any(v.denominator & (v.denominator - 1) == 0 for v in cum[1:-1])


def _undecided_children(
    cum: list[Fraction], nodes: list[tuple[int, int]], law: dict[int, Fraction] | None
) -> list[tuple[int, int]]:
    """Split one level of undecided dyadic intervals, pruning decided children.

    Nodes are ``(numerator, level)`` pairs for the interval
    ``[num/2^level, (num+1)/2^level]``.  When ``law`` is given, the measure of
    each decided child is credited to its symbol.
    """
    out = []
    for num, level in nodes:
        for child in (2 * num, 2 * num + 1):
            lo = Fraction(child, 1 << (level + 1))
            hi = Fraction(child + 1, 1 << (level + 1))
            i = bisect_right(cum, lo)
            if cum[i - 1] != lo and hi < cum[i]:
                if law is not None:
                    law[i] += Fraction(1, 1 << (level + 1))
            else:
                out.append((child, level + 1))
    return out


def exact_tail(q: ProbabilityVector, kmax: int) -> TailReport:
    """Exact survival P(T > k) for k <= kmax, by pruned interval refinement.

    Only undecided dyadic intervals are kept per level; there are at most
    2(b+1) of them, so depth 40 is cheap.  The mean enclosure truncates
    E(T) = sum_k P(T > k) with the universal geometric tail bound.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    cum = cumulative(q)
    survival = [Fraction(1)]
    nodes = [(0, 0)]
    for _ in range(kmax):
        nodes = _undecided_children(cum, nodes, None)
        survival.append(Fraction(len(nodes), 1 << len(survival)))
    b = q.size
    mean_lo = sum(survival[:-1], Fraction(0))
    mean_hi = mean_lo + Fraction(2 * (b + 1), 1 << (kmax - 1))
    tight = all(s <= Fraction(b + 1, 1 << k) for k, s in enumerate(survival))
    loose = all(s <= Fraction(2 * (b + 1), 1 << k) for k, s in enumerate(survival))
    return TailReport(
        target=q,
        kmax=kmax,
        survival=tuple(survival),
        mean_lo=mean_lo,
        mean_hi=mean_hi,
        tight_bound_ok=tight,
        loose_bound_ok=loose,
        dyadic_interior=_has_dyadic_interior(cum),
    )


def exact_mean_T(q: ProbabilityVector, depth: int) -> tuple[Fraction, Fraction]:
    """Rigorous two-sided enclosure of the expected stopping time."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    report = exact_tail(q, depth)
    return report.mean_lo, report.mean_hi


def exact_symbol_law(
    q: ProbabilityVector, depth: int
) -> tuple[dict[int, Fraction], Fraction]:
    """Decided mass per symbol after ``depth`` bits, plus undecided remainder.

    For each symbol j the decided mass never exceeds q(j) and the deficit is
    at most the undecided remainder P(T > depth).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cum = cumulative(q)
    law: dict[int, Fraction] = {j: Fraction(0) for j in range(1, q.size + 1)}
    nodes = [(0, 0)]
    for _ in range(depth):
        nodes = _undecided_children(cum, nodes, law)
    undecided = Fraction(len(nodes), 1 << depth)
    return law, undecided
