"""Exact arithmetic primitives shared by every other module.

Probabilities are exact rationals (`fractions.Fraction`); the stopping rules
downstream compare rationals against dyadic partial sums with *strict*
inequalities, so no floating point is allowed anywhere near them.  Entropy is
the single floating-point quantity in the package and is calibration-grade
only (target relative error 1e-12; in practice ~1e-15 from double rounding).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

SymbolWord = tuple[int, ...]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or ``"a"`` into an exact Fraction.

    Floating-point notation (``0.5``, ``1e-3``) is rejected.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not an exact rational (want 'a/b' or 'a'): {text!r}")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


@dataclass(frozen=True)
class ProbabilityVector:
    """Distribution over symbols ``1..len(entries)``.

    Every entry is strictly positive and the entries sum to exactly 1; both
    facts are checked at construction.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("probability vector must be nonempty")
        total = Fraction(0)
        for i, value in enumerate(self.entries, start=1):
            if not isinstance(value, Fraction):
                raise ValueError(f"entry at index {i} is not an exact rational: {value!r}")
            if value == 0:
                raise ValueError(f"zero entry at index {i}")
            if value < 0:
                raise ValueError(f"negative entry at index {i}: {value}")
            total += value
        if total != 1:
            raise ValueError(f"entries sum to {total}, expected 1")

    @classmethod
    def parse(cls, text: str) -> "ProbabilityVector":
        """Parse a comma-separated list of rationals, e.g. ``"1/3,2/3"``."""
        parts = [p for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty probability vector")
        return cls(tuple(parse_rational(p) for p in parts))

    @property
    def size(self) -> int:
        return len(self.entries)

    def prob(self, symbol: int) -> Fraction:
        """Probability of ``symbol`` (1-based)."""
        if not 1 <= symbol <= len(self.entries):
            raise ValueError(f"symbol {symbol} outside 1..{len(self.entries)}")
        return self.entries[symbol - 1]

    @cached_property
    def scaled_cumulative(self) -> tuple[tuple[int, ...], int]:
        """``(C, Q)``: the cumulative sums are ``C[j]/Q`` with ``Q`` the
        common denominator of the entries; computed once per vector.

        This is the one form of the cumulative sums: the cursor, the sampler
        and the exact analyzers all read it.  ``C_0 = 0 < C_1 < ... < C_b =
        Q``, strictly increasing because every entry is positive.
        """
        den = math.lcm(*(v.denominator for v in self.entries))
        scaled = (v.numerator * (den // v.denominator) for v in self.entries)
        return tuple(accumulate(scaled, initial=0)), den

    @cached_property
    def odd_cell_widths(self) -> tuple[int, ...]:
        """The odd part of ``Q*(C_j - C_{j-1})`` at index j for j >= 1, and 0
        at index 0; computed once per vector.  At an emission of symbol j,
        the cursor's gcd has no odd factor that this lacks."""
        cum, den = self.scaled_cumulative
        widths = [den * (c - b) for b, c in zip(cum, cum[1:])]
        return (0, *(m // (m & -m) for m in widths))


def entropy(p: ProbabilityVector) -> float:
    """Entropy of ``p`` in nats; floating point, for calibration only."""
    return -sum(float(v) * math.log(float(v)) for v in p.entries)


class SymbolError(ValueError):
    """A symbol that is not an integer in the alphabet, at ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def check_word(symbols: Sequence[int], alphabet_size: int, start: int = 0) -> SymbolWord:
    """Validate a word over the alphabet ``{1..alphabet_size}``.

    Accepts any integral symbol type (numpy ints included) and returns plain
    Python ints.  Errors give positions counted from ``start``.  A list or
    tuple of plain ints in range is checked in bulk; anything else, and any
    word that fails, goes symbol by symbol, which finds the first bad one.
    """
    if isinstance(symbols, (list, tuple)) and set(map(type, symbols)) <= {int}:
        values = set(symbols)
        if not values or (1 <= min(values) and max(values) <= alphabet_size):
            return tuple(symbols)
    out = []
    for pos, s in enumerate(symbols, start):
        try:
            value = operator.index(s)
        except TypeError:
            raise SymbolError(
                f"symbol {s!r} at position {pos} is not an integer", pos
            ) from None
        if isinstance(s, bool) or not 1 <= value <= alphabet_size:
            raise SymbolError(
                f"symbol {s!r} at position {pos} outside 1..{alphabet_size}", pos
            )
        out.append(value)
    return tuple(out)


def parse_word(text: str, alphabet_size: int) -> SymbolWord:
    """Parse whitespace-separated 1-based symbols."""
    try:
        symbols = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"malformed symbol stream: {exc}") from None
    return check_word(symbols, alphabet_size)


def parse_bits(text: str) -> str:
    """Parse bits given either contiguously (``"0110"``) or separated, as
    one string of "0" and "1".  An error names the first token that holds
    another character, not the whole input."""
    tokens = text.split()
    bits = "".join(tokens)
    if not set(bits) <= {"0", "1"}:
        bad = next(token for token in tokens if not set(token) <= {"0", "1"})
        raise ValueError(f"malformed bit string: bad token {bad!r}")
    return bits
