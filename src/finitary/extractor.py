"""Unbiased-bit extraction from words avoiding the marker pattern.

Words over {1..a} that contain no full occurrence of the marker pattern
(2 followed by t-1 ones) split into classes of equal probability under any
i.i.d. law: the class of a word is its symbol-count vector.  Within a class,
words are ranked lexicographically and the class size is decomposed into
powers of two; a word then maps to (number of bits, bit string, class index),
with the bits a string of "0" and "1" whose length is their number.
Conditioned on the bit count, the bit string is exactly uniform, and the
triple is injective, with a constructive inverse.

Ranking is enumerative coding (Cover, 1973) and the power-of-two split is
Elias's (1972).  Class sizes come from an exact inclusion-exclusion sum over
marked pattern copies: R+1 terms, for the most disjoint copies R that the
counts allow.
One left-to-right pass ranks the word as each symbol leaves the suffix, by
one of two walks.  The term loop updates every term by a small exact ratio
per symbol.  The window walk keeps t values instead: the suffix's class size
with 0 to t-1 ones fewer, which are M f(n, c, e) for the count M of orders
of its symbols other than 1 and f(n, c, e) = [z^n] (1-z^(t-1))^c (1-z)^-e
(a generating function in the style of Flajolet & Sedgewick, 2009).  f
satisfies an order-t recurrence with coefficients linear in n, so each
symbol moves the window by a few exact small-integer steps.  Forward steps
from f(0) = 1 seed the window, so the walk never builds the terms and
counts the class independently of them.  The backward step fails at one
index; there the walk reads a companion window that never steps backward.
The window's values share one denominator, so most steps multiply instead
of dividing, and one division by the denominator, once it is wider than
256 bits, stands for many by small integers (Bareiss's fraction-free
elimination, 1968).  A word whose counts give more than t terms and a
first term wider than 512 bits takes the window walk; the rest, the short
blocks and t = 1 among them, take the term loop, where a few narrow terms
cost less than t window values.  Nothing is cached between calls, and the
window walk keeps O(t) values, so memory is bounded by the longest word in
flight.

The term loop yields the rank at every step and keeps the caller's terms
current in place, so with span their sum, the final rank lies in ``[rank,
rank + span - 1]``.  A caller that needs only the bit count (``_bit_count``)
sums them and stops as soon as that interval fits inside one power-of-two
sub-block, which is usually a few symbols in; the callers that rank never
sum them.  The window walk yields such an interval, ``(lo, span)``, at
each checkpoint where its denominator is 1: the rank so far and the
suffix's class size.  It yields the exact rank last, and its rank, unrank
and bit callers all draw from that one loop.

A wide word's bits are pulled from those checkpoints (``_LazyBits``): the
bit count is known once the interval fits inside one sub-block, and each
bit once both ends of the interval agree on it, since enumerative coding
fixes the top of the rank from the prefix alone.  So the engine's sweep
runs a block's walk only as far as its simulators read, and a paused walk
holds O(t) values.  A narrow word is ranked by the term loop run to its
end, one final checkpoint, and its bits are a plain string; ``extract``
joins either.  On a wide word ``_bit_count`` tries t term-loop steps and
then draws the window walk up to the checkpoint that settles the count.

The inverse, ``unrank_in_class``, is the window walk given a target rank,
for every word and every t.  At each position the window already holds
every candidate symbol's count, so the walk chooses the symbol whose range
holds the target and then steps as it does to rank it.  A round trip on a
wide word thus checks the window walk against itself; the tests check the
unrank against brute enumeration and long words against the term loop.

Pattern containment is *full* containment: an occurrence must fit entirely
inside the word, including one ending at its last position.  One matcher,
``scan_markers``, recognises the pattern: the engine cuts blocks at its
matches, and ``extract`` and ``rank_in_class`` refuse a word in which it
finds one before they rank.  The walks, the bit count and the lazy bits
take pattern-free words only, and look for no pattern.  The pattern cannot
overlap itself, so a word between two consecutive matches holds none.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

from .core import SymbolWord, check_word


# PatternConfig refuses a larger alphabet: every word costs O(a) time and
# memory in its count vector, its class size and its class index.
_MAX_ALPHABET = 1 << 12


@dataclass(frozen=True)
class PatternConfig:
    """Alphabet size and marker length; the pattern is 2 followed by
    ``marker_len - 1`` ones."""

    alphabet_size: int
    marker_len: int

    def __post_init__(self) -> None:
        if not 2 <= self.alphabet_size <= _MAX_ALPHABET:
            raise ValueError(f"alphabet size {self.alphabet_size} outside 2..{_MAX_ALPHABET}")
        if self.marker_len < 1:
            raise ValueError(f"marker length must be >= 1, got {self.marker_len}")


def scan_markers(segment: Sequence[int], cfg: PatternConfig) -> list[int]:
    """Positions (0-based) where the full marker pattern fits and matches.

    This is the one matcher of the marker.  It never builds the pattern from
    t alone: a segment shorter than t holds no marker, and otherwise the
    pattern's t bytes are no longer than the segment.  A ``bytes`` or
    ``bytearray`` segment is read in place, one symbol per byte.  Otherwise
    each symbol becomes one byte.  Any int is read: when some symbol lies
    outside 0..255 (a negative one, say), every symbol other than 1 and 2
    becomes the byte 0, which is neither.  A sequence other than a list or
    tuple (a numpy array, say) is read by value, not as a buffer.  The
    pattern cannot overlap itself, so the non-overlapping matches of the
    literal are all of its occurrences.
    """
    t = cfg.marker_len
    if len(segment) < t:
        return []
    if isinstance(segment, (bytes, bytearray)):
        data = segment
    else:
        symbols = segment if isinstance(segment, (list, tuple)) else list(segment)
        try:
            data = bytes(symbols)
        except ValueError:  # a symbol outside 0..255
            data = bytes(s if s == 1 or s == 2 else 0 for s in symbols)
    return [m.start() for m in re.finditer(b"\x02" + b"\x01" * (t - 1), data)]


@dataclass(frozen=True)
class ExtractionTriple:
    """A word's extracted bits, as a string of "0" and "1" whose length is
    the bit count, and its class index."""

    bits: str
    class_id: int

    def __post_init__(self) -> None:
        if not set(self.bits) <= {"0", "1"}:
            raise ValueError("bits must be '0'/'1' characters")
        if self.class_id < 1:
            raise ValueError("class index must be >= 1")

    @property
    def num_bits(self) -> int:
        return len(self.bits)


def _check_counts(m: tuple[int, ...]) -> None:
    if len(m) < 2 or any(c < 0 for c in m):
        raise ValueError(f"bad count vector {m!r}")


def _multinomial(m: tuple[int, ...]) -> int:
    """The number of orders of a multiset with counts ``m``."""
    total = 1
    n = 0
    for c in m:
        n += c
        total *= math.comb(n, c)
    return total


def _terms(m: tuple[int, ...], t: int) -> list[int]:
    """Signed inclusion-exclusion terms ``(-1)^r T_r(m)`` for r = 0..R.

    The pattern cannot overlap itself, so pattern-free words are counted
    exactly by the alternating sum over r disjoint marked copies:

        T_r(m) = y_r! / (r! x_r! (m_2 - r)! m_3! ... m_a!),

    with ``y_r = n - r(t-1)`` symbols once each copy shrinks to one slot and
    ``x_r = m_1 - r(t-1)`` free ones.  ``R`` is the largest r with both
    ``x_r`` and ``m_2 - r`` non-negative.  One term follows from the
    previous by a small-integer ratio.
    """
    step = t - 1
    ones, twos = m[0], m[1]
    rmax = min(twos, ones // step) if step else twos
    n = sum(m)
    term = _multinomial(m)
    terms = [term]
    for r in range(rmax):
        x, y = ones - r * step, n - r * step
        term = -term * (twos - r) * math.perm(x, step) // ((r + 1) * math.perm(y, step))
        terms.append(term)
    return terms


# Words with more than t terms whose first term has more bits than this are
# ranked by the window walk; the rest by the term loop (see ``_wide``).
_WIDE_BITS = 512

# The window walk divides its values by their common denominator once that
# is wider than this many bits.
_FLUSH_BITS = 256


def _term_walk(
    word: SymbolWord, counts: tuple[int, ...], terms: list[int], t: int
) -> Iterator[int]:
    """Yield the rank along the term loop over a validated pattern-free
    word, before the first symbol and after each.

    ``counts`` is the word's count vector and ``terms`` its ``_terms``,
    which the loop updates in place as the suffix shrinks: at each yield
    they are the terms of the suffix left.  Each symbol leaves ``(y, x,
    shrink, c, dc)``: for the r-th term it adds ``T_r * (c - r*dc) / y_r``
    to the rank (the completions that start below it) and then leaves
    ``T_r * (x - r*shrink) / y_r``, with ``y_r = y - r(t-1)``; every
    quotient is exact.  Only the last term can reach zero, and then it is
    dropped.

    Counting the completions below each symbol, as the window walk does,
    takes the pending count of a 2 off at the symbol that ends its run of
    ones.  Its r-th part is ``T_r * r / y_r`` at the 2, so the 2
    adds it up front instead, through a ``dc`` one less.  A last 2 whose
    run reaches the end of the word is never ended, but then the suffix at
    the 2 holds fewer than t-1 ones, no term beyond r = 0 is left and the
    part is zero.

    With span = ``sum(terms)`` at the yield, the word's final rank lies in
    ``[rank, rank + span - 1]``.  Let R be the rank of the first word in the
    class with the prefix walked so far, and p the pending count of a 2 whose run
    of ones is still open at the prefix's end (0 if there is none).  Each 2
    takes its pending count off up front, so ``rank`` is R - p <= R.  The
    words with the prefix are the pattern-free suffixes, ``sum(terms)`` of
    them, less the p that would finish the open pattern, so the final rank
    is at most R + sum(terms) - p - 1.  The last yield is the exact rank,
    with span 1.  The loop does not sum the span: only a caller that stops
    early reads it.
    """
    step = t - 1
    m = list(counts)
    rank = 1
    yield rank
    n = len(word)
    for i, sym in enumerate(word):
        y = n - i
        if sym == 1:
            x, shrink, c, dc = m[0], step, 0, 0
        elif sym == 2:
            x, shrink, c, dc = m[1], 1, m[0], step - 1
        else:
            x, shrink, c, dc = m[sym - 1], 0, sum(m[: sym - 1]), step
        m[sym - 1] -= 1
        for r, u in enumerate(terms):
            if c:
                rank += u * c // y
            u = u * x // y
            if not u:
                del terms[r:]
                break
            terms[r] = u
            y -= step
            x -= shrink
            c -= dc
        yield rank


def _extend(g: list[int], top: int, s: int, c: int, k: int) -> None:
    """Append G(top+1) to ``g``, which ends at G(top), for a suffix with c
    twos and k symbols other than 1.  This forward step of the recurrence
    divides by top+1 > 0, so it never fails."""
    cs = c * s
    g.append(
        ((top + k + 1) * g[-1] + (top - s + 1 - cs) * g[-s] + (cs - k - 1 - top + s) * g[-s - 1])
        // (top + 1)
    )


def _window(top: int, s: int, c: int, k: int, big_m: int) -> list[int]:
    """The window G(top-s), ..., G(top) of a suffix with c twos, k symbols
    other than 1 and G(0) = ``big_m``: ``top`` forward steps from f(-s),
    ..., f(-1) = 0 and f(0) = 1, with s+1 values kept, each then multiplied
    by ``big_m``.  That is exact, since the recurrence is linear and f is
    integral, and the steps work on f's integers, which are narrower than
    G's."""
    g = [0] * s + [1]
    for n in range(top):
        _extend(g, n, s, c, k)
        del g[0]
    return [big_m * u for u in g]


def _window_walk(
    word: SymbolWord | list[int], counts: tuple[int, ...], t: int, target: int = 0
) -> Iterator[tuple[int, int]]:
    """Checkpoints ``(lo, span)`` of a validated pattern-free word's rank,
    by the window walk: the rank lies in ``[lo, lo + span - 1]``.

    With s = t-1, a suffix with m_1 ones, c twos and k symbols other than 1
    has G(m_1) pattern-free orders, where G(n) = M f(n, c, k+1), M counts the
    orders of its symbols other than 1, and f(n, c, e) = [z^n] (1-z^s)^c
    (1-z)^-e counts the ways to put n ones into its gaps, at most s-1 of
    them after each 2.  The walk keeps the window ``g`` = G(m_1-s), ...,
    G(m_1).  f satisfies

        (n+1) f(n+1) = (n+e) f(n) + (n-s+1-cs) f(n-s+1) + (cs-e-n+s) f(n-s),

    so ``_window`` seeds ``g`` by m_1 forward steps from f(0) = 1 and f(n) =
    0 below 0, and multiplies the s+1 values it keeps by M once.  Its top,
    G(m_1), is the class size, counted without the inclusion-exclusion
    terms.

    A symbol above 1 adds G(m_1-1) to the rank, less G(m_1-s+j) when the
    last symbol other than 1 was a 2 followed by j ones; a symbol above 2
    also adds (G(m_1) - G(m_1-1)) (m_2 + ... + m_{sym-1}) / k.  Then the
    symbol leaves.  A 1 slides the window down by one backward step of the
    recurrence.  A symbol above 2 takes one backward step and sets G(n) <-
    (G(n) - G(n-1)) m_sym / k.  A 2 sets the lowest value from (1-z)
    f'_{c,e} = -cs z^(s-1) f_{c-1,e-1} + e f_{c,e}, which gives

        s k G'(N) = k G(N+s-1) - (N+s) (G(N+s) - G(N+s-1)),

    and the rest from (1-z) f_{c,e} = (1-z^s) f_{c-1,e-1}, which gives
    G'(n) = G'(n-s) + (G(n) - G(n-1)) c / k, so that

        s k G'(n) = k G(n-1) + (cs - n) (G(n) - G(n-1)).

    Those divisions by s k and by k are deferred, as in Bareiss's
    fraction-free elimination (1968): every value, and the rank added since
    the last division, is kept as D times itself for one common denominator
    D.  A 2 multiplies D by s k and a symbol above 2 by k.  The backward
    step and the companion's forward steps still divide at once; their
    quotients are exact over D too, since each value is D times an integer.
    Once D is wider than ``_FLUSH_BITS`` bits, every value and the pending
    rank are divided by D, and D is 1 again.  So one division by a wide D
    stands for many by small integers.

    The checkpoints come where D is 1: ``(1, G(m_1))``, the class size, once
    the window is seeded, then ``(rank, G(m_1))`` at each division, and the
    exact ``(rank, 1)`` last.  Every part added to the rank counts class
    words below the word, so the rank so far is a lower end, and the words
    with the prefix walked so far number at most G(m_1) of the suffix left.
    A caller stops drawing checkpoints once it has what it needs.

    The backward step to index N divides by cs - e - N and fails at
    N = cs - e, the singular index.  There it reads G(N) from a companion
    window ``h`` = G(N), ..., G(N+s), which never steps backward: a 2 lowers
    N by s-1 with the 2's own step, and a symbol above 2 raises it by 1
    with one forward step, which divides by n+1.  The companion is
    kept while max(N, 0) < m_1 - s, the only time the main window can step
    down onto N.  ``_window`` seeds it at the start; later only a 2 can
    bring it back, by moving N below the main window, and then it is a
    slice of the main window's 2-step, extended below the window by the
    first formula.  While N < 0 only G(0) = M matters, and it is kept
    instead; a symbol above 2 takes N to 0, and ``_window`` rebuilds ``h``
    from M by s forward steps.  So each symbol costs O(t) exact operations
    and the walk keeps O(t) values.

    Given a ``target`` rank, the walk unranks instead (enumerative decoding,
    Cover 1973): it appends the class's word of that rank to ``word``, an
    empty list.  Each step chooses a symbol and then takes its step.  Let
    room = (target - rank) D - pending, less what a symbol above 1 adds for
    a 1.  A 1 is chosen when room < 0, else the first c with room k <
    (G(m_1) - G(m_1-1)) (m_2 + ... + m_c), k times the suffixes that start
    with 2 to c.
    """
    s = t - 1
    m = list(counts)
    ones, c = m[0], m[1]
    k = sum(counts) - ones
    rank, pending, d = 1, 0, 1  # the rank is rank + pending / d
    flush = _FLUSH_BITS
    big_m = _multinomial(counts[1:])
    g = _window(ones, s, c, k, big_m)
    yield 1, g[s]
    star = c * s - k - 1
    h = None
    j = -1  # ones after the last 2 while its run is open, else -1
    for sym in repeat(0, ones + k) if target else word:
        # Drop the companion once unneeded; seed it from M once N >= 0.
        if star >= ones - s or ones <= s:
            h = big_m = None
        elif star >= 0 and big_m is not None:
            h, big_m = _window(star + s, s, c, k, big_m), None
        if target:
            one = g[s - 1] - (g[j] if j >= 0 else 0)
            room = (target - rank) * d - pending - one
            if room < 0:
                sym = 1
            else:
                pending += one
                room *= k
                rise = g[s] - g[s - 1]
                sym, below = 2, rise * m[1]
                while room >= below:
                    sym += 1
                    below += rise * m[sym - 1]
            word.append(sym)
        elif sym > 1:
            pending += g[s - 1] - (g[j] if j >= 0 else 0)
        if sym == 2:
            j = 0
            cs = c * s
            n = ones - s + 1
            old = g
            g = [k * a + (cs - p) * (b - a) for p, a, b in zip(range(n, n + s), g, g[1:])]
            g.insert(0, g[-1] - cs * (old[s] - old[s - 1]))
            if big_m is not None:
                big_m *= cs
            elif h is not None:
                n = star + 1
                h = [
                    *(k * a - p * (b - a) for p, a, b in zip(range(n, n + s), h, h[1:])),
                    k * h[0] + (cs - n) * (h[1] - h[0]),
                ]
            elif max(star - s + 1, 0) < ones - s:
                # The companion G'(N-s+1 .. N+1) starts below the new window.
                below = [
                    k * a - p * (b - a) for p, a, b in zip(range(n, n + s - 1), old, old[1:])
                ]
                at = star + s - ones
                h = (below + g)[at : at + t]
            star -= s - 1
            if h is not None and star < 0:
                h, big_m = None, h[-star]
            pending *= s * k
            d *= s * k
            c -= 1
            k -= 1
        else:
            if sym != 1:
                j = -1
            elif j >= 0:
                j += 1
            n = ones - s - 1
            if n < 0:
                low = 0
            elif n == star:
                low = h[0]
            else:
                low = (
                    ones * g[s] - (ones + k) * g[s - 1] - (ones - s - c * s) * g[0]
                ) // (star - n)
            if sym == 1:
                g.insert(0, low)
                g.pop()
                ones -= 1
            else:
                mult = m[sym - 1]
                pending = pending * k + (g[s] - g[s - 1]) * sum(m[1 : sym - 1])
                g = [(b - a) * mult for a, b in zip([low, *g], g)]
                if big_m is not None:
                    big_m *= mult
                elif h is not None:
                    _extend(h, star + s, s, c, k)
                    h = [(b - a) * mult for a, b in zip(h, h[1:])]
                d *= k
                star += 1
                k -= 1
        m[sym - 1] -= 1
        if d.bit_length() > flush:
            g = [u // d for u in g]
            if h is not None:
                h = [u // d for u in h]
            elif big_m is not None:
                big_m //= d
            rank += pending // d
            pending, d = 0, 1
            yield rank, g[s]
    yield rank + pending // d, 1


def _wide(counts: tuple[int, ...], t: int) -> bool:
    """Whether the window walk ranks a word with these counts: t > 1, more
    than t terms (at least t twos and t(t-1) ones) and a first term, the
    multinomial, wider than ``_WIDE_BITS``.  That is below a^n, so it is
    computed only when n bit_length(a-1) > ``_WIDE_BITS``."""
    return (
        t > 1
        and counts[1] >= t
        and counts[0] >= t * (t - 1)
        and sum(counts) * (len(counts) - 1).bit_length() > _WIDE_BITS
        and _multinomial(counts).bit_length() > _WIDE_BITS
    )


def _counts(word: SymbolWord, cfg: PatternConfig) -> tuple[int, ...]:
    """The count vector of a validated word."""
    return tuple(map(word.count, range(1, cfg.alphabet_size + 1)))


def _term_rank(word: SymbolWord, counts: tuple[int, ...], t: int) -> tuple[int, int]:
    """``(rank, class size)`` by the term loop run to its end."""
    terms = _terms(counts, t)
    size = sum(terms)
    for rank in _term_walk(word, counts, terms, t):
        pass
    return rank, size


def rank_in_class(word: SymbolWord, cfg: PatternConfig) -> int:
    """1-based lexicographic rank of ``word`` among pattern-free words with
    the same count vector: by the window walk drawn to its end when
    ``_wide``, else by the term loop run to its end.  Raises ValueError when
    ``scan_markers`` finds the marker in the word."""
    word = check_word(word, cfg.alphabet_size)
    if scan_markers(word, cfg):
        raise ValueError("word contains the marker pattern")
    counts, t = _counts(word, cfg), cfg.marker_len
    if not _wide(counts, t):
        return _term_rank(word, counts, t)[0]
    for rank, _ in _window_walk(word, counts, t):
        pass
    return rank


def unrank_in_class(m: tuple[int, ...], cfg: PatternConfig, rank: int) -> SymbolWord:
    """Inverse of rank_in_class on the class with count vector ``m``."""
    _check_counts(m)
    if len(m) != cfg.alphabet_size:
        raise ValueError("count vector length does not match alphabet size")
    total = sum(_terms(m, cfg.marker_len))
    if not 1 <= rank <= total:
        raise ValueError(f"rank {rank} outside 1..{total}")
    return _unrank(m, cfg.marker_len, rank)


def _unrank(m: tuple[int, ...], t: int, rank: int) -> SymbolWord:
    """The word of ``rank`` in the class with counts ``m``, for a rank in 1
    up to the class size: the window walk, choosing each symbol by the
    target rank.  A t = 1 class has no 2, so its words are every order of
    its symbols, as at t = 2."""
    word: list[int] = []
    for _ in _window_walk(word, m, max(t, 2), rank):
        pass
    return tuple(word)


def class_index(m: tuple[int, ...]) -> int:
    """1-based position of ``m`` in lexicographic order over all count
    vectors with the same total; range 1..C(n+a-1, a-1)."""
    _check_counts(m)
    a = len(m)
    rem = sum(m)
    idx = 1
    for i in range(a - 1):
        # The vectors that put v < m_i here number C(rem-v+k-1, k-1) each,
        # k = a-i-1 parts on; the hockey-stick identity sums them at once.
        k = a - i - 1
        idx += math.comb(rem + k, k) - math.comb(rem - m[i] + k, k)
        rem -= m[i]
    return idx


def class_from_index(n: int, alphabet_size: int, index: int) -> tuple[int, ...]:
    """Inverse of class_index for words of length ``n``."""
    if n < 0 or alphabet_size < 2:
        raise ValueError("need n >= 0 and alphabet size >= 2")
    top = math.comb(n + alphabet_size - 1, alphabet_size - 1)
    if not 1 <= index <= top:
        raise ValueError(f"class index {index} outside 1..{top}")
    rem = n
    offset = index - 1
    out: list[int] = []
    for i in range(alphabet_size - 1):
        parts = alphabet_size - i - 1
        v = 0
        while True:
            block = math.comb(rem - v + parts - 1, parts - 1)
            if offset < block:
                break
            offset -= block
            v += 1
        out.append(v)
        rem -= v
    out.append(rem)
    return tuple(out)


def _sub_block(size: int, rank: int) -> tuple[int, int]:
    """``(e, offset)``: the power-of-two sub-block 2^e of the class size that
    holds ``rank``, and the rank's offset down from the sub-block's top.

    Sub-blocks take the set bits of ``size`` from the top, so the walk stops
    at the first e whose running total reaches the rank; that is almost
    always the first or the second.
    """
    partial, rest = 0, size
    while True:
        e = rest.bit_length() - 1
        partial += 1 << e
        if partial >= rank:
            return e, partial - rank
        rest ^= 1 << e


def extract(word: SymbolWord, cfg: PatternConfig) -> ExtractionTriple:
    """Map a pattern-free word to its triple: the extracted bits, whose
    length is the bit count, and the class index of its count vector.

    The class size d splits as a sum of distinct powers of two; ranks are
    assigned to the power-of-two sub-blocks in order, and within a sub-block
    of size 2^e the word's offset from the block's top rank is written out as
    e bits (most significant first).  Raises ValueError when
    ``scan_markers`` finds the marker in the word.
    """
    word = check_word(word, cfg.alphabet_size)
    if scan_markers(word, cfg):
        raise ValueError("word contains the marker pattern")
    counts = _counts(word, cfg)
    return ExtractionTriple("".join(_lazy_bits(word, cfg, counts)), class_index(counts))


class _LazyBits:
    """A wide pattern-free word's extracted bits, made as they are read: a
    sized iterable of "0" and "1" over the checkpoints of its window walk.

    The length e is settled at the first checkpoint whose range ``[lo, lo +
    span - 1]`` lies inside one power-of-two sub-block, the one that
    ``_sub_block`` finds for ``lo``.  The offset then lies in ``[top - lo -
    span + 1, top - lo]``, for the sub-block's top rank ``top``, and every
    offset in that range shares the top bits on which its two ends agree.
    So the iterator yields those bits and draws the next checkpoint only
    when the reader asks for a bit past them: the walk runs only as far as
    its bits are read, and to its end only when a reader asks for a bit
    past the last.  A paused walk holds its O(t) window values.  Iterate
    once.
    """

    __slots__ = ("_walk", "_at", "_top", "_e")

    def __init__(self, walk: Iterator[tuple[int, int]]):
        size = next(walk)[1]
        for lo, span in chain([(1, size)], walk):
            e, offset = _sub_block(size, lo)
            if span <= offset + 1:
                break
        self._walk, self._at, self._top, self._e = walk, (lo, span), lo + offset, e

    def __len__(self) -> int:
        return self._e

    def __iter__(self) -> Iterator[str]:
        e, top = self._e, self._top
        done = 0  # the bits yielded so far
        for lo, span in chain([self._at], self._walk):
            high = top - lo  # the largest offset left
            settled = e - (high ^ (high - span + 1)).bit_length()
            if settled > done:
                yield from format(high >> (e - settled), f"0{settled}b")[done:]
                done = settled


def _lazy_bits(
    word: SymbolWord, cfg: PatternConfig, counts: tuple[int, ...] | None = None
) -> str | _LazyBits:
    """The extracted bits of a validated pattern-free word, as a sized
    iterable of "0" and "1": the e binary digits of its offset, most
    significant first.
    ``counts`` is the word's count vector, counted here when not given.

    A ``_wide`` word's bits are a ``_LazyBits`` over its window walk, made
    as they are read.  Any other word is ranked by the term loop run to its
    end, one final checkpoint, and its bits are a string.
    """
    if counts is None:
        counts = _counts(word, cfg)
    t = cfg.marker_len
    if _wide(counts, t):
        return _LazyBits(_window_walk(word, counts, t))
    rank, size = _term_rank(word, counts, t)
    e, offset = _sub_block(size, rank)
    return format(offset, f"0{e}b") if e else ""


def _bit_count(word: SymbolWord, cfg: PatternConfig) -> int:
    """``extract(word, cfg).num_bits``, ranking only as far as it takes.

    The term loop stops at the first step whose rank interval, from the rank
    to the rank plus ``sum(terms)`` less one, lies inside one power-of-two
    sub-block: the one ``_sub_block`` finds for the low
    end, when the interval ends no more than its offset above it.  On a
    word that is ``_wide``, each term-loop step costs a pass over many wide
    terms, so after t unsettled steps the count comes from the window walk
    instead, which stops at the checkpoint that settles it, as ``len`` of
    ``_lazy_bits`` does.  Most words settle within t steps, so ``_wide`` is
    asked only after them.  The word must be validated and pattern-free.
    """
    t = cfg.marker_len
    counts = _counts(word, cfg)
    terms = _terms(counts, t)
    size = sum(terms)
    budget = t
    for rank in _term_walk(word, counts, terms, t):
        e, offset = _sub_block(size, rank)
        if sum(terms) <= offset + 1:
            return e
        if not budget:
            if _wide(counts, t):
                return len(_LazyBits(_window_walk(word, counts, t)))
            budget = len(word)
        budget -= 1


def invert(n: int, cfg: PatternConfig, triple: ExtractionTriple) -> SymbolWord:
    """Reconstruct the unique length-``n`` word mapping to ``triple``.

    Raises ValueError when the triple is not realizable for (n, cfg).
    """
    m = class_from_index(n, cfg.alphabet_size, triple.class_id)
    e = triple.num_bits
    # The sub-blocks above 2^e take the set bits of the class size above e.
    top = sum(_terms(m, cfg.marker_len)) >> e
    if not top & 1:
        raise ValueError(f"bit count {e} not realizable for class {triple.class_id}")
    # The sub-blocks above 2^e hold ranks 1 to (top - 1) 2^e, so the rank
    # lies in the next 2^e, inside the class: no check is left to repeat.
    offset = int(triple.bits, 2) if e else 0
    return _unrank(m, cfg.marker_len, (top << e) - offset)
