"""Unbiased-bit extraction from words avoiding the marker pattern.

Words over {1..a} that contain no full occurrence of the marker pattern
(2 followed by t-1 ones) split into classes of equal probability under any
i.i.d. law: the class of a word is its symbol-count vector.  Within a class,
words are ranked lexicographically and the class size is decomposed into
powers of two; a word then maps to (number of bits, bit string, class index).
Conditioned on the bit count, the bit string is exactly uniform, and the
triple is injective, with a constructive inverse.

Ranking is enumerative coding (Cover, 1973) and the power-of-two split is
Elias's (1972).  Class sizes come from an exact inclusion-exclusion sum over
marked pattern copies.  Its term vector is built once per word, and one
left-to-right pass updates it as each symbol leaves the suffix: every symbol
multiplies each term by a small exact ratio and adds a small multiple of it
to the rank.  While the terms are long (more than 512 bits), the pass takes
the symbols 32 at a time, gathers each term's ratios over the window in
small exact integers, as binary splitting does for a rational series
(Haible & Papanikolaou, 1998), and then makes two big exact divisions per
term and window.  Shorter terms are updated one symbol at a time.  Nothing
is cached between calls, so memory is bounded by the longest word in flight.

The walk yields its running rank at every step, and the final rank lies
between the running rank and that plus the sum of the terms, less one.
So a caller that needs only the bit count (``_bit_count``) stops as soon as
that interval fits inside one power-of-two sub-block, which is usually a
few symbols in.

The inverse, ``unrank_in_class``, rebuilds the word from the same terms
with one exact division per term for each candidate symbol it tries.  It
shares no code with the rank walk, so a round trip checks one by the other.

Pattern containment is *full* containment: an occurrence must fit entirely
inside the word, including one ending at its last position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .core import BitString, SymbolWord, check_word


@dataclass(frozen=True)
class PatternConfig:
    """Alphabet size and marker length; the pattern is 2 followed by
    ``marker_len - 1`` ones."""

    alphabet_size: int
    marker_len: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        if self.marker_len < 1:
            raise ValueError(f"marker length must be >= 1, got {self.marker_len}")

    @property
    def pattern(self) -> SymbolWord:
        return (2,) + (1,) * (self.marker_len - 1)


@dataclass(frozen=True)
class ExtractionTriple:
    """(bit count, extracted bits, class index); ``len(bits) == num_bits``."""

    num_bits: int
    bits: BitString
    class_id: int

    def __post_init__(self) -> None:
        if len(self.bits) != self.num_bits:
            raise ValueError("bit string length does not match bit count")
        if not set(self.bits) <= {0, 1}:
            raise ValueError("bits must be 0/1")
        if self.class_id < 1:
            raise ValueError("class index must be >= 1")


def _advance(state: int, symbol: int) -> int:
    """Length of the longest suffix matching a prefix of the pattern.

    The caller treats a result equal to the marker length as a completed
    occurrence (dead for pattern-free words).
    """
    if symbol == 2:
        return 1
    if symbol == 1 and state:
        return state + 1
    return 0


def is_pattern_free(word: SymbolWord, cfg: PatternConfig) -> bool:
    """True iff no full occurrence of the pattern starts inside the word."""
    state = 0
    for s in word:
        state = _advance(state, s)
        if state == cfg.marker_len:
            return False
    return True


def count_vector(word: SymbolWord, alphabet_size: int) -> tuple[int, ...]:
    m = [0] * alphabet_size
    for s in word:
        if not 1 <= s <= alphabet_size:
            raise ValueError(f"symbol {s} outside 1..{alphabet_size}")
        m[s - 1] += 1
    return tuple(m)


def _check_counts(m: tuple[int, ...]) -> None:
    if len(m) < 2 or any(c < 0 for c in m):
        raise ValueError(f"bad count vector {m!r}")


def class_size(m: tuple[int, ...], cfg: PatternConfig) -> int:
    """Number of pattern-free words with count vector ``m``.

    Recursion over (remaining counts, automaton state) with a memo local to
    the call; intended for desk-scale counts.  It shares nothing with the
    inclusion-exclusion terms that rank/extract walk, so the two routes
    cross-check each other (see ``verify_extractor`` and the tests).
    """
    _check_counts(m)
    if len(m) != cfg.alphabet_size:
        raise ValueError("count vector length does not match alphabet size")
    t = cfg.marker_len
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def count(rest: tuple[int, ...], state: int) -> int:
        if not any(rest):
            return 1
        key = (rest, state)
        if key not in memo:
            total = 0
            for c, cnt in enumerate(rest, start=1):
                nxt = _advance(state, c)
                if cnt and nxt != t:
                    total += count(rest[: c - 1] + (cnt - 1,) + rest[c:], nxt)
            memo[key] = total
        return memo[key]

    return count(tuple(m), 0)


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
    term = 1
    n = 0
    for c in m:
        n += c
        term *= math.comb(n, c)
    terms = [term]
    for r in range(rmax):
        x, y = ones - r * step, n - r * step
        term = -term * (twos - r) * math.perm(x, step) // ((r + 1) * math.perm(y, step))
        terms.append(term)
    return terms


def _free_count(m: tuple[int, ...], t: int) -> int:
    """Pattern-free word count: the alternating sum of ``_terms``."""
    return sum(_terms(m, t))


# Terms of more bits than this take their symbols a window at a time.  Keep
# it at least 1: the empty suffix leaves one term of 1, which ends the windows.
_WIDE_BITS = 512
_WINDOW = 32


def _steps(word: SymbolWord, m: list[int], t: int) -> Iterator[tuple[int, ...]]:
    """Yield ``(y, x, shrink, c, dc)`` as each symbol leaves the suffix.

    ``m`` holds the suffix counts and is consumed with the word.  For the
    r-th term the symbol adds ``T_r * (c - r*dc) / y_r`` to the rank (the
    completions that start below it) and then leaves ``T_r * (x - r*shrink)
    / y_r``, with ``y_r = y - r(t-1)``; every quotient is exact.

    Counting the completions below each symbol, as ``unrank_in_class``
    does, takes the pending count of a 2 off at the symbol that ends the
    2's run of ones.  Its r-th part is ``T_r * r / y_r`` at the 2,
    so the 2 adds it up front instead, through a ``dc`` one less.  A last
    2 whose run reaches the end of the word is never ended, but then the
    suffix at the 2 holds fewer than t-1 ones, no term beyond r = 0 is left
    and the part is zero.  Raises ValueError at the symbol that completes
    the pattern.
    """
    step = t - 1
    n = len(word)
    state = 0
    for i, sym in enumerate(word):
        if sym == 1:
            if state:
                state += 1
                if state == t:
                    raise ValueError("word contains the marker pattern")
            yield n - i, m[0], step, 0, 0
        elif sym == 2:
            state = 1
            yield n - i, m[1], 1, m[0], step - 1
        else:
            state = 0
            yield n - i, m[sym - 1], 0, sum(m[: sym - 1]), step
        m[sym - 1] -= 1


def _exact(num: int, den: int) -> int:
    quotient, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("inexact division in the rank walk")
    return quotient


def _window(
    terms: list[int], window: list[tuple[int, ...]], step: int
) -> tuple[int, list[int]]:
    """Rank added by a window of ``_steps``, and the terms after it.

    Term r gathers the window in small exact integers, ``P <- P*x``,
    ``Q <- Q*y`` and ``S <- S*y + P*c``, so that it adds ``T_r * S / Q`` to
    the rank and becomes ``T_r * P / Q``: two big divisions per term and
    window instead of two per symbol.  A term that reaches zero stops
    there, before a later ``y`` of its own can reach zero too.
    """
    added = 0
    out = []
    for r, u in enumerate(terms):
        p, q, s = 1, 1, 0
        for y, x, shrink, c, dc in window:
            y -= r * step
            s = s * y + p * (c - r * dc)
            q *= y
            p *= x - r * shrink
            if not p:
                break
        added += _exact(u * s, q)
        if p:
            out.append(_exact(u * p, q))
    return added, out


def _walk(
    word: SymbolWord, counts: tuple[int, ...], terms: list[int], t: int
) -> Iterator[int]:
    """Yield the running rank along the rank walk of a validated word.

    ``counts`` is the word's count vector and ``terms`` its ``_terms``,
    which the walk updates in place as the suffix shrinks.  One
    left-to-right pass: each symbol adds the completions that start below
    it, then leaves the suffix.  While the terms have more than
    ``_WIDE_BITS`` bits, the symbols go ``_WINDOW`` at a time through
    ``_window``; after that, one at a time.  Only the last term can reach
    zero, and then it is dropped.  The walk yields at the start, after each
    window and after each symbol; it yields the rank alone and keeps the
    caller's ``terms`` current, so a caller that runs it to the end pays
    little per step.  Raises ValueError when the word contains the pattern.

    At every yield the word's final rank lies in ``[rank, rank + sum(terms)
    - 1]``.  Let R be the rank of the first word in the class with the
    prefix walked so far, and p the pending count of a 2 whose run of ones
    is still open at the prefix's end (0 if there is none).  Each 2 takes
    its pending count off up front, so ``rank`` is R - p <= R.  The words
    with the prefix are the pattern-free suffixes, ``sum(terms)`` of them,
    less the p that would finish the open pattern, so the final rank is at
    most R + sum(terms) - p - 1.  The last yield leaves ``terms == [1]``
    and gives the exact rank.
    """
    step = t - 1
    m = list(counts)
    if t == 1 and m[1]:
        raise ValueError("word contains the marker pattern")
    rank = 1
    yield rank
    steps = _steps(word, m, t)
    while terms[0].bit_length() > _WIDE_BITS:
        added, terms[:] = _window(terms, list(islice(steps, _WINDOW)), step)
        rank += added
        yield rank
    for y, x, shrink, c, dc in steps:
        for r, u in enumerate(terms):
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


def _rank(word: SymbolWord, cfg: PatternConfig) -> tuple[int, int, tuple[int, ...]]:
    """Rank, class size and count vector of a validated word: the walk run
    to its end."""
    counts = tuple(map(word.count, range(1, cfg.alphabet_size + 1)))
    terms = _terms(counts, cfg.marker_len)
    size = sum(terms)
    for rank in _walk(word, counts, terms, cfg.marker_len):
        pass
    return rank, size, counts


def rank_in_class(word: SymbolWord, cfg: PatternConfig) -> int:
    """1-based lexicographic rank of ``word`` among pattern-free words with
    the same count vector."""
    return _rank(check_word(word, cfg.alphabet_size), cfg)[0]


def unrank_in_class(
    m: tuple[int, ...], cfg: PatternConfig, rank: int
) -> SymbolWord:
    """Inverse of rank_in_class on the class with count vector ``m``.

    One pass over the positions with the signed ``_terms`` of the suffix.
    Candidate c's row is ``T_r * k / y_r``, exact, with ``k = x_r`` for
    c = 1 and ``k = m_c`` otherwise; for c = 2 that counts the 2 with its r
    marked copies, so the rows sum to the terms.  A candidate's count is its
    row's sum; c = 1 also loses the ``pending`` completions that would
    finish an open 2's pattern.  The chosen row, less a dead last term, is
    the next terms.  A chosen 2 takes the row ``T_r * (m_2 - r) / y_r``
    instead, and ``pending`` becomes that row's sum less the 2's count,
    ``-sum(T_r * r / y_r)``.  It holds through the 2's run of ones, which a
    symbol above 2 ends.  The pass never calls the rank walk.
    """
    _check_counts(m)
    if len(m) != cfg.alphabet_size:
        raise ValueError("count vector length does not match alphabet size")
    step = cfg.marker_len - 1
    terms = _terms(tuple(m), cfg.marker_len)
    total = sum(terms)
    if not 1 <= rank <= total:
        raise ValueError(f"rank {rank} outside 1..{total}")
    counts = list(m)
    pending = 0
    word: list[int] = []
    for n in range(sum(m), 0, -1):
        for c, k in enumerate(counts, start=1):
            if not k:
                continue
            shrink = step if c == 1 else 0
            row = [u * (k - r * shrink) // (n - r * step) for r, u in enumerate(terms)]
            count = sum(row) - (pending if c == 1 else 0)
            if rank <= count:
                break
            rank -= count
        else:  # pragma: no cover - rank was validated above
            raise AssertionError("unrank walk exhausted the alphabet")
        word.append(c)
        counts[c - 1] -= 1
        if c == 2:
            row = [u * (k - r) // (n - r * step) for r, u in enumerate(terms)]
            pending = sum(row) - count
        elif c > 2:
            pending = 0
        terms = row if row[-1] else row[:-1]
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
    """Map a pattern-free word to its (bit count, bits, class index) triple.

    The class size d splits as a sum of distinct powers of two; ranks are
    assigned to the power-of-two sub-blocks in order, and within a sub-block
    of size 2^e the word's offset from the block's top rank is written out as
    e bits (most significant first).
    """
    return _extract(check_word(word, cfg.alphabet_size), cfg)


def _extract(word: SymbolWord, cfg: PatternConfig) -> ExtractionTriple:
    """``extract`` for a word that ``check_word`` has already validated."""
    rank, size, m = _rank(word, cfg)
    e, offset = _sub_block(size, rank)
    bits = tuple(map(int, format(offset, f"0{e}b"))) if e else ()
    return ExtractionTriple(e, bits, class_index(m))


def _bit_count(word: SymbolWord, cfg: PatternConfig) -> int:
    """``_extract(word, cfg).num_bits``, ranking only as far as it takes.

    The walk stops at the first step whose rank interval lies inside one
    power-of-two sub-block.  It keeps the sub-block that holds the
    interval's low end, which only grows: 2^e ranks up to ``top``.  A class
    size that is a power of two settles at the start.  The word must be
    validated and pattern-free: a pattern after the stop goes unnoticed.
    """
    counts = tuple(map(word.count, range(1, cfg.alphabet_size + 1)))
    terms = _terms(counts, cfg.marker_len)
    rest = sum(terms)
    e = rest.bit_length() - 1
    top = 1 << e
    walk = _walk(word, counts, terms, cfg.marker_len)
    rank = next(walk)
    while rank + sum(terms) - 1 > top:
        rank = next(walk)
        while rank > top:
            rest ^= 1 << e
            e = rest.bit_length() - 1
            top += 1 << e
    return e


def invert(n: int, cfg: PatternConfig, triple: ExtractionTriple) -> SymbolWord:
    """Reconstruct the unique length-``n`` word mapping to ``triple``.

    Raises ValueError when the triple is not realizable for (n, cfg).
    """
    m = class_from_index(n, cfg.alphabet_size, triple.class_id)
    e = triple.num_bits
    # The sub-blocks above 2^e take the set bits of the class size above e.
    top = _free_count(m, cfg.marker_len) >> e
    if not top & 1:
        raise ValueError(f"bit count {e} not realizable for class {triple.class_id}")
    offset = int("".join("01"[b] for b in triple.bits), 2) if e else 0
    return unrank_in_class(m, cfg, (top << e) - offset)
