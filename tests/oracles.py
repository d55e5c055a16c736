"""Independent reference implementations used as test oracles.

Everything here is written for clarity, not speed, and deliberately avoids
the package's optimized code paths: pattern checks scan substrings directly,
stopping times are evaluated from their defining inequalities over explicit
prefixes, and the block schedule is a literal dict-based transcription of the
step rules with the success check re-run from scratch on every read.
``FractionCursor`` is the simulator cursor as first written, in ``Fraction``
arithmetic over absolute cell bounds; the package's integer cursor is checked
against it.  ``naive_rank_in_class``/``naive_unrank_in_class`` are the
within-class ranker as first written: every candidate symbol recounts its
completions from a cached factorial table, where the package walks the
inclusion-exclusion terms once.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from finitary.core import ProbabilityVector, SymbolWord, check_word, cumulative
from finitary.extractor import (
    PatternConfig,
    _advance,
    _check_counts,
    count_vector,
    extract,
)


def contains_marker(word, t) -> bool:
    n = len(word)
    for i in range(n - t + 1):
        if word[i] == 2 and all(word[i + d] == 1 for d in range(1, t)):
            return True
    return False


def brute_pattern_free(a, t, n):
    return [
        w
        for w in itertools.product(range(1, a + 1), repeat=n)
        if not contains_marker(w, t)
    ]


def prefix_decides(q: ProbabilityVector, bits) -> int | None:
    """Symbol decided by this exact prefix, from the defining inequalities."""
    cum = cumulative(q)
    k = len(bits)
    lo = sum(Fraction(b, 1 << (i + 1)) for i, b in enumerate(bits))
    hi = lo + Fraction(1, 1 << k)
    for j in range(1, q.size + 1):
        if cum[j - 1] < lo and hi < cum[j]:
            return j
    return None


def oracle_simulate(q: ProbabilityVector, bits):
    """First prefix length at which a symbol is decided, with the symbol."""
    for k in range(1, len(bits) + 1):
        j = prefix_decides(q, bits[:k])
        if j is not None:
            return k, j
    return None


def brute_survival(q: ProbabilityVector, kmax: int) -> list[Fraction]:
    """P(T > k) for k <= kmax by enumerating every length-k prefix."""
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        undecided = 0
        for bits in itertools.product((0, 1), repeat=k):
            if all(prefix_decides(q, bits[:j]) is None for j in range(1, k + 1)):
                undecided += 1
        out.append(Fraction(undecided, 1 << k))
    return out


class FractionCursor:
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


@dataclass(frozen=True)
class Block:
    """Block ``index`` of a stream: the symbols strictly between the left
    marker's pattern and the right marker form ``word``, whose extracted bits
    are ``bits``; the block owns the output indices
    ``left_marker < i <= right_marker``."""

    index: int
    left_marker: int
    right_marker: int
    word: SymbolWord
    bits: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.right_marker - self.left_marker

    @property
    def bit_count(self) -> int:
        return len(self.bits)


def naive_blocks(stream, a, t) -> list[Block]:
    """The blocks between consecutive markers, found by checking every start
    symbol by symbol, each with its word's extracted bits."""
    stream = tuple(stream)
    markers = [
        i
        for i in range(len(stream) - t + 1)
        if stream[i] == 2 and all(stream[i + d] == 1 for d in range(1, t))
    ]
    cfg = PatternConfig(a, t)
    blocks = []
    for k, (left, right) in enumerate(zip(markers, markers[1:])):
        word = stream[left + t : right]
        blocks.append(Block(k, left, right, word, extract(word, cfg).bits))
    return blocks


def naive_schedule(blocks, q, targets):
    """Literal transcription of the synchronous step rules.

    Returns (results, consumed, reach, exited, steps) for the simulators of
    ``blocks`` from min(targets) on, run until every target succeeds or runs
    off the last block: ``results[k]`` is simulator k's output word,
    ``consumed[k]`` the (block, bit) positions it read (bit 1-based),
    ``reach[k]`` the block of its successful read, ``exited`` those that ran
    off, and ``steps`` the lockstep's step count.  Success is re-checked by
    feeding the whole read string into a fresh cursor after every read.
    """
    targets = set(targets)
    ids = [b.index for b in blocks]
    V = {b.index: b.bit_count for b in blocks}
    bits = {b.index: b.bits for b in blocks}
    lam = {b.index: b.length for b in blocks}
    base = min(targets)
    sims = [k for k in ids if k >= base]

    def succ(p):
        j, m = p
        if m < V[j]:
            return (j, m + 1)
        for j2 in ids:
            if j2 > j and V[j2] > 0:
                return (j2, 1)
        return None

    def check_success(z, horizon):
        cur = FractionCursor(q, horizon)
        for b in z:
            cur.feed(b)
            if cur.successful:
                return tuple(cur.emitted)
        return None

    pos = {}
    reads: dict[int, list] = {}
    strings: dict[int, list] = {}
    done: dict[int, tuple] = {}
    reach: dict[int, int] = {}
    for k in sims:
        start = None
        for j2 in ids:
            if j2 >= k and V[j2] > 0:
                start = (j2, 1)
                break
        pos[k] = start
        reads[k] = []
        strings[k] = []

    steps = 0
    while any(k in targets and k not in done and pos[k] is not None for k in sims):
        steps += 1
        used_prev = {p for k in sims for p in reads[k]}
        pos_prev = dict(pos)
        for k in sims:
            if k in done or pos_prev[k] is None:
                continue
            p = pos_prev[k]
            if p in used_prev:
                pos[k] = succ(p)
                continue
            queued = any(k2 > k and pos_prev.get(k2) == p for k2 in sims)
            if queued:
                pos[k] = succ(p)
                continue
            reads[k].append(p)
            j, m = p
            strings[k].append(bits[j][m - 1])
            result = check_success(strings[k], lam[k])
            if result is not None:
                done[k] = result
                reach[k] = j
            else:
                pos[k] = succ(p)

    exited = frozenset(k for k in sims if k not in done and pos[k] is None)
    consumed = {k: tuple(reads[k]) for k in sims}
    return done, consumed, reach, exited, steps


def naive_map(stream, a, t, q):
    """Independent end-to-end recomputation of the stream transform."""
    blocks = naive_blocks(stream, a, t)
    if not blocks:
        return {}
    done, _, _, _, _ = naive_schedule(blocks, q, set(range(len(blocks))))
    outputs = {}
    for k, word in done.items():
        left = blocks[k].left_marker
        for offset, symbol in enumerate(word, start=1):
            outputs[left + offset] = symbol
    return outputs


_FACTORIALS = [1, 1]


def _fact(n: int) -> int:
    while len(_FACTORIALS) <= n:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return _FACTORIALS[n]


@lru_cache(maxsize=200_000)
def _free_count(m: tuple[int, ...], t: int) -> int:
    """Pattern-free word count by inclusion-exclusion over marked occurrences.

    The pattern cannot overlap itself, so the alternating sum over r disjoint
    marked copies is exact: the r-th term places r copies among the leftover
    symbols (a binomial) and arranges the rest (a multinomial).  Their product
    changes by a small-integer ratio from one r to the next, so each term is
    one big-by-small multiply and divide.
    """
    n = sum(m)
    ones, twos = m[0], m[1]
    rmax = min(twos, ones // (t - 1)) if t > 1 else twos
    term = _fact(n)
    den_prod = 1
    for c in m:
        den_prod *= _fact(c)
    term //= den_prod
    total = term
    a_ones, b_twos, top = ones, twos, n
    for r in range(rmax):
        num = b_twos
        den = r + 1
        for d in range(t - 1):
            num *= a_ones - d
            den *= top - d
        term = term * num // den
        total += -term if (r & 1) == 0 else term
        a_ones -= t - 1
        b_twos -= 1
        top -= t - 1
    return total


def _completions(m: tuple[int, ...], state: int, t: int) -> int:
    """Pattern-free completions from a given automaton state.

    A completion starting in state s >= 1 is excluded exactly when it begins
    with t-s ones (finishing the pending occurrence); everything else reduces
    to the unconditioned count.
    """
    total = _free_count(m, t)
    if state:
        need = t - state
        if m[0] >= need:
            total -= _free_count((m[0] - need,) + m[1:], t)
    return total


def naive_rank_in_class(word: SymbolWord, cfg: PatternConfig) -> int:
    """1-based lexicographic rank of ``word`` among pattern-free words with
    the same count vector."""
    word = check_word(word, cfg.alphabet_size)
    t = cfg.marker_len
    counts = list(count_vector(word, cfg.alphabet_size))
    state = 0
    rank = 1
    for sym in word:
        for c in range(1, sym):
            if not counts[c - 1]:
                continue
            nxt = _advance(state, c)
            if nxt == t:
                continue
            counts[c - 1] -= 1
            rank += _completions(tuple(counts), nxt, t)
            counts[c - 1] += 1
        state = _advance(state, sym)
        if state == t:
            raise ValueError("word contains the marker pattern")
        counts[sym - 1] -= 1
    return rank


def naive_unrank_in_class(
    m: tuple[int, ...], cfg: PatternConfig, rank: int
) -> SymbolWord:
    """Inverse of naive_rank_in_class on the class with count vector ``m``."""
    _check_counts(m)
    if len(m) != cfg.alphabet_size:
        raise ValueError("count vector length does not match alphabet size")
    t = cfg.marker_len
    total = _completions(tuple(m), 0, t)
    if not 1 <= rank <= total:
        raise ValueError(f"rank {rank} outside 1..{total}")
    counts = list(m)
    state = 0
    word: list[int] = []
    remaining = rank
    for _ in range(sum(m)):
        for c in range(1, cfg.alphabet_size + 1):
            if not counts[c - 1]:
                continue
            nxt = _advance(state, c)
            if nxt == t:
                continue
            counts[c - 1] -= 1
            below = _completions(tuple(counts), nxt, t)
            if remaining <= below:
                word.append(c)
                state = nxt
                break
            remaining -= below
            counts[c - 1] += 1
        else:  # pragma: no cover - rank was validated above
            raise AssertionError("unrank walk exhausted the alphabet")
    return tuple(word)
