"""Marker-delimited block transform from one symbol stream to another.

The input stream is cut into blocks at markers (the pattern 2 followed by
t-1 ones).  Each block's interior word is squeezed into unbiased bits; one
simulator per block then reads bits to draw the block's worth of output
symbols.  The simulators follow a lockstep rule: each advances one bit
position per step, positions already consumed are skipped, and when several
simulators meet at a free position the rightmost one reads it while the
others move on (a queue-up).  A simulator that outruns its own block's bits
drifts into the blocks to its right.

Lockstep simulators keep their offsets, so the rule is a stack, and the
schedule runs as one left-to-right sweep over the bit positions: the latest
started simulator that is still running reads each position.  One loop
scans the markers and, once a block's closing marker has arrived, hands
its bits to the sweep as a sized iterable of "0" and "1" (see
``extractor._lazy_bits``).  The simulators on the stack share one iterator
over it: the one on top reads a run, up to its success or the end of the
bits, in one cursor call, and the next one goes on from there, so a block
costs O(e) however many simulators finish inside it.  A wide block's bits
are made as they are read, so its rank walk runs only as far as the last
simulator over it reads; when the stack empties, ``_Sweep.feed`` returns
and drops the paused walk, with its O(t) values, unfinished.

A stream may have no block that can feed its own simulator.  Two facts
bound a block.  A pattern-free word of n symbols yields e bits with
2^e <= a^n, since 2^e is a sub-block of its class, which holds at most a^n
words.  And a cursor emits its h symbols only once the dyadic interval of
the m bits it read, of width 2^-m, lies strictly inside a cell of width at
most q_max^h, so only once 2^m q_max^h > 1.  A block of n interior symbols
has h = n + t, so when a^n q_max^(n+t) <= 1 its simulator reads all of its
own bits and does not finish.  When a q_max <= 1, as with a zero entropy
gap, that holds for every n: no simulator ever finishes, so none ever
reads past its own bits, and no output is ever determined.  Such a stream
is found with one comparison before its first block.  Only the cap of its
lowest block is ever checked, so that block alone is kept, with no bits
and no cursor, and the rest of the stream is only counted: no block of it
is extracted, and no chunk after the one that closes that block is scanned.

``encode_stream`` runs the loop over a whole stream read in chunks;
``map_range`` runs it over the window its indices can see, from the first
block that holds one of them until the simulators of those blocks have
finished.

Every output index of a block shares the block's left marker, right extent
and simulated word, so the loop yields one record per block, each once the
sweep's stack, the one record of every unfinished block, is empty.
``map_range``'s per-index outputs and reports are views of the records,
built on first access.

The transform never sees the law that generated the input, only the stream
itself, so identical streams give identical outputs no matter their origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import ProbabilityVector, SymbolError, SymbolWord, check_word
from .dyadic import DyadicCursor
# Callers validate the whole stream once, and a block's word lies between
# consecutive markers, so block words skip both checks.
from .extractor import PatternConfig, _LazyBits, _lazy_bits, scan_markers

DEFAULT_MAX_WINDOW = 10**6


class WindowExhausted(RuntimeError):
    """The window cap cut off input that the schedule still needed."""


class UndeterminedIndex(LookupError):
    """The requested output index cannot be determined from the available input."""


class InvariantViolation(AssertionError):
    """A schedule invariant (disjoint, in-order reads) failed."""


class _Sweep:
    """The schedule's stack sweep, fed one block at a time.

    Each block's bits take the next flat positions.  Its simulator is pushed
    at once, at the first of them (a block without bits starts where the
    next block's bits do), and the simulator on top of the stack reads each
    position.  This is the lockstep rule, since lockstep simulators never
    change their offsets: position p is reached first by the running
    simulator with the largest start <= p (the larger index on a tie), which
    is the top.  So the top reads a whole run of positions in one cursor
    call, up to its success or the end of the block's bits, from an iterator
    over the block's bits that the simulators below it go on reading.  The
    stack is the one record of every unfinished block, in index order.

    Every run is checked against the last position read and the reading
    simulator's own last read, which is O(1) state per simulator: no
    position is read twice and each simulator reads in increasing order.
    A run is contiguous, so checking its first position checks all of it.
    """

    def __init__(self, q: ProbabilityVector):
        self.q = q
        self.pos = 0  # the next flat position
        self.last = -1  # the last position read
        self.stack: list[list] = []  # [(index, left, right), cursor, last read]

    def feed(
        self, k: int, left: int, right: int, bits: str | _LazyBits
    ) -> Iterator[tuple[tuple[int, int, int], DyadicCursor]]:
        """Push block k, the next block, between the markers at ``left`` and
        ``right``, whose extracted bits are ``bits``, and sweep them.  Only
        ``len(bits)`` and one ``iter(bits)`` are used, so a sized iterable of
        "0" and "1" that makes its bits as they are read does as well as a
        string.

        Yields ``((index, left, right), cursor)`` each time a simulator
        succeeds.
        """
        stack, p = self.stack, self.pos
        stack.append([(k, left, right), DyadicCursor(self.q, right - left), -1])
        end = self.pos = p + len(bits)
        last = self.last
        block, cursor, prev = stack[-1]
        rest = iter(bits)
        while p < end:
            if p <= last:
                raise InvariantViolation(f"position {p} consumed twice (simulator {block[0]})")
            if p <= prev:
                raise InvariantViolation(f"simulator {block[0]} read out of order")
            p += cursor.read(rest)
            last = prev = p - 1
            if not cursor.successful:
                break
            stack.pop()
            self.last = last
            yield block, cursor
            if not stack:
                return
            block, cursor, prev = stack[-1]
        stack[-1][2] = prev
        self.last = last


@dataclass(frozen=True)
class CodingReport:
    """Certificate that the output at ``index`` is a function of the input
    symbols within ``[left_marker, right_extent)``, the right end exclusive;
    ``radius`` is the certified window half-width max(index - left_marker,
    right_extent - index).
    """

    index: int
    block: int
    left_marker: int
    right_extent: int

    @property
    def radius(self) -> int:
        return max(self.index - self.left_marker, self.right_extent - self.index)


@dataclass(frozen=True)
class BlockOutput:
    """The determined outputs of one block: ``symbols[j]`` is the output at
    index ``indices[j]``.  Each of those indices has ``left_marker`` and
    ``right_extent`` in its CodingReport."""

    block: int
    left_marker: int
    right_extent: int
    indices: range
    symbols: SymbolWord


@dataclass(frozen=True)
class MapResult:
    """Outcome of ``map_range``: one record per block with determined
    indices, in index order, and the undetermined indices, sorted.
    ``outputs`` and ``reports``, keyed by index, are views of the records,
    built on first access."""

    blocks: list[BlockOutput]
    undetermined: list[int]

    @cached_property
    def outputs(self) -> dict[int, int]:
        return {i: s for b in self.blocks for i, s in zip(b.indices, b.symbols)}

    @cached_property
    def reports(self) -> dict[int, CodingReport]:
        return {
            i: CodingReport(i, b.block, b.left_marker, b.right_extent)
            for b in self.blocks
            for i in b.indices
        }


def _checked(chunks: Iterable[Sequence[int]], alphabet_size: int) -> Iterator[SymbolWord]:
    """The chunks, validated, with positions counted across them.

    A chunk with a bad symbol is cut before it, and the error is raised on
    the next request, so the symbols before it are worked through first.
    """
    received = 0
    for chunk in chunks:
        try:
            symbols = check_word(chunk, alphabet_size, received)
        except SymbolError as exc:
            yield check_word(chunk[: exc.position - received], alphabet_size)
            raise
        received += len(symbols)
        yield symbols


def _records(
    chunks: Iterable[SymbolWord],
    cfg: PatternConfig,
    q: ProbabilityVector,
    max_window: int,
    first: int = 0,
    last: float = math.inf,
) -> Iterator[BlockOutput]:
    """The records of the blocks that hold indices ``first..last`` of a
    validated stream that arrives in chunks, in block order.

    Markers are scanned, blocks extracted and their bits swept as the
    symbols arrive.  A block whose closing marker lies before ``first`` is
    skipped: no simulator reads to its left, so the ones to its right run as
    they would in the whole stream.  Block k's record is final once no
    simulator with index <= k is still running.  The bottom of the sweep's
    stack is the lowest running block and pops last, and every block that
    finishes before it has a higher index.  So the finished records are
    held until the stack empties, and then yielded in block order.  The
    loop returns once the open block starts at or past ``last`` and every
    simulator of a block holding an index <= ``last`` has finished.

    Each block's indices are clipped to ``first..last`` and then capped:
    index i may look at most ``max_window`` symbols past itself, and a
    negative ``max_window`` raises ValueError.  An index whose block's
    closing marker, or whose simulator's reads, lie past its cap is left
    out of the record.  WindowExhausted is raised when the
    simulator did not succeed within the cap of one of its indices and the
    input runs past that cap (so the cap, not the input, was binding).
    That is checked as soon as the input passes the cap of the lowest
    running block, which has the lowest cap of all.

    When a q_max <= 1 no simulator can finish (see the module docstring).
    The lowest block is then the one entry the stack ever gets, with no
    cursor, and every chunk after the one that closes it is only counted
    and checked against that block's cap.

    The state kept is the sweep's stack, whose entries carry the running
    blocks and their markers, the finished records that wait for it to
    empty, and the symbols of the block not yet closed.  The lowest running
    simulator can run only until the input passes its cap, so all of it but
    the open block lies within ``max_window`` symbols of that simulator's
    block.
    """
    if max_window < 0:
        raise ValueError(f"max_window must be >= 0, got {max_window}")
    t = cfg.marker_len
    cap = max_window + 1  # index i sees the symbols before i + cap
    sweep = _Sweep(q)
    cum, den = q.scaled_cumulative
    starved = cfg.alphabet_size * max(hi - lo for lo, hi in zip(cum, cum[1:])) <= den
    finished: list[BlockOutput] = []  # records that wait for the stack to empty
    buf: list[int] = []  # the symbols from ``base`` on
    base = received = 0
    left = None  # the marker that opens the block not yet closed
    nxt = 0  # index of the next block to close

    def output(
        block: tuple[int, int, int], word: SymbolWord | None = None, right: int = 0
    ) -> BlockOutput | None:
        # The record of ``block``, or None if none of its indices is
        # determined.  ``word`` is its simulated word, None while the
        # simulator runs, and ``right`` the end of the marker closing the
        # last block it read.
        k, left_k, marker = block
        lo, hi = max(first, left_k + 1), min(last, marker)
        # Indices from ``seen`` on see block k's right marker, and those from
        # ``start`` on see everything its simulator read.
        seen = max(lo, marker + t - cap)
        start = hi + 1 if word is None else max(seen, right - cap)
        if seen < min(start, hi + 1) and seen + cap < received:
            raise WindowExhausted(
                f"cap of {max_window} symbols past index {seen} exhausted "
                f"before block {k} completed"
            )
        if start > hi:
            return None
        symbols = word[start - left_k - 1 : hi - left_k]
        return BlockOutput(k, left_k, right, range(start, hi + 1), symbols)

    def check_running() -> None:
        if sweep.stack:
            output(sweep.stack[0][0])

    def release() -> Iterator[BlockOutput]:
        finished.sort(key=lambda record: record.block)
        yield from finished
        finished.clear()

    for symbols in chunks:
        if starved and sweep.stack:
            received += len(symbols)
            check_running()
            continue
        scan_from = max(received - t + 1, 0)  # where a marker may start unseen
        buf.extend(symbols)
        received += len(symbols)
        for marker in scan_markers(buf[scan_from - base :], cfg):
            marker += scan_from
            if left is not None:
                if marker >= first:
                    if starved:  # no cursor, and no more markers
                        sweep.stack.append([(nxt, left, marker), None, -1])
                        buf.clear()
                        break
                    word = tuple(buf[left + t - base : marker - base])
                    bits = _lazy_bits(word, cfg)
                    for block, cursor in sweep.feed(nxt, left, marker, bits):
                        try:
                            record = output(block, tuple(cursor.emitted), marker + t)
                        except WindowExhausted:
                            check_running()  # a lower block ran past its cap first
                            raise
                        if record:
                            finished.append(record)
                    if not sweep.stack:
                        yield from release()
                nxt += 1
            left = marker
            if left >= last and (not sweep.stack or sweep.stack[0][0][1] >= last):
                return  # every record in range has been yielded
        check_running()
        cut = max(received - t + 1, 0) if left is None else min(left + t, received - t + 1)
        del buf[: cut - base]
        base = cut
    check_running()
    # Every simulator still running has run off the input.
    yield from release()


def map_range(
    stream: Sequence[int],
    cfg: PatternConfig,
    q: ProbabilityVector,
    first: int,
    last: int,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> MapResult:
    """Transform the output indices ``first..last`` (inclusive, 0-based).

    Each index may look at most ``max_window`` symbols past itself, so it gets
    the outcome it would get alone.  Indices whose block's right marker lies
    past their cap, or whose block or schedule cannot be completed from the
    available input, are reported undetermined.  WindowExhausted is raised
    when an index's schedule failed *and* the stream continues beyond that
    index's cap (so the cap, not the input, was the binding constraint).
    Every index of a block shares its left marker, right extent and word, so
    the work is done once per block, and only for the blocks of the range
    and the blocks their simulators read.
    """
    x = check_word(stream, cfg.alphabet_size)
    if not 0 <= first <= last < len(x):
        raise ValueError(f"range {first}..{last} outside input 0..{len(x) - 1}")
    # The symbol after the last index's cap tells whether the input goes on.
    window = x[: last + max_window + 2]
    blocks = list(_records([window], cfg, q, max_window, first, last))
    undetermined, i = [], first
    for b in blocks:
        undetermined += range(i, b.indices.start)
        i = b.indices.stop
    undetermined += range(i, last + 1)
    return MapResult(blocks, undetermined)


def encode_stream(
    chunks: Iterable[Sequence[int]],
    cfg: PatternConfig,
    q: ProbabilityVector,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> Iterator[BlockOutput]:
    """``map_range`` over a whole stream that arrives in chunks.

    Yields the records of ``map_range(stream, cfg, q, 0, len(stream) - 1,
    max_window).blocks`` in order, each as soon as it is final.  Memory
    holds only the loop's state (see ``_records``), which does not grow
    with the length of the stream.

    Raises WindowExhausted as soon as the input runs past the cap of a block
    whose simulator has not succeeded, which is when the whole-stream call
    raises, since every bit that has arrived has been swept by then.  A bad
    symbol raises ValueError after the symbols before it have been worked
    through, so the error is WindowExhausted exactly when that prefix alone
    gives it.
    """
    return _records(_checked(chunks, cfg.alphabet_size), cfg, q, max_window)


def certified_radius(
    stream: Sequence[int],
    cfg: PatternConfig,
    q: ProbabilityVector,
    index: int,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> int:
    """Certified coding radius at one index; raises UndeterminedIndex when the
    available input does not determine the output there."""
    result = map_range(stream, cfg, q, index, index, max_window=max_window)
    if index in result.reports:
        return result.reports[index].radius
    raise UndeterminedIndex(f"output at index {index} is undetermined")
