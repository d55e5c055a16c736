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
scans the markers, extracts each block once its closing marker has arrived
and feeds the block's bits to the sweep.  ``encode_stream`` runs it over a
whole stream read in chunks; ``map_range`` runs it over the window its
indices can see, from the first block that holds one of them until the
simulators of those blocks have finished.

Every output index of a block shares the block's left marker, right extent
and simulated word, so the loop yields one record per block, each once no
lower simulator is still running.  ``map_range``'s per-index outputs and
reports are views of the records, built on first access.

The transform never sees the law that generated the input, only the stream
itself, so identical streams give identical outputs no matter their origin.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Iterator, Sequence

from .core import ProbabilityVector, SymbolError, SymbolWord, check_word
from .dyadic import DyadicCursor
# Callers validate the whole stream once, so block words skip the check.
from .extractor import PatternConfig, _extract as extract

DEFAULT_MAX_WINDOW = 10**6


class WindowExhausted(RuntimeError):
    """The window cap cut off input that the schedule still needed."""


class UndeterminedIndex(LookupError):
    """The requested output index cannot be determined from the available input."""


class InvariantViolation(AssertionError):
    """A schedule invariant (disjoint, in-order reads) failed."""


def scan_markers(segment: Sequence[int], cfg: PatternConfig) -> list[int]:
    """Positions (0-based) where the full marker pattern fits and matches.

    Each symbol becomes one byte.  Any int is read: when some symbol lies
    outside 0..255 (a negative one, say), every symbol other than 1 and 2
    becomes the byte 0, which is neither.  A sequence other than a list or
    tuple (a numpy array, say) is read by value, not as a buffer.  The
    pattern cannot overlap itself, so the non-overlapping matches of a
    regular expression are all of its occurrences.
    """
    symbols = segment if isinstance(segment, (list, tuple)) else list(segment)
    try:
        data = bytes(symbols)
    except ValueError:  # a symbol outside 0..255
        data = bytes(s if s == 1 or s == 2 else 0 for s in symbols)
    pattern = b"\x02" + b"\x01" * (cfg.marker_len - 1)
    return [m.start() for m in re.finditer(pattern, data)]


class _Sweep:
    """The schedule's stack sweep, fed one block at a time.

    Each block's bits take the next flat positions.  Its simulator is pushed
    at the first of them (a block without bits waits for the next block that
    has some), and the simulator on top of the stack reads each position.
    This is the lockstep rule, since lockstep simulators never change their
    offsets: position p is reached first by the running simulator with the
    largest start <= p (the larger index on a tie), which is the top.

    Every read is checked against the last position read and the reading
    simulator's own last read, which is O(1) state per simulator: no
    position is read twice and each simulator reads in increasing order.
    """

    def __init__(self, q: ProbabilityVector):
        self.q = q
        self.pos = 0  # the next flat position
        self.last = -1  # the last position read
        self.stack: list[list] = []  # [index, cursor, last read]
        self.waiting: list[tuple[int, int]] = []  # blocks whose bits have not started

    def lowest(self) -> int | None:
        """The lowest simulator still running or waiting to start."""
        if self.stack:
            return self.stack[0][0]
        return self.waiting[0][0] if self.waiting else None

    def feed(
        self, k: int, length: int, bits: Sequence[int]
    ) -> Iterator[tuple[int, DyadicCursor]]:
        """Add block k, the next block, and sweep its bits.

        Yields ``(simulator, cursor)`` each time a simulator succeeds.
        """
        self.waiting.append((k, length))
        if not bits:
            return
        stack, p = self.stack, self.pos
        for j, n in self.waiting:
            stack.append([j, DyadicCursor(self.q, n), -1])
        self.waiting.clear()
        self.pos = p + len(bits)
        last = self.last
        k, cursor, prev = stack[-1]
        for p, bit in enumerate(bits, p):
            if p <= last:
                raise InvariantViolation(f"position {p} consumed twice (simulator {k})")
            if p <= prev:
                raise InvariantViolation(f"simulator {k} read out of order")
            last = prev = p
            if cursor.feed(bit) and cursor.successful:
                stack.pop()
                self.last = last
                yield k, cursor
                if not stack:
                    return
                k, cursor, prev = stack[-1]
        stack[-1][2] = prev
        self.last = last


@dataclass(frozen=True)
class CodingReport:
    """Certificate that the output at ``index`` is a function of the input
    symbols within ``[left_marker, right_extent]``; ``radius`` is the
    certified window half-width max(index - left_marker, right_extent - index).
    """

    index: int
    block: int
    left_marker: int
    right_extent: int
    radius: int


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
        out = {}
        for b in self.blocks:
            left, right = b.left_marker, b.right_extent
            for i in b.indices:
                out[i] = CodingReport(i, b.block, left, right, max(i - left, right - i))
        return out


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
    they would in the whole stream.  Block k's record is final, and yielded,
    once no simulator with index <= k is still running.  The loop returns
    once the open block starts at or past ``last`` and every simulator of a
    block holding an index <= ``last`` has finished.

    Each block's indices are clipped to ``first..last`` and then capped:
    index i may look at most ``max_window`` symbols past itself.  An index
    whose block's closing marker, or whose simulator's reads, lie past its
    cap is left out of the record.  WindowExhausted is raised when the
    simulator did not succeed within the cap of one of its indices and the
    input runs past that cap (so the cap, not the input, was binding).
    That is checked as soon as the input passes the cap of the lowest
    running block, which has the lowest cap of all.

    The state kept is the running simulators and their blocks' markers, the
    finished records that wait for a lower simulator, and the symbols of the
    block not yet closed.  The lowest running simulator can run only until
    the input passes its cap, so all of it but the open block lies within
    ``max_window`` symbols of that simulator's block.
    """
    t = cfg.marker_len
    cap = max_window + 1  # index i sees the symbols before i + cap
    sweep = _Sweep(q)
    markers: dict[int, tuple[int, int]] = {}  # running block -> its two markers
    finished: list[tuple[int, BlockOutput]] = []  # heap of records not yet yielded
    buf: list[int] = []  # the symbols from ``base`` on
    base = received = 0
    left = None  # the marker that opens the block not yet closed
    nxt = 0  # index of the next block to close

    def output(k: int, word: SymbolWord | None = None, right: int = 0) -> BlockOutput | None:
        # Block k's record, or None if none of its indices is determined.
        # ``word`` is its simulated word, None while the simulator runs, and
        # ``right`` the end of the marker closing the last block it read.
        left_k, marker = markers[k]
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
        k = sweep.lowest()
        if k is not None:
            output(k)

    def ready(lowest: int | None) -> Iterator[BlockOutput]:
        # Records below the lowest running simulator are final.
        while finished and (lowest is None or finished[0][0] < lowest):
            yield heappop(finished)[1]

    for symbols in chunks:
        scan_from = max(received - t + 1, 0)  # where a marker may start unseen
        buf.extend(symbols)
        received += len(symbols)
        for marker in scan_markers(buf[scan_from - base :], cfg):
            marker += scan_from
            if left is not None:
                if marker >= first:
                    word = tuple(buf[left + t - base : marker - base])
                    markers[nxt] = (left, marker)
                    for k, cursor in sweep.feed(nxt, marker - left, extract(word, cfg).bits):
                        try:
                            record = output(k, tuple(cursor.emitted), marker + t)
                        except WindowExhausted:
                            check_running()  # a lower block ran past its cap first
                            raise
                        del markers[k]
                        if record:
                            heappush(finished, (k, record))
                    yield from ready(sweep.lowest())
                nxt += 1
            left = marker
            if left >= last:
                k = sweep.lowest()
                if k is None or markers[k][0] >= last:
                    return  # every record in range has been yielded
        check_running()
        cut = max(received - t + 1, 0) if left is None else min(left + t, received - t + 1)
        del buf[: cut - base]
        base = cut
    check_running()
    # Every simulator still running has run off the input.
    yield from ready(None)


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
