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
started simulator that is still running reads each position.  The sweep
takes the blocks one at a time, so ``run_schedule`` feeds it a window's
blocks and ``encode_stream`` feeds it blocks as their closing markers
arrive.

Every output index of a block shares the block's left marker, right extent
and simulated word, so ``map_range`` keeps one record per block; its
per-index outputs and reports are views built on first access.
``encode_stream`` yields the same records for a whole stream read in
chunks, each once no lower simulator is still running.

The transform never sees the law that generated the input, only the stream
itself, so identical streams give identical outputs no matter their origin.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
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


@dataclass(frozen=True)
class BlockRecord:
    """One marker-delimited block.

    ``left_marker``/``right_marker`` are the absolute positions of the two
    delimiting markers; the block owns output indices
    ``left_marker < i <= right_marker``.  ``word`` is the interior with the
    left marker pattern removed, and ``bits`` the bit string extracted from
    it.
    """

    index: int
    left_marker: int
    right_marker: int
    word: SymbolWord
    bits: tuple[int, ...]

    @property
    def length(self) -> int:
        """Block length: number of output symbols this block must supply."""
        return self.right_marker - self.left_marker

    @property
    def bit_count(self) -> int:
        return len(self.bits)


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


def blocks_from_markers(
    segment: SymbolWord, markers: Sequence[int], cfg: PatternConfig
) -> list[BlockRecord]:
    """Blocks of a segment that ``check_word`` has already validated."""
    blocks = []
    for k, (left, right) in enumerate(zip(markers, markers[1:])):
        word = tuple(segment[left + cfg.marker_len : right])
        blocks.append(BlockRecord(k, left, right, word, extract(word, cfg).bits))
    return blocks


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a schedule run.

    ``results[k]`` is block k's output word once its simulator succeeded;
    ``reach[k]`` the rightmost block index it read from.  Simulators that ran
    off the window's right edge appear in ``exited`` and have no result.
    ``reads[k]`` lists the flat bit positions simulator k read, in order;
    ``consumed[k]`` (as (block, bit) pairs, bit 1-based) and ``read_bits[k]``
    are views of it, built on first access.
    """

    blocks: Sequence[BlockRecord]
    results: dict[int, SymbolWord]
    reads: dict[int, list[int]]
    reach: dict[int, int]
    exited: frozenset[int]
    steps: int
    invariant_checks: int

    @cached_property
    def consumed(self) -> dict[int, tuple[tuple[int, int], ...]]:
        blocks = enumerate(self.blocks)
        at = [(j, b) for j, blk in blocks for b in range(1, blk.bit_count + 1)]
        return {k: tuple(at[p] for p in ps) for k, ps in self.reads.items()}

    @cached_property
    def read_bits(self) -> dict[int, tuple[int, ...]]:
        bits = [b for blk in self.blocks for b in blk.bits]
        return {k: tuple(bits[p] for p in ps) for k, ps in self.reads.items()}


class _Sweep:
    """The schedule's stack sweep, fed one block at a time.

    Each block's bits take the next flat positions.  Its simulator is pushed
    at the first of them (a block without bits waits for the next block that
    has some), and the simulator on top of the stack reads each position
    while fewer than ``steps`` positions lie between its start and that
    position.  ``steps`` is unbounded until a caller sets it.

    Every read is checked against the last position read and the reading
    simulator's own last read, which is O(1) state per simulator: no
    position is read twice and each simulator reads in increasing order.
    """

    def __init__(self, q: ProbabilityVector, pos: int = 0):
        self.q = q
        self.pos = pos  # the next flat position
        self.last = -1  # the last position read
        self.steps = math.inf
        self.stack: list[list] = []  # [index, cursor, start, last read, reads]
        self.waiting: list[tuple] = []  # blocks whose bits have not started

    def lowest(self) -> int | None:
        """The lowest simulator still running or waiting to start."""
        if self.stack:
            return self.stack[0][0]
        return self.waiting[0][0] if self.waiting else None

    def feed(
        self, k: int, length: int, bits: Sequence[int], reads: list[int] | None = None
    ) -> Iterator[tuple[int, DyadicCursor, int]]:
        """Add block k, the next block, and sweep its bits.

        Yields ``(simulator, cursor, position)`` each time a simulator
        succeeds; the caller may set ``steps`` before resuming.  When
        ``reads`` is a list, simulator k appends each position it reads.
        """
        self.waiting.append((k, length, reads))
        if not bits:
            return
        stack, p = self.stack, self.pos
        for j, n, taken in self.waiting:
            stack.append([j, DyadicCursor(self.q, n), p, -1, taken])
        self.waiting.clear()
        self.pos = p + len(bits)
        last = self.last
        k, cursor, start, prev, taken = stack[-1]
        stop = start + self.steps
        for p, bit in enumerate(bits, p):
            if p >= stop:
                break
            if p <= last:
                raise InvariantViolation(f"position {p} consumed twice (simulator {k})")
            if p <= prev:
                raise InvariantViolation(f"simulator {k} read out of order")
            last = prev = p
            if taken is not None:
                taken.append(p)
            if cursor.feed(bit) and cursor.successful:
                stack.pop()
                self.last = last
                yield k, cursor, p
                if not stack:
                    return
                k, cursor, start, prev, taken = stack[-1]
                stop = start + self.steps
        stack[-1][3] = prev
        self.last = last


def run_schedule(
    blocks: Sequence[BlockRecord],
    q: ProbabilityVector,
    targets: Iterable[int],
) -> ScheduleResult:
    """Run the block schedule until every target simulator succeeds or runs
    off the window.

    Simulators exist for every block index from min(targets) to the end of
    the window; indices below min(targets) cannot influence those at or above
    it.  One left-to-right sweep over the flat bit positions pushes each
    simulator when it reaches the simulator's first position and lets the
    simulator on top of the stack read; a successful simulator is popped.
    This is the lockstep rule, since lockstep simulators never change their
    offsets: position p is reached first by the running simulator with the
    largest start <= p (the larger index on a tie), which is the top.

    ``steps`` is the lockstep's step count, the largest finishing offset over
    the targets.  The lockstep stops there, so simulator j keeps only the
    reads at positions below ``start[j] + steps``.  A read past j's limit is
    past the limit of every simulator below j on the stack, so dropping it
    changes no kept read.
    """
    targets = sorted(set(targets))
    if not targets:
        raise ValueError("no targets")
    nblocks = len(blocks)
    for pos, blk in enumerate(blocks):
        if blk.index != pos:
            raise ValueError("block indices must be contiguous from 0")
    if targets[0] < 0 or targets[-1] >= nblocks:
        raise ValueError(f"targets outside window blocks 0..{nblocks - 1}")

    first_flat = [0, *accumulate(blk.bit_count for blk in blocks)]
    total = first_flat[nblocks]
    sims = range(targets[0], nblocks)
    reads: dict[int, list[int]] = {k: [] for k in sims}
    results: dict[int, SymbolWord] = {}
    done: dict[int, int] = {}  # simulator -> position of its successful read

    def finish(k: int) -> int:
        # The lockstep step at which target k stops running.
        return done[k] - first_flat[k] + 1 if k in done else total - first_flat[k]

    pending = {k for k in targets if first_flat[k] < total}
    sweep = _Sweep(q, first_flat[targets[0]])
    for blk in blocks[targets[0] :]:
        for k, cursor, p in sweep.feed(blk.index, blk.length, blk.bits, reads[blk.index]):
            results[k] = tuple(cursor.emitted)
            done[k] = p
            if k in pending:
                pending.remove(k)
                if not pending:
                    sweep.steps = max(map(finish, targets))
    steps = max(map(finish, targets))

    checks = sum(map(len, reads.values()))
    for k in sims:
        limit = first_flat[k] + steps
        taken = reads[k]
        del taken[bisect_left(taken, limit) :]
        if k in done and done[k] >= limit:
            del done[k], results[k]
    return ScheduleResult(
        blocks=blocks,
        results=results,
        reads=reads,
        reach={k: bisect_right(first_flat, p) - 1 for k, p in done.items()},
        exited=frozenset(
            k for k in sims if k not in done and first_flat[k] + steps >= total
        ),
        steps=steps,
        invariant_checks=checks,
    )


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


def _block_output(
    k: int,
    left: int,
    marker: int,
    lo: int,
    hi: int,
    word: SymbolWord | None,
    right: int | None,
    t: int,
    max_window: int,
    length: int,
) -> BlockOutput | None:
    """The record of block k's indices ``lo..hi``, or None if none of them
    is determined.

    The block lies between the markers at ``left`` and ``marker``.  ``word``
    is its simulated word, None while or when the simulator did not
    succeed, and ``right`` the end of the marker closing the last block the
    simulator read.  Raises WindowExhausted when an index's cap cut off what
    it needed and the input, of ``length`` symbols, continues past that cap.
    """
    cap = max_window + 1  # index i sees the symbols before i + cap
    # Indices from ``seen`` on see block k's right marker, and those from
    # ``start`` on see everything its simulator read.
    seen = max(lo, marker + t - cap)
    start = hi + 1 if word is None else max(seen, right - cap)
    if seen < min(start, hi + 1) and seen + cap < length:
        raise WindowExhausted(
            f"cap of {max_window} symbols past index {seen} exhausted "
            f"before block {k} completed"
        )
    if start > hi:
        return None
    symbols = word[start - left - 1 : hi - left]
    return BlockOutput(k, left, right, range(start, hi + 1), symbols)


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
    the work is done once per block.
    """
    x = check_word(stream, cfg.alphabet_size)
    if not 0 <= first <= last < len(x):
        raise ValueError(f"range {first}..{last} outside input 0..{len(x) - 1}")
    window = x[: last + max_window + 1]
    markers = scan_markers(window, cfg)
    ks = range(
        max(bisect_left(markers, first), 1) - 1,
        min(bisect_left(markers, last), len(markers) - 1),
    )
    if not ks:
        return MapResult([], list(range(first, last + 1)))

    schedule = run_schedule(blocks_from_markers(window, markers, cfg), q, ks)
    t = cfg.marker_len
    undetermined = list(range(first, min(last, markers[0]) + 1))
    records = []
    for k in ks:
        left, marker = markers[k], markers[k + 1]
        lo, hi = max(first, left + 1), min(last, marker)
        word = right = None
        if k in schedule.results:
            word = schedule.results[k]
            right = markers[schedule.reach[k] + 1] + t
        record = _block_output(k, left, marker, lo, hi, word, right, t, max_window, len(x))
        undetermined.extend(range(lo, record.indices.start if record else hi + 1))
        if record:
            records.append(record)
    undetermined.extend(range(max(first, markers[-1] + 1), last + 1))
    return MapResult(records, undetermined)


def encode_stream(
    chunks: Iterable[Sequence[int]],
    cfg: PatternConfig,
    q: ProbabilityVector,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> Iterator[BlockOutput]:
    """``map_range`` over a whole stream that arrives in chunks.

    Yields the records of ``map_range(stream, cfg, q, 0, len(stream) - 1,
    max_window).blocks`` in order, each as soon as it is final.  Markers are
    scanned, blocks extracted and their bits swept as the symbols arrive.
    Every block of a whole stream is a target, so the lockstep's step cut
    never drops a read, and block k's record is final once no simulator
    with index <= k is still running.

    The state kept is the running simulators and their blocks' markers, the
    finished records that wait for a lower simulator, and the symbols of the
    block not yet closed.  The lowest running simulator can run only until
    the input passes its cap, so all of it but the open block lies within
    ``max_window`` symbols of that simulator's block.

    Raises WindowExhausted as soon as the input runs past the cap of a block
    whose simulator has not succeeded, which is when the whole-stream call
    raises, since every bit that has arrived has been swept by then.  A bad
    symbol raises ValueError after the symbols before it have been worked
    through, so the error is WindowExhausted exactly when that prefix alone
    gives it.
    """
    t, alphabet = cfg.marker_len, cfg.alphabet_size
    sweep = _Sweep(q)
    markers: dict[int, tuple[int, int]] = {}  # running block -> its two markers
    finished: list[tuple[int, BlockOutput]] = []  # heap of records not yet yielded
    buf: list[int] = []  # the symbols from ``base`` on
    base = received = 0
    left = None  # the marker that opens the block not yet closed
    nxt = 0  # index of the next block to close

    def check_running() -> None:
        # The lowest running block has the lowest cap of all.
        k = sweep.lowest()
        if k is not None:
            left_k, right_k = markers[k]
            _block_output(
                k, left_k, right_k, left_k + 1, right_k, None, None, t, max_window, received
            )

    def ready(lowest: int | None) -> Iterator[BlockOutput]:
        # Records below the lowest running simulator are final.
        while finished and (lowest is None or finished[0][0] < lowest):
            yield heappop(finished)[1]

    for chunk in chunks:
        try:
            symbols, error = check_word(chunk, alphabet, received), None
        except SymbolError as exc:
            symbols, error = check_word(chunk[: exc.position - received], alphabet), exc
        scan_from = max(received - t + 1, 0)  # where a marker may start unseen
        buf.extend(symbols)
        received += len(symbols)
        for marker in scan_markers(buf[scan_from - base :], cfg):
            marker += scan_from
            if left is not None:
                word = tuple(buf[left + t - base : marker - base])
                markers[nxt] = (left, marker)
                for k, cursor, _ in sweep.feed(nxt, marker - left, extract(word, cfg).bits):
                    left_k, right_k = markers.pop(k)
                    try:
                        record = _block_output(
                            k, left_k, right_k, left_k + 1, right_k, tuple(cursor.emitted),
                            marker + t, t, max_window, received,
                        )
                    except WindowExhausted:
                        check_running()  # a lower block ran past its cap first
                        raise
                    if record:
                        heappush(finished, (k, record))
                nxt += 1
                yield from ready(sweep.lowest())
            left = marker
        check_running()
        cut = max(received - t + 1, 0) if left is None else min(left + t, received - t + 1)
        del buf[: cut - base]
        base = cut
        if error is not None:
            raise error
    check_running()
    # Every simulator still running has run off the input.
    yield from ready(None)


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
