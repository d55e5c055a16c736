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
started simulator that is still running reads each position.

Every output index of a block shares the block's left marker, right extent
and simulated word, so ``map_range`` keeps one record per block; its
per-index outputs and reports are views built on first access.

The transform never sees the law that generated the input, only the stream
itself, so identical streams give identical outputs no matter their origin.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import ge
from typing import Iterable, Sequence

import numpy as np

from .core import ProbabilityVector, SymbolWord, check_word
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

    Every 2 that leaves room for the pattern is a candidate; a prefix count
    of ones confirms the t-1 ones after it.
    """
    t = cfg.marker_len
    arr = np.asarray(segment)
    ones = np.concatenate([[0], np.cumsum(arr == 1)])
    cand = np.flatnonzero(arr[: max(len(arr) - t + 1, 0)] == 2)
    return cand[ones[cand + t] - ones[cand + 1] == t - 1].tolist()


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
    flat_bits = [b for blk in blocks for b in blk.bits]
    total = first_flat[nblocks]
    flat_used = bytearray(total)

    sims = range(targets[0], nblocks)
    reads: dict[int, list[int]] = {k: [] for k in sims}
    results: dict[int, SymbolWord] = {}
    done: dict[int, int] = {}  # simulator -> position of its successful read

    def finish(k: int) -> int:
        # The lockstep step at which target k stops running.
        return done[k] - first_flat[k] + 1 if k in done else total - first_flat[k]

    pending = {k for k in targets if first_flat[k] < total}
    steps = None if pending else 0
    stack: list[tuple[int, DyadicCursor]] = []
    nxt = targets[0]
    for p in range(first_flat[nxt], total):
        while nxt < nblocks and first_flat[nxt] == p:
            stack.append((nxt, DyadicCursor(q, blocks[nxt].length)))
            nxt += 1
        if stack and (steps is None or p < first_flat[stack[-1][0]] + steps):
            k, cursor = stack[-1]
            if flat_used[p]:
                raise InvariantViolation(f"position {p} consumed twice (simulator {k})")
            flat_used[p] = 1
            reads[k].append(p)
            if cursor.feed(flat_bits[p]) and cursor.successful:
                stack.pop()
                results[k] = tuple(cursor.emitted)
                done[k] = p
                pending.discard(k)
                if steps is None and not pending:
                    steps = max(map(finish, targets))
    if steps is None:
        steps = max(map(finish, targets))

    checks = sum(map(len, reads.values()))
    for k in sims:
        taken = reads[k]
        checks += 1
        if any(map(ge, taken, taken[1:])):
            raise InvariantViolation(f"simulator {k} read out of order")
        limit = first_flat[k] + steps
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
    cap = max_window + 1  # index i sees the symbols before i + cap
    window = x[: last + cap]
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
        left = markers[k]
        lo, hi = max(first, left + 1), min(last, markers[k + 1])
        # Indices from ``seen`` on see block k's right marker, and those from
        # ``start`` on see everything its simulator read.
        seen = max(lo, markers[k + 1] + t - cap)
        start = hi + 1
        if k in schedule.results:
            right = markers[schedule.reach[k] + 1] + t
            start = max(seen, right - cap)
        if seen < min(start, hi + 1) and seen + cap < len(x):
            raise WindowExhausted(
                f"cap of {max_window} symbols past index {seen} exhausted "
                f"before block {k} completed"
            )
        undetermined.extend(range(lo, min(start, hi + 1)))
        if start <= hi:
            word = schedule.results[k][start - left - 1 : hi - left]
            records.append(BlockOutput(k, left, right, range(start, hi + 1), word))
    undetermined.extend(range(max(first, markers[-1] + 1), last + 1))
    return MapResult(records, undetermined)


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
