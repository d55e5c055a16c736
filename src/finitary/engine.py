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

The transform never sees the law that generated the input, only the stream
itself, so identical streams give identical outputs no matter their origin.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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
    def word_length(self) -> int:
        return len(self.word)

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


def segment_blocks(segment: Sequence[int], cfg: PatternConfig) -> list[BlockRecord]:
    """Blocks between consecutive markers, with words and extracted bits.

    Fewer than two markers yield no complete block.  Raises ValueError on a
    symbol outside the alphabet anywhere in the segment.
    """
    segment = check_word(segment, cfg.alphabet_size)
    markers = scan_markers(segment, cfg)
    return blocks_from_markers(segment, markers, cfg)


def blocks_from_markers(
    segment: SymbolWord, markers: Sequence[int], cfg: PatternConfig
) -> list[BlockRecord]:
    """Blocks of a segment that ``check_word`` has already validated."""
    blocks = []
    for k in range(len(markers) - 1):
        left, right = markers[k], markers[k + 1]
        word = tuple(segment[left + cfg.marker_len : right])
        triple = extract(word, cfg)
        blocks.append(
            BlockRecord(
                index=k,
                left_marker=left,
                right_marker=right,
                word=word,
                bits=triple.bits,
            )
        )
    return blocks


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a schedule run.

    ``results[k]`` is block k's output word once its simulator succeeded;
    ``consumed[k]`` the (block, bit) positions it read, in order;
    ``read_bits[k]`` the corresponding bits; ``reach[k]`` the rightmost block
    index it read from.  Simulators that ran off the window's right edge
    appear in ``exited`` and have no result.
    """

    results: dict[int, SymbolWord]
    consumed: dict[int, tuple[tuple[int, int], ...]]
    read_bits: dict[int, tuple[int, ...]]
    reach: dict[int, int]
    exited: frozenset[int]
    steps: int
    invariant_checks: int


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

    flat_bits: list[int] = []
    owner: list[int] = []
    first_flat = [0] * (nblocks + 1)
    for j, blk in enumerate(blocks):
        first_flat[j] = len(flat_bits)
        flat_bits.extend(blk.bits)
        owner.extend([j] * blk.bit_count)
    total = len(flat_bits)
    first_flat[nblocks] = total
    flat_used = bytearray(total)

    sims = range(targets[0], nblocks)
    taken: dict[int, list[int]] = {k: [] for k in sims}
    results: dict[int, SymbolWord] = {}
    done: dict[int, int] = {}  # simulator -> position of its successful read

    def position(p: int) -> tuple[int, int]:
        j = owner[p]
        return (j, p - first_flat[j] + 1)

    def finish(k: int) -> int:
        # The lockstep step at which target k stops running.
        return done[k] - first_flat[k] + 1 if k in done else total - first_flat[k]

    pending = {k for k in targets if first_flat[k] < total}
    steps = None if pending else 0
    stack: list[tuple[int, DyadicCursor]] = []
    nxt = targets[0]
    checks = 0
    for p in range(first_flat[nxt], total):
        while nxt < nblocks and first_flat[nxt] == p:
            stack.append((nxt, DyadicCursor(q, blocks[nxt].length)))
            nxt += 1
        if stack and (steps is None or p < first_flat[stack[-1][0]] + steps):
            k, cursor = stack[-1]
            checks += 1
            if flat_used[p]:
                raise InvariantViolation(
                    f"position {position(p)} consumed twice (simulator {k})"
                )
            flat_used[p] = 1
            taken[k].append(p)
            cursor.feed(flat_bits[p])
            if cursor.successful:
                stack.pop()
                results[k] = tuple(cursor.emitted)
                done[k] = p
                pending.discard(k)
                if steps is None and not pending:
                    steps = max(map(finish, targets))
    if steps is None:
        steps = max(map(finish, targets))

    for k in sims:
        limit = first_flat[k] + steps
        taken[k] = [p for p in taken[k] if p < limit]
        if k in done and done[k] >= limit:
            del done[k], results[k]
        checks += 1
        if any(a >= b for a, b in zip(taken[k], taken[k][1:])):
            raise InvariantViolation(f"simulator {k} read out of order")
    return ScheduleResult(
        results=results,
        consumed={k: tuple(map(position, taken[k])) for k in sims},
        read_bits={k: tuple(flat_bits[p] for p in taken[k]) for k in sims},
        reach={k: owner[p] for k, p in done.items()},
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
class MapResult:
    outputs: dict[int, int]
    reports: dict[int, CodingReport]
    undetermined: list[int]


def map_range(
    stream: Sequence[int],
    cfg: PatternConfig,
    q: ProbabilityVector,
    first: int,
    last: int,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> MapResult:
    """Transform the output indices ``first..last`` (inclusive, 0-based).

    Indices whose enclosing block or schedule cannot be completed from the
    available input are reported undetermined.  Each index may look at most
    ``max_window`` symbols past itself; WindowExhausted is raised only when
    an index's schedule failed *and* the stream continues beyond that
    index's cap (so the cap, not the input, was the binding constraint).
    """
    x = check_word(stream, cfg.alphabet_size)
    if not 0 <= first <= last < len(x):
        raise ValueError(f"range {first}..{last} outside input 0..{len(x) - 1}")
    limit = last + 1 + max_window
    window = x[:limit] if limit < len(x) else x

    markers = scan_markers(window, cfg)
    if len(markers) < 2:
        return MapResult({}, {}, list(range(first, last + 1)))
    blocks = blocks_from_markers(window, markers, cfg)

    undetermined: list[int] = []
    per_block: dict[int, list[int]] = {}
    for i in range(first, last + 1):
        u = bisect_left(markers, i)
        if 1 <= u <= len(markers) - 1:
            per_block.setdefault(u - 1, []).append(i)
        else:
            undetermined.append(i)
    if not per_block:
        return MapResult({}, {}, undetermined)

    schedule = run_schedule(blocks, q, per_block.keys())
    outputs: dict[int, int] = {}
    reports: dict[int, CodingReport] = {}
    for k, indices in per_block.items():
        if k in schedule.results:
            word = schedule.results[k]
            left = markers[k]
            right = markers[schedule.reach[k] + 1] + cfg.marker_len
            for i in indices:
                outputs[i] = word[i - left - 1]
                reports[i] = CodingReport(
                    index=i,
                    block=k,
                    left_marker=left,
                    right_extent=right,
                    radius=max(i - left, right - i),
                )
        else:
            for i in indices:
                if i + max_window + 1 < len(x):
                    raise WindowExhausted(
                        f"cap of {max_window} symbols past index {i} exhausted "
                        f"before block {k} completed"
                    )
            undetermined.extend(indices)
    return MapResult(outputs, reports, sorted(undetermined))


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
