"""Benchmark workloads: command lines, inputs made from a seed, output checks.

Every workload runs one ``finitary`` command per repetition.  A seed gives a
corpus of CORPUS inputs and repetition r runs input r mod CORPUS, so a run
measures many independent inputs.  One input alone would not do: the
schedule's cost is set by its slowest simulator and extraction's by the
longest block, so the cost of a single input varies by tens of percent from
seed to seed.  Outputs are checked here, with no code from the package, so
that a wrong answer counts as a failed repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Seed of the stream whose blocks ``selector_t6`` reorders.
BASE_SEED = 7
# Distinct inputs per seed.
CORPUS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    # Shares of traced wall time by layer, as measured on seed 7.
    shares: dict
    alphabet: int
    marker_len: int
    size: int  # stream symbols for ``encode``, sampled blocks for ``certify-t``
    smoke_size: int
    permute_blocks: bool = False

    def params(self) -> dict:
        """What the recorded digests depend on, besides the seed."""
        return {
            "argv": list(self.argv),
            "size": self.size,
            "smoke_size": self.smoke_size,
            "corpus": CORPUS,
            "permute_blocks": self.permute_blocks,
            "base_seed": BASE_SEED if self.permute_blocks else None,
        }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="short_blocks_t3",
            argv=("encode", "--a", "3", "--q", "1/2,1/2", "--t", "3", "--report"),
            why=(
                "many short blocks (mean 27 symbols): the lockstep schedule "
                "and its cursor feeds dominate, extraction barely runs"
            ),
            shares={
                "engine.schedule_self_s": 0.30,
                "dyadic.feed_s": 0.51,
                "extractor.extract_s": 0.10,
            },
            alphabet=3,
            marker_len=3,
            size=12_000,
            smoke_size=1_500,
        ),
        Workload(
            name="selector_t6",
            argv=("encode", "--a", "3", "--q", "1/2,1/2", "--eps", "2/5", "--report"),
            why=(
                "the selector's own t=6 (mean block 729): extraction of long "
                "words dominates, with long-horizon cursor feeds behind it"
            ),
            shares={
                "extractor.extract_s": 0.80,
                "dyadic.feed_s": 0.18,
                "engine.schedule_self_s": 0.01,
            },
            alphabet=3,
            marker_len=6,
            size=8_000,
            smoke_size=4_000,
            permute_blocks=True,
        ),
        Workload(
            name="zero_gap_t3",
            argv=("encode", "--a", "2", "--q", "1/2,1/2", "--t", "3"),
            why=(
                "zero entropy gap: simulators never finish and pile up, so "
                "schedule bookkeeping over a deep pending set is nearly all"
            ),
            shares={
                "engine.schedule_self_s": 0.90,
                "dyadic.feed_s": 0.05,
                "extractor.extract_s": 0.03,
            },
            alphabet=2,
            marker_len=3,
            size=12_000,
            smoke_size=1_500,
        ),
        Workload(
            name="certify_t6",
            argv=("certify-t", "--p", "1/2,1/4,1/4", "--q", "1/2,1/2", "--t", "6"),
            why=(
                "certifies t=6 for an admissible source: bulk extraction over "
                "independent sampled blocks, numpy scanner, no schedule"
            ),
            shares={
                "extractor.extract_s": 0.98,
                "calibration.self_s": 0.01,
            },
            alphabet=3,
            marker_len=6,
            size=500,
            smoke_size=20,
        ),
    ]
}


def uniform_stream(alphabet: int, n: int, seed: int, r: int) -> np.ndarray:
    """Symbols r*n .. (r+1)*n - 1 of the stream uniform over 1..alphabet
    from PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(1, alphabet + 1, size=(r + 1) * n)[r * n :]


def marker_positions(stream: np.ndarray, t: int) -> np.ndarray:
    """Starts of the marker pattern: a 2 followed by t-1 ones."""
    n = len(stream)
    if n < t:
        return np.empty(0, dtype=np.int64)
    hit = stream[: n - t + 1] == 2
    for d in range(1, t):
        hit &= stream[d : n - t + 1 + d] == 1
    return np.flatnonzero(hit)


def permuted_blocks(alphabet: int, t: int, n: int, seed: int, r: int) -> np.ndarray:
    """The first n symbols from PCG64(BASE_SEED), blocks in the r-th order
    drawn from PCG64(seed).

    A block is a marker and the word up to the next marker.  Blocks of an
    i.i.d. stream are i.i.d., so any order is again a uniform stream, and a
    marker never straddles two blocks, so the reordered stream has exactly
    the same blocks.  Every input thus has the same block lengths.  The
    cost of extracting a block grows about as length^2.8, so with fresh
    blocks the cost of a few dozen of them varies twofold between inputs.
    """
    base = uniform_stream(alphabet, n, BASE_SEED, 0)
    marks = marker_positions(base, t)
    blocks = np.split(base[marks[0] : marks[-1]], marks[1:-1] - marks[0])
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(r + 1):
        order = rng.permutation(len(blocks))
    return np.concatenate([base[: marks[0]], *(blocks[i] for i in order), base[marks[-1] :]])


def make_input(w: Workload, seed: int, r: int, size: int) -> tuple[list[str], bytes, np.ndarray | None]:
    """Command line, stdin bytes and symbol stream (None for certify) of
    input r of the seed's corpus."""
    r %= CORPUS
    if w.argv[0] == "certify-t":
        argv = [*w.argv, "--trials", str(size), "--seed", str(seed * CORPUS + r)]
        return argv, b"", None
    if w.permute_blocks:
        stream = permuted_blocks(w.alphabet, w.marker_len, size, seed, r)
    else:
        stream = uniform_stream(w.alphabet, size, seed, r)
    text = " ".join(map(str, stream.tolist())) + "\n"
    return list(w.argv), text.encode("ascii"), stream


class OutputError(ValueError):
    """The command's output is malformed or inconsistent with its input."""


def check_encode(w: Workload, argv: list[str], stream: np.ndarray, out: str) -> int:
    """Check ``encode`` output against the input's markers; return the
    number of determined indices.

    With ``--report`` each line is ``index symbol radius``: the index must
    lie inside a complete block, and the radius must reach from the block's
    left marker or out to the end of a later marker.
    """
    lines = out.splitlines()
    if not lines:
        return 0
    b = len(argv[argv.index("--q") + 1].split(","))
    if "--report" not in argv:
        symbols = np.array([int(s) for s in lines])
        if symbols.min() < 1 or symbols.max() > b:
            raise OutputError("output symbol outside the target alphabet")
        return len(lines)
    rows = np.array([[int(v) for v in line.split("\t")] for line in lines], dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise OutputError("report lines must have three fields")
    idx, sym, radius = rows.T
    if np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= len(stream):
        raise OutputError("report indices not increasing inside the input")
    if sym.min() < 1 or sym.max() > b:
        raise OutputError("output symbol outside the target alphabet")
    t = w.marker_len
    marks = marker_positions(stream, t)
    k = np.searchsorted(marks, idx, side="left")
    if k.min() < 1 or k.max() > len(marks) - 1:
        raise OutputError("determined index outside every complete block")
    left, right = marks[k - 1], marks[k] + t
    if np.any(radius < np.maximum(idx - left, right - idx)):
        raise OutputError("radius smaller than the index's own block")
    ends = np.isin(idx + radius - t, marks)
    if not np.all((radius == idx - left) | ends):
        raise OutputError("radius ends neither at the left marker nor a marker end")
    return len(lines)


def check_certify(w: Workload, argv: list[str], out: str, size: int) -> int:
    """Check a ``certify-t`` report; return the symbols of its sampled blocks."""
    fields = dict(line.split("\t", 1) for line in out.splitlines())
    p = [Fraction(v) for v in argv[argv.index("--p") + 1].split(",")]
    mean_len = 1 / (p[1] * p[0] ** (w.marker_len - 1))
    expected = {
        "t": str(w.marker_len),
        "trials": str(size),
        "seed": argv[argv.index("--seed") + 1],
        "expected_block_len": str(mean_len),
        # h(q) = 1 bit for the fair coin.
        "sim_bound": f"{float(mean_len) + 6:.6f}",
    }
    for key, value in expected.items():
        if fields.get(key) != value:
            raise OutputError(f"certify-t reported {key}={fields.get(key)!r}, expected {value!r}")
    margin, se = float(fields["margin"]), float(fields["stderr_bits"])
    if abs(float(fields["mean_bits"]) - float(fields["sim_bound"]) - margin) > 2e-6:
        raise OutputError("certify-t margin is not mean_bits - sim_bound")
    status = "pass" if margin > 3 * se else "fail" if margin < -3 * se else "inconclusive"
    if fields.get("status") != status:
        raise OutputError(f"certify-t status {fields.get('status')!r} for margin {margin} and stderr {se}")
    return round(float(fields["mean_block_len"]) * size)
