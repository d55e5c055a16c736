"""One repetition of a workload, run in a fresh interpreter by ``run.py``.

Usage: python3 -I perfbench/child.py WORKLOAD SEED INPUT SIZE TRACE SPANS_PATH

Imports ``finitary`` from the checkout's ``src/`` (timed as ``setup_s``),
makes input number INPUT of the seed's corpus, calls ``finitary.cli.main``
once on it, checks the output and prints one JSON line with the
measurements.  With TRACE=1 it first wraps the
package's layer entry points (see ``spans.py``) and adds per-layer numbers.

A fixed reference loop is timed just before and just after the call, so
that ``run.py`` can correct for the machine's speed at that moment.
"""

import sys
import time

_start = time.perf_counter()

from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

# Tells run.py that there is no package to benchmark.
EXIT_NO_PACKAGE = 70

try:
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    import finitary.cli as cli
except ImportError as exc:
    sys.stderr.write(f"cannot import finitary from {ROOT / 'src'}: {exc}\n")
    sys.exit(EXIT_NO_PACKAGE)

setup_s = time.perf_counter() - _start
if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.stderr.write(f"finitary imported from {cli.__file__}, not from the checkout\n")
    sys.exit(EXIT_NO_PACKAGE)

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402

REFERENCE_ITERATIONS = 12_000
_MOD = 2**607 - 1


def reference_s() -> float:
    """Time of a fixed loop over the kinds of work the package does:
    rational and big-integer arithmetic, and list and dict churn."""
    start = time.perf_counter()
    x, big, counts = Fraction(0), 3**300, {}
    for i in range(1, REFERENCE_ITERATIONS):
        x = (x + Fraction(i % 7 + 1, i + 2)) / 2
        x = Fraction(x.numerator % 100003, x.denominator % 100019 + 1)
        big = big * (i % 13 + 2) % _MOD
        counts[i % 257] = counts.get(i % 257, 0) + len([k for k in range(i % 50)])
    return time.perf_counter() - start


class Capture(io.TextIOBase):
    """In-memory stdout that remembers when its first byte arrived."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first: float | None = None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self.first is None and s:
            self.first = time.perf_counter()
        self.parts.append(s)
        return len(s)


def main() -> int:
    name, seed, r, size = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    trace, spans_path = sys.argv[5] == "1", sys.argv[6]
    w = workloads.WORKLOADS[name]
    argv, data, stream = workloads.make_input(w, seed, r, size)
    stdin, stdout, stderr = io.StringIO(data.decode("ascii")), Capture(), io.StringIO()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    ref_before = reference_s()
    t0 = time.perf_counter()
    code = cli.main(argv, stdin, stdout, stderr)
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_s()

    out = "".join(stdout.parts)
    result = {
        "reference_s": (ref_before + ref_after) / 2,
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "first_output_s": (stdout.first if stdout.first is not None else t1) - t0,
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        "bytes_in": len(data),
        "bytes_out": len(out.encode()),
        "error": None,
    }
    try:
        if code != 0:
            raise workloads.OutputError(f"exit code {code}: {stderr.getvalue().strip()}")
        if stream is None:
            result["symbols"] = workloads.check_certify(w, argv, out, size)
            result["determined"] = 0
        else:
            result["symbols"] = len(stream)
            result["determined"] = workloads.check_encode(w, argv, stream, out)
        if tracer is not None:
            result["layers"] = tracer.layers(result["wall_s"])
            tracer.dump(spans_path)
    except (workloads.OutputError, ValueError, KeyError) as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
