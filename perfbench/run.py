"""Benchmark of the ``finitary`` command line, one fresh interpreter per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a checkout.  Repetition r starts ``child.py`` in a new
interpreter, one at a time, on input r of the seed's corpus (see
``workloads.py``).  Every call pays the cold import and the cold extraction
caches, as a one-shot command-line user does.  Repetitions go on until
``--seconds`` are used up.  The last line of stdout is one JSON object: with
``--trace 0`` the medians of the end-to-end metrics, with ``--trace 1`` the
medians of the per-layer metrics.  A traced run measures each input twice,
untraced then traced, and the ratio of the two gives the tracing overhead.

The end-to-end times are corrected for the machine's speed.  On a shared
machine the same work can take 45% longer from one minute to the next, so
each repetition also times a fixed reference loop (``child.reference_s``)
just before and after its call, and every end-to-end time is scaled by
REFERENCE_NOMINAL_S over that loop's time: it reads as the time on a machine
that runs the loop in REFERENCE_NOMINAL_S.  The loop is the benchmark's own
code, so a change to the package cannot move it.  Per-layer times are raw.

A repetition fails on a crash, a non-zero exit code, an output that
contradicts its input, or, for the default and the held-out seed, a stdout
digest or determined ratio other than the one in ``expected.json``.
``--record`` rewrites ``expected.json`` from the current code.  ``--smoke``
runs the tiny input sizes that ``smoke.py`` uses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import CORPUS, WORKLOADS  # noqa: E402

EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"
DEFAULT_SEED = 7
HELD_OUT_SEED = 1729
SMOKE_RECORDED = 8  # inputs per workload recorded at the smoke size
MIN_REPS = 3
REFERENCE_NOMINAL_S = 0.135
CHILD_TIMEOUT_S = 150
EXIT_NO_PACKAGE = 70


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, or stale records)."""


def run_child(name: str, seed: int, r: int, size: int, trace: bool) -> dict:
    """One repetition in a fresh interpreter; returns its JSON result."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-{seed}.spans.json"
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), name, str(seed), str(r), str(size)]
    try:
        proc = subprocess.run(
            [*cmd, str(int(trace)), str(spans_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child ran over {CHILD_TIMEOUT_S} s"}
    if proc.returncode == EXIT_NO_PACKAGE:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected(name: str, seed: int, size: int) -> list | None:
    """Recorded [sha256, determined_ratio] per corpus input, or None."""
    records = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    rec = records.get(name)
    if rec is None:
        return None
    if rec["params"] != WORKLOADS[name].params():
        raise BenchError(f"{EXPECTED.name} was recorded for other {name} parameters; run --record")
    return rec["digests"].get(f"{size}/{seed}")


def judge(rep: dict, expected: list | None, r: int) -> str | None:
    """Why repetition r failed, or None."""
    if rep.get("error"):
        return rep["error"]
    if expected is None or r % CORPUS >= len(expected):
        return None
    sha, ratio = expected[r % CORPUS]
    if rep["sha256"] != sha:
        return "stdout digest differs from the recorded one"
    if rep["determined"] / rep["symbols"] != ratio:
        return f"determined_ratio {rep['determined'] / rep['symbols']} != {ratio}"
    return None


def measure(name: str, seed: int, size: int, seconds: float, trace: bool) -> dict:
    expected = load_expected(name, seed, size)
    modes = [False, True] if trace else [False]
    reps: list[list[dict]] = []  # per input: one result per mode
    attempted = failed = 0
    durations: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        results = []
        for traced in modes:
            rep = run_child(name, seed, r, size, traced)
            attempted += 1
            why = judge(rep, expected, r)
            if why is None:
                results.append(rep)
            else:
                failed += 1
                sys.stderr.write(f"{name} seed {seed} input {r % CORPUS}: {why}\n")
        if len(results) == len(modes):
            reps.append(results)
        durations.append(time.perf_counter() - t0)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            break
    if not reps:
        raise BenchError(f"{name} seed {seed}: every repetition failed")
    metrics = per_layer(reps) if trace else end_to_end([p[0] for p in reps])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def speed(rep: dict) -> float:
    """Factor that turns the repetition's times into nominal-machine times."""
    return REFERENCE_NOMINAL_S / rep["reference_s"]


def end_to_end(reps: list[dict]) -> dict:
    values = {
        "wall_s": [r["wall_s"] * speed(r) for r in reps],
        "symbols_per_s": [r["symbols"] / (r["wall_s"] * speed(r)) for r in reps],
        "first_output_s": [r["first_output_s"] * speed(r) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": [r["setup_s"] * speed(r) for r in reps],
    }
    return {k: {"value": statistics.median(values[k]), "unit": u} for k, u in units("end_to_end").items()}


def per_layer(pairs: list[list[dict]]) -> dict:
    traced = [t for _, t in pairs]
    values = {
        "cli.bytes_in": [r["bytes_in"] for r in traced],
        "cli.bytes_out": [r["bytes_out"] for r in traced],
        "determined_ratio": [r["determined"] / r["symbols"] for r in traced],
        "trace.overhead_ratio": [t["wall_s"] * speed(t) / (p["wall_s"] * speed(p)) for p, t in pairs],
    }
    for key in traced[0]["layers"]:
        values[key] = [r["layers"][key] for r in traced]
    return {k: {"value": statistics.median(values[k]), "unit": u} for k, u in units("per_layer").items()}


def record() -> None:
    """Write ``expected.json``: every corpus input of the default and the
    held-out seed at the full size, and the first inputs at the smoke size."""
    records = {}
    for name, w in WORKLOADS.items():
        digests = {}
        for seed, size, count in (
            (DEFAULT_SEED, w.size, CORPUS),
            (HELD_OUT_SEED, w.size, CORPUS),
            (DEFAULT_SEED, w.smoke_size, SMOKE_RECORDED),
        ):
            rows = []
            for r in range(count):
                rep = run_child(name, seed, r, size, False)
                if rep.get("error"):
                    raise BenchError(f"{name} seed {seed} input {r}: {rep['error']}")
                rows.append([rep["sha256"], rep["determined"] / rep["symbols"]])
            digests[f"{size}/{seed}"] = rows
            print(f"recorded {name} size {size} seed {seed}", flush=True)
        records[name] = {"params": w.params(), "digests": digests}
    EXPECTED.write_text(json.dumps(records, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "finitary" / "cli.py").is_file():
            raise BenchError(f"no finitary package under {ROOT / 'src'}")
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        w = WORKLOADS[args.workload]
        size = w.smoke_size if args.smoke else w.size
        result = measure(args.workload, args.seed, size, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
