"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --smoke`` untraced and traced, and
checks that:

- every metric named in BENCHMARK.json prints, with its unit;
- no repetition failed, and the stdout digests match the ones recorded in
  ``expected.json`` for the tiny size;
- the per-layer self times add up to the traced wall time within 3%.

Last, it runs ``run.py`` in a directory holding only BENCHMARK.json and the
benchmark, where it must fail without printing a result.  Exits non-zero on
the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import EXPECTED, OUT, WORKLOADS  # noqa: E402

SELF_SUM_TOLERANCE = 0.03


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_result(name: str, trace: int, spec: list[dict]) -> dict:
    proc = run(ROOT, "--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{name} trace {trace}: failed repetitions: {proc.stderr.strip()}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in spec):
        raise AssertionError(f"{name} trace {trace}: metrics {sorted(metrics)}")
    for m in spec:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{name}: metric {m['name']} printed as {got}")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = json.loads(EXPECTED.read_text())
    for name, w in WORKLOADS.items():
        if f"{w.smoke_size}/7" not in records[name]["digests"]:
            raise AssertionError(f"{name}: no recorded digest at the smoke size")
        check_result(name, 0, spec["end_to_end"])
        layers = check_result(name, 1, spec["per_layer"])
        ratio = layers["trace.self_sum_ratio"]["value"]
        if abs(ratio - 1) > SELF_SUM_TOLERANCE:
            raise AssertionError(f"{name}: layer self times sum to {ratio:.4f} of traced wall")
        print(f"ok {name}: self times sum to {ratio:.4f} of traced wall")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", next(iter(WORKLOADS)), "--seed", "7", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("run.py printed a result without the package")
    print("ok: without the package run.py exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
