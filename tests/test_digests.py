"""Byte identity of ``encode`` on the benchmark corpus.

Runs ``finitary.cli.main`` on the smoke-size, seed-7 inputs of two encode
workloads and checks each stdout digest against the one recorded in
``perfbench/expected.json``.  The inputs come from
``perfbench/workloads.make_input``; nothing under ``perfbench/`` is written.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from finitary.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

RECORDS = json.loads((BENCH / "expected.json").read_text())
SEED = 7


@pytest.mark.parametrize("name", ["short_blocks_t3", "zero_gap_t3"])
def test_stdout_matches_recorded_digests(name):
    w = workloads.WORKLOADS[name]
    assert RECORDS[name]["params"] == w.params()
    recorded = RECORDS[name]["digests"][f"{w.smoke_size}/{SEED}"]
    for r, (digest, _) in enumerate(recorded):
        argv, data, _ = workloads.make_input(w, SEED, r, w.smoke_size)
        out = io.StringIO()
        code = main(argv, io.StringIO(data.decode("ascii")), out, io.StringIO())
        assert code == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, f"input {r}"
