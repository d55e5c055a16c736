"""Byte identity of ``encode`` and ``certify-t`` on the benchmark corpus.

Runs ``finitary.cli.main`` on seed-7 inputs of the benchmark workloads and
checks each stdout digest against the one recorded in
``perfbench/expected.json``: the eight smoke-size inputs of ``short_blocks_t3``
and ``zero_gap_t3``, the first four full-size inputs of ``selector_t6``,
whose smoke-size records are one digest repeated, and both the eight
smoke-size and the first four full-size inputs of ``certify_t6``.  The
inputs come from ``perfbench/workloads.make_input``; nothing under
``perfbench/`` is written.
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


@pytest.mark.parametrize(
    "name,size,inputs",
    [
        pytest.param("short_blocks_t3", None, 8, id="short_blocks_t3"),
        pytest.param("zero_gap_t3", None, 8, id="zero_gap_t3"),
        pytest.param("selector_t6", 8000, 4, id="selector_t6"),
        pytest.param("certify_t6", None, 8, id="certify_t6-smoke"),
        pytest.param("certify_t6", 500, 4, id="certify_t6"),
    ],
)
def test_stdout_matches_recorded_digests(name, size, inputs):
    w = workloads.WORKLOADS[name]
    assert RECORDS[name]["params"] == w.params()
    size = size or w.smoke_size
    recorded = RECORDS[name]["digests"][f"{size}/{SEED}"][:inputs]
    assert len(recorded) == inputs
    for r, (digest, _) in enumerate(recorded):
        argv, data, _ = workloads.make_input(w, SEED, r, size)
        out = io.StringIO()
        code = main(argv, io.StringIO(data.decode("ascii")), out, io.StringIO())
        assert code == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, f"input {r}"
