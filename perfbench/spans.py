"""Outside-in tracing of ``finitary``'s layers.

``Tracer.install`` replaces module attributes with wrappers that record one
span per call: name, start, end and the index of the enclosing span.  The
package's own code is untouched; counters come from the arguments and return
values the wrappers see.  A layer's self time is the time of its spans minus
the time of their child spans, so the self times of all layers add up to the
traced ``cli.main`` call.  An attribute that no longer exists is skipped and
reports zero calls.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import defaultdict

from finitary import calibration, cli, dyadic, engine

# (owner, attribute, span name, layer)
WRAPPED = [
    (cli, "main", "cli.main", "cli"),
    (engine, "map_range", "engine.map_range", "engine.assemble"),
    (engine, "scan_markers", "engine.scan_markers", "engine.scan"),
    (engine, "extract", "engine.extract", "extractor"),
    (engine, "run_schedule", "engine.run_schedule", "engine.schedule"),
    (dyadic.DyadicCursor, "feed", "dyadic.feed", "dyadic"),
    (calibration, "extract", "calibration.extract", "extractor"),
    (calibration, "sample_blocks", "calibration.sample_blocks", "calibration"),
    (calibration, "select_marker_length", "calibration.select_marker_length", "calibration"),
    (calibration, "certify_marker_length", "calibration.certify_marker_length", "calibration"),
]
NAMES = [name for _, _, name, _ in WRAPPED]
LAYERS = [layer for _, _, _, layer in WRAPPED]

# Calls on words shorter than this are dominated by per-call overhead and
# say nothing about how extraction scales with word length.
EXPONENT_MIN_LEN = 100


class AccountingError(ValueError):
    """Extracted bits differ from the bits the schedule read plus left unread."""


class Tracer:
    """Spans of wrapped calls, kept in flat arrays until the run ends.

    Span i has name ``NAMES[name[i]]``, runs from ``start[i]`` to
    ``end[i]`` and is a child of span ``parent[i]`` (-1 for none).  Plain
    arrays keep millions of spans cheap and out of the garbage collector's
    way.  ``calls[i]`` keeps the arguments and result of the few calls whose
    counters are read afterwards.
    """

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.calls: dict[int, tuple] = {}
        self.stack: list[int] = []

    def install(self) -> None:
        for code, (owner, attr, name, _) in enumerate(WRAPPED):
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self._wrap(fn, code, name != "dyadic.feed"))

    def _wrap(self, fn, code: int, keep: bool):
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        calls, stack, clock = self.calls, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep:
                calls[i] = (args, out)
            return out

        return wrapper

    def spans_of(self, name: str) -> list[int]:
        code = NAMES.index(name)
        return [i for i, c in enumerate(self.name) if c == code]

    def layers(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced call, which took ``wall_s``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, code in enumerate(self.name):
            self_s[LAYERS[code]] += dur[i] - child[i]
            total_s[NAMES[code]] += dur[i]

        m: dict[str, float] = {}
        m["cli.self_s"] = self_s["cli"]
        m["calibration.select_s"] = total_s["calibration.select_marker_length"]
        m["calibration.sample_s"] = total_s["calibration.sample_blocks"]
        m["calibration.self_s"] = self_s["calibration"]
        m["engine.scan_s"] = self_s["engine.scan"]
        m["engine.markers"] = sum(len(self.calls[i][1]) for i in self.spans_of("engine.scan_markers"))
        m["engine.assemble_s"] = self_s["engine.assemble"]
        m.update(self._schedule(self_s["engine.schedule"]))
        feeds = len(self.spans_of("dyadic.feed"))
        m["dyadic.feed_s"] = self_s["dyadic"]
        m["dyadic.feeds"] = feeds
        m["dyadic.us_per_feed"] = 1e6 * self_s["dyadic"] / feeds if feeds else 0.0
        m.update(self._extraction(self_s["extractor"], dur))
        m["trace.wall_s"] = wall_s
        m["trace.self_sum_ratio"] = sum(self_s.values()) / wall_s
        return m

    def _schedule(self, self_time: float) -> dict[str, float]:
        steps = sims = read = unread = exited = 0
        schedules = self.spans_of("engine.run_schedule")
        for i in schedules:
            (blocks, *_), result = self.calls[i]
            steps += result.steps
            sims += len(result.consumed)
            bits_read = sum(len(c) for c in result.consumed.values())
            read += bits_read
            unread += sum(blk.bit_count for blk in blocks) - bits_read
            exited += len(result.exited)
        extracted = sum(self.calls[i][1].num_bits for i in self.spans_of("engine.extract"))
        if schedules and extracted != read + unread:
            raise AccountingError(
                f"extracted {extracted} bits, schedule read {read} and left {unread}"
            )
        return {
            "engine.schedule_self_s": self_time,
            "engine.schedule_steps": steps,
            "engine.simulators": sims,
            "engine.bits_read": read,
            "engine.bits_unread": unread,
            "engine.exited": exited,
        }

    def _extraction(self, self_time: float, dur: list[float]) -> dict[str, float]:
        spans = self.spans_of("engine.extract") + self.spans_of("calibration.extract")
        lengths = [len(self.calls[i][0][0]) for i in spans]
        symbols = sum(lengths)
        return {
            "extractor.extract_s": self_time,
            "extractor.calls": len(spans),
            "extractor.symbols": symbols,
            "extractor.bits": sum(self.calls[i][1].num_bits for i in spans),
            "extractor.us_per_symbol": 1e6 * self_time / symbols if symbols else 0.0,
            "extractor.max_call_s": max((dur[i] for i in spans), default=0.0),
            "extractor.len_exponent": _len_exponent(list(zip(lengths, (dur[i] for i in spans)))),
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON: the names, then one [name, start, end,
        parent] row per span."""
        rows = [list(r) for r in zip(self.name, self.start, self.end, self.parent)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES, "spans": rows}, fh, separators=(",", ":"))


def _len_exponent(calls: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(call time) on log(word length), over calls
    on words of at least EXPONENT_MIN_LEN symbols; 0 with fewer than two
    distinct lengths."""
    pts = [(math.log(n), math.log(t)) for n, t in calls if n >= EXPONENT_MIN_LEN and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
