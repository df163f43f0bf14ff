"""Span recorder, self-time computation and tracing-overhead report.

The benchmark wraps each call into a ``satira`` module in ``Tracer.span``.
Every span is timed, because the end-to-end metrics sum span durations
into buckets (``fit``, ``predict``). A pass is cut into segments by
``Tracer.checkpoint``, which adds the segment's duration to the ``wall``
bucket and hands the buckets to a callback before the next segment
starts. Only a traced run keeps the span records: name, start, end,
parent span, run id, pass and segment index, plus the counts the
benchmark attaches at the same boundary. They stay in memory and are
written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self, enabled: bool, run_id: str, on_checkpoint: Callable[["Tracer", str], None] | None = None):
        self.enabled = enabled
        self.run_id = run_id
        self.on_checkpoint = on_checkpoint
        self.spans: list[dict] = []
        self.ops = 0  # wrapped calls attempted, pass spans excluded
        self.pass_index = -1
        self.segment = 0
        self.buckets: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._segment_start = 0.0

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.segment = 0
        self.buckets = defaultdict(float)
        self._segment_start = time.perf_counter()

    def checkpoint(self, kind: str = "python") -> None:
        """End the current segment; the pass's last one ends before its checks.

        ``kind`` names the reference kernel whose work the segment's
        resembles (see ``harness.Reference``).
        """
        self.buckets["wall"] += time.perf_counter() - self._segment_start
        if self.on_checkpoint is not None:
            self.on_checkpoint(self, kind)
        self.segment += 1
        self._segment_start = time.perf_counter()

    @contextmanager
    def span(self, name: str, bucket: str | None = None):
        """Time one call; yields the span's count dict.

        Counts may be filled in after the ``with`` block, so computing them
        stays outside the timed interval.
        """
        counts: dict[str, float] = {}
        if name != "pass":
            self.ops += 1
        span_id = len(self.spans)
        if self.enabled:
            self.spans.append({
                "run": self.run_id,
                "pass": self.pass_index,
                "segment": self.segment,
                "id": span_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "counts": counts,
            })
            self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            if bucket is not None:
                self.buckets[bucket] += end - start
            if self.enabled:
                self._stack.pop()
                self.spans[span_id].update(start=start, end=end)

    def pass_spans(self, index: int) -> list[dict]:
        return [s for s in self.spans if s["pass"] == index]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, ensure_ascii=False) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def name_totals(spans: list[dict], scale: Callable[[dict], float] = lambda span: 1.0) -> dict[str, dict[str, float]]:
    """Span name -> {"self_s", "calls"} plus every count summed.

    Each span's self time is multiplied by ``scale(span)``.
    """
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        entry = totals[s["name"]]
        entry["self_s"] += own[s["id"]] * scale(s)
        entry["calls"] += 1
        for key, value in s["counts"].items():
            entry[key] += value
    return totals


def layer_self_times(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Layer (span name up to the first dot) -> (self seconds, calls)."""
    result: dict[str, tuple[float, int]] = {}
    for name, entry in name_totals(spans).items():
        layer = name.split(".")[0]
        seconds, calls = result.get(layer, (0.0, 0))
        result[layer] = (seconds + entry["self_s"], calls + int(entry["calls"]))
    return result


def overhead_report(untraced_wall_s: float, traced_wall_s: float) -> str:
    delta = traced_wall_s - untraced_wall_s
    return (
        f"tracing overhead: {delta:+.4f} s per pass "
        f"({100.0 * delta / untraced_wall_s:+.2f}% of untraced wall_s {untraced_wall_s:.4f} s)"
    )
