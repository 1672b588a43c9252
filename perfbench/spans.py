"""In-memory spans for the traced benchmark run, and their Chrome export.

A span is one call into a layer, recorded from the outside by the
benchmark: ``name``, ``start``/``end`` (``time.perf_counter`` seconds),
the ``parent`` span id and the ``job`` it served (``None`` for
campaign-level calls). Spans stay in memory until the run ends and are
then written as one JSON file, which also gives each span's ``self``
time: its duration minus the part its children cover.
:func:`chrome_trace` turns that file into Chrome ``trace_event`` JSON
for Perfetto or ``repro trace --merge``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

SPANS_SCHEMA = "perfbench.spans/v1"


class SpanRecorder:
    """Collects nested spans; ``with rec.span(name, job=...)`` opens one."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: Any = None) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "job": job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(duration(s) for s in self.spans if s["name"] == name)


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: Sequence[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {s["id"]: (s["start"], s["end"]) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            lo, hi = bounds[s["parent"]]
            children.setdefault(s["parent"], []).append(
                (max(s["start"], lo), min(s["end"], hi))
            )
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = duration(s) - covered
    return out


def write_spans(path: str | os.PathLike, spans: Sequence[dict], meta: dict) -> Path:
    """Write the spans, each with its ``self`` time, as one JSON document."""
    own = self_times(spans)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "schema": SPANS_SCHEMA,
                "meta": meta,
                "spans": [dict(s, self=own[s["id"]]) for s in spans],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return path


def chrome_trace(document: dict[str, Any]) -> dict[str, Any]:
    """Chrome ``trace_event`` JSON for a span file written by :func:`write_spans`.

    Every span becomes one complete (``ph: "X"``) event on a single
    thread, microsecond timestamps from the first span's start; nesting
    is carried by the timestamps, ids and job by ``args``.
    """
    if document.get("schema") != SPANS_SCHEMA:
        raise ValueError(f"not a span file (schema {document.get('schema')!r})")
    spans = document["spans"]
    origin = min((s["start"] for s in spans), default=0.0)
    label = "perfbench {workload} seed={seed}".format(
        workload=document["meta"].get("workload", "?"),
        seed=document["meta"].get("seed", "?"),
    )
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name", "args": {"name": label}}
    ]
    for s in spans:
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "name": s["name"],
                "ts": (s["start"] - origin) * 1e6,
                "dur": duration(s) * 1e6,
                "args": {
                    "id": s["id"],
                    "parent": s["parent"],
                    "job": s["job"],
                    "self_us": s["self"] * 1e6,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
