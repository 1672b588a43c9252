"""Workload table, metric table and the small pure helpers of the benchmark.

Nothing here imports ``repro``: the parent process (``run.py``) only
spawns children and aggregates their JSON, so it must stay cheap and
must not pull the measured program into its own address space.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Mapping, Sequence

#: workload name -> registry campaigns it runs cold, with their scales.
#: Each campaign is run by ``repro.experiments.registry.run_experiment``
#: exactly as ``repro run <id> --scale <scale> --processes 1`` would.
#: Workloads with ``"gated": False`` are not in ``BENCHMARK.json``: they
#: run on request (``--trace 0``/``1``, ``--ablation``) but are too noisy
#: to gate: their campaigns are too long for many samples in one run.
WORKLOADS: dict[str, dict[str, Any]] = {
    "fig2a": {
        "experiments": (("fig2a", "smoke"),),
        "why": "paper's headline figure panel 2a; a FIFO collapse job where "
        "fast-forward proving and batching lose to plain stepping",
        "gated": False,
    },
    "zoo": {
        "experiments": (("zoo", "smoke"),),
        "why": "11 arbiters on SpGEMM and sort; fast-forward mostly bypassed, "
        "so fastengine stepping and policy code dominate",
        "gated": False,
    },
    "thm1_3": {
        "experiments": (("thm1_3", "smoke"),),
        "why": "90 small synthetic jobs; per-job costs (keys, store writes, "
        "dispatch, batch planning, reducer) weigh most here",
        "gated": False,
    },
    "ff_heavy": {
        "experiments": (
            ("fig3", "smoke"),
            ("thm2", "smoke"),
            ("ablation_channels", "smoke"),
            ("ablation_fr_fcfs", "smoke"),
            ("ablation_asymmetric", "smoke"),
        ),
        "why": "five short fast-engine campaigns, mostly cyclic adversaries; "
        "fast-forward elides most ticks and every job runs batched",
    },
    "oracle": {
        "experiments": (
            ("ablation_replacement", "smoke"),
            ("ablation_shared", "smoke"),
        ),
        "why": "non-LRU replacement and shared pages; the only workload "
        "that runs most of its jobs on the reference engine",
    },
}

#: the workloads ``BENCHMARK.json`` lists, in order
GATED: tuple[str, ...] = tuple(
    name for name, spec in WORKLOADS.items() if spec.get("gated", True)
)

#: end-to-end metrics: (name, unit, better); measured with tracing off
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("campaign_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: per-layer metrics: (name, unit); measured by the separate traced run
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("traces.build_s", "s"),
    ("traces.load_s", "s"),
    ("traces.workloads", "count"),
    ("traces.refs", "count"),
    ("store.key_s", "s"),
    ("store.probe_s", "s"),
    ("store.put_s", "s"),
    ("store.mark_done_s", "s"),
    ("store.entries", "count"),
    ("store.bytes", "B"),
    ("sweep.run_s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.jobs", "count"),
    ("sweep.batch_units", "count"),
    ("sweep.batched_lanes", "count"),
    ("fastengine.step_s", "s"),
    ("fastengine.jobs", "count"),
    ("fastengine.ticks", "count"),
    ("fastengine.requests", "count"),
    ("fastengine.us_per_tick", "us"),
    ("engine.step_s", "s"),
    ("engine.jobs", "count"),
    ("engine.ticks", "count"),
    ("engine.us_per_tick", "us"),
    ("drain.net_s", "s"),
    ("drain.intervals", "count"),
    ("drain.elided_ticks", "count"),
    ("drain.elided_fraction", "ratio"),
    ("drain.ticks_per_interval", "count"),
    ("drain.attempts.miss", "count"),
    ("drain.declines.miss", "count"),
    ("drain.attempts.hit", "count"),
    ("drain.declines.hit", "count"),
    ("drain.commit_ratio", "ratio"),
    ("batchengine.run_s", "s"),
    ("batchengine.net_s", "s"),
    ("batchengine.lanes", "count"),
    ("batchengine.eligible_fraction", "ratio"),
    ("experiments.reduce_s", "s"),
    ("experiments.render_s", "s"),
    ("trace.overhead_s", "s"),
)

#: layer-ablation cells: name -> (fast_forward, batch_limit override)
ABLATION_CELLS: dict[str, tuple[bool | None, int | None]] = {
    "default": (None, None),
    "ff_off": (False, None),
    "batch_off": (None, 1),
    "plain": (False, 1),
}


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, first and third quartile and sample count of ``values``."""
    data = sorted(values)
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3, "n": len(data)}


def digest(obj: Any) -> str:
    """Stable short hash of a JSON-able value (numpy scalars via ``str``)."""
    blob = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def repro_overrides(environ: Mapping[str, str]) -> list[str]:
    """``REPRO_*`` variables set in ``environ``; each changes the program."""
    return sorted(name for name in environ if name.startswith("REPRO_"))
