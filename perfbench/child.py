"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR SPAWN_WALL
        [--cell CELL] [--spans PATH]

``MODE`` is one of

* ``setup``: import ``repro``, calibrate the vector threshold and build
  every workload trace of ``WORKLOAD`` into a fresh ``WorkloadCache``
  under ``WORKDIR`` — the lazy set-up every cold campaign pays;
* ``e2e``: set-up, then the workload's registry campaigns run cold
  through ``run_experiment(..., processes=1)`` with a fresh result
  store, then the output check;
* ``trace``: set-up, the same campaigns through the runner's public
  calls (the untraced baseline), then an outside-in replay that times
  every layer call as a span and re-simulates each job solo with
  fast-forward off and on. Spans go to ``--spans``.

``SPAWN_WALL`` is the parent's ``time.time()`` just before it started
this process, so ``setup_s`` covers interpreter start and imports.
The last stdout line is one JSON object; the parent reads nothing else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import ABLATION_CELLS, WORKLOADS, digest  # noqa: E402
from spans import SpanRecorder, duration, write_spans  # noqa: E402

#: registry id -> (module, Campaign attribute), for the traced replay
CAMPAIGNS = {
    "fig2a": ("repro.experiments.figure2", "FIG2A"),
    "zoo": ("repro.experiments.zoo", "ZOO"),
    "thm1_3": ("repro.experiments.theory_checks", "THM1_3"),
    "thm2": ("repro.experiments.theory_checks", "THM2"),
    "fig3": ("repro.experiments.figure3", "FIG3"),
    "ablation_channels": ("repro.experiments.ablations", "CHANNELS"),
    "ablation_fr_fcfs": ("repro.experiments.ablations", "FRFCFS"),
    "ablation_asymmetric": ("repro.experiments.ablations", "ASYMMETRIC"),
    "ablation_replacement": ("repro.experiments.ablations", "REPLACEMENT"),
    "ablation_shared": ("repro.experiments.ablations", "SHARED"),
}

#: simulated statistics a sweep record carries; all are deterministic
RECORD_FIELDS = (
    "makespan",
    "total_requests",
    "hits",
    "fetches",
    "evictions",
    "max_response",
    "mean_response",
    "inconsistency",
)
#: a SimulationResult also carries these
RESULT_FIELDS = RECORD_FIELDS + ("ticks", "response_histogram")

#: share of a campaign's simulated requests re-run on the reference engine
REFERENCE_SHARE = 0.05


def campaign_of(experiment_id: str):
    module, attr = CAMPAIGNS[experiment_id]
    return getattr(importlib.import_module(module), attr)


def _canonical(obj: Any) -> Any:
    """JSON round trip, so int-keyed histograms compare like stored ones."""
    return json.loads(json.dumps(obj, default=str))


def result_stats(result) -> dict[str, Any]:
    return _canonical({name: getattr(result, name) for name in RESULT_FIELDS})


def entry_stats(entry: dict[str, Any]) -> dict[str, Any]:
    """Simulated statistics of a result-store entry (or record dict)."""
    stats = {name: entry[name] for name in RECORD_FIELDS}
    payload = entry.get("payload") or {}
    if payload.get("response_histogram") is not None:
        stats["response_histogram"] = payload["response_histogram"]
    return _canonical(stats)


def record_stats(record) -> dict[str, Any]:
    entry = {name: getattr(record, name) for name in RECORD_FIELDS}
    if record.payload is not None:
        entry["payload"] = record.payload.to_json_dict()
    return entry_stats(entry)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def apply_cell(cell: str) -> None:
    from repro.core.batchengine import set_batch_limit
    from repro.core.drain import set_fast_forward

    fast_forward, lanes = ABLATION_CELLS[cell]
    set_fast_forward(fast_forward)
    set_batch_limit(lanes)


def environment(load_1m: float) -> dict[str, Any]:
    """What the measured program resolved its knobs to in this process."""
    import numpy

    from repro.core.batchengine import batch_limit
    from repro.core.drain import fast_forward_enabled
    from repro.core.fastengine import default_engine, vector_threshold

    return {
        "vector_threshold": vector_threshold(),
        "batch_limit": batch_limit(),
        "fast_forward": fast_forward_enabled(),
        "default_engine": default_engine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
    }


def setup(workload: str, seed: int, cache_dir: Path, rec: SpanRecorder | None):
    """Calibrate and build every trace the workload's campaigns need.

    Returns ``[(campaign, ctx, jobs)]`` and ``{spec: None}`` of the
    distinct workload specs, in first-use order.
    """
    from repro.core.fastengine import vector_threshold
    from repro.experiments.base import CampaignContext
    from repro.traces import WorkloadCache

    vector_threshold()
    plan = []
    for experiment_id, scale in WORKLOADS[workload]["experiments"]:
        campaign = campaign_of(experiment_id)
        ctx = CampaignContext(
            experiment_id, scale, seed, processes=1, cache_dir=str(cache_dir)
        )
        plan.append((campaign, ctx, list(campaign.build_jobs(ctx))))
    cache = WorkloadCache(cache_dir)
    specs = dict.fromkeys(job.workload for _, _, jobs in plan for job in jobs)
    for spec in specs:
        with rec.span("WorkloadSpec.build") if rec else nullcontext():
            spec.build(cache)
    return plan, specs


def reference_check(plan, stored: dict[tuple[str, int], dict], cache_dir: Path):
    """Re-simulate each campaign's smallest jobs on the reference engine.

    Jobs are taken smallest first while they hold at most
    ``REFERENCE_SHARE`` of the campaign's requests (always at least
    one). The reference engine is the literal tick loop, so this checks
    the optimized path's records against the oracle for any seed.
    Returns ``(jobs checked, mismatch descriptions)``.
    """
    from repro.core.fastengine import simulate
    from repro.traces import WorkloadCache

    cache = WorkloadCache(cache_dir)
    mismatches = []
    checked = 0
    for _, ctx, jobs in plan:
        eid = ctx.experiment_id
        mine = sorted(
            (stored[(eid, i)]["total_requests"], i)
            for i in range(len(jobs))
            if (eid, i) in stored
        )
        budget = REFERENCE_SHARE * sum(requests for requests, _ in mine)
        spent = 0
        for requests, i in mine:
            if spent and spent + requests > budget:
                break
            spent += requests
            checked += 1
            job = jobs[i]
            oracle = result_stats(
                simulate(job.workload.build(cache), job.config, engine="reference")
            )
            if {k: oracle[k] for k in stored[(eid, i)]} != stored[(eid, i)]:
                mismatches.append(f"{eid}#{i}: record differs from the reference engine")
    return checked, mismatches


def run_e2e(args, load_1m: float) -> dict[str, Any]:
    cache_dir = Path(args.workdir) / "cache"
    if args.cell:
        apply_cell(args.cell)
    plan, _ = setup(args.workload, args.seed, cache_dir, None)
    setup_s = time.time() - args.spawn_wall

    from repro.experiments.registry import run_experiment
    from repro.store import open_store, sweep_result_key

    outputs = []
    campaign_times = []
    for _, ctx, _ in plan:
        start = time.perf_counter()
        outputs.append(
            run_experiment(
                ctx.experiment_id,
                scale=ctx.scale,
                processes=1,
                cache_dir=str(cache_dir),
                seed=args.seed,
            )
        )
        campaign_times.append(time.perf_counter() - start)
    peak = rss_mb()

    store = open_store(str(cache_dir / "results"))
    stored: dict[tuple[str, int], dict] = {}
    for _, ctx, jobs in plan:
        keys = [sweep_result_key(j.workload, j.config, j.payload) for j in jobs]
        found = store.get_many(keys)
        for i, key in enumerate(keys):
            if key in found:
                stored[(ctx.experiment_id, i)] = entry_stats(found[key])
    jobs_total = sum(len(jobs) for _, _, jobs in plan)
    problems = [
        f"{eid}#{i}: no stored record"
        for _, ctx, jobs in plan
        for eid in [ctx.experiment_id]
        for i in range(len(jobs))
        if (eid, i) not in stored
    ]
    checks = {out.experiment_id: out.checks for out in outputs}
    problems += [
        f"{eid}: shape check {name} failed"
        for eid, named in checks.items()
        for name, ok in named.items()
        if not ok
    ]
    reference_jobs, mismatches = reference_check(plan, stored, cache_dir)
    problems += mismatches
    return {
        "mode": "e2e",
        "cell": args.cell or "default",
        "setup_s": setup_s,
        "campaign_s": sum(campaign_times),
        "campaign_times": campaign_times,
        "requests": sum(s["total_requests"] for s in stored.values()),
        "peak_rss_mb": peak,
        "jobs": jobs_total,
        "failed_jobs": sum(out.campaign.failed for out in outputs),
        "checks": {eid: {k: bool(v) for k, v in named.items()} for eid, named in checks.items()},
        "reference_jobs": reference_jobs,
        "problems": problems,
        "rows_digest": digest([out.rows for out in outputs]),
        "records_digest": digest(sorted(stored.items(), key=lambda kv: kv[0])),
        "env": environment(load_1m),
    }


def batch_units(jobs, engine: str) -> list[list[int]]:
    """The lockstep units the sequential sweep runner forms for ``jobs``.

    Mirrors the runner's planner through the public knobs: runs of
    config-eligible jobs (``batch_supported``) chunked at
    ``batch_limit()``, everything else solo, nothing batched under the
    reference engine or with a limit below 2.
    """
    from repro.core.batchengine import batch_limit, batch_supported

    limit = batch_limit()
    if limit < 2 or engine == "reference":
        return [[i] for i in range(len(jobs))]
    units: list[list[int]] = []
    run: list[int] = []
    for i, job in enumerate(jobs):
        if batch_supported(job.config):
            run.append(i)
            if len(run) == limit:
                units.append(run)
                run = []
        else:
            if run:
                units.append(run)
                run = []
            units.append([i])
    if run:
        units.append(run)
    return units


def compare_job(name: str, record, off, on, replayed) -> list[str]:
    """Problems found comparing one job's campaign record with its solo
    fast-forward-off, solo fast-forward-on and replayed (maybe batched)
    results; the simulator is deterministic, so every statistic must match."""
    if record.failed:
        return [f"{name}: failed in the campaign"]
    problems = []
    reference = result_stats(off)
    for label, result in (("ff-on", on), ("replayed", replayed)):
        if result_stats(result) != reference:
            problems.append(f"{name}: {label} result differs from ff-off")
    stats = record_stats(record)
    if stats != {k: v for k, v in reference.items() if k in stats}:
        problems.append(f"{name}: campaign record differs from ff-off")
    return problems


def engine_seconds(records, units_of, native) -> float:
    """Engine time inside the campaign's own runner, read from its records.

    A solo job's record carries its run time. In a lockstep unit, lanes
    that fell back to solo add their own times, and the native lanes ran
    together from one start, so they add the longest lane's time.
    """
    total = 0.0
    for eid, units in units_of.items():
        for unit in units:
            lanes = [(records[(eid, i)].wall_time_s, (eid, i) in native) for i in unit]
            total += sum(wall for wall, lockstep in lanes if not lockstep)
            total += max((wall for wall, lockstep in lanes if lockstep), default=0.0)
    return total


def totals_under(spans, root_name: str) -> dict[str, float]:
    """Span name -> summed duration, over spans below roots named ``root_name``."""
    root_of: dict[int, str] = {}
    out: dict[str, float] = {}
    for s in spans:  # parents always precede their children
        root_of[s["id"]] = s["name"] if s["parent"] is None else root_of[s["parent"]]
        if root_of[s["id"]] == root_name:
            out[s["name"]] = out.get(s["name"], 0.0) + duration(s)
    return out


def _ff_counter(registry, name: str, window: str) -> int:
    family = registry.counter(name)
    return int(
        sum(v for key, v in family.series().items() if ("window", window) in key)
    )


def run_trace(args, load_1m: float) -> dict[str, Any]:
    from repro.analysis.sweep import SweepPayload, SweepRecord, SweepRunner
    from repro.core.batchengine import batch_supported, simulate_batch
    from repro.core.drain import set_fast_forward
    from repro.core.fastengine import default_engine, resolve_engine, simulate
    from repro.obs.metrics import MetricsRegistry, set_active_registry
    from repro.store import campaign_id_for, open_store, sweep_result_key
    from repro.traces import WorkloadCache

    rec = SpanRecorder()
    workdir = Path(args.workdir)
    cache_dir = workdir / "cache"
    plan, specs = setup(args.workload, args.seed, cache_dir, rec)
    setup_s = time.time() - args.spawn_wall
    env = environment(load_1m)
    engine = default_engine()

    # -- A: the campaign as Campaign.run executes it, four spans deep --
    records_a: dict[tuple[str, int], Any] = {}
    rows_a = []
    checks: dict[str, dict[str, bool]] = {}
    failed_jobs = 0
    for campaign, ctx, _ in plan:
        eid = ctx.experiment_id
        with rec.span("campaign", job=eid):
            with rec.span("Campaign.build_jobs"):
                jobs = list(campaign.build_jobs(ctx))
            runner = SweepRunner(processes=1, cache_dir=ctx.cache_dir)
            with rec.span("SweepRunner.run"):
                records = runner.run(
                    jobs,
                    label=eid,
                    meta={"experiment_id": eid, "scale": ctx.scale, "seed": ctx.seed},
                )
            with rec.span("Campaign.reduce"):
                reduction = campaign.reduce(ctx, records)
            with rec.span("Campaign.render"):
                if campaign.render is not None:
                    campaign.render(ctx, reduction)
        failed_jobs += runner.last_campaign.failed
        rows_a.append(reduction.rows)
        checks[eid] = {k: bool(v) for k, v in reduction.checks.items()}
        for i, record in enumerate(records):
            records_a[(eid, i)] = record

    # -- B: the same work replayed call by call. Inside each unit, every
    # lane first runs solo with FF off (and solo with FF on when the
    # unit is batched), right before the unit's own run, so the net
    # FF and batching figures compare runs made seconds apart.
    store = open_store(str(workdir / "replay-store"))
    registry = MetricsRegistry()
    workloads: dict[Any, Any] = {}
    engine_of: dict[tuple[str, int], str] = {}
    off: dict[tuple[str, int], Any] = {}
    off_s: dict[tuple[str, int], float] = {}
    on: dict[tuple[str, int], Any] = {}
    on_s: dict[tuple[str, int], float] = {}
    replayed: dict[tuple[str, int], Any] = {}
    native: set[tuple[str, int]] = set()
    units_of: dict[str, list[list[int]]] = {}
    rows_b = []
    record_fields = [
        f.name
        for f in fields(SweepRecord)
        if f.name not in ("job", "payload", "error", "batched")
    ]

    def solo(key, workload, config, fast_forward: bool):
        previous = set_active_registry(registry) if fast_forward else None
        set_fast_forward(fast_forward)
        try:
            with rec.span(f"simulate[ff={'on' if fast_forward else 'off'}]",
                          job=f"{key[0]}#{key[1]}") as s:
                result = simulate(workload, config, engine=engine)
        finally:
            set_fast_forward(None)
            if fast_forward:
                set_active_registry(previous)
        return result, duration(s)

    for campaign, ctx, _ in plan:
        eid = ctx.experiment_id
        cache = WorkloadCache(ctx.cache_dir)
        with rec.span("replay", job=eid):
            with rec.span("Campaign.build_jobs"):
                jobs = list(campaign.build_jobs(ctx))
            keys = []
            for i, job in enumerate(jobs):
                if job.payload.response_series or job.payload.probe_samples:
                    raise NotImplementedError(
                        f"{eid}#{i}: payloads that change the engine config "
                        "are not replayed"
                    )
                with rec.span("sweep_result_key", job=f"{eid}#{i}"):
                    keys.append(sweep_result_key(job.workload, job.config, job.payload))
            with rec.span("store.get_many"):
                if store.get_many(keys):
                    raise RuntimeError("replay store is not fresh")
            campaign_id = campaign_id_for(eid, keys)
            with rec.span("batch_plan"):
                units = units_of[eid] = batch_units(jobs, engine)
            records_b = [None] * len(jobs)
            for unit in units:
                items = []
                for i in unit:
                    job = jobs[i]
                    with rec.span("WorkloadCache.get", job=f"{eid}#{i}"):
                        workload = job.workload.build(cache)
                    workloads.setdefault(job.workload, workload)
                    with rec.span("resolve_engine", job=f"{eid}#{i}"):
                        engine_of[(eid, i)] = resolve_engine(workload, job.config, engine)
                    items.append((workload, job.config))
                    if len(unit) > 1 and engine_of[(eid, i)] == "fast" and batch_supported(
                        job.config, workload.attestation
                    ):
                        native.add((eid, i))
                for i, item in zip(unit, items):
                    off[(eid, i)], off_s[(eid, i)] = solo((eid, i), *item, False)
                    if len(unit) > 1:
                        on[(eid, i)], on_s[(eid, i)] = solo((eid, i), *item, True)
                if len(unit) == 1:
                    i = unit[0]
                    on[(eid, i)], on_s[(eid, i)] = solo((eid, i), *items[0], True)
                    results = [on[(eid, i)]]
                else:
                    with rec.span("simulate_batch", job=f"{eid}#{unit[0]}+{len(unit)}"):
                        results = simulate_batch(items, engine=engine, return_exceptions=True)
                for i, result in zip(unit, results):
                    if isinstance(result, Exception):
                        raise result
                    replayed[(eid, i)] = result
                    job = jobs[i]
                    record = SweepRecord.from_result(
                        job,
                        result,
                        SweepPayload.from_result(job.payload, result, None),
                        batched=len(unit) > 1,
                    )
                    records_b[i] = record
                    entry = {name: getattr(record, name) for name in record_fields}
                    if record.payload is not None:
                        entry["payload"] = record.payload.to_json_dict()
                    entry["manifest"] = {"engine": engine_of[(eid, i)]}
                    with rec.span("store.put", job=f"{eid}#{i}"):
                        store.put(keys[i], entry)
                    with rec.span("store.mark_done", job=f"{eid}#{i}"):
                        store.mark_done(campaign_id, keys[i])
            with rec.span("Campaign.reduce"):
                reduction = campaign.reduce(ctx, records_b)
            with rec.span("Campaign.render"):
                if campaign.render is not None:
                    campaign.render(ctx, reduction)
        rows_b.append(reduction.rows)

    # -- output check ---------------------------------------------------
    problems = []
    for key, record in records_a.items():
        problems += compare_job(
            f"{key[0]}#{key[1]}", record, off[key], on[key], replayed[key]
        )
    if digest(rows_b) != digest(rows_a):
        problems.append("replayed rows differ from the campaign's rows")
    problems += [
        f"{eid}: shape check {name} failed"
        for eid, named in checks.items()
        for name, ok in named.items()
        if not ok
    ]

    # -- per-layer metrics ---------------------------------------------
    a = totals_under(rec.spans, "campaign")
    b = totals_under(rec.spans, "replay")
    batched = [(eid, i) for eid, units in units_of.items() for u in units if len(u) > 1 for i in u]
    jobs_total = len(records_a)
    layers: dict[str, float] = {}
    layers["traces.build_s"] = rec.total("WorkloadSpec.build")
    layers["traces.load_s"] = b.get("WorkloadCache.get", 0.0)
    layers["traces.workloads"] = len(specs)
    layers["traces.refs"] = sum(
        sum(len(t) for t in workloads[spec].traces) for spec in specs
    )
    small = {
        "store.key_s": "sweep_result_key",
        "store.probe_s": "store.get_many",
        "store.put_s": "store.put",
        "store.mark_done_s": "store.mark_done",
    }
    for metric, span in small.items():
        layers[metric] = b.get(span, 0.0)
    store_stats = store.stats()
    layers["store.entries"] = store_stats["entries"]
    layers["store.bytes"] = store_stats["bytes"]
    layers["sweep.run_s"] = a.get("SweepRunner.run", 0.0)
    layers["sweep.self_s"] = (
        layers["sweep.run_s"]
        - engine_seconds(records_a, units_of, native)
        - layers["traces.load_s"]
        - sum(layers[metric] for metric in small)
    )
    layers["sweep.jobs"] = jobs_total
    layers["sweep.batch_units"] = sum(
        len(u) > 1 for units in units_of.values() for u in units
    )
    layers["sweep.batched_lanes"] = len(batched)
    for layer, kind in (("fastengine", "fast"), ("engine", "reference")):
        mine = [key for key in off if engine_of[key] == kind]
        step_s = sum(off_s[key] for key in mine)
        ticks = sum(off[key].ticks for key in mine)
        layers[f"{layer}.step_s"] = step_s
        layers[f"{layer}.jobs"] = len(mine)
        layers[f"{layer}.ticks"] = ticks
        if layer == "fastengine":
            layers["fastengine.requests"] = sum(off[key].total_requests for key in mine)
        layers[f"{layer}.us_per_tick"] = step_s / ticks * 1e6 if ticks else 0.0
    intervals = sum(r.ff_intervals for r in on.values())
    elided = sum(r.ff_elided_ticks for r in on.values())
    ticks_on = sum(r.ticks for r in on.values())
    layers["drain.net_s"] = sum(off_s.values()) - sum(on_s.values())
    layers["drain.intervals"] = intervals
    layers["drain.elided_ticks"] = elided
    layers["drain.elided_fraction"] = elided / ticks_on if ticks_on else 0.0
    layers["drain.ticks_per_interval"] = elided / intervals if intervals else 0.0
    attempts = 0
    for window in ("miss", "hit"):
        tried = _ff_counter(registry, "repro_ff_plan_attempts", window)
        layers[f"drain.attempts.{window}"] = tried
        layers[f"drain.declines.{window}"] = _ff_counter(
            registry, "repro_ff_plan_declines", window
        )
        attempts += tried
    layers["drain.commit_ratio"] = intervals / attempts if attempts else 0.0
    layers["batchengine.run_s"] = b.get("simulate_batch", 0.0)
    layers["batchengine.net_s"] = (
        sum(on_s[key] for key in batched) - layers["batchengine.run_s"]
    )
    layers["batchengine.lanes"] = len(native)
    layers["batchengine.eligible_fraction"] = len(native) / jobs_total
    layers["experiments.reduce_s"] = b.get("Campaign.reduce", 0.0)
    layers["experiments.render_s"] = b.get("Campaign.render", 0.0)
    wall_a = sum(duration(s) for s in rec.spans if s["name"] == "campaign")
    wall_b = sum(duration(s) for s in rec.spans if s["name"] == "replay")
    compared = sum(off_s.values()) + sum(on_s[key] for key in batched)
    layers["trace.overhead_s"] = (wall_b - compared) - wall_a
    records_digest = digest(
        sorted(
            ((key, record_stats(r)) for key, r in records_a.items()),
            key=lambda kv: kv[0],
        )
    )
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "setup_s": setup_s,
    }
    if args.spans:
        write_spans(args.spans, rec.spans, meta)
    return {
        "mode": "trace",
        "setup_s": setup_s,
        "campaign_s": wall_a,
        "peak_rss_mb": rss_mb(),
        "jobs": jobs_total,
        "failed_jobs": failed_jobs,
        "checks": checks,
        "problems": problems,
        "rows_digest": digest(rows_a),
        "records_digest": records_digest,
        "layers": layers,
        "env": env,
    }


def main(argv: list[str] | None = None) -> int:
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "e2e", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("spawn_wall", type=float)
    parser.add_argument("--cell", choices=sorted(ABLATION_CELLS), default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed, Path(args.workdir) / "cache", None)
        out = {
            "mode": "setup",
            "setup_s": time.time() - args.spawn_wall,
            "peak_rss_mb": rss_mb(),
        }
    elif args.mode == "e2e":
        out = run_e2e(args, load_1m)
    else:
        out = run_trace(args, load_1m)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
