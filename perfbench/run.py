"""End-to-end campaign benchmark for the HBM simulator.

    python3 perfbench/run.py --workload zoo --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload zoo --seed 0 --trace 1
    python3 perfbench/run.py --ablation --workload zoo --seed 0
    python3 perfbench/run.py --export-chrome SPANS.json OUT.json

``--trace 0`` runs the workload's registry campaigns cold, one fresh
child process per sample and one sample after another, until the next
sample would end after ``--seconds``; it prints the end-to-end metrics.
``--trace 1`` runs one traced sample and prints the per-layer metrics.
``--ablation`` reports ``campaign_s`` under {default, FF off, batch off,
plain}; it is not part of the repeated runs. Every mode checks the
simulated outputs, and the last stdout line is one JSON object. Run
records and span files go to ``.perfbench/`` at the checkout root.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ABLATION_CELLS,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    repro_overrides,
    summarize,
)

#: a run must end within 180 s; children are killed past this budget
RUN_BUDGET_S = 170.0
#: least set-up samples per run (campaign samples count too)
SETUP_SAMPLES = 5
PINNED = HERE / "digests.json"


def spawn(
    mode: str,
    workload: str,
    seed: int,
    deadline: float | None,
    cell: str | None = None,
    spans: Path | None = None,
) -> dict[str, Any]:
    """Run one child sample to completion; its JSON result, or an error.

    A child still running at ``deadline`` (``time.monotonic()``; ``None``
    for no limit) is killed and reported as an error."""
    workdir = OUT / "work" / f"{os.getpid()}-{time.monotonic_ns()}"
    spawn_wall = time.time()
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        workload,
        str(seed),
        str(workdir),
        repr(spawn_wall),
    ]
    if cell:
        cmd += ["--cell", cell]
    if spans:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=None if deadline is None else max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child overran the run budget"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {"error": f"{mode} child exited with {proc.returncode}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - started
    return out


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    if seed != pins["seed"]:
        return None
    return pins["workloads"].get(workload)


def sample_problems(sample: dict[str, Any], pins: dict[str, str] | None) -> list[str]:
    if "error" in sample:
        return [sample["error"]]
    problems = list(sample["problems"])
    if sample["failed_jobs"]:
        problems.append(f"{sample['failed_jobs']} job(s) failed")
    if pins is not None:
        for name in ("rows_digest", "records_digest"):
            if sample[name] != pins[name]:
                problems.append(
                    f"{name} {sample[name]} differs from the pinned {pins[name]}"
                )
    return problems


def tally(samples: list[dict[str, Any]], pins) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a sample that fails its check fails
    every job it ran; a crashed sample counts as one failed attempt."""
    attempted = failed = 0
    problems: list[str] = []
    digests = {(s["rows_digest"], s["records_digest"]) for s in samples if "error" not in s}
    if len(digests) > 1:
        problems.append(f"samples of one seed disagree: {sorted(digests)}")
    for sample in samples:
        found = sample_problems(sample, pins)
        problems += found
        jobs = sample.get("jobs", 1)
        attempted += jobs
        if found or len(digests) > 1:
            failed += jobs
    return attempted, failed, problems


def final_line(correct, attempted, failed, metrics, units) -> str:
    """The benchmark's last stdout line: one JSON object.

    A failed run reports at least one failure, and its metrics only when
    every one of them was measured.
    """
    if not correct:
        failed = max(failed, 1)
        if set(metrics) != {name for name, _ in units}:
            units = []
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": max(int(attempted), 1),
            "failed": int(failed),
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units
            },
        }
    )


def write_record(name: str, record: dict[str, Any]) -> Path:
    path = OUT / "runs" / f"{name}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    return path


def reported(good: list[dict[str, Any]], summary: dict[str, dict]) -> dict[str, float]:
    """The end-to-end values a run reports from its good samples.

    The shared host slows down by up to ~1.7x for stretches of a few
    seconds to minutes. A campaign disturbed by that is slower because
    something else ran, not because the program did more work, so
    ``campaign_s`` adds up each of the workload's campaigns at its
    fastest cold run in this run (the ``timeit`` convention, taken per
    campaign), and ``requests_per_s`` is the requests over that time.
    Set-up and memory report their medians.
    """
    campaign_s = sum(min(times) for times in zip(*(s["campaign_times"] for s in good)))
    return {
        "setup_s": summary["setup_s"]["median"],
        "campaign_s": campaign_s,
        "requests_per_s": good[0]["requests"] / campaign_s,
        "peak_rss_mb": summary["peak_rss_mb"]["median"],
    }


def run_e2e(args, start: float, load_1m: float) -> int:
    deadline = start + RUN_BUDGET_S
    pins = pinned_digests(args.workload, args.seed)
    samples: list[dict[str, Any]] = []
    while True:
        sample = spawn("e2e", args.workload, args.seed, deadline)
        samples.append(sample)
        if "error" in sample:
            break
        # start another sample only if it, and the set-up samples still
        # missing after it, should end within --seconds
        missing = max(0, SETUP_SAMPLES - len(samples) - 1)
        ahead = sample["wall_s"] + missing * sample["setup_s"]
        if time.monotonic() - start + ahead > args.seconds:
            break
    setups = [s["setup_s"] for s in samples if "error" not in s]
    # set-up-only samples fill the rest of --seconds (at least SETUP_SAMPLES)
    last = 0.0
    while samples and "error" not in samples[-1] and (
        len(setups) < SETUP_SAMPLES or time.monotonic() - start + last < args.seconds
    ):
        extra = spawn("setup", args.workload, args.seed, deadline)
        if "error" in extra:
            samples.append(extra)
            break
        setups.append(extra["setup_s"])
        last = extra["wall_s"]
    attempted, failed, problems = tally(samples, pins)
    good = [s for s in samples if "error" not in s]
    series = {
        "setup_s": setups,
        "campaign_s": [s["campaign_s"] for s in good],
        "requests_per_s": [s["requests"] / s["campaign_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    summary = {name: summarize(values) for name, values in series.items() if values}
    correct = not problems and len(summary) == len(series)
    metrics = reported(good, summary) if correct else {}
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"perfbench {args.workload} seed={args.seed} samples={len(samples)}")
    for name, stat in summary.items():
        print(
            f"  {name:<16} {metrics.get(name, float('nan')):.6g} {units[name]}  "
            f"samples: q1 {stat['q1']:.6g}  median {stat['median']:.6g}  "
            f"q3 {stat['q3']:.6g}  n={stat['n']}"
        )
    print(f"  job_fail_ratio   {failed}/{attempted}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if good:
        print(f"  env {json.dumps(good[0]['env'], sort_keys=True)}")
    write_record(
        f"{args.workload}-seed{args.seed}-trace0",
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "loadavg_1m_at_start": load_1m,
            "metrics": metrics,
            "summary": summary,
            "samples": samples,
            "setup_samples": setups,
            "problems": problems,
        },
    )
    print(final_line(correct, attempted, failed, metrics, [(n, u) for n, u, _ in END_TO_END]))
    return 0 if correct else 1


def run_traced(args, start: float, load_1m: float) -> int:
    pins = pinned_digests(args.workload, args.seed)
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
    sample = spawn("trace", args.workload, args.seed, start + RUN_BUDGET_S, spans=spans)
    attempted, failed, problems = tally([sample], pins)
    layers = sample.get("layers", {})
    units = dict(PER_LAYER)
    print(f"perfbench {args.workload} seed={args.seed} traced; spans in {spans}")
    for name, unit in PER_LAYER:
        if name in layers:
            print(f"  {name:<30} {layers[name]:.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    write_record(
        f"{args.workload}-seed{args.seed}-trace1",
        {"workload": args.workload, "seed": args.seed,
         "loadavg_1m_at_start": load_1m, "sample": sample, "problems": problems},
    )
    correct = not problems and set(layers) == set(units)
    print(final_line(correct, attempted, failed, layers, PER_LAYER))
    return 0 if correct else 1


def run_ablation(args, load_1m: float) -> int:
    """campaign_s per FF/batch cell; every cell must produce the same outputs."""
    cells = {}
    for cell in ABLATION_CELLS:
        cells[cell] = spawn("e2e", args.workload, args.seed, None, cell=cell)
    pins = pinned_digests(args.workload, args.seed)
    attempted, failed, problems = tally(list(cells.values()), pins)
    times = {c: s["campaign_s"] for c, s in cells.items() if "error" not in s}
    print(f"perfbench ablation {args.workload} seed={args.seed}")
    for cell, seconds in times.items():
        print(f"  {cell:<10} campaign_s {seconds:.3f} s")
    ratio = times["default"] / min(times.values()) if len(times) == len(cells) else None
    if ratio is not None:
        fastest = min(times, key=times.get)
        print(f"  default / fastest ({fastest}) = {ratio:.3f}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    write_record(
        f"{args.workload}-seed{args.seed}-ablation",
        {"workload": args.workload, "seed": args.seed,
         "loadavg_1m_at_start": load_1m, "cells": cells, "problems": problems},
    )
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "campaign_s": times,
                      "default_over_fastest": ratio}))
    return 0 if not problems else 1


def export_chrome(spans_path: str, out_path: str) -> int:
    from spans import chrome_trace

    document = json.loads(Path(spans_path).read_text(encoding="utf-8"))
    Path(out_path).write_text(json.dumps(chrome_trace(document)) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="zoo")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablation", action="store_true")
    parser.add_argument("--export-chrome", nargs=2, metavar=("SPANS", "OUT"))
    args = parser.parse_args(argv)
    if args.export_chrome:
        return export_chrome(*args.export_chrome)
    overrides = repro_overrides(os.environ)
    if overrides:
        print(f"refusing to run: {', '.join(overrides)} set in the environment "
              "would change the measured program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        if args.ablation:
            return run_ablation(args, load_1m)
        if args.trace:
            return run_traced(args, start, load_1m)
        return run_e2e(args, start, load_1m)
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
