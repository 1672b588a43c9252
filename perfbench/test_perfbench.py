"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python -m pytest perfbench -q

Two tests run the harness end to end on its ``oracle`` workload, so
the file takes about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=env,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.GATED)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        harness.PER_LAYER
    )
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name


def test_e2e_run_emits_every_end_to_end_metric_with_its_unit():
    proc = _run("--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    proc = _run("--workload", "oracle", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return _last_json(proc.stdout), ROOT / ".perfbench" / "spans" / "oracle-seed3.json"


def test_traced_run_emits_every_layer_metric_with_its_unit(traced):
    result, _ = traced
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["sweep.jobs"]["value"] == 18
    assert result["metrics"]["engine.jobs"]["value"] > 0


def test_self_times_are_nonnegative_and_bounded_by_the_parent(traced, tmp_path):
    _, path = traced
    document = json.loads(path.read_text(encoding="utf-8"))
    recorded = document["spans"]
    own = spans.self_times(recorded)
    by_id = {s["id"]: s for s in recorded}
    child_time: dict[int, float] = {}
    for s in recorded:
        assert own[s["id"]] >= 0.0
        assert s["self"] == pytest.approx(own[s["id"]])
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + spans.duration(s)
    for parent, covered in child_time.items():
        assert covered <= spans.duration(by_id[parent]) + 1e-9
        assert own[parent] == pytest.approx(spans.duration(by_id[parent]) - covered)
    chrome = spans.chrome_trace(document)
    assert sum(e["ph"] == "X" for e in chrome["traceEvents"]) == len(recorded)


def test_self_time_counts_overlapping_children_once():
    made = [
        {"id": 0, "name": "p", "parent": None, "job": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "job": None, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "job": None, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 0, "job": None, "start": 9.0, "end": 12.0},
    ]
    assert spans.self_times(made)[0] == pytest.approx(4.0)


def test_span_recorder_nests():
    rec = spans.SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner", job="j"):
            time.sleep(0.001)
    outer, inner = rec.spans
    assert inner["parent"] == outer["id"] and inner["job"] == "j"
    assert spans.self_times(rec.spans)[outer["id"]] >= 0.0


def _one_job(tmp_path, seed=0):
    plan, _ = child.setup("oracle", seed, tmp_path / "cache", None)
    from repro.core.fastengine import simulate
    from repro.traces import WorkloadCache

    _, ctx, jobs = plan[0]
    job = jobs[0]
    result = simulate(job.workload.build(WorkloadCache(tmp_path / "cache")), job.config)
    return plan, ctx, job, result


def test_output_check_catches_a_perturbed_record(tmp_path):
    from repro.analysis.sweep import SweepRecord

    plan, ctx, job, result = _one_job(tmp_path)
    record = SweepRecord.from_result(job, result)
    assert child.compare_job("j", record, result, result, result) == []
    worse = dataclasses.replace(result, makespan=result.makespan + 1)
    assert child.compare_job("j", SweepRecord.from_result(job, worse), result, result, result)
    assert child.compare_job("j", record, result, worse, result)
    histogram = dict(result.response_histogram)
    first = next(iter(histogram))
    histogram[first] += 1
    skewed = dataclasses.replace(result, response_histogram=histogram)
    assert child.compare_job("j", record, result, result, skewed)

    stored = {(ctx.experiment_id, 0): child.record_stats(record)}
    assert child.reference_check(plan, stored, tmp_path / "cache") == (1, [])
    stored[(ctx.experiment_id, 0)]["hits"] += 1
    checked, mismatches = child.reference_check(plan, stored, tmp_path / "cache")
    assert checked == 1 and len(mismatches) == 1


def _grid(jobs):
    return [
        (
            job.workload.kind,
            job.workload.threads,
            job.workload.params,
            json.dumps(job.config.replace(seed=0).to_dict(), sort_keys=True, default=str),
            job.tag,
        )
        for job in jobs
    ]


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_seed_changes_inputs_but_not_the_job_grid(workload, tmp_path):
    """Every campaign keeps its grid under another seed, and the workload's
    inputs change. Cyclic-adversary generators are seed-free by design, so
    a campaign built only from them keeps its inputs; at least one
    campaign of each workload must not."""
    from repro.experiments.base import CampaignContext

    changed = []
    for experiment_id, scale in harness.WORKLOADS[workload]["experiments"]:
        campaign = child.campaign_of(experiment_id)
        jobs = {
            seed: list(campaign.build_jobs(CampaignContext(experiment_id, scale, seed)))
            for seed in (0, 7)
        }
        assert _grid(jobs[0]) == _grid(jobs[7])
        smallest = min(range(len(jobs[0])), key=lambda i: jobs[0][i].workload.threads)
        built = [jobs[seed][smallest].workload.build() for seed in (0, 7)]
        changed.append(
            any(
                len(a) != len(b) or (a != b).any()
                for a, b in zip(built[0].traces, built[1].traces)
            )
        )
    assert any(changed)


def test_refuses_to_run_with_a_repro_variable_set():
    env = dict(os.environ, REPRO_FAST_FORWARD="0")
    proc = _run("--workload", "oracle", "--seconds", "1", env=env)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "oracle", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
