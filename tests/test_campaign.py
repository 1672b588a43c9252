"""Tests for the campaign pipeline: payload-carrying records, cache
replay, Campaign/Reduction, output persistence, and the CLI flags that
expose them."""

import json

import pytest

from repro.analysis import (
    PayloadRequest,
    SweepJob,
    SweepPayload,
    SweepRunner,
    WorkloadSpec,
    run_sweep,
    sweep_result_key,
)
from repro.core import SimulationConfig, simulate
from repro.experiments.base import (
    CAMPAIGN_MANIFEST_SCHEMA,
    Campaign,
    CampaignContext,
    Reduction,
    merge_campaign_stats,
    save_experiment_output,
)
from repro.traces import WorkloadCache

SPEC = WorkloadSpec.make("adversarial_cycle", threads=4, seed=0, pages=16, repeats=3)
CONFIG = SimulationConfig(hbm_slots=32)

FAT = PayloadRequest(response_histogram=True, response_series=True)


def fat_job(payload=FAT):
    return SweepJob(workload=SPEC, config=CONFIG, tag="t", payload=payload)


class TestPayloadCacheKeys:
    def test_empty_request_leaves_slim_key_unchanged(self):
        bare = sweep_result_key(SPEC, CONFIG)
        assert sweep_result_key(SPEC, CONFIG, PayloadRequest()) == bare
        assert sweep_result_key(SPEC, CONFIG, None) == bare

    def test_fat_key_differs_from_slim(self):
        assert sweep_result_key(SPEC, CONFIG, FAT) != sweep_result_key(SPEC, CONFIG)

    def test_distinct_requests_distinct_keys(self):
        keys = {
            sweep_result_key(SPEC, CONFIG, req)
            for req in (
                PayloadRequest(response_histogram=True),
                PayloadRequest(response_series=True),
                PayloadRequest(probe_samples=True),
                PayloadRequest(probe_samples=True, probe_stride=16),
            )
        }
        assert len(keys) == 4

    def test_stride_irrelevant_without_probe_samples(self):
        a = PayloadRequest(response_histogram=True, probe_stride=64)
        b = PayloadRequest(response_histogram=True, probe_stride=128)
        assert sweep_result_key(SPEC, CONFIG, a) == sweep_result_key(SPEC, CONFIG, b)


class TestPayloadReplay:
    def test_fat_record_round_trips_through_cache(self, tmp_path):
        cold = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        assert not cold.cached
        assert cold.payload is not None
        assert cold.payload.response_percentile(0.99) <= cold.max_response

        warm = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        assert warm.cached
        assert warm.payload is not None
        for frac in (0.5, 0.95, 0.99, 1.0):
            assert warm.payload.response_percentile(
                frac
            ) == cold.payload.response_percentile(frac)
        assert warm.payload.to_json_dict() == cold.payload.to_json_dict()

    def test_payload_json_round_trip_is_lossless(self, tmp_path):
        record = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        rebuilt = SweepPayload.from_json_dict(record.payload.to_json_dict())
        assert rebuilt.to_json_dict() == record.payload.to_json_dict()

    def test_slim_cache_entry_never_serves_fat_job(self, tmp_path):
        slim = SweepJob(workload=SPEC, config=CONFIG)
        run_sweep([slim], processes=1, cache_dir=tmp_path)
        record = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        # the fat job must simulate (distinct key), not hit the slim entry
        assert not record.cached
        assert record.payload is not None

    def test_probe_samples_replayed(self, tmp_path):
        job = fat_job(PayloadRequest(probe_samples=True, probe_stride=8))
        cold = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        warm = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        assert cold.payload.probe_samples
        assert warm.cached
        assert warm.payload.probe_samples == cold.payload.probe_samples

    def test_hits_misses_survive_replay(self, tmp_path):
        job = SweepJob(workload=SPEC, config=CONFIG)
        cold = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        warm = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        assert warm.cached
        assert (warm.hits, warm.misses) == (cold.hits, cold.misses)
        assert cold.hits + cold.misses == cold.total_requests


def demo_campaign():
    def build(ctx):
        return [
            SweepJob(
                workload=SPEC,
                config=SimulationConfig(hbm_slots=32, arbitration=arb),
                tag=arb,
            )
            for arb in ("fifo", "priority")
        ]

    def reduce(ctx, records):
        rows = [r.row() for r in records]
        return Reduction(
            rows=rows,
            checks={"two_records": len(records) == 2},
            data={"makespans": [r.makespan for r in records]},
            text="demo table",
        )

    return Campaign.sweep("demo", "Demo campaign", build, reduce)


class TestCampaign:
    def test_sweep_campaign_produces_output(self, tmp_path):
        out = demo_campaign().run(scale="smoke", cache_dir=tmp_path)
        assert out.experiment_id == "demo"
        assert len(out.rows) == 2
        assert out.checks == {"two_records": True}
        assert out.campaign is not None
        assert out.campaign.total_jobs == 2
        assert out.campaign.simulated == 2

    def test_warm_campaign_replays_everything(self, tmp_path):
        campaign = demo_campaign()
        campaign.run(cache_dir=tmp_path)
        warm = campaign.run(cache_dir=tmp_path)
        assert warm.campaign.simulated == 0
        assert warm.campaign.cache_hits == 2

    def test_callable_matches_classic_signature(self, tmp_path):
        campaign = demo_campaign()
        out = campaign(scale="smoke", processes=1, cache_dir=tmp_path, seed=0)
        assert out.scale == "smoke"

    def test_local_campaign_skips_sweep(self):
        def compute(ctx):
            return Reduction(
                rows=[{"scale": ctx.scale}], checks={"ok": True}, text="local"
            )

        out = Campaign.local("loc", "Local", compute).run(scale="smoke")
        assert out.rows == [{"scale": "smoke"}]
        assert out.campaign is not None and out.campaign.total_jobs == 0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            demo_campaign().run(scale="huge")

    def test_context_builds_workloads_through_cache(self, tmp_path):
        ctx = CampaignContext(
            experiment_id="demo", scale="smoke", cache_dir=str(tmp_path)
        )
        wl = ctx.build_workload(SPEC)
        assert wl.num_threads == 4
        assert list(tmp_path.glob("*.npz"))  # generated via the disk cache

    def test_one_workload_load_per_spec_per_campaign(self, tmp_path, monkeypatch):
        from repro.traces import io

        other = WorkloadSpec.make("random", threads=3, seed=1, length=40, pages=8)

        def build(ctx):
            return [
                SweepJob(
                    workload=spec,
                    config=SimulationConfig(hbm_slots=16, arbitration=arb),
                    tag=arb,
                )
                for spec in (SPEC, other)
                for arb in ("fifo", "priority", "round_robin")
            ]

        def reduce(ctx, records):
            # reducer rebuilds hit the same table as the jobs
            rebuilt = [ctx.build_workload(r.job.workload) for r in records]
            return Reduction(
                rows=[r.row() for r in records],
                data={"refs": [w.total_references for w in rebuilt]},
                text="reuse",
            )

        campaign = Campaign.sweep("reuse", "Workload reuse", build, reduce)
        cache = tmp_path / "cache"
        for spec in (SPEC, other):  # generate both once, outside the count
            spec.build(WorkloadCache(cache))
        loads = []
        real_load = io.load_workload_npz

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(io, "load_workload_npz", counting_load)
        out = campaign.run(processes=1, cache_dir=cache)
        assert len(loads) == 2  # one per distinct spec: 6 jobs + 6 rebuilds

        # records identical to simulating every job on its own fresh build
        fields = ("makespan", "requests", "fetches", "evictions", "max_response")
        for row, job in zip(out.rows, build(None)):
            result = simulate(job.workload.build(None), job.config)
            expected = {
                "makespan": result.makespan,
                "requests": result.total_requests,
                "fetches": result.fetches,
                "evictions": result.evictions,
                "max_response": result.max_response,
            }
            assert {name: row[name] for name in fields} == expected
        assert out.data["refs"] == [
            job.workload.build(None).total_references for job in build(None)
        ]

    def test_shared_workloads_are_read_only(self, tmp_path):
        from repro.analysis.sweep import WorkloadTable

        table = WorkloadTable()
        wl = table.get(SPEC)
        assert table.get(SPEC) is wl
        with pytest.raises(ValueError):
            wl.traces[0][0] = 99
        with pytest.raises(ValueError):
            wl.source_traces[0].pages[0] = 99
        table.clear()
        assert table.get(SPEC) is not wl  # released: the next get rebuilds

    def test_workload_table_releases_least_recently_used(self, monkeypatch):
        from repro.analysis import sweep

        other = WorkloadSpec.make("random", threads=3, seed=1, length=40, pages=8)
        third = WorkloadSpec.make("random", threads=2, seed=2, length=40, pages=8)
        table = sweep.WorkloadTable()

        def nbytes(workload):  # renumbered + source page arrays
            return 2 * sum(a.nbytes for a in workload.traces)

        wl = table.get(SPEC)
        wl_other = table.get(other)
        # room for SPEC + other, not for all three specs
        monkeypatch.setattr(
            sweep, "WORKLOAD_TABLE_BYTES", nbytes(wl) + nbytes(wl_other)
        )
        assert table.get(SPEC) is wl  # both fit; SPEC is now most recent
        table.get(third)  # over budget: ``other`` is released, not SPEC
        assert table.get(SPEC) is wl
        assert table.get(other) is not wl_other
        # a single workload over the budget is still kept while in use
        monkeypatch.setattr(sweep, "WORKLOAD_TABLE_BYTES", 1)
        assert table.get(SPEC) is table.get(SPEC)

    def test_merge_campaign_stats(self, tmp_path):
        a = demo_campaign().run(cache_dir=tmp_path).campaign
        b = demo_campaign().run(cache_dir=tmp_path).campaign
        merged = merge_campaign_stats([a, b, None])
        assert merged.total_jobs == 4
        assert merged.simulated == a.simulated  # b was fully cached
        assert merged.cache_hits == a.cache_hits + b.cache_hits


class TestSaveExperimentOutput:
    def test_writes_full_results_tree(self, tmp_path):
        out = demo_campaign().run(cache_dir=tmp_path / "cache")
        target = save_experiment_output(out, tmp_path / "results", seed=0)
        assert target == tmp_path / "results" / "demo"
        for name in ("rows.csv", "report.txt", "checks.json", "manifest.json"):
            assert (target / name).exists()
        checks = json.loads((target / "checks.json").read_text())
        assert checks == {
            "checks": {"two_records": True},
            "all_checks_pass": True,
            "failed_jobs": 0,
            "retried_jobs": 0,
            "recovered_jobs": 0,
        }
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["schema"] == CAMPAIGN_MANIFEST_SCHEMA
        assert manifest["experiment_id"] == "demo"
        assert manifest["seed"] == 0
        assert manifest["campaign"]["total_jobs"] == 2
        assert manifest["engine_semantics_version"]

    def test_no_rows_no_csv(self, tmp_path):
        def compute(ctx):
            return Reduction(rows=[], text="empty")

        out = Campaign.local("empty", "Empty", compute).run()
        target = save_experiment_output(out, tmp_path)
        assert not (target / "rows.csv").exists()
        assert (target / "manifest.json").exists()

    def test_run_experiment_save_dir(self, tmp_path):
        from repro.experiments import run_experiment

        run_experiment(
            "thm4", scale="smoke", cache_dir=tmp_path / "c", save_dir=tmp_path / "r"
        )
        assert (tmp_path / "r" / "thm4" / "manifest.json").exists()


class TestCliFlags:
    def test_run_save_flag_persists_results(self, tmp_path, capsys):
        from repro._cli import main

        code = main(
            [
                "run",
                "thm4",
                "--scale",
                "smoke",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--save",
                str(tmp_path / "results"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads(
            (tmp_path / "results" / "thm4" / "manifest.json").read_text()
        )
        assert manifest["schema"] == CAMPAIGN_MANIFEST_SCHEMA

    def test_run_no_strict_downgrades_exit_code(self, monkeypatch, capsys):
        from repro._cli import main
        from repro.experiments import registry
        from repro.experiments.base import ExperimentOutput

        def fake(scale="smoke", processes=None, cache_dir=None, seed=0):
            return ExperimentOutput(
                experiment_id="thm4",
                title="fake",
                scale=scale,
                rows=[],
                text="",
                checks={"doomed": False},
            )

        monkeypatch.setitem(registry.EXPERIMENTS, "thm4", (fake, "fake"))
        assert main(["run", "thm4"]) == 1
        capsys.readouterr()
        assert main(["run", "thm4", "--no-strict"]) == 0
        assert "FAILED shape checks" in capsys.readouterr().err
