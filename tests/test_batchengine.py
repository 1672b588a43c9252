"""Contract of the reduced ``repro.core.batchengine`` module.

Lockstep batching is gone; the module keeps four names whose behaviour
batches nothing: ``simulate_batch`` maps ``simulate`` over its items
(keeping ``return_exceptions``), ``batch_supported`` is always
``False``, ``batch_limit()`` is always 1, and ``set_batch_limit`` keeps
its validation and return-previous contract. The sweep runner runs
every job alone whatever the lane cap says.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import run_sweep
from repro.analysis.sweep import SweepJob, WorkloadSpec
from repro.core import (
    ARBITRATION_POLICIES,
    ENGINE_SEMANTICS_VERSION,
    SimulationConfig,
    SimulationLimitError,
    simulate,
)
from repro.core.batchengine import (
    batch_limit,
    batch_supported,
    set_batch_limit,
    simulate_batch,
)
from repro.obs import CallbackProbe, TimelineProbe
from repro.traces import make_workload

#: the nine arbitration policies; remap-driven schemes get a period
POLICIES = (
    "fifo",
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
    "random",
    "round_robin",
    "fr_fcfs",
)

#: three trace families spanning adversarial, skewed, and uniform access
FAMILIES = (
    ("adversarial_cycle", dict(threads=8, pages=12, repeats=8)),
    ("zipf", dict(threads=16, seed=3, length=400, pages=32)),
    ("random", dict(threads=12, seed=3, length=300, pages=20)),
)


def results_equal(a, b):
    """Field-wise SimulationResult equality, ignoring wall_time_s.

    ``response_log`` holds numpy arrays, so dataclass ``==`` is
    ambiguous; compare it element-wise and every other field exactly.
    """
    for f in dataclasses.fields(a):
        if f.name == "wall_time_s":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "response_log":
            if va is None or vb is None:
                if va is not vb:
                    return False
                continue
            if len(va) != len(vb):
                return False
            for xa, xb in zip(va, vb):
                if list(xa) != list(xb):
                    return False
        elif va != vb:
            return False
    return True


def config_for(policy, slots, probes=()):
    return SimulationConfig(
        hbm_slots=slots,
        channels=2,
        arbitration=policy,
        remap_period=37,
        seed=9,
        record_responses=True,
        probes=probes,
        probe_stride=7,
    )


@pytest.fixture(autouse=True)
def _restore_batch_limit():
    previous = set_batch_limit(None)
    yield
    set_batch_limit(previous)


class TestDifferentialBattery:
    """``simulate_batch`` is ``simulate`` per item, probes included."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_bit_identity(self, policy):
        assert policy in ARBITRATION_POLICIES
        items, singles, batch_probes, single_probes = [], [], [], []
        for kind, params in FAMILIES:
            for slots in (6, 24):
                workload = make_workload(kind, **params)
                bp = TimelineProbe()
                sp = TimelineProbe()
                items.append((workload, config_for(policy, slots, (bp,))))
                singles.append((workload, config_for(policy, slots, (sp,))))
                batch_probes.append(bp)
                single_probes.append(sp)
        set_batch_limit(len(items))
        batched = simulate_batch(items)
        for result, bp, sp, (straces, sconfig) in zip(
            batched, batch_probes, single_probes, singles
        ):
            expected = simulate(straces, sconfig)
            assert results_equal(result, expected), sconfig
            assert [s.to_dict() for s in bp.samples] == [
                s.to_dict() for s in sp.samples
            ]

    def test_semantics_version_unchanged(self):
        # Removing the batch engine changes no simulator output; bump
        # this ONLY with a deliberate, documented semantics change.
        assert ENGINE_SEMANTICS_VERSION == 1


class TestEligibilityAndFallback:
    def test_supported_matrix(self):
        for config in (
            SimulationConfig(hbm_slots=8),
            SimulationConfig(hbm_slots=8, replacement="clock"),
            SimulationConfig(hbm_slots=8, protect_pending=False),
            SimulationConfig(hbm_slots=8, collect_timeline=True),
            SimulationConfig(hbm_slots=8, probes=(CallbackProbe(lambda s: None),)),
            SimulationConfig(hbm_slots=8, probes=(TimelineProbe(),)),
        ):
            assert not batch_supported(config)

    def test_heterogeneous_batch_with_fallback_lanes(self):
        w1 = make_workload("zipf", threads=8, seed=1, length=200, pages=24)
        w2 = make_workload("random", threads=6, seed=2, length=150, pages=16)
        items = [
            (w1, SimulationConfig(hbm_slots=12, channels=2, seed=1)),
            (w2, SimulationConfig(hbm_slots=8, seed=2, replacement="clock")),
            (w1, SimulationConfig(hbm_slots=10, seed=3, protect_pending=False)),
            (w2, SimulationConfig(hbm_slots=8, channels=2, seed=4)),
        ]
        set_batch_limit(4)
        batched = simulate_batch(items)
        for (traces, config), result in zip(items, batched):
            assert results_equal(result, simulate(traces, config))
        # an explicit engine is forwarded: ineligible items raise as in
        # simulate(), eligible ones match it
        got = simulate_batch(items, engine="fast", return_exceptions=True)
        assert isinstance(got[1], ValueError) and isinstance(got[2], ValueError)
        for k in (0, 3):
            traces, config = items[k]
            assert results_equal(got[k], simulate(traces, config, engine="fast"))

    def test_empty_trace_lanes(self):
        arr = np.array([0, 1, 2, 0, 1], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        items = [
            ([arr, empty, arr + 3], SimulationConfig(hbm_slots=4)),
            ([arr + 6, empty], SimulationConfig(hbm_slots=4)),
        ]
        set_batch_limit(2)
        batched = simulate_batch(items)
        for (traces, config), result in zip(items, batched):
            assert results_equal(result, simulate(traces, config))


class TestLimitErrors:
    def test_max_ticks_abort_matches_single(self):
        w = make_workload("adversarial_cycle", threads=8, pages=12, repeats=8)
        ok = SimulationConfig(hbm_slots=24, channels=2, seed=9)
        tight = SimulationConfig(hbm_slots=6, seed=9, max_ticks=10)
        with pytest.raises(SimulationLimitError) as single_err:
            simulate(w, tight)
        set_batch_limit(2)
        with pytest.raises(SimulationLimitError) as batch_err:
            simulate_batch([(w, tight), (w, ok)])
        assert str(batch_err.value) == str(single_err.value)

    def test_return_exceptions_preserves_batchmates(self):
        w = make_workload("adversarial_cycle", threads=8, pages=12, repeats=8)
        ok = SimulationConfig(hbm_slots=24, channels=2, seed=9)
        tight = SimulationConfig(hbm_slots=6, seed=9, max_ticks=10)
        set_batch_limit(3)
        got = simulate_batch(
            [(w, ok), (w, tight), (w, ok)], return_exceptions=True
        )
        assert isinstance(got[1], SimulationLimitError)
        expected = simulate(w, ok)
        assert results_equal(got[0], expected)
        assert results_equal(got[2], expected)


class TestKnobs:
    def test_set_batch_limit_round_trip(self):
        previous = set_batch_limit(5)
        assert set_batch_limit(previous) == 5
        assert batch_limit() == 1  # the override no longer batches
        with pytest.raises(ValueError):
            set_batch_limit(-1)

    def test_env_knob(self, monkeypatch):
        # REPRO_BATCH is no longer read
        for value in ("off", "4", "on"):
            monkeypatch.setenv("REPRO_BATCH", value)
            assert batch_limit() == 1
        monkeypatch.delenv("REPRO_BATCH")
        assert batch_limit() == 1

    def test_limit_one_forces_single_path(self):
        w = make_workload("zipf", threads=8, seed=1, length=200, pages=24)
        config = SimulationConfig(hbm_slots=12, channels=2, seed=1)
        set_batch_limit(1)
        (result,) = simulate_batch([(w, config)])
        assert results_equal(result, simulate(w, config))


class TestSweepIntegration:
    """A lane-cap override changes no SweepRunner record or cache write."""

    @staticmethod
    def _jobs():
        jobs = []
        for i in range(6):
            spec = WorkloadSpec.make("zipf", 8, seed=10 + i, length=200, pages=24)
            config = SimulationConfig(
                hbm_slots=12, channels=2, seed=3 + i, record_responses=True
            )
            jobs.append(SweepJob(spec, config, tag=f"j{i}"))
        spec = WorkloadSpec.make("random", 6, seed=99, length=150, pages=16)
        jobs.append(
            SweepJob(
                spec,
                SimulationConfig(hbm_slots=8, seed=7, replacement="clock"),
                tag="fallback",
            )
        )
        return jobs

    @staticmethod
    def _row(record):
        row = dict(record.row())
        row.pop("wall_time_s", None)  # timing, not simulation outcome
        return row

    @pytest.mark.parametrize("processes", [1, 2])
    def test_records_identical(self, processes):
        jobs = self._jobs()
        set_batch_limit(1)
        baseline = run_sweep(jobs, processes=1, result_cache=False)
        set_batch_limit(4)
        other = run_sweep(jobs, processes=processes, result_cache=False)
        for a, b in zip(baseline, other):
            assert self._row(a) == self._row(b)

    def test_pre_existing_caches_stay_warm(self, tmp_path):
        jobs = self._jobs()
        set_batch_limit(1)
        run_sweep(jobs, processes=1, cache_dir=tmp_path)
        set_batch_limit(4)
        from repro.analysis import SweepRunner

        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        records = runner.run(jobs)
        # every entry replays: the lane cap changes no cache key
        assert runner.last_campaign.cache_hits == len(jobs)
        assert runner.last_campaign.simulated == 0
        assert all(r.cached for r in records)
