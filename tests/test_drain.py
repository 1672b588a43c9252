"""Quiescent-interval fast-forward: FF-on runs are bit-identical to FF-off.

The contract under test (repro.core.drain + the engine hooks): with
fast-forward enabled, both engines must produce *exactly* the results
of per-tick execution — makespan, tick count, response histograms and
logs, eviction/fetch counts, completion ticks, and every probe sample —
for all 11 policies. Miss windows are elided for FIFO in its pipeline
steady state only (every other policy declines them once per run);
hit windows for every policy. ``ENGINE_SEMANTICS_VERSION`` does not
change when FF ships; these tests are the enforcement.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationConfig, Simulator
from repro.core import drain
from repro.core.drain import (
    MIN_FF_TICKS,
    plan_drain,
    response_times,
    set_fast_forward,
    traces_disjoint,
)
from repro.core.engine import SimulationLimitError
from repro.core.fastengine import FastSimulator
from repro.obs import TimelineProbe
from repro.traces import make_workload

ENGINES = [Simulator, FastSimulator]

ALL_POLICIES = [
    "fifo",
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
    "random",
    "round_robin",
    "fr_fcfs",
    "blacklist",
    "dpq",
]

REMAPPING_POLICIES = [
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
]


@pytest.fixture(autouse=True)
def _restore_ff_override():
    previous = set_fast_forward(None)
    yield
    set_fast_forward(previous)


def run_with_ff(engine_cls, traces, cfg, enabled):
    set_fast_forward(enabled)
    try:
        return engine_cls(traces, cfg).run()
    finally:
        set_fast_forward(None)


def assert_results_equal(a, b):
    assert a.makespan == b.makespan
    assert a.ticks == b.ticks
    assert a.total_requests == b.total_requests
    assert a.hits == b.hits
    assert a.fetches == b.fetches
    assert a.evictions == b.evictions
    assert a.remap_count == b.remap_count
    assert a.response_histogram == b.response_histogram
    assert list(a.completion_ticks) == list(b.completion_ticks)
    for sa, sb in zip(a.thread_stats, b.thread_stats):
        assert sa.response == sb.response
        assert sa.hits == sb.hits
        assert sa.misses == sb.misses
    if a.response_log is not None or b.response_log is not None:
        assert len(a.response_log) == len(b.response_log)
        for la, lb in zip(a.response_log, b.response_log):
            assert list(la) == list(lb)


def assert_ff_identical(traces, cfg, expect_ff=True):
    """Run both engines with FF off and on; everything must match."""
    baseline = run_with_ff(Simulator, traces, cfg, False)
    assert baseline.ff_intervals == 0
    assert baseline.ff_elided_ticks == 0
    for engine_cls in ENGINES:
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)
        if expect_ff:
            assert result.ff_intervals > 0
            assert 0 < result.ff_elided_fraction <= 1.0
            assert result.ff_elided_ticks <= result.ticks
    return baseline


def miss_bound_traces(threads=8, pages=12, repeats=8):
    wl = make_workload(
        "adversarial_cycle", threads=threads, pages=pages, repeats=repeats
    )
    return wl.traces


def hit_heavy_traces(threads=6, pages=20, repeats=100):
    """Cache-fitting per-core loops: one cold pass, then pure hits."""
    return [
        list(range(50 * i, 50 * i + pages)) * repeats for i in range(threads)
    ]


def policy_config(arb, **overrides):
    """A config for ``arb``; remapping policies get a remap period."""
    kwargs = dict(hbm_slots=256, channels=2, arbitration=arb, seed=7)
    if arb in REMAPPING_POLICIES and arb != "priority":
        kwargs["remap_period"] = 37
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


# -- bit-identical differential matrix ------------------------------------


class TestBitIdentical:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_fifo_channels(self, q):
        # 8 cores reach the FIFO steady state only when q divides 8; at
        # q=3 the run must still match while FF stays out of the way.
        cfg = SimulationConfig(hbm_slots=24, channels=q, arbitration="fifo")
        assert_ff_identical(miss_bound_traces(), cfg, expect_ff=8 % q == 0)

    @pytest.mark.parametrize(
        "arb", ["priority", "dynamic_priority", "cycle_priority",
                "cycle_reverse_priority", "interleave_priority"]
    )
    def test_priority_family_with_remap_inside_drains(self, arb):
        # remap_period=37 lands remap boundaries inside what would be
        # miss-bound drains; these policies decline miss windows, so FF
        # must leave the run exactly as the per-tick loop does.
        cfg = SimulationConfig(
            hbm_slots=24,
            channels=2,
            arbitration=arb,
            remap_period=37,
            seed=9,
        )
        assert_ff_identical(miss_bound_traces(), cfg, expect_ff=False)

    @pytest.mark.parametrize("k", [5, 8, 9, 12, 16])
    def test_tight_hbm_slots_exercise_eviction_feasibility(self, k):
        cfg = SimulationConfig(hbm_slots=k, channels=2, arbitration="fifo")
        assert_ff_identical(miss_bound_traces(threads=4, pages=6), cfg)

    def test_staggered_trace_lengths_complete_inside_drains(self):
        traces = [
            list(range(100 * i, 100 * i + 5 * (i + 1))) * 3 for i in range(6)
        ]
        cfg = SimulationConfig(hbm_slots=10, channels=2, arbitration="fifo")
        assert_ff_identical(traces, cfg)

    def test_single_thread(self):
        # one core never fills a FIFO pipeline (it needs 2q cores)
        traces = [list(range(50)) * 4]
        cfg = SimulationConfig(hbm_slots=8)
        assert_ff_identical(traces, cfg, expect_ff=False)

    def test_wide_channels(self):
        # 16 cores on 16 channels: fewer than 2q, no steady state
        cfg = SimulationConfig(hbm_slots=64, channels=16, arbitration="fifo")
        assert_ff_identical(
            miss_bound_traces(threads=16, pages=8), cfg, expect_ff=False
        )

    def test_vector_path_wide_workload(self):
        from repro.core.fastengine import set_vector_threshold

        previous = set_vector_threshold(4)
        try:
            cfg = SimulationConfig(hbm_slots=96, channels=4)
            assert_ff_identical(miss_bound_traces(threads=32, pages=6), cfg)
        finally:
            set_vector_threshold(previous)

    def test_hit_bound_workload_elides_hit_stretches(self):
        # Everything fits in HBM, so after the cold pass the run is pure
        # hits: the guaranteed-hit prover must engage (the miss prover
        # alone used to leave this workload at ff_elided_fraction == 0).
        wl = make_workload("zipf", threads=6, seed=0, length=300, pages=16)
        cfg = SimulationConfig(hbm_slots=2048)
        assert_ff_identical(wl.traces, cfg)


class TestMissWindowContract:
    """FIFO's steady state is the only miss window; all 11 policies stay
    bit-identical with FF on, probes and response logs included."""

    @pytest.fixture
    def registry(self):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_active_registry(registry)
        yield registry
        obs_metrics.set_active_registry(previous)

    @staticmethod
    def _mixed_traces(threads=8):
        # miss-bound cyclic phases (steady state for FIFO) separated by
        # cache-fitting loops (hit windows)
        out = []
        for i in range(threads):
            cyc = list(range(100 * i, 100 * i + 12)) * 6
            loop = list(range(100 * i + 50, 100 * i + 53)) * 20
            out.append(cyc + loop + cyc)
        return out

    @pytest.mark.parametrize("arb", ALL_POLICIES)
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_bit_identical_with_probes_and_logs(self, arb, engine_cls):
        traces = self._mixed_traces()
        outputs = {}
        for enabled in (False, True):
            probe = TimelineProbe()
            cfg = policy_config(
                arb,
                hbm_slots=40,
                record_responses=True,
                probes=(probe,),
                probe_stride=3,
            )
            cls = engine_cls if enabled else Simulator
            outputs[enabled] = (run_with_ff(cls, traces, cfg, enabled), probe)
        (base, base_probe), (result, probe) = outputs[False], outputs[True]
        assert_results_equal(result, base)
        series, base_series = probe.as_arrays(), base_probe.as_arrays()
        assert series.keys() == base_series.keys()
        for key in series:
            np.testing.assert_array_equal(series[key], base_series[key], key)

    @pytest.mark.parametrize("arb", [a for a in ALL_POLICIES if a != "fifo"])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_non_fifo_makes_one_miss_attempt(self, registry, arb, engine_cls):
        # the first miss attempt asks for a drain plan, gets None, and
        # turns the miss prover off for the rest of the run
        cfg = policy_config(arb, hbm_slots=24)
        result = run_with_ff(engine_cls, self._mixed_traces(), cfg, True)
        fam = registry.snapshot()["families"]["repro_ff_plan_attempts"]
        miss = [
            value
            for key, value in fam["series"]
            if ("window", "miss") in {tuple(pair) for pair in key}
        ]
        assert miss == [1]
        assert result.ticks > 0

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_fifo_engages_in_steady_state(self, engine_cls, q):
        traces = miss_bound_traces(threads=4 * q, pages=12, repeats=8)
        cfg = SimulationConfig(hbm_slots=6 * q, channels=q, arbitration="fifo")
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)
        assert result.ff_intervals > 0
        assert result.ff_elided_fraction > 0.5


class TestCrossRemap:
    """Remap boundaries inside FF-on runs of the priority family.

    These policies decline miss windows, and hit windows replay every
    elided remap through ``skip_idle_ticks``. Either way, remap counts
    and the policy's RNG stream must end up exactly where per-tick
    execution leaves them. ``remap_period=5 < MIN_FF_TICKS=8`` puts a
    boundary inside every window the engines could elide.
    """

    @pytest.mark.parametrize("arb", REMAPPING_POLICIES)
    def test_remap_period_shorter_than_min_window(self, arb):
        assert 5 < MIN_FF_TICKS
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration=arb, remap_period=5, seed=9
        )
        baseline = assert_ff_identical(miss_bound_traces(), cfg, expect_ff=False)
        assert baseline.remap_count > 0

    @pytest.mark.parametrize("arb", REMAPPING_POLICIES)
    @pytest.mark.parametrize("period", [7, 13, 37])
    def test_remap_count_and_rng_stream_advance_in_bulk(self, arb, period):
        # remap_count and the policy's RNG stream must end up exactly
        # where per-tick execution leaves them, or later remaps diverge.
        cfg = SimulationConfig(
            hbm_slots=20,
            channels=2,
            arbitration=arb,
            remap_period=period,
            seed=11,
        )
        traces = miss_bound_traces(threads=6, pages=10)
        assert_ff_identical(traces, cfg, expect_ff=False)


class TestHitHeavy:
    """Guaranteed-hit windows are elided for every policy."""

    @pytest.mark.parametrize("arb", ALL_POLICIES)
    def test_hit_heavy_bit_identical_and_mostly_elided(self, arb):
        traces = hit_heavy_traces()
        cfg = policy_config(arb)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        for engine_cls in ENGINES:
            result = run_with_ff(engine_cls, traces, cfg, True)
            assert_results_equal(result, baseline)
            assert result.ff_intervals > 0
            assert result.ff_elided_fraction > 0.5

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_completion_inside_hit_window(self, engine_cls):
        # staggered lengths: cores finish mid-window, and the interval
        # must retire them at the same tick the per-tick engine does
        traces = [
            list(range(50 * i, 50 * i + 10)) * (3 + 5 * i) for i in range(4)
        ]
        cfg = SimulationConfig(hbm_slots=128, channels=2)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_hit_runs_update_lru_order(self, engine_cls):
        # capacity is tight enough that post-window evictions depend on
        # the LRU stamps written during the elided hit stretch
        traces = [
            (list(range(10 * i, 10 * i + 4)) * 30) + [100 + i, 10 * i]
            for i in range(4)
        ]
        cfg = SimulationConfig(hbm_slots=17, channels=1)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)

    @pytest.mark.parametrize("arb", ["dynamic_priority", "cycle_priority"])
    def test_hit_window_replays_elided_remaps(self, arb):
        # remaps land inside elided hit stretches; skip_idle_ticks must
        # replay them or the post-window grant order diverges
        cfg = policy_config(arb, remap_period=5, hbm_slots=160, seed=3)
        traces = hit_heavy_traces(threads=5, pages=16, repeats=40)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        assert baseline.remap_count > 0
        for engine_cls in ENGINES:
            result = run_with_ff(engine_cls, traces, cfg, True)
            assert_results_equal(result, baseline)

    def test_record_responses_identical_on_hit_heavy(self):
        traces = hit_heavy_traces(threads=4)
        cfg = policy_config("fifo", record_responses=True)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        for engine_cls in ENGINES:
            result = run_with_ff(engine_cls, traces, cfg, True)
            assert baseline.response_log is not None
            for la, lb in zip(result.response_log, baseline.response_log):
                assert list(la) == list(lb)


class TestProbeSeries:
    """Probe samples inside elided intervals must be materialized."""

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_probe_series_identical(self, stride, engine_cls):
        traces = miss_bound_traces(threads=6, pages=8)
        series = {}
        for enabled in (False, True):
            probe = TimelineProbe()
            cfg = SimulationConfig(
                hbm_slots=18,
                channels=2,
                probes=(probe,),
                probe_stride=stride,
            )
            run_with_ff(engine_cls, traces, cfg, enabled)
            series[enabled] = probe.as_arrays()
        assert series[False].keys() == series[True].keys()
        for key in series[False]:
            np.testing.assert_array_equal(
                series[False][key], series[True][key], err_msg=key
            )

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_probe_series_identical_inside_hit_windows(self, stride, engine_cls):
        traces = hit_heavy_traces(threads=4, pages=12, repeats=40)
        series = {}
        for enabled in (False, True):
            probe = TimelineProbe()
            cfg = SimulationConfig(
                hbm_slots=128,
                channels=2,
                probes=(probe,),
                probe_stride=stride,
            )
            result = run_with_ff(engine_cls, traces, cfg, enabled)
            if enabled:
                assert result.ff_elided_fraction > 0.5
            series[enabled] = probe.as_arrays()
        assert series[False].keys() == series[True].keys()
        for key in series[False]:
            np.testing.assert_array_equal(
                series[False][key], series[True][key], err_msg=key
            )

    def test_probe_run_does_not_suppress_ff(self):
        probe = TimelineProbe()
        cfg = SimulationConfig(
            hbm_slots=18, channels=2, probes=(probe,), probe_stride=7
        )
        result = run_with_ff(
            FastSimulator, miss_bound_traces(threads=6, pages=8), cfg, True
        )
        assert result.ff_intervals > 0
        assert len(probe.samples) > 0


class TestMaxTicks:
    def _message(self, engine_cls, cfg, enabled):
        with pytest.raises(SimulationLimitError) as excinfo:
            run_with_ff(engine_cls, miss_bound_traces(), cfg, enabled)
        return str(excinfo.value)

    def test_raise_message_identical_under_ff(self):
        full = run_with_ff(
            Simulator,
            miss_bound_traces(),
            SimulationConfig(hbm_slots=24, channels=2),
            False,
        )
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, max_ticks=full.ticks // 2
        )
        baseline = self._message(Simulator, cfg, False)
        for engine_cls in ENGINES:
            assert self._message(engine_cls, cfg, True) == baseline

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_boundary_budgets(self, engine_cls):
        traces = miss_bound_traces(threads=4, pages=6)
        cfg = SimulationConfig(hbm_slots=12, channels=2)
        ticks = run_with_ff(Simulator, traces, cfg, False).ticks
        for budget, should_raise in [
            (ticks - 1, True),
            (ticks, False),
            (ticks + 1, False),
        ]:
            bounded = dataclasses.replace(cfg, max_ticks=budget)
            if should_raise:
                with pytest.raises(SimulationLimitError):
                    run_with_ff(engine_cls, traces, bounded, True)
            else:
                result = run_with_ff(engine_cls, traces, bounded, True)
                assert result.ticks == ticks


class TestRecordResponses:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_response_logs_identical(self, engine_cls):
        traces = miss_bound_traces(threads=6, pages=8)
        cfg = SimulationConfig(
            hbm_slots=18, channels=2, record_responses=True
        )
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert baseline.response_log is not None
        for la, lb in zip(result.response_log, baseline.response_log):
            assert list(la) == list(lb)


class TestGatesAndFallbacks:
    def test_random_declines_miss_planning(self):
        # RandomArbitration draws from its RNG per select, so miss-bound
        # windows stay unplannable; a miss-only run must never FF.
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration="random", seed=3
        )
        baseline = run_with_ff(Simulator, miss_bound_traces(), cfg, False)
        result = run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        assert result.ff_intervals == 0
        assert_results_equal(result, baseline)

    @pytest.mark.parametrize(
        "arb", ["round_robin", "fr_fcfs", "blacklist", "dpq"]
    )
    def test_stateful_policies_decline_miss_windows(self, arb):
        # round-robin, FR-FCFS, blacklist, and DPQ do not grant in
        # stored order: a miss-only run never fast-forwards, and stays
        # bit-identical to per-tick execution.
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration=arb, seed=3
        )
        for engine_cls in ENGINES:
            result = run_with_ff(engine_cls, miss_bound_traces(), cfg, True)
            assert result.ff_intervals == 0
        assert_ff_identical(miss_bound_traces(), cfg, expect_ff=False)

    def test_blacklist_clear_boundary_lands_mid_drain(self):
        # blacklist_clear_interval=37 puts clearing boundaries inside
        # what would be miss-bound drains; blacklist declines miss
        # windows, and the run must match per-tick execution exactly.
        cfg = SimulationConfig(
            hbm_slots=24,
            channels=2,
            arbitration="blacklist",
            blacklist_threshold=2,
            blacklist_clear_interval=37,
            seed=3,
        )
        assert_ff_identical(miss_bound_traces(), cfg, expect_ff=False)

    def test_shared_pages_gate_reference_engine(self):
        # Two threads share page 0: guaranteed-miss windows are invalid,
        # so the reference engine must refuse to fast-forward.
        traces = [[0, 1, 2, 3] * 6, [0, 10, 11, 12] * 6]
        cfg = SimulationConfig(hbm_slots=3, channels=1)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(Simulator, traces, cfg, True)
        assert result.ff_intervals == 0
        assert_results_equal(result, baseline)

    def test_non_lru_replacement_gates_reference_engine(self):
        traces = miss_bound_traces(threads=4, pages=6)
        cfg = SimulationConfig(hbm_slots=12, replacement="clock", seed=1)
        result = run_with_ff(Simulator, traces, cfg, True)
        assert result.ff_intervals == 0


class TestKnobs:
    def test_set_fast_forward_round_trip(self):
        assert set_fast_forward(False) is None
        assert drain.fast_forward_enabled() is False
        assert set_fast_forward(True) is False
        assert drain.fast_forward_enabled() is True
        assert set_fast_forward(None) is True
        assert set_fast_forward(None) is None

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("0", False),
            ("false", False),
            ("off", False),
            ("no", False),
            ("", False),
            ("1", True),
            ("on", True),
            ("anything", True),
        ],
    )
    def test_env_variable(self, monkeypatch, value, expected):
        set_fast_forward(None)
        monkeypatch.setenv("REPRO_FAST_FORWARD", value)
        assert drain.fast_forward_enabled() is expected

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
        set_fast_forward(True)
        assert drain.fast_forward_enabled() is True

    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_FORWARD", raising=False)
        set_fast_forward(None)
        assert drain.fast_forward_enabled() is True


class TestStats:
    def test_ff_stats_populated_and_bounded(self):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        result = run_with_ff(FastSimulator, miss_bound_traces(), cfg, True)
        assert result.ff_intervals > 0
        assert result.ff_elided_ticks > 0
        assert result.ff_elided_ticks <= result.ticks
        assert 0.0 < result.ff_elided_fraction <= 1.0
        # a miss-bound adversarial run should elide nearly everything
        assert result.ff_elided_fraction > 0.9

    def test_ff_stats_zero_when_disabled(self):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        result = run_with_ff(FastSimulator, miss_bound_traces(), cfg, False)
        assert result.ff_intervals == 0
        assert result.ff_elided_ticks == 0
        assert result.ff_elided_fraction == 0.0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_zero_tick_run_reports_zero_fraction(self, engine_cls):
        # empty workload: ticks == 0 must not divide-by-zero the fraction
        result = run_with_ff(engine_cls, [[]], SimulationConfig(hbm_slots=2), True)
        assert result.ticks == 0
        assert result.ff_intervals == 0
        assert result.ff_elided_ticks == 0
        assert result.ff_elided_fraction == 0.0

    def test_manifest_carries_ff_fields(self):
        from repro.obs import RunManifest

        cfg = SimulationConfig(hbm_slots=24, channels=2)
        result = run_with_ff(FastSimulator, miss_bound_traces(), cfg, True)
        manifest = RunManifest.build(cfg, "fast", result=result)
        assert manifest.result["ff_intervals"] == result.ff_intervals
        assert manifest.result["ff_elided_ticks"] == result.ff_elided_ticks
        assert (
            manifest.result["ff_elided_fraction"] == result.ff_elided_fraction
        )


class TestEngagementCounters:
    """Per-policy FF attempt/decline totals flow into repro.obs.metrics."""

    @pytest.fixture(autouse=True)
    def _registry(self):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_active_registry(registry)
        yield registry
        obs_metrics.set_active_registry(previous)

    @staticmethod
    def _series(registry, name):
        fam = registry.snapshot()["families"].get(name)
        if fam is None:
            return {}
        return {
            frozenset(tuple(pair) for pair in key): value
            for key, value in fam["series"]
        }

    def test_miss_window_attempts_recorded(self, _registry):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        run_with_ff(FastSimulator, miss_bound_traces(), cfg, True)
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        key = frozenset({("policy", "fifo"), ("window", "miss")})
        assert attempts.get(key, 0) > 0

    def test_hit_window_attempts_recorded(self, _registry):
        cfg = policy_config("round_robin")
        run_with_ff(FastSimulator, hit_heavy_traces(), cfg, True)
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        key = frozenset({("policy", "round_robin"), ("window", "hit")})
        assert attempts.get(key, 0) > 0

    def test_declining_policy_shows_up_as_declines(self, _registry):
        # random never plans miss windows: its attempts never commit,
        # so telemetry must show where planning falls through
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration="random", seed=3
        )
        run_with_ff(FastSimulator, miss_bound_traces(), cfg, True)
        key = frozenset({("policy", "random"), ("window", "miss")})
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        declines = self._series(_registry, "repro_ff_plan_declines")
        assert attempts.get(key, 0) >= 1
        assert declines.get(key, 0) == attempts.get(key, 0)

    def test_reference_engine_records_too(self, _registry):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        key = frozenset({("policy", "fifo"), ("window", "miss")})
        assert attempts.get(key, 0) > 0

    def test_no_registry_is_a_no_op(self):
        from repro.obs import metrics as obs_metrics

        previous = obs_metrics.set_active_registry(None)
        try:
            cfg = SimulationConfig(hbm_slots=24, channels=2)
            result = run_with_ff(FastSimulator, miss_bound_traces(), cfg, True)
            assert result.ff_intervals > 0
        finally:
            obs_metrics.set_active_registry(previous)


class TestStatefulPlanOracles:
    """Only FIFO exposes a drain plan; every other policy declines.

    The engines ask a policy once per run and drop the refusal, so a
    declined request must leave every bit of policy state as it was:
    the asked policy keeps granting exactly like a twin never asked.
    """

    @staticmethod
    def _assert_twin_grants(asked, twin, arrivals, limit=4):
        for thread, page in arrivals:
            asked.enqueue(thread, page)
            twin.enqueue(thread, page)
        assert len(asked) == len(twin)
        while len(twin):
            assert asked.select(limit) == twin.select(limit)
        assert len(asked) == 0

    def test_random_has_no_drain_plan(self):
        from repro.core.arbitration import RandomArbitration

        policy = RandomArbitration(4, rng=np.random.default_rng(0))
        policy.enqueue(1)
        assert policy.drain_plan(2, 1000) is None

    def test_round_robin_plan_discard_leaves_policy_untouched(self):
        from repro.core.arbitration import RoundRobinArbitration

        asked, twin = RoundRobinArbitration(4), RoundRobinArbitration(4)
        for policy in (asked, twin):
            for thread in (1, 3):
                policy.enqueue(thread)
            policy.select(1)  # the scan pointer moves past thread 1
        assert asked.drain_plan(2, 1000) is None
        assert asked._next == twin._next
        assert len(asked) == 1
        # the cyclic scan resumes after thread 1: 3 before 0 and 2
        asked.enqueue(0)
        twin.enqueue(0)
        assert asked.select(1) == twin.select(1) == [3]
        self._assert_twin_grants(asked, twin, [(2, None), (1, None)])

    def test_frfcfs_plan_discard_leaves_banks_untouched(self):
        from repro.core.arbitration import FRFCFSArbitration
        from repro.core.dram import DramGeometry

        asked, twin = (
            FRFCFSArbitration(4, geometry=DramGeometry(banks=1, row_pages=4))
            for _ in range(2)
        )
        for policy in (asked, twin):
            policy.enqueue(0, 0)
            policy.select(1)  # bank 0 now has row 0 open
            policy.enqueue(1, 8)  # row 2: a miss...
            policy.enqueue(2, 1)  # row 0: ...that the open row jumps past
        assert asked.drain_plan(1, 1000) is None
        assert len(asked) == 2
        assert asked.select(2) == [2, 1]
        twin.select(2)
        # the open row (now row 2) decides the next grants identically
        self._assert_twin_grants(asked, twin, [(0, 2), (3, 9)], limit=1)

    def test_blacklist_plan_discard_leaves_policy_untouched(self):
        from repro.core.arbitration import BlacklistingArbitration

        asked, twin = (
            BlacklistingArbitration(4, blacklist_threshold=1) for _ in range(2)
        )
        for policy in (asked, twin):
            for thread in (1, 3):
                policy.enqueue(thread)
            policy.select(1)  # threshold 1: thread 1 is now blacklisted
        assert asked.drain_plan(2, 1000) is None
        assert asked._blacklisted.tolist() == twin._blacklisted.tolist()
        assert asked._blacklisted.tolist() == [False, True, False, False]
        assert (asked._streak_thread, asked._streak) == (
            twin._streak_thread,
            twin._streak,
        )
        assert len(asked) == 1
        self._assert_twin_grants(asked, twin, [(1, None), (0, None), (2, None)])

    def test_dpq_plan_discard_leaves_policy_untouched(self):
        from repro.core.arbitration import DynamicPriorityQueueArbitration

        asked, twin = (DynamicPriorityQueueArbitration(4) for _ in range(2))
        for policy in (asked, twin):
            for thread in (1, 3):
                policy.enqueue(thread)
            policy.select(1)  # thread 1 drops to the back of the slot order
        assert asked.drain_plan(2, 1000) is None
        assert asked._order == twin._order == [0, 2, 3, 1]
        assert len(asked) == 1
        self._assert_twin_grants(asked, twin, [(1, None), (0, None), (2, None)])


# -- unit tests for the planner helpers -----------------------------------


class TestTracesDisjoint:
    def test_disjoint(self):
        assert traces_disjoint([np.array([0, 1]), np.array([2, 3])])

    def test_shared(self):
        assert not traces_disjoint([np.array([0, 1]), np.array([1, 2])])

    def test_empty_and_single(self):
        assert traces_disjoint([])
        assert traces_disjoint([np.array([5, 5, 5])])
        assert traces_disjoint([np.array([0, 1]), np.array([], dtype=np.int64)])


class TestPlanDrain:
    def _plan(self, threads=(), horizon=1000):
        from repro.core.arbitration import FIFOArbitration

        policy = FIFOArbitration(8)
        for thread in threads:
            policy.enqueue(thread)
        return policy.drain_plan(2, horizon)

    def _drain(self, plan, channels=1, avail=10, capacity=8, b=(0, 1), h=()):
        cores = list(b) + list(h) + plan.snapshot()
        return plan_drain(
            plan,
            start=0,
            channels=channels,
            capacity=capacity,
            resident0=len(h),
            h_threads=list(h),
            b_threads=list(b),
            grant_avail=dict.fromkeys(cores, avail),
            completes=dict.fromkeys(cores, False),
        )

    def test_short_interval_rejected(self):
        sched = self._drain(self._plan(horizon=MIN_FF_TICKS - 1), channels=2)
        assert sched is None

    def test_simple_two_core_drain(self):
        # Two cores, one channel, plenty of window: strict alternation.
        sched = self._drain(self._plan(), capacity=64)
        assert sched is not None
        assert sched.start == 0
        threads, ticks = sched.grant_events()
        grants = list(zip(ticks.tolist(), threads.tolist()))
        # entry tick grants the first entry miss; alternation follows
        assert grants[:4] == [(0, 0), (1, 1), (2, 0), (3, 1)]
        # each grant at t is served at t+1
        serve_threads, serve_ticks = sched.serve_events()
        serves = dict(zip(serve_ticks.tolist(), serve_threads.tolist()))
        for tick, thread in grants:
            if tick + 1 < sched.end:
                assert serves[tick + 1] == thread
        assert sched.total_evictions == 0  # capacity 64 never exceeded
        # one grant left in each window: 9 whole rounds of 2 ticks
        assert sched.end == 18
        assert sched.inflight().tolist() == [1]

    def test_grant_serves_match_serve_events(self):
        # the closed-form per-core serves the engines commit agree with
        # the event list the probe replay walks
        sched = self._drain(
            self._plan(threads=(5,)), channels=2, capacity=64,
            b=(0, 1, 2), h=(3, 4),
        )
        assert sched is not None
        threads, ticks = sched.serve_events()
        events = {}
        for i, tick in zip(threads.tolist(), ticks.tolist()):
            if tick > sched.start:  # entry hits serve at start
                events.setdefault(i, []).append(tick)
        cores, firsts, counts = sched.grant_serves()
        closed = {
            i: [first + r * sched.period for r in range(n)]
            for i, first, n in zip(cores.tolist(), firsts.tolist(), counts.tolist())
        }
        assert closed == events
        assert sorted(cores.tolist()) == [0, 1, 2, 3, 4, 5]

    def test_window_exhaustion_bounds_grants(self):
        sched = self._drain(self._plan(), channels=1, avail=6, capacity=64)
        assert sched is not None
        threads, _ = sched.grant_events()
        counts = np.bincount(threads, minlength=2)
        # every core keeps at least one window grant for the live loop
        assert counts.tolist() == [5, 5]

    def test_steady_state_preconditions(self):
        # fewer than 2q cores, or a core count q does not divide, has
        # no closed-form stream
        assert self._drain(self._plan(), channels=2) is None
        assert self._drain(self._plan(), channels=2, b=(0, 1, 2)) is None
        assert self._drain(self._plan(), channels=2, b=(0, 1, 2, 3)) is not None

    def test_eviction_feasibility_trims_rounds(self):
        # capacity 2 with 2 entry hits and q=2 cores arriving: every
        # tick's eviction would need a protected page
        sched = self._drain(
            self._plan(), channels=2, capacity=2, b=(0, 1), h=(2, 3)
        )
        assert sched is None


class TestResponseTimes:
    """drain.response_times: the waits of each core's periodic serves."""

    def test_first_serve_uses_entry_request_tick(self):
        # core 1 waiting since tick 3; served at ticks 10 and 12
        w = response_times(np.array([10]), np.array([2]), np.array([3]), 2)
        assert w.tolist() == [10 - 3 + 1, 12 - 10]

    def test_thread_major_stable_order(self):
        # waits come grouped per core in input order, each core's
        # chronologically; a core with no serve inside contributes none
        w = response_times(
            np.array([5, 6, 7]), np.array([2, 0, 3]), np.array([4, 0, 6]), 3
        )
        assert w.tolist() == [5 - 4 + 1, 3, 7 - 6 + 1, 3, 3]

    def test_thread_major_order_matches_serve_events(self):
        from repro.core.arbitration import FIFOArbitration

        policy = FIFOArbitration(8)
        policy.enqueue(5)
        start, b, h = 10, [0, 1, 2], [3, 4]
        cores = b + h + [5]
        sched = plan_drain(
            policy.drain_plan(2, 1000),
            start=start,
            channels=2,
            capacity=64,
            resident0=len(h),
            h_threads=h,
            b_threads=b,
            grant_avail=dict.fromkeys(cores, 10),
            completes=dict.fromkeys(cores, False),
        )
        assert sched is not None
        # entry requests: misses waiting since various ticks; an entry
        # hit serves at start and requests again on start + 1
        entry = {0: 7, 1: 9, 2: 10, 5: 4, 3: start + 1, 4: start + 1}
        threads, ticks = sched.serve_events()
        want = {}
        for i, tick in zip(threads.tolist(), ticks.tolist()):
            if tick > start:
                prev = want.setdefault(i, [entry[i] - 1])
                prev.append(tick)
        order, firsts, counts = sched.grant_serves()
        w = response_times(
            firsts, counts, np.array([entry[i] for i in order.tolist()]),
            sched.period,
        )
        expected = np.concatenate(
            [np.diff(want[i]) for i in order.tolist()]
        )
        assert w.tolist() == expected.tolist()

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert len(response_times(empty, empty, empty, 4)) == 0


# -- property-based: FF differential on random disjoint workloads ----------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=24),
    st.sampled_from(["fifo", "priority", "dynamic_priority"]),
    st.integers(0, 2**31 - 1),
)
def test_ff_differential_random(p, pages, q, k, arb, seed):
    rng = np.random.default_rng(seed)
    traces = [
        (1000 * i + rng.integers(0, pages, size=int(rng.integers(5, 60))))
        .tolist()
        for i in range(p)
    ]
    cfg = SimulationConfig(
        hbm_slots=max(k, q + 1),
        channels=q,
        arbitration=arb,
        remap_period=37,
        seed=5,
    )
    baseline = run_with_ff(Simulator, traces, cfg, False)
    for engine_cls in ENGINES:
        assert_results_equal(
            run_with_ff(engine_cls, traces, cfg, True), baseline
        )
