"""Vectorized simulator (independent implementation of the model).

:class:`FastSimulator` produces **bit-identical results** to
:class:`repro.core.engine.Simulator` (enforced by the differential
tests in ``tests/test_fastengine.py``) while executing the per-tick
classify/serve work with numpy when many cores are unblocked at once:
dense page-state arrays, a timestamp-LRU with a lazily-refreshed
eviction heap, and bulk metrics aggregation replace the reference
engine's per-core dict/list operations.

Performance, measured: ``engine="auto"`` (the default) does **not**
run this engine. At the widths every registry experiment simulates
(p <= 64) the list-based :class:`repro.core.engine.Simulator`, with its
own fast-forward, is 2.4-3.7x faster per job on identical inputs with
identical results (cold single-process campaigns, 2-CPU host):

=====================  ==========================  ======================
workload (jobs)        ``FastSimulator``, FF on    ``Simulator``, FF on
=====================  ==========================  ======================
``ff_heavy`` (37)      1.49 s                      0.63 s
``zoo`` (22)           21.3 s                      8.7 s
``fig2a`` (6)          26.8 s                      7.3 s
``thm1_3`` (90)        8.7 s                       3.2 s
=====================  ==========================  ======================

numpy dispatch overhead eats the vector win until many cores are READY
in the same tick. The crossover is wide, all-hit input: on ``densemm``
(hit rate ~1.0) this engine is 1.4-1.8x faster at p = 64-128 with or
without fast-forward, while with fast-forward off it loses below
p = 64. Skewed or miss-heavy input stays on the reference side even
when wide (``random`` at p = 512 under ``priority``: 2.8x slower here).
No registry experiment runs wide all-hit input, so this engine is an
explicit opt-in (``engine="fast"``) for such machines and a
structurally different implementation of the model for differential
testing.

Scope restrictions (``simulate(..., engine="fast")`` raises outside
them):

* LRU replacement (the paper's policy) — implemented here as lazy
  timestamp LRU: touches are vector writes to a ``last_stamp`` array
  and the eviction heap refreshes stale entries on pop, instead of an
  OrderedDict move per hit;
* ``protect_pending=True`` (the default) — protection is what
  guarantees a classified hit cannot be evicted between the classify
  and serve phases, which the vector path exploits;
* disjoint traces with compact page ids (what
  :class:`repro.traces.Workload` produces) — page state lives in dense
  arrays indexed by page id, and the protected-page test becomes
  ``current[owner[page]] == page``;
* no Belady wiring, no timeline collection (``config.probes`` *are*
  supported — samples are emitted from the vectorized state under the
  same per-tick condition as the reference engine, so the two engines'
  probe series are identical on shared sample ticks).

``record_responses=True`` *is* supported: the chronological serve
buffers the engine keeps anyway hold exactly the per-thread response
sequences (a core has at most one serve per tick, so restricting the
chronological log to one thread reproduces the reference engine's
per-thread append order).

Dispatch cost: :func:`simulate` accepts either raw arrays or a
:class:`repro.traces.Workload`. A workload carries a
:class:`~repro.traces.base.PageAttestation` certified at construction,
so both this engine's eligibility and the reference engine's
fast-forward gate are O(1) attribute checks; raw arrays fall back to a
full O(n log n) disjointness scan. Callers on hot paths should pass the
workload object.

Why stamps reproduce the reference exactly: the reference engine
serves hits in core-id order within a tick and inserts fetched pages
afterwards, so its LRU recency order is exactly (tick, phase, core
order). Stamps ``t * (p + q + 1) + serve_index`` for touches and
``t * (p + q + 1) + p + grant_index`` for inserts encode the same total
order, and the eviction heap pops its minimum.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import drain
from .arbitration import make_arbitration_policy
from .config import SimulationConfig
from .dram import DramGeometry
from .engine import SimulationLimitError, Simulator
from .metrics import MetricsCollector, SimulationResult

__all__ = [
    "ENGINE_CHOICES",
    "VECTOR_THRESHOLD",
    "FastSimulator",
    "default_engine",
    "resolve_engine",
    "set_default_engine",
    "set_vector_threshold",
    "simulate",
    "vector_threshold",
]

#: documented fallback for the scalar/vector crossover: below this many
#: READY cores a tick is processed scalar, above it with numpy. The
#: live value comes from :func:`vector_threshold` (override, then the
#: ``REPRO_VECTOR_THRESHOLD`` env var, then a one-shot micro-benchmark
#: clamped to [8, 96]); this constant is the documented ballpark and
#: the value tests pin when they need a deterministic crossover.
VECTOR_THRESHOLD = 24

#: first-pass cap for the fast-forward window scan: attempts that fail
#: (hit-heavy regimes, tiny windows) must not pay a full-trace scan per
#: live core. Chosen above the adversarial families' cycle lengths so
#: their windows resolve exactly in one pass. The miss-window scan
#: starts at an eighth of it and grows 8x per pass while the cap itself
#: is what binds.
_SCAN_STAGE_CAP = 96

_vector_threshold_override: int | None = None
_calibrated_threshold: int | None = None


def _calibrate_vector_threshold() -> int:
    """Measure the scalar/vector crossover width on this host.

    Times the hot-loop classify kernel (gather pages, test residency,
    split hits/misses) both ways at increasing ready-set widths and
    returns the first width where the numpy version wins. The result is
    clamped to [8, 96]: outside that range the measurement is noise
    (tiny widths) or irrelevant (the vector path always wins). Runs
    once per process (~a few ms) unless the env var or an override
    short-circuits it.
    """
    universe = 4096
    resident = np.zeros(universe, dtype=bool)
    resident[::2] = True
    reps = 400
    for width in (8, 12, 16, 24, 32, 48, 64, 96):
        ready = np.arange(width, dtype=np.int64)
        current = (np.arange(width, dtype=np.int64) * 7919) % universe
        t0 = time.perf_counter()
        for _ in range(reps):
            pages = current[ready]
            flags = resident[pages]
            _hits = ready[flags]
            _miss = ready[~flags]
        t_vec = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(reps):
            hits = []
            misses = []
            for i in ready.tolist():
                if resident[int(current[i])]:
                    hits.append(i)
                else:
                    misses.append(i)
        t_sca = time.perf_counter() - t0
        if t_vec < t_sca:
            return max(8, width)
    return 96


def vector_threshold() -> int:
    """The ready-set width at which ticks switch to the vector path.

    Resolution order: :func:`set_vector_threshold` override, then the
    ``REPRO_VECTOR_THRESHOLD`` environment variable, then a cached
    :func:`_calibrate_vector_threshold` measurement. Purely a
    performance knob — both paths implement identical semantics, so an
    invalid env value (non-integer, non-positive) is warned about once
    and ignored rather than failing the dispatch.
    """
    if _vector_threshold_override is not None:
        return _vector_threshold_override
    env = os.environ.get("REPRO_VECTOR_THRESHOLD")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
        from ..obs.log import get_logger, warn_once

        warn_once(
            get_logger("core"),
            "vector-threshold-env",
            "ignoring invalid REPRO_VECTOR_THRESHOLD=%r "
            "(expected an integer >= 1); using calibrated default",
            env,
        )
    global _calibrated_threshold
    if _calibrated_threshold is None:
        _calibrated_threshold = _calibrate_vector_threshold()
    return _calibrated_threshold


def set_vector_threshold(n: int | None) -> int | None:
    """Force the scalar/vector crossover; returns the previous override.

    ``None`` removes the override, restoring env-var/calibration
    resolution. Used by differential tests to pin one path and by
    benchmarks to measure both. An invalid value (non-integer,
    non-positive) warns once and clears the override — the knob is
    purely performance, so misuse must never change or abort a run.
    """
    global _vector_threshold_override
    previous = _vector_threshold_override
    if n is None:
        _vector_threshold_override = None
        return previous
    try:
        value = int(n)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        from ..obs.log import get_logger, warn_once

        warn_once(
            get_logger("core"),
            "vector-threshold-set",
            "ignoring invalid vector threshold %r "
            "(expected an integer >= 1); override cleared",
            n,
        )
        _vector_threshold_override = None
        return previous
    _vector_threshold_override = value
    return previous

#: dense page-state arrays must stay sane
MAX_DENSE_PAGE = 50_000_000

#: valid values for the ``engine`` argument of :func:`simulate`
ENGINE_CHOICES = ("auto", "reference", "fast")

_default_engine = "auto"


def default_engine() -> str:
    """The engine :func:`simulate` uses when none is given."""
    return _default_engine


def set_default_engine(engine: str) -> str:
    """Set the process-wide default engine; returns the previous value.

    Used by the CLI's ``--engine`` flag to steer every dispatch inside
    an experiment run without threading a parameter through each
    experiment signature. Sweep workers receive the choice explicitly
    through the pool initializer.
    """
    global _default_engine
    if engine not in ENGINE_CHOICES:
        raise ValueError(f"engine must be one of {ENGINE_CHOICES}, got {engine!r}")
    previous = _default_engine
    _default_engine = engine
    return previous


class _ArrayAttestation:
    """Attestation-shaped result of scanning raw trace arrays.

    Duck-type compatible with :class:`repro.traces.base.PageAttestation`
    (which lives in the traces layer; core does not import it).
    """

    __slots__ = ("disjoint", "min_page", "max_page")

    def __init__(self, disjoint: bool, min_page: int, max_page: int) -> None:
        self.disjoint = disjoint
        self.min_page = min_page
        self.max_page = max_page


def _attest_arrays(traces: list[np.ndarray]) -> _ArrayAttestation:
    """The expensive raw-array fallback: scan for disjointness/bounds."""
    non_empty = [t for t in traces if len(t)]
    if not non_empty:
        return _ArrayAttestation(True, 0, -1)
    max_page = max(int(t.max()) for t in non_empty)
    min_page = min(int(t.min()) for t in non_empty)
    if min_page < 0 or max_page > MAX_DENSE_PAGE:
        return _ArrayAttestation(False, min_page, max_page)
    per_thread = sum(len(np.unique(t)) for t in non_empty)
    total = len(np.unique(np.concatenate(non_empty)))
    return _ArrayAttestation(per_thread == total, min_page, max_page)


def _config_supported(config: SimulationConfig) -> bool:
    return (
        config.replacement == "lru"
        and config.protect_pending
        and not config.collect_timeline
    )


def _attestation_ok(attestation) -> bool:
    return (
        attestation.disjoint
        and attestation.min_page >= 0
        and attestation.max_page <= MAX_DENSE_PAGE
    )


def _supports(
    config: SimulationConfig,
    traces: list[np.ndarray],
    attestation=None,
) -> bool:
    """Can the fast path run this configuration faithfully?"""
    if not _config_supported(config):
        return False
    if attestation is None:
        attestation = _attest_arrays(traces)
    return _attestation_ok(attestation)


@dataclass(slots=True)
class _FastForward:
    """Per-run fast-forward state of the fast engine.

    The counterpart of the reference engine's
    :class:`repro.core.engine._FastForward`: identical provers, but the
    bulk apply speaks timestamp-LRU. Serve touches become one scatter
    into ``last_stamp`` (per-tick-stale heap entries migrate lazily,
    exactly as on the hit path), the exact LRU victim sequence falls out
    of popping the heap minimum with *no* protection predicate (plan
    feasibility already guarantees no protected page is reached), and
    the response times land in the chronological serve buffers the
    end-of-run aggregation consumes anyway.
    """

    arb: Any
    p: int
    q: int
    capacity: int
    big_trace: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    pos: np.ndarray
    current: np.ndarray
    request_tick: np.ndarray
    resident: np.ndarray
    last_stamp: np.ndarray
    heap: list[tuple[int, int]]
    stamp_stride: int
    metrics: MetricsCollector
    served_threads: list[np.ndarray]
    served_w: list[np.ndarray]
    probes: tuple
    probe_stride: int
    horizon: int
    state: drain.FFState = field(default_factory=drain.FFState)

    def attempt(
        self, t, ready, queue_len, fetches, evictions, done_count, makespan,
        resident_count,
    ):
        """One quiescent-interval fast-forward attempt at tick ``t``.

        Dispatches to the guaranteed-*hit* prover when the entry tick is
        fully hit-quiescent (empty queue, every ready reference
        resident) and to the FIFO steady-state drain otherwise. Returns
        the updated scalars ``(t, ready, queue_len, fetches, evictions,
        done_count, makespan, resident_count)`` or ``None`` when no
        interval was committed.
        """
        pages = self.current[ready]
        flags = self.resident[pages]
        h_arr = ready[flags]
        b_arr = ready[~flags]

        ffstate = self.state
        if queue_len == 0 and not len(b_arr):
            if not ffstate.hit_ok or not len(h_arr):
                return None
            ffstate.attempts_hit += 1
            result = self._hit(
                t, h_arr, fetches, evictions, done_count, makespan,
                resident_count,
            )
            if result is not None:
                ffstate.commits_hit += 1
            return result

        if not ffstate.plan_ok:
            return None
        ffstate.attempts_miss += 1
        plan = self.arb.drain_plan(self.q, self.horizon)
        if plan is None:
            ffstate.plan_ok = False
            return None
        cores = queue_len + len(ready)
        rounds = drain.max_rounds(self.q, cores, t, plan.horizon)
        if not rounds:
            return None
        result = self._miss(
            plan, rounds, cores, t, h_arr, b_arr, fetches, evictions,
            done_count, makespan, resident_count,
        )
        if result is not None:
            ffstate.commits_miss += 1
        return result

    def _scan_windows(self, bound, cores, is_h):
        """Guaranteed-miss windows of every live core in one pass.

        Scans at most ``bound + 2`` references per core. Returns
        ``(avail, completes, bound)``: window grants and completion
        flags per live core, and the most whole rounds still possible;
        ``None`` when some core rules an interval out.
        """
        live = np.flatnonzero(self.current >= 0)
        lengths = self.lengths[live]
        idx = self.pos[live][:, None] + np.arange(bound + 2, dtype=np.int64)
        past_end = idx >= lengths[:, None]
        np.minimum(idx, lengths[:, None] - 1, out=idx)
        pages = self.big_trace[self.offsets[live][:, None] + idx]
        # A window reference is bad if resident at entry, a repeat of an
        # earlier window reference, or past the trace end; the window
        # ends at the first bad position. Namespaces are disjoint, so a
        # page repeated anywhere in the block repeats within its row.
        flat = pages.ravel()
        _, first_idx, inv = np.unique(flat, return_index=True, return_inverse=True)
        bad = (first_idx[inv] != np.arange(len(flat))).reshape(pages.shape)
        bad |= self.resident[pages]
        bad |= past_end
        bad[:, 0] = False  # the current reference itself gets a free pass
        window = np.where(bad.any(axis=1), bad.argmax(axis=1), bound + 2)
        done = self.pos[live] + window >= self.lengths[live]
        h = is_h[live]
        grants = window - h
        # An entry hit with no grant left that completes drops out of
        # the drain; any other core with fewer than 3 grants rules out
        # two whole rounds.
        binding = ~(h & done & (grants == 0))
        if binding.any():
            bound = min(bound, int(grants[binding].min()) - 1)
        if bound < 2 or bound * cores // self.q < drain.MIN_FF_TICKS:
            return None
        keys = live.tolist()
        return (
            dict(zip(keys, grants.tolist())),
            dict(zip(keys, done.tolist())),
            bound,
        )

    def _miss(
        self, plan, rounds, cores, t, h_arr, b_arr, fetches, evictions,
        done_count, makespan, resident_count,
    ):
        """Commit the FIFO steady-state drain entered at ``t``, if any."""
        p = self.p
        q = self.q
        is_h = np.zeros(p, dtype=bool)
        is_h[h_arr] = True

        # Staged scan: a capped first pass decides most failed attempts
        # cheaply; a longer pass runs only while the stage cap itself is
        # the binding limit.
        full = rounds if rounds < drain.WINDOW_CAP - 2 else drain.WINDOW_CAP - 2
        stage = _SCAN_STAGE_CAP // 8 if _SCAN_STAGE_CAP // 8 < full else full
        while True:
            scan = self._scan_windows(stage, cores, is_h)
            if scan is None:
                return None
            if scan[2] < stage or stage == full:
                break
            stage = 8 * stage if 8 * stage < full else full
        sched = drain.plan_drain(
            plan,
            start=t,
            channels=q,
            capacity=self.capacity,
            resident0=resident_count,
            h_threads=h_arr.tolist(),
            b_threads=b_arr.tolist(),
            grant_avail=scan[0],
            completes=scan[1],
        )
        if sched is None:
            return None
        end = sched.end

        # ---- read-only derivations (no state touched yet) ----------------
        total_evict = sched.total_evictions
        n_entry_victims = (
            total_evict if total_evict < resident_count else resident_count
        )
        m_fetched_victims = total_evict - n_entry_victims

        # Response times. Entry hits serve at t. Granted cores serve
        # periodically: the first serve answers the request pending at
        # entry (or, for an entry hit, the one issued right after its
        # entry serve); each later one waits a period. The serve buffers
        # only need each core's serves in order, so thread-major is fine.
        request_tick = self.request_tick
        d = sched.period
        cores, firsts, counts = sched.grant_serves()
        h_w = t - request_tick[h_arr] + 1
        # an entry hit's next request is issued right after its serve at t
        grant_w = drain.response_times(
            firsts,
            counts,
            np.where(is_h[cores], t + 1, request_tick[cores]),
            d,
        )

        # Serve stamps (tick * stride + within-tick index, the per-tick
        # paths' total recency order) for the pages still resident at
        # the end: entry hits served at t, and the fetches that survive
        # the interval's evictions.
        stride = self.stamp_stride
        pos = self.pos
        offsets = self.offsets
        big_trace = self.big_trace
        h_pages = self.current[h_arr]
        f_threads, f_rounds, f_events = sched.fetched_events(m_fetched_victims)
        fetched_pages = big_trace[
            offsets[f_threads] + pos[f_threads] + is_h[f_threads] + f_rounds
        ]
        fetched_stamps = (t + 1 + f_events // q) * stride + f_events % q

        probes = self.probes
        if probes and not drain.sampled(t, end, self.probe_stride):
            probes = ()
        if probes:
            entry_live = self.current >= 0
            probe_rt = request_tick.copy()

        # ---- commit -------------------------------------------------------
        plan.commit()
        self.served_threads.append(h_arr)
        self.served_w.append(h_w)
        self.served_threads.append(np.repeat(cores, counts))
        self.served_w.append(grant_w)

        # Restamp the entry hits, then pop the exact victim sequence:
        # entry-resident non-H pages oldest first, then the entry hits in
        # core order — precisely the stamp order after the restamp. Heap
        # entries carrying pre-serve stamps refresh lazily.
        resident = self.resident
        last_stamp = self.last_stamp
        heap = self.heap
        last_stamp[h_pages] = t * stride + np.arange(len(h_pages))
        popped = 0
        while popped < n_entry_victims:
            s, page = heapq.heappop(heap)
            if not resident[page]:
                continue
            true_stamp = int(last_stamp[page])
            if s != true_stamp:
                heapq.heappush(heap, (true_stamp, page))
                continue
            resident[page] = False
            resident_count -= 1
            popped += 1

        # An entry hit with no window grant left completes at t + 1; no
        # granted core completes inside the interval.
        current = self.current
        completion_tick: dict[int, int] = {}
        for i in h_arr[pos[h_arr] + 1 >= self.lengths[h_arr]].tolist():
            self.metrics.record_completion(i, t + 1)
            done_count += 1
            if t + 1 > makespan:
                makespan = t + 1
            completion_tick[i] = t
            current[i] = -1
        pos[cores] += counts + is_h[cores]
        current[cores] = big_trace[offsets[cores] + pos[cores]]
        request_tick[cores] = firsts + (counts - 1) * d + 1

        for page, stamp in zip(fetched_pages.tolist(), fetched_stamps.tolist()):
            resident[page] = True
            resident_count += 1
            last_stamp[page] = stamp
            heapq.heappush(heap, (stamp, page))
        # In-flight grants (tick end - 1, served after the jump) carry
        # insert stamps.
        base_end = (end - 1) * stride + p
        for g, i in enumerate(sched.inflight().tolist()):
            page = int(current[i])
            resident[page] = True
            resident_count += 1
            stamp = base_end + g
            last_stamp[page] = stamp
            heapq.heappush(heap, (stamp, page))

        # Cores served on the last tick, plus the last tick's grants: the
        # round's last two chunks.
        new_ready = np.sort(sched.round1[-2 * q :])

        if probes:
            from ..obs.probe import materialize_interval_samples

            materialize_interval_samples(
                probes,
                start=t,
                end=end,
                stride=self.probe_stride,
                channels=q,
                fetches0=fetches,
                evictions0=evictions,
                request_tick=probe_rt,
                live=entry_live,
                completion_tick=completion_tick,
                **sched.probe_histories(),
            )

        return (
            end,
            new_ready,
            sched.final_queue_len,
            fetches + sched.grants,
            evictions + total_evict,
            done_count,
            makespan,
            resident_count,
        )

    def _hit(
        self, t, h_arr, fetches, evictions, done_count, makespan,
        resident_count,
    ):
        """Bulk-retire a guaranteed-*hit* stretch starting at tick ``t``.

        Preconditions established by :meth:`attempt`: the request queue
        is empty and every live core's current reference is resident.
        Under those conditions no fetch can happen until some core
        reaches a non-resident reference, and with no fetches there are
        no evictions — so residency is frozen and each core simply
        serves one trace reference per tick while its *hit run* (maximal
        prefix of resident references) lasts. The interval ends one tick
        before the first non-completing core would classify a
        non-resident reference, which keeps that classification in the
        live loop.

        The bulk apply is pure timestamp work: serves scatter their
        final stamps into ``last_stamp`` (hits never push heap entries
        on the per-tick paths either — stale heap stamps refresh
        lazily), response times are 1 for every serve after a core's
        first, and the policy replays its elided ``begin_tick`` effects
        through
        :meth:`~repro.core.arbitration.ArbitrationPolicy.skip_idle_ticks`
        (refusal permanently disables this prover for the run via
        ``state.hit_ok``). Returns the same scalar tuple as
        :meth:`attempt` or ``None``.
        """
        live = h_arr  # queue empty: the live set IS the ready set
        full_cap = drain.WINDOW_CAP
        if self.horizon < drain.UNBOUNDED:
            span = self.horizon - t
            if span < full_cap:
                full_cap = span
        if full_cap < drain.MIN_FF_TICKS:
            return None
        big_trace = self.big_trace
        offsets = self.offsets
        lengths = self.lengths
        pos = self.pos
        resident = self.resident

        def scan_runs(scan_cap):
            """Per-core hit-run lengths (capped) + completion flags."""
            runs: dict[int, int] = {}
            comp: dict[int, bool] = {}
            for i in live.tolist():
                start_pos = int(pos[i])
                length = int(lengths[i])
                off = int(offsets[i])
                j_max = start_pos + scan_cap
                if j_max > length:
                    j_max = length
                arr = big_trace[off + start_pos : off + j_max]
                res = resident[arr]
                m = len(arr) if res.all() else int(res.argmin())
                runs[i] = m
                comp[i] = start_pos + m >= length
            return runs, comp

        # Staged like the miss scan: a cheap capped pass decides most
        # failures; rescan at the full cap only when every non-completing
        # core's run was cut by the stage cap.
        stage_cap = _SCAN_STAGE_CAP if _SCAN_STAGE_CAP < full_cap else full_cap
        runs, comp = scan_runs(stage_cap)
        noncomp = [runs[i] for i in runs if not comp[i]]
        k = min(noncomp) if noncomp else max(runs.values())
        if noncomp and k == stage_cap < full_cap:
            runs, comp = scan_runs(full_cap)
            noncomp = [runs[i] for i in runs if not comp[i]]
            k = min(noncomp) if noncomp else max(runs.values())
        if k < drain.MIN_FF_TICKS:
            return None
        end = t + k

        # ---- read-only derivations (no state touched yet) ----------------
        request_tick = self.request_tick
        s = np.minimum(k, lengths[live] - pos[live])
        n = int(s.sum())
        starts = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(s, out=starts[1:])
        th_tm = np.repeat(live, s)  # thread-major serve events
        occ = np.arange(n, dtype=np.int64) - np.repeat(starts[:-1], s)
        ticks_tm = t + occ
        pages_tm = big_trace[offsets[th_tm] + pos[th_tm] + occ]
        w_tm = np.ones(n, dtype=np.int64)
        w_tm[starts[:-1]] = t - request_tick[live] + 1

        # Chronological (tick-major, core-id ascending within a tick —
        # live is sorted and the sort is stable, so within-tick order is
        # exactly the per-tick serve order).
        order = np.argsort(ticks_tm, kind="stable")
        th_c = th_tm[order]
        tk_c = ticks_tm[order]
        pages_c = pages_tm[order]
        w_c = w_tm[order]
        within = np.arange(n, dtype=np.int64) - np.searchsorted(tk_c, tk_c)
        stamps_c = tk_c * self.stamp_stride + within

        current = self.current
        probes = self.probes
        if probes and not drain.sampled(t, end, self.probe_stride):
            probes = ()
        if probes:
            entry_live = current >= 0
            probe_rt = request_tick.copy()

        # ---- commit -------------------------------------------------------
        # The policy goes first: it either replays every elided begin_tick
        # (remaps) or refuses, in which case nothing has been mutated yet
        # and the per-tick loop takes over for good.
        if not self.arb.skip_idle_ticks(t, end):
            self.state.hit_ok = False
            return None

        # Duplicate pages keep their *last* serve's stamp (numpy fancy
        # assignment applies in index order), matching per-tick re-touches.
        self.last_stamp[pages_c] = stamps_c
        self.served_threads.append(th_c)
        self.served_w.append(w_c)

        metrics = self.metrics
        completion_tick: dict[int, int] = {}
        cont_mask = np.empty(len(live), dtype=bool)
        for idx, i in enumerate(live.tolist()):
            si = int(s[idx])
            j = int(pos[i]) + si
            if j >= lengths[i]:
                ct = t + si
                metrics.record_completion(i, ct)
                done_count += 1
                if ct > makespan:
                    makespan = ct
                completion_tick[i] = t + si - 1
                current[i] = -1
                pos[i] = j - 1
                cont_mask[idx] = False
            else:
                cont_mask[idx] = True
        cont = live[cont_mask]
        if len(cont):
            pos[cont] += k
            current[cont] = big_trace[offsets[cont] + pos[cont]]
            request_tick[cont] = end

        if probes:
            from ..obs.probe import materialize_interval_samples

            materialize_interval_samples(
                probes,
                start=t,
                end=end,
                stride=self.probe_stride,
                channels=self.q,
                fetches0=fetches,
                evictions0=evictions,
                grants_per_tick=[0] * k,
                evicts_per_tick=[0] * k,
                queue_per_tick=[0] * k,
                resident_per_tick=[resident_count] * k,
                serve_threads=th_c.tolist(),
                serve_ticks=tk_c.tolist(),
                grant_threads=[],
                grant_ticks=[],
                request_tick=probe_rt,
                live=entry_live,
                completion_tick=completion_tick,
            )

        return (
            end,
            cont,
            0,
            fetches,
            evictions,
            done_count,
            makespan,
            resident_count,
        )


class FastSimulator:
    """Drop-in replacement for :class:`Simulator` on supported configs.

    Raises ``ValueError`` at construction when the configuration falls
    outside the fast path's scope; use :func:`simulate` to dispatch
    automatically.
    """

    def __init__(
        self,
        traces: Sequence[np.ndarray | Sequence[int]],
        config: SimulationConfig,
        attestation=None,
    ) -> None:
        """``attestation`` (an object with ``disjoint``/``min_page``/
        ``max_page``, e.g. :class:`repro.traces.base.PageAttestation`)
        vouches for the trace layout and skips the O(n log n) scan."""
        if len(traces) == 0:
            raise ValueError("workload must contain at least one trace")
        self.config = config
        self.traces = [
            np.ascontiguousarray(np.asarray(t, dtype=np.int64)) for t in traces
        ]
        if not _supports(config, self.traces, attestation):
            raise ValueError(
                "configuration outside the fast path (needs LRU, "
                "protect_pending, disjoint compact traces, no timeline); "
                "use repro.core.fastengine.simulate() to auto-fallback"
            )
        self.num_threads = len(self.traces)

    def run(self) -> SimulationResult:  # noqa: C901 - one hot loop by design
        start = time.perf_counter()
        cfg = self.config
        p = self.num_threads
        q = cfg.channels
        rng = np.random.default_rng(cfg.seed)
        arb = make_arbitration_policy(
            cfg.arbitration,
            p,
            remap_period=cfg.remap_period,
            rng=rng,
            dram_geometry=DramGeometry(cfg.dram_banks, cfg.dram_row_pages),
            blacklist_threshold=cfg.blacklist_threshold,
            blacklist_clear_interval=cfg.blacklist_clear_interval,
        )
        metrics = MetricsCollector(p, record_responses=cfg.record_responses)

        lengths = np.array([len(t) for t in self.traces], dtype=np.int64)
        offsets = np.zeros(p, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        big_trace = (
            np.concatenate([t for t in self.traces])
            if lengths.sum()
            else np.empty(0, dtype=np.int64)
        )

        universe = int(big_trace.max()) + 1 if len(big_trace) else 1
        resident = np.zeros(universe, dtype=bool)
        last_stamp = np.zeros(universe, dtype=np.int64)
        owner = np.zeros(universe, dtype=np.int64)
        for i, t in enumerate(self.traces):
            if len(t):
                owner[np.unique(t)] = i

        stamp_stride = p + q + 1
        heap: list[tuple[int, int]] = []

        pos = np.zeros(p, dtype=np.int64)
        current = np.full(p, -1, dtype=np.int64)
        request_tick = np.zeros(p, dtype=np.int64)
        alive = lengths > 0
        for i in np.flatnonzero(~alive):
            metrics.record_completion(int(i), 0)
        current[alive] = big_trace[offsets[alive]]
        ready = np.flatnonzero(alive).astype(np.int64)
        done_count = int((~alive).sum())

        # chronological serve buffers; per-thread histograms built at end
        served_threads: list[np.ndarray] = []
        served_w: list[np.ndarray] = []

        capacity = cfg.hbm_slots
        resident_count = 0
        queue_len = 0
        fetches = 0
        evictions = 0
        max_ticks = cfg.max_ticks

        arb_begin_tick = arb.begin_tick
        arb_enqueue = arb.enqueue
        arb_select = arb.select

        # Observability: identical sampling condition to the reference
        # engine, so probe series agree tick for tick; samples are built
        # from the dense arrays instead of per-core dicts.
        probes = cfg.probes
        probe_stride = cfg.probe_stride
        if probes:
            from ..obs.probe import ProbeSample

            for probe in probes:
                probe.on_run_start(p, cfg)

        def evict_one(tick_base: int) -> bool:
            """Pop the true LRU unprotected page; False if all protected."""
            nonlocal resident_count, evictions
            stash: list[tuple[int, int]] = []
            victim_found = False
            while heap:
                s, page = heapq.heappop(heap)
                if not resident[page]:
                    continue  # entry for an evicted (possibly refetched) page
                true_stamp = int(last_stamp[page])
                if s != true_stamp:
                    heapq.heappush(heap, (true_stamp, page))
                    continue
                if current[owner[page]] == page:
                    stash.append((s, page))
                    continue
                resident[page] = False
                resident_count -= 1
                evictions += 1
                victim_found = True
                break
            for entry in stash:
                heapq.heappush(heap, entry)
            return victim_found

        # Quiescent-interval fast-forward (repro.core.drain). The fast
        # path's scope (LRU + protect_pending + disjoint compact traces,
        # no timeline) already satisfies every exactness precondition,
        # so the only gates left are the process knob and the policy
        # cooperating with at least one prover (drain plans for
        # miss-bound stretches, idle-tick skipping for hit-bound ones).
        # Results are bit-identical either way.
        ff_eligible = drain.fast_forward_enabled()
        ff_next_try = 0
        ff_backoff = drain.BACKOFF_MIN
        ff_intervals = 0
        ff_elided = 0
        ff_wall = 0.0
        ff = _FastForward(
            arb=arb,
            p=p,
            q=q,
            capacity=capacity,
            big_trace=big_trace,
            offsets=offsets,
            lengths=lengths,
            pos=pos,
            current=current,
            request_tick=request_tick,
            resident=resident,
            last_stamp=last_stamp,
            heap=heap,
            stamp_stride=stamp_stride,
            metrics=metrics,
            served_threads=served_threads,
            served_w=served_w,
            probes=probes,
            probe_stride=probe_stride,
            horizon=(max_ticks + 1) if max_ticks is not None else drain.UNBOUNDED,
        )

        vt = vector_threshold()
        t = 0
        makespan = 0
        while done_count < p:
            arb_begin_tick(t)

            if ff_eligible and t >= ff_next_try:
                _ff_t0 = time.perf_counter()
                jump = ff.attempt(
                    t, ready, queue_len, fetches, evictions, done_count,
                    makespan, resident_count,
                )
                if jump is None:
                    if not ff.state.eligible:
                        ff_eligible = False
                    else:
                        ff_next_try = t + ff_backoff
                        ff_backoff = min(ff_backoff * 2, drain.BACKOFF_MAX)
                else:
                    ff_backoff = drain.BACKOFF_MIN
                    ff_intervals += 1
                    ff_elided += jump[0] - t
                    (t, ready, queue_len, fetches, evictions,
                     done_count, makespan, resident_count) = jump
                    ff_wall += time.perf_counter() - _ff_t0
                    if max_ticks is not None and t > max_ticks:
                        raise SimulationLimitError(
                            f"simulation exceeded max_ticks={max_ticks} "
                            f"({done_count}/{p} threads complete)"
                        )
                    continue
                ff_wall += time.perf_counter() - _ff_t0

            n_ready = len(ready)
            base = t * stamp_stride

            if n_ready >= vt:
                # ---- vector tick -------------------------------------
                pages = current[ready]
                flags = resident[pages]
                hit_threads = ready[flags]
                if not flags.all():
                    miss_threads = ready[~flags]
                    miss_pages = pages[~flags]
                    for i, pg in zip(miss_threads.tolist(), miss_pages.tolist()):
                        arb_enqueue(i, pg)
                    queue_len += len(miss_threads)

                will_fetch = queue_len if queue_len < q else q
                if will_fetch:
                    deficit = will_fetch - (capacity - resident_count)
                    while deficit > 0 and evict_one(base):
                        deficit -= 1
                    if deficit > 0:
                        will_fetch -= deficit

                if len(hit_threads):
                    hit_pages = pages[flags]
                    w = t - request_tick[hit_threads] + 1
                    served_threads.append(hit_threads.copy())
                    served_w.append(w)
                    last_stamp[hit_pages] = base + np.arange(len(hit_pages))
                    pos[hit_threads] += 1
                    done_mask = pos[hit_threads] >= lengths[hit_threads]
                    if done_mask.any():
                        finished = hit_threads[done_mask]
                        for i in finished.tolist():
                            metrics.record_completion(i, t + 1)
                        done_count += len(finished)
                        makespan = t + 1
                        current[finished] = -1
                        cont = hit_threads[~done_mask]
                    else:
                        cont = hit_threads
                    current[cont] = big_trace[offsets[cont] + pos[cont]]
                    request_tick[cont] = t + 1
                else:
                    cont = hit_threads  # empty

                if will_fetch:
                    granted = arb_select(will_fetch)
                    for g, i in enumerate(granted):
                        page = int(current[i])
                        resident[page] = True
                        resident_count += 1
                        stamp = base + p + g
                        last_stamp[page] = stamp
                        heapq.heappush(heap, (stamp, page))
                        fetches += 1
                    queue_len -= len(granted)
                    new_ready = np.concatenate(
                        [cont, np.asarray(granted, dtype=np.int64)]
                    )
                    new_ready.sort()
                    ready = new_ready
                else:
                    ready = cont
            else:
                # ---- scalar tick (same semantics, python loop) -------
                hits: list[int] = []
                serve_order = 0
                for i in ready.tolist():
                    page = int(current[i])
                    if resident[page]:
                        hits.append(i)
                    else:
                        arb_enqueue(i, page)
                        queue_len += 1

                will_fetch = queue_len if queue_len < q else q
                if will_fetch:
                    deficit = will_fetch - (capacity - resident_count)
                    while deficit > 0 and evict_one(base):
                        deficit -= 1
                    if deficit > 0:
                        will_fetch -= deficit

                cont_list: list[int] = []
                if hits:
                    hit_w = np.empty(len(hits), dtype=np.int64)
                    for i in hits:
                        page = int(current[i])
                        last_stamp[page] = base + serve_order
                        hit_w[serve_order] = t - int(request_tick[i]) + 1
                        serve_order += 1
                        j = int(pos[i]) + 1
                        if j >= lengths[i]:
                            metrics.record_completion(i, t + 1)
                            done_count += 1
                            makespan = t + 1
                            current[i] = -1
                        else:
                            pos[i] = j
                            current[i] = big_trace[offsets[i] + j]
                            request_tick[i] = t + 1
                            cont_list.append(i)
                    served_threads.append(np.asarray(hits, dtype=np.int64))
                    served_w.append(hit_w)

                if will_fetch:
                    granted = arb_select(will_fetch)
                    for g, i in enumerate(granted):
                        page = int(current[i])
                        resident[page] = True
                        resident_count += 1
                        stamp = base + p + g
                        last_stamp[page] = stamp
                        heapq.heappush(heap, (stamp, page))
                        fetches += 1
                    queue_len -= len(granted)
                    cont_list.extend(granted)
                    cont_list.sort()
                ready = np.asarray(cont_list, dtype=np.int64)

            if probes and t % probe_stride == 0:
                ready_mask = np.zeros(p, dtype=bool)
                ready_mask[ready] = True
                blocked = (current >= 0) & ~ready_mask
                stall_age = np.where(
                    blocked, t + 1 - request_tick, 0
                ).astype(np.int64)
                sample = ProbeSample(
                    tick=t,
                    hbm_occupancy=resident_count,
                    queue_depth=queue_len,
                    ready_threads=len(ready),
                    channels_busy=len(granted) if will_fetch else 0,
                    channels_total=q,
                    fetches=fetches,
                    evictions=evictions,
                    blocked=blocked,
                    stall_age=stall_age,
                )
                for probe in probes:
                    probe.on_sample(sample)
            t += 1
            if max_ticks is not None and t > max_ticks:
                raise SimulationLimitError(
                    f"simulation exceeded max_ticks={max_ticks} "
                    f"({done_count}/{p} threads complete)"
                )

        # ---- aggregate the chronological serve log into histograms ----
        metrics.fetches = fetches
        metrics.evictions = evictions
        if served_threads:
            all_threads = np.concatenate(served_threads)
            all_w = np.concatenate(served_w)
            max_w = int(all_w.max())
            keys = all_threads * (max_w + 1) + all_w
            unique_keys, counts = np.unique(keys, return_counts=True)
            for key, count in zip(unique_keys.tolist(), counts.tolist()):
                thread, w = divmod(key, max_w + 1)
                hist = metrics.histograms[thread]
                hist[w] = hist.get(w, 0) + count
            if metrics.response_logs is not None:
                # A core is served at most once per tick, so slicing the
                # chronological log by thread yields each thread's
                # responses in exactly the reference engine's append
                # order (tick order, one entry per serve).
                order = np.argsort(all_threads, kind="stable")
                sorted_w = all_w[order]
                bounds = np.searchsorted(
                    all_threads[order], np.arange(p + 1)
                )
                for i in range(p):
                    metrics.response_logs[i] = sorted_w[bounds[i] : bounds[i + 1]]
        remap_count = getattr(arb, "remap_count", 0)
        if ff_wall:
            _record_ff_phase(ff_wall)
        drain.record_ff_engagement(cfg.arbitration, ff.state)
        result = metrics.finalize(
            makespan=makespan,
            ticks=t,
            remap_count=remap_count,
            config=cfg,
            wall_time_s=time.perf_counter() - start,
            ff_intervals=ff_intervals,
            ff_elided_ticks=ff_elided,
        )
        for probe in probes:
            probe.on_run_end(result)
        return result


def _normalize_traces(traces):
    """(arrays, attestation-or-None) for a Workload or raw sequence."""
    attestation = getattr(traces, "attestation", None)
    if attestation is not None:
        return traces.traces, attestation
    arrays = [
        np.ascontiguousarray(np.asarray(t, dtype=np.int64)) for t in traces
    ]
    return arrays, None


def _resolve(arrays, attestation, config: SimulationConfig, engine: str | None):
    """Pick the engine for these inputs: ('fast'|'reference', attestation).

    ``"auto"`` always runs the reference engine: at the widths every
    registry experiment simulates it is the faster one (see the module
    docstring). Only an explicit ``"fast"`` runs :class:`FastSimulator`.
    """
    if engine is None:
        engine = _default_engine
    if engine not in ENGINE_CHOICES:
        raise ValueError(f"engine must be one of {ENGINE_CHOICES}, got {engine!r}")
    if engine != "fast":
        return "reference", attestation
    if _config_supported(config) and len(arrays):
        if attestation is None:
            attestation = _attest_arrays(arrays)
        if _attestation_ok(attestation):
            return "fast", attestation
    raise ValueError(
        "engine='fast' requested but the configuration is outside the "
        "fast path (needs LRU, protect_pending, disjoint compact "
        "traces, no timeline)"
    )


def resolve_engine(
    traces, config: SimulationConfig, engine: str | None = None
) -> str:
    """The engine :func:`simulate` would use: ``"fast"`` or ``"reference"``.

    Raises exactly when :func:`simulate` would (unknown engine name, or
    ``engine="fast"`` on an ineligible configuration). Used by run
    manifests to record the engine that actually executes.
    """
    arrays, attestation = _normalize_traces(traces)
    return _resolve(arrays, attestation, config, engine)[0]


def _record_ff_phase(seconds: float) -> None:
    """Observe accumulated fast-forward attempt/apply wall time (no-op
    without an active campaign registry; import deferred to keep the
    core engines free of an obs dependency at import time)."""
    from ..obs.metrics import record_phase

    record_phase("fast_forward", seconds)


def _record_run_metrics(engine_name: str, result: SimulationResult) -> None:
    """Engine-level campaign metrics for one finished run.

    Called by :func:`simulate` after either engine runs, so both are
    sampled identically. A single ``is None`` check when no registry is
    active.
    """
    from ..obs.metrics import active_registry, record_phase

    registry = active_registry()
    if registry is None:
        return
    record_phase("simulate", result.wall_time_s)
    registry.counter(
        "repro_engine_runs_total", "simulation runs by engine"
    ).inc(1, engine=engine_name)
    if result.ff_intervals:
        registry.counter(
            "repro_ff_intervals_total", "quiescent intervals fast-forwarded"
        ).inc(result.ff_intervals)
        registry.counter(
            "repro_ff_elided_ticks_total",
            "simulated ticks elided by fast-forward",
        ).inc(result.ff_elided_ticks)


def simulate(
    traces,
    config: SimulationConfig,
    engine: str | None = None,
    manifest_path=None,
) -> SimulationResult:
    """Run one simulation on the chosen engine.

    Parameters
    ----------
    traces:
        A :class:`repro.traces.Workload` (preferred — its build-time
        :class:`~repro.traces.base.PageAttestation` makes the
        disjointness check O(1)) or a sequence of per-core page arrays
        (scanned on every call that needs the answer).
    config:
        Model and policy parameters.
    engine:
        ``"auto"`` and ``"reference"`` run the reference engine;
        ``"fast"`` runs the vectorized engine (raising ``ValueError``
        when the configuration is outside its scope). ``None`` uses the
        process default (:func:`set_default_engine`).
    manifest_path:
        When given, write a :class:`repro.obs.RunManifest` JSON there
        after the run: config, workload identity, resolved engine,
        semantics version, host info, and a wall-time breakdown.
    """
    t0 = time.perf_counter()
    arrays, attestation = _normalize_traces(traces)
    chosen, attestation = _resolve(arrays, attestation, config, engine)
    dispatch_s = time.perf_counter() - t0
    if chosen == "fast":
        result = FastSimulator(arrays, config, attestation=attestation).run()
    else:
        result = Simulator(arrays, config, attestation=attestation).run()
    _record_run_metrics(chosen, result)
    if manifest_path is not None:
        from ..obs.manifest import RunManifest

        RunManifest.build(
            config=config,
            engine=chosen,
            traces=traces,
            timings={
                "dispatch_s": dispatch_s,
                "run_s": result.wall_time_s,
                "total_s": time.perf_counter() - t0,
            },
            result=result,
        ).write(manifest_path)
    return result
