"""Quiescent-interval fast-forward: the exact FIFO drain both engines elide.

Miss-bound stretches dominate the paper's FIFO-collapse workloads: every
live core is blocked on DRAM and the far channels drain the request
queue at ``q`` grants per tick. A tick-level simulator spends O(p) work
per tick re-discovering that nothing changed; this module computes such
a drain in closed form so the engines can jump the clock.

The drain is *exact*, not approximate, because a miss-bound interval is
deterministic once three facts are pinned down at its entry tick:

1. **Guaranteed-miss windows.** For each live core, scan its upcoming
   references and count the prefix where every reference (a) was not
   resident at interval entry and (b) does not repeat an earlier
   reference of the same window. Disjoint traces (the model's
   Property 1, which callers must guarantee) mean no other core can
   fetch or re-fetch these pages, and evictions never make a page
   resident, so each window reference is certainly a miss when its
   turn comes. The interval leaves every core at least one window
   grant short of its end, so no uncertain reference is ever
   classified inside it.
2. **The FIFO pipeline steady state.** Under ``protect_pending`` a
   granted page is served one tick later and the core re-enqueues one
   tick after that. With ``k`` live cores, ``k`` a multiple of ``q``
   and ``k >= 2q``, the queue never runs dry and the grant stream is
   closed-form: the entry order ``P`` (queue snapshot, then this
   tick's misses, then this tick's hits re-enqueuing next tick),
   followed by tiles of ``P``'s ``q``-chunks each sorted by core id.
   Grant ``j`` lands on tick ``start + j // q``.
3. **Eviction feasibility.** Per tick, the victims needed
   (``deficit``) must come from resident pages that are not protected;
   the protected-and-resident pages at a tick are exactly last tick's
   grants (plus the entry hits at the entry tick). The interval is
   trimmed to whole rounds before the first tick this fails.

Only FIFO's grant order is such a stream (its
:meth:`~repro.core.arbitration.ArbitrationPolicy.drain_plan` is the
only built-in one). Every other policy declines the miss window once
per run, because replaying its grant order tick by tick costs more per
elided tick than stepping the tick (docs/PERFORMANCE.md); the
guaranteed-hit prover in the engines still covers all of them.

Probe samples falling inside a skipped interval are reconstructed
tick-for-tick by :func:`repro.obs.probe.materialize_interval_samples`
from the schedule's per-tick histories, so probe series are
bit-identical to the per-tick engines' output.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .arbitration import DrainPlan

__all__ = [
    "MIN_FF_TICKS",
    "WINDOW_CAP",
    "BACKOFF_MIN",
    "BACKOFF_MAX",
    "UNBOUNDED",
    "fast_forward_enabled",
    "set_fast_forward",
    "traces_disjoint",
    "DrainSchedule",
    "FFState",
    "plan_drain",
    "max_rounds",
    "record_ff_engagement",
    "response_times",
    "sampled",
]

#: shortest interval worth committing; below this the fixed cost of
#: building and applying a schedule exceeds the per-tick loop it saves.
MIN_FF_TICKS = 8

#: per-core guaranteed-miss scan bound per attempt. Purely a work
#: limiter: a window cut short by the cap behaves like any other
#: uncertain reference (the interval ends before it is classified) and
#: the next attempt continues from the new position.
WINDOW_CAP = 4096

#: failed-attempt backoff (ticks), doubling from MIN to MAX. A failed
#: attempt costs one window scan, so retrying every tick would negate
#: the win on hit-bound phases.
BACKOFF_MIN = 64
BACKOFF_MAX = 4096

#: horizon stand-in when max_ticks does not bound the run
UNBOUNDED = 1 << 62

_ff_override: bool | None = None


def fast_forward_enabled() -> bool:
    """Whether engines may attempt interval fast-forwarding.

    Resolution order: :func:`set_fast_forward` override, then the
    ``REPRO_FAST_FORWARD`` environment variable, then on. Results are
    bit-identical either way; the knob exists for benchmarking and for
    differential tests that pin the per-tick path.
    """
    if _ff_override is not None:
        return _ff_override
    env = os.environ.get("REPRO_FAST_FORWARD")
    if env is not None:
        return env.strip().lower() not in ("0", "false", "off", "no", "")
    return True


def set_fast_forward(enabled: bool | None) -> bool | None:
    """Force fast-forward on/off process-wide; returns the previous override.

    ``None`` removes the override, restoring env-var/default resolution.
    """
    global _ff_override
    previous = _ff_override
    _ff_override = None if enabled is None else bool(enabled)
    return previous


class FFState:
    """Per-run fast-forward engagement bookkeeping.

    Tracks, separately for the guaranteed-miss and guaranteed-hit
    provers, how many attempts were made and how many committed an
    interval, plus whether each prover is still worth attempting
    (``plan_ok`` flips off when the policy declines to produce a drain
    plan, i.e. for every policy but FIFO after its first miss attempt;
    ``hit_ok`` when it cannot skip idle ticks — both permanent for the
    run). :func:`record_ff_engagement` exports the totals as
    per-policy counters.
    """

    __slots__ = (
        "plan_ok",
        "hit_ok",
        "attempts_miss",
        "commits_miss",
        "attempts_hit",
        "commits_hit",
    )

    def __init__(self) -> None:
        self.plan_ok = True
        self.hit_ok = True
        self.attempts_miss = 0
        self.commits_miss = 0
        self.attempts_hit = 0
        self.commits_hit = 0

    @property
    def eligible(self) -> bool:
        """False once neither prover can ever engage again this run."""
        return self.plan_ok or self.hit_ok


def record_ff_engagement(policy_name: str, state: FFState) -> None:
    """Export a run's FF attempt/decline totals to the metrics registry.

    ``repro_ff_plan_attempts{policy=,window=hit|miss}`` counts prover
    attempts; ``repro_ff_plan_declines`` counts the attempts that did
    not commit an interval (plan refused, window too short, or plan
    infeasible). No-op when no metrics registry is active.
    """
    from ..obs.metrics import active_registry

    registry = active_registry()
    if registry is None:
        return
    attempts = registry.counter(
        "repro_ff_plan_attempts",
        "fast-forward prover attempts by policy and window kind",
    )
    declines = registry.counter(
        "repro_ff_plan_declines",
        "fast-forward prover attempts that did not commit an interval",
    )
    for window, n_attempts, n_commits in (
        ("miss", state.attempts_miss, state.commits_miss),
        ("hit", state.attempts_hit, state.commits_hit),
    ):
        if n_attempts:
            attempts.inc(n_attempts, policy=policy_name, window=window)
        dropped = n_attempts - n_commits
        if dropped:
            declines.inc(dropped, policy=policy_name, window=window)


def sampled(start: int, end: int, stride: int) -> bool:
    """Does a probe sample tick (a multiple of ``stride``) fall in
    ``[start, end)``? An elided interval without one owes no samples,
    so the engines skip reconstructing its histories."""
    return -(-start // stride) * stride < end


def traces_disjoint(traces: list[np.ndarray]) -> bool:
    """Do the per-core traces touch pairwise-disjoint page sets?

    The reference engine tolerates shared pages, but the fast-forward's
    guaranteed-miss windows do not (another core could fetch a window
    page mid-interval), so it gates on this check.
    """
    non_empty = [t for t in traces if len(t)]
    if len(non_empty) <= 1:
        return True
    per_thread = sum(len(np.unique(t)) for t in non_empty)
    total = len(np.unique(np.concatenate(non_empty)))
    return per_thread == total


class DrainSchedule:
    """The exact outcome of one fast-forwarded interval ``[start, end)``.

    A FIFO steady-state drain is fully described by its entry hits,
    its entry order ``order`` (``k`` cores), the chunk-sorted round
    order ``round1`` and the number of whole rounds: every grant and
    serve event, and every per-tick history, derives from these. The
    event arrays are built on demand, so a commit without probes pays
    only for what it reads.

    Serve events are tick-major with core ids ascending within a tick
    (the paper's "for each r*_i" serve order); grant events are in the
    FIFO grant order. The per-tick histories carry end-of-tick values,
    exactly what a probe sampled on that tick reads.
    """

    __slots__ = (
        "start",
        "end",
        "channels",
        "capacity",
        "resident0",
        "h_threads",
        "order",
        "round1",
        "rounds",
        "first_queue_len",
        "final_queue_len",
        "total_evictions",
    )

    def __init__(
        self,
        start: int,
        channels: int,
        capacity: int,
        resident0: int,
        h_threads: list[int],
        order: list[int],
        rounds: int,
        first_queue_len: int,
    ) -> None:
        q = channels
        k = len(order)
        self.start = start
        self.end = start + rounds * k // q
        self.channels = q
        self.capacity = capacity
        self.resident0 = resident0
        self.h_threads = h_threads
        self.order = np.asarray(order, dtype=np.int64)
        round1 = self.order.reshape(-1, q).copy()
        round1.sort(axis=1)
        self.round1 = round1.ravel()
        self.rounds = rounds
        self.first_queue_len = first_queue_len
        self.final_queue_len = k - 2 * q
        # every fetch beyond the free slots evicts one page
        overflow = resident0 + self.grants - capacity
        self.total_evictions = overflow if overflow > 0 else 0

    @property
    def grants(self) -> int:
        """Channel grants (= fetches) inside the interval."""
        return (self.end - self.start) * self.channels

    @property
    def period(self) -> int:
        """Ticks per round: a core's consecutive grants are this far apart."""
        return len(self.order) // self.channels

    def grant_serves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cores, first, count)`` per core of the entry order: the tick
        its first grant is served on and how many of its grants are
        served inside the interval, one every :attr:`period` ticks.

        A core's grant lands on the same chunk of every round, so its
        serves are periodic; the last chunk's final grant is served only
        after the jump. Every core keeps at least one window grant, so
        none completes inside the interval.
        """
        chunk = np.arange(len(self.order), dtype=np.int64) // self.channels
        count = np.full(len(self.order), self.rounds, dtype=np.int64)
        count[chunk == self.period - 1] -= 1
        return self.order, self.start + 1 + chunk, count

    def inflight(self) -> np.ndarray:
        """Cores granted on the last tick: fetched, served after the jump."""
        return self.round1[-self.channels :]

    def serve_events(self) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(threads, ticks)`` of every serve in the interval.

        The entry hits serve at ``start``; round ``r``'s grants serve one
        tick after they are granted. The last tick's grants serve at
        ``end`` and so fall outside.
        """
        q = self.channels
        tiles = np.tile(self.round1, self.rounds)[:-q]
        threads = np.concatenate(
            [np.asarray(self.h_threads, dtype=np.int64), tiles]
        )
        ticks = np.concatenate(
            [
                np.full(len(self.h_threads), self.start, dtype=np.int64),
                np.repeat(np.arange(self.start + 1, self.end, dtype=np.int64), q),
            ]
        )
        return threads, ticks

    def fetched_events(
        self, first: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(threads, rounds, events)`` of the interval's served fetches
        from the ``first``-th on, in serve order (the order they enter
        the LRU).

        Fetch ``e`` is tile position ``e``: core ``round1[e % k]``'s
        ``e // k``-th grant of the interval, served on tick
        ``start + 1 + e // q`` at within-tick position ``e % q``.
        Fetches before ``first`` are evicted again inside the interval,
        so callers derive pages only for the survivors. The last tick's
        grants are not served inside the interval: see :meth:`inflight`.
        """
        k = len(self.round1)
        e = np.arange(first, self.grants - self.channels, dtype=np.int64)
        return self.round1[e % k], e // k, e

    def grant_events(self) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(threads, ticks)`` of every grant."""
        threads = np.concatenate(
            [self.order, np.tile(self.round1, self.rounds - 1)]
        )
        ticks = np.repeat(
            np.arange(self.start, self.end, dtype=np.int64), self.channels
        )
        return threads, ticks

    def probe_histories(self) -> dict[str, list[int]]:
        """Per-tick grant/eviction/queue/residency histories plus the
        event lists, as keyword arguments of
        :func:`repro.obs.probe.materialize_interval_samples`."""
        ticks = self.end - self.start
        q = self.channels
        queue = [self.final_queue_len] * ticks
        queue[0] = self.first_queue_len
        wanted = self.resident0 + q * np.arange(ticks + 1, dtype=np.int64)
        resident = np.minimum(wanted, self.capacity)
        serve_threads, serve_ticks = self.serve_events()
        grant_threads, grant_ticks = self.grant_events()
        return {
            "grants_per_tick": [q] * ticks,
            "evicts_per_tick": (q - np.diff(resident)).tolist(),
            "queue_per_tick": queue,
            "resident_per_tick": resident[1:].tolist(),
            "serve_threads": serve_threads.tolist(),
            "serve_ticks": serve_ticks.tolist(),
            "grant_threads": grant_threads.tolist(),
            "grant_ticks": grant_ticks.tolist(),
        }


def response_times(
    firsts: np.ndarray, counts: np.ndarray, request_ticks: np.ndarray, period: int
) -> np.ndarray:
    """Response times of periodic serves, thread-major.

    Core ``j`` is served ``counts[j]`` times: first on tick ``firsts[j]``,
    then every ``period`` ticks (:meth:`DrainSchedule.grant_serves`).
    Its first serve answers the request pending since
    ``request_ticks[j]`` and waits ``firsts[j] - request_ticks[j] + 1``;
    each later serve answers the request issued right after the
    previous one and waits exactly one period. The waits come back
    grouped per core in input order, each core's chronologically.
    """
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    w = np.full(int(counts.sum()), period, dtype=np.int64)
    served = counts > 0
    w[starts[served]] = (firsts - request_ticks + 1)[served]
    return w


def max_rounds(channels: int, cores: int, start: int, horizon: int) -> int:
    """Most whole rounds a steady-state drain of ``cores`` live cores
    (queued plus ready) entered at ``start`` could cover; 0 when none.

    Engines call this before scanning windows: 0 means no window can
    make the attempt succeed, and a positive value bounds how far the
    scan must look (a core needs at most ``rounds + 2`` window
    references for its window not to be the binding limit).
    """
    q = channels
    if cores < 2 * q or cores % q:
        return 0
    rounds = ((horizon - 2 - start) * q) // cores
    if rounds < 2 or rounds * cores // q < MIN_FF_TICKS:
        return 0
    return rounds


def plan_drain(
    plan: "DrainPlan",
    *,
    start: int,
    channels: int,
    capacity: int,
    resident0: int,
    h_threads: list[int],
    b_threads: list[int],
    grant_avail: dict[int, int],
    completes: dict[int, bool],
) -> DrainSchedule | None:
    """The FIFO steady-state drain entered at ``start``, or ``None``.

    ``h_threads`` / ``b_threads`` are the entry tick's ready cores whose
    current reference is resident / missing (both sorted by core id);
    cores already queued at entry are ``plan.snapshot()``.
    ``grant_avail`` maps every live core to the number of grants its
    guaranteed-miss window allows; ``completes`` flags cores whose
    window reaches the end of their trace.

    Entry hits serve at ``start`` and re-enqueue one tick later; an
    entry hit with no window grant left finishes there if it completes
    and otherwise ends the interval before it starts. The drain covers
    whole rounds (one grant per core each), leaves every core at least
    one window grant, stops two ticks short of ``plan.horizon`` and
    before the first tick whose eviction would need a protected page.
    Returns ``None`` when that is fewer than two rounds or
    :data:`MIN_FF_TICKS` ticks, or the pipeline is not in its steady
    state (fewer than ``2q`` cores, a core count that is not a multiple
    of ``q``, or fewer than ``q`` requests grantable on the entry tick).
    On success the plan holds the post-interval queue, ready for
    :meth:`~repro.core.arbitration.DrainPlan.commit`.
    """
    q = channels
    order = plan.snapshot()
    grantable = len(order) + len(b_threads)
    order.extend(b_threads)
    for i in h_threads:
        if grant_avail[i] > 0:
            order.append(i)
        elif not completes[i]:
            return None  # its next reference is uncertain at start + 1
    k = len(order)
    if k < 2 * q or k % q or grantable < q:
        return None
    rounds = min(grant_avail[i] for i in order) - 1
    cap = ((plan.horizon - 2 - start) * q) // k
    if cap < rounds:
        rounds = cap
    # Eviction feasibility in closed form. Ticks before the HBM fills
    # evict nothing; from the first tick whose fetches exceed the free
    # slots on, each tick evicts what it cannot fit, and that is
    # feasible exactly when capacity >= q + protected (protected = the
    # entry hits on the entry tick, last tick's q grants afterwards).
    first_full = (capacity - resident0) // q
    if first_full == 0 and capacity < q + len(h_threads):
        bad = 0
    elif capacity < 2 * q:
        bad = first_full if first_full > 1 else 1
    else:
        bad = None
    if bad is not None and bad * q < rounds * k:
        rounds = (bad * q) // k  # whole rounds strictly before tick `bad`
    if rounds < 2 or rounds * k // q < MIN_FF_TICKS:
        return None

    # After the interval the queue holds the next k - 2q stream
    # positions; the two chunks granted on its last two ticks are in
    # flight and re-enter through the engine's ready set.
    sched = DrainSchedule(
        start, q, capacity, resident0, h_threads, order, rounds, grantable - q
    )
    plan.replace(sched.round1[: k - 2 * q].tolist())
    return sched
