"""Former batched lockstep engine, reduced to its public names.

Lockstep batching lost to per-job dispatch on every registry
experiment, so the engine and the sweep paths that fed it are gone:
every job runs alone through :func:`repro.core.fastengine.simulate`.
This module keeps only the four names the end-to-end benchmark in
``perfbench/`` still imports, with behaviour that batches nothing. It
is kept only until a benchmark change drops these imports.
"""

from __future__ import annotations

from typing import Any, Sequence

from .config import SimulationConfig
from .fastengine import simulate

__all__ = [
    "batch_limit",
    "batch_supported",
    "set_batch_limit",
    "simulate_batch",
]

_batch_limit_override: int | None = None


def batch_limit() -> int:
    """Always 1: no job shares a lockstep state any more."""
    return 1


def set_batch_limit(n: int | None) -> int | None:
    """Record a lane-cap override; returns the previous one.

    The value no longer changes dispatch (:func:`batch_limit` stays 1),
    but the validation and the return-previous contract are kept.
    """
    global _batch_limit_override
    if n is not None and n < 0:
        raise ValueError(f"batch limit must be >= 0, got {n}")
    previous = _batch_limit_override
    _batch_limit_override = None if n is None else int(n)
    return previous


def batch_supported(config: SimulationConfig, attestation: Any = None) -> bool:
    """Always ``False``: no configuration runs as a batch lane."""
    return False


def simulate_batch(
    items: Sequence[tuple[Any, SimulationConfig]],
    engine: str | None = None,
    return_exceptions: bool = False,
) -> list[Any]:
    """``simulate(traces, config, engine=engine)`` for each item, in order.

    With ``return_exceptions=True`` a failing item's exception is
    returned in its slot instead of raised, so the other items' results
    are kept.
    """
    results: list[Any] = []
    for traces, config in items:
        try:
            results.append(simulate(traces, config, engine=engine))
        except Exception as exc:
            if not return_exceptions:
                raise
            results.append(exc)
    return results
