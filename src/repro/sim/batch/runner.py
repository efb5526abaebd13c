"""Run one batch group through the canonical pipeline, fused.

:func:`run_group` evaluates the points of one trace-key group with a
single :class:`~repro.runtime.session.RunSession` whose ``replayer``
seam is bound to the fused lockstep kernel: the first point acquires the
compiled trace (trace-cache hit or capture) and decodes the replay
columns once; every point — including the first — then replays over
those shared columns via :class:`~repro.sim.batch.engine.BatchedReplay`.
Because the runner goes *through* the session, trace-cache accounting,
observers, and the dynamic-app capture path behave exactly as they do
per-point; only the engine/memory interpreter overhead changes.

Failure isolation matches the sweep executor's: a point that raises
yields an error item, and the rest of the group completes.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import repro.native as native

from ...core.config import MachineConfig
from ...memory import make_memory_system
from ...runtime.plan import RunRequest
from ...runtime.session import RunSession
from .engine import BatchedReplay

if TYPE_CHECKING:  # pragma: no cover
    from ...core.metrics import RunResult
    from ...runtime.hooks import RunObserver
    from ..compiled import TraceCache

__all__ = ["BatchItem", "BatchStats", "run_group"]


def _aux_decoder_name() -> str:
    """``"numpy"`` or ``"python"`` — the column decoder in effect."""
    from .columns import HAVE_NUMPY
    return "numpy" if HAVE_NUMPY else "python"


@dataclass
class BatchItem:
    """Per-point outcome of a group run (exactly one of result/error)."""

    result: "RunResult | None" = None
    error: str | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchStats:
    """Batch counters, accumulated across sweeps by the executor/daemon.

    ``batched_points`` ran inside a group; ``fallthrough_points`` were
    planned out of batching (Barnes, task-queue apps, lone trace keys)
    and took the per-point path; ``native_points`` / ``fused_points`` /
    ``fallback_points`` split the batched ones by which kernel served
    them — the C column interpreter, the pure-python fused kernel, or
    the canonical replay (fallback = unfusible memory system) — all
    three byte-identical.  ``kernel`` / ``aux_decoder`` snapshot the
    selections in effect when the stats object was created: which replay
    kernel a point would get and whether the numpy or pure-python aux
    decoder counts the columns.
    """

    groups: int = 0
    batched_points: int = 0
    fallthrough_points: int = 0
    native_points: int = 0
    fused_points: int = 0
    fallback_points: int = 0
    kernel: str = field(default_factory=native.kernel_name)
    aux_decoder: str = field(default_factory=lambda: _aux_decoder_name())

    def observe_plan(self, plan) -> None:
        self.groups += len(plan.groups)
        self.batched_points += plan.batched_points
        self.fallthrough_points += len(plan.singles)

    def points_per_group(self) -> float:
        return self.batched_points / self.groups if self.groups else 0.0

    def to_dict(self) -> dict:
        return {"groups": self.groups,
                "batched_points": self.batched_points,
                "fallthrough_points": self.fallthrough_points,
                "native_points": self.native_points,
                "fused_points": self.fused_points,
                "fallback_points": self.fallback_points,
                "kernel": self.kernel,
                "aux_decoder": self.aux_decoder,
                "points_per_group": round(self.points_per_group(), 3)}


def _make_replayer(stats: BatchStats | None):
    """A :class:`RunSession` ``replayer`` bound to the fused kernel.

    Builds the memory system the config's protocol selects (the same
    construction :meth:`Application.run` performs) and replays through
    :class:`BatchedReplay`, which decodes the program's columns once and
    picks fused vs canonical per memory system — non-directory protocols
    land on the canonical replay and count as ``fallback_points``.
    """
    state: dict = {}

    def replayer(config, app, program):
        batch = state.get("batch")
        if batch is None or batch.program is not program:
            batch = BatchedReplay(program)
            state["batch"] = batch
        memory = make_memory_system(config, app.allocator)
        before_native = batch.points_native
        before_fused = batch.points_fused
        result = batch.run(config, memory)
        if stats is not None:
            if batch.points_native > before_native:
                stats.native_points += 1
            elif batch.points_fused > before_fused:
                stats.fused_points += 1
            else:
                stats.fallback_points += 1
        return result

    return replayer


def run_group(specs: Sequence[RunRequest],
              base_config: MachineConfig | None = None,
              trace_cache: "TraceCache | None" = None,
              observer: "RunObserver | None" = None,
              stats: BatchStats | None = None) -> list[BatchItem]:
    """Evaluate one trace-key group; items come back in input order."""
    session = RunSession(base_config=base_config, trace_cache=trace_cache,
                         use_compiled=True, observer=observer,
                         replayer=_make_replayer(stats))
    items: list[BatchItem] = []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            result = session.run(spec)
        except Exception:
            items.append(BatchItem(error=traceback.format_exc()))
        else:
            items.append(BatchItem(result=result,
                                   elapsed=time.perf_counter() - t0))
    return items
