"""BatchPlanner: group sweep points that can share one trace decode.

Two points belong to the same batch group exactly when they replay the
same compiled trace — i.e. their :func:`~repro.sim.compiled.trace_key`\\ s
match.  For stream-invariant applications the key deliberately excludes
cluster size, cache size, and network model, so a whole cluster/cache
grid over one (app, kwargs, seed, processor-count, line-size) problem
collapses into a single group.  Two kinds of application are never
grouped here, and each of their points falls through to the canonical
per-point path: Barnes (``stream_invariant=False``), which keys on the
*full* configuration because its stream is decided by the run itself,
and the task-queue codes (``task_queue``), whose task tables the fused
kernel does not replay.

The planner only *plans* — it builds application instances (cheap
constructor, no setup) to learn each point's seed and stream invariance,
and never touches the trace cache or runs anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ...core.config import MachineConfig
from ...runtime.plan import RunRequest

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["BatchGroup", "BatchPlan", "BatchPlanner"]


@dataclass(frozen=True)
class BatchGroup:
    """One trace-key group: positions (into the planned spec list) that
    replay the same compiled trace."""

    key: str
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class BatchPlan:
    """What the planner decided for one sweep.

    ``groups`` hold the batched points; ``singles`` are the fallthrough
    positions (Barnes and the task-queue apps, or trace keys with fewer
    points than ``min_group``) that the executor evaluates per-point,
    exactly as it would without batching.
    """

    groups: list[BatchGroup] = field(default_factory=list)
    singles: list[int] = field(default_factory=list)

    @property
    def batched_points(self) -> int:
        return sum(len(g) for g in self.groups)


@dataclass
class BatchPlanner:
    """Groups :class:`~repro.runtime.plan.RunRequest`\\ s by trace key.

    ``min_group`` (default 2) is the smallest group worth batching: a
    lone point gains nothing from sharing a decode with itself, so it
    falls through and keeps the per-point path's exact behaviour —
    including its per-point timeout/error handling.
    """

    min_group: int = 2

    def plan(self, specs: Sequence[RunRequest],
             base_config: MachineConfig | None = None) -> BatchPlan:
        """Partition ``specs`` into batch groups and fallthrough singles.

        Returned indices are positions into ``specs``; every position
        appears exactly once across ``groups`` + ``singles``.
        """
        from ...apps.registry import build_app
        from ..compiled import trace_key

        base = base_config if base_config is not None else MachineConfig()
        by_key: dict[str, list[int]] = {}
        singles: list[int] = []
        for i, spec in enumerate(specs):
            try:
                config = spec.config_for(base)
                app = build_app(spec.app, config, **spec.kwargs)
            except Exception:
                # un-plannable (unknown app, bad kwargs): fall through so
                # the per-point path reports its canonical error outcome
                singles.append(i)
                continue
            if not app.stream_invariant or app.task_queue:
                singles.append(i)
                continue
            key = trace_key(spec.app, spec.kwargs, config, app.seed,
                            stream_invariant=True)
            by_key.setdefault(key, []).append(i)

        plan = BatchPlan()
        for key, indices in by_key.items():
            if len(indices) >= max(self.min_group, 1):
                plan.groups.append(BatchGroup(key, tuple(indices)))
            else:
                singles.extend(indices)
        singles.sort()
        plan.singles = singles
        return plan
