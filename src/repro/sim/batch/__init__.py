"""Batched lockstep replay: one trace decode drives every sweep point.

The paper's methodology replays one application trace across a grid of
cluster/cache configurations; this package makes the grid pay for the
trace **once**.  A :class:`~repro.sim.batch.planner.BatchPlanner` groups
sweep points by compiled-trace key (stream-invariant apps without a task
table only; Barnes, Raytrace and Volrend fall through to per-point
replay), and a
:class:`~repro.sim.batch.engine.BatchedReplay` advances every point of a
group over a single materialisation of the program's flat opcode/operand
columns using the fused replay kernel — the event loop with the memory
system's hit paths inlined, per-config scheduling kept independent so
results stay byte-identical to per-point execution.

Layer note: this package sits **above** ``repro.runtime`` in the layer
DAG (its planner speaks :class:`~repro.runtime.plan.RunRequest` and its
runner drives :class:`~repro.runtime.session.RunSession`) and below the
sweep machinery in ``repro.core`` that dispatches groups — see
``docs/INTERNALS.md`` and ``tools/check_layering.py``.
"""

from .columns import (HAVE_NUMPY, BatchAux, batch_aux_numpy,
                      batch_aux_python, columns_numpy, columns_python,
                      prepare_batch, prepare_columns)
from .engine import BatchedReplay, fusible, replay_fused
from .planner import BatchGroup, BatchPlan, BatchPlanner
from .runner import BatchItem, BatchStats, run_group

__all__ = ["BatchAux", "BatchGroup", "BatchItem", "BatchPlan",
           "BatchPlanner", "BatchStats", "BatchedReplay", "HAVE_NUMPY",
           "batch_aux_numpy", "batch_aux_python", "columns_numpy",
           "columns_python", "fusible", "prepare_batch", "prepare_columns",
           "replay_fused", "run_group"]
