"""Native-kernel replay: eligibility gate and RunResult assembly.

Bridges :mod:`repro.native` (rank 2: the C kernel, its build layer, and
the raw driver) into the simulation layer.  :func:`replay_native` is the
drop-in twin of the canonical compiled replay,
:meth:`repro.sim.engine.Engine.run_compiled`: same validation, same
exceptions, same byte-identical :class:`~repro.core.metrics.RunResult` —
the kernel returns the raw end state, the driver writes it back into the
live memory objects, and the canonical
:class:`~repro.sim.stats.StatsAssembler` builds the result from those
objects exactly as every other path does.

The kernel implements all three coherence protocols — the directory
(:class:`~repro.memory.coherence.CoherentMemorySystem`), the snoopy
shared-main-memory cluster
(:class:`~repro.memory.snoopy.SnoopyClusterMemorySystem`) and the
directoryless shared LLC (:class:`~repro.memory.dls.DLSMemorySystem`) —
behind one protocol seam in ``kernel.c``.

Which end state comes back follows from who owns the memory system.
:func:`replay_native` mutates a memory system its caller keeps, so it
asks for everything — directory, caches in LRU order, histories — and
leaves the objects indistinguishable from the canonical engine's; that
full export exists for the directory protocol only.
:func:`try_replay_native`, the per-point seam of every sweep, builds a
private memory system and discards it, so it takes only the *visible*
state: the per-cluster counters the result is assembled from and the
first touches on the application's allocator, which outlives the call.

:func:`native_fusible` is deliberately conservative: one of the three
exact protocol classes with fully-associative caches, flat latencies
only (the mesh provider is stateful python), at most 64 clusters (the
sharer mask lives in one machine word), a non-degenerate capacity, and
a *fresh* memory system (the kernel starts from empty state; every
replay constructs its memory fresh, so this only excludes exotic
callers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import repro.native as native
from ..core.metrics import MissCounters, RunResult
from ..memory import make_memory_system
from ..memory.cache import FullyAssociativeCache
from ..memory.coherence import CoherentMemorySystem
from ..memory.dls import DLSMemorySystem
from ..memory.snoopy import SnoopyClusterMemorySystem
from ..native.driver import NativeDeadlock, run_native
from ..network.latency import TableLatency
from .engine import SimulationDeadlock
from .stats import DEFAULT_ASSEMBLER
from .sync import SyncRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from .compiled import CompiledProgram

__all__ = ["native_fusible", "replay_native", "try_replay_native"]

_FRESH = MissCounters()


def native_fusible(memory) -> bool:
    """Whether the C kernel can drive this memory system exactly.

    Requires an exact :class:`CoherentMemorySystem`,
    :class:`SnoopyClusterMemorySystem` or :class:`DLSMemorySystem`
    (a subclass or a substitute from ``register_protocol`` declines)
    with fully-associative caches, flat latencies, ≤ 64 clusters, a
    usable capacity, and fresh state.
    """
    kind = type(memory)
    if kind is SnoopyClusterMemorySystem:
        if (not isinstance(memory.latency, TableLatency)
                or memory._slot_maps is None
                or memory.c2c_transfers):
            return False
    elif kind is CoherentMemorySystem or kind is DLSMemorySystem:
        if (memory._kernels is None or not memory._flat
                or memory._capacity_lines == 0):
            return False
    else:
        return False
    if len(memory.counters) > 64:  # one counter set per cluster
        return False
    if kind is DLSMemorySystem:
        if memory.writebacks:
            return False
    else:
        d = memory.directory
        if (d.packed or d.invalidations_sent or d.replacement_hints
                or d.writebacks):
            return False
    for cache in memory.caches:
        if cache.slot_of or cache.inserts or cache.evictions:
            return False
    for hist in memory._history:
        if hist:
            return False
    for ctr in memory.counters:
        if ctr != _FRESH:
            return False
    return True


def replay_native(config: "MachineConfig", memory: CoherentMemorySystem,
                  program: "CompiledProgram", lib=None) -> RunResult:
    """Replay ``program`` against a directory ``memory`` with the C kernel.

    Byte-identical to ``execute_program(..., compiled=True)`` whenever
    :func:`native_fusible(memory)` holds; callers gate on it.  The
    caller keeps ``memory``, so the kernel exports its full end state
    and ``memory`` ends exactly as the canonical engine would leave it —
    an export only the directory protocol has, so ``memory`` must be a
    :class:`CoherentMemorySystem` (other protocols replay natively
    through :func:`try_replay_native`).
    """
    if lib is None:
        lib = native.kernel()
        if lib is None:
            raise RuntimeError("native kernel is not available")
    n = config.n_processors
    if program.n_processors != n:
        raise ValueError(
            f"compiled program has {program.n_processors} processors, "
            f"machine has {n}")
    if program.line_size != config.line_size:
        raise ValueError(
            f"compiled program captured at line size "
            f"{program.line_size}, machine uses {config.line_size}")
    return _replay(config, memory, program, lib, export_private=True)


def _replay(config: "MachineConfig", memory, program: "CompiledProgram", lib, export_private: bool,
            ) -> RunResult:
    """Run the kernel, map a deadlock to the canonical error, assemble."""
    n = config.n_processors
    try:
        execution_time, breakdowns = run_native(
            lib, config, memory, program, export_private=export_private)
    except NativeDeadlock as nd:
        # reconstruct the canonical deadlock message through the real
        # SyncRegistry (creation order preserved by the kernel's export)
        sync = SyncRegistry(n)
        for bid, episodes, waiting in nd.barriers:
            b = sync.barrier(bid)
            b.episodes = episodes
            b._waiting.extend(waiting)
        for lid, holder, acq, cont, waiting in nd.locks:
            lk = sync.lock(lid)
            lk.holder = holder
            lk.acquisitions = acq
            lk.contended_acquisitions = cont
            lk._queue.extend(waiting)
        detail = sync.idle_check() or "processors blocked forever"
        stuck = [p for p in range(n) if nd.finish[p] is None]
        raise SimulationDeadlock(
            f"{len(stuck)} processors never finished ({detail}); "
            f"first stuck: {stuck[:8]}") from None
    return DEFAULT_ASSEMBLER.assemble(execution_time, breakdowns, memory)


def try_replay_native(config: "MachineConfig", app,
                      program: "CompiledProgram") -> RunResult | None:
    """Per-point seam: run natively when selected and eligible, else None.

    Builds the same fresh memory system ``app.run(program=...)`` would
    (through the protocol registry, so every protocol is served), gates
    on :func:`native_fusible`, and leaves every ineligible case (python
    selected, mesh latencies, set-associative caches, a substituted
    protocol factory, mismatched program) to the canonical path —
    including its exact validation errors.  The memory system is private
    to this call and discarded, so the kernel exports only the visible
    state: the counters the result is built from and the first touches
    on ``app.allocator``.
    """
    lib = native.kernel()
    if lib is None:
        return None
    if (program.n_processors != config.n_processors
            or program.line_size != config.line_size):
        return None  # canonical path raises its own errors
    app.ensure_setup()
    memory = make_memory_system(config, app.allocator)
    if not native_fusible(memory):
        return None
    return _replay(config, memory, program, lib, export_private=False)
