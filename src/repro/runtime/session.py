"""RunSession: the one canonical pipeline from request to result.

Every entry layer — the CLI, :class:`~repro.core.study.ClusteringStudy`,
all :class:`~repro.core.executor.SweepExecutor` backends, and the
benchmark harness — funnels through this module.  A session performs,
in order:

1. **resolve** — bind the :class:`~repro.runtime.plan.RunRequest` to the
   base machine config (:meth:`RunPlan.resolve`);
2. **build** — construct the application and run its setup (allocation,
   placement, problem construction);
3. **trace acquisition** — look the compiled reference stream up in the
   trace cache (``trace-hit``) or capture it (``capture``), honouring
   :attr:`~repro.apps.base.Application.stream_invariant`;
4. **execute** — drive the engine (replay or generator) and assemble the
   :class:`~repro.core.metrics.RunResult`.

The operation sequence is byte-for-byte the historical
``evaluate_point`` pipeline; attaching a
:class:`~repro.runtime.hooks.RunObserver` adds timestamps and phase
events around the same calls without reordering them, so observed and
unobserved runs are bit-identical (pinned by ``tests/test_runtime.py``).

:meth:`RunSession.run_detailed` is the explicit-wiring variant for
tools that need the memory system afterwards (reference tracing,
working-set residency, snoopy-vs-directory comparison, load-latency
calibration): it accepts a ``memory_factory`` and always drives the
generator path, keeping non-standard memory systems out of the shared
trace cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .hooks import RunObserver, _Clock
from .plan import RunPlan, RunRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import Application
    from ..core.config import MachineConfig
    from ..core.metrics import RunResult
    from ..sim.compiled import CompiledProgram, TraceCache

__all__ = ["RunOutcome", "RunSession"]


@dataclass
class RunOutcome:
    """Everything a finished pipeline pass produced.

    ``result`` is always set.  ``memory`` is the memory system the run
    used when the session wired it explicitly (:meth:`RunSession.run_detailed`);
    the canonical pipeline lets the application own its memory system and
    leaves this ``None``.  ``program`` is the compiled trace that was
    replayed or captured (``None`` on pure generator runs), and
    ``from_cache`` marks traces served from the trace cache.
    """

    plan: RunPlan
    result: RunResult
    app: "Application"
    memory: Any = None
    program: "CompiledProgram | None" = None
    from_cache: bool = False

    @property
    def request(self) -> RunRequest:
        return self.plan.request

    @property
    def config(self) -> MachineConfig:
        return self.plan.config


@dataclass
class RunSession:
    """Executes :class:`RunRequest`\\ s through the canonical pipeline.

    Parameters
    ----------
    base_config:
        Machine template requests resolve against (default machine when
        ``None``).  Per-request cluster/cache/network settings are
        applied on top.
    trace_cache:
        Optional :class:`~repro.sim.compiled.TraceCache`; compiled
        streams are served from and written back to it.  ``None`` makes
        every run capture its own stream.
    use_compiled:
        Execute by compiled-trace replay (default) or drive the
        generators directly on every run (bit-identical, slower).
    observer:
        Optional :class:`~repro.runtime.hooks.RunObserver`.  When
        ``None`` the pipeline takes no timestamps — detached sessions
        add zero work to the historical path.
    """

    base_config: MachineConfig | None = None
    trace_cache: "TraceCache | None" = field(default=None, repr=False)
    use_compiled: bool = True
    observer: RunObserver | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ API
    def run(self, request: RunRequest) -> RunResult:
        """Run one request; the result-only view of :meth:`run_plan`."""
        return self.run_plan(self.resolve(request)).result

    def resolve(self, request: RunRequest) -> RunPlan:
        """Bind a request to this session's base machine config."""
        return RunPlan.resolve(request, self.base_config,
                               use_compiled=self.use_compiled)

    def run_plan(self, plan: RunPlan) -> RunOutcome:
        """Execute a resolved plan through the canonical pipeline."""
        obs = self.observer
        clock = _Clock() if obs is not None else None
        if obs is not None:
            obs.on_phase("resolve", clock.lap(),
                         {"config": plan.config.describe()})

        from ..apps.registry import build_app  # deferred: avoids import cycle

        request = plan.request
        app = build_app(request.app, plan.config, **request.kwargs)
        app.ensure_setup()
        if obs is not None:
            obs.on_phase("build", clock.lap(), {"app": request.app})

        if not plan.use_compiled:
            result = app.run()
            outcome = RunOutcome(plan, result, app)
            return self._finish(outcome, clock)

        from ..sim.compiled import trace_key  # deferred: avoids import cycle

        key = trace_key(request.app, request.kwargs, plan.config, app.seed,
                        stream_invariant=app.stream_invariant)
        cache = self.trace_cache
        program = cache.get(key) if cache is not None else None
        if program is not None:
            if obs is not None:
                obs.on_phase("trace-hit", clock.lap(),
                             {"ops": program.total_ops,
                              "mapped": program.mapped})
            result = self._replay(plan, app, program)
            outcome = RunOutcome(plan, result, app, program=program,
                                 from_cache=True)
            return self._finish(outcome, clock)
        if app.stream_invariant:
            program = app.compiled_program()
            if cache is not None:
                cache.put(key, program)
            if obs is not None:
                obs.on_phase("capture", clock.lap(),
                             {"ops": program.total_ops,
                              "source_ops": program.source_ops})
            result = self._replay(plan, app, program)
            outcome = RunOutcome(plan, result, app, program=program)
            return self._finish(outcome, clock)
        # timing-dependent stream (Barnes): the stream is decided by the
        # run itself, so capture during generator execution; the capture
        # replays bit-identically at this exact configuration only (the
        # trace key covers the full config)
        result, program = app.run_recorded()
        if cache is not None:
            cache.put(key, program)
        outcome = RunOutcome(plan, result, app, program=program)
        return self._finish(outcome, clock)

    def run_detailed(self, request: RunRequest, *,
                     memory_factory: "Callable[[MachineConfig, Application], Any] | None" = None,
                     program: "CompiledProgram | None" = None,
                     read_hit_cycles: int = 1,
                     max_cycles: int | None = None,
                     heap_fast_path: bool = True) -> RunOutcome:
        """Run with explicit memory wiring; returns the memory system.

        ``memory_factory(config, app)`` builds the memory system the run
        uses (default: whatever backend ``config.protocol`` selects via
        :func:`~repro.memory.make_memory_system`), so probes
        can substitute tracing wrappers, snoopy protocols, or a perfect
        memory with a fixed ``read_hit_cycles``.  The trace cache is never
        consulted or written — a capture under a non-standard memory
        system or latency model must not masquerade as the canonical
        stream.  Pass ``program`` to replay an explicit compiled trace
        instead of driving the generators.
        """
        obs = self.observer
        clock = _Clock() if obs is not None else None
        plan = RunPlan.resolve(request, self.base_config,
                               use_compiled=program is not None)
        if obs is not None:
            obs.on_phase("resolve", clock.lap(),
                         {"config": plan.config.describe()})

        from ..apps.registry import build_app  # deferred: avoids import cycle

        app = build_app(request.app, plan.config, **request.kwargs)
        app.ensure_setup()
        if obs is not None:
            obs.on_phase("build", clock.lap(), {"app": request.app})

        from ..memory import make_memory_system
        from ..sim.engine import execute_program

        # memory construction belongs to the execute phase: benchmark
        # floors time "build the memory system + run the engine" as one
        # region, and the observer must report the same region
        if memory_factory is not None:
            memory = memory_factory(plan.config, app)
        else:
            memory = make_memory_system(plan.config, app.allocator)
        result = execute_program(plan.config, memory,
                                 program if program is not None
                                 else app.program,
                                 compiled=program is not None,
                                 read_hit_cycles=read_hit_cycles,
                                 max_cycles=max_cycles,
                                 heap_fast_path=heap_fast_path)
        outcome = RunOutcome(plan, result, app, memory=memory,
                             program=program)
        return self._finish(outcome, clock)

    # ------------------------------------------------------------ internals
    def _replay(self, plan: RunPlan, app: "Application",
                program: "CompiledProgram") -> RunResult:
        """Replay a compiled trace: native C kernel, else canonical python.

        The C kernel serves the point when selected and eligible
        (:func:`~repro.sim.nativereplay.try_replay_native` — byte-
        identical to the canonical :meth:`Engine.run_compiled` replay);
        every declined point replays through :meth:`Application.run`.
        """
        from ..sim.nativereplay import try_replay_native
        result = try_replay_native(plan.config, app, program)
        if result is not None:
            return result
        return app.run(program=program)

    def _finish(self, outcome: RunOutcome, clock: _Clock | None) -> RunOutcome:
        obs = self.observer
        if obs is not None:
            result = outcome.result
            obs.on_phase("execute", clock.lap(),
                         {"references": result.misses.references,
                          "cycles": result.execution_time})
            obs.on_result(outcome.plan, result)
        return outcome
