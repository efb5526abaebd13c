"""Sweep execution engine: serial or multi-process, with result caching.

Every figure and table of the paper is a grid of *fully independent*
simulations, so the sweep harness — not the simulator — decides wall-clock
time.  :class:`SweepExecutor` evaluates an iterable of
:class:`~repro.runtime.plan.RunRequest`\\ s (``(app, cluster_size,
cache_kb, app_kwargs)``) with a pluggable backend:

* ``serial``  — in-process, point after point (the default; identical to
  the historical behaviour of :class:`~repro.core.study.ClusteringStudy`);
* ``process`` — fan-out over a ``concurrent.futures.ProcessPoolExecutor``
  with ``max_workers`` control and a per-point ``timeout``;
* ``fork``    — the process backend in **fork-server mode** (Linux/POSIX
  only): the pool is created with the ``multiprocessing`` *fork* start
  method after the parent has preloaded every disk-resident compiled
  trace — decoded programs **and** their materialised replay columns —
  into the process-wide LRU, so workers inherit warm state copy-on-write
  instead of each re-reading and re-decompressing the on-disk
  :class:`~repro.core.resultcache.TraceStore` per point.

Guarantees:

* **Determinism** — the simulator is seeded and side-effect free, so both
  backends produce byte-identical :class:`RunResult`\\ s for the same spec
  (covered by ``tests/test_determinism.py``).
* **Failure isolation** — one diverging or crashing point yields a
  :class:`PointOutcome` carrying the error; the other points of the sweep
  still complete.  Callers that want the historical fail-fast behaviour
  raise :class:`SweepExecutionError` via :func:`raise_failures`.
* **Transparent memoization** — with a
  :class:`~repro.core.resultcache.ResultCache` attached, finished points
  are served from disk and fresh points are written back, keyed by content
  hash of (version, app, kwargs, full machine config).
* **Trace reuse** — points are evaluated through the compiled-trace layer
  (:mod:`repro.sim.compiled`) by default: the app's reference stream is
  captured once per (app, kwargs, seed, processor-count/line-size) and
  replayed at every other point of the grid — cluster size, cache size,
  and network model do not invalidate it.  Replay is bit-identical to
  generator execution.  The in-memory tier is process-wide; attach a
  :class:`~repro.core.resultcache.TraceStore`-backed cache to share traces
  across ``--jobs`` worker processes and CLI invocations via disk.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..runtime.hooks import RunObserver
from ..runtime.plan import RunRequest
from .config import MachineConfig
from .metrics import RunResult
from .resultcache import ResultCache

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.compiled import TraceCache

__all__ = ["BACKENDS", "PointOutcome", "SweepExecutor",
           "SweepExecutionError", "evaluate_point", "fork_available",
           "raise_failures"]

#: the recognised execution backends
BACKENDS = ("serial", "process", "fork")


def fork_available() -> bool:
    """Whether the ``fork`` backend can run on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _request(obj: Any) -> RunRequest:
    """``obj`` itself when it is a :class:`RunRequest`; else ``TypeError``."""
    if not isinstance(obj, RunRequest):
        raise TypeError(
            f"sweep points must be RunRequest instances (build them with "
            f"RunRequest.make), got {type(obj).__name__}: {obj!r}")
    return obj


@dataclass
class PointOutcome:
    """What happened to one dispatched point.

    Exactly one of ``result`` / ``error`` is set.  ``cached`` marks results
    served from the persistent cache; ``elapsed`` is the evaluation
    wall-clock in seconds (0.0 for cache hits).
    """

    spec: RunRequest
    result: RunResult | None = None
    error: str | None = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepExecutionError(RuntimeError):
    """One or more sweep points failed; carries every failed outcome."""

    def __init__(self, failures: Sequence[PointOutcome]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep point(s) failed:"]
        for f in self.failures:
            first = (f.error or "").strip().splitlines()
            lines.append(f"  - {f.spec.describe()}: "
                         f"{first[-1] if first else 'unknown error'}")
        super().__init__("\n".join(lines))


def evaluate_point(spec: RunRequest, base_config: MachineConfig,
                   trace_cache: "TraceCache | None" = None,
                   use_compiled: bool = True,
                   observer: RunObserver | None = None) -> RunResult:
    """Run one point to completion (the process-pool worker function).

    Builds a fresh application instance so every configuration solves the
    identical, deterministically-seeded problem.  With ``use_compiled``
    (the default) the reference stream is captured into a
    :class:`~repro.sim.compiled.CompiledProgram` and replayed — served from
    ``trace_cache`` when one is attached, so grid neighbours sharing the
    same stream skip generation entirely.  Setup always runs: data
    placement depends on cluster geometry even though the stream does not.

    This is a thin wrapper over the canonical
    :class:`~repro.runtime.session.RunSession` pipeline; it exists so the
    process-pool workers have a picklable module-level entry point.
    """
    from ..runtime.session import RunSession  # deferred: avoids import cycle

    session = RunSession(base_config=base_config, trace_cache=trace_cache,
                         use_compiled=use_compiled, observer=observer)
    return session.run(spec)


def _evaluate_timed(spec: RunRequest, base_config: MachineConfig,
                    trace_cache: "TraceCache | None" = None,
                    use_compiled: bool = True,
                    observer: RunObserver | None = None
                    ) -> tuple[RunResult, float]:
    t0 = time.perf_counter()
    result = evaluate_point(spec, base_config, trace_cache, use_compiled,
                            observer)
    return result, time.perf_counter() - t0


def raise_failures(outcomes: Iterable[PointOutcome]) -> None:
    """Raise :class:`SweepExecutionError` if any outcome failed."""
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise SweepExecutionError(failures)


@dataclass
class SweepExecutor:
    """Evaluates sweep points with a configurable backend and cache.

    Parameters
    ----------
    backend:
        ``"serial"`` (default), ``"process"``, or ``"fork"`` (the process
        backend in fork-server mode — POSIX only; the first ``run`` call
        preloads disk-resident traces in the parent, then forks workers
        that inherit them copy-on-write).
    max_workers:
        Process-pool width; ``None`` lets the pool pick (CPU count).
        Ignored by the serial backend.
    timeout:
        Per-point wall-clock limit in seconds.  Enforced by the process
        backend (a late point becomes an error outcome, the rest of the
        sweep survives; its worker finishes the stale computation in the
        background).  The serial backend cannot preempt a running
        simulation and ignores it.
    cache:
        Optional :class:`ResultCache`.  ``None`` disables both reads and
        writes (the CLI's ``--no-cache``).
    trace_cache:
        Compiled-trace cache (:class:`~repro.sim.compiled.TraceCache`).
        ``None`` (the default) builds an LRU-only cache — traces are
        reused within the process but not persisted; pass a
        :class:`~repro.core.resultcache.TraceStore`-backed cache to share
        across processes and invocations.  Ignored when ``use_compiled``
        is off.
    use_compiled:
        Evaluate points by compiled-trace replay (default).  Off = drive
        the generators directly on every point, the historical behaviour
        (bit-identical, only slower).
    observer:
        Optional :class:`~repro.runtime.hooks.RunObserver` attached to
        every in-process evaluation (serial backend and
        :meth:`submit_one`'s thread path).  Worker *processes* never see
        it — hook state could not come back across the pickle boundary —
        so the process/fork backends ignore it.  Observed runs are
        bit-identical to detached ones (the runtime parity suite pins
        this), so attaching a counter or timer never perturbs results.
    native:
        Replay-kernel selection (the CLI's ``--native/--no-native``):
        ``True`` forces the native C kernel (raising up front when it
        cannot be built), ``False`` forces pure python, ``None`` (the
        default) leaves the process-wide auto-detection — native when a
        compiler or cached artifact exists — untouched.  The selection
        is written to the ``REPRO_NATIVE`` environment variable so
        process/fork workers inherit it.  Byte-identical either way.
    """

    backend: str = "serial"
    max_workers: int | None = None
    timeout: float | None = None
    cache: ResultCache | None = field(default=None, repr=False)
    trace_cache: "TraceCache | None" = field(default=None, repr=False)
    use_compiled: bool = True
    observer: RunObserver | None = field(default=None, repr=False)
    native: bool | None = None
    # the process pool outlives individual run() calls: worker startup
    # (interpreter + numpy import) costs ~1s, which would otherwise be
    # paid again by every figure's sweep in a multi-figure command
    _pool: ProcessPoolExecutor | None = field(default=None, init=False,
                                              repr=False, compare=False)
    # lazily-created thread pool backing submit_one() under the serial
    # backend: the simulator is pure python (GIL-bound), so threads add
    # no parallelism — they exist to give callers a non-blocking handle
    _threads: ThreadPoolExecutor | None = field(default=None, init=False,
                                                repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.backend == "fork" and not fork_available():
            raise ValueError(
                "the fork backend needs the 'fork' start method, which this "
                "platform does not provide; use backend='process'")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be positive or None")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")
        if self.native is not None:
            import repro.native as _native  # deferred: keep import light

            _native.set_native(self.native)
            if self.native:
                _native.kernel()  # force-on must fail here, not mid-sweep
        if self.use_compiled and self.trace_cache is None:
            from ..sim.compiled import TraceCache  # deferred: import cycle

            self.trace_cache = TraceCache()

    # ------------------------------------------------------------------ API
    def run(self, specs: Iterable[Any],
            base_config: MachineConfig | None = None) -> list[PointOutcome]:
        """Evaluate every spec; outcomes come back in input order.

        Every spec must be a :class:`RunRequest` (``TypeError``
        otherwise).  Cache hits are resolved up front; only misses are
        dispatched to the backend.  Identical pending specs are evaluated once — the first
        occurrence runs, the duplicates share its :class:`RunResult`
        object (``elapsed`` 0.0).  A point that raises (or times out
        under the process backend) produces an error outcome instead of
        aborting the sweep.
        """
        base = base_config or MachineConfig()
        specs = [_request(s) for s in specs]
        outcomes: list[PointOutcome | None] = [None] * len(specs)
        keys: list[str | None] = [None] * len(specs)

        pending: list[int] = []
        for i, spec in enumerate(specs):
            if self.cache is not None:
                keys[i] = self.cache.key(spec.app, spec.kwargs,
                                         spec.config_for(base))
                hit = self.cache.get(keys[i])
                if hit is not None:
                    outcomes[i] = PointOutcome(spec, result=hit, cached=True)
                    continue
            pending.append(i)

        # dedupe before submission: RunRequest is frozen and hashable, so
        # two identical specs in one sweep (same app, geometry, kwargs,
        # network) collapse into one evaluation even with the result
        # cache off; only unique points reach the backend
        primary_of: dict[RunRequest, int] = {}
        duplicate_of: dict[int, int] = {}
        unique: list[int] = []
        for i in pending:
            j = primary_of.setdefault(specs[i], i)
            if j == i:
                unique.append(i)
            else:
                duplicate_of[i] = j

        if unique:
            if self.backend == "fork":
                # fork-server mode: warm the trace LRU before the pool
                # exists so the forked workers inherit it copy-on-write
                if self._pool is None:
                    self.preload_traces([specs[i] for i in unique], base)
                self._run_process(specs, unique, base, outcomes)
            elif self.backend == "process":
                self._run_process(specs, unique, base, outcomes)
            else:
                self._run_serial(specs, unique, base, outcomes)

        for i, j in duplicate_of.items():
            src = outcomes[j]
            if src is not None:
                outcomes[i] = PointOutcome(specs[i], result=src.result,
                                           error=src.error, cached=src.cached,
                                           elapsed=0.0)

        if self.cache is not None:
            for i in unique:
                out = outcomes[i]
                if out is not None and out.ok and out.result is not None:
                    self.cache.put(keys[i], out.result)
        return [o for o in outcomes if o is not None]

    def run_one(self, spec: Any,
                base_config: MachineConfig | None = None) -> PointOutcome:
        """Evaluate a single point (always serial, still cached)."""
        base = base_config or MachineConfig()
        spec = _request(spec)
        key = None
        if self.cache is not None:
            key = self.cache.key(spec.app, spec.kwargs,
                                 spec.config_for(base))
            hit = self.cache.get(key)
            if hit is not None:
                return PointOutcome(spec, result=hit, cached=True)
        outcome = self._evaluate_isolated(spec, base)
        if key is not None and outcome.ok and outcome.result is not None:
            self.cache.put(key, outcome.result)
        return outcome

    # ------------------------------------------------------------- backends
    def _evaluate_isolated(self, spec: RunRequest,
                           base: MachineConfig) -> PointOutcome:
        try:
            result, elapsed = _evaluate_timed(spec, base, self.trace_cache,
                                              self.use_compiled, self.observer)
        except Exception:
            return PointOutcome(spec, error=traceback.format_exc())
        return PointOutcome(spec, result=result, elapsed=elapsed)

    def _run_serial(self, specs: list[RunRequest], pending: list[int],
                    base: MachineConfig,
                    outcomes: list[PointOutcome | None]) -> None:
        for i in pending:
            outcomes[i] = self._evaluate_isolated(specs[i], base)

    def submit_one(self, spec: Any,
                   base_config: MachineConfig | None = None
                   ) -> "Future[PointOutcome]":
        """Dispatch one point; returns a future resolving to its outcome.

        The async-friendly single-point API (the sweep-service daemon's
        execution path): the returned :class:`concurrent.futures.Future`
        always resolves to a :class:`PointOutcome` — evaluation failures
        become error outcomes, never exceptions on the future.  Process
        and fork backends submit to the shared worker pool; the serial
        backend runs on a lazily-created thread (same process, so an
        attached :attr:`observer` hears the run).

        Unlike :meth:`run_one`, neither the result cache nor the
        per-point ``timeout`` is consulted: the caller owns memoization,
        coalescing, and deadlines (the daemon implements all three on
        top of this primitive).
        """
        base = base_config or MachineConfig()
        spec = _request(spec)
        out: "Future[PointOutcome]" = Future()
        try:
            if self.backend in ("process", "fork"):
                inner = self._process_pool().submit(
                    _evaluate_timed, spec, base, self.trace_cache,
                    self.use_compiled)
            else:
                inner = self._thread_pool().submit(
                    _evaluate_timed, spec, base, self.trace_cache,
                    self.use_compiled, self.observer)
        except Exception as exc:  # e.g. submitting to an already-broken pool
            if isinstance(exc, BrokenProcessPool):
                self.close()
            out.set_result(PointOutcome(spec, error=self._exc_text(exc)))
            return out

        def _done(f: Future) -> None:
            try:
                result, elapsed = f.result()
            except BaseException as exc:  # noqa: BLE001 — becomes an outcome
                if isinstance(exc, BrokenProcessPool):
                    # a dead worker poisons the pool; reopen it next submit
                    self.close()
                outcome = PointOutcome(spec, error=self._exc_text(exc))
            else:
                outcome = PointOutcome(spec, result=result, elapsed=elapsed)
            if not out.cancelled():
                try:
                    out.set_result(outcome)
                except Exception:  # pragma: no cover — racing cancellation
                    pass

        inner.add_done_callback(_done)
        return out

    @staticmethod
    def _exc_text(exc: BaseException) -> str:
        return ("".join(traceback.format_exception_only(type(exc), exc))
                .strip() or repr(exc))

    def worker_processes(self) -> list:
        """The pool's live worker processes (empty for serial/thread)."""
        pool = self._pool
        if pool is None:
            return []
        return list(getattr(pool, "_processes", {}).values())

    def worker_pids(self) -> list[int]:
        """PIDs of the pool's worker processes (empty for serial/thread)."""
        return [p.pid for p in self.worker_processes() if p.pid is not None]

    def close(self) -> None:
        """Shut down the worker pools (idempotent; a later run reopens them)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)
            self._threads = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def preload_traces(self, specs: Iterable[Any],
                       base_config: MachineConfig | None = None) -> int:
        """Warm the in-memory trace tier for ``specs`` in *this* process.

        Fork-server preparation: resolves each spec's trace key, pulls
        every disk-resident compiled program into the process-wide LRU
        (:meth:`TraceCache.preload` — no hit/miss accounting) and
        materialises its replay columns, so a pool forked afterwards
        inherits ready-to-replay traces copy-on-write.  Traces that are
        neither in memory nor on disk are left for the workers to compile
        on demand — preloading never generates streams.  Returns the
        number of programs made resident.
        """
        if not self.use_compiled or self.trace_cache is None:
            return 0
        from ..apps.registry import build_app  # deferred: import cycle
        from ..sim.compiled import trace_key  # deferred: import cycle

        base = base_config or MachineConfig()
        seen: set[str] = set()
        resident = 0
        for spec in map(_request, specs):
            config = spec.config_for(base)
            app = build_app(spec.app, config, **spec.kwargs)
            key = trace_key(spec.app, spec.kwargs, config, app.seed,
                            stream_invariant=app.stream_invariant)
            if key in seen:
                continue
            seen.add(key)
            program = self.trace_cache.preload(key)
            if program is not None:
                program.runtime_columns()
                resident += 1
        return resident

    def _thread_pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.max_workers or 1,
                thread_name_prefix="repro-point")
        return self._threads

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            mp_context = None
            if self.backend == "fork":
                import multiprocessing

                mp_context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                             mp_context=mp_context)
        return self._pool

    def _run_process(self, specs: list[RunRequest], pending: list[int],
                     base: MachineConfig,
                     outcomes: list[PointOutcome | None]) -> None:
        pool = self._process_pool()
        # the TraceCache pickles cheaply (the LRU is module state, the
        # store carries only a path); each worker re-hydrates its own
        # in-memory tier and shares compilations with siblings via disk
        futures = {i: pool.submit(_evaluate_timed, specs[i], base,
                                  self.trace_cache, self.use_compiled)
                   for i in pending}
        for i, future in futures.items():
            try:
                result, elapsed = future.result(timeout=self.timeout)
            except _FuturesTimeout:
                future.cancel()
                outcomes[i] = PointOutcome(
                    specs[i],
                    error=f"timed out after {self.timeout:g}s")
            except Exception as exc:
                if isinstance(exc, BrokenProcessPool):
                    # a dead worker poisons the pool; reopen it next run
                    self.close()
                outcomes[i] = PointOutcome(specs[i],
                                           error=self._exc_text(exc))
            else:
                outcomes[i] = PointOutcome(specs[i], result=result,
                                           elapsed=elapsed)
