"""Engine throughput and sweep benchmarking (``repro-clustering bench``).

Six measurements, all written to ``BENCH_engine.json``:

* **Engine throughput** (:func:`bench_engine`) — simulated operations per
  second for one application on one machine, along three paths: the
  legacy engine path (generator execution, heap fast path off — the
  closest in-tree stand-in for the pre-optimization engine), the current
  generator path (heap fast path on), and compiled-trace replay.  The
  replay/legacy ratio is the per-run speedup of this package's
  compiled-trace layer.
* **End-to-end sweep** (:func:`bench_sweep`) — wall-clock for an
  apps × cluster-sizes grid in four modes: ``legacy`` (fast path off),
  ``generator`` (fast path only), ``cold`` (compiled execution, empty
  trace cache) and ``warm`` (trace cache pre-populated).  ``cold`` pays
  one capture per app; ``warm`` replays everything.
* **Memory-system microbench** (:func:`bench_memory`) — protocol
  operations per second of the coherence layer alone, on synthetic
  streams that isolate the three hot paths of the slab-allocated memory
  core: pure cache hits, capacity eviction/refill, and cross-cluster
  sharing (directory invalidations).  No engine, no applications — this
  is the number the kernelized cache/directory state layout moves.
* **Jobs backend comparison** (:func:`bench_jobs`) — wall-clock for a
  multi-process sweep under the ``process`` backend vs the ``fork``
  backend (fork-server mode: traces preloaded in the parent, inherited
  copy-on-write), pool startup included.  POSIX only; on platforms
  without ``fork`` the comparison is skipped.
* **Native kernel A/B** (:func:`bench_native`) — the per-point warm
  sweep with the pure-python replay vs the native C kernel, same
  session, same warm trace cache.
* **Trace streaming A/B** (:func:`bench_trace`) — decode latency,
  first-point latency and peak RSS of one pre-captured paper-scale trace
  consumed *materialized* (``REPRO_TRACE_MMAP=0``: full read + boxed
  columns) vs *memory-mapped* (chunked streaming windows / zero-copy
  native columns).  Each mode runs in a fresh subprocess because peak
  RSS (``ru_maxrss``) is process-lifetime-maximal — two modes sharing a
  process would see each other's high-water mark.

Note the in-tree ``legacy`` mode still benefits from shared-path work
(coherence inlining, scheduling-loop restructure), so replay/legacy
ratios *understate* the speedup over historical releases; cross-version
comparisons belong in the ``extra`` section of the report.

The JSON layout is stable (``schema`` key) so CI can diff runs; the
:func:`check_floor` helper enforces a checked-in throughput floor
(``benchmarks/perf/floor.json``) with a relative tolerance, which is what
the CI bench smoke step fails on.

Timing uses ``time.perf_counter`` around complete engine runs; problem
setup (allocation, placement, input generation) is excluded from the
per-engine numbers but *included* in the sweep numbers — a sweep user
waits for setup too.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..runtime.plan import RunRequest
from .config import MachineConfig
from .executor import evaluate_point

__all__ = ["AppBenchResult", "SweepBenchResult", "MemoryBenchResult",
           "JobsBenchResult", "NativeBenchResult", "TraceBenchResult",
           "bench_engine", "bench_sweep", "bench_memory", "bench_jobs",
           "bench_native", "bench_trace", "check_floor", "write_report",
           "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


@dataclass
class AppBenchResult:
    """Engine throughput for one application on one machine."""

    app: str
    n_processors: int
    cluster_size: int
    #: operations the generators yield (pre-fusion; the engine-visible work)
    source_ops: int
    #: operations stored after WORK fusion
    stored_ops: int
    #: seconds for one legacy-path run (generators, no heap fast path)
    legacy_s: float
    #: seconds for one generator run with the heap fast path
    generator_s: float
    #: seconds for one compiled-trace replay
    replay_s: float
    #: seconds to capture the trace (drain or recorded run)
    capture_s: float

    @property
    def legacy_ops_per_s(self) -> float:
        return self.source_ops / self.legacy_s if self.legacy_s else 0.0

    @property
    def generator_ops_per_s(self) -> float:
        return self.source_ops / self.generator_s if self.generator_s else 0.0

    @property
    def replay_ops_per_s(self) -> float:
        return self.source_ops / self.replay_s if self.replay_s else 0.0

    @property
    def replay_speedup(self) -> float:
        """Replay time improvement over the legacy (fast-path-off) run."""
        return self.legacy_s / self.replay_s if self.replay_s else 0.0

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(
            legacy_ops_per_s=round(self.legacy_ops_per_s, 1),
            generator_ops_per_s=round(self.generator_ops_per_s, 1),
            replay_ops_per_s=round(self.replay_ops_per_s, 1),
            replay_speedup=round(self.replay_speedup, 3),
        )
        return out


@dataclass
class SweepBenchResult:
    """End-to-end wall-clock of one sweep grid in every execution mode."""

    apps: list[str]
    cluster_sizes: list[int]
    cache_kb: float | None
    n_points: int
    legacy_s: float
    generator_s: float
    cold_s: float
    warm_s: float
    identical: bool = True  # every mode produced byte-identical results

    @property
    def cold_speedup(self) -> float:
        return self.legacy_s / self.cold_s if self.cold_s else 0.0

    @property
    def warm_speedup(self) -> float:
        return self.legacy_s / self.warm_s if self.warm_s else 0.0

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(cold_speedup=round(self.cold_speedup, 3),
                   warm_speedup=round(self.warm_speedup, 3))
        return out


def bench_engine(app_name: str, config: MachineConfig,
                 app_kwargs: Mapping[str, Any] | None = None,
                 repeats: int = 1) -> AppBenchResult:
    """Measure one application's engine throughput along all three paths.

    ``repeats`` > 1 re-runs each path and keeps the *fastest* time (the
    usual microbenchmark convention — slower samples are scheduler noise).
    Timings come from the runtime pipeline's ``execute`` phase (memory
    system construction + engine run), observed by a
    :class:`~repro.runtime.hooks.TimingObserver` — application build and
    problem setup stay outside the measured region, as they always did.
    """
    from ..apps.registry import build_app
    from ..runtime import RunRequest, RunSession, TimingObserver

    kwargs = dict(app_kwargs or {})
    request = RunRequest.make(app_name, config.cluster_size,
                              config.cache_kb_per_processor, kwargs)

    # a new app instance per run: some apps (e.g. barnes' cell pool)
    # consume internal state as program() executes, so instances are
    # single-shot — run_detailed builds its own fresh instance each call
    app = build_app(app_name, config, **kwargs)
    app.ensure_setup()
    t0 = time.perf_counter()
    if app.stream_invariant:
        program = app.compiled_program()
    else:
        _, program = app.run_recorded()
    capture_s = time.perf_counter() - t0

    observer = TimingObserver()
    session = RunSession(base_config=config, observer=observer)

    def best(**run_kwargs: Any) -> float:
        times = []
        for _ in range(max(1, repeats)):
            observer.reset()
            session.run_detailed(request, **run_kwargs)
            times.append(observer.elapsed("execute"))
        return min(times)

    legacy_s = best(heap_fast_path=False)
    generator_s = best()
    replay_s = best(program=program)

    return AppBenchResult(
        app=app_name,
        n_processors=config.n_processors,
        cluster_size=config.cluster_size,
        source_ops=program.source_ops,
        stored_ops=program.total_ops,
        legacy_s=legacy_s,
        generator_s=generator_s,
        replay_s=replay_s,
        capture_s=capture_s,
    )


def bench_sweep(apps: Sequence[str], config: MachineConfig,
                cluster_sizes: Iterable[int] = (1, 2, 4, 8),
                cache_kb: float | None = 4.0,
                kwargs_of: Mapping[str, Mapping[str, Any]] | None = None,
                ) -> SweepBenchResult:
    """Time an apps × cluster-sizes grid in all four execution modes.

    The grid is evaluated serially (one process) so mode comparisons
    measure the execution layer, not pool scheduling.  Every mode's
    results are compared byte-for-byte; ``identical=False`` in the result
    marks a correctness failure (and should never happen).
    """
    from ..runtime import RunSession
    from ..sim.compiled import TraceCache, clear_memory_cache

    kwargs_of = kwargs_of or {}
    cluster_sizes = list(cluster_sizes)
    specs = [RunRequest.make(app, cs, cache_kb, dict(kwargs_of.get(app, {})))
             for app in apps for cs in cluster_sizes]

    session = RunSession(base_config=config)

    def run_legacy(spec: RunRequest):
        return session.run_detailed(spec, heap_fast_path=False).result

    t0 = time.perf_counter()
    reference = [run_legacy(s).to_json() for s in specs]
    legacy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    generator = [evaluate_point(s, config, use_compiled=False).to_json()
                 for s in specs]
    generator_s = time.perf_counter() - t0

    clear_memory_cache()
    cache = TraceCache()
    t0 = time.perf_counter()
    cold = [evaluate_point(s, config, trace_cache=cache).to_json()
            for s in specs]
    cold_s = time.perf_counter() - t0

    # same cache, now fully populated: the steady state of a repeated sweep
    t0 = time.perf_counter()
    warm = [evaluate_point(s, config, trace_cache=cache).to_json()
            for s in specs]
    warm_s = time.perf_counter() - t0

    identical = reference == generator == cold == warm
    return SweepBenchResult(
        apps=list(apps), cluster_sizes=cluster_sizes, cache_kb=cache_kb,
        n_points=len(specs), legacy_s=legacy_s, generator_s=generator_s,
        cold_s=cold_s, warm_s=warm_s, identical=identical,
    )


@dataclass
class MemoryBenchResult:
    """Protocol throughput of the memory system on one synthetic stream."""

    stream: str  # "hit" | "capacity" | "sharing"
    n_ops: int
    elapsed_s: float

    @property
    def ops_per_s(self) -> float:
        return self.n_ops / self.elapsed_s if self.elapsed_s else 0.0

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(ops_per_s=round(self.ops_per_s, 1))
        return out


def _memory_streams(config: MachineConfig,
                    n_ops: int) -> dict[str, list[tuple[int, int, int]]]:
    """Precomputed ``(processor, line, is_write)`` access streams.

    Built outside the timed region so the measurement sees only protocol
    work.  Three streams, one per hot path of the memory core:

    * ``hit``      — every processor cycles through a small per-cluster
      working set that fits its cache: pure hit-path traffic (dict probe,
      LRU touch, pending/fetcher checks);
    * ``capacity`` — each processor strides through a footprint several
      times its cache: the eviction/refill path (victim selection, slot
      recycling, directory replacement hints);
    * ``sharing``  — processors in different clusters alternately write
      the same lines: the coherence path (directory bit-mask updates,
      invalidations, ownership transfer).
    """
    n = config.n_processors
    cluster_size = config.cluster_size
    lines_per_cache = config.cluster_cache_lines or 64
    streams: dict[str, list[tuple[int, int, int]]] = {}

    # distinct per-cluster line ranges so clusters do not interfere
    hit: list[tuple[int, int, int]] = []
    ws = max(1, min(lines_per_cache // 2, 32))
    for i in range(n_ops):
        proc = i % n
        line = (proc // cluster_size) * 10_000 + i % ws
        hit.append((proc, line, 0))
    streams["hit"] = hit

    cap: list[tuple[int, int, int]] = []
    footprint = lines_per_cache * 4
    for i in range(n_ops):
        proc = i % n
        line = (proc // cluster_size) * 100_000 + (i // n) % footprint
        cap.append((proc, line, 0))
    streams["capacity"] = cap

    shr: list[tuple[int, int, int]] = []
    shared_lines = 64
    for i in range(n_ops):
        # stride by cluster_size so consecutive touches of a line come
        # from different clusters — every write invalidates remote copies
        proc = (i * cluster_size) % n
        shr.append((proc, i % shared_lines, i & 1))
    streams["sharing"] = shr
    return streams


def bench_memory(config: MachineConfig | None = None, n_ops: int = 200_000,
                 repeats: int = 3) -> list[MemoryBenchResult]:
    """Measure raw memory-system (coherence-layer) throughput.

    Drives :class:`~repro.memory.coherence.CoherentMemorySystem` directly
    with precomputed synthetic streams — no engine, no event loop — so the
    number isolates the slab cache/directory hot paths.  Simulated time
    advances ~200 cycles per op (enough that every pending fill resolves
    before its next touch).  ``repeats`` keeps the fastest pass per
    stream; a fresh memory system per pass keeps passes independent.
    """
    from ..memory.coherence import CoherentMemorySystem

    if config is None:
        config = MachineConfig(n_processors=8, cluster_size=4,
                               cache_kb_per_processor=4.0)
    results = []
    for stream, accesses in _memory_streams(config, n_ops).items():
        best = None
        for _ in range(max(1, repeats)):
            memory = CoherentMemorySystem(config)
            read = memory.read
            write = memory.write
            now = 0
            t0 = time.perf_counter()
            for proc, line, is_write in accesses:
                if is_write:
                    write(proc, line, now)
                else:
                    read(proc, line, now)
                now += 200
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        results.append(MemoryBenchResult(stream, len(accesses), best or 0.0))
    return results


@dataclass
class JobsBenchResult:
    """Multi-process sweep wall-clock: ``process`` vs ``fork`` backend.

    ``fork_s`` is ``None`` on platforms without the fork start method.
    Both timings include pool startup — that is where fork-server mode
    wins (workers inherit the parent's warm trace LRU copy-on-write
    instead of importing + re-reading the disk store).
    """

    apps: list[str]
    cluster_sizes: list[int]
    n_points: int
    jobs: int
    process_s: float
    fork_s: float | None
    identical: bool = True

    @property
    def fork_speedup(self) -> float:
        if not self.fork_s:
            return 0.0
        return self.process_s / self.fork_s

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(fork_speedup=round(self.fork_speedup, 3))
        return out


def bench_jobs(apps: Sequence[str], config: MachineConfig,
               cluster_sizes: Iterable[int] = (1, 2, 4, 8),
               cache_kb: float | None = 4.0, jobs: int = 2,
               kwargs_of: Mapping[str, Mapping[str, Any]] | None = None,
               ) -> JobsBenchResult:
    """Time one multi-process sweep under each process backend.

    The disk :class:`~repro.core.resultcache.TraceStore` is pre-populated
    by a serial warmup pass (both backends start from the same steady
    state: traces on disk, nothing in memory), then each backend runs the
    grid with ``jobs`` workers and a cold in-memory LRU, pool startup
    included.  The result cache stays off — every point is evaluated.
    """
    import tempfile

    from ..core.resultcache import TraceStore
    from ..sim.compiled import TraceCache, clear_memory_cache
    from .executor import SweepExecutor, fork_available

    kwargs_of = kwargs_of or {}
    cluster_sizes = list(cluster_sizes)
    specs = [RunRequest.make(app, cs, cache_kb, dict(kwargs_of.get(app, {})))
             for app in apps for cs in cluster_sizes]

    with tempfile.TemporaryDirectory(prefix="repro-bench-jobs-") as tmp:
        store = TraceStore(tmp)
        clear_memory_cache()
        warm = SweepExecutor(backend="serial", trace_cache=TraceCache(store))
        reference = [o.result.to_json() for o in warm.run(specs, config)]

        timings: dict[str, float | None] = {"process": None, "fork": None}
        payloads: dict[str, list[str]] = {}
        for backend in ("process", "fork"):
            if backend == "fork" and not fork_available():
                continue
            clear_memory_cache()
            executor = SweepExecutor(backend=backend, max_workers=jobs,
                                     trace_cache=TraceCache(store))
            t0 = time.perf_counter()
            with executor:
                outcomes = executor.run(specs, config)
            timings[backend] = time.perf_counter() - t0
            payloads[backend] = [o.result.to_json() if o.ok else o.error
                                 for o in outcomes]

    identical = all(p == reference for p in payloads.values())
    return JobsBenchResult(
        apps=list(apps), cluster_sizes=cluster_sizes, n_points=len(specs),
        jobs=jobs, process_s=timings["process"] or 0.0,
        fork_s=timings["fork"], identical=identical,
    )


@dataclass
class NativeBenchResult:
    """Same-session A/B: pure-python replay vs the native C kernel.

    Two timed sides over one fully-warm trace cache, interleaved
    python, native per repeat (fastest pass per side kept): the
    per-point warm sweep (``evaluate_point`` per spec, native serving
    each point through the session's replay seam) under each kernel
    selection.  ``identical`` compares both sides' full RunResult JSON
    byte-for-byte and should never be False.
    """

    apps: list[str]
    cluster_sizes: list[int]
    cache_kb: float | None
    n_points: int
    repeats: int
    python_warm_s: float
    native_warm_s: float
    identical: bool = True

    @property
    def warm_speedup(self) -> float:
        """Per-point warm-sweep improvement of native over pure python."""
        return (self.python_warm_s / self.native_warm_s
                if self.native_warm_s else 0.0)

    @property
    def points_per_s(self) -> float:
        """Sweep points retired per second by the native warm sweep."""
        return (self.n_points / self.native_warm_s
                if self.native_warm_s else 0.0)

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(warm_speedup=round(self.warm_speedup, 3),
                   points_per_s=round(self.points_per_s, 3))
        return out


def bench_native(apps: Sequence[str], config: MachineConfig,
                 cluster_sizes: Iterable[int] = (1, 2, 4, 8),
                 cache_kb: float | None = 4.0,
                 kwargs_of: Mapping[str, Mapping[str, Any]] | None = None,
                 repeats: int = 3) -> NativeBenchResult:
    """Time the per-point warm sweep under each replay kernel.

    A cold, untimed pass first captures every trace into a throwaway
    disk store so both timed sides replay from the same fully-warm
    cache; the A/B axis is the kernel selection
    (:func:`repro.native.set_native`), toggled around each pass and
    restored afterwards.  Raises up front when the native kernel cannot
    be built; callers gate on availability.
    """
    import tempfile

    import repro.native as native

    from ..core.resultcache import TraceStore
    from ..sim.compiled import TraceCache, clear_memory_cache

    kwargs_of = kwargs_of or {}
    cluster_sizes = list(cluster_sizes)
    specs = [RunRequest.make(app, cs, cache_kb, dict(kwargs_of.get(app, {})))
             for app in apps for cs in cluster_sizes]

    prev = os.environ.get("REPRO_NATIVE")
    try:
        native.set_native(True)
        native.kernel()  # fail here, not mid-measurement

        with tempfile.TemporaryDirectory(prefix="repro-bench-native-") as tmp:
            clear_memory_cache()
            cache = TraceCache(TraceStore(tmp))
            native.set_native(False)
            reference = [evaluate_point(s, config,
                                        trace_cache=cache).to_json()
                         for s in specs]

            best: dict[bool, float | None] = {False: None, True: None}
            identical = True

            def warm_pass(use_native: bool) -> list[str]:
                native.set_native(use_native)
                t0 = time.perf_counter()
                out = [evaluate_point(s, config,
                                      trace_cache=cache).to_json()
                       for s in specs]
                elapsed = time.perf_counter() - t0
                prior = best[use_native]
                best[use_native] = (elapsed if prior is None
                                    else min(prior, elapsed))
                return out

            for _ in range(max(1, repeats)):
                identical = (identical and warm_pass(False) == reference
                             and warm_pass(True) == reference)
    finally:
        if prev is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = prev

    return NativeBenchResult(
        apps=list(apps), cluster_sizes=cluster_sizes, cache_kb=cache_kb,
        n_points=len(specs), repeats=max(1, repeats),
        python_warm_s=best[False] or 0.0, native_warm_s=best[True] or 0.0,
        identical=identical,
    )


@dataclass
class TraceBenchResult:
    """Subprocess A/B: materialized vs memory-mapped trace consumption.

    One paper-scale trace is captured to a disk store once, then each
    *mode* — ``materialized-python``, ``mapped-python`` and (when the C
    kernel is available) ``materialized-native``, ``mapped-native`` —
    replays it in a **fresh child process** with the matching
    ``REPRO_TRACE_MMAP`` / ``REPRO_NATIVE`` environment.  Per mode:

    * ``decode_s`` — loading the blob into a usable program (full read +
      column copy when materialized; header validation + ``mmap`` setup
      when mapped, pages faulting in lazily later);
    * ``first_point_s`` — cold-LRU ``evaluate_point`` end to end, the
      latency from disk-resident trace to first sweep result;
    * ``maxrss_kb`` — the child's ``ru_maxrss`` at exit.

    ``first_point_speedup`` and ``maxrss_ratio`` compare the python pair
    (materialized / mapped; both >1 means mapping wins) and back the
    ``trace:*`` keys of :func:`check_floor`.
    """

    app: str
    n_processors: int
    cluster_size: int
    cache_kb: float | None
    app_kwargs: dict[str, Any]
    trace_nbytes: int
    source_ops: int
    capture_s: float
    #: mode name -> {"decode_s", "first_point_s", "maxrss_kb"}
    modes: dict[str, dict[str, float]]
    identical: bool = True

    @property
    def first_point_speedup(self) -> float:
        """Materialized / mapped first-point latency (python kernels)."""
        mat = self.modes.get("materialized-python", {}).get("first_point_s")
        mapped = self.modes.get("mapped-python", {}).get("first_point_s")
        return mat / mapped if mat and mapped else 0.0

    @property
    def maxrss_ratio(self) -> float:
        """Materialized / mapped peak RSS (python kernels)."""
        mat = self.modes.get("materialized-python", {}).get("maxrss_kb")
        mapped = self.modes.get("mapped-python", {}).get("maxrss_kb")
        return mat / mapped if mat and mapped else 0.0

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(first_point_speedup=round(self.first_point_speedup, 3),
                   maxrss_ratio=round(self.maxrss_ratio, 3))
        return out


def _trace_child(payload: Mapping[str, Any]) -> dict[str, Any]:
    """One :func:`bench_trace` measurement, inside a fresh process.

    ``mode == "capture"`` evaluates the point cold so the trace lands in
    the disk store; every other mode measures the pre-captured blob under
    whatever ``REPRO_TRACE_MMAP`` / ``REPRO_NATIVE`` environment the
    parent installed before spawning this child.
    """
    import resource

    from ..sim.compiled import TraceCache, clear_memory_cache
    from .resultcache import TraceStore

    spec = RunRequest.make(payload["app"], payload["cluster_size"],
                          payload["cache_kb"], dict(payload["kwargs"]))
    config = MachineConfig(n_processors=payload["n_processors"])
    store = TraceStore(payload["store_dir"])
    out: dict[str, Any] = {}

    if payload["mode"] == "capture":
        t0 = time.perf_counter()
        result = evaluate_point(spec, config, trace_cache=TraceCache(store))
        out["capture_s"] = time.perf_counter() - t0
    else:
        # the blob's filename stem is its trace key (TraceStore layout)
        key = Path(payload["blob"]).stem
        cache = TraceCache(store)
        t0 = time.perf_counter()
        program = cache.preload(key)
        out["decode_s"] = time.perf_counter() - t0
        if program is None:
            raise RuntimeError(f"trace {key} vanished from {store.directory}")
        clear_memory_cache()  # first_point_s must pay the decode again
        t0 = time.perf_counter()
        result = evaluate_point(spec, config, trace_cache=TraceCache(store))
        out["first_point_s"] = time.perf_counter() - t0
    out["result"] = result.to_json()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def _spawn_trace_child(payload: Mapping[str, Any],
                       env_overrides: Mapping[str, str]) -> dict[str, Any]:
    """Run :func:`_trace_child` in a subprocess and parse its JSON reply."""
    import subprocess
    import sys

    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not prior
                         else src_root + os.pathsep + prior)
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.core.bench", "--trace-child",
         json.dumps(dict(payload))],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench_trace child {payload.get('mode')} failed "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def bench_trace(app: str = "lu", config: MachineConfig | None = None,
                cluster_size: int = 4, cache_kb: float | None = 4.0,
                app_kwargs: Mapping[str, Any] | None = None,
                include_native: bool = False) -> TraceBenchResult:
    """Measure materialized vs memory-mapped consumption of one trace.

    Defaults to the paper-scale LU decomposition (512×512, the streaming
    layer's motivating workload); pass ``app_kwargs`` to rescale for CI.
    A capture child first persists the trace, then one child per mode
    measures decode latency, cold first-point latency, and peak RSS —
    every child re-reads the same blob, so the A/B isolates the
    consumption path.  ``include_native`` adds the C-kernel pair (the
    caller gates on kernel availability).
    """
    import tempfile

    from ..apps.registry import PAPER_PROBLEM_SIZES
    from ..sim.compiled import CompiledProgram

    if config is None:
        config = MachineConfig(n_processors=64)
    kwargs = dict(app_kwargs if app_kwargs is not None
                  else PAPER_PROBLEM_SIZES.get(app, {}))

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        payload = {"app": app, "cluster_size": cluster_size,
                   "cache_kb": cache_kb, "kwargs": kwargs,
                   "n_processors": config.n_processors, "store_dir": tmp,
                   "mode": "capture"}
        captured = _spawn_trace_child(
            payload, {"REPRO_TRACE_MMAP": "1", "REPRO_NATIVE": "0"})
        reference = captured["result"]

        blobs = sorted(Path(tmp, "traces").glob("*.trace"))
        if len(blobs) != 1:
            raise RuntimeError(
                f"expected exactly one captured trace, found {len(blobs)}")
        blob = blobs[0]
        header_probe = CompiledProgram.from_file(blob)

        mode_envs = [
            ("materialized-python", {"REPRO_TRACE_MMAP": "0",
                                     "REPRO_NATIVE": "0"}),
            ("mapped-python", {"REPRO_TRACE_MMAP": "1",
                               "REPRO_NATIVE": "0"}),
        ]
        if include_native:
            mode_envs += [
                ("materialized-native", {"REPRO_TRACE_MMAP": "0",
                                         "REPRO_NATIVE": "1"}),
                ("mapped-native", {"REPRO_TRACE_MMAP": "1",
                                   "REPRO_NATIVE": "1"}),
            ]

        payload["mode"] = "measure"
        payload["blob"] = str(blob)
        modes: dict[str, dict[str, float]] = {}
        identical = True
        for name, overrides in mode_envs:
            reply = _spawn_trace_child(payload, overrides)
            identical = identical and reply["result"] == reference
            modes[name] = {"decode_s": reply["decode_s"],
                           "first_point_s": reply["first_point_s"],
                           "maxrss_kb": reply["maxrss_kb"]}
        trace_nbytes = blob.stat().st_size

    return TraceBenchResult(
        app=app, n_processors=config.n_processors,
        cluster_size=cluster_size, cache_kb=cache_kb, app_kwargs=kwargs,
        trace_nbytes=trace_nbytes, source_ops=header_probe.source_ops,
        capture_s=captured["capture_s"], modes=modes, identical=identical,
    )


def write_report(path: str | Path,
                 engine: Sequence[AppBenchResult],
                 sweep: SweepBenchResult | None = None,
                 config: MachineConfig | None = None,
                 extra: Mapping[str, Any] | None = None,
                 memory: Sequence[MemoryBenchResult] | None = None,
                 jobs: JobsBenchResult | None = None,
                 native: NativeBenchResult | None = None,
                 trace: TraceBenchResult | None = None) -> dict[str, Any]:
    """Assemble and write ``BENCH_engine.json``; returns the payload."""
    payload: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "engine": {r.app: r.to_dict() for r in engine},
    }
    if config is not None:
        payload["config"] = config.to_dict()
    if sweep is not None:
        payload["sweep"] = sweep.to_dict()
    if memory is not None:
        payload["memory"] = {r.stream: r.to_dict() for r in memory}
    if jobs is not None:
        payload["jobs"] = jobs.to_dict()
    if native is not None:
        payload["native"] = native.to_dict()
    if trace is not None:
        payload["trace"] = trace.to_dict()
    if extra:
        payload.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return payload


def check_floor(engine: Sequence[AppBenchResult],
                floor: Mapping[str, float],
                tolerance: float = 0.30,
                memory: Sequence[MemoryBenchResult] | None = None,
                native: NativeBenchResult | None = None,
                trace: TraceBenchResult | None = None,
                ) -> list[str]:
    """Compare measured throughput against a checked-in floor.

    ``floor`` maps app name → minimum acceptable replay ops/sec; keys of
    the form ``"memory:<stream>"`` (e.g. ``"memory:hit"``) instead floor
    the :func:`bench_memory` streams, ``"native:points_per_s"`` /
    ``"native:warm_speedup"`` floor the :func:`bench_native` kernel
    A/B, and ``"trace:first_point_speedup"`` / ``"trace:maxrss_ratio"``
    floor the :func:`bench_trace` streaming A/B (both are
    materialized/mapped ratios — higher means mapping wins more).  A
    measurement below ``floor * (1 - tolerance)`` is a regression.  Returns
    human-readable failure lines (empty = all good).  Entries absent from
    the floor are ignored, so the floor file can cover a subset.
    """
    if not (0.0 <= tolerance < 1.0):
        raise ValueError("tolerance must be in [0, 1)")
    failures = []
    measured = [(r.app, "replay throughput", r.replay_ops_per_s, "ops/s")
                for r in engine]
    measured += [(f"memory:{r.stream}", "protocol throughput",
                  r.ops_per_s, "ops/s")
                 for r in (memory or ())]
    if native is not None:
        measured += [
            ("native:points_per_s", "native warm-sweep throughput",
             native.points_per_s, "points/s"),
            ("native:warm_speedup", "native-vs-python warm speedup",
             native.warm_speedup, "x"),
        ]
    if trace is not None:
        measured += [
            ("trace:first_point_speedup",
             "mapped-vs-materialized first-point speedup",
             trace.first_point_speedup, "x"),
            ("trace:maxrss_ratio", "materialized-vs-mapped peak-RSS ratio",
             trace.maxrss_ratio, "x"),
        ]
    for name, what, got, unit in measured:
        want = floor.get(name)
        if want is None:
            continue
        limit = want * (1.0 - tolerance)
        if got < limit:
            if unit == "x":
                failures.append(
                    f"{name}: {what} {got:.2f}x is below "
                    f"floor {want:.2f} - {tolerance:.0%} = {limit:.2f}")
            else:
                failures.append(
                    f"{name}: {what} {got:,.0f} {unit} is below "
                    f"floor {want:,.0f} - {tolerance:.0%} = {limit:,.0f}")
    return failures


if __name__ == "__main__":  # pragma: no cover - bench_trace child entry
    import sys

    if len(sys.argv) == 3 and sys.argv[1] == "--trace-child":
        print(json.dumps(_trace_child(json.loads(sys.argv[2]))))
        raise SystemExit(0)
    raise SystemExit("repro.core.bench is not a standalone CLI; "
                     "use `repro-clustering bench`")
