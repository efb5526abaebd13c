"""Sweep driver: run one application across cluster sizes and cache sizes.

This module is the experimental harness behind every figure of the paper:

* :meth:`ClusteringStudy.cluster_sweep` — fix the per-processor cache size
  (or infinite), vary processors-per-cluster (Figures 2 and 3);
* :meth:`ClusteringStudy.capacity_sweep` — the full cache-size ×
  cluster-size grid (Figures 4-8);
* :func:`normalize_sweep` — the paper's normalization: every bar is
  expressed as a percentage of the 1-processor-per-cluster execution time
  *at the same cache size* ("The bars for every cache size ... are
  normalized to the 1 processor per cache time with that cache size").

Every point builds a **fresh application instance** (applications carry
their numerical state) with the same seed, so all configurations solve the
identical problem.

Execution is delegated to a :class:`~repro.core.executor.SweepExecutor`:
attach one to parallelize a sweep over processes and/or reuse finished
points from the persistent result cache.  Without one, a default serial,
uncached executor reproduces the historical behaviour exactly.  Either
way, points share compiled traces (:mod:`repro.sim.compiled`): an app's
reference stream is captured once and replayed at every other point of
the sweep, which is where most of a sweep's wall-clock used to go.
Each individual point is ultimately evaluated by the canonical runtime
pipeline, :class:`repro.runtime.RunSession` (``docs/INTERNALS.md`` §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from ..runtime.plan import RunRequest
from .config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                     PAPER_NETWORK_LOADS, PROTOCOLS, MachineConfig)
from .executor import SweepExecutor, raise_failures
from .metrics import RunResult

__all__ = ["SweepPoint", "ClusteringStudy", "normalize_sweep",
           "CacheKey", "cache_label"]

#: a per-processor cache size in KB, or None for infinite
CacheKey = float | int | None


def cache_label(cache_kb: CacheKey) -> str:
    """Human label for a cache size key ('4k', '32k', 'inf')."""
    return "inf" if cache_kb is None else f"{cache_kb:g}k"


@dataclass(frozen=True)
class SweepPoint:
    """One simulated configuration and its outcome."""

    app: str
    cluster_size: int
    cache_kb: CacheKey
    result: RunResult

    @property
    def execution_time(self) -> int:
        return self.result.execution_time


@dataclass
class ClusteringStudy:
    """Runs one application over the paper's machine-organisation grid.

    Parameters
    ----------
    app:
        Registry name of the application.
    base_config:
        Machine template; cluster size and cache size are overridden per
        point.  Defaults to the paper's 64-processor machine.
    app_kwargs:
        Problem-size overrides forwarded to the application constructor.
    executor:
        Evaluation engine for the sweep points.  ``None`` means a fresh
        serial, uncached :class:`SweepExecutor` — the original in-process
        behaviour.  A ``process``-backend executor fans the grid out over
        cores; an attached result cache memoizes finished points.  Failed
        points raise :class:`~repro.core.executor.SweepExecutionError`.
    """

    app: str
    base_config: MachineConfig = field(default_factory=MachineConfig)
    app_kwargs: dict[str, Any] = field(default_factory=dict)
    executor: SweepExecutor | None = None

    def _executor(self) -> SweepExecutor:
        return self.executor if self.executor is not None else SweepExecutor()

    def _spec(self, cluster_size: int, cache_kb: CacheKey) -> RunRequest:
        return RunRequest.make(self.app, cluster_size, cache_kb,
                              self.app_kwargs)

    def run_point(self, cluster_size: int, cache_kb: CacheKey) -> SweepPoint:
        """Simulate one (cluster size, cache size) configuration."""
        outcome = self._executor().run_one(self._spec(cluster_size, cache_kb),
                                           self.base_config)
        raise_failures([outcome])
        return SweepPoint(self.app, cluster_size, cache_kb, outcome.result)

    def _run_grid(self, grid: list[tuple[Any, RunRequest]]) -> list[RunResult]:
        outcomes = self._executor().run([spec for _, spec in grid],
                                        self.base_config)
        raise_failures(outcomes)
        return [o.result for o in outcomes]

    def cluster_sweep(self, cache_kb: CacheKey = None,
                      cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                      ) -> dict[int, SweepPoint]:
        """Vary processors-per-cluster at one cache size (Figure 2/3 axis)."""
        grid = [(c, self._spec(c, cache_kb)) for c in cluster_sizes]
        results = self._run_grid(grid)
        return {c: SweepPoint(self.app, c, cache_kb, r)
                for (c, _), r in zip(grid, results)}

    def capacity_sweep(self, cache_sizes: Iterable[CacheKey] = PAPER_CACHE_SIZES_KB,
                       cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                       ) -> dict[tuple[CacheKey, int], SweepPoint]:
        """The cache-size × cluster-size grid of Figures 4-8."""
        grid = [((kb, c), self._spec(c, kb))
                for kb in cache_sizes for c in cluster_sizes]
        results = self._run_grid(grid)
        return {(kb, c): SweepPoint(self.app, c, kb, r)
                for ((kb, c), _), r in zip(grid, results)}

    def contention_sweep(self, loads: Iterable[float] = PAPER_NETWORK_LOADS,
                         cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                         cache_kb: CacheKey = None,
                         ) -> dict[tuple[float, int], SweepPoint]:
        """The network-load × cluster-size grid under the mesh provider.

        Every point runs with ``provider="mesh"`` and the given
        ``background_load``; topology and hop/directory costs come from
        the base config's ``network`` block.  Load 0.0 anchors the sweep
        with contention *off* — the pure calibrated hop model, which
        matches the flat Table 1 provider's execution times — so the
        degradation baseline and the Table-1 cross-check are the same
        point and every nonzero load measures queueing (the simulated
        traffic's own plus the synthetic background) against an
        uncontended network.

        Returns ``{(background_load, cluster_size): point}``;
        :func:`normalize_sweep` groups such keys by load, and
        :func:`repro.analysis.figures.figure_from_contention_sweep`
        renders execution time vs load at each cluster size.
        """
        grid = []
        for load in loads:
            net = replace(self.base_config.network, provider="mesh",
                          background_load=float(load),
                          contention=load > 0)
            for c in cluster_sizes:
                spec = RunRequest.make(self.app, c, cache_kb,
                                      self.app_kwargs, network=net)
                grid.append(((float(load), c), spec))
        results = self._run_grid(grid)
        return {key: SweepPoint(self.app, key[1], cache_kb, r)
                for (key, _), r in zip(grid, results)}

    def protocol_sweep(self, protocols: Iterable[str] = PROTOCOLS,
                       cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                       cache_kb: CacheKey = None,
                       ) -> dict[tuple[str, int], SweepPoint]:
        """The coherence-protocol × cluster-size grid.

        Every point overrides the base config's ``protocol`` through the
        registry seam (:func:`repro.memory.make_memory_system`), so the
        same compiled trace drives a full-bit-vector directory machine,
        a snoopy-bus cluster machine, and a directoryless shared-LLC
        machine over identical workloads.  Points under every protocol
        replay on the native C kernel when it is available
        (:func:`repro.sim.nativereplay.try_replay_native`), else on the
        canonical python engine — byte-identical either way.

        Returns ``{(protocol, cluster_size): point}``;
        :func:`repro.analysis.figures.figure_from_protocol_sweep`
        renders the cross-protocol comparison and
        :func:`repro.analysis.tables.render_protocol_comparison` the
        companion table.
        """
        grid = [((p, c), RunRequest.make(self.app, c, cache_kb,
                                        self.app_kwargs, protocol=p))
                for p in protocols for c in cluster_sizes]
        results = self._run_grid(grid)
        return {key: SweepPoint(self.app, key[1], cache_kb, r)
                for (key, _), r in zip(grid, results)}


def normalize_sweep(points: Mapping[tuple[CacheKey, int], SweepPoint] |
                    Mapping[int, SweepPoint],
                    baseline_cluster: int = 1,
                    ) -> dict[Any, dict[str, float]]:
    """Express every point's breakdown as % of its cache size's baseline.

    Accepts either a cluster sweep (``{cluster: point}``) or a capacity
    sweep (``{(cache_kb, cluster): point}``).  Each group of points sharing
    a cache size is normalized to the ``baseline_cluster`` member of that
    group, reproducing the paper's bar heights (baseline bar = 100.0).
    """
    items = list(points.items())
    if not items:
        return {}
    if isinstance(items[0][0], tuple):
        def group_of(key: Any) -> Any:
            return key[0]

        def cluster_of(key: Any) -> int:
            return key[1]
    else:
        def group_of(key: Any) -> Any:
            return None

        def cluster_of(key: Any) -> int:
            return key

    baselines: dict[Any, int] = {}
    for key, point in items:
        if cluster_of(key) == baseline_cluster:
            baselines[group_of(key)] = point.result.execution_time
    out: dict[Any, dict[str, float]] = {}
    for key, point in items:
        base = baselines.get(group_of(key))
        if base is None:
            raise ValueError(
                f"no baseline (cluster={baseline_cluster}) run for group "
                f"{group_of(key)!r}")
        out[key] = point.result.breakdown.normalized_to(base)
    return out
