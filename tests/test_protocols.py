"""Protocol-seam tests: registry, DLS oracle parity, cache-key guards.

Three layers of coverage for the pluggable-protocol refactor:

* the registry in :mod:`repro.memory` is the single construction seam —
  it covers every declared protocol name, rejects undeclared ones, and
  the package-level ``SnoopyClusterMemorySystem`` alias warns about
  bypassing it;
* the ``"dls"`` backend is pinned against its object-per-line oracle
  (:class:`repro.memory.refmodel.RefDLSMemorySystem`) on hypothesis-
  generated access streams — outcome tags, stall cycles, counters,
  classification, write-backs, slice contents, and LRU victim choice
  must agree step for step;
* cache-key collision guards: two runs differing only in ``protocol``
  must produce distinct ``point_key``\\ s, never share a result-cache
  entry, and (for the timing-dynamic apps) never share a compiled-trace
  entry — while stream-invariant apps *do* share the trace across
  protocols by design, because the reference stream is protocol-free.
"""

import random
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory as memory_pkg
from repro.core.config import PROTOCOLS, MachineConfig, NetworkConfig
from repro.core.metrics import MissCause
from repro.core.resultcache import ResultCache, point_key
from repro.memory import (CoherentMemorySystem, DLSMemorySystem,
                          PROTOCOL_REGISTRY, make_memory_system,
                          register_protocol)
from repro.memory.allocation import PageAllocator
from repro.memory.refmodel import RefDLSMemorySystem
from repro.memory.snoopy import SnoopyClusterMemorySystem
from repro.sim.compiled import trace_key
from repro.sim.nativereplay import native_fusible

# ---------------------------------------------------------------- config


class TestConfigProtocolAxis:
    def test_default_is_directory(self):
        assert MachineConfig().protocol == "directory"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown coherence protocol"):
            MachineConfig(protocol="mesiv2")

    def test_with_protocol_variant(self):
        cfg = MachineConfig().with_protocol("dls")
        assert cfg.protocol == "dls"
        assert MachineConfig().protocol == "directory"  # original untouched

    def test_to_dict_carries_protocol(self):
        for proto in PROTOCOLS:
            assert MachineConfig(
                protocol=proto).to_dict()["protocol"] == proto

    def test_describe_mentions_only_non_default(self):
        # golden runtime output under the default protocol must not change
        assert "directory" not in MachineConfig().describe()
        assert "dls" in MachineConfig(protocol="dls").describe()


# -------------------------------------------------------------- registry


class TestProtocolRegistry:
    def test_registry_covers_every_declared_protocol(self):
        assert set(PROTOCOL_REGISTRY) == set(PROTOCOLS)

    def test_make_memory_system_dispatches_on_protocol(self):
        expected = {"directory": CoherentMemorySystem,
                    "snoopy": SnoopyClusterMemorySystem,
                    "dls": DLSMemorySystem}
        for proto, cls in expected.items():
            cfg = MachineConfig(n_processors=4, protocol=proto)
            assert type(make_memory_system(cfg)) is cls

    def test_register_protocol_rejects_undeclared_names(self):
        with pytest.raises(ValueError, match="not declared"):
            register_protocol("token-ring", CoherentMemorySystem)

    def test_register_protocol_substitutes_declared_backend(self):
        original = PROTOCOL_REGISTRY["dls"]

        class Instrumented(DLSMemorySystem):
            pass

        try:
            register_protocol("dls", Instrumented)
            cfg = MachineConfig(n_processors=4, protocol="dls")
            assert type(make_memory_system(cfg)) is Instrumented
        finally:
            register_protocol("dls", original)

    def test_package_level_snoopy_alias_is_gone(self):
        # backends are selected through the registry; the concrete class
        # is importable only from its module
        assert not hasattr(memory_pkg, "SnoopyClusterMemorySystem")
        assert "SnoopyClusterMemorySystem" not in memory_pkg.__all__

    def test_module_level_snoopy_class_stays_silent(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SnoopyClusterMemorySystem(cfg)  # probes import the module class

    def test_registry_construction_does_not_warn(self):
        cfg = MachineConfig(n_processors=4, protocol="snoopy")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_memory_system(cfg)


# ------------------------------------------------- dls vs refmodel oracle

_shapes = st.sampled_from([
    # (n_processors, cluster_size, cache_kb)
    (2, 1, 0.0625), (4, 2, 0.0625), (4, 2, 0.125), (8, 4, 0.125),
    (4, 1, None), (8, 2, None), (4, 4, 0.0625),
])

_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "retry"]),
              st.integers(0, 7),       # processor (mod n below)
              st.integers(0, 63),      # line
              st.integers(0, 40)),     # time advance
    max_size=300)


def _assert_step_parity(prod, ref, config):
    for cluster, (pc, rc) in enumerate(zip(prod.counters, ref.counters)):
        assert pc.reads == rc["reads"]
        assert pc.writes == rc["writes"]
        assert pc.read_misses == rc["read_misses"]
        assert pc.write_misses == rc["write_misses"]
        assert pc.merges == rc["merges"]
        assert pc.merge_refetches == rc["merge_refetches"]
        assert pc.prefetch_hits == rc["prefetch_hits"]
        assert pc.by_cause[MissCause.COLD] == rc["cold"]
        assert pc.by_cause[MissCause.COHERENCE] == rc["coherence"]
        assert pc.by_cause[MissCause.CAPACITY] == rc["capacity"]
    assert prod.writebacks == ref.writebacks
    for cluster in range(config.n_clusters):
        # same resident lines in the same LRU order = same victim choice
        assert (prod.caches[cluster].resident_lines()
                == ref.slices[cluster].resident_lines())


@settings(max_examples=150, deadline=None)
@given(shape=_shapes, ops=_ops)
def test_dls_matches_refmodel_oracle(shape, ops):
    n_proc, csize, cache_kb = shape
    config = MachineConfig(n_processors=n_proc, cluster_size=csize,
                           cache_kb_per_processor=cache_kb, protocol="dls")
    allocator = PageAllocator(config.n_clusters, config.page_size,
                              config.line_size)
    prod = DLSMemorySystem(config, allocator)
    ref = RefDLSMemorySystem(config, allocator)
    now = 0
    for kind, proc, line, dt in ops:
        proc %= n_proc
        now += dt
        if kind == "write":
            prod.write(proc, line, now)
            ref.write(proc, line, now)
        else:
            retry = kind == "retry"
            got = prod.read(proc, line, now, retry)
            want = ref.read(proc, line, now, retry)
            assert tuple(got) == tuple(want)
        _assert_step_parity(prod, ref, config)
    prod.check_invariants()


def test_dls_invariant_every_resident_line_is_home(seeded=11):
    """Long random drive, then the defining DLS invariant must hold."""
    rng = random.Random(seeded)
    config = MachineConfig(n_processors=8, cluster_size=2,
                           cache_kb_per_processor=0.125, protocol="dls")
    mem = make_memory_system(config)
    now = 0
    for _ in range(5000):
        now += rng.randrange(10)
        if rng.random() < 0.3:
            mem.write(rng.randrange(8), rng.randrange(512), now)
        else:
            mem.read(rng.randrange(8), rng.randrange(512), now)
    mem.check_invariants()
    agg = mem.aggregate_counters()
    assert agg.reads and agg.writes and agg.read_misses
    # single cached copy per line: upgrade misses cannot exist
    assert agg.upgrade_misses == 0


# ------------------------------------------------------------ native gate


class TestNativeGate:
    """The C kernel drives a fresh, flat, fully-associative memory system
    of every protocol, and declines everything else."""

    CFG = MachineConfig(n_processors=4, cluster_size=2,
                        cache_kb_per_processor=4.0)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fresh_memory_of_every_protocol_is_fusible(self, protocol):
        cfg = self.CFG.with_protocol(protocol)
        assert native_fusible(make_memory_system(cfg))
        assert native_fusible(make_memory_system(
            replace(cfg, cache_kb_per_processor=None)))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mesh_latency_declines(self, protocol):
        cfg = self.CFG.with_protocol(protocol).with_network(
            NetworkConfig(provider="mesh"))
        assert not native_fusible(make_memory_system(cfg))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_set_associative_caches_decline(self, protocol):
        cfg = self.CFG.with_protocol(protocol).with_associativity(2)
        assert not native_fusible(make_memory_system(cfg))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_more_than_64_clusters_decline(self, protocol):
        cfg = MachineConfig(n_processors=65, cluster_size=1,
                            cache_kb_per_processor=0.0625,
                            protocol=protocol)
        assert not native_fusible(make_memory_system(cfg))
        assert native_fusible(make_memory_system(
            replace(cfg, n_processors=64)))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_used_memory_declines(self, protocol, op):
        memory = make_memory_system(self.CFG.with_protocol(protocol))
        getattr(memory, op)(1, 7, 0)
        assert not native_fusible(memory)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_substituted_factory_declines(self, protocol):
        original = PROTOCOL_REGISTRY[protocol]

        class Instrumented(original):
            pass

        try:
            register_protocol(protocol, Instrumented)
            cfg = self.CFG.with_protocol(protocol)
            assert not native_fusible(make_memory_system(cfg))
        finally:
            register_protocol(protocol, original)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_try_replay_native_serves_every_protocol(self, protocol):
        import repro.native as native
        from repro.sim.compiled import compile_program
        from repro.sim.engine import execute_program
        from repro.sim.nativereplay import try_replay_native
        from repro.sim.program import Barrier, Read, Write

        if native.kernel() is None:
            pytest.skip("native kernel unavailable (no C compiler)")

        def factory(pid):
            yield Write(64 * pid)
            yield Barrier(0)
            yield Read(64 * ((pid + 1) % 4))

        class Owner:
            def __init__(self, cfg):
                self.allocator = PageAllocator(
                    cfg.n_clusters, cfg.page_size, cfg.line_size)

            def ensure_setup(self):
                pass

        cfg = self.CFG.with_protocol(protocol)
        program = compile_program(factory, 4, cfg.line_size)
        got = try_replay_native(cfg, Owner(cfg), program)
        assert got is not None
        assert got.to_json() == execute_program(
            cfg, make_memory_system(cfg), program, compiled=True).to_json()


# ----------------------------------------------------- cache-key guards

TINY_OCEAN = dict(n=16, n_vcycles=1)


class TestCacheKeyCollisionGuard:
    def test_point_keys_differ_by_protocol_only(self):
        base = MachineConfig(n_processors=8, cluster_size=2,
                             cache_kb_per_processor=4.0)
        keys = {point_key("ocean", TINY_OCEAN, base.with_protocol(p))
                for p in PROTOCOLS}
        assert len(keys) == len(PROTOCOLS)
        # and the default-protocol key is byte-stable against the
        # explicit spelling of the default
        assert (point_key("ocean", TINY_OCEAN, base)
                == point_key("ocean", TINY_OCEAN,
                             base.with_protocol("directory")))

    def test_trace_keys_differ_by_protocol_for_dynamic_apps(self):
        base = MachineConfig(n_processors=8)
        dynamic = {trace_key("barnes", {"n_particles": 64},
                             base.with_protocol(p), seed=0,
                             stream_invariant=False)
                   for p in PROTOCOLS}
        assert len(dynamic) == len(PROTOCOLS)

    def test_stream_invariant_traces_shared_across_protocols(self):
        # the reference stream of an invariant app is protocol-free, so
        # sharing the compiled trace across protocols is by design
        base = MachineConfig(n_processors=8)
        invariant = {trace_key("ocean", TINY_OCEAN, base.with_protocol(p),
                               seed=0, stream_invariant=True)
                     for p in PROTOCOLS}
        assert len(invariant) == 1

    def test_result_cache_never_shares_entries_across_protocols(
            self, tmp_path):
        from repro.core.executor import SweepExecutor
        from repro.runtime import RunRequest

        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        base = MachineConfig(n_processors=8)
        spec_dir = RunRequest.make("ocean", 2, 4.0, TINY_OCEAN)
        spec_dls = RunRequest.make("ocean", 2, 4.0, TINY_OCEAN,
                                  protocol="dls")

        first = executor.run_one(spec_dir, base)
        assert cache.hits == 0 and cache.misses == 1
        crossed = executor.run_one(spec_dls, base)
        # differing only in protocol: must miss, must execute, and must
        # produce a different result (DLS pays mandatory remote traffic)
        assert cache.hits == 0 and cache.misses == 2
        assert (crossed.result.execution_time
                != first.result.execution_time)

        again = executor.run_one(spec_dls, base)
        assert cache.hits == 1  # the honest hit: identical protocol
        assert again.result.to_json() == crossed.result.to_json()

    def test_daemon_stats_stay_honest_across_protocols(self, serve_daemon):
        from repro.runtime import RunRequest

        stats0 = serve_daemon.service.stats_dict()
        with serve_daemon.client() as client:
            r_dir = client.run_point(
                RunRequest.make("ocean", 2, 4.0, TINY_OCEAN))
            r_dls = client.run_point(
                RunRequest.make("ocean", 2, 4.0, TINY_OCEAN,
                                protocol="dls"))
            r_dls_again = client.run_point(
                RunRequest.make("ocean", 2, 4.0, TINY_OCEAN,
                                protocol="dls"))
        assert r_dir.key != r_dls.key
        assert r_dls_again.key == r_dls.key
        assert not r_dir.cached and not r_dls.cached  # distinct executions
        assert r_dls_again.cached  # the honest hit
        assert (r_dls.result.execution_time
                != r_dir.result.execution_time)
        stats = serve_daemon.service.stats_dict()
        assert stats["executed"] >= stats0["executed"] + 2
        assert stats["cache_hits"] >= stats0["cache_hits"] + 1


# ------------------------------------------------------- protocol sweep


class TestProtocolSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.core.study import ClusteringStudy

        study = ClusteringStudy("ocean", MachineConfig(n_processors=8),
                                dict(TINY_OCEAN))
        return study.protocol_sweep(PROTOCOLS, (1, 2), cache_kb=4.0)

    def test_grid_shape_and_protocol_effects(self, sweep):
        assert set(sweep) == {(p, c) for p in PROTOCOLS for c in (1, 2)}
        times = {k: pt.execution_time for k, pt in sweep.items()}
        # all three protocols simulate; DLS's mandatory remote traffic
        # makes it strictly slower than the directory at every cluster
        for c in (1, 2):
            assert times[("dls", c)] > times[("directory", c)]

    def test_directory_column_matches_cluster_sweep(self, sweep):
        from repro.core.study import ClusteringStudy

        study = ClusteringStudy("ocean", MachineConfig(n_processors=8),
                                dict(TINY_OCEAN))
        plain = study.cluster_sweep(4.0, (1, 2))
        for c in (1, 2):
            assert (sweep[("directory", c)].result.to_json()
                    == plain[c].result.to_json())

    def test_figure_from_protocol_sweep(self, sweep):
        from repro.analysis import figure_from_protocol_sweep

        fig = figure_from_protocol_sweep("cross-protocol", sweep)
        assert [g.label for g in fig.groups] == list(PROTOCOLS)
        assert all(len(g.bars) == 2 for g in fig.groups)
        # global baseline: directory @ 1p is the 100% bar
        assert fig.bar("directory", "1p").total == pytest.approx(100.0)
        assert fig.bar("dls", "1p").total > 100.0

    def test_render_protocol_comparison(self, sweep):
        from repro.analysis import render_protocol_comparison

        table = render_protocol_comparison(sweep, "ocean: protocols")
        for proto in PROTOCOLS:
            assert proto in table
        assert "vs directory" in table
        assert "1.000" in table
