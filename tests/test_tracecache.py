"""Trace keys and the two-tier (memory LRU + disk) compiled-trace cache."""

import json
import warnings
import zlib

import pytest

from repro.apps.registry import build_app
from repro.core.config import MachineConfig
from repro.core.executor import evaluate_point
from repro.core.resultcache import TraceStore
from repro.runtime import RunRequest
from repro.sim.compiled import (ENV_TRACE_LRU_BYTES, TraceCache,
                                clear_memory_cache, compile_program,
                                memory_cache_len, trace_key)
from repro.sim.program import OP_WORK


@pytest.fixture(autouse=True)
def _fresh_memory_tier():
    """The memory LRU is process-wide state; isolate it per test."""
    clear_memory_cache()
    yield
    clear_memory_cache()


def tiny_program(n_processors=2):
    def factory(pid):
        yield OP_WORK, 10
    return compile_program(factory, n_processors, 64)


BASE = MachineConfig(n_processors=8, cluster_size=2,
                     cache_kb_per_processor=4.0)
KWARGS = {"n": 32, "block": 8}


def key_at(config=BASE, kwargs=KWARGS, seed=12345, stream_invariant=True):
    return trace_key("lu", kwargs, config, seed,
                     stream_invariant=stream_invariant)


# ---------------------------------------------------------------------- keys

class TestTraceKey:
    def test_seed_changes_key(self):
        assert key_at(seed=1) != key_at(seed=2)

    def test_problem_scale_changes_key(self):
        assert key_at(kwargs={"n": 32, "block": 8}) != \
            key_at(kwargs={"n": 64, "block": 8})

    def test_line_size_changes_key(self):
        other = MachineConfig(n_processors=8, cluster_size=2,
                              cache_kb_per_processor=4.0, line_size=32)
        assert key_at(config=other) != key_at()

    def test_processor_count_changes_key(self):
        other = MachineConfig(n_processors=16, cluster_size=2,
                              cache_kb_per_processor=4.0)
        assert key_at(config=other) != key_at()

    def test_cluster_size_preserves_key_for_invariant_streams(self):
        """The whole point: one trace serves the entire clustering sweep."""
        for cluster in (1, 4, 8):
            other = MachineConfig(n_processors=8, cluster_size=cluster,
                                  cache_kb_per_processor=4.0)
            assert key_at(config=other) == key_at()

    def test_cache_capacity_preserves_key_for_invariant_streams(self):
        for cache_kb in (None, 0.5, 64.0):
            other = MachineConfig(n_processors=8, cluster_size=2,
                                  cache_kb_per_processor=cache_kb)
            assert key_at(config=other) == key_at()

    def test_dynamic_key_covers_full_config(self):
        """Recorded captures are config-specific; their keys must be too."""
        other = MachineConfig(n_processors=8, cluster_size=4,
                              cache_kb_per_processor=4.0)
        assert key_at(config=other, stream_invariant=False) != \
            key_at(stream_invariant=False)


# --------------------------------------------------------------------- tiers

class TestTraceCache:
    def test_memory_tier_round_trip(self):
        cache = TraceCache()
        assert cache.get("k") is None
        program = tiny_program()
        cache.put("k", program)
        assert cache.get("k") is program
        assert cache.memory_hits == 1 and cache.misses == 1

    def test_memory_tier_shared_across_instances(self):
        program = tiny_program()
        TraceCache().put("shared", program)
        assert TraceCache().get("shared") is program

    def test_disk_tier_round_trip(self, tmp_path):
        cache = TraceCache(TraceStore(tmp_path))
        cache.put("k", tiny_program())
        clear_memory_cache()  # force the disk path
        fresh = TraceCache(TraceStore(tmp_path))
        got = fresh.get("k")
        assert got is not None and fresh.disk_hits == 1
        assert [list(o) for o in got.ops] == [list(o) for o in tiny_program().ops]

    def test_corrupt_disk_entry_warns_and_misses(self, tmp_path):
        store = TraceStore(tmp_path)
        cache = TraceCache(store)
        cache.put("k", tiny_program())
        clear_memory_cache()
        store.path_for("k").write_bytes(b"garbage not a trace")
        with pytest.warns(UserWarning, match="corrupt compiled trace"):
            assert cache.get("k") is None
        # regeneration overwrites the bad entry and it reads back fine
        cache.put("k", tiny_program())
        clear_memory_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("k") is not None

    def test_retired_format_blob_is_a_miss_then_overwritten(self, tmp_path):
        """A blob of the retired zlib format (magic ``RPROTRC`` + ``1``)
        decodes to a warned miss; the next capture replaces it."""
        program = tiny_program()
        payload = b"".join(col.tobytes()
                           for pair in zip(program.ops, program.args)
                           for col in pair)
        header = json.dumps({
            "n_processors": program.n_processors,
            "line_size": program.line_size,
            "source_ops": program.source_ops,
            "fused_work": program.fused_work,
            "counts": [len(o) for o in program.ops], "itemsize": 8,
            "byteorder": "little", "crc32": zlib.crc32(payload),
        }, sort_keys=True).encode("utf-8")
        blob = (b"RPROTRC" + b"1" + len(header).to_bytes(4, "little")
                + header + zlib.compress(payload, 1))
        store = TraceStore(tmp_path)
        store.put_bytes("k", blob)
        cache = TraceCache(store)
        with pytest.warns(UserWarning,
                          match="discarding corrupt compiled trace"):
            assert cache.get("k") is None
        assert cache.misses == 1
        cache.put("k", program)
        clear_memory_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = TraceCache(store).get("k")
        assert got is not None
        assert [list(o) for o in got.ops] == [list(o) for o in program.ops]
        assert [list(a) for a in got.args] == [list(a) for a in program.args]

    def test_lru_capacity_env_override(self, monkeypatch):
        # a byte budget that holds exactly two of the (equal-size) programs
        monkeypatch.setenv(ENV_TRACE_LRU_BYTES,
                           str(2 * tiny_program().resident_nbytes))
        cache = TraceCache()
        for i in range(3):
            cache.put(f"k{i}", tiny_program())
        assert memory_cache_len() == 2
        assert cache.get("k0") is None      # evicted (oldest)
        assert cache.get("k2") is not None  # newest survives

    def test_lru_get_refreshes_recency(self, monkeypatch):
        monkeypatch.setenv(ENV_TRACE_LRU_BYTES,
                           str(2 * tiny_program().resident_nbytes))
        cache = TraceCache()
        cache.put("a", tiny_program())
        cache.put("b", tiny_program())
        cache.get("a")                      # a becomes most recent
        cache.put("c", tiny_program())      # evicts b, not a
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_stats_string(self):
        cache = TraceCache()
        cache.get("missing")
        assert "1 misses" in cache.stats()


# ----------------------------------------------------------- executor usage

class TestExecutorIntegration:
    def test_invariant_app_reuses_trace_across_clusters(self):
        base = MachineConfig(cache_kb_per_processor=4.0)
        cache = TraceCache()
        specs = [RunRequest.make("lu", cs, 4.0, KWARGS) for cs in (1, 2, 4)]
        results = [evaluate_point(s, base, trace_cache=cache) for s in specs]
        # one compile, then hits: the second and third points reuse it
        assert cache.memory_hits == 2 and cache.misses == 1
        # and every mode agrees with the uncached generator path
        for spec, result in zip(specs, results):
            want = evaluate_point(spec, base, use_compiled=False)
            assert result.to_json() == want.to_json()

    def test_dynamic_app_caches_per_config(self):
        base = MachineConfig(cache_kb_per_processor=4.0)
        cache = TraceCache()
        spec = RunRequest.make("raytrace", 2, 4.0,
                              {"width": 8, "height": 8, "n_spheres": 8})
        first = evaluate_point(spec, base, trace_cache=cache)
        assert cache.misses == 1
        second = evaluate_point(spec, base, trace_cache=cache)
        assert cache.memory_hits == 1
        assert first.to_json() == second.to_json()

    def test_disk_tier_spans_processes_conceptually(self, tmp_path):
        """A fresh process (simulated by clearing the LRU) hits the store."""
        base = MachineConfig(cache_kb_per_processor=4.0)
        spec = RunRequest.make("lu", 2, 4.0, KWARGS)
        store = TraceStore(tmp_path)
        first = evaluate_point(spec, base, trace_cache=TraceCache(store))
        clear_memory_cache()
        cache = TraceCache(TraceStore(tmp_path))
        second = evaluate_point(spec, base, trace_cache=cache)
        assert cache.disk_hits == 1
        assert first.to_json() == second.to_json()
