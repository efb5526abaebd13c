"""Correctness of the persistent result cache.

The dangerous failure modes of a memoizing harness are (a) serving a stale
result for a configuration that actually changed and (b) crashing on a
damaged cache file.  These tests pin the key's sensitivity to *every*
simulation input and the corrupt-entry-is-a-miss contract.
"""

import json

import pytest

from repro.core.config import LatencyModel, MachineConfig, NetworkConfig
from repro.core.executor import SweepExecutor
from repro.core.metrics import (MissCause, MissCounters, RunResult,
                                TimeBreakdown)
from repro.core.resultcache import (ENV_CACHE_DIR, ResultCache,
                                    default_cache_dir, point_key)
from repro.runtime import RunRequest

CFG = MachineConfig(n_processors=8)
OCEAN_KW = {"n": 16, "n_vcycles": 1}


def tiny_result() -> RunResult:
    counters = MissCounters(reads=6, writes=4,
                            read_misses=1, write_misses=1)
    counters.record_cause(MissCause.COLD)
    counters.record_cause(MissCause.COLD)
    return RunResult(execution_time=123,
                     breakdown=TimeBreakdown(100, 20, 2, 1),
                     per_processor=[TimeBreakdown(100, 20, 2, 1)],
                     misses=counters,
                     per_cluster_misses=[counters])


# ------------------------------------------------------------------- keys


class TestKeySensitivity:
    def test_stable_for_identical_inputs(self):
        assert point_key("ocean", OCEAN_KW, CFG) == \
            point_key("ocean", dict(OCEAN_KW), MachineConfig(n_processors=8))

    def test_app_name_changes_key(self):
        assert point_key("ocean", {}, CFG) != point_key("lu", {}, CFG)

    def test_app_kwarg_changes_key(self):
        assert point_key("ocean", {"n": 16}, CFG) != \
            point_key("ocean", {"n": 32}, CFG)
        assert point_key("ocean", {}, CFG) != \
            point_key("ocean", {"n": 16}, CFG)

    @pytest.mark.parametrize("variant", [
        MachineConfig(n_processors=16),
        MachineConfig(n_processors=8, cluster_size=2),
        MachineConfig(n_processors=8, cache_kb_per_processor=4),
        MachineConfig(n_processors=8, associativity=2),
        MachineConfig(n_processors=8, line_size=32),
        MachineConfig(n_processors=8, page_size=8192),
        MachineConfig(n_processors=8,
                      latency=LatencyModel(remote_clean=120)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(provider="mesh")),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(topology="crossbar")),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(wire_cycles=2)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(router_cycles=2)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(directory_cycles=10)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(background_load=0.3)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(contention=False)),
    ], ids=["processors", "cluster", "cache", "assoc", "line", "page",
            "latency", "net-provider", "net-topology", "net-wire",
            "net-router", "net-directory", "net-load", "net-contention"])
    def test_every_config_field_changes_key(self, variant):
        """No MachineConfig field may be invisible to the cache key."""
        assert point_key("ocean", {}, CFG) != point_key("ocean", {}, variant)

    def test_version_changes_key(self):
        assert point_key("ocean", {}, CFG, version="1.0.0") != \
            point_key("ocean", {}, CFG, version="1.0.1")

    def test_kwarg_order_does_not_change_key(self):
        assert point_key("ocean", {"a": 1, "b": 2}, CFG) == \
            point_key("ocean", {"b": 2, "a": 1}, CFG)


# -------------------------------------------------------------- directory


class TestDirectoryResolution:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ResultCache().directory == tmp_path / "custom"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_cache_dir().name == "repro-clustering"

    def test_explicit_argument_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        cache = ResultCache(tmp_path / "arg")
        assert cache.directory == tmp_path / "arg"


# ----------------------------------------------------------------- get/put


class TestGetPut:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_result()
        key = cache.key("ocean", OCEAN_KW, CFG)
        assert cache.get(key) is None  # cold
        cache.put(key, result)
        assert key in cache
        assert cache.get(key) == result
        assert (cache.hits, cache.misses) == (1, 1)

    def test_missing_directory_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path / "never" / "created")
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    @pytest.mark.parametrize("damage", [
        lambda text: "",                             # empty file
        lambda text: text[: len(text) // 2],         # truncated write
        lambda text: "definitely not json {",        # garbage
        lambda text: json.dumps({"wrong": "shape"}),  # missing result
        lambda text: json.dumps({"result": {"execution_time": "NaNsense"}}),
    ], ids=["empty", "truncated", "garbage", "wrong-shape", "bad-values"])
    def test_corrupt_entry_is_miss_then_rewritten(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        result = tiny_result()
        key = cache.key("ocean", OCEAN_KW, CFG)
        cache.put(key, result)
        path = cache.path_for(key)
        path.write_text(damage(path.read_text()))
        assert cache.get(key) is None           # corrupt → miss, no raise
        cache.put(key, result)                   # harness re-runs + rewrites
        assert cache.get(key) == result

    def test_put_is_atomic_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, tiny_result())
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"key{i}", tiny_result())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_put_swallows_unwritable_storage(self, tmp_path, monkeypatch):
        # can't rely on chmod (tests may run as root) — fail the temp file
        import tempfile

        def denied(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", denied)
        cache = ResultCache(tmp_path)
        cache.put("x" * 64, tiny_result())  # must not raise
        assert cache.get("x" * 64) is None


# ------------------------------------------------------- executor coupling


class TestExecutorCoupling:
    def test_hits_skip_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        specs = [RunRequest.make("ocean", c, None, OCEAN_KW)
                 for c in (1, 2)]
        first = executor.run(specs, CFG)
        assert [o.cached for o in first] == [False, False]
        second = executor.run(specs, CFG)
        assert [o.cached for o in second] == [True, True]
        assert cache.stats() == "2 hits, 2 misses"

    def test_no_cache_executor_never_touches_disk(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cachedir"))
        executor = SweepExecutor(cache=None)
        executor.run([RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)
        executor.run([RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)
        assert not (tmp_path / "cachedir").exists()

    def test_failed_points_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        executor.run([RunRequest.make("notanapp", 1, None, {})], CFG)
        assert len(cache) == 0
        again = executor.run([RunRequest.make("notanapp", 1, None, {})], CFG)
        assert not again[0].ok and not again[0].cached

    def test_different_base_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        spec = RunRequest.make("ocean", 1, None, OCEAN_KW)
        executor.run([spec], CFG)
        executor.run([spec], MachineConfig(n_processors=4))
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 2


# -------------------------------------------------------------------- CLI


class TestCLIFlags:
    def run_cli(self, *argv):
        from repro import cli
        return cli.main(list(argv))

    BASE = ("--processors", "8", "--cluster-sizes", "1,2")
    RUN = ("fig2", "--apps", "ocean")

    @pytest.fixture(autouse=True)
    def tiny_quick(self, monkeypatch):
        from repro import cli
        monkeypatch.setattr(
            cli, "QUICK_PROBLEM_SIZES", {"ocean": dict(OCEAN_KW)})

    def test_second_invocation_hits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        assert self.run_cli(*self.BASE, "--quick", *self.RUN) == 0
        err = capsys.readouterr().err
        assert "0 hits, 2 misses" in err
        assert self.run_cli(*self.BASE, "--quick", *self.RUN) == 0
        assert "2 hits, 0 misses" in capsys.readouterr().err

    def test_no_cache_flag_bypasses_reads_and_writes(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        assert self.run_cli(*self.BASE, "--quick", "--no-cache",
                            *self.RUN) == 0
        captured = capsys.readouterr()
        assert "result cache" not in captured.err
        assert not (tmp_path / "c").exists()

    def test_cache_dir_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        assert self.run_cli(*self.BASE, "--quick", "--cache-dir",
                            str(tmp_path / "flag"), *self.RUN) == 0
        assert (tmp_path / "flag").exists()
        assert not (tmp_path / "env").exists()

    def test_jobs_flag_parallel_output_matches_serial(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "a"))
        assert self.run_cli(*self.BASE, "--quick", *self.RUN) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "b"))
        assert self.run_cli(*self.BASE, "--quick", "--jobs", "2",
                            *self.RUN) == 0
        parallel = capsys.readouterr().out

        def strip_timing(text):
            return [ln for ln in text.splitlines()
                    if not ln.startswith("[")]

        assert strip_timing(serial) == strip_timing(parallel)

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            self.run_cli("--jobs", "0", "fig2", "--apps", "ocean")
